// Host facts for the run record, CPU selection for pinning, and the
// small timing helpers every workload uses.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <pthread.h>

namespace discobench {

/// CPUs this process may run on (sched_getaffinity), ascending.
std::vector<int> allowed_cpus();

/// Pin the calling thread to `cpu`; false when the kernel refuses.
bool pin_this_thread(int cpu);

/// Keeps CPUs out of idle while a run uses them. One SCHED_IDLE thread per
/// CPU spins on `pause`; any runnable thread preempts it at once. On a
/// virtualized host a halted vCPU can take milliseconds to wake, and those
/// wake-ups otherwise set the latency tail. The spinners' own CPU time is
/// reported by cpu_seconds() so callers can leave it out.
class IdleSpinners {
public:
    explicit IdleSpinners(const std::vector<int>& cpus);
    ~IdleSpinners();
    IdleSpinners(const IdleSpinners&) = delete;
    IdleSpinners& operator=(const IdleSpinners&) = delete;

    /// CPU time the spinner threads have used so far, seconds.
    [[nodiscard]] double cpu_seconds() const;

private:
    std::atomic<bool> stop_{false};
    std::vector<std::thread> threads_;
    std::vector<pthread_t> handles_;  ///< for the per-thread CPU clocks
};

/// JSON members (no braces): nproc, cpu model, aes flag, kernel, build
/// type, allowed CPUs.
std::string host_record();

inline double wall_seconds() {
    return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// Process CPU time (all threads), seconds.
double process_cpu_seconds();

/// Time the hypervisor has taken from `cpus` so far (steal, summed over
/// the CPUs), seconds; 0 where the kernel does not report it.
double steal_seconds(const std::vector<int>& cpus);

/// A measured window during which the hypervisor took more than this
/// share of the pinned CPUs' time was disturbed by the host, not the
/// program; workloads measure it again (once).
constexpr double kMaxStealShare = 0.04;

/// Median of a non-empty sample (copy; small vectors only).
double median(std::vector<double> v);

/// JSON array of ints, e.g. "[1,2]".
std::string json_ints(const std::vector<int>& v);

}  // namespace discobench
