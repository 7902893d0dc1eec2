#include "host.hpp"

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <thread>

#include <pthread.h>
#include <sched.h>
#include <sys/utsname.h>
#include <unistd.h>

#include "obs/json.hpp"

#ifndef DISCOBENCH_BUILD_TYPE
#define DISCOBENCH_BUILD_TYPE "unknown"
#endif

namespace discobench {

std::vector<int> allowed_cpus() {
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> cpus;
    if (::sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
    return cpus;
}

bool pin_this_thread(int cpu) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    return ::pthread_setaffinity_np(::pthread_self(), sizeof(set), &set) == 0;
}

namespace {

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
}

}  // namespace

IdleSpinners::IdleSpinners(const std::vector<int>& cpus) {
    for (const int cpu : cpus) {
        threads_.emplace_back([this, cpu] {
            pin_this_thread(cpu);
            sched_param param{};
            ::sched_setscheduler(0, SCHED_IDLE, &param);
            while (!stop_.load(std::memory_order_relaxed)) cpu_relax();
        });
        handles_.push_back(threads_.back().native_handle());
    }
}

IdleSpinners::~IdleSpinners() {
    stop_.store(true);
    for (std::thread& t : threads_) t.join();
}

double IdleSpinners::cpu_seconds() const {
    double total = 0;
    for (const pthread_t handle : handles_) {
        clockid_t clock{};
        timespec ts{};
        if (::pthread_getcpuclockid(handle, &clock) == 0 && ::clock_gettime(clock, &ts) == 0) {
            total += static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
        }
    }
    return total;
}

std::string host_record() {
    std::string model = "unknown";
    bool aes = false;
    std::ifstream cpuinfo("/proc/cpuinfo");
    for (std::string line; std::getline(cpuinfo, line);) {
        const auto colon = line.find(':');
        if (colon == std::string::npos) continue;
        const std::string key = line.substr(0, line.find_last_not_of(" \t", colon - 1) + 1);
        const std::string value = colon + 2 <= line.size() ? line.substr(colon + 2) : "";
        if (key == "model name" && model == "unknown") model = value;
        if (key == "flags" && (" " + value + " ").find(" aes ") != std::string::npos) {
            aes = true;
        }
    }
    utsname u{};
    const std::string kernel =
        ::uname(&u) == 0 ? std::string(u.sysname) + " " + u.release : "unknown";

    narada::obs::JsonWriter w;
    w.begin_object()
        .field("nproc", static_cast<std::uint64_t>(std::thread::hardware_concurrency()))
        .field("cpu_model", model)
        .field("aes", aes)
        .field("kernel", kernel)
        .field("build_type", DISCOBENCH_BUILD_TYPE)
        .key("allowed_cpus")
        .raw(json_ints(allowed_cpus()))
        .end_object();
    std::string json = w.str();
    return json.substr(1, json.size() - 2);
}

double process_cpu_seconds() {
    timespec ts{};
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double steal_seconds(const std::vector<int>& cpus) {
    // /proc/stat: "cpuN user nice system idle iowait irq softirq steal ..."
    std::ifstream stat("/proc/stat");
    double ticks = 0;
    for (std::string line; std::getline(stat, line);) {
        int cpu = -1;
        unsigned long long f[8] = {};
        if (std::sscanf(line.c_str(), "cpu%d %llu %llu %llu %llu %llu %llu %llu %llu", &cpu,
                        &f[0], &f[1], &f[2], &f[3], &f[4], &f[5], &f[6], &f[7]) != 9) {
            continue;
        }
        if (std::find(cpus.begin(), cpus.end(), cpu) != cpus.end()) {
            ticks += static_cast<double>(f[7]);
        }
    }
    return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double median(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string json_ints(const std::vector<int>& v) {
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i > 0) out += ",";
        out += std::to_string(v[i]);
    }
    return out + "]";
}

}  // namespace discobench
