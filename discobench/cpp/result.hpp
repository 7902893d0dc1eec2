// What one benchmark run hands back to main(): the output-check verdict,
// operation counts, named metric values and the workload's configuration
// record.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace discobench {

struct RunOptions {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string out_dir;  ///< records and span dumps go here
};

struct Result {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> problems;     ///< failed output checks
    std::map<std::string, double> values;  ///< metric name -> value
    /// Workload configuration and run facts (JSON members, no braces),
    /// added to the host record.
    std::vector<std::string> record;

    void check(bool ok, const std::string& what) {
        if (ok) return;
        correct = false;
        problems.push_back(what);
    }
    void set(const std::string& name, double value) { values[name] = value; }
};

/// Add-one (rule of succession) estimate of a rate whose raw count is
/// often zero: (events + 1) / (trials + 2). Never 0, and within 1/trials
/// of the raw fraction.
inline double smoothed_rate(std::uint64_t events, std::uint64_t trials) {
    return (static_cast<double>(events) + 1.0) / (static_cast<double>(trials) + 2.0);
}

/// Ratio that reads 0 when nothing was counted.
inline double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

Result run_discover_plain(const RunOptions& options);
Result run_federated_sealed(const RunOptions& options);
Result run_swarm_overload(const RunOptions& options);

}  // namespace discobench
