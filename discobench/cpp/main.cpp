// discobench — the repository's discovery benchmark.
//
//   discobench --workload <discover_plain|federated_sealed|swarm_overload>
//              --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Untraced (--trace 0) runs print every end-to-end metric; traced runs
// (--trace 1) print every per-layer metric (0 where the workload bypasses
// the layer). Before the result, one `discobench-record {...}` line names
// the host and the workload configuration; it is also written to
// <out-dir>/record-<workload>-seed<n>-trace<t>.json. The last line of
// stdout is the result object. Exit 0 once the result is printed; any
// failure to set up or run prints no result and exits non-zero.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "host.hpp"
#include "obs/json.hpp"
#include "result.hpp"

namespace {

using namespace discobench;

struct MetricDef {
    const char* name;
    const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"discover_p50_ms", "ms"},
    {"discover_p99_ms", "ms"},
    {"fail_frac", "ratio"},
    {"cpu_us_per_discovery", "us"},
    {"peak_dps", "1/s"},
    {"swarm_p50_ms", "ms"},
    {"swarm_p99_ms", "ms"},
    {"swarm_retransmits_per_endpoint", "count"},
    {"swarm_wall_s", "s"},
};

constexpr MetricDef kPerLayer[] = {
    {"transport.syscalls_per_discovery", "count"},
    {"transport.frames_per_discovery", "count"},
    {"transport.bytes_per_discovery", "B"},
    {"transport.recv_batch_mean", "count"},
    {"transport.send_batch_mean", "count"},
    {"transport.pool_miss_frac", "ratio"},
    {"transport.send_us", "us"},
    {"transport.drops", "count"},
    {"shard.handoff_frac", "ratio"},
    {"shard.handoff_dropped", "count"},
    {"bdn.request_us", "us"},
    {"bdn.ad_us", "us"},
    {"bdn.shard_query_us", "us"},
    {"bdn.gather_partial_frac", "ratio"},
    {"bdn.shed_frac", "ratio"},
    {"bdn.queue_depth_peak", "count"},
    {"broker.flood_us", "us"},
    {"broker.dup_frac", "ratio"},
    {"plugin.responses_per_discovery", "count"},
    {"client.ack_ms", "ms"},
    {"client.first_response_ms", "ms"},
    {"client.collect_ms", "ms"},
    {"client.score_us", "us"},
    {"client.ping_ms", "ms"},
    {"client.handler_us", "us"},
    {"client.late_response_frac", "ratio"},
    {"client.retransmits_per_discovery", "count"},
    {"crypto.ops_per_discovery", "count"},
    {"crypto.session_hit_frac", "ratio"},
    {"crypto.handshakes_in_window", "count"},
    {"swarm.requests_per_endpoint", "count"},
    {"swarm.breaker_trips", "count"},
    {"swarm.bytes_per_endpoint", "B"},
    {"sim.events_per_endpoint", "count"},
    {"sim.events_per_s", "1/s"},
    {"timer.task_us", "us"},
    {"timer.tasks_per_s", "1/s"},
    {"gen.late_p99_ms", "ms"},
    {"gen.pool_exhausted", "count"},
    {"gen.samples", "count"},
    {"trace.overhead_frac", "ratio"},
};

[[noreturn]] void usage(const std::string& why) {
    std::fprintf(stderr,
                 "discobench: %s\nusage: discobench --workload "
                 "<discover_plain|federated_sealed|swarm_overload> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out-dir <dir>]\n",
                 why.c_str());
    std::exit(2);
}

RunOptions parse(int argc, char** argv) {
    RunOptions o;
    o.out_dir = ".";
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc) usage("missing value for " + arg);
        const std::string value = argv[++i];
        char* end = nullptr;
        if (arg == "--workload") {
            o.workload = value;
            have_workload = true;
        } else if (arg == "--seed") {
            o.seed = std::strtoull(value.c_str(), &end, 10);
            if (*end != '\0' || value.empty()) usage("bad --seed");
        } else if (arg == "--seconds") {
            o.seconds = std::strtod(value.c_str(), &end);
            if (*end != '\0' || !(o.seconds > 0 && o.seconds <= 120)) usage("bad --seconds");
        } else if (arg == "--trace") {
            if (value != "0" && value != "1") usage("bad --trace");
            o.trace = value == "1";
        } else if (arg == "--out-dir") {
            o.out_dir = value;
        } else {
            usage("unknown argument " + arg);
        }
    }
    if (!have_workload) usage("missing --workload");
    return o;
}

}  // namespace

int main(int argc, char** argv) {
    const RunOptions options = parse(argc, argv);
    const std::string host = host_record();  // before any workload pins a thread
    Result result;
    try {
        if (options.workload == "discover_plain") {
            result = run_discover_plain(options);
        } else if (options.workload == "federated_sealed") {
            result = run_federated_sealed(options);
        } else if (options.workload == "swarm_overload") {
            result = run_swarm_overload(options);
        } else {
            usage("unknown workload " + options.workload);
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "discobench: %s failed: %s\n", options.workload.c_str(), e.what());
        return 1;
    }

    std::string record = "{\"workload\":\"" + options.workload +
                         "\",\"seed\":" + std::to_string(options.seed) +
                         ",\"seconds\":" + std::to_string(options.seconds) +
                         ",\"trace\":" + (options.trace ? "1" : "0") + "," + host;
    for (const std::string& member : result.record) record += "," + member;
    record += "}";
    std::printf("discobench-record %s\n", record.c_str());
    const std::string record_path = options.out_dir + "/record-" + options.workload + "-seed" +
                                    std::to_string(options.seed) + "-trace" +
                                    (options.trace ? "1" : "0") + ".json";
    if (std::FILE* f = std::fopen(record_path.c_str(), "w")) {
        std::fprintf(f, "%s\n", record.c_str());
        std::fclose(f);
    }
    for (const std::string& problem : result.problems) {
        std::fprintf(stderr, "discobench: output check failed: %s\n", problem.c_str());
    }

    narada::obs::JsonWriter w;
    w.begin_object()
        .field("correct", result.correct)
        .field("attempted", result.attempted)
        .field("failed", result.failed)
        .key("metrics")
        .begin_object();
    const auto emit = [&](const MetricDef& m, bool required) {
        const auto it = result.values.find(m.name);
        if (it == result.values.end() && required) {
            std::fprintf(stderr, "discobench: %s did not measure %s\n",
                         options.workload.c_str(), m.name);
            std::exit(1);
        }
        // Per-layer metrics of a layer the workload bypasses read 0.
        const double value = it == result.values.end() ? 0.0 : it->second;
        w.key(m.name).begin_object().field("value", value).field("unit", m.unit).end_object();
    };
    if (options.trace) {
        for (const MetricDef& m : kPerLayer) emit(m, false);
    } else {
        for (const MetricDef& m : kEndToEnd) emit(m, true);
    }
    w.end_object().end_object();
    std::printf("%s\n", w.str().c_str());
    return 0;
}
