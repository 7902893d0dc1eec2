// swarm_overload: the virtual-time SwarmScenario in the overload regime.
//
// 300k struct-of-arrays endpoints arrive in a 10 s flash crowd against
// 8 brokers and 4 BDNs, then drain for 30 s of virtual time (long enough
// for every backed-off client to finish). Offered load (~30k
// requests/s) exceeds BDN ingest, so the BDNs shed, clients retransmit and
// per-BDN breakers trip. Everything runs on the discrete-event kernel: no
// sockets, no crypto. The plan (about 6 s of wall time) is replayed on a
// fresh scenario once per 7.5 s of the run, at least twice, plus up to two
// more when the host disturbed a replay; every replay of one seed must give
// the same metrics digest.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "host.hpp"
#include "result.hpp"
#include "scenario/swarm_scenario.hpp"
#include "swarm/workload.hpp"

namespace discobench {
namespace {

using namespace narada;

constexpr std::uint32_t kEndpoints = 300'000;
constexpr DurationUs kRamp = 10 * kSecond;
constexpr DurationUs kDrain = 30 * kSecond;
constexpr double kSecondsPerReplay = 7.5;
constexpr std::size_t kMinReplays = 2;
constexpr std::size_t kExtraReplays = 2;  ///< at most, for replays the host disturbed

scenario::SwarmScenarioOptions options_for(std::uint64_t seed) {
    scenario::SwarmScenarioOptions o;
    o.capacity = kEndpoints;
    o.broker_count = 8;
    o.bdn_count = 4;
    o.seed = seed;
    return o;
}

struct Replay {
    double wall_s = 0;
    double cpu_s = 0;
    double steal_share = 0;  ///< hypervisor steal on the pinned CPU
    std::size_t events = 0;
    std::uint64_t started = 0, connected = 0, requests = 0, retransmits = 0, breaker_trips = 0;
    std::size_t samples = 0;
    double p50_ms = 0, p99_ms = 0;
    double shed_frac = 0, queue_peak = 0, bytes_per_endpoint = 0;
    std::string digest;
};

}  // namespace

Result run_swarm_overload(const RunOptions& opt) {
    Result r;
    // The kernel is single-threaded: keep it on one CPU for steady wall time.
    const std::vector<int> cpus = allowed_cpus();
    const int pin = cpus.empty() ? -1 : cpus.back();
    if (pin >= 0 && !pin_this_thread(pin)) r.record.emplace_back("\"pin_failed\":true");

    swarm::WorkloadPlan plan;
    plan.flash_crowd(0, kEndpoints, kRamp);
    const scenario::SwarmScenarioOptions options = options_for(opt.seed);

    const std::size_t replay_count =
        std::max(kMinReplays, static_cast<std::size_t>(opt.seconds / kSecondsPerReplay));
    std::vector<double> setup_s;
    std::vector<Replay> replays;
    std::size_t disturbed = 0;
    const std::vector<int> pinned = pin >= 0 ? std::vector<int>{pin} : std::vector<int>{};
    {
        // One extra set-up without a plan, so setup_s is a median of three.
        const double t0 = wall_seconds();
        scenario::SwarmScenario sc(options);
        sc.warm_up();
        setup_s.push_back(wall_seconds() - t0);
    }
    while (replays.size() < replay_count + std::min(disturbed, kExtraReplays)) {
        const double t0 = wall_seconds();
        scenario::SwarmScenario sc(options);
        sc.warm_up();
        setup_s.push_back(wall_seconds() - t0);

        Replay rep;
        const double w0 = wall_seconds();
        const double c0 = process_cpu_seconds();
        const double s0 = steal_seconds(pinned);
        rep.events = sc.run_plan(plan, kDrain);
        rep.cpu_s = process_cpu_seconds() - c0;
        rep.wall_s = wall_seconds() - w0;
        rep.steal_share = (steal_seconds(pinned) - s0) / rep.wall_s;
        if (rep.steal_share > kMaxStealShare) ++disturbed;

        const swarm::SwarmCounters& c = sc.swarm().counters();
        rep.started = c.started;
        rep.connected = sc.swarm().connected();
        rep.requests = c.requests_sent;
        rep.retransmits = c.retransmits;
        rep.breaker_trips = c.breaker_trips;
        const SampleSet& latency = sc.swarm().discovery_latency_ms();
        rep.samples = latency.size();
        if (!latency.empty()) {
            rep.p50_ms = latency.percentile(50);
            rep.p99_ms = latency.percentile(99);
        }
        rep.shed_frac = sc.shed_rate();
        for (std::size_t i = 0; i < sc.bdn_count(); ++i) {
            rep.queue_peak = std::max(
                rep.queue_peak, static_cast<double>(sc.bdn_at(i).stats().queue_depth_peak));
        }
        rep.bytes_per_endpoint =
            static_cast<double>(sc.swarm().state_bytes()) / static_cast<double>(kEndpoints);
        rep.digest = sc.swarm().metrics_digest_hex();

        r.check(rep.started == kEndpoints, "flash crowd did not start every endpoint");
        r.check(rep.connected <= rep.started, "more endpoints connected than started");
        r.check(rep.samples >= rep.connected, "a connected endpoint has no latency sample");
        r.check(c.misdelivered == 0, "swarm received datagrams for ports it does not own");
        replays.push_back(rep);
    }
    const Replay& first = replays.front();
    for (const Replay& rep : replays) {
        r.check(rep.digest == first.digest, "replays of one seed disagree: " + first.digest +
                                                " vs " + rep.digest);
    }

    // Wall-clock figures come from the replays the host left alone (all of
    // them when none was).
    const bool any_quiet = disturbed < replays.size();
    std::vector<double> walls, cpus_per, dps, events_per_s;
    for (const Replay& rep : replays) {
        if (any_quiet && rep.steal_share > kMaxStealShare) continue;
        walls.push_back(rep.wall_s);
        cpus_per.push_back(ratio(rep.cpu_s * 1e6, static_cast<double>(rep.connected)));
        dps.push_back(ratio(static_cast<double>(rep.connected), rep.wall_s));
        events_per_s.push_back(ratio(static_cast<double>(rep.events), rep.wall_s));
    }
    r.attempted = first.started;
    r.failed = first.started - first.connected;
    const double started = static_cast<double>(first.started);

    if (opt.trace) {
        // Counts only: the swarm builds its network inside the scenario,
        // so there is no port to time through.
        r.set("swarm.requests_per_endpoint",
              ratio(static_cast<double>(first.requests), started));
        r.set("swarm.breaker_trips", static_cast<double>(first.breaker_trips));
        r.set("swarm.bytes_per_endpoint", first.bytes_per_endpoint);
        r.set("sim.events_per_endpoint", ratio(static_cast<double>(first.events), started));
        r.set("sim.events_per_s", median(events_per_s));
        r.set("bdn.shed_frac", first.shed_frac);
        r.set("bdn.queue_depth_peak", first.queue_peak);
        r.set("client.retransmits_per_discovery",
              ratio(static_cast<double>(first.retransmits), started));
    } else {
        r.set("setup_s", median(setup_s));
        r.set("discover_p50_ms", first.p50_ms);
        r.set("discover_p99_ms", first.p99_ms);
        r.set("fail_frac", smoothed_rate(first.started - first.connected, first.started));
        r.set("cpu_us_per_discovery", median(cpus_per));
        r.set("peak_dps", median(dps));
        r.set("swarm_p50_ms", first.p50_ms);
        r.set("swarm_p99_ms", first.p99_ms);
        r.set("swarm_retransmits_per_endpoint",
              smoothed_rate(first.retransmits, first.started));
        r.set("swarm_wall_s", median(walls));
    }

    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "\"cpu_pin\":%d,\"endpoints\":%u,\"brokers\":8,\"bdns\":4,\"ramp_s\":%lld,"
                  "\"drain_s\":%lld,\"replays\":%zu,\"digest\":\"%s\",\"samples\":%zu,"
                  "\"connected\":%llu,\"requests\":%llu,\"retransmits\":%llu,"
                  "\"breaker_trips\":%llu,\"shed_frac\":%.6f,\"events\":%zu,"
                  "\"disturbed_replays\":%zu",
                  pin, kEndpoints, static_cast<long long>(kRamp / kSecond),
                  static_cast<long long>(kDrain / kSecond), replays.size(),
                  first.digest.c_str(), first.samples,
                  static_cast<unsigned long long>(first.connected),
                  static_cast<unsigned long long>(first.requests),
                  static_cast<unsigned long long>(first.retransmits),
                  static_cast<unsigned long long>(first.breaker_trips), first.shed_frac,
                  first.events, disturbed);
    r.record.emplace_back(buf);
    std::string walls_json = "\"replay_walls_s\":[";
    for (std::size_t i = 0; i < walls.size(); ++i) {
        if (i > 0) walls_json += ",";
        walls_json += std::to_string(walls[i]);
    }
    r.record.push_back(walls_json + "]");
    return r;
}

}  // namespace discobench
