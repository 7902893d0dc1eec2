// The two real-loopback workloads: discover_plain and federated_sealed.
//
// A Plane is one complete deployment inside this process: BDNs, brokers
// with the discovery plugin and (on federated_sealed) their security
// contexts run on the system-under-test ShardRuntime; a pool of discovery
// clients runs on the generator's own PosixTransport reactor. Every node
// gets its own NodePort (node_port.hpp), which is what makes teardown safe
// and what the traced run times.
//
// The generator is honest in the sense of the choosing-metrics guide: the
// open loop issues every request that is due on each pacer tick (the
// reactor's timers have 1 ms granularity) and times each one from its due
// time, so a stall is charged to every request it delays; a request that
// finds no idle client is refused and counted as failed.
#include <cmath>
#include <cstdio>
#include <future>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "broker/broker.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "crypto/rsa.hpp"
#include "discovery/bdn.hpp"
#include "discovery/broker_plugin.hpp"
#include "discovery/client.hpp"
#include "discovery/security.hpp"
#include "host.hpp"
#include "node_port.hpp"
#include "obs/metrics.hpp"
#include "result.hpp"
#include "timesvc/ntp.hpp"
#include "transport/posix_transport.hpp"
#include "transport/shard_runtime.hpp"
#include "wire/msg_types.hpp"

namespace discobench {
namespace {

using namespace narada;
using discovery::Bdn;
using discovery::BrokerDiscoveryPlugin;
using discovery::DiscoveryClient;
using discovery::DiscoveryReport;
using discovery::SecurityContext;

struct Spec {
    const char* name = "";
    std::size_t bdns = 1;
    std::size_t brokers = 8;
    bool tree = false;  ///< false: ring overlay (cyclic, connected); true: binary tree
    std::size_t shards = 1;
    bool sealed = false;
    DurationUs advertise_interval = 30 * kSecond;
    double open_rate = 2000;  ///< open-loop discoveries/s
    /// Sizes the closed-loop batch: discoveries per second of run time,
    /// near this plane's peak so the batch takes about 0.4 s per run second.
    double closed_batch_rate = 10000;
    /// Planes built per run; setup_s is their median. A plain plane is up
    /// in a few ms, so it takes more builds to steady the median.
    std::size_t setups = 15;
};

Spec discover_plain_spec() {
    Spec s;
    s.name = "discover_plain";
    return s;
}

Spec federated_sealed_spec() {
    Spec s;
    s.name = "federated_sealed";
    s.bdns = 3;
    s.brokers = 16;
    s.tree = true;
    s.shards = 2;
    s.sealed = true;
    s.advertise_interval = from_ms(20);
    s.open_rate = 500;
    s.closed_batch_rate = 7000;
    s.setups = 5;  // each generates 20 RSA keys
    return s;
}

constexpr std::size_t kOutstanding = 32;  ///< closed-loop discoveries in flight
constexpr std::size_t kClientPool = 128;  ///< generator's discovery clients
constexpr std::size_t kRsaBits = 512;
constexpr std::size_t kTailWindowSamples = 1000;  ///< per windowed_p99 slice (10 beyond p99)
constexpr double kWarmupSeconds = 0.5;    ///< open loop before any measured window
constexpr double kDrainSeconds = 2.0;     ///< grace for in-flight discoveries
constexpr double kReadySeconds = 20.0;    ///< set-up deadline
constexpr double kClosedShare = 0.4;      ///< of the run's seconds, at the nominal rate
constexpr double kSecondsPerRound = 1.5;  ///< one open slice + one closed batch...
constexpr std::size_t kMinRounds = 4;     ///< ...and at least this many per run
constexpr double kClosedSlack = 10.0;     ///< closed batch deadline, x its nominal time...
constexpr double kClosedMaxSeconds = 60;  ///< ...capped so a run stays well under 180 s
constexpr const char* kRealm = "loopback";
constexpr const char* kRestrictedRealm = "restricted";

/// Run `fn` on the thread behind `scheduler` and wait for it. A reactor
/// that does not answer within 10 s leaves nothing safe to unwind, so the
/// process ends with an error (no result line).
template <typename F>
void on_thread(Scheduler& scheduler, F&& fn) {
    std::promise<void> done;
    std::future<void> ready = done.get_future();
    scheduler.schedule(0, [&fn, &done] {
        fn();
        done.set_value();
    });
    if (ready.wait_for(std::chrono::seconds(10)) != std::future_status::ready) {
        std::fprintf(stderr, "discobench: reactor stopped answering\n");
        std::fflush(nullptr);
        std::_Exit(3);
    }
}

double percentile(const std::vector<double>& v, double p) {
    if (v.empty()) return 0.0;
    SampleSet s;
    for (double x : v) s.add(x);
    return s.percentile(p);
}

/// p99 of each consecutive slice of kTailWindowSamples or more of `v`
/// (samples in completion order), median over the slices. A host stall
/// lands in a slice or two and moves this estimate much less than the
/// pooled p99, which the record line keeps alongside.
double windowed_p99(const std::vector<double>& v) {
    const std::size_t windows = std::max<std::size_t>(1, v.size() / kTailWindowSamples);
    std::vector<double> tails;
    for (std::size_t w = 0; w < windows; ++w) {
        const auto first = v.begin() + static_cast<std::ptrdiff_t>(v.size() * w / windows);
        const auto last = v.begin() + static_cast<std::ptrdiff_t>(v.size() * (w + 1) / windows);
        tails.push_back(percentile(std::vector<double>(first, last), 99));
    }
    return median(tails);
}

/// CPUs for the SUT shards and the generator, all distinct, leaving the
/// first allowed CPU to the main thread when there is room. Empty pins
/// (no pinning) when the process may use too few CPUs.
struct Pins {
    std::vector<int> sut;
    int gen = -1;

    /// Every pinned CPU, SUT and generator.
    [[nodiscard]] std::vector<int> cpus() const {
        std::vector<int> all = sut;
        if (gen >= 0) all.push_back(gen);
        return all;
    }
};

Pins choose_pins(std::size_t shards) {
    const std::vector<int> cpus = allowed_cpus();
    Pins pins;
    if (cpus.size() < shards + 1) return pins;
    const std::size_t first = cpus.size() >= shards + 2 ? 1 : 0;
    for (std::size_t i = 0; i < shards; ++i) pins.sut.push_back(cpus[first + i]);
    pins.gen = cpus[first + shards];
    return pins;
}

/// Consecutive free loopback ports, starting from a per-process base so
/// back-to-back runs do not probe the same range. Every endpoint uses host
/// label 0: that is the label a PosixTransport gives the source of a
/// datagram from a port it does not own itself, so replies that cross
/// between the SUT and generator reactors still match their endpoints.
class PortAlloc {
public:
    PortAlloc()
        : next_(static_cast<std::uint16_t>(20000 + (::getpid() % 400) * 100)) {}
    Endpoint next() {
        next_ = transport::PosixTransport::find_free_port(next_);
        return Endpoint{0, next_++};
    }

private:
    std::uint16_t next_;
};

/// Counter readings at a phase boundary. Registry counters are atomics
/// read from the main thread; node stats are read on their home threads.
struct Snapshot {
    double wall = 0;
    double cpu = 0;
    double steal = 0;  ///< hypervisor steal on the pinned CPUs, seconds
    // transport (SUT shards + generator)
    double syscalls = 0, frames = 0, bytes = 0;
    double pool_hits = 0, pool_misses = 0;
    double drops = 0;  ///< udp_backlog_dropped + eagain_stalls
    double recv_batches = 0, recv_batched = 0, send_batches = 0, send_batched = 0;
    double sut_frames_in = 0, handoff_forwarded = 0, handoff_dropped = 0;
    // nodes
    double bdn_requests = 0, gathers = 0, gathers_partial = 0, shed = 0, queue_peak = 0;
    double events_in = 0, duplicates = 0, responses_sent = 0;
    double crypto_ops = 0, session_hits = 0, session_misses = 0, handshakes = 0;
    double late_responses = 0, client_responses = 0;
};

/// One measured phase of the generator: an open loop issuing `total`
/// requests on a fixed schedule, or a closed loop completing a fixed batch
/// of `total` with kOutstanding in flight.
struct Phase {
    bool open_loop = true;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;  ///< no request is issued at or after this
    std::int64_t interval_ns = 0;
    std::uint64_t total = 0;  ///< requests in the plan
    std::uint64_t next_index = 0;
    std::int64_t last_done_ns = 0;
    bool closed = false;  ///< completions after this count nowhere
    std::atomic<bool> issued_all{false};
    std::atomic<std::uint64_t> in_flight{0};

    // results (generator thread until `closed`, then read by main)
    std::uint64_t attempted = 0, succeeded = 0, failed = 0, refused = 0, violations = 0;
    std::uint64_t retransmits = 0, still_open = 0;
    std::vector<double> latency_ms;  ///< open: due -> selection; closed: issue -> selection
    std::vector<double> late_ms;     ///< issue - due (open loop)
    std::vector<double> ack_ms, first_ms, collect_ms, score_us, ping_ms;
    std::string first_problem;
    Snapshot before, after;

    /// Process CPU seconds the phase used (idle spinners excluded).
    [[nodiscard]] double cpu() const { return after.cpu - before.cpu; }
    /// Share of the pinned CPUs' time the hypervisor took during the phase.
    double steal_share = 0;
};

/// The host left the phase alone: it took no more than kMaxStealShare of
/// the pinned CPUs' time.
bool quiet(const Phase& ph) { return ph.steal_share <= kMaxStealShare; }

std::int64_t steady_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

class Plane {
public:
    Plane(const Spec& spec, std::uint64_t seed, Tracer& tracer, const Pins& pins,
          PortAlloc& ports);
    ~Plane();

    Plane(const Plane&) = delete;
    Plane& operator=(const Plane&) = delete;

    /// Start every node on its home thread and wait until the plane is
    /// ready: overlay links up, every broker registered at a BDN (on a
    /// federated plane, at an owner under the ring) and, when sealed, a
    /// discovery answered through every BDN so every session is warm.
    /// Throws on timeout.
    void start_and_wait_ready();

    /// Run one generator phase, then drain: an open loop for `seconds`, or
    /// a closed-loop batch sized for `seconds` at the spec's batch rate.
    /// The phase's snapshots bracket it. The plane owns the phase, so a
    /// late completion can never outlive it.
    const Phase& run_phase(bool open_loop, double seconds);
    /// run_phase, measured once more when the host disturbed the first
    /// attempt (steal above kMaxStealShare); the later attempt is returned.
    const Phase& measure(bool open_loop, double seconds);
    [[nodiscard]] std::size_t remeasured() const { return remeasured_; }
    /// Every phase run so far, discarded attempts included (output checks).
    [[nodiscard]] std::vector<const Phase*> phases() const {
        std::vector<const Phase*> all;
        for (const auto& ph : phases_) all.push_back(ph.get());
        return all;
    }

    /// Every reactor has finished whatever it was running.
    void barrier();

    /// Keep the pinned CPUs out of idle (keep_awake) or stop doing so
    /// (let_idle). Set-up and the paced open loop leave the reactors idle
    /// between messages, and there the wake-up of a halted virtual CPU would
    /// set the timings (and read as hypervisor steal). A closed loop keeps
    /// the reactors busy itself, and spinning beside it only takes core
    /// resources from a hyperthread sibling. Call these between phases only:
    /// a phase's CPU figure leaves out the spinners alive at its snapshots.
    void keep_awake() {
        if (!spinners_) spinners_.emplace(busy_cpus_);
    }
    void let_idle() { spinners_.reset(); }

    [[nodiscard]] std::uint64_t admitted_brokers() const { return admitted_.size(); }

private:
    Scheduler& home(std::size_t shard) { return sut_->port(shard); }
    Scheduler& bdn_thread(std::size_t i) { return home(i % spec_.shards); }
    Scheduler& broker_thread(std::size_t i) { return home((spec_.bdns + i) % spec_.shards); }
    void build(std::uint64_t seed, const Pins& pins, PortAlloc& ports);
    void teardown();
    NodePort& make_port(Role role, std::size_t shard, bool generator);
    void build_security(std::uint64_t seed);
    Snapshot snapshot();

    // generator (runs on the generator thread)
    void tick(Phase* phase);
    void issue_next(Phase* phase, std::int64_t due_ns);
    void on_done(Phase* phase, std::size_t client, std::int64_t due_ns, std::int64_t issue_ns,
                 const DiscoveryReport& report);
    [[nodiscard]] std::string check_selection(const DiscoveryReport& report) const;

    const Spec& spec_;
    Tracer& tracer_;
    std::vector<int> busy_cpus_;  ///< pinned reactor CPUs
    /// Keeps busy_cpus_ out of idle from construction until let_idle().
    std::optional<IdleSpinners> spinners_;
    WallClock wall_;
    timesvc::FixedUtcSource utc_{wall_};
    obs::MetricsRegistry registry_;  ///< outlives every transport below
    Gate gate_;
    std::vector<std::unique_ptr<NodePort>> ports_;  ///< outlive the reactors
    std::unique_ptr<transport::ShardRuntime> sut_;
    std::unique_ptr<transport::PosixTransport> gen_;

    // identities and security (federated_sealed)
    std::vector<std::string> bdn_names_, broker_names_;
    std::vector<Endpoint> bdn_eps_, broker_eps_;
    std::vector<std::unique_ptr<Rng>> rngs_;
    std::vector<std::unique_ptr<SecurityContext>> contexts_;  ///< bdns, brokers, generator
    SecurityContext* bdn_ctx(std::size_t i) {
        return contexts_.empty() ? nullptr : contexts_[i].get();
    }
    SecurityContext* broker_ctx(std::size_t i) {
        return contexts_.empty() ? nullptr : contexts_[spec_.bdns + i].get();
    }
    SecurityContext* gen_ctx() { return contexts_.empty() ? nullptr : contexts_.back().get(); }

    std::vector<std::pair<std::size_t, std::size_t>> edges_;  ///< (connector, peer)
    std::set<std::string> admitted_;  ///< brokers whose policy admits the generator
    std::map<std::string, Endpoint> broker_by_name_;

    std::vector<std::unique_ptr<Bdn>> bdns_;
    std::vector<std::unique_ptr<broker::Broker>> brokers_;
    std::vector<std::unique_ptr<BrokerDiscoveryPlugin>> plugins_;
    std::vector<std::unique_ptr<DiscoveryClient>> clients_;
    std::vector<NodePort*> client_ports_;
    std::vector<std::size_t> idle_;  ///< generator thread only
    std::vector<std::unique_ptr<Phase>> phases_;
    std::size_t remeasured_ = 0;
};

Plane::Plane(const Spec& spec, std::uint64_t seed, Tracer& tracer, const Pins& pins,
             PortAlloc& ports)
    : spec_(spec), tracer_(tracer), busy_cpus_(pins.cpus()) {
    spinners_.emplace(busy_cpus_);
    try {
        build(seed, pins, ports);
    } catch (...) {
        teardown();  // reactors may already be delivering to built nodes
        throw;
    }
}

void Plane::build(std::uint64_t seed, const Pins& pins, PortAlloc& ports) {
    const Spec& spec = spec_;
    transport::ShardRuntimeOptions sopt;
    sopt.shards = spec.shards;
    sopt.pin_cpus = pins.sut;
    sut_ = std::make_unique<transport::ShardRuntime>(sopt);
    sut_->set_observability(&registry_, "sut");
    transport::PosixTransportOptions gopt;
    gopt.pin_cpu = pins.gen;
    gen_ = std::make_unique<transport::PosixTransport>(gopt);
    gen_->set_observability(&registry_, "gen");

    for (std::size_t i = 0; i < spec.bdns; ++i) {
        bdn_names_.push_back("bdn-" + std::to_string(i));
        bdn_eps_.push_back(ports.next());
    }
    for (std::size_t i = 0; i < spec.brokers; ++i) {
        broker_names_.push_back("broker-" + std::to_string(i));
        broker_eps_.push_back(ports.next());
        broker_by_name_[broker_names_[i]] = broker_eps_[i];
        // The last broker only answers another realm: it floods but must
        // never be selected.
        if (i + 1 < spec.brokers) admitted_.insert(broker_names_[i]);
    }
    if (spec.sealed) build_security(seed);

    config::BdnConfig bcfg;
    bcfg.injection_spacing = 0;  // a sim cost model; over real sockets it is only a sleep
    bcfg.request_service_cost = 0;
    if (spec.bdns > 1) {
        bcfg.peer_group = bdn_eps_;
        bcfg.replication_factor = 2;
    }
    for (std::size_t i = 0; i < spec.bdns; ++i) {
        NodePort& port = make_port(Role::kBdn, i % spec.shards, false);
        auto bdn = std::make_unique<Bdn>(port, port, bdn_eps_[i], wall_, bcfg, bdn_names_[i]);
        bdn->set_security(bdn_ctx(i));
        bdns_.push_back(std::move(bdn));
    }

    for (std::size_t i = 0; i < spec.brokers; ++i) {
        config::BrokerConfig cfg;
        cfg.advertise_bdns = {bdn_eps_[i % spec.bdns]};
        cfg.advertise_on_topic = false;
        cfg.advertise_interval = spec.advertise_interval;
        cfg.processing_delay = 0;  // a sim cost model, see above
        if (admitted_.count(broker_names_[i]) == 0) cfg.allowed_realms = {kRestrictedRealm};
        NodePort& port = make_port(Role::kBroker, (spec.bdns + i) % spec.shards, false);
        auto node = std::make_unique<broker::Broker>(port, port, broker_eps_[i], wall_, utc_,
                                                     cfg, broker_names_[i]);
        discovery::BrokerIdentity identity;
        identity.hostname = "127.0.0.1";
        identity.realm = kRealm;
        auto plugin = std::make_unique<BrokerDiscoveryPlugin>(identity, false);
        plugin->set_security(broker_ctx(i));
        node->add_plugin(plugin.get());
        plugins_.push_back(std::move(plugin));
        brokers_.push_back(std::move(node));
    }
    for (std::size_t i = 1; i < spec.brokers; ++i) {
        edges_.emplace_back(i, spec.tree ? (i - 1) / 2 : i - 1);
    }
    if (!spec.tree && spec.brokers > 2) edges_.emplace_back(0, spec.brokers - 1);

    for (std::size_t c = 0; c < kClientPool; ++c) {
        config::DiscoveryConfig cfg;
        // Rotated BDN lists spread the first attempts over every BDN.
        for (std::size_t k = 0; k < spec.bdns; ++k) {
            cfg.bdns.push_back(bdn_eps_[(c + k) % spec.bdns]);
        }
        cfg.response_window = from_ms(250);
        cfg.max_responses = static_cast<std::uint32_t>(admitted_.size());
        cfg.ping_window = from_ms(100);
        cfg.retransmit_interval = from_ms(100);
        NodePort& port = make_port(Role::kClient, 0, true);
        auto client = std::make_unique<DiscoveryClient>(port, port, ports.next(), wall_, utc_,
                                                        cfg, "generator", kRealm);
        client->set_security(gen_ctx());
        clients_.push_back(std::move(client));
        client_ports_.push_back(&port);
        idle_.push_back(c);
    }
}

NodePort& Plane::make_port(Role role, std::size_t shard, bool generator) {
    transport::Transport& t = generator ? static_cast<transport::Transport&>(*gen_)
                                        : static_cast<transport::Transport&>(sut_->port(shard));
    Scheduler& s = generator ? static_cast<Scheduler&>(*gen_)
                             : static_cast<Scheduler&>(sut_->port(shard));
    ports_.push_back(std::make_unique<NodePort>(t, s, gate_, tracer_, role,
                                                static_cast<std::uint16_t>(ports_.size())));
    return *ports_.back();
}

void Plane::build_security(std::uint64_t seed) {
    // Same seed, same keys. Every identity's public key is provisioned on
    // every context (full mesh), so sealing any intra-plane edge later
    // needs no change here.
    Rng key_rng(seed ^ 0x5EA1ED5EEDull);
    std::vector<std::string> names = bdn_names_;
    names.insert(names.end(), broker_names_.begin(), broker_names_.end());
    names.push_back("generator");
    std::vector<Endpoint> eps = bdn_eps_;
    eps.insert(eps.end(), broker_eps_.begin(), broker_eps_.end());

    std::vector<crypto::RsaKeyPair> keys;
    for (std::size_t i = 0; i < names.size(); ++i) {
        keys.push_back(crypto::rsa_generate(key_rng, kRsaBits));
    }
    config::SecurityConfig cfg;
    cfg.mode = config::SecurityConfig::Mode::kSeal;
    cfg.authenticate_ads = true;
    for (std::size_t i = 0; i < names.size(); ++i) {
        rngs_.push_back(std::make_unique<Rng>(seed * 1000003ull + i));
        auto ctx = std::make_unique<SecurityContext>(names[i], keys[i],
                                                     std::vector<crypto::Certificate>{},
                                                     std::vector<crypto::Certificate>{}, cfg,
                                                     wall_, *rngs_.back());
        for (std::size_t j = 0; j < names.size(); ++j) {
            if (j == i) continue;
            ctx->add_peer_key(names[j], keys[j].public_key);
            if (j < eps.size()) ctx->map_endpoint(eps[j], names[j]);
        }
        contexts_.push_back(std::move(ctx));
    }
}

Plane::~Plane() { teardown(); }

void Plane::teardown() {
    // Close the gate so nothing queued reaches a node, let every reactor
    // finish what it is running, destroy the nodes (their destructors
    // unbind and cancel through live transports), then stop the reactors,
    // and only then drop the ports they were calling into.
    gate_.close();
    if (sut_ && gen_) barrier();
    spinners_.reset();
    clients_.clear();
    bdns_.clear();
    brokers_.clear();
    plugins_.clear();
    contexts_.clear();
    gen_.reset();
    sut_.reset();
    ports_.clear();
}

void Plane::barrier() {
    for (std::size_t s = 0; s < spec_.shards; ++s) on_thread(home(s), [] {});
    on_thread(*gen_, [] {});
}

void Plane::start_and_wait_ready() {
    for (std::size_t i = 0; i < spec_.bdns; ++i) {
        on_thread(bdn_thread(i), [&, i] { bdns_[i]->start(); });
    }
    for (std::size_t i = 0; i < spec_.brokers; ++i) {
        on_thread(broker_thread(i), [&, i] { brokers_[i]->start(); });
    }
    for (const auto& [a, b] : edges_) {
        on_thread(broker_thread(a), [&, a = a, b = b] {
            brokers_[a]->connect_to_peer(broker_eps_[b]);
        });
    }
    std::vector<std::size_t> degree(spec_.brokers, 0);
    for (const auto& [a, b] : edges_) {
        ++degree[a];
        ++degree[b];
    }
    const double deadline = wall_seconds() + kReadySeconds;
    for (;;) {
        std::string missing;
        for (std::size_t i = 0; i < spec_.brokers && missing.empty(); ++i) {
            std::size_t links = 0;
            on_thread(broker_thread(i), [&] { links = brokers_[i]->established_peer_count(); });
            if (links < degree[i]) missing = broker_names_[i] + " has too few peer links";
        }
        std::map<std::string, std::size_t> copies;
        for (std::size_t b = 0; b < spec_.bdns && missing.empty(); ++b) {
            on_thread(bdn_thread(b), [&] {
                for (const auto& rb : bdns_[b]->registry()) ++copies[rb.ad.broker_name];
            });
        }
        for (const std::string& name : broker_names_) {
            if (missing.empty() && copies[name] == 0) missing = name + " is not registered";
        }
        if (missing.empty()) break;
        if (wall_seconds() > deadline) throw std::runtime_error("plane not ready: " + missing);
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    }

    if (!spec_.sealed) return;
    // Warm every session: one discovery through each BDN (client c's first
    // BDN is c mod bdns). The generator context then holds a session with
    // every BDN, and the BDNs with it.
    for (std::size_t b = 0; b < spec_.bdns; ++b) {
        bool ok = false;
        for (int attempt = 0; attempt < 5 && !ok; ++attempt) {
            auto done = std::make_shared<std::promise<bool>>();
            std::future<bool> result = done->get_future();
            on_thread(*gen_, [&] {
                clients_[b]->discover(
                    [done](const DiscoveryReport& r) { done->set_value(r.success); });
            });
            if (result.wait_for(std::chrono::seconds(5)) != std::future_status::ready) {
                throw std::runtime_error("warm-up discovery did not finish");
            }
            ok = result.get();
        }
        if (!ok) {
            throw std::runtime_error("warm-up discovery through " + bdn_names_[b] + " failed");
        }
    }
}

Snapshot Plane::snapshot() {
    Snapshot s;
    s.wall = wall_seconds();
    s.cpu = process_cpu_seconds() - (spinners_ ? spinners_->cpu_seconds() : 0.0);
    s.steal = steal_seconds(busy_cpus_);
    std::vector<std::string> nodes{"gen"};
    for (std::size_t i = 0; i < spec_.shards; ++i) nodes.push_back("sut#" + std::to_string(i));
    for (const std::string& n : nodes) {
        const auto c = [&](const char* name) {
            return static_cast<double>(registry_.counter_value(name, n));
        };
        s.syscalls += c("transport_syscalls_recv") + c("transport_syscalls_send");
        s.frames += c("transport_frames_in") + c("transport_frames_out");
        s.bytes += c("transport_bytes_in") + c("transport_bytes_out");
        s.pool_hits += c("transport_pool_hits");
        s.pool_misses += c("transport_pool_misses");
        s.drops += c("transport_udp_backlog_dropped") + c("transport_eagain_stalls");
        const auto rb =
            registry_.histogram("transport_recv_batch", n, obs::batch_buckets()).snapshot();
        const auto sb =
            registry_.histogram("transport_send_batch", n, obs::batch_buckets()).snapshot();
        s.recv_batches += static_cast<double>(rb.count);
        s.recv_batched += rb.sum;
        s.send_batches += static_cast<double>(sb.count);
        s.send_batched += sb.sum;
        if (n != "gen") s.sut_frames_in += c("transport_frames_in");
    }
    s.handoff_forwarded = static_cast<double>(
        registry_.sharded_counter("transport_handoff_forwarded", "sut", spec_.shards).value());
    s.handoff_dropped = static_cast<double>(
        registry_.sharded_counter("transport_handoff_dropped", "sut", spec_.shards).value());

    const auto add_crypto = [&s](const SecurityContext* ctx) {
        if (ctx == nullptr) return;
        const auto& st = ctx->stats();
        s.crypto_ops += static_cast<double>(st.seals + st.opens);
        s.session_hits += static_cast<double>(st.session_hits);
        s.session_misses += static_cast<double>(st.session_misses);
        s.handshakes += static_cast<double>(st.handshakes_sent);
    };
    for (std::size_t i = 0; i < spec_.bdns; ++i) {
        on_thread(bdn_thread(i), [&] {
            const auto& st = bdns_[i]->stats();
            s.bdn_requests += static_cast<double>(st.requests_received);
            s.gathers += static_cast<double>(st.gathers);
            s.gathers_partial += static_cast<double>(st.gathers_partial);
            s.shed += static_cast<double>(st.requests_shed());
            s.queue_peak = std::max(s.queue_peak, static_cast<double>(st.queue_depth_peak));
            add_crypto(bdn_ctx(i));
        });
    }
    for (std::size_t i = 0; i < spec_.brokers; ++i) {
        on_thread(broker_thread(i), [&] {
            const auto& st = brokers_[i]->stats();
            s.events_in += static_cast<double>(st.events_ingested + st.duplicates_suppressed);
            s.duplicates += static_cast<double>(st.duplicates_suppressed);
            s.responses_sent += static_cast<double>(plugins_[i]->stats().responses_sent);
            add_crypto(broker_ctx(i));
        });
    }
    on_thread(*gen_, [&] {
        add_crypto(gen_ctx());
        for (const NodePort* p : client_ports_) {
            s.late_responses += static_cast<double>(p->late_responses());
            s.client_responses += static_cast<double>(p->responses());
        }
    });
    return s;
}

const Phase& Plane::run_phase(bool open_loop, double seconds) {
    phases_.push_back(std::make_unique<Phase>());
    Phase* ph = phases_.back().get();
    ph->open_loop = open_loop;
    ph->total = static_cast<std::uint64_t>(
        seconds * (open_loop ? spec_.open_rate : spec_.closed_batch_rate));
    const double window =
        open_loop ? seconds : std::min(seconds * kClosedSlack, kClosedMaxSeconds);
    ph->before = snapshot();
    const double started = wall_seconds();
    on_thread(*gen_, [&] {
        ph->start_ns = steady_ns();
        ph->end_ns = ph->start_ns + static_cast<std::int64_t>(window * 1e9);
        if (open_loop) {
            ph->interval_ns = static_cast<std::int64_t>(1e9 / spec_.open_rate);
            tick(ph);
        } else {
            while (ph->next_index < std::min<std::uint64_t>(kOutstanding, ph->total)) {
                issue_next(ph, ph->start_ns);
            }
        }
    });
    while (!(ph->issued_all.load() && ph->in_flight.load() == 0) &&
           wall_seconds() < started + window + kDrainSeconds) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    on_thread(*gen_, [&] {
        ph->closed = true;
        // Discoveries still open after the grace period never terminated
        // in time, and a batch past its deadline is cut short: both count
        // as failed.
        ph->still_open = ph->in_flight.load();
        const std::uint64_t unissued = ph->total - ph->next_index;
        ph->attempted += unissued;
        ph->refused += unissued;
        ph->failed += ph->still_open + unissued;
    });

    ph->after = snapshot();
    if (!busy_cpus_.empty() && ph->after.wall > ph->before.wall) {
        ph->steal_share = (ph->after.steal - ph->before.steal) /
                          ((ph->after.wall - ph->before.wall) *
                           static_cast<double>(busy_cpus_.size()));
    }
    return *ph;
}

const Phase& Plane::measure(bool open_loop, double seconds) {
    const Phase* ph = &run_phase(open_loop, seconds);
    if (!quiet(*ph)) {
        ++remeasured_;
        ph = &run_phase(open_loop, seconds);
    }
    return *ph;
}

void Plane::tick(Phase* ph) {
    if (!gate_.open() || ph->closed) return;
    const std::int64_t now = steady_ns();
    const auto due = [ph] {
        return ph->start_ns + static_cast<std::int64_t>(ph->next_index) * ph->interval_ns;
    };
    while (ph->next_index < ph->total && due() <= now) issue_next(ph, due());
    if (ph->next_index >= ph->total) return;
    const std::int64_t next_due = due();
    const DurationUs delay = std::max<std::int64_t>(0, (next_due - steady_ns()) / 1000);
    gen_->schedule(delay, [this, ph] { tick(ph); });
}

void Plane::issue_next(Phase* ph, std::int64_t due_ns) {
    ++ph->attempted;
    if (++ph->next_index == ph->total) ph->issued_all.store(true);
    if (idle_.empty()) {
        ++ph->refused;
        ++ph->failed;
        return;
    }
    const std::size_t c = idle_.back();
    idle_.pop_back();
    const std::int64_t issue_ns = steady_ns();
    if (ph->open_loop) ph->late_ms.push_back(static_cast<double>(issue_ns - due_ns) * 1e-6);
    ph->in_flight.fetch_add(1);
    // No recovery through a cached target set: a discovery must go through
    // the BDN path to count.
    clients_[c]->set_cached_target_set({});
    clients_[c]->discover([this, ph, c, due_ns, issue_ns](const DiscoveryReport& report) {
        on_done(ph, c, due_ns, issue_ns, report);
    });
}

std::string Plane::check_selection(const DiscoveryReport& report) const {
    const discovery::Candidate* chosen = report.selected_candidate();
    if (chosen == nullptr) return "successful discovery without a selected broker";
    const std::string& name = chosen->response.broker_name;
    const auto it = broker_by_name_.find(name);
    if (it == broker_by_name_.end()) {
        return "selected broker '" + name + "' is not in the plane";
    }
    if (it->second != chosen->response.endpoint) {
        return "selected broker '" + name + "' answered for another endpoint";
    }
    if (admitted_.count(name) == 0) {
        return "selected broker '" + name + "' is not admitted by policy";
    }
    return {};
}

void Plane::on_done(Phase* ph, std::size_t client, std::int64_t due_ns, std::int64_t issue_ns,
                    const DiscoveryReport& report) {
    const std::int64_t done_ns = steady_ns();
    ph->in_flight.fetch_sub(1);
    if (!ph->closed) {
        ph->last_done_ns = done_ns;
        ph->retransmits += report.retransmits;
        std::string problem = report.success ? check_selection(report) : std::string();
        if (!problem.empty()) {
            ++ph->violations;
            if (ph->first_problem.empty()) ph->first_problem = problem;
        }
        if (report.success && problem.empty()) {
            ++ph->succeeded;
            const std::int64_t from = ph->open_loop ? due_ns : issue_ns;
            ph->latency_ms.push_back(static_cast<double>(done_ns - from) * 1e-6);
            ph->ack_ms.push_back(to_ms(report.time_to_ack));
            ph->first_ms.push_back(to_ms(report.time_to_first_response));
            ph->collect_ms.push_back(to_ms(report.collection_duration));
            ph->score_us.push_back(static_cast<double>(report.scoring_duration));
            ph->ping_ms.push_back(to_ms(report.ping_duration));
        } else {
            ++ph->failed;
        }
    }
    idle_.push_back(client);
    if (!ph->closed && !ph->open_loop && ph->next_index < ph->total && done_ns < ph->end_ns &&
        gate_.open()) {
        issue_next(ph, done_ns);
    }
}

/// Per-layer metrics of a traced open-loop phase (see README for the
/// layer -> end-to-end map).
void per_layer(Result& r, const Phase& ph, const Tracer& tracer) {
    const Snapshot& a = ph.before;
    const Snapshot& b = ph.after;
    const double n = static_cast<double>(ph.succeeded);
    const double seconds = b.wall - a.wall;
    const auto d = [&](double Snapshot::*f) { return b.*f - a.*f; };
    const auto mean_us = [](const SpanTotals& t, bool self) {
        return t.count == 0 ? 0.0
                            : static_cast<double>(self ? t.self_ns : t.total_ns) * 1e-3 /
                                  static_cast<double>(t.count);
    };
    const auto sum = [&](SpanKind kind, Role role, std::initializer_list<std::uint8_t> types) {
        SpanTotals t;
        for (std::uint8_t type : types) t.add(tracer.totals(kind, role, type));
        return t;
    };

    r.set("transport.syscalls_per_discovery", ratio(d(&Snapshot::syscalls), n));
    r.set("transport.frames_per_discovery", ratio(d(&Snapshot::frames), n));
    r.set("transport.bytes_per_discovery", ratio(d(&Snapshot::bytes), n));
    r.set("transport.recv_batch_mean",
          ratio(d(&Snapshot::recv_batched), d(&Snapshot::recv_batches)));
    r.set("transport.send_batch_mean",
          ratio(d(&Snapshot::send_batched), d(&Snapshot::send_batches)));
    r.set("transport.pool_miss_frac",
          ratio(d(&Snapshot::pool_misses),
                d(&Snapshot::pool_hits) + d(&Snapshot::pool_misses)));
    r.set("transport.send_us", mean_us(tracer.totals(SpanKind::kSend), false));
    r.set("shard.handoff_frac",
          ratio(d(&Snapshot::handoff_forwarded), d(&Snapshot::sut_frames_in)));
    r.set("shard.handoff_dropped", d(&Snapshot::handoff_dropped));

    using namespace narada::wire;
    r.set("bdn.request_us",
          mean_us(sum(SpanKind::kRecv, Role::kBdn, {kMsgDiscoveryRequest, kSealedFromClient}),
                  true));
    r.set("bdn.ad_us", mean_us(sum(SpanKind::kRecv, Role::kBdn,
                                   {kMsgBrokerAdvertisement, kSealedFromBroker, kMsgAdForward}),
                               true));
    r.set("bdn.shard_query_us",
          mean_us(sum(SpanKind::kRecv, Role::kBdn, {kMsgShardQuery}), true));
    r.set("bdn.gather_partial_frac",
          ratio(d(&Snapshot::gathers_partial), d(&Snapshot::gathers)));
    r.set("bdn.shed_frac", ratio(d(&Snapshot::shed), d(&Snapshot::bdn_requests)));
    r.set("bdn.queue_depth_peak", b.queue_peak);

    r.set("broker.flood_us",
          mean_us(sum(SpanKind::kRecv, Role::kBroker, {kMsgEventFlood}), true));
    r.set("broker.dup_frac", ratio(d(&Snapshot::duplicates), d(&Snapshot::events_in)));
    r.set("plugin.responses_per_discovery", ratio(d(&Snapshot::responses_sent), n));

    r.set("client.ack_ms", percentile(ph.ack_ms, 50));
    r.set("client.first_response_ms", percentile(ph.first_ms, 50));
    r.set("client.collect_ms", percentile(ph.collect_ms, 50));
    r.set("client.score_us", percentile(ph.score_us, 50));
    r.set("client.ping_ms", percentile(ph.ping_ms, 50));
    r.set("client.handler_us", mean_us(tracer.totals(SpanKind::kRecv, Role::kClient), true));
    r.set("client.late_response_frac",
          ratio(d(&Snapshot::late_responses), d(&Snapshot::client_responses)));
    r.set("client.retransmits_per_discovery", ratio(static_cast<double>(ph.retransmits), n));

    r.set("crypto.ops_per_discovery", ratio(d(&Snapshot::crypto_ops), n));
    r.set("crypto.session_hit_frac",
          ratio(d(&Snapshot::session_hits),
                d(&Snapshot::session_hits) + d(&Snapshot::session_misses)));
    r.set("crypto.handshakes_in_window", d(&Snapshot::handshakes));

    const SpanTotals timers = tracer.totals(SpanKind::kTimer);
    r.set("timer.task_us", mean_us(timers, true));
    r.set("timer.tasks_per_s", ratio(static_cast<double>(timers.count), seconds));

    r.set("gen.late_p99_ms", percentile(ph.late_ms, 99));
    r.set("gen.samples", static_cast<double>(ph.latency_ms.size()));
}

Result run_loopback(const Spec& spec, const RunOptions& opt) {
    Result r;
    Tracer tracer;  // outlives every plane (ports record into it)
    const Pins pins = choose_pins(spec.shards);
    PortAlloc ports;
    // The main thread only waits and reads counters: keep it off the
    // reactors' CPUs when there is one to spare.
    const std::vector<int> cpus = allowed_cpus();
    if (pins.gen >= 0 && cpus.size() >= spec.shards + 2) pin_this_thread(cpus.front());

    // Half the set-ups come before the measured plane (the last of them)
    // and half after it is gone, so a host episode at either end of the run
    // does not set setup_s alone. Each plane is torn down before the next
    // is timed.
    std::vector<double> setup_s;
    const auto build_plane = [&] {
        const double t0 = wall_seconds();
        auto built = std::make_unique<Plane>(spec, opt.seed, tracer, pins, ports);
        built->start_and_wait_ready();
        setup_s.push_back(wall_seconds() - t0);
        return built;
    };
    std::unique_ptr<Plane> plane;
    for (std::size_t k = 0; k < (spec.setups + 1) / 2; ++k) {
        plane.reset();
        plane = build_plane();
    }

    const double S = opt.seconds;
    plane->run_phase(true, kWarmupSeconds);
    std::vector<const Phase*> opens;
    std::vector<const Phase*> closeds;
    std::size_t rounds = 1;
    const Phase* traced = nullptr;
    double cpu_reference = 0;
    if (opt.trace) {
        opens.push_back(&plane->measure(true, 0.5 * (1 - kClosedShare) * S));
        cpu_reference = ratio(opens[0]->cpu(), static_cast<double>(opens[0]->succeeded));
        tracer.set_on(true);
        traced = &plane->run_phase(true, 0.5 * (1 - kClosedShare) * S);
        tracer.set_on(false);
        plane->barrier();
        plane->let_idle();
        closeds.push_back(&plane->measure(false, kClosedShare * S));
    } else {
        // Rounds of one open slice and one closed batch spread both phases
        // over the whole run, so a host episode of a few seconds moves a
        // round or two, and the medians over rounds below pass it by.
        rounds = std::max(kMinRounds, static_cast<std::size_t>(S / kSecondsPerRound));
        for (std::size_t k = 0; k < rounds; ++k) {
            plane->keep_awake();
            opens.push_back(&plane->run_phase(true, (1 - kClosedShare) * S / rounds));
            plane->let_idle();
            closeds.push_back(&plane->run_phase(false, kClosedShare * S / rounds));
        }
    }
    const auto busy_s = [](const Phase* ph) {
        return static_cast<double>(ph->last_done_ns - ph->start_ns) * 1e-9;
    };
    const auto concat = [](const std::vector<const Phase*>& phs,
                           std::vector<double> Phase::*samples) {
        std::vector<double> all;
        for (const Phase* ph : phs) {
            const std::vector<double>& v = ph->*samples;
            all.insert(all.end(), v.begin(), v.end());
        }
        return all;
    };
    const auto median_of = [](const std::vector<const Phase*>& phs, auto&& fn) {
        std::vector<double> v;
        for (const Phase* ph : phs) v.push_back(fn(*ph));
        return median(v);
    };
    // The phases the timings use: the quieter half by hypervisor steal on
    // the pinned CPUs (every phase that reads no more than the median). One
    // 10 ms tick of steal in a slice already moves its p99, and the rule
    // looks only at the host, never at the timings it keeps.
    const auto timed = [](const std::vector<const Phase*>& phs) {
        std::vector<double> steal;
        for (const Phase* ph : phs) steal.push_back(ph->steal_share);
        const double limit = median(steal);
        std::vector<const Phase*> kept;
        for (const Phase* ph : phs) {
            if (ph->steal_share <= limit) kept.push_back(ph);
        }
        return kept;
    };

    // Output checks on every phase, warm-up and discarded attempts included.
    for (const Phase* ph : plane->phases()) {
        r.check(ph->violations == 0, ph->first_problem);
        r.check(ph->succeeded > 0, "a phase completed no discovery");
    }
    std::vector<const Phase*> measured = opens;
    measured.insert(measured.end(), closeds.begin(), closeds.end());
    if (traced != nullptr) measured.push_back(traced);
    std::uint64_t retransmits = 0, refused = 0, still_open = 0;
    std::size_t disturbed = 0;
    for (const Phase* ph : measured) {
        r.attempted += ph->attempted;
        r.failed += ph->failed;
        retransmits += ph->retransmits;
        refused += ph->refused;
        still_open += ph->still_open;
        if (!quiet(*ph)) ++disturbed;
    }
    const std::vector<const Phase*> timed_opens = timed(opens);
    const std::vector<const Phase*> timed_closeds = timed(closeds);
    const std::vector<double> open_latency = concat(timed_opens, &Phase::latency_ms);
    const std::vector<double> closed_latency = concat(timed_closeds, &Phase::latency_ms);

    if (opt.trace) {
        per_layer(r, *traced, tracer);
        r.set("transport.drops", closeds.back()->after.drops - opens.front()->before.drops);
        r.set("gen.pool_exhausted", static_cast<double>(refused));
        const double cpu_traced = ratio(traced->cpu(),
                                        static_cast<double>(traced->succeeded));
        r.set("trace.overhead_frac", ratio(cpu_traced, cpu_reference) - 1.0);
        const std::string path = opt.out_dir + "/spans-" + spec.name + "-seed" +
                                 std::to_string(opt.seed) + ".csv";
        r.check(tracer.write_csv(path), "could not write " + path);
        r.record.push_back("\"spans_recorded\":" + std::to_string(tracer.spans_recorded()));
    } else {
        double wall = 0;
        for (const Phase* ph : measured) wall += busy_s(ph);
        r.set("discover_p50_ms", percentile(open_latency, 50));
        r.set("discover_p99_ms", windowed_p99(open_latency));
        r.set("fail_frac", smoothed_rate(r.failed, r.attempted));
        r.set("cpu_us_per_discovery", median_of(timed_opens, [](const Phase& ph) {
                  return ratio(ph.cpu(), static_cast<double>(ph.succeeded)) * 1e6;
              }));
        r.set("peak_dps", median_of(timed_closeds, [&](const Phase& ph) {
                  return ratio(static_cast<double>(ph.succeeded), busy_s(&ph));
              }));
        r.set("swarm_p50_ms", median_of(timed_closeds, [](const Phase& ph) {
                  return percentile(ph.latency_ms, 50);
              }));
        r.set("swarm_p99_ms", median_of(timed_closeds, [](const Phase& ph) {
                  return percentile(ph.latency_ms, 99);
              }));
        r.set("swarm_retransmits_per_endpoint", smoothed_rate(retransmits, r.attempted));
        r.set("swarm_wall_s", wall);
    }

    char buf[1000];
    std::snprintf(buf, sizeof(buf),
                  "\"sut_pins\":%s,\"gen_pin\":%d,\"shards\":%zu,\"bdns\":%zu,\"brokers\":%zu,"
                  "\"admitted_brokers\":%llu,\"overlay\":\"%s\",\"sealed\":%s,"
                  "\"ad_writes_per_s\":%.1f,\"open_rate_per_s\":%.1f,"
                  "\"closed_outstanding\":%zu,\"client_pool\":%zu,\"rounds\":%zu,"
                  "\"open_samples\":%zu,\"open_pooled_p99_ms\":%.4f,"
                  "\"closed_pooled_p99_ms\":%.4f,\"open_late_p99_ms\":%.4f,"
                  "\"refused\":%llu,\"closed_samples\":%zu,\"still_open\":%llu,"
                  "\"phases\":%zu,\"disturbed_phases\":%zu,\"timed_phases\":%zu,"
                  "\"remeasured_phases\":%zu",
                  json_ints(pins.sut).c_str(), pins.gen, spec.shards, spec.bdns, spec.brokers,
                  static_cast<unsigned long long>(plane->admitted_brokers()),
                  spec.tree ? "tree" : "ring", spec.sealed ? "true" : "false",
                  spec.advertise_interval > 0
                      ? static_cast<double>(spec.brokers) * kSecond /
                            static_cast<double>(spec.advertise_interval)
                      : 0.0,
                  spec.open_rate, kOutstanding, kClientPool, rounds,
                  open_latency.size(), percentile(open_latency, 99),
                  percentile(closed_latency, 99),
                  percentile(concat(opens, &Phase::late_ms), 99),
                  static_cast<unsigned long long>(refused), closed_latency.size(),
                  static_cast<unsigned long long>(still_open), measured.size(), disturbed,
                  timed_opens.size() + timed_closeds.size(), plane->remeasured());
    r.record.emplace_back(buf);
    plane.reset();  // clean teardown is part of the run
    while (setup_s.size() < spec.setups) build_plane();
    if (!opt.trace) r.set("setup_s", median(setup_s));
    std::string setups = "\"setup_runs_s\":[";
    for (std::size_t k = 0; k < setup_s.size(); ++k) {
        std::snprintf(buf, sizeof(buf), "%s%.4f", k == 0 ? "" : ",", setup_s[k]);
        setups += buf;
    }
    r.record.push_back(setups + "]");
    return r;
}

}  // namespace

Result run_discover_plain(const RunOptions& options) {
    return run_loopback(discover_plain_spec(), options);
}

Result run_federated_sealed(const RunOptions& options) {
    return run_loopback(federated_sealed_spec(), options);
}

}  // namespace discobench
