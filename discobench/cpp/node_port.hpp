// The benchmark's per-node Transport + Scheduler decorator and its span
// tracer.
//
// Every protocol object of a loopback plane is constructed against its own
// NodePort, which forwards to the real reactor (a ShardPort or the
// generator's PosixTransport). Nodes bind themselves through the port in
// their constructors, so the port sees every handler and every timer task:
//
//   * Teardown gate. Once the plane's Gate is closed, deliveries and timer
//     tasks still queued on a reactor are dropped at the port instead of
//     reaching a node that is being destroyed. The handler the reactor
//     holds is the port's own entry, which outlives the reactor threads.
//   * Tracing (only while the Tracer is on). Deliveries become `recv`
//     spans named by the message-type octet, send_* calls and fired timer
//     tasks become `send` / `timer` spans, and a send inside a handler or
//     task is recorded as its child. Messages that carry a discovery UUID
//     are tagged with it through the public discovery/messages.hpp views,
//     so one discovery's spans on client, BDN and brokers share an id.
//
// Spans stay in per-thread memory; totals (count, duration, self time) are
// folded in as spans close, and a bounded prefix of raw spans is kept for
// write_csv() at the end of the run.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/scheduler.hpp"
#include "common/types.hpp"
#include "transport/transport.hpp"

namespace discobench {

using narada::Bytes;
using narada::Endpoint;

enum class Role : std::uint8_t { kClient, kBdn, kBroker };
constexpr std::size_t kRoles = 3;

enum class SpanKind : std::uint8_t { kRecv, kSend, kTimer };
constexpr std::size_t kSpanKinds = 3;

/// Pseudo type octets for kMsgSecureEnvelope, split by the sender's role
/// (the envelope hides the inner type): a sealed request comes from a
/// client, a sealed advertisement from a broker.
constexpr std::uint8_t kSealedFromClient = 0xF0;
constexpr std::uint8_t kSealedFromBroker = 0xF1;
constexpr std::uint8_t kSealedFromBdn = 0xF2;

/// Closed once at teardown; every port of the plane then drops work.
class Gate {
public:
    [[nodiscard]] bool open() const { return open_.load(std::memory_order_acquire); }
    void close() { open_.store(false, std::memory_order_release); }

private:
    std::atomic<bool> open_{true};
};

struct SpanTotals {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;

    void add(const SpanTotals& o) {
        count += o.count;
        total_ns += o.total_ns;
        self_ns += o.self_ns;
    }
};

class Tracer {
public:
    /// Raw spans kept per thread for write_csv(); totals cover every span.
    static constexpr std::size_t kKeptPerThread = 50'000;

    struct Span {
        std::int64_t start_ns = 0;
        std::int64_t end_ns = 0;
        std::int32_t parent = -1;  ///< index in the same thread's list, -1 = root
        std::uint16_t node = 0;
        SpanKind kind = SpanKind::kRecv;
        std::uint8_t type = 0;
        std::uint64_t discovery = 0;  ///< folded request UUID, 0 = none
    };

    /// Recording switch; flip only while no span can be open on another
    /// thread's stack changing state (spans started before a flip still
    /// close consistently: the decision is taken at span start).
    void set_on(bool on) { on_.store(on, std::memory_order_release); }
    [[nodiscard]] bool on() const { return on_.load(std::memory_order_acquire); }

    /// Endpoint -> role directory (filled by NodePort::bind at set-up,
    /// read by tracing threads only after set_on(true)).
    void note_role(const Endpoint& ep, Role role);
    [[nodiscard]] std::optional<Role> role_of(const Endpoint& ep) const;

    /// One span on the calling thread, closed when the scope ends (also
    /// on unwinding). Nesting is tracked per thread.
    class Scope {
    public:
        Scope(Tracer& tracer, SpanKind kind, Role role, std::uint16_t node, std::uint8_t type,
              std::uint64_t discovery)
            : tracer_(tracer), token_(tracer.begin(kind, role, node, type, discovery)) {}
        ~Scope() { tracer_.end(token_); }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

    private:
        Tracer& tracer_;
        std::size_t token_;
    };

    /// Sum of span totals across threads for (kind, role, type). Call only
    /// while tracing is off and every reactor has passed a barrier.
    [[nodiscard]] SpanTotals totals(SpanKind kind, Role role, std::uint8_t type) const;
    [[nodiscard]] SpanTotals totals(SpanKind kind, Role role) const;
    [[nodiscard]] SpanTotals totals(SpanKind kind) const;
    [[nodiscard]] std::uint64_t spans_recorded() const;

    /// Write the kept spans (one line each) to `path`; false on I/O error.
    bool write_csv(const std::string& path) const;

private:
    struct Frame {
        std::int64_t start_ns = 0;
        std::int64_t child_ns = 0;
        std::int32_t kept = -1;  ///< index into spans, -1 = not kept
        SpanKind kind = SpanKind::kRecv;
        Role role = Role::kClient;
        std::uint8_t type = 0;
    };
    struct ThreadLog {
        std::vector<Span> spans;
        std::vector<Frame> stack;
        SpanTotals totals[kSpanKinds][kRoles][256]{};
        std::uint64_t recorded = 0;
    };
    ThreadLog& log();
    std::size_t begin(SpanKind kind, Role role, std::uint16_t node, std::uint8_t type,
                      std::uint64_t discovery);
    void end(std::size_t token);

    std::atomic<bool> on_{false};
    mutable std::mutex mutex_;  ///< guards logs_ and roles_ (set-up writes)
    std::vector<std::unique_ptr<ThreadLog>> logs_;
    std::unordered_map<Endpoint, Role> roles_;
};

/// Transport + Scheduler facade for one protocol node (see file comment).
class NodePort final : public narada::transport::Transport, public narada::Scheduler {
public:
    NodePort(narada::transport::Transport& transport, narada::Scheduler& scheduler,
             const Gate& gate, Tracer& tracer, Role role, std::uint16_t node);
    ~NodePort() override = default;

    NodePort(const NodePort&) = delete;
    NodePort& operator=(const NodePort&) = delete;

    // --- Transport ----------------------------------------------------------
    void bind(const Endpoint& local, narada::transport::MessageHandler* handler) override;
    void unbind(const Endpoint& local) override { transport_.unbind(local); }
    void send_datagram(const Endpoint& from, const Endpoint& to, Bytes data) override;
    void send_reliable(const Endpoint& from, const Endpoint& to, Bytes data) override;
    void join_multicast(narada::transport::MulticastGroup group,
                        const Endpoint& local) override {
        transport_.join_multicast(group, local);
    }
    void leave_multicast(narada::transport::MulticastGroup group,
                         const Endpoint& local) override {
        transport_.leave_multicast(group, local);
    }
    void send_multicast(narada::transport::MulticastGroup group, const Endpoint& from,
                        Bytes data) override;
    Bytes acquire_buffer() override { return transport_.acquire_buffer(); }

    // --- Scheduler ----------------------------------------------------------
    narada::TimerHandle schedule(narada::DurationUs delay, std::function<void()> task) override;
    void cancel_timer(narada::TimerHandle handle) override { scheduler_.cancel_timer(handle); }

    /// Traced discovery responses that reached this (client) port after its
    /// collection had closed, out of all responses it received.
    [[nodiscard]] std::uint64_t late_responses() const { return late_responses_; }
    [[nodiscard]] std::uint64_t responses() const { return responses_; }

private:
    /// The handler the reactor actually holds: gate check, then (traced)
    /// the recv span, then the node's own handler.
    struct Entry final : narada::transport::MessageHandler {
        Entry(NodePort& p, narada::transport::MessageHandler* t) : port(p), target(t) {}
        void on_datagram(const Endpoint& from, const Bytes& data) override {
            port.deliver(target, from, data, false);
        }
        void on_reliable(const Endpoint& from, const Bytes& data) override {
            port.deliver(target, from, data, true);
        }

        NodePort& port;
        narada::transport::MessageHandler* target;  ///< swapped only at set-up (rebind)
    };

    void deliver(narada::transport::MessageHandler* target, const Endpoint& from,
                 const Bytes& data, bool reliable);
    /// Outgoing message: tag, time the underlying call as a send span.
    template <typename Send>
    void traced_send(const Bytes& data, Send&& send);
    /// The type octet a span is named by; a sealed envelope is named by
    /// the role of the node that sealed it.
    [[nodiscard]] static std::uint8_t span_type(Role sender, const Bytes& data);

    narada::transport::Transport& transport_;
    narada::Scheduler& scheduler_;
    const Gate& gate_;
    Tracer& tracer_;
    Role role_;
    std::uint16_t node_;

    std::mutex mutex_;  ///< guards entries_ (bind runs on set-up threads)
    std::map<Endpoint, std::unique_ptr<Entry>> entries_;

    // Client collection state, touched only on this node's reactor thread.
    bool collecting_ = false;
    std::uint64_t late_responses_ = 0;
    std::uint64_t responses_ = 0;
};

}  // namespace discobench
