#include "node_port.hpp"

#include <chrono>
#include <cstdio>
#include <exception>

#include "discovery/messages.hpp"
#include "wire/codec.hpp"
#include "wire/msg_types.hpp"

namespace discobench {
namespace {

std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::uint64_t fold(const narada::Uuid& id) {
    const std::uint64_t v = id.hi() ^ (id.lo() * 0x9E3779B97F4A7C15ull);
    return v == 0 ? 1 : v;
}

constexpr const char* kKindNames[kSpanKinds] = {"recv", "send", "timer"};

/// Fold a request UUID carried by `data` (request, ack or response) into
/// a span id; 0 when the message carries none or does not parse.
std::uint64_t discovery_id(const Bytes& data) {
    if (data.empty()) return 0;
    try {
        narada::wire::ByteReader reader(data);
        switch (reader.u8()) {
            case narada::wire::kMsgDiscoveryRequest:
                return fold(narada::discovery::DiscoveryRequestView::peek(reader).request_id);
            case narada::wire::kMsgDiscoveryResponse:
                return fold(narada::discovery::DiscoveryResponseView::peek(reader).request_id);
            case narada::wire::kMsgDiscoveryAck:
                return fold(reader.uuid());
            default:
                return 0;
        }
    } catch (const std::exception&) {
        return 0;  // truncated or foreign frame: untagged span
    }
}

}  // namespace

// --- Tracer ------------------------------------------------------------------

void Tracer::note_role(const Endpoint& ep, Role role) {
    std::scoped_lock lock(mutex_);
    roles_[ep] = role;
}

std::optional<Role> Tracer::role_of(const Endpoint& ep) const {
    // Written only at set-up, before set_on(true) publishes it.
    const auto it = roles_.find(ep);
    if (it == roles_.end()) return std::nullopt;
    return it->second;
}

Tracer::ThreadLog& Tracer::log() {
    thread_local ThreadLog* tls = nullptr;
    if (tls == nullptr) {
        std::scoped_lock lock(mutex_);
        logs_.push_back(std::make_unique<ThreadLog>());
        logs_.back()->spans.reserve(kKeptPerThread);
        tls = logs_.back().get();
    }
    return *tls;
}

std::size_t Tracer::begin(SpanKind kind, Role role, std::uint16_t node, std::uint8_t type,
                          std::uint64_t discovery) {
    ThreadLog& l = log();
    Frame f;
    f.kind = kind;
    f.role = role;
    f.type = type;
    if (l.spans.size() < kKeptPerThread) {
        Span s;
        s.parent = l.stack.empty() ? -1 : l.stack.back().kept;
        s.node = node;
        s.kind = kind;
        s.type = type;
        s.discovery = discovery;
        f.kept = static_cast<std::int32_t>(l.spans.size());
        l.spans.push_back(s);
    }
    l.stack.push_back(f);
    const std::int64_t start = now_ns();
    l.stack.back().start_ns = start;
    if (f.kept >= 0) l.spans[static_cast<std::size_t>(f.kept)].start_ns = start;
    return l.stack.size();
}

void Tracer::end(std::size_t token) {
    const std::int64_t end = now_ns();
    ThreadLog& l = log();
    if (l.stack.size() < token) return;
    l.stack.resize(token);  // frames a throwing callee left open are dropped
    const Frame f = l.stack.back();
    l.stack.pop_back();
    const std::int64_t dur = end - f.start_ns;
    SpanTotals& t = l.totals[static_cast<std::size_t>(f.kind)][static_cast<std::size_t>(f.role)]
                            [f.type];
    ++t.count;
    t.total_ns += dur;
    t.self_ns += dur - f.child_ns;
    ++l.recorded;
    if (!l.stack.empty()) l.stack.back().child_ns += dur;
    if (f.kept >= 0) l.spans[static_cast<std::size_t>(f.kept)].end_ns = end;
}

SpanTotals Tracer::totals(SpanKind kind, Role role, std::uint8_t type) const {
    std::scoped_lock lock(mutex_);
    SpanTotals sum;
    for (const auto& l : logs_) {
        const auto k = static_cast<std::size_t>(kind);
        sum.add(l->totals[k][static_cast<std::size_t>(role)][type]);
    }
    return sum;
}

SpanTotals Tracer::totals(SpanKind kind, Role role) const {
    SpanTotals sum;
    for (std::size_t type = 0; type < 256; ++type) {
        sum.add(totals(kind, role, static_cast<std::uint8_t>(type)));
    }
    return sum;
}

SpanTotals Tracer::totals(SpanKind kind) const {
    SpanTotals sum;
    for (Role role : {Role::kClient, Role::kBdn, Role::kBroker}) sum.add(totals(kind, role));
    return sum;
}

std::uint64_t Tracer::spans_recorded() const {
    std::scoped_lock lock(mutex_);
    std::uint64_t n = 0;
    for (const auto& l : logs_) n += l->recorded;
    return n;
}

bool Tracer::write_csv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "thread,index,parent,node,kind,type,discovery,start_ns,end_ns\n");
    std::scoped_lock lock(mutex_);
    for (std::size_t t = 0; t < logs_.size(); ++t) {
        const auto& spans = logs_[t]->spans;
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span& s = spans[i];
            if (s.end_ns == 0) continue;  // still open when the run ended
            std::fprintf(f, "%zu,%zu,%d,%u,%s,0x%02x,%016llx,%lld,%lld\n", t, i, s.parent,
                         static_cast<unsigned>(s.node), kKindNames[static_cast<int>(s.kind)],
                         static_cast<unsigned>(s.type),
                         static_cast<unsigned long long>(s.discovery),
                         static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns));
        }
    }
    return std::fclose(f) == 0;
}

// --- NodePort ----------------------------------------------------------------

NodePort::NodePort(narada::transport::Transport& transport, narada::Scheduler& scheduler,
                   const Gate& gate, Tracer& tracer, Role role, std::uint16_t node)
    : transport_(transport),
      scheduler_(scheduler),
      gate_(gate),
      tracer_(tracer),
      role_(role),
      node_(node) {}

void NodePort::bind(const Endpoint& local, narada::transport::MessageHandler* handler) {
    tracer_.note_role(local, role_);
    Entry* entry = nullptr;
    {
        std::scoped_lock lock(mutex_);
        auto& slot = entries_[local];
        if (slot == nullptr) {
            slot = std::make_unique<Entry>(*this, handler);
        } else {
            slot->target = handler;
        }
        entry = slot.get();
    }
    transport_.bind(local, entry);
}

std::uint8_t NodePort::span_type(Role sender, const Bytes& data) {
    const std::uint8_t type = data.empty() ? 0 : data[0];
    if (type != narada::wire::kMsgSecureEnvelope) return type;
    switch (sender) {
        case Role::kClient: return kSealedFromClient;
        case Role::kBroker: return kSealedFromBroker;
        case Role::kBdn: return kSealedFromBdn;
    }
    return type;
}

void NodePort::deliver(narada::transport::MessageHandler* target, const Endpoint& from,
                       const Bytes& data, bool reliable) {
    if (!gate_.open()) return;
    const auto call = [&] {
        reliable ? target->on_reliable(from, data) : target->on_datagram(from, data);
    };
    if (!tracer_.on()) {
        call();
        return;
    }
    const std::optional<Role> sender = tracer_.role_of(from);
    const std::uint8_t type = sender ? span_type(*sender, data) : (data.empty() ? 0 : data[0]);
    if (role_ == Role::kClient && type == narada::wire::kMsgDiscoveryResponse) {
        ++responses_;
        if (!collecting_) ++late_responses_;
    }
    const Tracer::Scope span(tracer_, SpanKind::kRecv, role_, node_, type, discovery_id(data));
    call();
}

template <typename Send>
void NodePort::traced_send(const Bytes& data, Send&& send) {
    if (!tracer_.on()) {
        send();
        return;
    }
    const std::uint8_t type = span_type(role_, data);
    if (role_ == Role::kClient) {
        if (type == narada::wire::kMsgDiscoveryRequest || type == kSealedFromClient) {
            collecting_ = true;
        } else if (type == narada::wire::kMsgPing) {
            collecting_ = false;
        }
    }
    const Tracer::Scope span(tracer_, SpanKind::kSend, role_, node_, type, discovery_id(data));
    send();
}

void NodePort::send_datagram(const Endpoint& from, const Endpoint& to, Bytes data) {
    traced_send(data, [&] { transport_.send_datagram(from, to, std::move(data)); });
}

void NodePort::send_reliable(const Endpoint& from, const Endpoint& to, Bytes data) {
    traced_send(data, [&] { transport_.send_reliable(from, to, std::move(data)); });
}

void NodePort::send_multicast(narada::transport::MulticastGroup group, const Endpoint& from,
                              Bytes data) {
    traced_send(data, [&] { transport_.send_multicast(group, from, std::move(data)); });
}

narada::TimerHandle NodePort::schedule(narada::DurationUs delay, std::function<void()> task) {
    return scheduler_.schedule(delay, [this, task = std::move(task)] {
        if (!gate_.open()) return;
        if (!tracer_.on()) {
            task();
            return;
        }
        const Tracer::Scope span(tracer_, SpanKind::kTimer, role_, node_, 0, 0);
        task();
    });
}

}  // namespace discobench
