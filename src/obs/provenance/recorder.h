// recorder.h — the per-packet provenance flight recorder.
//
// Packets are identified by a content digest of their serialized bytes
// (util/digest FNV lane, 64 bits): identity is derived from the datagram
// itself, so ids are stable across threads, worker counts, and re-runs of
// the same seed — the property the explain-determinism regression test
// pins. Registration is idempotent; a retransmission maps onto the node it
// already has.
//
// Three tables, all bounded:
//   * nodes   — id -> {size, kind}; oldest-first eviction past the cap.
//   * edges   — child id -> parent hops ({parent, ts, kind, actor, detail});
//               deduplicated, capped per child. "pkt 7 <- split of pkt 3".
//   * ledgers — per (scope, canonical flow) rings of decision records
//               (rules tried, match offsets, verdicts), bounded like
//               EventLog's ring with exact drop counters.
//
// The *scope* disambiguates parallel replay: every isolated round replays
// the same 10.0.0.1 flow tuple, so a thread-local scope id — set by the
// round scheduler to the content-defined round fingerprint, and by the
// fleet to the shard seed — keeps concurrent worlds from interleaving one
// flow's story. Scope 0 is the ambient (serial, non-round) scope.
//
// The scope is also the unit of storage: each scope owns a Store with its
// own lock, found through a thread-local cache, so concurrent worlds never
// contend on the hot path. Readers merge the stores (nodes deduplicated by
// id, a "wire" stub taking its real origin's kind; hops deduplicated with
// the first sighting winning). The caps stay process-wide: every new node
// and ledger takes a number from one global sequence, and eviction drops
// the globally oldest entries first, in batches that let a table overshoot
// its cap by at most cap/16 (exactly the cap below 16). A packet recorded
// in several scopes takes one entry in each.
//
// Like the rest of obs, everything here is level-independent inline code —
// gating lives only in the LIBERATE_PROV_* macros (obs/obs.h), so TUs
// compiled at different levels never disagree on these types.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/event_log.h"
#include "util/digest.h"

namespace liberate::obs::prov {

/// Canonical (direction-free) flow key: endpoints are sorted numerically so
/// client->server and server->client packets land in the same ledger.
struct FlowKey {
  std::uint32_t ip_a = 0;
  std::uint32_t ip_b = 0;
  std::uint16_t port_a = 0;
  std::uint16_t port_b = 0;
  std::uint8_t proto = 0;
  bool valid = false;

  bool operator==(const FlowKey& o) const {
    return ip_a == o.ip_a && ip_b == o.ip_b && port_a == o.port_a &&
           port_b == o.port_b && proto == o.proto && valid == o.valid;
  }
  bool operator<(const FlowKey& o) const {
    auto t = [](const FlowKey& k) {
      return std::tuple(k.valid, k.ip_a, k.port_a, k.ip_b, k.port_b, k.proto);
    };
    return t(*this) < t(o);
  }

  std::string to_string() const {
    if (!valid) return "<no-flow>";
    char buf[96];
    auto ip = [](std::uint32_t v, char* out) {
      std::snprintf(out, 16, "%u.%u.%u.%u", (v >> 24) & 0xff, (v >> 16) & 0xff,
                    (v >> 8) & 0xff, v & 0xff);
    };
    char a[16], b[16];
    ip(ip_a, a);
    ip(ip_b, b);
    const char* p = proto == 6    ? "tcp"
                    : proto == 17 ? "udp"
                    : proto == 1  ? "icmp"
                                  : "?";
    std::snprintf(buf, sizeof(buf), "%s:%u<->%s:%u/%s", a, port_a, b, port_b,
                  p);
    return buf;
  }
};

/// Build a canonical key from one direction's endpoints.
inline FlowKey flow_key(std::uint32_t src_ip, std::uint16_t src_port,
                        std::uint32_t dst_ip, std::uint16_t dst_port,
                        std::uint8_t proto) {
  FlowKey k;
  k.valid = true;
  k.proto = proto;
  if (std::tuple(src_ip, src_port) <= std::tuple(dst_ip, dst_port)) {
    k.ip_a = src_ip;
    k.port_a = src_port;
    k.ip_b = dst_ip;
    k.port_b = dst_port;
  } else {
    k.ip_a = dst_ip;
    k.port_a = dst_port;
    k.ip_b = src_ip;
    k.port_b = src_port;
  }
  return k;
}

/// Minimal raw-IPv4 flow extraction (version/IHL + addresses + transport
/// ports when the header is intact). Deliberately self-contained: obs is
/// below netsim in the layering and must not include its parsers. Returns
/// an invalid key for anything that does not look like a whole IPv4 packet.
inline FlowKey flow_key_of(BytesView datagram) {
  if (datagram.size() < 20) return FlowKey{};
  if ((datagram[0] >> 4) != 4) return FlowKey{};
  std::size_t ihl = static_cast<std::size_t>(datagram[0] & 0x0f) * 4;
  if (ihl < 20 || datagram.size() < ihl) return FlowKey{};
  auto rd32 = [&](std::size_t off) {
    return (static_cast<std::uint32_t>(datagram[off]) << 24) |
           (static_cast<std::uint32_t>(datagram[off + 1]) << 16) |
           (static_cast<std::uint32_t>(datagram[off + 2]) << 8) |
           static_cast<std::uint32_t>(datagram[off + 3]);
  };
  std::uint8_t proto = datagram[9];
  std::uint32_t src = rd32(12), dst = rd32(16);
  std::uint16_t sport = 0, dport = 0;
  // Ports only from the first fragment of TCP/UDP (offset 0, payload >= 4).
  std::uint16_t frag = static_cast<std::uint16_t>((datagram[6] << 8) |
                                                  datagram[7]);
  bool first_fragment = (frag & 0x1fff) == 0;
  if ((proto == 6 || proto == 17) && first_fragment &&
      datagram.size() >= ihl + 4) {
    sport = static_cast<std::uint16_t>((datagram[ihl] << 8) |
                                       datagram[ihl + 1]);
    dport = static_cast<std::uint16_t>((datagram[ihl + 2] << 8) |
                                       datagram[ihl + 3]);
  }
  return flow_key(src, sport, dst, dport, proto);
}

/// Content-derived packet lineage id.
inline std::uint64_t packet_id(BytesView datagram) {
  Digest d;
  d.update(datagram);
  return d.finish().lo;
}

inline std::string id_hex(std::uint64_t id) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(id));
  return buf;
}

struct NodeInfo {
  std::uint64_t id = 0;
  std::uint32_t size = 0;   // serialized datagram length
  std::string kind;         // "tcp" | "udp" | "icmp" | "wire" | ...
};

/// One causal hop: `child` was produced from `parent` by `actor` via `kind`.
struct EdgeInfo {
  std::uint64_t child = 0;
  std::uint64_t parent = 0;
  std::uint64_t ts_us = 0;
  std::string kind;    // "split" | "insert" | "reorder" | "flush" |
                       // "ip-fragment" | "reassembly" | "rewrite"
  std::string actor;   // technique or component name
  std::string detail;  // e.g. "payload[0..8) of parent"
};

/// One decision-path record in a flow's ledger (rule evaluation, skip,
/// verdict, mutation marker). `pkt` links the record to a lineage node when
/// the emitting site had the datagram in hand; 0 means flow-level only.
struct ProvRecord {
  std::uint64_t ts_us = 0;
  std::uint64_t seq = 0;  // arrival order within the ledger
  std::string kind;
  std::uint64_t pkt = 0;
  std::vector<EventField> fields;
};

struct LedgerSnapshot {
  std::uint64_t scope = 0;
  FlowKey flow;
  std::vector<ProvRecord> records;  // oldest -> newest surviving
  std::uint64_t dropped = 0;
  std::uint64_t total = 0;  // exact count including dropped
};

struct ProvSnapshot {
  std::vector<NodeInfo> nodes;       // sorted by id
  std::vector<EdgeInfo> edges;       // sorted by (child, parent, kind)
  std::vector<LedgerSnapshot> ledgers;  // sorted by (scope, flow)
  std::uint64_t nodes_evicted = 0;
  std::uint64_t ledgers_evicted = 0;
  std::uint64_t total_records = 0;
};

class ProvenanceRecorder {
 public:
  static ProvenanceRecorder& instance() {
    static ProvenanceRecorder rec;
    return rec;
  }

  /// The active scope for this thread (0 = ambient). Set via ScopedProvScope.
  static std::uint64_t current_scope() { return scope_slot(); }

  /// Idempotently register a packet node. Returns the lineage id.
  std::uint64_t packet(BytesView datagram, std::string_view kind) {
    std::uint64_t id = packet_id(datagram);
    const std::uint8_t k = intern_kind(kind);
    Store& s = local_store();
    std::uint64_t issued = 0;
    {
      std::lock_guard<std::mutex> lock(s.mutex);
      issued = register_node_locked(
          s, id, static_cast<std::uint32_t>(datagram.size()), k);
    }
    if (issued != 0) evict_if_over(*s.budget, Table::kNodes, issued);
    return id;
  }

  /// Record parent -> child causality, digesting both datagrams.
  void edge(std::uint64_t ts_us, BytesView parent, BytesView child,
            std::string_view kind, std::string_view actor,
            std::string_view detail = {}) {
    edge_ids(ts_us, packet_id(parent), static_cast<std::uint32_t>(parent.size()),
             packet_id(child), static_cast<std::uint32_t>(child.size()), kind,
             actor, detail);
  }

  /// Same, for call sites that digested the parent before it was moved.
  void edge_ids(std::uint64_t ts_us, std::uint64_t parent,
                std::uint32_t parent_size, std::uint64_t child,
                std::uint32_t child_size, std::string_view kind,
                std::string_view actor, std::string_view detail = {}) {
    if (parent == child) return;  // pass-through, not a hop
    Store& s = local_store();
    std::uint64_t issued = 0;
    {
      std::lock_guard<std::mutex> lock(s.mutex);
      issued = register_node_locked(s, parent, parent_size, kWireKind);
      issued = std::max(issued,
                        register_node_locked(s, child, child_size, kWireKind));
      add_hop_locked(s, ts_us, parent, child, kind, actor, detail);
    }
    if (issued != 0) evict_if_over(*s.budget, Table::kNodes, issued);
  }

  /// Append a decision record to the (current scope, flow) ledger.
  void note(std::uint64_t ts_us, const FlowKey& flow, std::string_view kind,
            std::initializer_list<EventField> fields, std::uint64_t pkt = 0) {
    if (max_flows_.load(std::memory_order_relaxed) == 0) return;
    ProvRecord r;
    r.ts_us = ts_us;
    r.kind = kind;
    r.pkt = pkt;
    r.fields.assign(fields.begin(), fields.end());
    Store& s = local_store();
    std::uint64_t issued = 0;
    {
      std::lock_guard<std::mutex> lock(s.mutex);
      auto [it, inserted] = s.ledgers.try_emplace(flow);
      if (inserted) {
        issued = s.budget->ledgers.issued.fetch_add(
                     1, std::memory_order_relaxed) + 1;
        s.ledger_order.emplace_back(issued, flow);
      }
      Ledger& led = it->second;
      r.seq = led.next_seq++;
      const std::size_t cap = ledger_capacity_.load(std::memory_order_relaxed);
      if (cap != 0) {
        while (led.ring.size() >= cap) {
          led.ring.pop_front();
          led.dropped += 1;
        }
        led.ring.push_back(std::move(r));
      }
    }
    // The new ledger holds the newest sequence number, so with
    // max_flows_ >= 1 every victim is older.
    if (issued != 0) evict_if_over(*s.budget, Table::kLedgers, issued);
  }

  /// note() for sites holding the serialized datagram: derives the flow key
  /// and links the record to the packet's lineage node.
  void note_pkt(std::uint64_t ts_us, BytesView datagram, std::string_view kind,
                std::initializer_list<EventField> fields) {
    std::uint64_t id = packet(datagram, "wire");
    note(ts_us, flow_key_of(datagram), kind, fields, id);
  }

  /// A node registered in several scopes reports the lowest scope's real
  /// (non-"wire") kind, or "wire" when no scope saw its origin.
  std::optional<NodeInfo> node(std::uint64_t id) const {
    std::optional<NodeInfo> out;
    bool real = false;
    for_each_store([&](const Store& s) {
      if (real) return;
      auto it = s.nodes.find(id);
      if (it == s.nodes.end()) return;
      real = it->second.kind != kWireKind;
      if (!out || real) out = node_info(id, it->second);
    });
    return out;
  }

  /// Causal hops into `child`, deterministic order.
  std::vector<EdgeInfo> parents_of(std::uint64_t child) const {
    std::vector<Hop> hops;
    for_each_store([&](const Store& s) {
      auto it = s.edges.find(child);
      if (it == s.edges.end()) return;
      hops.insert(hops.end(), it->second.begin(), it->second.end());
    });
    return merge_hops(std::move(hops));
  }

  /// Every ledger recorded for `flow`, across all scopes, sorted by scope.
  std::vector<LedgerSnapshot> ledgers_for(const FlowKey& flow) const {
    std::vector<LedgerSnapshot> out;
    for_each_store([&](const Store& s) {  // visits scopes in ascending order
      auto it = s.ledgers.find(flow);
      if (it != s.ledgers.end()) {
        out.push_back(snapshot_ledger(s.scope, flow, it->second));
      }
    });
    return out;
  }

  ProvSnapshot snapshot() const {
    ProvSnapshot snap;
    std::vector<std::pair<std::uint64_t, Node>> nodes;
    std::vector<Hop> hops;
    for_each_store([&](const Store& s) {
      nodes.insert(nodes.end(), s.nodes.begin(), s.nodes.end());
      for (const auto& [child, store_hops] : s.edges) {
        hops.insert(hops.end(), store_hops.begin(), store_hops.end());
      }
      // Stores come scope-ascending and each map is flow-ascending, so the
      // ledgers arrive already sorted by (scope, flow).
      for (const auto& [flow, led] : s.ledgers) {
        LedgerSnapshot ls = snapshot_ledger(s.scope, flow, led);
        snap.total_records += ls.total;
        snap.ledgers.push_back(std::move(ls));
      }
    });
    // One node per id: stable-sorting real kinds ahead of "wire" stubs keeps
    // the lowest scope's real kind first.
    std::stable_sort(nodes.begin(), nodes.end(),
                     [](const auto& a, const auto& b) {
                       return std::pair(a.first, a.second.kind == kWireKind) <
                              std::pair(b.first, b.second.kind == kWireKind);
                     });
    snap.nodes.reserve(nodes.size());
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (i > 0 && nodes[i].first == nodes[i - 1].first) continue;
      snap.nodes.push_back(node_info(nodes[i].first, nodes[i].second));
    }
    snap.edges = merge_hops(std::move(hops));
    std::lock_guard<std::mutex> lock(mutex_);
    snap.nodes_evicted = budget_->nodes.evicted.load(std::memory_order_relaxed);
    snap.ledgers_evicted =
        budget_->ledgers.evicted.load(std::memory_order_relaxed);
    return snap;
  }

  void set_node_capacity(std::size_t cap) {
    node_capacity_.store(cap, std::memory_order_relaxed);
    evict(*current_budget(), Table::kNodes, cap, cap, /*wait=*/true);
  }
  void set_ledger_capacity(std::size_t cap) {
    ledger_capacity_.store(cap, std::memory_order_relaxed);
    for_each_store([cap](Store& s) {
      for (auto& [flow, led] : s.ledgers) {
        while (led.ring.size() > cap) {
          led.ring.pop_front();
          led.dropped += 1;
        }
      }
    });
  }
  void set_max_flows(std::size_t cap) {
    max_flows_.store(cap, std::memory_order_relaxed);
    evict(*current_budget(), Table::kLedgers, cap, cap, /*wait=*/true);
  }

  /// Drop every store and start a new budget. A thread's cached store is
  /// keyed by the generation this bumps, so the next record after a reset
  /// lands in a fresh store; one racing with the reset lands in the
  /// discarded one, as if it had come just before.
  void reset() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stores_.clear();
      budget_ = std::make_shared<Budget>();
      generation_.fetch_add(1, std::memory_order_release);
    }
    // Free the caller's old store now rather than on its next record.
    cached_store().store.reset();
  }

 private:
  /// Node record: a packet's size and interned kind (index into kinds()).
  struct Node {
    std::uint32_t size = 0;
    std::uint8_t kind = 0;
  };

  /// A stored hop with its global sequence number (first sighting wins).
  struct Hop {
    EdgeInfo edge;
    std::uint64_t seq = 0;
  };

  struct Ledger {
    std::deque<ProvRecord> ring;
    std::uint64_t dropped = 0;
    std::uint64_t next_seq = 0;
  };

  /// One process-wide table budget: `issued` numbers every entry ever
  /// created (so live = issued - evicted), `evicting` serialises evictors.
  struct Tally {
    alignas(64) std::atomic<std::uint64_t> issued{0};
    alignas(64) std::atomic<std::uint64_t> evicted{0};
    std::mutex evicting;
  };

  enum class Table { kNodes, kLedgers };

  /// Everything reset() discards shares one Budget.
  struct Budget {
    Tally nodes;
    Tally ledgers;
    std::atomic<std::uint64_t> hops{0};
    Tally& tally(Table table) {
      return table == Table::kNodes ? nodes : ledgers;
    }
  };

  /// One scope's tables. Entry orders are (sequence, key), oldest first.
  struct Store {
    Store(std::uint64_t scope_id, std::shared_ptr<Budget> shared)
        : scope(scope_id), budget(std::move(shared)) {}
    const std::uint64_t scope;
    const std::shared_ptr<Budget> budget;
    std::mutex mutex;  // guards everything below
    std::unordered_map<std::uint64_t, Node> nodes;
    std::deque<std::pair<std::uint64_t, std::uint64_t>> node_order;
    std::unordered_map<std::uint64_t, std::vector<Hop>> edges;  // by child
    std::map<FlowKey, Ledger> ledgers;
    std::deque<std::pair<std::uint64_t, FlowKey>> ledger_order;

    void evict_nodes_through(std::uint64_t watermark) {
      while (!node_order.empty() && node_order.front().first <= watermark) {
        nodes.erase(node_order.front().second);
        edges.erase(node_order.front().second);
        node_order.pop_front();
      }
      if (nodes.empty()) {  // a finished world's store keeps no buckets
        decltype(nodes)().swap(nodes);
        decltype(edges)().swap(edges);
      }
    }
    void evict_ledgers_through(std::uint64_t watermark) {
      while (!ledger_order.empty() &&
             ledger_order.front().first <= watermark) {
        ledgers.erase(ledger_order.front().second);
        ledger_order.pop_front();
      }
    }
  };

  /// Interned node kinds. Kinds are call-site literals, a handful in all;
  /// past kMaxKinds distinct names the last slot is shared.
  static constexpr std::uint8_t kWireKind = 0;
  static constexpr std::size_t kMaxKinds = 256;
  struct KindTable {
    KindTable() { names[kWireKind] = "wire"; }
    std::mutex mutex;  // serialises appends; lookups read [0, size)
    std::atomic<std::size_t> size{1};
    std::array<std::string, kMaxKinds> names;
  };
  static KindTable& kinds() {
    static KindTable table;
    return table;
  }
  static std::uint8_t intern_kind(std::string_view kind) {
    KindTable& t = kinds();
    auto find = [&](std::size_t n) {
      std::size_t i = 0;
      while (i < n && t.names[i] != kind) ++i;
      return i;
    };
    std::size_t n = t.size.load(std::memory_order_acquire);
    std::size_t i = find(n);
    if (i == n) {
      std::lock_guard<std::mutex> lock(t.mutex);
      n = t.size.load(std::memory_order_relaxed);
      i = find(n);
      if (i == n && n == kMaxKinds) {
        i = kMaxKinds - 1;
      } else if (i == n) {
        t.names[n] = kind;
        t.size.store(n + 1, std::memory_order_release);
      }
    }
    return static_cast<std::uint8_t>(i);
  }

  static NodeInfo node_info(std::uint64_t id, const Node& n) {
    return NodeInfo{id, n.size, kinds().names[n.kind]};
  }

  ProvenanceRecorder() = default;

  static std::uint64_t& scope_slot() {
    thread_local std::uint64_t t_scope = 0;
    return t_scope;
  }
  friend class ScopedProvScope;

  static bool edge_less(const EdgeInfo& a, const EdgeInfo& b) {
    return std::tuple(a.child, a.parent, a.kind, a.actor) <
           std::tuple(b.child, b.parent, b.kind, b.actor);
  }

  /// One store cached per thread, with the scope and reset generation it
  /// was looked up under.
  struct Cached {
    std::uint64_t generation = 0;
    std::uint64_t scope = 0;
    std::shared_ptr<Store> store;
  };
  static Cached& cached_store() {
    thread_local Cached cached;
    return cached;
  }

  /// The calling thread's store for its current scope. The cache is keyed
  /// by (scope, reset generation), so the hot path takes only the store's
  /// own lock; a miss creates the store under the directory lock.
  Store& local_store() {
    Cached& cached = cached_store();
    const std::uint64_t scope = current_scope();
    if (cached.store == nullptr || cached.scope != scope ||
        cached.generation != generation_.load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> lock(mutex_);
      std::shared_ptr<Store>& slot = stores_[scope];
      if (slot == nullptr) slot = std::make_shared<Store>(scope, budget_);
      cached.generation = generation_.load(std::memory_order_relaxed);
      cached.scope = scope;
      cached.store = slot;
    }
    return *cached.store;
  }

  /// Visit every store in ascending scope order, each under its own lock.
  /// Lock order is directory, then store; writers never hold a store lock
  /// while taking the directory lock.
  template <typename Fn>
  void for_each_store(Fn&& fn) const {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [scope, s] : stores_) {
      std::lock_guard<std::mutex> store_lock(s->mutex);
      fn(*s);
    }
  }

  std::shared_ptr<Budget> current_budget() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return budget_;
  }

  /// Returns the new node's sequence number, or 0 if it already existed.
  static std::uint64_t register_node_locked(Store& s, std::uint64_t id,
                                            std::uint32_t size,
                                            std::uint8_t kind) {
    auto [it, inserted] = s.nodes.try_emplace(id, Node{size, kind});
    if (!inserted) {
      // Upgrade a stub to its real origin kind; a later "wire" sighting is
      // a no-op.
      if (it->second.kind == kWireKind) it->second.kind = kind;
      return 0;
    }
    const std::uint64_t seq =
        s.budget->nodes.issued.fetch_add(1, std::memory_order_relaxed) + 1;
    s.node_order.emplace_back(seq, id);
    return seq;
  }

  static void add_hop_locked(Store& s, std::uint64_t ts_us,
                             std::uint64_t parent, std::uint64_t child,
                             std::string_view kind, std::string_view actor,
                             std::string_view detail) {
    std::vector<Hop>& hops = s.edges[child];
    for (const Hop& h : hops) {
      if (h.edge.parent == parent && h.edge.kind == kind &&
          h.edge.actor == actor) {
        return;
      }
    }
    if (hops.size() >= kMaxEdgesPerChild) return;
    Hop h;
    h.seq = s.budget->hops.fetch_add(1, std::memory_order_relaxed);
    h.edge.child = child;
    h.edge.parent = parent;
    h.edge.ts_us = ts_us;
    h.edge.kind = kind;
    h.edge.actor = actor;
    h.edge.detail = detail;
    hops.push_back(std::move(h));
  }

  /// Hops from every store, merged as one table would have kept them: per
  /// child, the first sighting of each (parent, kind, actor) in global
  /// order, at most kMaxEdgesPerChild; then sorted by edge_less.
  static std::vector<EdgeInfo> merge_hops(std::vector<Hop> hops) {
    std::sort(hops.begin(), hops.end(), [](const Hop& a, const Hop& b) {
      return std::pair(a.edge.child, a.seq) < std::pair(b.edge.child, b.seq);
    });
    std::vector<EdgeInfo> out;
    out.reserve(hops.size());
    std::size_t first = 0;  // index in `out` of the current child's hops
    for (std::size_t i = 0; i < hops.size(); ++i) {
      EdgeInfo& e = hops[i].edge;
      if (i == 0 || e.child != hops[i - 1].edge.child) first = out.size();
      if (out.size() - first >= kMaxEdgesPerChild) continue;
      bool seen = false;
      for (std::size_t j = first; j < out.size() && !seen; ++j) {
        seen = out[j].parent == e.parent && out[j].kind == e.kind &&
               out[j].actor == e.actor;
      }
      if (!seen) out.push_back(std::move(e));
    }
    std::sort(out.begin(), out.end(), edge_less);
    return out;
  }

  std::size_t capacity(Table table) const {
    return (table == Table::kNodes ? node_capacity_ : max_flows_)
        .load(std::memory_order_relaxed);
  }

  /// Writer-side trigger, called after the store lock is released: evict
  /// once the table passes its cap by more than cap/16, down to the cap.
  void evict_if_over(Budget& budget, Table table, std::uint64_t issued) {
    const std::size_t cap = capacity(table);
    const std::size_t trigger = cap + cap / 16;
    const std::uint64_t gone =
        budget.tally(table).evicted.load(std::memory_order_relaxed);
    if (issued <= gone || issued - gone <= trigger) return;
    evict(budget, table, trigger, cap, /*wait=*/false);
  }

  /// If more than `trigger` entries are live, drop the oldest until `keep`
  /// remain. Entry numbers are dense and eviction always takes the oldest,
  /// so the live entries are exactly those numbered above `evicted`: the
  /// k-way merge of the stores' FIFO fronts reduces to one watermark, and
  /// each store pops its prefix at or below it under one lock. A writer
  /// that finds another evictor running leaves the work to it.
  void evict(Budget& budget, Table table, std::size_t trigger,
             std::size_t keep, bool wait) {
    Tally& tally = budget.tally(table);
    std::unique_lock<std::mutex> evicting(tally.evicting, std::defer_lock);
    if (wait) {
      evicting.lock();
    } else if (!evicting.try_lock()) {
      return;
    }
    const std::uint64_t issued = tally.issued.load(std::memory_order_relaxed);
    if (issued - tally.evicted.load(std::memory_order_relaxed) <= trigger) {
      return;
    }
    const std::uint64_t watermark = issued - keep;

    std::vector<std::shared_ptr<Store>> stores;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (budget_.get() != &budget) return;  // a reset discarded this budget
      for (const auto& [scope, s] : stores_) stores.push_back(s);
    }
    // Every number up to the watermark was issued before it was read, under
    // the lock of the store that holds it, so each store's prefix is final.
    for (const auto& s : stores) {
      std::lock_guard<std::mutex> lock(s->mutex);
      if (table == Table::kNodes) {
        s->evict_nodes_through(watermark);
      } else {
        s->evict_ledgers_through(watermark);
      }
    }
    tally.evicted.store(watermark, std::memory_order_relaxed);
  }

  static LedgerSnapshot snapshot_ledger(std::uint64_t scope,
                                        const FlowKey& flow,
                                        const Ledger& led) {
    LedgerSnapshot ls;
    ls.scope = scope;
    ls.flow = flow;
    ls.records.assign(led.ring.begin(), led.ring.end());
    ls.dropped = led.dropped;
    ls.total = led.next_seq;
    return ls;
  }

  static constexpr std::size_t kMaxEdgesPerChild = 16;

  mutable std::mutex mutex_;  // guards budget_ and the store directory
  std::shared_ptr<Budget> budget_ = std::make_shared<Budget>();
  std::map<std::uint64_t, std::shared_ptr<Store>> stores_;  // by scope
  alignas(64) std::atomic<std::uint64_t> generation_{1};  // bumped by reset()
  std::atomic<std::size_t> node_capacity_{65536};
  std::atomic<std::size_t> ledger_capacity_{512};
  std::atomic<std::size_t> max_flows_{1024};
};

/// RAII scope binding for the calling thread; the round scheduler opens one
/// per isolated round with the round's content-defined fingerprint.
class ScopedProvScope {
 public:
  explicit ScopedProvScope(std::uint64_t scope)
      : prev_(ProvenanceRecorder::scope_slot()) {
    ProvenanceRecorder::scope_slot() = scope;
  }
  ~ScopedProvScope() { ProvenanceRecorder::scope_slot() = prev_; }

  ScopedProvScope(const ScopedProvScope&) = delete;
  ScopedProvScope& operator=(const ScopedProvScope&) = delete;

 private:
  std::uint64_t prev_;
};

}  // namespace liberate::obs::prov
