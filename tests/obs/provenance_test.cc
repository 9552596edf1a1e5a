// Flight-recorder unit tests: content-derived identity, lineage edges,
// bounded ledgers, verdict explanation rendering, Chrome-trace schema shape,
// and thread-safety under concurrent recording (the TSan stress leg matches
// on the Provenance prefix).
#include "obs/provenance/recorder.h"

#include <gtest/gtest.h>

#include <future>
#include <thread>

#include "obs/provenance/chrome_trace.h"
#include "obs/provenance/explain.h"
#include "obs/snapshot.h"
#include "util/thread_pool.h"

namespace liberate::obs::prov {
namespace {

Bytes fake_ipv4(std::uint8_t proto, std::uint32_t src, std::uint16_t sport,
                std::uint32_t dst, std::uint16_t dport,
                std::initializer_list<std::uint8_t> payload = {}) {
  Bytes d(20, 0);
  d[0] = 0x45;
  d[9] = proto;
  for (int i = 0; i < 4; ++i) {
    d[12 + i] = static_cast<std::uint8_t>(src >> (24 - 8 * i));
    d[16 + i] = static_cast<std::uint8_t>(dst >> (24 - 8 * i));
  }
  d.push_back(static_cast<std::uint8_t>(sport >> 8));
  d.push_back(static_cast<std::uint8_t>(sport));
  d.push_back(static_cast<std::uint8_t>(dport >> 8));
  d.push_back(static_cast<std::uint8_t>(dport));
  d.insert(d.end(), payload.begin(), payload.end());
  return d;
}

class ProvenanceTest : public ::testing::Test {
 protected:
  void SetUp() override { ProvenanceRecorder::instance().reset(); }
  void TearDown() override {
    auto& rec = ProvenanceRecorder::instance();
    rec.reset();
    rec.set_node_capacity(65536);
    rec.set_ledger_capacity(512);
    rec.set_max_flows(1024);
  }
};

TEST_F(ProvenanceTest, PacketIdsAreContentDerivedAndIdempotent) {
  auto& rec = ProvenanceRecorder::instance();
  Bytes a = fake_ipv4(17, 0x0a000001, 42001, 0xc6336414, 3478, {1, 2, 3});
  Bytes b = fake_ipv4(17, 0x0a000001, 42001, 0xc6336414, 3478, {1, 2, 4});

  std::uint64_t id1 = rec.packet(a, "udp");
  std::uint64_t id2 = rec.packet(a, "udp");  // retransmission
  std::uint64_t id3 = rec.packet(b, "udp");
  EXPECT_EQ(id1, id2);
  EXPECT_NE(id1, id3);
  EXPECT_EQ(id1, packet_id(a));  // pure function of the bytes

  auto n = rec.node(id1);
  ASSERT_TRUE(n.has_value());
  EXPECT_EQ(n->size, a.size());
  EXPECT_EQ(n->kind, "udp");
}

TEST_F(ProvenanceTest, WireStubsUpgradeToRealOriginKind) {
  auto& rec = ProvenanceRecorder::instance();
  Bytes a = fake_ipv4(6, 1, 1, 2, 2, {9});
  rec.packet(a, "wire");  // seen on the wire before its origin registered
  rec.packet(a, "tcp");
  EXPECT_EQ(rec.node(packet_id(a))->kind, "tcp");
  rec.packet(a, "wire");  // a later wire sighting must not downgrade
  EXPECT_EQ(rec.node(packet_id(a))->kind, "tcp");
}

TEST_F(ProvenanceTest, EdgesDedupeAndSortDeterministically) {
  auto& rec = ProvenanceRecorder::instance();
  Bytes parent = fake_ipv4(6, 1, 1, 2, 2, {1});
  Bytes child = fake_ipv4(6, 1, 1, 2, 2, {2});

  rec.edge(10, parent, child, "split", "tcp-segmentation", "payload[0..1)");
  rec.edge(11, parent, child, "split", "tcp-segmentation");  // dup: dropped
  rec.edge(12, parent, child, "insert", "inert-ttl");
  rec.edge(13, child, child, "split", "self");  // self-loop: ignored

  auto hops = rec.parents_of(packet_id(child));
  ASSERT_EQ(hops.size(), 2u);
  EXPECT_EQ(hops[0].kind, "insert");  // (child, parent, kind, actor) order
  EXPECT_EQ(hops[1].kind, "split");
  EXPECT_EQ(hops[1].ts_us, 10u);  // first sighting won
  EXPECT_EQ(hops[1].detail, "payload[0..1)");
}

TEST_F(ProvenanceTest, EdgeFanInIsCapped) {
  auto& rec = ProvenanceRecorder::instance();
  Bytes child = fake_ipv4(6, 1, 1, 2, 2, {0});
  for (std::uint8_t i = 1; i <= 40; ++i) {
    Bytes parent = fake_ipv4(6, 1, 1, 2, 2, {i});
    rec.edge(i, parent, child, "reassembly", "ip-reassembler");
  }
  EXPECT_LE(rec.parents_of(packet_id(child)).size(), 16u);
}

TEST_F(ProvenanceTest, FlowKeyIsDirectionFree) {
  FlowKey forward = flow_key(0x0a000001, 42001, 0xc6336414, 3478, 17);
  FlowKey reverse = flow_key(0xc6336414, 3478, 0x0a000001, 42001, 17);
  EXPECT_EQ(forward, reverse);
  EXPECT_EQ(forward.to_string(), "10.0.0.1:42001<->198.51.100.20:3478/udp");
  EXPECT_EQ(FlowKey{}.to_string(), "<no-flow>");
}

TEST_F(ProvenanceTest, FlowKeyOfParsesRawIpv4) {
  Bytes d = fake_ipv4(17, 0x0a000001, 42001, 0xc6336414, 3478);
  FlowKey k = flow_key_of(d);
  EXPECT_TRUE(k.valid);
  EXPECT_EQ(k, flow_key(0x0a000001, 42001, 0xc6336414, 3478, 17));

  EXPECT_FALSE(flow_key_of(Bytes{0x45, 0x00}).valid);  // truncated
  Bytes not_v4 = d;
  not_v4[0] = 0x65;
  EXPECT_FALSE(flow_key_of(not_v4).valid);

  // Non-first fragment: addresses yes, ports no (payload is mid-stream).
  Bytes frag = d;
  frag[6] = 0x00;
  frag[7] = 0x03;  // fragment offset 3
  FlowKey fk = flow_key_of(frag);
  EXPECT_TRUE(fk.valid);
  EXPECT_EQ(fk.port_a, 0);
  EXPECT_EQ(fk.port_b, 0);
}

TEST_F(ProvenanceTest, NodeTableEvictsFifoAndCountsEvictions) {
  auto& rec = ProvenanceRecorder::instance();
  rec.set_node_capacity(4);
  std::vector<std::uint64_t> ids;
  for (std::uint8_t i = 0; i < 8; ++i) {
    ids.push_back(rec.packet(fake_ipv4(6, 1, 1, 2, 2, {i}), "tcp"));
  }
  EXPECT_FALSE(rec.node(ids[0]).has_value());  // oldest gone
  EXPECT_TRUE(rec.node(ids[7]).has_value());   // newest kept
  ProvSnapshot snap = rec.snapshot();
  EXPECT_EQ(snap.nodes.size(), 4u);
  EXPECT_EQ(snap.nodes_evicted, 4u);
}

// The caps are process-wide, not per scope: eviction drops the oldest entry
// across every scope's store first, so a newer scope's entries all survive.
TEST_F(ProvenanceTest, NodeTableEvictsOldestAcrossScopes) {
  auto& rec = ProvenanceRecorder::instance();
  rec.set_node_capacity(8);
  std::vector<std::uint64_t> older, newer;
  {
    ScopedProvScope scope(1);
    for (std::uint8_t i = 0; i < 8; ++i) {
      older.push_back(rec.packet(fake_ipv4(6, 1, 1, 2, 2, {1, i}), "tcp"));
    }
  }
  {
    ScopedProvScope scope(2);
    for (std::uint8_t i = 0; i < 8; ++i) {
      newer.push_back(rec.packet(fake_ipv4(6, 1, 1, 2, 2, {2, i}), "tcp"));
    }
  }
  for (std::uint64_t id : newer) EXPECT_TRUE(rec.node(id).has_value());
  for (std::uint64_t id : older) EXPECT_FALSE(rec.node(id).has_value());
  ProvSnapshot snap = rec.snapshot();
  EXPECT_EQ(snap.nodes.size(), 8u);
  EXPECT_EQ(snap.nodes_evicted, 8u);
}

TEST_F(ProvenanceTest, LedgerSetEvictsOldestAcrossScopes) {
  auto& rec = ProvenanceRecorder::instance();
  rec.set_max_flows(8);
  std::vector<FlowKey> flows;
  for (std::uint16_t i = 0; i < 8; ++i) {
    flows.push_back(flow_key(1, 1, 2, static_cast<std::uint16_t>(100 + i), 6));
  }
  for (std::uint64_t scope_id : {std::uint64_t{1}, std::uint64_t{2}}) {
    ScopedProvScope scope(scope_id);
    for (const FlowKey& f : flows) rec.note(scope_id, f, "dpi-skip", {});
  }
  for (const FlowKey& f : flows) {
    auto ledgers = rec.ledgers_for(f);
    ASSERT_EQ(ledgers.size(), 1u) << f.to_string();
    EXPECT_EQ(ledgers[0].scope, 2u);
  }
  ProvSnapshot snap = rec.snapshot();
  EXPECT_EQ(snap.ledgers.size(), 8u);
  EXPECT_EQ(snap.ledgers_evicted, 8u);
}

// A thread caches its scope's store; reset() must cut that cache loose, so
// the next record lands in a fresh store the snapshot sees, and nothing from
// before the reset is written to or read back.
TEST_F(ProvenanceTest, ResetDetachesCachedStores) {
  auto& rec = ProvenanceRecorder::instance();
  FlowKey flow = flow_key(1, 1, 2, 2, 17);
  Bytes before = fake_ipv4(17, 1, 1, 2, 2, {1});
  Bytes after = fake_ipv4(17, 1, 1, 2, 2, {2});
  ScopedProvScope scope(0x5EED);
  rec.packet(before, "udp");
  rec.note(1, flow, "before-reset", {});
  rec.reset();
  EXPECT_TRUE(rec.snapshot().ledgers.empty());
  rec.packet(after, "udp");
  rec.note(2, flow, "after-reset", {});

  ProvSnapshot snap = rec.snapshot();
  ASSERT_EQ(snap.ledgers.size(), 1u);
  EXPECT_EQ(snap.ledgers[0].scope, 0x5EEDu);
  ASSERT_EQ(snap.ledgers[0].records.size(), 1u);
  EXPECT_EQ(snap.ledgers[0].records[0].kind, "after-reset");
  EXPECT_EQ(snap.ledgers[0].records[0].seq, 0u);  // a new ledger, not the old
  EXPECT_EQ(snap.ledgers[0].total, 1u);
  ASSERT_EQ(snap.nodes.size(), 1u);
  EXPECT_EQ(snap.nodes[0].id, packet_id(after));
  EXPECT_FALSE(rec.node(packet_id(before)).has_value());
}

TEST_F(ProvenanceTest, LedgerRingDropsOldestWithExactCounts) {
  auto& rec = ProvenanceRecorder::instance();
  rec.set_ledger_capacity(3);
  FlowKey flow = flow_key(1, 1, 2, 2, 6);
  for (int i = 0; i < 10; ++i) {
    rec.note(static_cast<std::uint64_t>(i), flow, "dpi-skip",
             {fv("i", std::int64_t{i})});
  }
  auto ledgers = rec.ledgers_for(flow);
  ASSERT_EQ(ledgers.size(), 1u);
  EXPECT_EQ(ledgers[0].records.size(), 3u);
  EXPECT_EQ(ledgers[0].dropped, 7u);
  EXPECT_EQ(ledgers[0].total, 10u);
  EXPECT_EQ(ledgers[0].records.back().seq, 9u);  // newest survived
}

TEST_F(ProvenanceTest, LedgerSetEvictsOldestFlows) {
  auto& rec = ProvenanceRecorder::instance();
  rec.set_max_flows(2);
  FlowKey f1 = flow_key(1, 1, 2, 2, 6);
  FlowKey f2 = flow_key(1, 1, 2, 3, 6);
  FlowKey f3 = flow_key(1, 1, 2, 4, 6);
  rec.note(0, f1, "dpi-skip", {});
  rec.note(1, f2, "dpi-skip", {});
  rec.note(2, f3, "dpi-skip", {});
  EXPECT_TRUE(rec.ledgers_for(f1).empty());  // FIFO victim
  EXPECT_EQ(rec.ledgers_for(f3).size(), 1u);
  EXPECT_EQ(rec.snapshot().ledgers_evicted, 1u);
}

TEST_F(ProvenanceTest, ScopesKeepParallelLedgersSeparate) {
  auto& rec = ProvenanceRecorder::instance();
  FlowKey flow = flow_key(1, 1, 2, 2, 17);
  rec.note(5, flow, "ambient", {});
  {
    ScopedProvScope scope(0xABCD);
    EXPECT_EQ(ProvenanceRecorder::current_scope(), 0xABCDu);
    rec.note(7, flow, "scoped", {});
  }
  EXPECT_EQ(ProvenanceRecorder::current_scope(), 0u);
  auto ledgers = rec.ledgers_for(flow);
  ASSERT_EQ(ledgers.size(), 2u);
  EXPECT_EQ(ledgers[0].scope, 0u);  // scope-ascending
  EXPECT_EQ(ledgers[0].records[0].kind, "ambient");
  EXPECT_EQ(ledgers[1].scope, 0xABCDu);
  EXPECT_EQ(ledgers[1].records[0].kind, "scoped");
}

TEST_F(ProvenanceTest, ExplainNamesRuleOffsetsAndLineage) {
  auto& rec = ProvenanceRecorder::instance();
  Bytes parent = fake_ipv4(17, 0x0a000001, 42001, 0xc6336414, 3478, {1, 2});
  Bytes child = fake_ipv4(17, 0x0a000001, 42001, 0xc6336414, 3478, {1});
  rec.packet(parent, "udp");
  rec.edge(90, parent, child, "split", "udp-fragmentation",
           "payload[0..1) of parent");

  FlowKey flow = flow_key_of(child);
  std::uint64_t child_id = rec.packet(child, "udp");
  rec.note(100, flow, "rules-evaluated",
           {fv("tried", std::int64_t{3}), fv("class", "skype"),
            fv("rule", "testbed-skype-stun"), fv("offsets", "24")},
           child_id);
  rec.note(101, flow, "verdict",
           {fv("class", "skype"), fv("rule", "testbed-skype-stun"),
            fv("action", "block")},
           child_id);

  Explanation ex = explain_verdict(flow);
  EXPECT_TRUE(ex.found);
  EXPECT_EQ(ex.verdict_class, "skype");
  EXPECT_EQ(ex.verdict_rule, "testbed-skype-stun");
  EXPECT_EQ(ex.verdict_action, "block");
  // The causal chain names the rule, the matched offsets, and the lineage.
  EXPECT_NE(ex.text.find("classified as skype by rule testbed-skype-stun"),
            std::string::npos);
  EXPECT_NE(ex.text.find("offsets=24"), std::string::npos);
  EXPECT_NE(ex.text.find("<- split of pkt " + id_hex(packet_id(parent))),
            std::string::npos);
  EXPECT_NE(ex.text.find("by udp-fragmentation"), std::string::npos);
  EXPECT_NE(ex.json.find("\"rule\":\"testbed-skype-stun\""),
            std::string::npos);
  EXPECT_NE(ex.json.find("\"hop\":\"split\""), std::string::npos);
}

TEST_F(ProvenanceTest, ExplainPrefersTheDecisiveScope) {
  auto& rec = ProvenanceRecorder::instance();
  FlowKey flow = flow_key(1, 1, 2, 2, 6);
  {
    ScopedProvScope scope(7);
    rec.note(50, flow, "dpi-skip", {fv("reason", "mid-flow-unknown")});
  }
  {
    ScopedProvScope scope(9);
    rec.note(60, flow, "verdict", {fv("class", "video")});
  }
  Explanation ex = explain_verdict(flow);
  EXPECT_EQ(ex.scope, 9u);
  EXPECT_EQ(ex.verdict_class, "video");
}

TEST_F(ProvenanceTest, ExplainUnknownFlowSaysSo) {
  Explanation ex = explain_verdict(flow_key(9, 9, 8, 8, 6));
  EXPECT_FALSE(ex.found);
  EXPECT_NE(ex.text.find("no provenance recorded"), std::string::npos);
  EXPECT_NE(ex.json.find("\"found\":false"), std::string::npos);
}

TEST_F(ProvenanceTest, ChromeTraceHasTraceEventSchema) {
  auto& rec = ProvenanceRecorder::instance();
  Bytes parent = fake_ipv4(6, 1, 1, 2, 2, {1});
  Bytes child = fake_ipv4(6, 1, 1, 2, 2, {2});
  rec.edge(10, parent, child, "split", "tcp-segmentation");
  rec.note_pkt(20, child, "verdict", {fv("class", "video")});

  std::string json = to_chrome_trace_json(capture());
  // Chrome trace-event "JSON Object Format": a traceEvents array of events
  // with ph/ts/pid fields; metadata names the process, provenance records
  // are thread-scoped instants, hops are process-scoped instants.
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"hop:split\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"verdict\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);

  // Deterministic: same recorder state renders the same bytes.
  EXPECT_EQ(json, to_chrome_trace_json(capture()));
}

TEST_F(ProvenanceTest, SnapshotSummaryReachesTelemetryJson) {
  auto& rec = ProvenanceRecorder::instance();
  rec.note_pkt(30, fake_ipv4(6, 1, 1, 2, 2, {5}), "dpi-skip",
               {fv("reason", "invalid-packet")});
  std::string telemetry = to_json(capture());
  EXPECT_NE(telemetry.find("\"provenance\":{"), std::string::npos);
  EXPECT_NE(telemetry.find("\"flows\":1"), std::string::npos);
}

TEST_F(ProvenanceTest, ProvenanceConcurrencyManyThreads) {
  auto& rec = ProvenanceRecorder::instance();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rec, t] {
      ScopedProvScope scope(static_cast<std::uint64_t>(t + 1));
      for (int i = 0; i < kPerThread; ++i) {
        Bytes parent = fake_ipv4(6, 1, 1, 2, 2,
                                 {static_cast<std::uint8_t>(t),
                                  static_cast<std::uint8_t>(i)});
        Bytes child = fake_ipv4(6, 1, 1, 2, 2,
                                {static_cast<std::uint8_t>(t),
                                 static_cast<std::uint8_t>(i), 0xFF});
        rec.packet(parent, "tcp");
        rec.edge(static_cast<std::uint64_t>(i), parent, child, "split",
                 "stress");
        rec.note_pkt(static_cast<std::uint64_t>(i), child, "rules-evaluated",
                     {fv("tried", std::int64_t{i})});
      }
    });
  }
  for (auto& th : threads) th.join();

  ProvSnapshot snap = rec.snapshot();
  // All threads hit the same flow but distinct scopes: one ledger each,
  // every record accounted for.
  EXPECT_EQ(snap.ledgers.size(), static_cast<std::size_t>(kThreads));
  EXPECT_EQ(snap.total_records,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}


// One isolated world's story under its own scope: per-world packets, split
// hops and ledger records, plus bytes every world shares, so the merged
// view must deduplicate nodes and hops and upgrade a "wire" stub to the
// kind only world 1 registered.
void record_world(std::uint64_t scope_id) {
  constexpr int kPackets = 64;
  auto& rec = ProvenanceRecorder::instance();
  ScopedProvScope scope(scope_id);
  const auto w = static_cast<std::uint8_t>(scope_id);
  Bytes shared_parent = fake_ipv4(6, 0x0a000001, 40000, 0xc6336414, 80, {0xAA});
  Bytes shared_child =
      fake_ipv4(6, 0x0a000001, 40000, 0xc6336414, 80, {0xAA, 0xBB});
  if (scope_id == 1) rec.packet(shared_parent, "tcp");
  rec.edge(5, shared_parent, shared_child, "split", "shared-actor",
           "payload[0..1) of parent");
  const FlowKey shared_flow = flow_key_of(shared_child);
  const auto port = static_cast<std::uint16_t>(41000 + w);
  for (int i = 0; i < kPackets; ++i) {
    const auto b = static_cast<std::uint8_t>(i);
    Bytes parent = fake_ipv4(6, 0x0a000001, port, 0xc6336414, 80, {w, b});
    Bytes child = fake_ipv4(6, 0x0a000001, port, 0xc6336414, 80, {w, b, 0xFF});
    rec.packet(parent, "tcp");
    rec.edge(static_cast<std::uint64_t>(i), parent, child, "split",
             "world-actor");
    rec.note_pkt(static_cast<std::uint64_t>(i), child, "rules-evaluated",
                 {fv("tried", std::int64_t{i})});
    rec.note(static_cast<std::uint64_t>(i), shared_flow, "verdict",
             {fv("class", "video"), fv("world", std::uint64_t{w})});
  }
}

void expect_same_snapshot(const ProvSnapshot& a, const ProvSnapshot& b) {
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    EXPECT_EQ(a.nodes[i].id, b.nodes[i].id) << "node " << i;
    EXPECT_EQ(a.nodes[i].size, b.nodes[i].size) << "node " << i;
    EXPECT_EQ(a.nodes[i].kind, b.nodes[i].kind) << "node " << i;
  }
  ASSERT_EQ(a.edges.size(), b.edges.size());
  for (std::size_t i = 0; i < a.edges.size(); ++i) {
    EXPECT_EQ(a.edges[i].child, b.edges[i].child) << "edge " << i;
    EXPECT_EQ(a.edges[i].parent, b.edges[i].parent) << "edge " << i;
    EXPECT_EQ(a.edges[i].ts_us, b.edges[i].ts_us) << "edge " << i;
    EXPECT_EQ(a.edges[i].kind, b.edges[i].kind) << "edge " << i;
    EXPECT_EQ(a.edges[i].actor, b.edges[i].actor) << "edge " << i;
    EXPECT_EQ(a.edges[i].detail, b.edges[i].detail) << "edge " << i;
  }
  ASSERT_EQ(a.ledgers.size(), b.ledgers.size());
  for (std::size_t i = 0; i < a.ledgers.size(); ++i) {
    const LedgerSnapshot& la = a.ledgers[i];
    const LedgerSnapshot& lb = b.ledgers[i];
    EXPECT_EQ(la.scope, lb.scope) << "ledger " << i;
    EXPECT_EQ(la.flow, lb.flow) << "ledger " << i;
    EXPECT_EQ(la.dropped, lb.dropped) << "ledger " << i;
    EXPECT_EQ(la.total, lb.total) << "ledger " << i;
    ASSERT_EQ(la.records.size(), lb.records.size()) << "ledger " << i;
    for (std::size_t r = 0; r < la.records.size(); ++r) {
      const ProvRecord& ra = la.records[r];
      const ProvRecord& rb = lb.records[r];
      EXPECT_EQ(ra.ts_us, rb.ts_us);
      EXPECT_EQ(ra.seq, rb.seq);
      EXPECT_EQ(ra.kind, rb.kind);
      EXPECT_EQ(ra.pkt, rb.pkt);
      ASSERT_EQ(ra.fields.size(), rb.fields.size());
      for (std::size_t f = 0; f < ra.fields.size(); ++f) {
        EXPECT_EQ(ra.fields[f].key, rb.fields[f].key);
        EXPECT_EQ(ra.fields[f].value, rb.fields[f].value);
      }
    }
  }
  EXPECT_EQ(a.nodes_evicted, b.nodes_evicted);
  EXPECT_EQ(a.ledgers_evicted, b.ledgers_evicted);
  EXPECT_EQ(a.total_records, b.total_records);
}

class ProvenanceShardedConcurrency : public ProvenanceTest {};

// Four pool workers record four worlds at once, each into its own scope's
// store; the merged snapshot must equal the serial run's field by field.
TEST_F(ProvenanceShardedConcurrency, SnapshotEqualsSerialRun) {
  auto& rec = ProvenanceRecorder::instance();
  constexpr std::uint64_t kWorlds = 4;
  for (std::uint64_t w = 1; w <= kWorlds; ++w) record_world(w);
  const ProvSnapshot serial = rec.snapshot();
  EXPECT_EQ(serial.ledgers.size(), 2 * kWorlds);
  EXPECT_EQ(rec.node(packet_id(fake_ipv4(6, 0x0a000001, 40000, 0xc6336414,
                                         80, {0xAA})))
                ->kind,
            "tcp");

  for (int round = 0; round < 3; ++round) {
    rec.reset();
    {
      ThreadPool pool(kWorlds);
      std::vector<std::future<void>> done;
      for (std::uint64_t w = 1; w <= kWorlds; ++w) {
        done.push_back(pool.submit([w] { record_world(w); }));
      }
      for (auto& f : done) f.get();
    }
    expect_same_snapshot(serial, rec.snapshot());
  }
}

}  // namespace
}  // namespace liberate::obs::prov
