// layers.cc — the traced per-layer harness.
//
// Assembles one fleet-packet shard from public parts (a testbed world, an
// EvasionShim around a timing NetworkPort, a PacketFlowDriver), deploys the
// technique the fleet would, and drives waves with a span around every shim
// send, every port send and every wave. The shim's output datagrams are
// captured and replayed into the other layers' public calls, each timed by
// a span. The analysis, readapt, cache, probe and observability layers are
// timed on the workloads' own inputs (shared.h).
#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cc/perfbench.h"
#include "cc/shared.h"
#include "cc/spans.h"
#include "core/liberate.h"
#include "core/parallel_analysis.h"
#include "core/round_scheduler.h"
#include "deploy/fingerprint.h"
#include "deploy/flow_driver.h"
#include "deploy/recharacterize.h"
#include "dpi/match_program.h"
#include "fingerprint/probe.h"
#include "netsim/checksum.h"
#include "netsim/packet.h"
#include "obs/provenance/recorder.h"
#include "obs/snapshot.h"
#include "stack/ip_reassembly.h"
#include "util/flow_table.h"

namespace perfbench {

using namespace liberate;

namespace {

constexpr std::uint32_t kServerIp = 0xc6336414;  // FleetEngine's server
constexpr std::size_t kTracedWaves = 20;
constexpr std::size_t kMaxCaptured = 40000;
constexpr std::size_t kBatches = 5;

/// Forwards to the Network's client port, timing each send and keeping a
/// copy of what the shim emitted. A port send only queues the packet's walk
/// on the event loop, so its span is what the shim's self time excludes;
/// the walk itself runs in the wave's loop drains (the wave's self time).
class TimingPort : public netsim::NetworkPort {
 public:
  explicit TimingPort(netsim::NetworkPort& inner) : inner_(inner) {}

  void send(Bytes datagram) override {
    ++sends_;
    if (rec_ == nullptr) {
      inner_.send(std::move(datagram));
      return;
    }
    if (captured_.size() < kMaxCaptured) captured_.push_back(datagram);
    ScopedSpan span(*rec_, "netsim.port_send", request_);
    inner_.send(std::move(datagram));
  }
  netsim::EventLoop& loop() override { return inner_.loop(); }

  void trace_into(SpanRecorder* rec, std::uint64_t request) {
    rec_ = rec;
    request_ = request;
  }
  std::uint64_t sends() const { return sends_; }
  const std::vector<Bytes>& captured() const { return captured_; }

 private:
  netsim::NetworkPort& inner_;
  SpanRecorder* rec_ = nullptr;
  std::uint64_t request_ = 0;
  std::uint64_t sends_ = 0;
  std::vector<Bytes> captured_;
};

/// The shard's EvasionShim with a span around every send it is handed. The
/// PacketFlowDriver calls send() through the base class, so this override
/// sees every packet.
class TracedShim : public core::EvasionShim {
 public:
  explicit TracedShim(netsim::NetworkPort& inner)
      : core::EvasionShim(inner, nullptr, core::TechniqueContext{}) {}

  void send(Bytes datagram) override {
    ++sends_;
    if (rec_ == nullptr) {
      core::EvasionShim::send(std::move(datagram));
      return;
    }
    ScopedSpan span(*rec_, "core.shim_send", request_);
    core::EvasionShim::send(std::move(datagram));
  }

  void trace_into(SpanRecorder* rec, std::uint64_t request) {
    rec_ = rec;
    request_ = request;
  }
  std::uint64_t sends() const { return sends_; }

 private:
  SpanRecorder* rec_ = nullptr;
  std::uint64_t request_ = 0;
  std::uint64_t sends_ = 0;
};

/// What FleetEngine deploys on every shard: the first-ranked technique of
/// the deploy-time analysis, with its context.
struct Deployed {
  std::string technique;
  deploy::CachedCharacterization cached;
};

/// One fleet-packet shard. `traced` selects the timing wrappers; the
/// untraced shard is what FleetEngine builds, for the overhead comparison.
struct Shard {
  std::unique_ptr<dpi::Environment> env;
  std::unique_ptr<TimingPort> port;
  std::unique_ptr<core::EvasionShim> shim;
  TracedShim* traced_shim = nullptr;
  std::unique_ptr<deploy::PacketFlowDriver> driver;

  Shard(std::uint64_t seed, bool traced, const Deployed& d,
        const core::Liberate& lib, std::uint16_t server_port) {
    env = dpi::make_environment("testbed", seed);
    if (traced) {
      port = std::make_unique<TimingPort>(env->net.client_port());
      auto s = std::make_unique<TracedShim>(*port);
      traced_shim = s.get();
      shim = std::move(s);
    } else {
      shim = std::make_unique<core::EvasionShim>(
          env->net.client_port(), nullptr, core::TechniqueContext{});
    }
    shim->set_max_flows(0);
    shim->set_context(d.cached.context());
    shim->set_technique(
        std::shared_ptr<core::Technique>(lib.instantiate(d.technique)));
    deploy::PacketFlowConfig cfg;
    cfg.server_ip = kServerIp;
    cfg.server_port = server_port;
    driver = std::make_unique<deploy::PacketFlowDriver>(*env, *shim, cfg);
  }
};

bool is_fragment(const Bytes& d) {
  if (d.size() < 20) return false;
  const std::uint16_t frag = static_cast<std::uint16_t>((d[6] << 8) | d[7]);
  return (frag & 0x3FFF) != 0;  // MF set or nonzero offset
}

/// Times `fn` over `items` in kBatches spans named `name`.
template <typename Fn>
void batches(SpanRecorder& rec, const char* name, std::uint64_t request,
             std::uint64_t items, Fn&& fn) {
  for (std::size_t b = 0; b < kBatches; ++b) {
    ScopedSpan span(rec, name, request, items);
    fn();
  }
}

volatile std::uint64_t g_sink = 0;  // keeps timed loops from being elided

}  // namespace

int run_layers(const RunOptions& opts, JsonWriter& out) {
  SpanRecorder rec;
  std::uint64_t request = 0;
  std::vector<Check> checks;
  const trace::ApplicationTrace trace = fleet_trace();

  // --- deploy: the analysis FleetEngine runs at deploy time -------------
  Deployed deployed;
  std::unique_ptr<dpi::Environment> probe_env;
  std::unique_ptr<core::Liberate> lib;
  for (std::size_t i = 0; i < kLayerRepeats; ++i) {
    probe_env = dpi::make_environment("testbed", mix_seed(opts.seed + i));
    lib = std::make_unique<core::Liberate>(*probe_env, opts.seed);
    core::SessionReport report;
    {
      ScopedSpan span(rec, "deploy.liberate_analyze", ++request);
      report = lib->analyze(trace);
    }
    deployed.cached =
        deploy::make_cached_characterization("testbed", trace.app_name, report);
  }
  if (deployed.cached.ranking.empty()) {
    std::fprintf(stderr, "deploy-time analysis selected no technique\n");
    return -1;
  }
  deployed.technique = deployed.cached.ranking.front().name;

  // --- the shard: traced and untraced waves, alternating -----------------
  Shard traced(mix_seed(opts.seed), true, deployed, *lib, trace.server_port);
  Shard plain(mix_seed(opts.seed), false, deployed, *lib, trace.server_port);
  Bytes payload;
  for (const auto& m : trace.messages) {
    if (m.sender == trace::Sender::kClient) {
      payload.insert(payload.end(), m.payload.begin(), m.payload.end());
    }
  }
  const Bytes decoy = core::decoy_request_payload();
  auto wave = [&](Shard& s) {
    return s.driver->run_wave(kFleetFlowsPerWave, BytesView(payload),
                              BytesView(decoy), 4);
  };
  wave(traced);  // warm-up, untimed, on both shards
  wave(plain);
  const std::uint64_t shim_in0 = traced.traced_shim->sends();
  const std::uint64_t shim_out0 = traced.port->sends();
  std::uint64_t parse_calls_in_waves = 0;
  std::uint64_t incomplete = 0;
  double untraced_ns = 0;
  for (std::size_t w = 0; w < kTracedWaves; ++w) {
    ++request;
    traced.port->trace_into(&rec, request);
    traced.traced_shim->trace_into(&rec, request);
    const std::uint64_t p0 = parse_calls();
    {
      ScopedSpan span(rec, "deploy.driver_run_wave", request);
      incomplete += wave(traced).incomplete;
    }
    parse_calls_in_waves += parse_calls() - p0;
    traced.port->trace_into(nullptr, 0);
    traced.traced_shim->trace_into(nullptr, 0);
    const std::uint64_t t0 = now_ns();
    incomplete += wave(plain).incomplete;
    untraced_ns += static_cast<double>(now_ns() - t0);
  }
  const std::uint64_t shim_in = traced.traced_shim->sends() - shim_in0;
  const std::uint64_t shim_out = traced.port->sends() - shim_out0;
  checks.push_back({"traced shard: 0 incomplete", incomplete == 0,
                    std::to_string(incomplete) + " incomplete"});

  // --- obs: capture with the shard's waves in the sinks ------------------
  ++request;
  for (std::size_t i = 0; i < kBatches; ++i) {
    ScopedSpan span(rec, "obs.capture", request);
    g_sink = g_sink + obs::capture().metrics.counters.size();
  }

  // --- replay the captured datagrams into each layer ---------------------
  const std::vector<Bytes>& captured = traced.port->captured();
  std::uint64_t captured_bytes = 0;
  std::vector<Bytes> fragments;
  for (const Bytes& d : captured) {
    captured_bytes += d.size();
    if (is_fragment(d)) fragments.push_back(d);
  }
  checks.push_back({"captured fragments to reassemble", !fragments.empty(),
                    std::to_string(fragments.size()) + " fragments"});
  if (captured.empty() || fragments.empty()) return -1;

  batches(rec, "netsim.parse_packet", ++request, captured.size(), [&] {
    for (const Bytes& d : captured) {
      g_sink = g_sink + netsim::parse_packet(BytesView(d)).ok();
    }
  });
  batches(rec, "netsim.internet_checksum", ++request, captured_bytes, [&] {
    for (const Bytes& d : captured) {
      g_sink = g_sink + netsim::internet_checksum(BytesView(d));
    }
  });

  std::vector<netsim::PacketView> views;
  views.reserve(captured.size());
  for (const Bytes& d : captured) {
    auto parsed = netsim::parse_packet(BytesView(d));
    if (parsed.ok()) views.push_back(parsed.value());
  }
  const dpi::DpiEngine& live = traced.env->dpi->engine();
  ++request;
  for (std::size_t b = 0; b < kBatches; ++b) {
    dpi::DpiEngine engine(live.config(), live.rules());
    netsim::TimePoint now = 0;
    ScopedSpan span(rec, "dpi.inspect", request, views.size());
    for (const netsim::PacketView& v : views) {
      now += 10;
      g_sink = g_sink +
               engine.inspect(v, netsim::Direction::kClientToServer, now)
                   .newly_classified;
    }
  }

  {
    const dpi::MatchProgram& program = live.program();
    dpi::MatchProgram::Scratch scratch;
    dpi::RuleContext ctx;
    ctx.dst_port = trace.server_port;
    constexpr std::uint64_t kRuns = 20000;
    auto run_match = [&](const char* name, BytesView content) {
      batches(rec, name, ++request, kRuns, [&] {
        for (std::uint64_t i = 0; i < kRuns; ++i) {
          g_sink = g_sink +
                   static_cast<bool>(program.run(live.rules(), content, ctx,
                                                 nullptr, scratch));
        }
      });
    };
    run_match("dpi.match_hit", BytesView(payload));
    run_match("dpi.match_miss", BytesView(decoy));
  }

  ++request;
  for (std::size_t b = 0; b < kBatches; ++b) {
    stack::IpReassembler reassembler(netsim::seconds(30),
                                     {.max_buffers = 1u << 16});
    netsim::TimePoint now = 0;
    ScopedSpan span(rec, "stack.reassembler_push", request, fragments.size());
    for (const Bytes& f : fragments) {
      now += 10;
      g_sink = g_sink + reassembler.push(BytesView(f), now).has_value();
    }
  }

  {
    // A table at the fleet's resident size: the captured flows plus the
    // rest of a session's flows, in the driver's address scheme.
    std::vector<netsim::FiveTuple> tuples;
    tuples.reserve(views.size());
    for (const netsim::PacketView& v : views) {
      if (v.is_tcp()) tuples.push_back(v.five_tuple());
    }
    FlowTable<netsim::FiveTuple, core::FlowShimState, netsim::FiveTupleHash>
        table;
    const std::size_t resident = kFleetFlowsPerWave * kFleetShards * kFleetWaves;
    table.reserve(resident);
    for (const netsim::FiveTuple& t : tuples) table.touch(t);
    for (std::uint32_t s = 0; table.size() < resident; ++s) {
      netsim::FiveTuple t;
      t.src_ip = 0x0b000000u + s / deploy::PacketFlowDriver::kPortsPerIp;
      t.src_port = static_cast<std::uint16_t>(
          deploy::PacketFlowDriver::kFirstPort +
          s % deploy::PacketFlowDriver::kPortsPerIp);
      t.dst_ip = kServerIp;
      t.dst_port = trace.server_port;
      t.protocol = 6;
      table.touch(t);
    }
    batches(rec, "util.flow_table_touch", ++request, tuples.size(), [&] {
      for (const netsim::FiveTuple& t : tuples) {
        g_sink = g_sink + table.touch(t).second;
      }
    });
  }

  {
    auto& recorder = obs::prov::ProvenanceRecorder::instance();
    recorder.reset();
    batches(rec, "obs.prov_packet_1t", ++request, captured.size(), [&] {
      for (const Bytes& d : captured) {
        g_sink = g_sink + recorder.packet(BytesView(d), "wire");
      }
    });
    for (std::size_t b = 0; b < kBatches; ++b) {
      recorder.reset();
      ++request;
      std::vector<std::pair<std::uint64_t, std::uint64_t>> times(opts.workers);
      std::vector<std::uint64_t> ids(opts.workers, 0);
      std::vector<std::thread> threads;
      for (std::size_t t = 0; t < opts.workers; ++t) {
        threads.emplace_back([&, t] {
          std::uint64_t local = 0;
          const std::uint64_t start = now_ns();
          for (const Bytes& d : captured) {
            local += recorder.packet(BytesView(d), "wire");
          }
          times[t] = {start, now_ns()};
          ids[t] = local;
        });
      }
      for (std::thread& th : threads) th.join();
      for (std::size_t t = 0; t < opts.workers; ++t) {
        g_sink = g_sink + ids[t];
        rec.add("obs.prov_packet_nt", times[t].first, times[t].second,
                request, captured.size());
      }
    }
    recorder.reset();
  }

  // --- analysis layers on the matrix inputs ------------------------------
  const std::vector<MatrixEntry> matrix = matrix_entries();
  const std::uint64_t world_seed = opts.seed;
  ++request;
  for (std::size_t b = 0; b < kBatches; ++b) {
    for (const MatrixEntry& e : matrix) {
      std::unique_ptr<dpi::Environment> env;
      {
        ScopedSpan span(rec, "dpi.make_environment", request);
        env = dpi::make_environment(e.environment, world_seed);
      }
    }
  }
  for (const MatrixEntry& e : matrix) {
    core::WorldSpec spec;
    spec.environment = e.environment;
    spec.seed = world_seed;
    core::RoundRequest req;
    req.trace = e.trace;
    {
      ScopedSpan span(rec, "core.run_isolated_round", ++request);
      g_sink = g_sink + core::run_isolated_round(spec, req).differentiated;
    }
    core::RoundScheduler scheduler(
        spec, {.workers = opts.workers, .cache_capacity = 0});
    core::DetectionResult detection;
    {
      ScopedSpan span(rec, "core.detect", request);
      detection = core::detect_differentiation_parallel(scheduler, e.trace);
    }
    if (!detection.content_based) continue;
    core::CharacterizationOptions copts;
    copts.unique_port_per_round = true;
    core::CharacterizationReport characterization;
    {
      ScopedSpan span(rec, "core.characterize", request);
      characterization =
          core::characterize_classifier_parallel(scheduler, e.trace, copts);
    }
    ScopedSpan span(rec, "core.evaluate", request);
    g_sink = g_sink + core::evaluate_parallel(scheduler, characterization,
                                              e.trace, false)
                          .outcomes.size();
  }

  // --- readapt, cache and probes on the readapt-swap inputs ---------------
  const trace::ApplicationTrace swap = swap_trace();
  const std::string learned = learn_swap_cache(mix_seed(opts.seed),
                                               opts.workers);
  int readapt_rounds = 0;
  std::optional<deploy::ClassifierFingerprintCache> cache;
  std::optional<fingerprint::AmbiguityDigest> swapped_digest;
  bool matched = true;
  for (std::size_t i = 0; i < kLayerRepeats; ++i) {
    cache = deploy::ClassifierFingerprintCache::from_json(learned);
    if (!cache) return -1;
    auto env = dpi::make_environment("testbed", mix_seed(opts.seed + i));
    core::Liberate swap_lib(*env, opts.seed);
    const deploy::CachedCharacterization cached =
        deploy::make_cached_characterization("testbed", swap.app_name,
                                             swap_lib.analyze(swap));
    swap_to_ndpi(*env);
    const fingerprint::EnvFactory factory = [](std::uint64_t seed) {
      auto probe_world = dpi::make_environment("testbed", seed);
      swap_to_ndpi(*probe_world);
      return probe_world;
    };
    deploy::ReadaptHooks hooks;
    hooks.max_distance = 8;
    hooks.probe_ambiguity = [&] {
      fingerprint::AmbiguityProbeOptions popts;
      popts.workers = opts.workers;
      popts.seed = opts.seed;
      ScopedSpan span(rec, "fingerprint.probe", request);
      fingerprint::AmbiguityProbeResult r =
          fingerprint::probe_ambiguity(factory, popts);
      swapped_digest = r.digest;
      return r;
    };
    const int r0 = swap_lib.runner().rounds();
    ScopedSpan span(rec, "deploy.incremental_readapt", ++request);
    const deploy::ReadaptOutcome outcome =
        deploy::incremental_readapt(swap_lib, swap, cached, &*cache, &hooks);
    readapt_rounds = swap_lib.runner().rounds() - r0;
    matched = matched &&
              outcome.path == deploy::ReadaptPath::kFingerprintMatched;
  }
  checks.push_back({"readapt takes the fingerprint-matched path", matched,
                    std::to_string(readapt_rounds) + " rounds"});
  if (!swapped_digest) return -1;

  batches(rec, "deploy.cache_json", ++request, 200, [&] {
    for (int i = 0; i < 200; ++i) {
      g_sink = g_sink +
               deploy::ClassifierFingerprintCache::from_json(cache->to_json())
                   ->size();
    }
  });
  batches(rec, "deploy.cache_nearest", ++request, 2000, [&] {
    for (int i = 0; i < 2000; ++i) {
      g_sink = g_sink + cache->nearest_by_ambiguity(*swapped_digest,
                                                   swap.app_name, 8)
                            .second;
    }
  });
  std::size_t probe_flows = 0;
  for (std::size_t i = 0; i < kLayerRepeats; ++i) {
    fingerprint::AmbiguityProbeOptions popts;
    popts.workers = opts.workers;
    popts.seed = opts.seed;
    ScopedSpan span(rec, "fingerprint.probe", ++request);
    probe_flows = fingerprint::probe_environment("ndpi", popts).probe_flows;
  }

  if (!rec.write(opts.spans_path)) {
    std::fprintf(stderr, "cannot write spans to %s\n",
                 opts.spans_path.c_str());
    return -1;
  }
  out.key("counters").begin_object();
  out.key("parse_calls_in_waves").value(parse_calls_in_waves);
  out.key("shim_packets_in").value(shim_in);
  out.key("shim_packets_out").value(shim_out);
  out.key("readapt_rounds").value(static_cast<std::int64_t>(readapt_rounds));
  out.key("probe_flows").value(static_cast<std::uint64_t>(probe_flows));
  out.key("captured_datagrams").value(static_cast<std::uint64_t>(captured.size()));
  out.key("captured_fragments").value(static_cast<std::uint64_t>(fragments.size()));
  out.key("spans").value(static_cast<std::uint64_t>(rec.spans().size()));
  out.end_object();
  out.key("untraced_wave_ms")
      .value(untraced_ns / static_cast<double>(kTracedWaves) * 1e-6);
  out.key("checks").begin_array();
  bool all_ok = true;
  for (const Check& c : checks) {
    all_ok = all_ok && c.ok;
    out.begin_object();
    out.key("name").value(c.name);
    out.key("ok").value(c.ok);
    out.key("detail").value(c.detail);
    out.end_object();
  }
  out.end_array();
  return all_ok ? 0 : 1;
}

}  // namespace perfbench
