// workloads.cc — the three closed-loop workloads, driven through the
// library's public API. Each loop starts its next wave, pass or session only
// when the previous one has returned.
#include <optional>
#include <string>
#include <vector>

#include "cc/host_gauge.h"
#include "cc/perfbench.h"
#include "cc/shared.h"
#include "cc/spans.h"
#include "core/parallel_analysis.h"
#include "core/round_scheduler.h"
#include "deploy/fleet.h"
#include "obs/snapshot.h"
#include "obs/timeseries.h"
#include "trace/generators.h"

namespace perfbench {

using namespace liberate;
using namespace liberate::deploy;

namespace {

double seconds_between(std::uint64_t a_ns, std::uint64_t b_ns) {
  return static_cast<double>(b_ns - a_ns) * 1e-9;
}

/// Failure details kept per check; the first few say what went wrong.
constexpr std::size_t kMaxDetail = 240;

/// Longest stretch of iterations between two host gauge readings.
constexpr double kGaugeInterval_s = 0.5;

/// Closes the last iteration's gauge bracket and hands the readings and the
/// peak memory outside them to the result.
void finish_gauge(HostGauge& gauge, WorkloadResult& r) {
  gauge.take();
  r.gauge_s = gauge.readings_s();
  r.peak_rss_mb = gauge.workload_peak_rss_mb();
  r.peak_rss_excludes_gauge = gauge.peak_excludes_gauge();
}

/// Each measured iteration starts from empty observability sinks, as the
/// process's set-up did; the sinks are process-global and would otherwise
/// grow run-long.
void reset_obs() {
  obs::reset_all();
  obs::TimeSeriesStore::instance().reset();
}

}  // namespace

// ---------------------------------------------------------------------------
// fleet-packet: sessions of a packet-level fleet, each with a reassembling
// normalizer dropped in mid-run. Session = set-up (engine construction,
// deploy-time analysis, wave 0) + measured waves.

WorkloadResult run_fleet_packet(const RunOptions& opts) {
  WorkloadResult r;
  const std::size_t flows_per_session =
      kFleetFlowsPerWave * kFleetShards * kFleetWaves;
  const std::size_t min_sessions =
      (kFleetMinLatencySamples + kFleetWaves - 2) / (kFleetWaves - 1);
  std::uint64_t incomplete = 0, blocked = 0, evicted = 0, readapts = 0;
  std::uint64_t resident_mismatch = 0, no_readapt = 0;
  std::size_t sessions = 0;
  double table_bytes = 0;
  HostGauge gauge(kGaugeInterval_s);
  while (sessions == 0 ||
         (!opts.setup_only &&
          (sessions < min_sessions || r.measured_s < opts.seconds))) {
    const std::uint64_t session_seed = mix_seed(opts.seed * 1000 + sessions);
    if (sessions > 0) reset_obs();
    const std::uint64_t t0 = now_ns();
    const trace::ApplicationTrace trace = fleet_trace();
    FleetOptions fo = fleet_packet_options(session_seed, opts.workers);
    // A set-up-only process stops after wave 0, where its set-up ends.
    if (opts.setup_only) fo.waves = 1;
    // Wave w runs from the end of wave w - 1's callback to its own. The
    // host gauge runs inside the callback, between two timed waves.
    std::vector<std::uint64_t> wave_end, next_start;
    std::vector<std::size_t> wave_gauge;
    fo.on_wave = [&](const FleetWaveReport&) {
      wave_end.push_back(now_ns());
      if (opts.setup_only) return;  // it has no measured waves to scale
      gauge.maybe();
      wave_gauge.push_back(gauge.latest());
      next_start.push_back(now_ns());
    };
    FleetEngine engine(fo);
    const FleetReport report = engine.run(trace);

    // The process's first session is its set-up; every later session's
    // wave 0 is counted nowhere.
    if (sessions == 0) {
      r.setup_s.push_back(seconds_between(t0, wave_end.front()));
    }
    for (std::size_t w = 1; w < next_start.size(); ++w) {
      const double wave_s = seconds_between(next_start[w - 1], wave_end[w]);
      r.latency(wave_s * 1e3, wave_gauge[w - 1]);
      r.iteration(static_cast<double>(report.waves[w].stats.flows), wave_s,
                  wave_gauge[w - 1]);
    }
    incomplete += report.totals.incomplete;
    blocked += report.totals.blocked;
    evicted += report.flows_evicted;
    readapts += report.readapts;
    if (report.readapts == 0) ++no_readapt;
    if (report.flows_resident != report.totals.flows) ++resident_mismatch;
    r.attempted += report.totals.flows;
    r.failed += report.totals.incomplete + report.totals.blocked;
    for (const FleetWaveReport& w : report.waves) {
      if (w.readapt_path) r.cost_count = w.readapt_rounds;
    }
    table_bytes = shim_table_bytes(report.flows_resident, kFleetShards);
    ++sessions;
  }
  r.checks.push_back({"flows_resident == flows driven", resident_mismatch == 0,
                      std::to_string(resident_mismatch) + " sessions differ"});
  r.checks.push_back({"0 incomplete", incomplete == 0,
                      std::to_string(incomplete) + " incomplete"});
  r.checks.push_back({"0 blocked", blocked == 0,
                      std::to_string(blocked) + " blocked"});
  r.checks.push_back({"0 evicted", evicted == 0,
                      std::to_string(evicted) + " evicted"});
  if (!opts.setup_only) {
    r.checks.push_back({">= 1 readapt per session", no_readapt == 0,
                        std::to_string(no_readapt) + " of " +
                            std::to_string(sessions) + " sessions without"});
  }
  finish_gauge(gauge, r);
  r.extra = {{"sessions", static_cast<double>(sessions)},
             {"flows_per_session", static_cast<double>(flows_per_session)},
             {"shim_tables_mib", table_bytes / (1024.0 * 1024.0)},
             {"readapts", static_cast<double>(readapts)}};
  return r;
}

// ---------------------------------------------------------------------------
// analysis-matrix: cold analyze_parallel passes over the six paper
// environments with their Table 3 traces, probe cache off.

namespace {

struct MatrixResult {
  std::uint64_t executed = 0;
  int logical_rounds = 0;
  std::uint64_t mismatches = 0;
  std::string detail;
};

MatrixResult run_matrix_pass(const std::vector<MatrixEntry>& matrix,
                             std::uint64_t seed, std::size_t workers) {
  MatrixResult m;
  for (const MatrixEntry& e : matrix) {
    core::WorldSpec spec;
    spec.environment = e.environment;
    spec.seed = seed;
    core::RoundScheduler scheduler(spec,
                                   {.workers = workers, .cache_capacity = 0});
    const core::SessionReport report =
        core::analyze_parallel(scheduler, e.trace);
    m.executed += scheduler.rounds_executed();
    m.logical_rounds += report.total_rounds;
    const std::string selected = report.selected_technique.value_or("none");
    if (selected != e.pinned_technique ||
        report.total_rounds != e.pinned_rounds) {
      ++m.mismatches;
      m.detail += e.environment + ": " + selected + " " +
                  std::to_string(report.total_rounds) + " rounds; ";
    }
  }
  return m;
}

}  // namespace

WorkloadResult run_analysis_matrix(const RunOptions& opts) {
  WorkloadResult r;
  // Every pass has its own world seed, derived from the run seed, so a run
  // averages over the seeds' different amounts of work; the pinned table
  // holds for any seed.
  std::size_t passes = 0;
  auto pass_seed = [&] { return mix_seed(opts.seed * 1000 + passes++); };
  std::vector<MatrixEntry> matrix;
  std::uint64_t mismatches = 0;
  std::string detail;
  auto account = [&](const MatrixResult& m) {
    r.attempted += kMatrixEnvironments;
    r.failed += m.mismatches;
    mismatches += m.mismatches;
    if (detail.size() < kMaxDetail) detail += m.detail;
    r.cost_count = m.logical_rounds;
  };
  const std::uint64_t t0 = now_ns();
  matrix = matrix_entries();
  account(run_matrix_pass(matrix, pass_seed(), opts.workers));
  r.setup_s.push_back(seconds_between(t0, now_ns()));
  HostGauge gauge(0);  // a reading before every pass
  while (!opts.setup_only && (r.measured_s < opts.seconds ||
                              r.latency_ms.size() < kMatrixMinPasses)) {
    // Every pass is cold: without this, the process-global obs sinks fill
    // pass after pass and each pass costs more CPU than the one before.
    reset_obs();
    gauge.take();
    const std::uint64_t p0 = now_ns();
    const MatrixResult m = run_matrix_pass(matrix, pass_seed(), opts.workers);
    const double pass_s = seconds_between(p0, now_ns());
    r.latency(pass_s * 1e3, gauge.latest());
    r.iteration(static_cast<double>(m.executed), pass_s, gauge.latest());
    account(m);
  }
  finish_gauge(gauge, r);
  r.checks.push_back({"technique and rounds equal the pinned values",
                      mismatches == 0, detail.empty() ? "all match" : detail});
  r.extra = {{"passes", static_cast<double>(r.latency_ms.size())},
             {"analysis_rounds_per_pass", r.cost_count}};
  return r;
}

// ---------------------------------------------------------------------------
// readapt-swap: short full-stack fleet sessions whose classifier is swapped
// to the nDPI profile behind a reassembling normalizer at wave 2. Each
// session loads the fingerprint cache from JSON and writes it back.

namespace {

struct SwapSession {
  bool ok = false;
  std::string detail;
  double redeploy_ms = 0;
  int redeploy_rounds = 0;
  std::size_t probe_flows = 0;
  /// Flows, and differentiated flows, in the waves before the change and in
  /// the waves after the redeploy.
  WaveStats before, after;
};

WaveStats pooled(const FleetReport& report, std::size_t first,
                 std::size_t last) {
  WaveStats sum;
  for (std::size_t w = first; w < last; ++w) {
    sum.flows += report.waves[w].stats.flows;
    sum.differentiated += report.waves[w].stats.differentiated;
  }
  return sum;
}

/// One session, starting from the learned cache file as a fresh deployment
/// would. The cache it writes back must reload and hold, under the live
/// environment's key, the entry the readapt adopted from the nDPI profile.
SwapSession run_swap_session(const std::string& learned_json,
                             std::uint64_t seed, std::size_t workers) {
  SwapSession s;
  std::optional<ClassifierFingerprintCache> cache =
      ClassifierFingerprintCache::from_json(learned_json);
  const trace::ApplicationTrace trace = swap_trace();
  const CachedCharacterization* learned =
      cache ? cache->lookup("ndpi", trace.app_name) : nullptr;
  if (learned == nullptr) {
    s.detail = "cache JSON did not load the nDPI entry";
    return s;
  }
  const Fingerprint ndpi_digest = learned->digest;
  FleetOptions fo = readapt_swap_options(&*cache, seed, workers);
  std::vector<std::uint64_t> wave_end;
  // The live environment's entry as deployed (wave 0): an ambiguity digest
  // of the unswapped classifier.
  std::string deployed_ambiguity;
  fo.on_wave = [&](const FleetWaveReport&) {
    wave_end.push_back(now_ns());
    if (wave_end.size() > 1) return;
    const CachedCharacterization* e =
        cache->lookup(fo.environment, trace.app_name);
    if (e != nullptr && e->ambiguity) {
      deployed_ambiguity = e->ambiguity->fingerprint_hex();
    }
  };
  const FleetReport report = FleetEngine(fo).run(trace);

  std::optional<std::size_t> readapt_wave;
  for (const FleetWaveReport& w : report.waves) {
    if (!w.readapt_path) continue;
    readapt_wave = w.wave;
    s.redeploy_rounds = w.readapt_rounds;
    s.probe_flows = w.readapt_probe_flows;
    if (*w.readapt_path != ReadaptPath::kFingerprintMatched) {
      s.detail = std::string("readapt path ") +
                 readapt_path_name(*w.readapt_path);
      return s;
    }
    break;
  }
  if (!readapt_wave || *readapt_wave + 1 >= report.waves.size()) {
    s.detail = "no redeploy with a wave after it";
    return s;
  }
  s.before = pooled(report, 0, kSwapChangeWave);
  s.after = pooled(report, *readapt_wave + 1, report.waves.size());

  // The readapt adopts the matched nDPI entry under the live environment's
  // key, pinned to the swapped classifier's probed digest. The written-back
  // cache must reload with that entry in place of the deployed one.
  const std::optional<ClassifierFingerprintCache> written =
      ClassifierFingerprintCache::from_json(cache->to_json());
  const CachedCharacterization* adopted =
      written ? written->lookup(fo.environment, trace.app_name) : nullptr;
  const std::string probed = report.fingerprint_digest;
  if (report.fingerprint_profile != "ndpi" || adopted == nullptr ||
      adopted->digest != ndpi_digest || !adopted->ambiguity ||
      adopted->ambiguity->fingerprint_hex() != probed ||
      deployed_ambiguity.empty() || deployed_ambiguity == probed) {
    s.detail = "written-back cache lacks the entry adopted from ndpi "
               "(matched '" + report.fingerprint_profile + "')";
    return s;
  }
  s.redeploy_ms = seconds_between(wave_end[kSwapChangeWave - 1],
                                  wave_end[*readapt_wave]) *
                  1e3;
  s.ok = true;
  return s;
}

}  // namespace

WorkloadResult run_readapt_swap(const RunOptions& opts) {
  WorkloadResult r;
  std::string learned_json;
  std::size_t session = 0;
  std::size_t probe_flows = 0;
  WaveStats before, after;
  std::string detail;
  auto run_session = [&]() {
    const SwapSession s = run_swap_session(
        learned_json, mix_seed(opts.seed * 1000 + session++), opts.workers);
    ++r.attempted;
    if (!s.ok) {
      ++r.failed;
      if (detail.size() < kMaxDetail) detail += s.detail + "; ";
    }
    r.cost_count = s.redeploy_rounds;
    probe_flows = s.probe_flows;
    before.flows += s.before.flows;
    before.differentiated += s.before.differentiated;
    after.flows += s.after.flows;
    after.differentiated += s.after.differentiated;
    return s;
  };
  // Set-up: learn the nDPI profile's fingerprint into a fresh cache, then
  // one swap session that warms the worlds and allocators.
  const std::uint64_t t0 = now_ns();
  learned_json = learn_swap_cache(mix_seed(opts.seed), opts.workers);
  run_session();
  r.setup_s.push_back(seconds_between(t0, now_ns()));
  std::size_t sessions = 0;
  HostGauge gauge(kGaugeInterval_s);
  while (!opts.setup_only &&
         (r.measured_s < opts.seconds || sessions < kSwapMinSessions)) {
    reset_obs();
    gauge.maybe();
    const std::uint64_t s0 = now_ns();
    const SwapSession s = run_session();
    r.iteration(1, seconds_between(s0, now_ns()), gauge.latest());
    if (s.ok) r.latency(s.redeploy_ms, gauge.latest());
    ++sessions;
  }
  finish_gauge(gauge, r);
  r.checks.push_back({"fingerprint-matched redeploy, adopted entry written back",
                      r.failed == 0,
                      detail.empty() ? "all sessions" : detail});
  if (!opts.setup_only) {
    // The redeployed technique must win flows back on the reordering link.
    // The share is pooled over the run's sessions: one session's 64 flows
    // after the redeploy scatter it by about +-0.15.
    const double share = after.differentiated_rate();
    const bool evades = after.flows > 0 && share <= kSwapMaxAfterDiffRatio;
    r.checks.push_back(
        {"differentiated share after the redeploy <= 0.6", evades,
         std::to_string(after.differentiated) + " of " +
             std::to_string(after.flows) + " flows"});
    if (!evades) r.failed = r.attempted;  // the check covers every session
  }
  r.extra = {{"sessions", static_cast<double>(sessions)},
             {"redeploy_rounds", r.cost_count},
             {"probe_flows", static_cast<double>(probe_flows)},
             {"before_change_diff_ratio", before.differentiated_rate()},
             {"after_redeploy_diff_ratio", after.differentiated_rate()}};
  return r;
}

}  // namespace perfbench
