// perfbench.h — shared declarations of the benchmark driver.
//
// The driver runs one workload (or, in the traced binary, the per-layer
// harness) and prints one JSON document of raw measurements on its last
// line: samples, counts and correctness checks. run.py turns them into the
// reported metrics; no statistics are computed here.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/json.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  /// Worker threads for every pool the workload creates: min(nproc, 4).
  std::size_t workers = 1;
  /// Run the workload's set-up only (its first wave, pass or session) and
  /// skip the measured loop: run.py repeats set-ups in fresh processes.
  bool setup_only = false;
  /// Traced run only: where the spans are written at exit.
  std::string spans_path;
};

/// One correctness check of a workload's outputs. `attempted`/`failed`
/// count the operations the check covers.
struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

/// What a workload hands back to main(): raw samples plus checks.
struct WorkloadResult {
  std::vector<double> setup_s;     // the process's set-up, cold
  std::vector<double> latency_ms;  // the workload's latency, one per sample
  // One entry per measured closed-loop iteration, in run order: the work it
  // did (flows, rounds, sessions) and its wall time.
  std::vector<double> iter_ops;
  std::vector<double> iter_s;
  // Host gauge readings (host_gauge.h), and for every iteration and latency
  // sample the index of the reading taken last before it began; the next
  // reading, when there is one, follows it.
  std::vector<double> gauge_s;
  std::vector<std::size_t> iter_gauge;
  std::vector<std::size_t> latency_gauge;
  double measured_s = 0;           // sum of iter_s
  double cost_count = 0;           // the workload's cost unit, per iteration
  // Peak resident memory outside the host gauge's readings, and whether
  // the kernel let the gauge's own memory be left out of it.
  double peak_rss_mb = 0;
  bool peak_rss_excludes_gauge = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Check> checks;
  /// Named values printed for readers (workload-specific names).
  std::vector<std::pair<std::string, double>> extra;

  void iteration(double ops, double seconds, std::size_t gauge) {
    iter_ops.push_back(ops);
    iter_s.push_back(seconds);
    iter_gauge.push_back(gauge);
    measured_s += seconds;
  }
  void latency(double ms, std::size_t gauge) {
    latency_ms.push_back(ms);
    latency_gauge.push_back(gauge);
  }
};

WorkloadResult run_fleet_packet(const RunOptions& opts);
WorkloadResult run_analysis_matrix(const RunOptions& opts);
WorkloadResult run_readapt_swap(const RunOptions& opts);

/// The traced per-layer harness. Writes spans to opts.spans_path and the
/// per-layer counters, values and checks into `out` (an open JSON object).
/// Returns 0 when every check passed, 1 when one failed, -1 when the
/// harness could not run at all.
int run_layers(const RunOptions& opts, liberate::JsonWriter& out);

/// netsim::parse_packet calls made on the calling thread since it started
/// (traced binary only; 0 otherwise).
std::uint64_t parse_calls();

/// splitmix64: derives independent per-session seeds from the run seed.
inline std::uint64_t mix_seed(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace perfbench
