// main.cc — driver entry. Usage (run.py builds and calls this):
//
//   perfbench --workload NAME --seed N --seconds S [--setup-only 1]
//   perfbench_traced --workload NAME --seed N --seconds S --spans FILE
//
// Prints progress lines, then one JSON document of raw measurements as the
// last line of standard output. Exit status 0 when every check passed.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>

#include "cc/perfbench.h"
#include "cc/shared.h"
#include "obs/level.h"

namespace perfbench {
namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload "
               "fleet-packet|analysis-matrix|readapt-swap --seed N "
               "--seconds S [--setup-only 0|1] [--spans FILE]\n");
  return 2;
}

void write_context(liberate::JsonWriter& w, const RunOptions& opts,
                   unsigned nproc) {
  w.key("workload").value(opts.workload);
  w.key("seed").value(static_cast<std::uint64_t>(opts.seed));
  w.key("seconds").value(opts.seconds);
  w.key("obs_level").value(static_cast<std::int64_t>(LIBERATE_OBS_LEVEL));
  w.key("build_type").value(std::string_view(PERFBENCH_BUILD_TYPE));
  w.key("nproc").value(static_cast<std::uint64_t>(nproc));
  w.key("workers").value(static_cast<std::uint64_t>(opts.workers));
  w.key("traced").value(PERFBENCH_TRACED != 0);
}

template <typename T>
void write_samples(liberate::JsonWriter& w, const char* key,
                   const std::vector<T>& v) {
  w.key(key).begin_array();
  for (T x : v) w.value(x);
  w.end_array();
}

}  // namespace
}  // namespace perfbench

#if !PERFBENCH_TRACED
std::uint64_t perfbench::parse_calls() { return 0; }
#endif

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions opts;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::strtod(value, nullptr);
    } else if (flag == "--setup-only") {
      opts.setup_only = std::strcmp(value, "0") != 0;
    } else if (flag == "--spans") {
      opts.spans_path = value;
    } else {
      return usage();
    }
  }
  using Workload = WorkloadResult (*)(const RunOptions&);
  const std::map<std::string, Workload> workloads = {
      {"fleet-packet", run_fleet_packet},
      {"analysis-matrix", run_analysis_matrix},
      {"readapt-swap", run_readapt_swap},
  };
  const auto workload = workloads.find(opts.workload);
  if (workload == workloads.end() || opts.seconds <= 0) return usage();
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  opts.workers = workers_for(opts.workload, nproc, PERFBENCH_TRACED != 0);

  liberate::JsonWriter w;
  w.begin_object();
  write_context(w, opts, nproc);
  if (PERFBENCH_TRACED) {
    if (opts.spans_path.empty()) return usage();
    const int status = run_layers(opts, w);
    if (status < 0) return 1;
    w.end_object();
    std::printf("%s\n", w.str().c_str());
    return status;
  }

  const WorkloadResult r = workload->second(opts);
  bool all_ok = true;
  write_samples(w, "setup_s", r.setup_s);
  write_samples(w, "latency_ms", r.latency_ms);
  write_samples(w, "iter_ops", r.iter_ops);
  write_samples(w, "iter_s", r.iter_s);
  write_samples(w, "gauge_s", r.gauge_s);
  write_samples(w, "iter_gauge", r.iter_gauge);
  write_samples(w, "latency_gauge", r.latency_gauge);
  w.key("cost_count").value(r.cost_count);
  w.key("peak_rss_mb").value(r.peak_rss_mb);
  w.key("peak_rss_excludes_gauge").value(r.peak_rss_excludes_gauge);
  w.key("attempted").value(r.attempted);
  w.key("failed").value(r.failed);
  w.key("checks").begin_array();
  for (const Check& c : r.checks) {
    all_ok = all_ok && c.ok;
    w.begin_object();
    w.key("name").value(c.name);
    w.key("ok").value(c.ok);
    w.key("detail").value(c.detail);
    w.end_object();
  }
  w.end_array();
  w.key("extra").begin_object();
  for (const auto& [name, value] : r.extra) w.key(name).value(value);
  w.end_object();
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  return all_ok ? 0 : 1;
}
