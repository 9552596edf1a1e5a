// shared.h — workload shapes shared by the untraced workloads and the traced
// per-layer harness, so both measure the same inputs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/evasion/registry.h"
#include "core/evasion/technique.h"
#include "deploy/fleet.h"
#include "dpi/classifier.h"
#include "dpi/normalizer.h"
#include "dpi/profiles.h"
#include "trace/generators.h"
#include "util/flow_table.h"

namespace perfbench {

/// Repetitions of the traced harness's whole-call layer timings (deploy
/// analysis, readapt, probes).
inline constexpr std::size_t kLayerRepeats = 5;

/// Worker threads of every pool a run creates: min(nproc, 4). The untraced
/// readapt-swap runs its shards and probes on the calling thread (0): its
/// waves take well under a millisecond, so pool hand-offs would make up
/// most of what it measures. The traced harness is the same for every
/// workload name.
inline std::size_t workers_for(const std::string& workload, unsigned nproc,
                               bool traced) {
  if (!traced && workload == "readapt-swap") return 0;
  return nproc < 4 ? nproc : 4;
}

// --- fleet-packet ----------------------------------------------------------
inline constexpr std::size_t kFleetShards = 8;
/// Mean flows per shard per wave.
inline constexpr std::size_t kFleetFlowsPerWave = 200;
/// Wave 0 is set-up; the rest are measured. A session holds
/// 8 * 200 * 41 = 65600 flows resident, ~9 MiB of shim flow tables: more
/// than one core's 8 MiB L2.
inline constexpr std::size_t kFleetWaves = 41;
inline constexpr std::size_t kFleetChangeWave = kFleetWaves / 2;
/// Wave samples per run: p90 needs at least 10 samples beyond it.
inline constexpr std::size_t kFleetMinLatencySamples = 100;

inline liberate::trace::ApplicationTrace fleet_trace() {
  return liberate::trace::amazon_video_trace(4 * 1024);
}

/// The classifier change dropped into fleet-packet: the middlebox starts
/// reassembling fragments, which defeats the deployed fragment technique.
inline void add_reassembling_normalizer(liberate::dpi::Environment& env) {
  liberate::dpi::NormalizerConfig cfg;
  cfg.reassemble_fragments = true;
  env.net.emplace_at<liberate::dpi::NormalizerElement>(0, cfg);
}

inline liberate::deploy::FleetOptions fleet_packet_options(
    std::uint64_t seed, std::size_t workers) {
  liberate::deploy::FleetOptions fo;
  fo.seed = seed;
  fo.shards = kFleetShards;
  fo.flows_per_wave = kFleetFlowsPerWave;
  fo.waves = kFleetWaves;
  fo.workers = workers;
  fo.flow_mode = liberate::deploy::FlowMode::kPacketLevel;
  fo.packet_alt_payload = liberate::core::decoy_request_payload();
  fo.packet_alt_every = 4;
  // Admission hashes flows to shards, so shard totals vary around the mean;
  // the cap leaves room for that and nothing is evicted.
  fo.max_flows_per_shim =
      kFleetFlowsPerWave * kFleetWaves * 5 / 4 + kFleetFlowsPerWave;
  fo.change_at_wave = kFleetChangeWave;
  fo.classifier_change = add_reassembling_normalizer;
  return fo;
}

/// Bytes of shim flow tables holding `flows` across `shards` shims: the
/// open-addressing FlowTable's power-of-two capacity times its slot columns
/// (key, value, state byte, two LRU links).
inline double shim_table_bytes(std::uint64_t flows, std::size_t shards) {
  using Table = liberate::FlowTable<liberate::netsim::FiveTuple,
                                    liberate::core::FlowShimState,
                                    liberate::netsim::FiveTupleHash>;
  Table probe;
  probe.reserve(static_cast<std::size_t>(flows / shards));
  const double slot = sizeof(liberate::netsim::FiveTuple) +
                      sizeof(liberate::core::FlowShimState) + 1 + 4 + 4;
  return static_cast<double>(probe.capacity()) * slot *
         static_cast<double>(shards);
}

// --- analysis-matrix -------------------------------------------------------
inline constexpr std::size_t kMatrixEnvironments = 6;
/// Passes per run: the pass-time median then has 10 samples beyond it.
inline constexpr std::size_t kMatrixMinPasses = 20;

/// One environment of the Table 3 matrix with the values the analysis must
/// reproduce (selected technique, logical rounds).
struct MatrixEntry {
  std::string environment;
  liberate::trace::ApplicationTrace trace;
  std::string pinned_technique;
  int pinned_rounds = 0;
};

/// The Table 3 pairing of bench/bench_table3_matrix.cc, plus Sprint.
inline std::vector<MatrixEntry> matrix_entries() {
  using namespace liberate::trace;
  return {
      {"testbed", amazon_video_trace(48 * 1024),
       "reorder/ip-fragments-out-of-order", 90},
      {"tmus", amazon_video_trace(220 * 1024), "flush/ttl-limited-rst-before",
       100},
      {"gfc", economist_trace(), "flush/ttl-limited-rst-before", 75},
      {"iran", facebook_trace(), "reorder/tcp-segments-out-of-order", 52},
      {"att", nbcsports_trace(768 * 1024), "none", 116},
      {"sprint", amazon_video_trace(48 * 1024), "none", 2},
  };
}

// --- readapt-swap ----------------------------------------------------------
inline constexpr std::size_t kSwapShards = 4;
inline constexpr std::size_t kSwapWaves = 6;
inline constexpr std::size_t kSwapChangeWave = 2;
/// Sessions per run: p90 of the redeploy time needs 10 samples beyond it.
inline constexpr std::size_t kSwapMinSessions = 100;
/// Largest differentiated share of the flows after the redeploy, pooled
/// over a run (the check's name in workloads.cc spells it out). On the reorder_heavy link about half of the flows stay
/// differentiated after the fingerprint-matched redeploy (0.49-0.50 over
/// the seeds tried); without faults none do.
inline constexpr double kSwapMaxAfterDiffRatio = 0.6;

inline liberate::trace::ApplicationTrace swap_trace() {
  return liberate::trace::amazon_video_trace(8 * 1024);
}

/// The live classifier becomes the nDPI-style engine behind a reassembling
/// normalizer (bench/bench_fingerprint.cc's swap).
inline void swap_to_ndpi(liberate::dpi::Environment& env) {
  add_reassembling_normalizer(env);
  env.dpi->engine().set_config(liberate::dpi::ambiguity_profile_config("ndpi"));
}

inline liberate::deploy::FleetOptions readapt_swap_options(
    liberate::deploy::ClassifierFingerprintCache* cache, std::uint64_t seed,
    std::size_t workers) {
  liberate::deploy::FleetOptions fo;
  fo.seed = seed;
  fo.shards = kSwapShards;
  fo.flows_per_wave = 8;
  fo.waves = kSwapWaves;
  fo.workers = workers;
  fo.faults = liberate::netsim::FaultPolicy::reorder_heavy();
  fo.cache = cache;
  fo.ambiguity_probes = true;
  fo.ambiguity_max_distance = 8;
  fo.change_at_wave = kSwapChangeWave;
  fo.classifier_change = swap_to_ndpi;
  return fo;
}

/// Fingerprint the nDPI profile into a fresh cache (one short session on it)
/// and return the cache as JSON.
inline std::string learn_swap_cache(std::uint64_t seed, std::size_t workers) {
  liberate::deploy::ClassifierFingerprintCache cache;
  liberate::deploy::FleetOptions learn =
      readapt_swap_options(&cache, seed, workers);
  learn.environment = "ndpi";
  learn.waves = 1;
  learn.change_at_wave = static_cast<std::size_t>(-1);
  learn.classifier_change = nullptr;
  liberate::deploy::FleetEngine(learn).run(swap_trace());
  return cache.to_json();
}

}  // namespace perfbench
