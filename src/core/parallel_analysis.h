// parallel_analysis.h — the lib·erate phases over isolated worlds.
//
// There is one implementation of each phase: detection (§4.1),
// characterization (§4.2/§5.1), evaluation (§4.3) and analyze, each a
// generator of RoundRequest waves over a RoundExecutor (round_executor.h).
// Two executors run them: SharedWorld replays every round in one world,
// one at a time (Liberate::analyze, the ReplayRunner overloads), and
// RoundScheduler gives every round its own isolated world and fans a wave
// out over its worker pool. The functions here are the short entry points
// for the second.
//
// A phase derives its wave width from the executor alone. In a shared
// world the width is 1: sweeps stop at their first hit and blinding walks
// depth-first. Over isolated worlds detection is one pair, the prepend
// ceiling one wave, the TTL sweep waves of kTtlWave, blinding one wave per
// depth level and evaluation one wave — a handful of extra (parallel)
// rounds where a shared world would stop early, for a fraction of the
// wall-clock time. The wave structure is fixed by the inputs alone (never
// by worker count, completion order or the wall clock), so a serial
// scheduler, a 2-worker pool and an 8-worker pool produce byte-identical
// reports — tests/core/parallel_replay_test.cc holds this invariant.
#pragma once

#include "core/characterization.h"
#include "core/evaluation.h"
#include "core/liberate.h"
#include "core/round_scheduler.h"

namespace liberate::core {

inline DetectionResult detect_differentiation_parallel(
    RoundScheduler& scheduler, const trace::ApplicationTrace& trace) {
  return detect_differentiation(scheduler, trace);
}

inline CharacterizationReport characterize_classifier_parallel(
    RoundScheduler& scheduler, const trace::ApplicationTrace& trace,
    const CharacterizationOptions& options = {}) {
  return characterize_classifier(scheduler, trace, options);
}

inline EvaluationResult evaluate_parallel(RoundScheduler& scheduler,
                                          const CharacterizationReport& report,
                                          const trace::ApplicationTrace& trace,
                                          bool run_pruned = false) {
  return evaluate_techniques(scheduler, report, trace, run_pruned);
}

inline SessionReport analyze_parallel(RoundScheduler& scheduler,
                                      const trace::ApplicationTrace& trace) {
  return analyze(scheduler, trace);
}

}  // namespace liberate::core
