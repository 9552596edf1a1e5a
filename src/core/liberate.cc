#include "core/liberate.h"

#include "obs/obs.h"

namespace liberate::core {

Liberate::Liberate(dpi::Environment& env, std::uint64_t seed)
    : env_(env), runner_(env, seed) {}

SessionReport analyze(RoundExecutor& rounds,
                      const trace::ApplicationTrace& trace) {
  SessionReport report;
  CostMeter total(rounds);

  // Phase spans are stamped with accumulated virtual time: each phase span
  // covers [virtual time burned before it, virtual time burned after it],
  // which is deterministic across pool sizes (unlike wall clock).
  auto virtual_us = [&report]() {
    return static_cast<std::uint64_t>((report.detection.virtual_seconds +
                                       report.characterization.virtual_seconds +
                                       report.evaluation.virtual_seconds) *
                                      1e6);
  };
  (void)virtual_us;

  {
    LIBERATE_OBS_SPAN("core.phase.detect", virtual_us);
    LIBERATE_COST_SCOPE(kDetection);
    report.detection = detect_differentiation(rounds, trace);
  }
  total.add(report.detection.rounds, report.detection.bytes_used,
            report.detection.virtual_seconds);
  if (report.detection.content_based) {
    report.ran_characterization = true;
    CharacterizationOptions copts;
    copts.unique_port_per_round = true;  // harmless when not needed
    {
      LIBERATE_OBS_SPAN("core.phase.characterize", virtual_us);
      LIBERATE_COST_SCOPE(kCharacterization);
      report.characterization = characterize_classifier(rounds, trace, copts);
    }
    total.add(report.characterization.replay_rounds,
              report.characterization.bytes_replayed,
              report.characterization.virtual_seconds);
    {
      LIBERATE_OBS_SPAN("core.phase.evaluate", virtual_us);
      LIBERATE_COST_SCOPE(kEvaluation);
      report.evaluation = evaluate_techniques(rounds, report.characterization,
                                              trace, /*run_pruned=*/false);
    }
    total.add(report.evaluation.replay_rounds,
              report.evaluation.bytes_replayed,
              report.evaluation.virtual_seconds);
    report.selected_technique = report.evaluation.selected;
  }

  report.total_rounds = total.rounds();
  report.total_bytes = total.bytes();
  report.total_virtual_minutes = total.virtual_seconds() / 60.0;
  return report;
}

SessionReport Liberate::analyze(const trace::ApplicationTrace& trace) {
  SharedWorld world(runner_);
  return core::analyze(world, trace);
}

std::unique_ptr<Technique> Liberate::instantiate(
    const std::string& name) const {
  auto suite = build_full_suite();
  for (auto& t : suite) {
    if (t->name() == name) return std::move(t);
  }
  return nullptr;
}

TechniqueContext deployment_context(const SessionReport& report) {
  return evaluation_context(report.characterization);
}

std::unique_ptr<Deployment> Liberate::deploy(const SessionReport& report,
                                             netsim::NetworkPort& inner) const {
  if (!report.selected_technique) return nullptr;
  auto technique = instantiate(*report.selected_technique);
  if (!technique) return nullptr;
  return std::make_unique<Deployment>(inner, std::move(technique),
                                      deployment_context(report));
}

ReadaptResult Liberate::readapt(const SessionReport& previous,
                                const trace::ApplicationTrace& trace) {
  LIBERATE_COST_SCOPE(kReadapt);
  const int rounds0 = runner_.rounds();
  const std::uint64_t bytes0 = runner_.bytes_offered();
  const double t0 = runner_.virtual_seconds_elapsed();

  ReadaptResult result;
  // Stage intervals partition [rounds0, rounds()] so the ladder always sums
  // to the report's total_rounds.
  int stage_start = rounds0;
  auto end_stage = [&](const char* stage) {
    result.ladder.push_back({stage, runner_.rounds() - stage_start});
    stage_start = runner_.rounds();
  };
  auto technique = previous.selected_technique
                       ? instantiate(*previous.selected_technique)
                       : nullptr;
  if (!technique) {
    result.report = analyze(trace);
    end_stage("full-analysis");
  } else {
    // Replay with the previously working technique: if differentiation
    // reappears, the rules changed — redo characterization and evaluation.
    ReplayOptions opts;
    opts.technique = technique.get();
    opts.context = deployment_context(previous);
    ReplayOutcome outcome = runner_.run(trace, opts);
    end_stage("still-working");
    if (!runner_.differentiated(outcome) && outcome.completed) {
      result.still_working = true;  // still evading fine
      result.report = previous;
    } else {
      result.report = analyze(trace);
      end_stage("full-analysis");
    }
  }

  // Cost accounting covers everything readapt spent: the verification round
  // plus (when taken) the full re-analysis.
  result.report.total_rounds = runner_.rounds() - rounds0;
  result.report.total_bytes = runner_.bytes_offered() - bytes0;
  result.report.total_virtual_minutes =
      (runner_.virtual_seconds_elapsed() - t0) / 60.0;
  return result;
}

}  // namespace liberate::core
