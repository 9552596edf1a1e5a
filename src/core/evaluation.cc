#include "core/evaluation.h"

#include <algorithm>

#include "obs/obs.h"

namespace liberate::core {

bool cheaper(const Overhead& a, const Overhead& b) {
  if (a.extra_seconds != b.extra_seconds) {
    return a.extra_seconds < b.extra_seconds;
  }
  if (a.extra_packets != b.extra_packets) {
    return a.extra_packets < b.extra_packets;
  }
  return a.extra_bytes < b.extra_bytes;
}

TechniqueContext evaluation_context(const CharacterizationReport& report) {
  TechniqueContext context;
  context.matching_snippets = report.snippets();
  context.decoy_payload = decoy_request_payload();
  if (report.middlebox_hops) {
    context.middlebox_ttl = static_cast<std::uint8_t>(*report.middlebox_hops);
  }
  return context;
}

namespace {

/// One technique's round. Port handling mirrors characterization: a
/// port-sensitive classifier only reacts on the trace port; otherwise fresh
/// ports avoid escalation.
RoundRequest technique_round(const trace::ApplicationTrace& trace,
                             const Technique& technique,
                             const TechniqueContext& context,
                             const CharacterizationReport& report,
                             std::uint16_t& next_port) {
  RoundRequest req;
  req.trace = trace;
  req.technique = technique.name();
  req.context = context;
  if (!report.port_sensitive) req.server_port_override = next_port++;
  return req;
}

/// A technique's row; `round` is null when the technique was not replayed.
TechniqueOutcome outcome_of(const Technique& technique,
                            const TechniqueContext& context,
                            const RoundResult* round) {
  TechniqueOutcome outcome;
  outcome.technique = technique.name();
  outcome.category = technique.category();
  outcome.overhead = technique.overhead(context);
  if (round == nullptr) return outcome;
  const ReplayOutcome& replay = round->outcome;
  outcome.signal_absent = !round->differentiated;
  outcome.payload_intact = replay.payload_intact;
  outcome.completed = replay.completed;
  outcome.changed_classification = outcome.signal_absent && replay.completed;
  outcome.evaded = outcome.changed_classification && replay.payload_intact;
  outcome.crafted_reached_server = replay.crafted_at_server > 0;
  outcome.crafted_reassembled = replay.crafted_reassembled;
  outcome.triggered_blocking =
      technique.category() == Category::kInertInsertion && replay.blocked;
  return outcome;
}

/// The evaluation phase, written once: one round per technique that runs,
/// one at a time in a shared world and as a single wave over isolated
/// worlds (the biggest fan-out of the pipeline).
EvaluationResult evaluate_suite(RoundExecutor& rounds,
                                const TechniqueSuite& suite,
                                const TechniqueContext& context,
                                const CharacterizationReport& report,
                                std::uint16_t& next_port,
                                const trace::ApplicationTrace& trace,
                                bool run_pruned) {
  EvaluationResult result;
  CostMeter cost(rounds);

  PruningFacts facts;
  facts.inspects_all_packets = report.inspects_all_packets;
  facts.udp_flow = trace.transport == trace::Transport::kUdp;
  std::vector<Technique*> ordered = ordered_suite(suite, facts);

  // Report rows: techniques outside the ordered set are pruned and come
  // first; in full-matrix mode they still run, unless they do not apply to
  // the transport at all. Then the ordered suite.
  struct Row {
    const Technique* technique;
    bool pruned;
    bool runs;
  };
  std::vector<Row> rows;
  for (const auto& owned : suite) {
    const Technique* t = owned.get();
    if (std::find(ordered.begin(), ordered.end(), t) != ordered.end()) {
      continue;
    }
    bool applicable =
        facts.udp_flow ? t->applies_to_udp() : t->applies_to_tcp();
    rows.push_back(Row{t, true, run_pruned && applicable});
  }
  for (const Technique* t : ordered) rows.push_back(Row{t, false, true});

  std::vector<const Technique*> runs;
  for (const Row& row : rows) {
    if (row.runs) runs.push_back(row.technique);
  }
  std::vector<RoundResult> results = sweep(
      rounds, runs.size(), wave_width(rounds, runs.size()),
      [&](std::size_t i) {
        return technique_round(trace, *runs[i], context, report, next_port);
      },
      [](std::size_t, const RoundResult&) { return false; });
  cost.absorb(results);

  std::size_t next_result = 0;
  for (const Row& row : rows) {
    const RoundResult* round = row.runs ? &results[next_result++] : nullptr;
    TechniqueOutcome outcome = outcome_of(*row.technique, context, round);
    outcome.pruned = row.pruned;
    LIBERATE_COUNTER_ADD("core.techniques_evaluated", 1);
    {
      const char* verdict = round == nullptr ? "pruned"
                            : outcome.evaded ? "evaded"
                                             : "failed";
      std::uint64_t ts_us =
          round == nullptr
              ? 0
              : static_cast<std::uint64_t>(round->virtual_seconds * 1e6);
      LIBERATE_OBS_EVENT(
          ts_us, "core", "technique_evaluated",
          liberate::obs::fv("technique", outcome.technique),
          liberate::obs::fv("verdict", verdict),
          liberate::obs::fv("cost_extra_bytes", outcome.overhead.extra_bytes),
          liberate::obs::fv("cost_extra_packets",
                            outcome.overhead.extra_packets));
      (void)verdict;
      (void)ts_us;
    }
    result.outcomes.push_back(outcome);
  }

  // Select the cheapest working technique; outcome order is deterministic,
  // so ties break identically in every backend.
  const TechniqueOutcome* best = nullptr;
  for (const auto& o : result.outcomes) {
    if (!o.evaded || o.pruned) continue;
    if (best == nullptr || cheaper(o.overhead, best->overhead)) best = &o;
  }
  if (best != nullptr) result.selected = best->technique;
  result.replay_rounds = cost.rounds();
  result.bytes_replayed = cost.bytes();
  result.virtual_seconds = cost.virtual_seconds();
  return result;
}

}  // namespace

EvaluationResult evaluate_techniques(RoundExecutor& rounds,
                                     const CharacterizationReport& report,
                                     const trace::ApplicationTrace& trace,
                                     bool run_pruned) {
  std::uint16_t next_port = 27000;
  return evaluate_suite(rounds, build_full_suite(), evaluation_context(report),
                        report, next_port, trace, run_pruned);
}

EvasionEvaluator::EvasionEvaluator(ReplayRunner& runner,
                                   const CharacterizationReport& report)
    : runner_(runner),
      report_(report),
      context_(evaluation_context(report)),
      suite_(build_full_suite()) {}

EvaluationResult EvasionEvaluator::evaluate(
    const trace::ApplicationTrace& trace, bool run_pruned) {
  SharedWorld world(runner_, &suite_);
  return evaluate_suite(world, suite_, context_, report_, next_port_, trace,
                        run_pruned);
}

TechniqueOutcome EvasionEvaluator::evaluate_one(
    Technique& technique, const trace::ApplicationTrace& trace) {
  const RoundResult round = SharedWorld(runner_).run_round(
      technique_round(trace, technique, context_, report_, next_port_),
      &technique);
  return outcome_of(technique, context_, &round);
}

}  // namespace liberate::core
