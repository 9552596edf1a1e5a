// round_executor.h — where an analysis phase's replay rounds run.
//
// Detection, characterization and evaluation are each written once, as a
// generator of RoundRequest waves handed to a RoundExecutor. SharedWorld
// (below) replays every round on one ReplayRunner's world, in order;
// RoundScheduler (round_scheduler.h) gives every round an isolated world.
// A phase derives its wave width from shares_world(), never from a user
// option — see docs/parallelism.md for the width of each phase.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/replay.h"

namespace liberate::core {

/// One replay round: a (possibly mutated) trace plus the replay knobs of
/// ReplayOptions, with the technique carried by name so the request is a
/// plain value that can cross threads and be fingerprinted.
struct RoundRequest {
  trace::ApplicationTrace trace;
  /// Registry name of the evasion technique to apply ("" = none).
  std::string technique;
  TechniqueContext context;
  std::uint16_t server_port_override = 0;
  std::uint32_t server_ip_override = 0;
  std::optional<std::uint8_t> match_packet_ttl;
  double pause_before_match_s = 0;
  double pause_after_match_s = 0;
  double timeout_s = 60;
};

struct RoundResult {
  ReplayOutcome outcome;
  /// The environment's differentiation oracle, evaluated in the round's
  /// world (the direct signal needs the live classifier state).
  bool differentiated = false;
  /// Virtual seconds this round consumed (excluding warm-up).
  double virtual_seconds = 0;
  std::uint64_t bytes_offered = 0;
  bool from_cache = false;
};

using TechniqueSuite = std::vector<std::unique_ptr<Technique>>;

/// The ReplayOptions a request stands for; `technique` is the instance its
/// technique name resolves to (nullptr for none).
ReplayOptions replay_options(const RoundRequest& req, Technique* technique);

/// The technique named `name` in `suite` (nullptr if absent).
Technique* find_technique(const TechniqueSuite& suite, const std::string& name);

class RoundExecutor {
 public:
  virtual ~RoundExecutor() = default;

  /// Run one wave of rounds; results come back in submission order.
  virtual std::vector<RoundResult> run_batch(
      const std::vector<RoundRequest>& reqs) = 0;
  /// True when every round replays in one shared world, in submission
  /// order; false when each round gets an isolated world.
  virtual bool shares_world() const = 0;
  /// The environment's differentiation signal.
  virtual dpi::Environment::Signal signal() const = 0;
  /// The shared world's virtual clock; 0 for isolated worlds, which share
  /// no clock.
  virtual double clock_seconds() const = 0;
};

/// The shared-world backend: rounds replay on `runner`'s world in
/// submission order.
class SharedWorld final : public RoundExecutor {
 public:
  /// Named techniques replay the instance of that name in `techniques`
  /// (an evaluator's own suite); without one, the world builds the full
  /// suite on first use.
  explicit SharedWorld(ReplayRunner& runner,
                       const TechniqueSuite* techniques = nullptr)
      : runner_(runner), techniques_(techniques) {}
  SharedWorld(const SharedWorld&) = delete;
  SharedWorld& operator=(const SharedWorld&) = delete;

  /// Differentiation is judged once the whole batch has replayed, as the
  /// detector judges its control/original pair.
  std::vector<RoundResult> run_batch(
      const std::vector<RoundRequest>& reqs) override;
  /// One round with `technique` standing in for the request's technique
  /// name, judged right away.
  RoundResult run_round(const RoundRequest& req, Technique* technique);

  bool shares_world() const override { return true; }
  dpi::Environment::Signal signal() const override {
    return runner_.env().signal;
  }
  double clock_seconds() const override {
    return runner_.virtual_seconds_elapsed();
  }

 private:
  RoundResult replay(const RoundRequest& req, Technique* technique);
  const TechniqueSuite& techniques();

  ReplayRunner& runner_;
  const TechniqueSuite* techniques_;
  TechniqueSuite own_suite_;  // built on first use when none was given
};

/// A phase's wave width: one round at a time in a shared world (each round
/// sees the state the previous one left, and a sweep stops at its first
/// hit), `isolated` rounds per wave over isolated worlds.
inline std::size_t wave_width(const RoundExecutor& rounds,
                              std::size_t isolated) {
  return rounds.shares_world() ? 1 : std::max<std::size_t>(isolated, 1);
}

/// Runs rounds 0..count-1, each built by make(i) only when its wave is
/// dispatched, in waves of `width`; stops after the first wave holding a
/// round for which stop(i, result) holds. Returns every result, in index
/// order.
template <typename Make, typename Stop>
std::vector<RoundResult> sweep(RoundExecutor& rounds, std::size_t count,
                               std::size_t width, Make&& make, Stop&& stop) {
  std::vector<RoundResult> done;
  for (std::size_t next = 0; next < count;) {
    const std::size_t end = std::min(count, next + width);
    std::vector<RoundRequest> wave;
    wave.reserve(end - next);
    for (std::size_t i = next; i < end; ++i) wave.push_back(make(i));
    bool hit = false;
    for (RoundResult& r : rounds.run_batch(wave)) {
      hit = hit || stop(done.size(), r);
      done.push_back(std::move(r));
    }
    if (hit) break;
    next = end;
  }
  return done;
}

/// Cost accounting of a phase (§6): logical rounds (cache hits included —
/// a memoized probe still answers one logical round), offered bytes and
/// virtual time. A shared world's clock times the phase directly; isolated
/// worlds each start at zero, so their round times add up.
class CostMeter {
 public:
  explicit CostMeter(const RoundExecutor& rounds)
      : executor_(rounds), start_(rounds.clock_seconds()) {}

  void absorb(const std::vector<RoundResult>& results) {
    for (const RoundResult& r : results) {
      add(1, r.bytes_offered, r.virtual_seconds);
    }
  }
  void add(int rounds, std::uint64_t bytes, double virtual_seconds) {
    rounds_ += rounds;
    bytes_ += bytes;
    summed_seconds_ += virtual_seconds;
  }

  int rounds() const { return rounds_; }
  std::uint64_t bytes() const { return bytes_; }
  double virtual_seconds() const {
    return executor_.shares_world() ? executor_.clock_seconds() - start_
                                    : summed_seconds_;
  }

 private:
  const RoundExecutor& executor_;
  double start_;
  int rounds_ = 0;
  std::uint64_t bytes_ = 0;
  double summed_seconds_ = 0;
};

}  // namespace liberate::core
