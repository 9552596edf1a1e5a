#include "core/characterization.h"

#include <algorithm>

#include "obs/obs.h"
#include "util/rng.h"

namespace liberate::core {

using trace::ApplicationTrace;
using trace::Message;
using trace::Sender;

namespace {

/// TTL probes per wave over isolated worlds. A constant — never the worker
/// count — so the probe set, and with it every report field and round
/// count, is the same for any pool size.
constexpr std::size_t kTtlWave = 8;

/// Insert `count` random messages of `size` bytes before message
/// `before_index`, sent by the same endpoint as that message (a prepend
/// probe must land in the same direction the classifier counts — rules can
/// key on server content, e.g. AT&T's Content-Type).
ApplicationTrace with_prepended_probe(const ApplicationTrace& trace,
                                      std::size_t before_index,
                                      std::size_t count, std::size_t size,
                                      Rng& rng) {
  ApplicationTrace out = trace;
  Sender sender = before_index < trace.messages.size()
                      ? trace.messages[before_index].sender
                      : Sender::kClient;
  std::vector<Message> junk;
  for (std::size_t i = 0; i < count; ++i) {
    Message m;
    m.sender = sender;
    m.payload = rng.bytes(size);
    junk.push_back(std::move(m));
  }
  out.messages.insert(
      out.messages.begin() + static_cast<std::ptrdiff_t>(
                                 std::min(before_index, out.messages.size())),
      junk.begin(), junk.end());
  return out;
}

/// Index of the first client-sent message (0 when none).
std::size_t first_client_message_index(const ApplicationTrace& trace) {
  for (std::size_t i = 0; i < trace.messages.size(); ++i) {
    if (trace.messages[i].sender == Sender::kClient) return i;
  }
  return 0;
}

RoundRequest plain_round(ApplicationTrace trace) {
  RoundRequest req;
  req.trace = std::move(trace);
  return req;
}

}  // namespace

CharacterizationReport characterize_classifier(
    RoundExecutor& rounds, const ApplicationTrace& trace,
    const CharacterizationOptions& options) {
  CharacterizationReport report;
  Rng rng(0xC11A5);
  CostMeter cost(rounds);

  // --- Port sensitivity first (§6.3, §6.6): it decides how the remaining
  // rounds pick ports. A port-sensitive classifier (Iran) forces every round
  // onto the trace's port; otherwise fresh ports per round sidestep
  // GFC-style endpoint escalation (§6.5).
  {
    ApplicationTrace moved = trace;
    moved.server_port = static_cast<std::uint16_t>(trace.server_port + 1000);
    std::vector<RoundResult> out =
        rounds.run_batch({plain_round(std::move(moved))});
    cost.absorb(out);
    report.port_sensitive = !out[0].differentiated;
  }

  // Ports are assigned in request-construction order, which is fixed by the
  // trace, the options and the executor's width — never by scheduling.
  std::uint16_t next_port = 23000;
  auto probe_round = [&](ApplicationTrace t) {
    RoundRequest req = plain_round(std::move(t));
    if (!options.pin_trace_port && !report.port_sensitive &&
        options.unique_port_per_round) {
      req.server_port_override = next_port++;
    }
    return req;
  };

  // --- Matching fields via blinding (§4.2) --------------------------------
  std::size_t blinding_waves = 0;
  BatchClassificationOracle oracle =
      [&](const std::vector<ApplicationTrace>& probes) {
        // Blinding probes get their own cost phase nested inside
        // characterization — they dominate the paper's ~75-round budget.
        LIBERATE_COST_SCOPE(kBlinding);
        blinding_waves += 1;
        LIBERATE_COUNTER_ADD("core.blinding_waves", 1);
        LIBERATE_COUNTER_ADD("core.blinding_probes", probes.size());
        LIBERATE_GAUGE_SET("core.blinding_depth", blinding_waves);
        std::vector<RoundRequest> wave;
        wave.reserve(probes.size());
        for (const ApplicationTrace& p : probes) wave.push_back(probe_round(p));
        std::vector<RoundResult> results = rounds.run_batch(wave);
        cost.absorb(results);
        std::vector<bool> verdicts;
        verdicts.reserve(results.size());
        for (const RoundResult& r : results) {
          verdicts.push_back(r.differentiated);
        }
        return verdicts;
      };
  report.fields =
      search_matching_fields(trace, oracle, rounds.shares_world(), nullptr,
                             options.blinding_granularity);

  // --- Position / packet-limit probing (§5.1) -----------------------------
  std::size_t match_msg = report.fields.empty()
                              ? first_client_message_index(trace)
                              : report.fields[0].message_index;
  {
    // Round 0 prepends one 1-byte packet: does position matter at all?
    // Round k prepends k MTU-sized packets, until classification changes.
    const std::size_t count = options.max_prepend_packets + 1;
    std::vector<RoundResult> results = sweep(
        rounds, count, wave_width(rounds, count),
        [&](std::size_t k) {
          return probe_round(k == 0 ? with_prepended_probe(trace, match_msg,
                                                           1, 1, rng)
                                    : with_prepended_probe(trace, match_msg,
                                                           k, 1400, rng));
        },
        [](std::size_t k, const RoundResult& r) {
          return k > 0 && !r.differentiated;
        });
    cost.absorb(results);
    report.position_sensitive = !results[0].differentiated;
    std::size_t first_changed = 0;  // prepend count; 0 = none
    for (std::size_t k = 1; k < results.size(); ++k) {
      if (!results[k].differentiated) {
        first_changed = k;
        break;
      }
    }
    report.inspects_all_packets = first_changed == 0;
    if (first_changed != 0) {
      // Confirm with 1-byte packets whether the limit is packet-count based.
      std::vector<RoundResult> confirm = rounds.run_batch({probe_round(
          with_prepended_probe(trace, match_msg, first_changed, 1, rng))});
      cost.absorb(confirm);
      if (!confirm[0].differentiated) report.packet_limit = first_changed;
    }
  }

  // --- Middlebox localization via TTL probing (§5.2) -----------------------
  if (options.probe_ttl) {
    // Probe trace: the matching message alone (blocking / direct signals);
    // for the zero-rating signal, follow it with client bulk so the usage
    // counter can discriminate.
    ApplicationTrace probe;
    probe.app_name = trace.app_name + "-ttlprobe";
    probe.transport = trace.transport;
    probe.server_port = trace.server_port;
    if (match_msg < trace.messages.size()) {
      probe.messages.push_back(trace.messages[match_msg]);
    }
    if (rounds.signal() == dpi::Environment::Signal::kZeroRating) {
      Message bulk;
      bulk.sender = Sender::kClient;
      bulk.payload = rng.bytes(100 * 1024);
      probe.messages.push_back(std::move(bulk));
    }

    TechniqueContext ctx;
    ctx.matching_snippets = report.snippets();
    std::vector<RoundResult> results = sweep(
        rounds, options.max_ttl_probe, wave_width(rounds, kTtlWave),
        [&](std::size_t i) {
          RoundRequest req = probe_round(probe);
          req.context = ctx;
          req.match_packet_ttl = static_cast<std::uint8_t>(i + 1);
          req.timeout_s = 20;
          return req;
        },
        [](std::size_t, const RoundResult& r) { return r.differentiated; });
    cost.absorb(results);
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (results[i].differentiated) {
        report.middlebox_hops = static_cast<int>(i + 1);
        break;
      }
    }
  }

  report.replay_rounds = cost.rounds();
  report.bytes_replayed = cost.bytes();
  report.virtual_seconds = cost.virtual_seconds();
  return report;
}

CharacterizationReport characterize_classifier(
    ReplayRunner& runner, const ApplicationTrace& trace,
    const CharacterizationOptions& options) {
  SharedWorld world(runner);
  return characterize_classifier(world, trace, options);
}

}  // namespace liberate::core
