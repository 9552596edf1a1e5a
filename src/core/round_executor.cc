#include "core/round_executor.h"

#include "core/evasion/registry.h"

namespace liberate::core {

ReplayOptions replay_options(const RoundRequest& req, Technique* technique) {
  ReplayOptions opts;
  opts.technique = technique;
  opts.context = req.context;
  opts.server_port_override = req.server_port_override;
  opts.server_ip_override = req.server_ip_override;
  opts.match_packet_ttl = req.match_packet_ttl;
  opts.pause_before_match_s = req.pause_before_match_s;
  opts.pause_after_match_s = req.pause_after_match_s;
  opts.timeout = static_cast<netsim::Duration>(req.timeout_s * 1e6);
  return opts;
}

Technique* find_technique(const TechniqueSuite& suite,
                          const std::string& name) {
  for (const auto& t : suite) {
    if (t->name() == name) return t.get();
  }
  return nullptr;
}

const TechniqueSuite& SharedWorld::techniques() {
  if (techniques_ == nullptr) {
    own_suite_ = build_full_suite();
    techniques_ = &own_suite_;
  }
  return *techniques_;
}

RoundResult SharedWorld::replay(const RoundRequest& req,
                                Technique* technique) {
  const netsim::TimePoint start = runner_.env().loop.now();
  RoundResult result;
  result.outcome = runner_.run(req.trace, replay_options(req, technique));
  result.virtual_seconds =
      netsim::to_seconds(runner_.env().loop.now() - start);
  result.bytes_offered = req.trace.total_bytes();
  return result;
}

RoundResult SharedWorld::run_round(const RoundRequest& req,
                                   Technique* technique) {
  RoundResult result = replay(req, technique);
  result.differentiated = runner_.differentiated(result.outcome);
  return result;
}

std::vector<RoundResult> SharedWorld::run_batch(
    const std::vector<RoundRequest>& reqs) {
  std::vector<RoundResult> results;
  results.reserve(reqs.size());
  for (const RoundRequest& req : reqs) {
    Technique* technique = req.technique.empty()
                               ? nullptr
                               : find_technique(techniques(), req.technique);
    results.push_back(replay(req, technique));
  }
  for (RoundResult& r : results) {
    r.differentiated = runner_.differentiated(r.outcome);
  }
  return results;
}

}  // namespace liberate::core
