#include "core/blinding.h"

#include <algorithm>

namespace liberate::core {

trace::ApplicationTrace blind_range(const trace::ApplicationTrace& trace,
                                    std::size_t message_index,
                                    std::size_t offset, std::size_t length) {
  trace::ApplicationTrace out = trace;
  if (message_index >= out.messages.size()) return out;
  Bytes& payload = out.messages[message_index].payload;
  std::size_t end = std::min(payload.size(), offset + length);
  for (std::size_t i = offset; i < end; ++i) {
    payload[i] = static_cast<std::uint8_t>(~payload[i]);
  }
  return out;
}

namespace {

/// Sort, merge adjacent regions and attach original content.
std::vector<MatchingField> merge_fields(const trace::ApplicationTrace& trace,
                                        std::vector<MatchingField> fields) {
  std::sort(fields.begin(), fields.end(),
            [](const MatchingField& a, const MatchingField& b) {
              if (a.message_index != b.message_index) {
                return a.message_index < b.message_index;
              }
              return a.offset < b.offset;
            });
  std::vector<MatchingField> merged;
  for (const MatchingField& f : fields) {
    if (!merged.empty() && merged.back().message_index == f.message_index &&
        merged.back().offset + merged.back().length >= f.offset) {
      merged.back().length =
          std::max(merged.back().offset + merged.back().length,
                   f.offset + f.length) -
          merged.back().offset;
    } else {
      merged.push_back(f);
    }
  }
  for (MatchingField& f : merged) {
    const Bytes& payload = trace.messages[f.message_index].payload;
    f.content.assign(
        payload.begin() + static_cast<std::ptrdiff_t>(f.offset),
        payload.begin() + static_cast<std::ptrdiff_t>(
                              std::min(payload.size(), f.offset + f.length)));
  }
  return merged;
}

/// search_matching_fields over the messages in `messages` only; returns the
/// unmerged necessary regions.
std::vector<MatchingField> search(const trace::ApplicationTrace& trace,
                                  const std::vector<std::size_t>& messages,
                                  const BatchClassificationOracle& oracle,
                                  bool depth_first, BlindingStats* stats,
                                  std::size_t granularity) {
  granularity = std::max<std::size_t>(granularity, 1);
  auto probe = [&](const std::vector<trace::ApplicationTrace>& probes) {
    if (stats != nullptr) {
      stats->replay_rounds += static_cast<int>(probes.size());
      for (const auto& p : probes) stats->bytes_replayed += p.total_bytes();
    }
    return oracle(probes);
  };

  if (!probe({trace})[0]) return {};

  struct Region {
    std::size_t msg, off, len;
    bool whole_message;
  };
  std::vector<Region> frontier;
  for (std::size_t m : messages) {
    std::size_t len = trace.messages[m].payload.size();
    if (len > 0) frontier.push_back(Region{m, 0, len, true});
  }

  std::vector<MatchingField> fields;
  while (!frontier.empty()) {
    const std::size_t width = depth_first ? 1 : frontier.size();
    std::vector<trace::ApplicationTrace> probes;
    probes.reserve(width);
    for (std::size_t i = 0; i < width; ++i) {
      const Region& r = frontier[i];
      probes.push_back(blind_range(trace, r.msg, r.off, r.len));
    }
    const std::vector<bool> classified = probe(probes);

    std::vector<Region> next;
    for (std::size_t i = 0; i < width; ++i) {
      const Region& r = frontier[i];
      if (classified[i]) continue;  // nothing necessary inside
      if (depth_first && r.whole_message) {
        // Probed again before splitting: the recursive search this replaces
        // did so, and the round counts in EXPERIMENTS.md include it.
        next.push_back(Region{r.msg, r.off, r.len, false});
      } else if (r.len <= granularity) {
        fields.push_back(MatchingField{r.msg, r.off, r.len, {}});
      } else {
        const std::size_t half = r.len / 2;
        next.push_back(Region{r.msg, r.off, half, false});
        next.push_back(Region{r.msg, r.off + half, r.len - half, false});
      }
    }
    next.insert(next.end(), frontier.begin() + static_cast<std::ptrdiff_t>(width),
                frontier.end());
    frontier = std::move(next);
  }
  return fields;
}

std::vector<std::size_t> all_messages(const trace::ApplicationTrace& trace) {
  std::vector<std::size_t> messages(trace.messages.size());
  for (std::size_t m = 0; m < messages.size(); ++m) messages[m] = m;
  return messages;
}

/// A single-probe oracle as a batch oracle.
BatchClassificationOracle one_at_a_time(const ClassificationOracle& oracle) {
  return [&oracle](const std::vector<trace::ApplicationTrace>& probes) {
    std::vector<bool> verdicts;
    for (const auto& p : probes) verdicts.push_back(oracle(p));
    return verdicts;
  };
}

}  // namespace

std::vector<MatchingField> search_matching_fields(
    const trace::ApplicationTrace& trace,
    const BatchClassificationOracle& oracle, bool depth_first,
    BlindingStats* stats, std::size_t granularity) {
  return merge_fields(trace, search(trace, all_messages(trace), oracle,
                                    depth_first, stats, granularity));
}

std::vector<MatchingField> find_matching_fields(
    const trace::ApplicationTrace& trace, const ClassificationOracle& oracle,
    BlindingStats* stats, std::size_t granularity) {
  return search_matching_fields(trace, one_at_a_time(oracle),
                                /*depth_first=*/true, stats, granularity);
}

std::vector<MatchingField> find_matching_fields_batched(
    const trace::ApplicationTrace& trace,
    const BatchClassificationOracle& oracle, BlindingStats* stats,
    std::size_t granularity) {
  return search_matching_fields(trace, oracle, /*depth_first=*/false, stats,
                                granularity);
}

std::vector<MatchingField> find_matching_fields_distributed(
    const trace::ApplicationTrace& trace,
    const std::vector<ClassificationOracle>& users,
    DistributedBlindingStats* stats, std::size_t granularity) {
  std::vector<MatchingField> fields;
  if (users.empty()) return fields;
  if (stats != nullptr) stats->per_user.assign(users.size(), BlindingStats{});

  // Each user confirms the baseline once, then probes only their share of
  // the trace's messages (round-robin assignment); a user whose vantage
  // sees no differentiation stops after the baseline.
  for (std::size_t u = 0; u < users.size(); ++u) {
    std::vector<std::size_t> share;
    for (std::size_t m = u; m < trace.messages.size(); m += users.size()) {
      share.push_back(m);
    }
    BlindingStats user_stats;
    std::vector<MatchingField> found =
        search(trace, share, one_at_a_time(users[u]), /*depth_first=*/true,
               &user_stats, granularity);
    fields.insert(fields.end(), found.begin(), found.end());
    if (stats != nullptr) stats->per_user[u] = user_stats;
  }
  return merge_fields(trace, std::move(fields));
}

}  // namespace liberate::core
