// blinding.h — recursive binary blinding search for matching fields (§4.2).
//
// "Blinding" a byte range means inverting its bits, which deterministically
// removes any pattern a classifier rule could match. A region is *necessary*
// if blinding it stops classification; recursing on necessary regions down
// to a small granularity yields the byte ranges of every matching field.
#pragma once

#include <algorithm>
#include <functional>
#include <vector>

#include "trace/trace.h"

namespace liberate::core {

struct MatchingField {
  std::size_t message_index = 0;  // which trace message
  std::size_t offset = 0;         // byte offset within that message
  std::size_t length = 0;
  Bytes content;                  // the original (unblinded) bytes
};

struct BlindingStats {
  int replay_rounds = 0;
  std::uint64_t bytes_replayed = 0;
};

/// Oracle: replay the (modified) trace, return true if the classifier still
/// classified it. Each call is one replay round.
using ClassificationOracle =
    std::function<bool(const trace::ApplicationTrace&)>;

/// Return a copy of `trace` with [offset, offset+length) of message
/// `message_index` bit-inverted.
trace::ApplicationTrace blind_range(const trace::ApplicationTrace& trace,
                                    std::size_t message_index,
                                    std::size_t offset, std::size_t length);

/// Find all matching fields in the trace. `granularity` is the smallest
/// region the search resolves (trading rounds for precision, §4.2
/// "characterization efficiency"). Adjacent necessary regions are merged
/// into one field.
std::vector<MatchingField> find_matching_fields(
    const trace::ApplicationTrace& trace, const ClassificationOracle& oracle,
    BlindingStats* stats, std::size_t granularity = 4);

/// §4.2: "distribute disjoint subsets of the tests among multiple users in
/// the same network, and aggregate the results." Each user probes a
/// disjoint subset of the trace's messages with their own replay oracle;
/// the merged field list equals the single-user result while each user's
/// round count shrinks roughly by 1/N. (The paper's caveat applies: an
/// adversary who can read the aggregation point learns the detected rules.)
struct DistributedBlindingStats {
  std::vector<BlindingStats> per_user;
  int total_rounds() const {
    int n = 0;
    for (const auto& s : per_user) n += s.replay_rounds;
    return n;
  }
  int max_user_rounds() const {
    int n = 0;
    for (const auto& s : per_user) n = std::max(n, s.replay_rounds);
    return n;
  }
};

std::vector<MatchingField> find_matching_fields_distributed(
    const trace::ApplicationTrace& trace,
    const std::vector<ClassificationOracle>& users,
    DistributedBlindingStats* stats, std::size_t granularity = 4);

/// Batch oracle: classify many modified traces at once (one wave of
/// independent replay rounds); verdicts come back in submission order.
using BatchClassificationOracle =
    std::function<std::vector<bool>(const std::vector<trace::ApplicationTrace>&)>;

/// The blinding search, written once. Every step probes the front of a
/// frontier of candidate regions (each message whole, then the halves of
/// every necessary region) and puts the children of the necessary ones
/// ahead of the rest:
///   * `depth_first`: one probe per oracle call, so the regions are walked
///     depth-first and the search can run in one shared world. A necessary
///     message is probed a second time before it is split (the recursive
///     search probed it once to prune it and again on entering it).
///   * otherwise: the whole frontier per call, one wave per depth level,
///     each message probed once. The wave structure is fixed by the trace
///     alone, so fields and round counts do not depend on worker count or
///     interleaving.
/// Both start with a baseline probe of the unmodified trace: if it is not
/// classified there is nothing to find.
std::vector<MatchingField> search_matching_fields(
    const trace::ApplicationTrace& trace,
    const BatchClassificationOracle& oracle, bool depth_first,
    BlindingStats* stats, std::size_t granularity = 4);

/// Breadth-first entry point (one wave per level) for batch oracles backed
/// by a parallel RoundScheduler.
std::vector<MatchingField> find_matching_fields_batched(
    const trace::ApplicationTrace& trace,
    const BatchClassificationOracle& oracle, BlindingStats* stats,
    std::size_t granularity = 4);

}  // namespace liberate::core
