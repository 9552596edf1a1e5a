#include "core/blinding.h"

#include "core/evasion/technique.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "dpi/rules.h"
#include "trace/generators.h"

namespace liberate::core {
namespace {

// A synthetic oracle: "classified" iff a rule matches the concatenated
// client payload (no network involved) — lets us verify the search logic
// and count rounds precisely.
ClassificationOracle oracle_for(dpi::MatchRule rule) {
  return [rule](const trace::ApplicationTrace& t) {
    for (const auto& m : t.messages) {
      if (m.sender != trace::Sender::kClient) continue;
      if (rule.matches_content(BytesView(m.payload))) return true;
    }
    return false;
  };
}

TEST(Blinding, BlindRangeInvertsExactlyThatRange) {
  auto t = trace::economist_trace();
  auto blinded = blind_range(t, 0, 4, 3);
  const Bytes& orig = t.messages[0].payload;
  const Bytes& mod = blinded.messages[0].payload;
  for (std::size_t i = 0; i < orig.size(); ++i) {
    if (i >= 4 && i < 7) {
      EXPECT_EQ(mod[i], static_cast<std::uint8_t>(~orig[i]));
    } else {
      EXPECT_EQ(mod[i], orig[i]);
    }
  }
}

TEST(Blinding, FindsSingleKeywordField) {
  auto t = trace::amazon_video_trace(16 * 1024);
  dpi::MatchRule rule;
  rule.keywords = {"Host: d25xi40x97liuc.cloudfront.net"};
  BlindingStats stats;
  auto fields = find_matching_fields(t, oracle_for(rule), &stats, 4);

  ASSERT_FALSE(fields.empty());
  // All fields are in the request (message 0) and together they cover the
  // keyword.
  std::string req = to_string(BytesView(t.messages[0].payload));
  std::size_t kw_begin = req.find("Host: d25xi40x97liuc.cloudfront.net");
  std::size_t kw_end =
      kw_begin + std::string("Host: d25xi40x97liuc.cloudfront.net").size();
  std::size_t covered_begin = fields.front().offset;
  std::size_t covered_end = fields.back().offset + fields.back().length;
  EXPECT_EQ(fields.front().message_index, 0u);
  EXPECT_LE(covered_begin, kw_begin);
  EXPECT_GE(covered_end, kw_end);
  // ...without grossly over-reporting (within granularity slack).
  EXPECT_GE(covered_begin + 8, kw_begin);
  EXPECT_LE(covered_end, kw_end + 8);
  EXPECT_GT(stats.replay_rounds, 0);
}

TEST(Blinding, FindsBothKeywordsOfAndRule) {
  auto t = trace::economist_trace();
  dpi::MatchRule rule;
  rule.keywords = {"GET", "economist.com"};
  BlindingStats stats;
  auto fields = find_matching_fields(t, oracle_for(rule), &stats, 4);

  ASSERT_GE(fields.size(), 2u);  // two separate necessary regions
  std::string all;
  for (const auto& f : fields) all += to_string(BytesView(f.content)) + "|";
  EXPECT_NE(all.find("GET"), std::string::npos);
  EXPECT_NE(all.find("economist"), std::string::npos);
}

TEST(Blinding, RoundCountInPaperBallpark) {
  // §6.1: "lib·erate needs at most 70 replay rounds" for HTTP; §6.5: 86 for
  // the GFC trace. Our algorithm should land in the same few-dozen range.
  auto t = trace::economist_trace();
  dpi::MatchRule rule;
  rule.keywords = {"GET", "economist.com"};
  rule.anchored = true;
  BlindingStats stats;
  find_matching_fields(t, oracle_for(rule), &stats, 4);
  EXPECT_GT(stats.replay_rounds, 10);
  EXPECT_LT(stats.replay_rounds, 150);
}

TEST(Blinding, NoFieldsWhenNothingMatches) {
  auto t = trace::plain_web_trace();
  dpi::MatchRule rule;
  rule.keywords = {"economist.com"};
  BlindingStats stats;
  auto fields = find_matching_fields(t, oracle_for(rule), &stats, 4);
  EXPECT_TRUE(fields.empty());
  // The baseline probe alone settles it.
  EXPECT_EQ(stats.replay_rounds, 1);
}

TEST(Blinding, SnippetsUsableForMatchingRanges) {
  auto t = trace::facebook_trace();
  dpi::MatchRule rule;
  rule.keywords = {"facebook.com"};
  BlindingStats stats;
  auto fields = find_matching_fields(t, oracle_for(rule), &stats, 4);
  ASSERT_FALSE(fields.empty());
  // The extracted content, used as a snippet, matches the original payload.
  std::vector<Bytes> snippets;
  for (const auto& f : fields) snippets.push_back(f.content);
  EXPECT_FALSE(
      matching_ranges(BytesView(t.messages[0].payload), snippets).empty());
}

// The traversal pins below use a 32-byte request carrying two keywords
// ("GET" at bytes 0-2, "kw.io" at bytes 23-27) and a response with neither,
// at granularity 4 — small enough to spell out every probe.
trace::ApplicationTrace two_keyword_trace() {
  trace::ApplicationTrace t;
  t.app_name = "two-keyword";
  trace::Message request;
  request.sender = trace::Sender::kClient;
  request.payload = to_bytes("GET /a HTTP/1.1\r\nHost: kw.io\r\n\r\n");
  trace::Message response;
  response.sender = trace::Sender::kServer;
  response.payload = to_bytes("HTTP/1.1 200 OK\r\n\r\n");
  t.messages = {request, response};
  return t;
}

dpi::MatchRule two_keyword_rule() {
  dpi::MatchRule rule;
  rule.keywords = {"GET", "kw.io"};
  return rule;
}

/// The region a probe blinded, as "message:offset+length" ("baseline" for
/// the unmodified trace). blind_range inverts every byte of its region, so
/// the differing bytes are exactly that region.
std::string probed_region(const trace::ApplicationTrace& original,
                          const trace::ApplicationTrace& probe) {
  for (std::size_t m = 0; m < original.messages.size(); ++m) {
    const Bytes& a = original.messages[m].payload;
    const Bytes& b = probe.messages[m].payload;
    std::size_t first = a.size(), last = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i] == b[i]) continue;
      first = std::min(first, i);
      last = i;
    }
    if (first < a.size()) {
      return std::to_string(m) + ":" + std::to_string(first) + "+" +
             std::to_string(last - first + 1);
    }
  }
  return "baseline";
}

std::string describe(const std::vector<MatchingField>& fields) {
  std::string out;
  for (const MatchingField& f : fields) {
    out += std::to_string(f.message_index) + ":" + std::to_string(f.offset) +
           "+" + std::to_string(f.length) + "=" +
           to_string(BytesView(f.content)) + " ";
  }
  return out;
}

TEST(Blinding, SequentialProbeOrderIsDepthFirst) {
  const auto t = two_keyword_trace();
  const ClassificationOracle classify = oracle_for(two_keyword_rule());
  std::vector<std::string> probes;
  ClassificationOracle recording = [&](const trace::ApplicationTrace& p) {
    probes.push_back(probed_region(t, p));
    return classify(p);
  };
  BlindingStats stats;
  auto fields = find_matching_fields(t, recording, &stats, 4);

  // Depth-first, one probe at a time. A necessary message is probed twice
  // in a row (0:0+32): once to prune, once on entering the recursion.
  const std::vector<std::string> expected = {
      "baseline", "0:0+32", "0:0+32", "0:0+16", "0:0+8",  "0:0+4",
      "0:4+4",    "0:8+8",  "0:16+16", "0:16+8", "0:16+4", "0:20+4",
      "0:24+8",   "0:24+4", "0:28+4",  "1:0+19"};
  EXPECT_EQ(probes, expected);
  EXPECT_EQ(stats.replay_rounds, static_cast<int>(expected.size()));
  EXPECT_EQ(describe(fields), "0:0+4=GET  0:20+8=t: kw.io ");
}

TEST(Blinding, BatchedWavesAreBreadthFirst) {
  const auto t = two_keyword_trace();
  const ClassificationOracle classify = oracle_for(two_keyword_rule());
  std::vector<std::vector<std::string>> waves;
  BatchClassificationOracle recording =
      [&](const std::vector<trace::ApplicationTrace>& batch) {
        std::vector<std::string> wave;
        std::vector<bool> verdicts;
        for (const auto& p : batch) {
          wave.push_back(probed_region(t, p));
          verdicts.push_back(classify(p));
        }
        waves.push_back(wave);
        return verdicts;
      };
  BlindingStats stats;
  auto fields = find_matching_fields_batched(t, recording, &stats, 4);

  // One wave per level of the search; no message is probed twice.
  const std::vector<std::vector<std::string>> expected = {
      {"baseline"},
      {"0:0+32", "1:0+19"},
      {"0:0+16", "0:16+16"},
      {"0:0+8", "0:8+8", "0:16+8", "0:24+8"},
      {"0:0+4", "0:4+4", "0:16+4", "0:20+4", "0:24+4", "0:28+4"}};
  EXPECT_EQ(waves, expected);
  EXPECT_EQ(stats.replay_rounds, 15);
  EXPECT_EQ(describe(fields), "0:0+4=GET  0:20+8=t: kw.io ");
}

}  // namespace
}  // namespace liberate::core
