// Golden analysis reports: the six Table 3 environments (plus Sprint), each
// analysed in one shared world (Liberate::analyze) and in isolated worlds
// (analyze_parallel, serial and on a 4-worker pool). Every report is pinned
// as a digest of its analysis_report_json, so any change to a round count,
// byte count, virtual time, matching field or technique verdict shows here.
// The isolated-world reports must not depend on the worker count.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "core/liberate.h"
#include "core/parallel_analysis.h"
#include "core/report_io.h"
#include "trace/generators.h"
#include "util/digest.h"

namespace liberate::core {
namespace {

struct GoldenCase {
  const char* environment;
  trace::ApplicationTrace trace;
  const char* shared_world;      // Liberate::analyze
  const char* isolated_worlds;   // analyze_parallel, any worker count
};

std::string report_digest(const SessionReport& report) {
  Digest d;
  d.update(analysis_report_json(report));
  const Fingerprint f = d.finish();
  char buf[40];
  std::snprintf(buf, sizeof buf, "%016" PRIx64 ":%016" PRIx64, f.lo, f.hi);
  return buf;
}

TEST(AnalysisGolden, ReportsPinned) {
  const std::vector<GoldenCase> cases = {
      {"testbed", trace::amazon_video_trace(48 * 1024),
       "9a06be2f19b036f2:48dbd6493754de49",
       "e71ee483bf6627f8:4a9e7af9541fd04e"},
      {"tmus", trace::amazon_video_trace(220 * 1024),
       "50ce67498fbcf7df:0f35ce1ead647e4f",
       "aaf1f6341f2af701:22fd7a5a94993685"},
      {"gfc", trace::economist_trace(),
       "297f900aae843953:74c36afe64ce30aa",
       "19b4215e5e688fd0:e94d06034d1f72c3"},
      {"iran", trace::facebook_trace(),
       "fd5174cc462eff76:ff16103007133d1f",
       "dd05baad6c9fd77a:0e8f1cdd44375e37"},
      {"att", trace::nbcsports_trace(768 * 1024),
       "72595e9df654de59:ee3a587dcad74968",
       "364651e08fa623bf:7f058fb076bfec83"},
      {"sprint", trace::amazon_video_trace(48 * 1024),
       "da10b35b3107d0eb:fb24aaabb0ba0644",
       "da10b35b3107d0eb:fb24aaabb0ba0644"},
  };
  for (const GoldenCase& c : cases) {
    auto env = dpi::make_environment(c.environment);
    Liberate lib(*env);
    EXPECT_EQ(report_digest(lib.analyze(c.trace)), c.shared_world)
        << c.environment << " shared world";

    WorldSpec spec;
    spec.environment = c.environment;
    for (std::size_t workers : {0, 4}) {
      RoundScheduler scheduler(spec, {.workers = workers});
      EXPECT_EQ(report_digest(analyze_parallel(scheduler, c.trace)),
                c.isolated_worlds)
          << c.environment << " isolated worlds, " << workers << " workers";
    }
  }
}

}  // namespace
}  // namespace liberate::core
