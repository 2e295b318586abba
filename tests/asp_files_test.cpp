// Every ASP the build embeds from asps/*.planp must take the full pipeline,
// and the loader's `val` overrides must touch exactly the line they name.
#include <gtest/gtest.h>

#include <stdexcept>

#include "apps/asp_sources.hpp"
#include "planp/analysis.hpp"
#include "planp/parser.hpp"
#include "planp/typecheck.hpp"

namespace asp::apps {
namespace {

TEST(AspFiles, EveryShippedAspTypechecks) {
  ASSERT_FALSE(asp_names().empty());
  for (std::string_view name : asp_names()) {
    EXPECT_NO_THROW(planp::typecheck(planp::parse(asp_source(name)))) << name;
  }
}

TEST(AspFiles, DefaultInstalledAspsPassEveryAnalysis) {
  // The ASPs the tree installs with the default require-verified options.
  for (std::string_view name : {"cache_proxy", "edge_cache", "scenario_monitor"}) {
    auto report = planp::analyze(planp::typecheck(planp::parse(asp_source(name))));
    EXPECT_TRUE(report.accepted()) << name;
  }
}

TEST(AspFiles, SizesMatchThePapersOrderOfMagnitude) {
  // Paper figure 3: programs of 28..161 lines, "average size about 130 lines
  // of PLAN-P". Ours are comparably small.
  int total = 0, n = 0;
  for (std::string_view name : asp_names()) {
    planp::Program p = planp::parse(asp_source(name));
    EXPECT_GT(p.source_lines, 1) << name;
    EXPECT_LT(p.source_lines, 200) << name;
    total += p.source_lines;
    ++n;
  }
  ASSERT_GT(n, 0);
  EXPECT_LT(total / n, 161);
}

TEST(AspLoader, UnknownAspThrows) {
  EXPECT_THROW(asp_source("no_such_asp"), std::invalid_argument);
}

TEST(AspLoader, OverrideNamingNoValThrows) {
  EXPECT_THROW(asp_source("http_gateway", {{"noSuchVal", "1"}}), std::invalid_argument);
  // A prefix of a declared name, and a let-bound name, are not top-level vals.
  EXPECT_THROW(asp_source("http_gateway", {{"server", "1"}}), std::invalid_argument);
  EXPECT_THROW(asp_source("http_gateway", {{"iph", "1"}}), std::invalid_argument);
}

TEST(AspLoader, NameMatchingTwoLinesThrows) {
  const std::string text = "val a : int = 1\nval b : int = 2\nval a : int = 3\n";
  EXPECT_THROW(override_vals(text, {{"a", "4"}}), std::invalid_argument);
  EXPECT_EQ(override_vals(text, {{"b", "5"}}),
            "val a : int = 1\nval b : int = 5\nval a : int = 3\n");
}

TEST(AspLoader, OverrideChangesExactlyThatLine) {
  std::string want = asp_source("http_gateway");
  const std::string line = "\nval server0 : host = 131.254.60.81\n";
  want.replace(want.find(line), line.size(), "\nval server0 : host = 10.9.8.7\n");
  EXPECT_EQ(asp_source("http_gateway", {{"server0", "10.9.8.7"}}), want);
  // A trailing comment stays where it was.
  want = asp_source("audio_router_hysteresis");
  const std::string hold = "\nval holdFrames : int = 50   --";
  want.replace(want.find(hold), hold.size(), "\nval holdFrames : int = 7   --");
  EXPECT_EQ(asp_source("audio_router_hysteresis", {{"holdFrames", "7"}}), want);
}

}  // namespace
}  // namespace asp::apps
