// Tests of the machine-readable run lines: the footprint line carries
// exactly the fields the bench main measures, never zero-filled counters.
#include "runtime/metrics.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace costsense::runtime {
namespace {

/// The keys of a flat JSON object line, in order.
std::vector<std::string> Keys(const std::string& line) {
  std::vector<std::string> keys;
  size_t pos = 0;
  while ((pos = line.find('"', pos)) != std::string::npos) {
    const size_t end = line.find('"', pos + 1);
    if (end == std::string::npos) break;
    if (end + 1 < line.size() && line[end + 1] == ':') {
      keys.push_back(line.substr(pos + 1, end - pos - 1));
    }
    pos = end + 1;
  }
  return keys;
}

TEST(MetricsTest, FootprintLineCarriesOnlyMeasuredFields) {
  const std::string line = FootprintJsonLine("fig5", 4, 812.34, true, 3);
  EXPECT_EQ(Keys(line), (std::vector<std::string>{"bench", "threads",
                                                   "wall_ms", "main_ms",
                                                   "quick", "exit_code"}));
  EXPECT_EQ(line,
            "{\"bench\":\"fig5\",\"threads\":4,\"wall_ms\":812.3,"
            "\"main_ms\":812.3,\"quick\":1,\"exit_code\":3}\n");
}

}  // namespace
}  // namespace costsense::runtime
