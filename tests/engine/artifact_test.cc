// Tests of engine::ArtifactWriter, the one path a run's results leave
// the process by. Figure stdout is proven byte-exact for every driver by
// the golden harness (ctest -L golden); here we pin the structured JSON
// sidecar, the bench-JSON file, escaping and the Flush/Finish file
// protocol.
#include "engine/artifact.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

namespace costsense::engine {
namespace {

exp::FigureSeries SampleSeries() {
  exp::FigureSeries s;
  s.query_name = "Q19";
  s.num_candidate_plans = 4;
  s.constant_bound = 3.5;
  s.has_complementary_plans = true;
  s.points = {{2, 1.0, "p0"}, {1000, 2.5, "p\"quoted\""}};
  return s;
}

/// A config whose sidecar path is never opened: the tests below only
/// inspect buffered() and never Flush.
EngineConfig BufferOnly() {
  EngineConfig config;
  config.artifact_json_path = "/nonexistent/never-touched.jsonl";
  return config;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(EscapeJsonTest, EscapesQuotesBackslashesAndControlCharacters) {
  EXPECT_EQ(EscapeJson("plain"), "plain");
  EXPECT_EQ(EscapeJson("a\"b"), "a\\\"b");
  EXPECT_EQ(EscapeJson("a\\b"), "a\\\\b");
  EXPECT_EQ(EscapeJson("a\nb\tc\r"), "a\\nb\\tc\\r");
  EXPECT_EQ(EscapeJson(std::string("a\x01""b")), "a\\u0001b");
}

TEST(ArtifactWriterTest, FigureSeriesKeepFullFidelity) {
  ArtifactWriter writer(BufferOnly());
  writer.WriteFigure("Figure 6", {SampleSeries()});
  const std::string& line = writer.buffered();
  EXPECT_NE(line.find("\"artifact\":\"figure\""), std::string::npos);
  EXPECT_NE(line.find("\"title\":\"Figure 6\""), std::string::npos);
  EXPECT_NE(line.find("\"query\":\"Q19\""), std::string::npos);
  EXPECT_NE(line.find("\"candidate_plans\":4"), std::string::npos);
  EXPECT_NE(line.find("\"constant_bound\":3.5"), std::string::npos);
  EXPECT_NE(line.find("\"complementary\":true"), std::string::npos);
  EXPECT_NE(line.find("\"delta\":1000"), std::string::npos);
  EXPECT_NE(line.find("\"gtc\":2.5"), std::string::npos);
  EXPECT_NE(line.find("\"worst_rival\":\"p\\\"quoted\\\"\""),
            std::string::npos);
  EXPECT_EQ(line.back(), '\n');  // one object per line
}

TEST(ArtifactWriterTest, NonFiniteBoundsStayParseable) {
  exp::FigureSeries s = SampleSeries();
  s.constant_bound = std::numeric_limits<double>::infinity();
  ArtifactWriter writer(BufferOnly());
  writer.WriteFigure("t", {s});
  // JSON has no literal Infinity; the sidecar encodes it as a string.
  EXPECT_NE(writer.buffered().find("\"constant_bound\":\"inf\""),
            std::string::npos);
}

TEST(ArtifactWriterTest, MetricsAreTaggedAndPerfLinesSkipTheSidecar) {
  ArtifactWriter writer(BufferOnly());
  runtime::RuntimeMetrics metrics;
  metrics.threads = 3;
  writer.WriteRunMetrics("fig6", metrics, {{"queries", 6.0}});
  const std::string& buffered = writer.buffered();
  EXPECT_EQ(buffered.rfind("{\"artifact\":\"metrics\",\"bench\":\"fig6\"", 0),
            0u);
  EXPECT_NE(buffered.find("\"queries\":6"), std::string::npos);
  // A bare perf line (fault_sweep, the bench footprint) is not a run
  // artifact: the sidecar buffer does not move.
  const std::string before = buffered;
  writer.AppendPerfLine("{\"bench\":\"footprint\"}\n");
  EXPECT_EQ(writer.buffered(), before);
}

TEST(ArtifactWriterTest, FlushAppendsAndClearsTheBuffer) {
  const std::string path = testing::TempDir() + "artifact_test_sidecar.jsonl";
  std::remove(path.c_str());
  EngineConfig config;
  config.artifact_json_path = path;
  runtime::RuntimeMetrics metrics;

  std::string first_lines;
  {
    ArtifactWriter writer(config);
    writer.WriteFigure("Figure 5", {SampleSeries()});
    writer.WriteRunMetrics("fig5", metrics, {{"queries", 1.0}});
    first_lines = writer.buffered();
    // The checkpoint writes exactly the buffered lines and clears them.
    ASSERT_TRUE(writer.Flush().ok());
    EXPECT_TRUE(writer.buffered().empty());
    EXPECT_EQ(ReadFile(path), first_lines);
    // Idempotent: Finish with nothing buffered writes nothing more.
    ASSERT_TRUE(writer.Finish().ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  ASSERT_FALSE(first_lines.empty());
  EXPECT_EQ(ReadFile(path), first_lines);

  // Append mode: a later run accumulates instead of truncating.
  std::string second_lines;
  {
    ArtifactWriter writer(config);
    writer.WriteRunMetrics("second run", metrics);
    second_lines = writer.buffered();
    ASSERT_TRUE(writer.Finish().ok());
  }
  EXPECT_EQ(ReadFile(path), first_lines + second_lines);

  std::remove(path.c_str());
}

TEST(ArtifactWriterTest, UnwritableSidecarIsATypedError) {
  EngineConfig config;
  config.artifact_json_path = "/nonexistent-dir/sidecar.jsonl";
  ArtifactWriter writer(config);
  writer.WriteRunMetrics("x", runtime::RuntimeMetrics{});
  const Status st = writer.Finish();
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("sidecar"), std::string::npos);
  // The buffer is kept for a retry.
  EXPECT_FALSE(writer.buffered().empty());
}

TEST(ArtifactWriterTest, NoSidecarFileWhenUnconfigured) {
  const std::string path = testing::TempDir() + "artifact_test_config.jsonl";
  std::remove(path.c_str());

  // Default config: nothing is buffered and Finish touches no file.
  ArtifactWriter writer{EngineConfig{}};
  writer.WriteFigure("Figure 5", {SampleSeries()});
  writer.WriteRunMetrics("fig5", runtime::RuntimeMetrics{});
  EXPECT_TRUE(writer.buffered().empty());
  ASSERT_TRUE(writer.Finish().ok());
  std::ifstream in(path);
  EXPECT_FALSE(in.good());
}

// The bytes below were recorded from the writer stack this class replaced
// (a text renderer, a JSON sidecar writer and a separate perf-line
// emitter) for the same inputs; they pin that folding them into one class
// moved no byte of the sidecar or the bench-JSON file.
TEST(ArtifactWriterTest, SidecarAndBenchJsonBytesArePinned) {
  const std::string side = testing::TempDir() + "artifact_test_pin.jsonl";
  const std::string bench = testing::TempDir() + "artifact_test_bench.jsonl";
  std::remove(side.c_str());
  std::remove(bench.c_str());

  exp::FigureSeries q8;
  q8.query_name = "Q8";
  q8.num_candidate_plans = 98;
  q8.constant_bound = std::numeric_limits<double>::infinity();
  q8.has_complementary_plans = false;
  q8.points = {{2, 1.0151234567890123, ""},
               {10, 2.25, "HSJ[e0](SCAN(l),SCAN(p))"}};
  runtime::RuntimeMetrics figure;
  figure.threads = 3;
  figure.tasks_run = 42;
  figure.queue_high_water = 7;
  figure.cache_hits = 10;
  figure.cache_misses = 30;
  figure.cache_entries = 30;
  figure.phase_wall_ms = {{"analyze", 812.25}, {"series", 3.5}};
  runtime::RuntimeMetrics faulted;
  faulted.oracle_attempts = 9;
  faulted.oracle_retries = 2;
  faulted.faults_injected = 2;
  faulted.coverage = 0.875;
  faulted.phase_wall_ms = {{"analyze", 1.25}};

  EngineConfig config;
  config.artifact_json_path = side;
  config.bench_json_path = bench;
  ArtifactWriter writer(config);
  testing::internal::CaptureStdout();
  writer.WriteFigure("Figure 6: pin", {SampleSeries(), q8});
  writer.WriteRunMetrics(
      "fig6_pin", figure,
      {{"queries", 2}, {"oracle_calls", 1234}, {"quick", 1}});
  const Status finished = writer.Finish();
  const std::string out = testing::internal::GetCapturedStdout();
  ASSERT_TRUE(finished.ok()) << finished.ToString();
  writer.AppendPerfLine(faulted.ToJsonLine(
      "fault_sweep_t1", {{"fault_rate", 0.05}, {"retry_budget", 5}}));
  ASSERT_TRUE(writer.Finish().ok());

  EXPECT_EQ(out,
            "Figure 6: pin\n"
            "query   plans compl  bound | d=2        d=1000    \n"
            "Q19         4   yes    3.5 | 1          2.5       \n"
            "Q8         98    no    inf | 1.015123   2.25      \n"
            "\n"
            "CSV:\n"
            "query,delta,worst_case_gtc,worst_rival\n"
            "Q19,2,1,\"p0\"\n"
            "Q19,1000,2.5,\"p\"quoted\"\"\n"
            "Q8,2,1.015123,\"\"\n"
            "Q8,10,2.25,\"HSJ[e0](SCAN(l),SCAN(p))\"\n");
  EXPECT_EQ(ReadFile(side),
        R"j({"artifact":"figure","title":"Figure 6: pin",)j"
        R"j("series":[{"query":"Q19","candidate_plans":4,)j"
        R"j("constant_bound":3.5,"complementary":true,)j"
        R"j("points":[{"delta":2,"gtc":1,"worst_rival":"p0"},)j"
        R"j({"delta":1000,"gtc":2.5,"worst_rival":"p\"quoted\""}]},)j"
        R"j({"query":"Q8","candidate_plans":98,"constant_bound":"inf",)j"
        R"j("complementary":false,"points":[{"delta":2,)j"
        R"j("gtc":1.0151234567890124,"worst_rival":""},{"delta":10,)j"
        R"j("gtc":2.25,"worst_rival":"HSJ[e0](SCAN(l),SCAN(p))"}]}]})j" "\n"
        R"j({"artifact":"metrics","bench":"fig6_pin","threads":3,)j"
        R"j("wall_ms":815.8,"tasks_run":42,"queue_high_water":7,)j"
        R"j("cache_hits":10,"cache_misses":30,"cache_evictions":0,)j"
        R"j("cache_entries":30,"cache_hit_rate":0.2500,)j"
        R"j("degenerate_vertices":0,"oracle_attempts":0,)j"
        R"j("oracle_retries":0,"oracle_failures":0,"faults_injected":0,)j"
        R"j("degraded_points":0,"coverage":1.000000,"analyze_ms":812.2,)j"
        R"j("series_ms":3.5,"queries":2,"oracle_calls":1234,"quick":1})j" "\n");
  EXPECT_EQ(ReadFile(bench),
        R"j({"bench":"fig6_pin","threads":3,"wall_ms":815.8,)j"
        R"j("tasks_run":42,"queue_high_water":7,"cache_hits":10,)j"
        R"j("cache_misses":30,"cache_evictions":0,"cache_entries":30,)j"
        R"j("cache_hit_rate":0.2500,"degenerate_vertices":0,)j"
        R"j("oracle_attempts":0,"oracle_retries":0,"oracle_failures":0,)j"
        R"j("faults_injected":0,"degraded_points":0,"coverage":1.000000,)j"
        R"j("analyze_ms":812.2,"series_ms":3.5,"queries":2,)j"
        R"j("oracle_calls":1234,"quick":1})j" "\n"
        R"j({"bench":"fault_sweep_t1","threads":1,"wall_ms":1.2,)j"
        R"j("tasks_run":0,"queue_high_water":0,"cache_hits":0,)j"
        R"j("cache_misses":0,"cache_evictions":0,"cache_entries":0,)j"
        R"j("cache_hit_rate":0.0000,"degenerate_vertices":0,)j"
        R"j("oracle_attempts":9,"oracle_retries":2,"oracle_failures":0,)j"
        R"j("faults_injected":2,"degraded_points":0,"coverage":0.875000,)j"
        R"j("analyze_ms":1.2,"fault_rate":0.05,"retry_budget":5})j" "\n");

  std::remove(side.c_str());
  std::remove(bench.c_str());
}

}  // namespace
}  // namespace costsense::engine
