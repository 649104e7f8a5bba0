// Tests of the typed run configuration. EngineConfig::FromEnv is the one
// sanctioned environment reader (lint rule R5), so everything here drives
// the injectable lookup overload — no setenv, no process-global state.
#include "engine/config.h"

#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace costsense::engine {
namespace {

/// Env lookup backed by a map; absent keys read as unset.
EngineConfig::EnvLookup MapLookup(
    const std::map<std::string, std::string>& env) {
  return [&env](const char* name) -> const char* {
    const auto it = env.find(name);
    return it == env.end() ? nullptr : it->second.c_str();
  };
}

TEST(EngineConfigTest, EmptyEnvironmentYieldsDefaults) {
  const std::map<std::string, std::string> env;
  const Result<EngineConfig> config = EngineConfig::FromEnv(MapLookup(env));
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  EXPECT_EQ(config->threads, 0u);  // 0 = hardware concurrency
  EXPECT_FALSE(config->quick);
  EXPECT_TRUE(config->bench_json_path.empty());
  EXPECT_TRUE(config->artifact_json_path.empty());
  EXPECT_EQ(config->cache.shards, runtime::OracleCacheOptions{}.shards);
  EXPECT_EQ(config->cache.max_entries,
            runtime::OracleCacheOptions{}.max_entries);
}

TEST(EngineConfigTest, ParsesEveryKnobFromEnv) {
  const std::map<std::string, std::string> env = {
      {"COSTSENSE_THREADS", "3"},
      {"COSTSENSE_QUICK", "1"},
      {"COSTSENSE_BENCH_JSON", "/tmp/bench.jsonl"},
      {"COSTSENSE_ARTIFACT_JSON", "/tmp/artifacts.jsonl"},
      {"COSTSENSE_CACHE_ENTRIES", "1024"},
  };
  const Result<EngineConfig> config = EngineConfig::FromEnv(MapLookup(env));
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  EXPECT_EQ(config->threads, 3u);
  EXPECT_TRUE(config->quick);
  EXPECT_EQ(config->bench_json_path, "/tmp/bench.jsonl");
  EXPECT_EQ(config->artifact_json_path, "/tmp/artifacts.jsonl");
  EXPECT_EQ(config->cache.max_entries, 1024u);
}

TEST(EngineConfigTest, FromEnvReadsOnlyTheKnobVariables) {
  // FromEnv asks for exactly one variable per KnobTable row, spelled
  // COSTSENSE_<KEY>, in table order. Any other variable — including the
  // retired sweep-kernel, sidecar-chain, fault-rate, retry-budget and
  // cache-shard ones — is never read, so setting it changes nothing and
  // refuses nothing.
  std::vector<std::string> read;
  const Result<EngineConfig> config =
      EngineConfig::FromEnv([&read](const char* name) -> const char* {
        read.emplace_back(name);
        return nullptr;
      });
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  std::vector<std::string> expected;
  for (const auto& [key, value] : EngineConfig().KnobTable()) {
    std::string name = "COSTSENSE_" + key;
    for (char& c : name) {
      c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    }
    expected.push_back(name);
  }
  EXPECT_EQ(read, expected);
}

TEST(EngineConfigTest, QuickKeepsItsDocumentedEnvSemantics) {
  // Any set, non-empty value other than "0" turns quick mode on; "" and
  // "0" mean off. Never a parse error.
  for (const auto& [value, expected] :
       std::map<std::string, bool>{
           {"", false}, {"0", false}, {"1", true}, {"yes", true}}) {
    const std::map<std::string, std::string> env = {
        {"COSTSENSE_QUICK", value}};
    const Result<EngineConfig> config = EngineConfig::FromEnv(MapLookup(env));
    ASSERT_TRUE(config.ok()) << "COSTSENSE_QUICK=" << value;
    EXPECT_EQ(config->quick, expected) << "COSTSENSE_QUICK=" << value;
  }
}

TEST(EngineConfigTest, MalformedValuesAreTypedErrorsNamingTheVariable) {
  // Parsed through FromEnv only: none of these may ever size a pool.
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"COSTSENSE_THREADS", "banana"},
      {"COSTSENSE_CACHE_ENTRIES", "0"},
      {"COSTSENSE_THREADS", " -5"},
      {"COSTSENSE_THREADS", "99999999999999999999"},
      {"COSTSENSE_THREADS", " 5"},
      {"COSTSENSE_THREADS", "+5"},
      {"COSTSENSE_THREADS", "-0"},
      {"COSTSENSE_THREADS", ""},
  };
  for (const auto& [name, value] : bad) {
    const std::map<std::string, std::string> env = {{name, value}};
    const Result<EngineConfig> config = EngineConfig::FromEnv(MapLookup(env));
    ASSERT_FALSE(config.ok()) << name << "=" << value;
    EXPECT_EQ(config.status().code(), StatusCode::kInvalidArgument);
    // The error must name the offending variable and echo the bad text, so
    // a refused bench run is diagnosable from the one-line message.
    EXPECT_NE(config.status().message().find(name), std::string::npos)
        << config.status().ToString();
    EXPECT_NE(config.status().message().find(value), std::string::npos)
        << config.status().ToString();
  }
  // The override spelling shares the parser; a refused value leaves the
  // config untouched.
  for (const char* value : {" -5", "99999999999999999999", " 5", "+5"}) {
    EngineConfig config;
    const Status st = config.ApplyOverride(std::string("threads=") + value);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << value;
    EXPECT_EQ(config.threads, EngineConfig{}.threads) << value;
  }
}

TEST(EngineConfigTest, OverridesWinOverEnvironment) {
  const std::map<std::string, std::string> env = {
      {"COSTSENSE_THREADS", "2"}, {"COSTSENSE_QUICK", "1"}};
  Result<EngineConfig> config = EngineConfig::FromEnv(MapLookup(env));
  ASSERT_TRUE(config.ok());
  EXPECT_TRUE(config->ApplyOverride("threads=5").ok());
  EXPECT_TRUE(config->ApplyOverride("quick=0").ok());
  EXPECT_EQ(config->threads, 5u);
  EXPECT_FALSE(config->quick);
}

TEST(EngineConfigTest, OverrideErrorsAreTyped) {
  EngineConfig config;
  // "kernel", "artifact_chain", "fault_rate", "max_retries" and
  // "cache_shards" are no longer knobs: a stale override of any of them
  // is an unknown key like any other.
  for (const auto& [assignment, key] :
       std::map<std::string, std::string>{
           {"bogus=1", "bogus"},
           {"kernel=scalar", "kernel"},
           {"artifact_chain=compressed", "artifact_chain"},
           {"fault_rate=0.25", "fault_rate"},
           {"max_retries=3", "max_retries"},
           {"cache_shards=4", "cache_shards"}}) {
    const Status unknown = config.ApplyOverride(assignment);
    EXPECT_EQ(unknown.code(), StatusCode::kInvalidArgument) << assignment;
    EXPECT_NE(unknown.message().find(key), std::string::npos)
        << unknown.ToString();
  }

  const Status no_eq = config.ApplyOverride("threads");
  EXPECT_EQ(no_eq.code(), StatusCode::kInvalidArgument);

  const Status bad_value = config.ApplyOverride("threads=lots");
  EXPECT_EQ(bad_value.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad_value.message().find("threads"), std::string::npos);
}

TEST(EngineConfigTest, IsOverrideRecognizesOnlyKnobKeys) {
  // Every documented knob key is recognized...
  for (const auto& [key, value] : EngineConfig().KnobTable()) {
    EXPECT_TRUE(EngineConfig::IsOverride(key + "=" + value)) << key;
  }
  // ...and everything else passes through to the wrapped tool untouched
  // (google-benchmark flags, bare words, unknown keys).
  EXPECT_FALSE(EngineConfig::IsOverride("--benchmark_filter=BM_Sweep"));
  EXPECT_FALSE(EngineConfig::IsOverride("threads"));
  EXPECT_FALSE(EngineConfig::IsOverride("bogus=1"));
}

void ExpectSameConfig(const EngineConfig& a, const EngineConfig& b) {
  EXPECT_EQ(a.threads, b.threads);
  EXPECT_EQ(a.quick, b.quick);
  EXPECT_EQ(a.bench_json_path, b.bench_json_path);
  EXPECT_EQ(a.artifact_json_path, b.artifact_json_path);
  EXPECT_EQ(a.cache.max_entries, b.cache.max_entries);
}

TEST(EngineConfigTest, KnobTableRoundTripsEveryKnob) {
  // Feeding KnobTable() rows back through ApplyOverride reproduces the
  // config exactly — the property that keeps the table, the env parsers
  // and the override parsers from drifting apart.
  EngineConfig original;
  original.threads = 6;
  original.quick = true;
  original.bench_json_path = "/tmp/b.jsonl";
  original.artifact_json_path = "/tmp/a.jsonl";
  original.cache.max_entries = 512;

  for (const EngineConfig& seed : {original, EngineConfig()}) {
    EngineConfig rebuilt;
    for (const auto& [key, value] : seed.KnobTable()) {
      const Status st = rebuilt.ApplyOverride(key + "=" + value);
      EXPECT_TRUE(st.ok()) << key << "=" << value << ": " << st.ToString();
    }
    ExpectSameConfig(rebuilt, seed);
  }
}

}  // namespace
}  // namespace costsense::engine
