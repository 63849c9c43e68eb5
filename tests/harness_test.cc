// Unit tests for the experiment harness: table rendering, CLI parsing, and
// replication aggregation.

#include "harness/experiment.h"

#include <set>

#include <gtest/gtest.h>

#include "harness/cli.h"
#include "harness/table.h"
#include "protocols/commit.h"

namespace gtpl::harness {
namespace {

TEST(TableTest, AlignsColumns) {
  Table table({"a", "long-header"});
  table.AddRow({"wide-cell", "1"});
  const std::string out = table.ToString();
  EXPECT_NE(out.find("a          long-header"), std::string::npos);
  EXPECT_NE(out.find("wide-cell  1"), std::string::npos);
}

TEST(TableTest, CsvEscapesNothingButJoins) {
  Table table({"x", "y"});
  table.AddRow({"1", "2"});
  table.AddRow({"3", "4"});
  EXPECT_EQ(table.ToCsv(), "x,y\n1,2\n3,4\n");
}

TEST(TableDeathTest, RowArityChecked) {
  Table table({"x", "y"});
  EXPECT_DEATH(table.AddRow({"only-one"}), "");
}

TEST(FmtTest, Decimals) {
  EXPECT_EQ(Fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Fmt(10.0, 0), "10");
}

TEST(CliTest, DefaultsWhenNoFlags) {
  CliOptions options;
  char prog[] = "bench";
  char* argv[] = {prog};
  ASSERT_TRUE(ParseCli(1, argv, &options).ok());
  EXPECT_EQ(options.scale.measured_txns, 4000);
  EXPECT_EQ(options.scale.runs, 3);
}

TEST(CliTest, ParsesScaleFlags) {
  CliOptions options;
  char prog[] = "bench";
  char txns[] = "--txns=123";
  char warmup[] = "--warmup=45";
  char runs[] = "--runs=7";
  char seed[] = "--seed=99";
  char csv[] = "--csv=/tmp/out.csv";
  char* argv[] = {prog, txns, warmup, runs, seed, csv};
  ASSERT_TRUE(ParseCli(6, argv, &options).ok());
  EXPECT_EQ(options.scale.measured_txns, 123);
  EXPECT_EQ(options.scale.warmup_txns, 45);
  EXPECT_EQ(options.scale.runs, 7);
  EXPECT_EQ(options.scale.base_seed, 99u);
  EXPECT_EQ(options.csv_path, "/tmp/out.csv");
}

TEST(CliTest, FullAndQuickPresets) {
  CliOptions options;
  char prog[] = "bench";
  char full[] = "--full";
  char* argv[] = {prog, full};
  ASSERT_TRUE(ParseCli(2, argv, &options).ok());
  EXPECT_EQ(options.scale.measured_txns, 50000);
  EXPECT_EQ(options.scale.runs, 5);
  CliOptions quick_options;
  char quick[] = "--quick";
  char* argv2[] = {prog, quick};
  ASSERT_TRUE(ParseCli(2, argv2, &quick_options).ok());
  EXPECT_EQ(quick_options.scale.measured_txns, 800);
}

TEST(CliTest, RejectsUnknownAndMalformed) {
  CliOptions options;
  char prog[] = "bench";
  char bogus[] = "--bogus";
  char* argv[] = {prog, bogus};
  EXPECT_FALSE(ParseCli(2, argv, &options).ok());
  char bad[] = "--txns=abc";
  char* argv2[] = {prog, bad};
  EXPECT_FALSE(ParseCli(2, argv2, &options).ok());
  char neg[] = "--txns=-5";
  char* argv3[] = {prog, neg};
  EXPECT_FALSE(ParseCli(2, argv3, &options).ok());
}

TEST(SeedTest, ReplicaSeedsNeverCollideAcrossNearbyBaseSeeds) {
  // The old scheme used seed + rep + 1, so base seeds 42 and 43 shared all
  // but one replication. The SplitMix64 derivation keeps every
  // (base, rep) combination distinct over realistic sweep ranges.
  std::set<uint64_t> seen;
  for (uint64_t base = 42; base < 142; ++base) {
    for (int32_t rep = 0; rep < 20; ++rep) {
      EXPECT_TRUE(seen.insert(ReplicaSeed(base, rep)).second)
          << "collision at base " << base << " rep " << rep;
    }
  }
}

TEST(SeedTest, PointSeedsDisjointFromReplicaSeeds) {
  std::set<uint64_t> seen;
  for (uint64_t base = 1; base < 51; ++base) {
    for (size_t point = 0; point < 40; ++point) {
      EXPECT_TRUE(seen.insert(PointSeed(base, point)).second);
    }
    for (int32_t rep = 0; rep < 40; ++rep) {
      EXPECT_TRUE(seen.insert(ReplicaSeed(base, rep)).second);
    }
  }
}

TEST(CliTest, ParsesJobsFlag) {
  CliOptions options;
  char prog[] = "bench";
  char jobs[] = "--jobs=8";
  char* argv[] = {prog, jobs};
  ASSERT_TRUE(ParseCli(2, argv, &options).ok());
  EXPECT_EQ(options.jobs, 8);
  char zero[] = "--jobs=0";
  char* argv2[] = {prog, zero};
  EXPECT_FALSE(ParseCli(2, argv2, &options).ok());
}

// Exhaustive CLI error paths: every out-of-range, malformed, or truncated
// flag must be rejected (not clamped, not ignored) so a typo in a sweep
// script can never silently run the wrong experiment.
TEST(CliTest, RejectsOutOfRangeAndMalformedFlags) {
  const std::vector<std::string> bad = {
      "--jobs=-3",   "--jobs=4097", "--jobs=abc", "--jobs=",
      "--runs=0",    "--runs=101",  "--runs=",    "--warmup=-1",
      "--warmup=no", "--seed=-1",   "--seed=1e4", "--txns=0",
      "--txns=",     "--csv",       "-x",         "--",
  };
  for (const std::string& flag : bad) {
    CliOptions options;
    std::vector<char> arg(flag.begin(), flag.end());
    arg.push_back('\0');
    char prog[] = "bench";
    char* argv[] = {prog, arg.data()};
    EXPECT_FALSE(ParseCli(2, argv, &options).ok()) << flag;
  }
}

// The shared strict value parsers: the whole token must parse, so the
// `--flag=abc` inputs the atoi family silently read as 0 are rejected.
TEST(CliTest, StrictValueParsersRejectPartialAndMalformedInput) {
  int32_t i32 = -7;
  int64_t i64 = -7;
  double d = -7.0;

  EXPECT_TRUE(ParseInt32Value("42", &i32));
  EXPECT_EQ(i32, 42);
  EXPECT_TRUE(ParseInt32Value("-3", &i32));
  EXPECT_EQ(i32, -3);
  EXPECT_TRUE(ParseInt64Value("60000000000", &i64));
  EXPECT_EQ(i64, 60'000'000'000);
  EXPECT_TRUE(ParseDoubleValue("0.5", &d));
  EXPECT_DOUBLE_EQ(d, 0.5);
  EXPECT_TRUE(ParseDoubleValue("1e3", &d));
  EXPECT_DOUBLE_EQ(d, 1000.0);

  for (const char* bad : {"", "abc", "12abc", "4.5", " 5", "5 ", "0x10",
                          "++1", "2147483648" /* int32 overflow */}) {
    i32 = -7;
    EXPECT_FALSE(ParseInt32Value(bad, &i32)) << "'" << bad << "'";
    EXPECT_EQ(i32, -7) << "'" << bad << "' must leave output untouched";
  }
  for (const char* bad : {"", "1e3" /* no exponents for ints */, "9.9",
                          "123abc", "99999999999999999999" /* overflow */}) {
    i64 = -7;
    EXPECT_FALSE(ParseInt64Value(bad, &i64)) << "'" << bad << "'";
    EXPECT_EQ(i64, -7) << "'" << bad << "' must leave output untouched";
  }
  for (const char* bad : {"", "abc", "0.5x", " 0.5", "1.2.3"}) {
    d = -7.0;
    EXPECT_FALSE(ParseDoubleValue(bad, &d)) << "'" << bad << "'";
    EXPECT_DOUBLE_EQ(d, -7.0) << "'" << bad << "' must leave output untouched";
  }
}

// A bad flag rejects the whole invocation even when earlier flags parsed,
// and --help surfaces as a non-ok status so callers print usage and exit.
TEST(CliTest, StopsAtFirstBadFlagAndTreatsHelpAsExit) {
  CliOptions options;
  char prog[] = "bench";
  char good[] = "--txns=50";
  char bad[] = "--runs=0";
  char* argv[] = {prog, good, bad};
  EXPECT_FALSE(ParseCli(3, argv, &options).ok());
  CliOptions help_options;
  char help[] = "--help";
  char* argv2[] = {prog, help};
  const Status status = ParseCli(2, argv2, &help_options);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.message(), "help requested");
}

// --commit resolves through the commit-path registry with the same strict
// contract as --cc: every registered name parses to its enum value, and an
// unknown name rejects the invocation with an error listing the registry.
TEST(CliTest, ParsesCommitPathFlag) {
  for (const proto::CommitPathInfo& info : proto::CommitPaths()) {
    CliOptions options;
    std::string flag = std::string("--commit=") + info.name;
    std::vector<char> arg(flag.begin(), flag.end());
    arg.push_back('\0');
    char prog[] = "bench";
    char* argv[] = {prog, arg.data()};
    ASSERT_TRUE(ParseCli(2, argv, &options).ok()) << info.name;
    EXPECT_EQ(options.commit, info.value) << info.name;
  }
}

TEST(CliTest, RejectsUnknownCommitPathListingRegistry) {
  CliOptions options;
  char prog[] = "bench";
  char bad[] = "--commit=bogus";
  char* argv[] = {prog, bad};
  const Status status = ParseCli(2, argv, &options);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("unknown commit path 'bogus'"),
            std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("classic"), std::string::npos);
  EXPECT_FALSE(options.commit.has_value());  // nothing applied on failure
  char empty[] = "--commit=";
  char* argv2[] = {prog, empty};
  EXPECT_FALSE(ParseCli(2, argv2, &options).ok());
}

TEST(ExperimentTest, RunReplicatedAggregatesAcrossSeeds) {
  proto::SimConfig config;
  config.protocol = proto::Protocol::kS2pl;
  config.num_clients = 5;
  config.latency = 10;
  config.workload.num_items = 10;
  config.measured_txns = 200;
  config.warmup_txns = 20;
  config.seed = 100;
  config.max_sim_time = 50'000'000;
  const PointResult point = RunReplicated(config, 3);
  EXPECT_EQ(point.response.runs, 3);
  EXPECT_GT(point.response.mean, 0.0);
  EXPECT_GE(point.response.ci_half_width, 0.0);
  EXPECT_EQ(point.total_commits, 600);
  EXPECT_FALSE(point.any_timed_out);
  // Replications use distinct seeds, so some spread is expected.
  EXPECT_GT(point.response.stddev, 0.0);
}

TEST(ExperimentTest, RunReplicatedIsDeterministic) {
  proto::SimConfig config;
  config.protocol = proto::Protocol::kG2pl;
  config.num_clients = 5;
  config.latency = 10;
  config.workload.num_items = 10;
  config.measured_txns = 100;
  config.warmup_txns = 10;
  config.seed = 55;
  config.max_sim_time = 50'000'000;
  const PointResult a = RunReplicated(config, 2);
  const PointResult b = RunReplicated(config, 2);
  EXPECT_EQ(a.response.mean, b.response.mean);
  EXPECT_EQ(a.abort_pct.mean, b.abort_pct.mean);
}

TEST(ExperimentTest, ApplyScaleOverridesRunLengths) {
  ExperimentScale scale;
  scale.measured_txns = 777;
  scale.warmup_txns = 77;
  scale.base_seed = 7;
  proto::SimConfig config;
  ApplyScale(scale, &config);
  EXPECT_EQ(config.measured_txns, 777);
  EXPECT_EQ(config.warmup_txns, 77);
  EXPECT_EQ(config.seed, 7u);
}

}  // namespace
}  // namespace gtpl::harness
