// Unit tests for configuration validation and common utilities.

#include "protocols/config.h"

#include <string>

#include <gtest/gtest.h>

#include "common/status.h"

namespace gtpl::proto {
namespace {

TEST(ConfigTest, DefaultsValidate) {
  SimConfig config;
  EXPECT_TRUE(config.Validate().ok());
}

TEST(ConfigTest, RejectsBadClientCount) {
  SimConfig config;
  config.num_clients = 0;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(ConfigTest, RejectsNegativeLatency) {
  SimConfig config;
  config.latency = -1;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(ConfigTest, RejectsBadItemRange) {
  SimConfig config;
  config.workload.min_items_per_txn = 5;
  config.workload.max_items_per_txn = 3;
  EXPECT_FALSE(config.Validate().ok());
  config.workload.min_items_per_txn = 1;
  config.workload.max_items_per_txn = 100;  // > pool size
  EXPECT_FALSE(config.Validate().ok());
}

TEST(ConfigTest, RejectsBadReadProbability) {
  SimConfig config;
  config.workload.read_prob = 1.5;
  EXPECT_FALSE(config.Validate().ok());
  config.workload.read_prob = -0.1;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(ConfigTest, RejectsInvertedThinkRange) {
  SimConfig config;
  config.workload.min_think = 5;
  config.workload.max_think = 2;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(ConfigTest, RejectsZeroMeasuredTxns) {
  SimConfig config;
  config.measured_txns = 0;
  EXPECT_FALSE(config.Validate().ok());
}

// Validate()'s accepted set over engine x commit path x lease mode x
// servers {1, 4} x sim_threads {1, 2}, pinned against facts written out
// here per engine rather than read from the engine table.
TEST(ConfigTest, ValidateAcceptsExactlyTheSupportedCombinations) {
  struct Expected {
    Protocol protocol;
    bool sharded_commit_paths;  // takes every commit path when sharded
    bool sticky_lease;          // takes lease=sticky
    bool parallel;              // takes sim_threads > 1
  };
  const Expected kEngines[] = {
      {Protocol::kS2pl, true, true, false},
      {Protocol::kG2pl, true, false, false},
      {Protocol::kC2pl, false, false, false},
      {Protocol::kCbl, false, false, false},
      {Protocol::kO2pl, false, false, false},
      {Protocol::kNoWait, true, true, true},
      {Protocol::kWaitDie, true, true, true},
      {Protocol::kWoundWait, true, true, false},
      {Protocol::kOcc, true, false, false},
      {Protocol::kOrdered, true, true, false},
  };
  const CommitPath kPaths[] = {CommitPath::kClassic, CommitPath::kEarly,
                               CommitPath::kFastPath, CommitPath::kCoord};
  const lease::LeaseMode kLeases[] = {lease::LeaseMode::kNone,
                                      lease::LeaseMode::kSticky};
  int accepted = 0;
  for (const Expected& engine : kEngines) {
    for (CommitPath path : kPaths) {
      for (lease::LeaseMode mode : kLeases) {
        for (int32_t servers : {1, 4}) {
          for (int32_t threads : {1, 2}) {
            SimConfig config;
            config.protocol = engine.protocol;
            config.commit_path = path;
            config.lease.mode = mode;
            config.num_servers = servers;
            config.sim_threads = threads;
            config.instant_abort_notice = false;  // as sim_threads > 1 needs
            const bool classic = path == CommitPath::kClassic;
            const bool sticky = mode == lease::LeaseMode::kSticky;
            const bool expect =
                (servers == 1 || classic || engine.sharded_commit_paths) &&
                (!sticky || engine.sticky_lease) &&
                (threads == 1 || (engine.parallel && classic && !sticky));
            const Status status = config.Validate();
            EXPECT_EQ(status.ok(), expect)
                << ToString(engine.protocol) << " path " << ToString(path)
                << " lease " << lease::ToString(mode) << " servers "
                << servers << " threads " << threads << ": "
                << status.ToString();
            accepted += status.ok() ? 1 : 0;
          }
        }
      }
    }
  }
  // Of the 320 combinations: 16 per sticky lock engine, plus 2 under
  // sim_threads 2 for nowait and waitdie; 8 each for g2pl and occ; 5 per
  // classic-only caching engine.
  EXPECT_EQ(accepted, 115);
}

TEST(ConfigTest, ValidateRejectionsNameTheSupportingEngines) {
  SimConfig config;
  config.protocol = Protocol::kG2pl;
  config.lease.mode = lease::LeaseMode::kSticky;
  EXPECT_NE(config.Validate().message().find(
                "(s2pl, nowait, waitdie, woundwait, ordered)"),
            std::string::npos)
      << config.Validate().ToString();

  config = SimConfig();
  config.protocol = Protocol::kS2pl;
  config.sim_threads = 2;
  config.instant_abort_notice = false;
  EXPECT_NE(config.Validate().message().find("(nowait, waitdie)"),
            std::string::npos)
      << config.Validate().ToString();
}

TEST(ConfigTest, ProtocolNames) {
  EXPECT_STREQ(ToString(Protocol::kS2pl), "s-2PL");
  EXPECT_STREQ(ToString(Protocol::kG2pl), "g-2PL");
  EXPECT_STREQ(ToString(Protocol::kC2pl), "c-2PL");
  EXPECT_STREQ(ToString(Protocol::kCbl), "CBL");
  EXPECT_STREQ(ToString(Protocol::kO2pl), "O2PL");
}

TEST(StatusTest, OkAndErrorForms) {
  EXPECT_TRUE(Status::Ok().ok());
  EXPECT_EQ(Status::Ok().ToString(), "OK");
  const Status err = Status::InvalidArgument("bad flag");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(err.ToString(), "INVALID_ARGUMENT: bad flag");
  EXPECT_EQ(Status::NotFound("x").code(), Status::Code::kNotFound);
  EXPECT_EQ(Status::FailedPrecondition("y").code(),
            Status::Code::kFailedPrecondition);
}

}  // namespace
}  // namespace gtpl::proto
