// The engine table (protocols/config.h) is the single mapping from engine
// names to protocol enum values, and cc::MakeEngine the single factory;
// these tests pin their contract: names are unique and round-trip through
// Find, every Protocol value resolves to exactly one engine, unknown names
// fail strictly (listing the registered engines, the CLI convention), the
// --cc/--smoke flags parse, and every engine the table names runs.

#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cc/registry.h"
#include "harness/cli.h"
#include "protocols/config.h"
#include "protocols/engine.h"

namespace gtpl::cc {
namespace {

using proto::EngineInfo;
using proto::Engines;

TEST(CcRegistryTest, NamesAreUniqueAndRoundTripThroughFindEngine) {
  std::set<std::string> seen;
  for (const EngineInfo& info : Engines()) {
    EXPECT_TRUE(seen.insert(info.name).second)
        << "duplicate engine name " << info.name;
    const EngineInfo* found = Engines().Find(info.name);
    ASSERT_NE(found, nullptr) << info.name;
    EXPECT_EQ(found, &info) << info.name;
    EXPECT_NE(std::string(info.summary), "") << info.name;
  }
  EXPECT_EQ(Engines().Find("bogus"), nullptr);
  EXPECT_EQ(Engines().Find(""), nullptr);
}

TEST(CcRegistryTest, EveryProtocolValueHasExactlyOneEngine) {
  const std::vector<proto::Protocol> all = {
      proto::Protocol::kS2pl,    proto::Protocol::kG2pl,
      proto::Protocol::kC2pl,    proto::Protocol::kCbl,
      proto::Protocol::kO2pl,    proto::Protocol::kNoWait,
      proto::Protocol::kWaitDie, proto::Protocol::kWoundWait,
      proto::Protocol::kOcc,     proto::Protocol::kOrdered};
  EXPECT_EQ(all.size(), Engines().size());
  std::set<proto::Protocol> protocols;
  for (const EngineInfo& info : Engines()) {
    EXPECT_TRUE(protocols.insert(info.value).second)
        << "duplicate protocol mapping for " << info.name;
    EXPECT_EQ(Engines().For(info.value).name, std::string(info.name));
  }
  for (proto::Protocol protocol : all) {
    EXPECT_EQ(protocols.count(protocol), 1u)
        << "no engine registered for " << proto::ToString(protocol);
  }
}

TEST(CcRegistryTest, EngineNamesListsEveryRegisteredName) {
  const std::string names = Engines().Names();
  for (const EngineInfo& info : Engines()) {
    EXPECT_NE(names.find(info.name), std::string::npos) << info.name;
  }
}

TEST(CcRegistryTest, ParseEngineNameResolvesAndFailsStrictly) {
  proto::Protocol protocol = proto::Protocol::kS2pl;
  ASSERT_TRUE(Engines().Parse("waitdie", &protocol).ok());
  EXPECT_EQ(protocol, proto::Protocol::kWaitDie);
  ASSERT_TRUE(Engines().Parse("g2pl", &protocol).ok());
  EXPECT_EQ(protocol, proto::Protocol::kG2pl);

  protocol = proto::Protocol::kS2pl;
  const Status status = Engines().Parse("bogus", &protocol);
  EXPECT_FALSE(status.ok());
  // The error message must name the offender and list the registry, so a
  // typo in a sweep script is self-explaining.
  EXPECT_NE(status.message().find("bogus"), std::string::npos);
  for (const EngineInfo& info : Engines()) {
    EXPECT_NE(status.message().find(info.name), std::string::npos)
        << info.name;
  }
  EXPECT_EQ(protocol, proto::Protocol::kS2pl) << "failed parse must not write";
}

TEST(CcRegistryTest, CliCcFlagSetsEngineAndRejectsUnknownNames) {
  harness::CliOptions options;
  char prog[] = "bench";
  char cc[] = "--cc=occ";
  char* argv[] = {prog, cc};
  ASSERT_TRUE(harness::ParseCli(2, argv, &options).ok());
  EXPECT_EQ(options.cc, proto::Protocol::kOcc);

  harness::CliOptions bad_options;
  char bad[] = "--cc=bogus";
  char* argv2[] = {prog, bad};
  EXPECT_FALSE(harness::ParseCli(2, argv2, &bad_options).ok());
  EXPECT_FALSE(bad_options.cc.has_value());

  harness::CliOptions empty_options;
  char empty[] = "--cc=";
  char* argv3[] = {prog, empty};
  EXPECT_FALSE(harness::ParseCli(2, argv3, &empty_options).ok());
}

TEST(CcRegistryTest, CliSmokePresetUsesCiScale) {
  harness::CliOptions options;
  char prog[] = "bench";
  char smoke[] = "--smoke";
  char* argv[] = {prog, smoke};
  ASSERT_TRUE(harness::ParseCli(2, argv, &options).ok());
  EXPECT_EQ(options.scale.measured_txns, 200);
  EXPECT_EQ(options.scale.warmup_txns, 20);
  EXPECT_EQ(options.scale.runs, 1);
}

// Every engine in the table must build and run the standard lifecycle to
// completion on a small workload — this is what guards a table row whose
// factory case builds the wrong engine or none.
TEST(CcRegistryTest, EveryFactoryProducesARunnableEngine) {
  for (const EngineInfo& info : Engines()) {
    proto::SimConfig config;
    config.protocol = info.value;
    config.num_clients = 6;
    config.latency = 5;
    config.workload.num_items = 12;
    config.measured_txns = 120;
    config.warmup_txns = 12;
    config.seed = 3;
    config.max_sim_time = 2'000'000'000;
    SCOPED_TRACE(info.name);
    const proto::RunResult result = MakeEngine(config)->Run();
    EXPECT_FALSE(result.timed_out);
    EXPECT_GT(result.commits, 0);
  }
}

}  // namespace
}  // namespace gtpl::cc
