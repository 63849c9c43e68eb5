// Tests of the benchmark's own machinery. Linked like perfbench_traced, so
// the layer entry points below run through the wrappers.

#include <memory>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "net/latency_model.h"
#include "net/network.h"
#include "protocols/engine.h"
#include "sim/simulator.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

const SiteTotals& At(const Totals& totals, Site site) {
  return totals[static_cast<size_t>(site)];
}

TEST(SpanRecorderTest, SelfTimeIsInclusiveMinusChildren) {
  SpanRecorder recorder;
  recorder.Enter(Site::kRun, 0);
  recorder.Enter(Site::kNetworkSend, 10);
  recorder.Enter(Site::kSimulatorSchedule, 12);
  recorder.Enter(Site::kEventQueuePush, 13);
  recorder.Exit(17);  // Push: 4 inclusive, no children
  recorder.Exit(20);  // Schedule: 8 inclusive, 4 in Push
  recorder.Exit(30);  // Send: 20 inclusive, 8 in Schedule
  recorder.Enter(Site::kNetworkSend, 40);
  recorder.Exit(45);  // a second, childless Send
  recorder.Exit(100);  // Run: 100 inclusive, 25 in the two Sends
  EXPECT_EQ(recorder.depth(), 0u);

  const Totals& totals = recorder.totals();
  EXPECT_EQ(At(totals, Site::kEventQueuePush).inclusive_ns, 4);
  EXPECT_EQ(At(totals, Site::kEventQueuePush).self_ns, 4);
  EXPECT_EQ(At(totals, Site::kSimulatorSchedule).inclusive_ns, 8);
  EXPECT_EQ(At(totals, Site::kSimulatorSchedule).self_ns, 4);
  EXPECT_EQ(At(totals, Site::kNetworkSend).calls, 2u);
  EXPECT_EQ(At(totals, Site::kNetworkSend).inclusive_ns, 25);
  EXPECT_EQ(At(totals, Site::kNetworkSend).self_ns, 17);
  EXPECT_EQ(At(totals, Site::kRun).self_ns, 75);

  // Self times partition the root span exactly.
  int64_t self_sum = 0;
  for (const SiteTotals& t : totals) self_sum += t.self_ns;
  EXPECT_EQ(self_sum, At(totals, Site::kRun).inclusive_ns);

  recorder.Reset();
  EXPECT_EQ(At(recorder.totals(), Site::kRun).calls, 0u);
}

TEST(InterpositionTest, NetworkSendExcludesItsScheduleChild) {
  gtpl::sim::Simulator simulator;
  gtpl::net::Network network(
      &simulator, std::make_unique<gtpl::net::UniformLatency>(50));
  bool delivered = false;
  ResetTotals();
  network.Send(1, 0, "request", [&delivered] { delivered = true; });
  simulator.Run();
  ASSERT_TRUE(delivered);
  EXPECT_EQ(ThreadRecorder().depth(), 0u);

  const Totals totals = CollectTotals();
  const SiteTotals& send = At(totals, Site::kNetworkSend);
  const SiteTotals& schedule = At(totals, Site::kSimulatorSchedule);
  const SiteTotals& push = At(totals, Site::kEventQueuePush);
  EXPECT_EQ(send.calls, 1u);
  EXPECT_EQ(schedule.calls, 1u);
  EXPECT_EQ(push.calls, 1u);
  EXPECT_EQ(At(totals, Site::kEventQueuePop).calls, 1u);
  EXPECT_EQ(send.self_ns, send.inclusive_ns - schedule.inclusive_ns);
  EXPECT_EQ(schedule.self_ns, schedule.inclusive_ns - push.inclusive_ns);
  EXPECT_GE(send.inclusive_ns, schedule.inclusive_ns);
}

// No benchmark workload runs the finite-bandwidth link model, so its
// wrappers are checked here.
TEST(InterpositionTest, LinkModelAdmissionIsInterposed) {
  gtpl::sim::Simulator simulator;
  gtpl::net::LinkConfig link;
  link.bandwidth = 1.0;
  link.nic_queue = true;
  gtpl::net::Network network(
      &simulator, std::make_unique<gtpl::net::UniformLatency>(50), link);
  bool delivered = false;
  ResetTotals();
  network.Send(1, 0, "request", [&delivered] { delivered = true; });
  simulator.Run();
  ASSERT_TRUE(delivered);

  const Totals totals = CollectTotals();
  EXPECT_EQ(At(totals, Site::kLinkAdmitUplink).calls, 1u);
  EXPECT_EQ(At(totals, Site::kLinkAdmitDownlink).calls, 1u);
  EXPECT_GE(At(totals, Site::kSimulatorScheduleAt).calls, 1u);
  EXPECT_EQ(At(totals, Site::kNetworkSend).calls, 1u);
}

TEST(WorkloadTest, SeedReachesSimConfig) {
  for (const Workload& workload : Workloads()) {
    const uint64_t seed = ReplicationSeed(7, 0);
    EXPECT_EQ(MakeConfig(workload, seed, 100).seed, seed) << workload.name;
    EXPECT_NE(ReplicationSeed(7, 1), seed);
    EXPECT_NE(ReplicationSeed(8, 0), seed);
  }
}

TEST(WorkloadTest, SameSeedSameDigestOtherSeedOtherDigest) {
  for (const Workload& workload : Workloads()) {
    const auto digest = [&workload](uint64_t seed) {
      return Digest(
          gtpl::proto::RunSimulation(MakeConfig(workload, seed, 300)));
    };
    const std::string first = digest(ReplicationSeed(1, 0));
    EXPECT_EQ(first, digest(ReplicationSeed(1, 0))) << workload.name;
    EXPECT_NE(first, digest(ReplicationSeed(2, 0))) << workload.name;
  }
}

TEST(WorkloadTest, NamesAreUniqueAndValid) {
  std::set<std::string> names;
  for (const Workload& workload : Workloads()) {
    EXPECT_TRUE(workload.base.Validate().ok()) << workload.name;
    EXPECT_TRUE(names.insert(workload.name).second) << workload.name;
    EXPECT_EQ(FindWorkload(workload.name), &workload);
  }
  EXPECT_EQ(FindWorkload("no_such_workload"), nullptr);
}

}  // namespace
}  // namespace perfbench
