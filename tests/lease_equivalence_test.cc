// Lease-mode equivalence pins (ISSUE 8): --lease=none must be completely
// inert — bit-identical runs, no lease events, dead knobs — and sticky
// leases with an infinite TTL must behave like O2PL-style retained locks
// on conflict-free traffic: each item crosses the wire once, every repeat
// acquisition is a local hit, and no revoke or release ever fires.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lease/lease.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "protocols/engine.h"

namespace gtpl::cc {
namespace {

using proto::EngineInfo;
using proto::Engines;

const char* const kLeaseEngines[] = {"s2pl", "nowait", "waitdie", "woundwait",
                                     "ordered"};

proto::SimConfig BaseConfig(proto::Protocol protocol, uint64_t seed) {
  proto::SimConfig config;
  config.protocol = protocol;
  config.num_clients = 6;
  config.latency = 120;
  config.workload.num_items = 24;
  config.workload.read_prob = 0.5;
  config.workload.repeat_prob = 0.4;
  config.measured_txns = 250;
  config.warmup_txns = 25;
  config.seed = seed;
  config.obs_trace = true;
  config.max_sim_time = 4'000'000'000;
  return config;
}

int64_t CountKind(const std::vector<obs::TraceEvent>& trace,
                  obs::EventKind kind) {
  int64_t count = 0;
  for (const obs::TraceEvent& event : trace) {
    count += event.kind == kind;
  }
  return count;
}

void ExpectSameRun(const proto::RunResult& a, const proto::RunResult& b,
                   const std::string& label) {
  EXPECT_EQ(a.commits, b.commits) << label;
  EXPECT_EQ(a.aborts, b.aborts) << label;
  EXPECT_EQ(a.events, b.events) << label;
  EXPECT_EQ(a.end_time, b.end_time) << label;
  EXPECT_EQ(a.response.mean(), b.response.mean()) << label;
  EXPECT_EQ(obs::ToJsonl(a.obs_trace), obs::ToJsonl(b.obs_trace)) << label;
}

// --lease=none emits no lease machinery at all: zero counters, zero trace
// events, for every lock engine that accepts the lease layer.
TEST(LeaseEquivalenceTest, NoneModeEmitsNothing) {
  for (const char* name : kLeaseEngines) {
    const EngineInfo* info = Engines().Find(name);
    ASSERT_NE(info, nullptr) << name;
    proto::SimConfig config = BaseConfig(info->value, 11);
    config.lease.mode = lease::LeaseMode::kNone;
    const proto::RunResult result = proto::RunSimulation(config);
    EXPECT_GT(result.commits, 0) << name;
    EXPECT_EQ(result.lease_hits, 0) << name;
    EXPECT_EQ(result.lease_revokes, 0) << name;
    EXPECT_EQ(result.lease_releases, 0) << name;
    EXPECT_EQ(CountKind(result.obs_trace, obs::EventKind::kLeaseGrant), 0)
        << name;
    EXPECT_EQ(CountKind(result.obs_trace, obs::EventKind::kLeaseRevoke), 0)
        << name;
    EXPECT_EQ(CountKind(result.obs_trace, obs::EventKind::kLeaseRelease), 0)
        << name;
    // The span accumulator folds a zero sample per commit in every mode;
    // inertness means the mass is exactly zero.
    EXPECT_EQ(result.span_lease_revoke.mean(), 0.0) << name;
  }
}

// Under --lease=none the ttl/max_held knobs are dead: cranking them must
// leave the run event-for-event identical.
TEST(LeaseEquivalenceTest, NoneModeKnobsAreInert) {
  for (const char* name : kLeaseEngines) {
    const EngineInfo* info = Engines().Find(name);
    ASSERT_NE(info, nullptr) << name;
    proto::SimConfig config = BaseConfig(info->value, 23);
    config.lease.mode = lease::LeaseMode::kNone;
    const proto::RunResult plain = proto::RunSimulation(config);
    config.lease.ttl = 5000;
    config.lease.max_held = 3;
    const proto::RunResult knobbed = proto::RunSimulation(config);
    ExpectSameRun(plain, knobbed, name);
  }
}

// The repeat-access workload knob at 0.0 must also be inert — it guards
// the extra Bernoulli draw, so pre-lease seeds replay bit-identically.
TEST(LeaseEquivalenceTest, ZeroRepeatProbIsInert) {
  for (const char* name : {"s2pl", "g2pl", "occ"}) {
    const EngineInfo* info = Engines().Find(name);
    ASSERT_NE(info, nullptr) << name;
    proto::SimConfig config = BaseConfig(info->value, 31);
    config.workload.repeat_prob = 0.0;
    const proto::RunResult a = proto::RunSimulation(config);
    const proto::RunResult b = proto::RunSimulation(config);
    ExpectSameRun(a, b, name);
  }
}

// A single client never conflicts with anyone, so sticky leases with an
// infinite TTL behave exactly like O2PL's retained client locks: each item
// is granted over the wire at most once, every later acquisition is a
// cache hit, and not one revoke or release is ever sent.
TEST(LeaseEquivalenceTest, InfiniteTtlRetainsLeasesForever) {
  const EngineInfo* info = Engines().Find("s2pl");
  ASSERT_NE(info, nullptr);
  proto::SimConfig config = BaseConfig(info->value, 7);
  config.num_clients = 1;
  config.workload.num_items = 12;
  config.workload.repeat_prob = 0.5;
  config.lease.mode = lease::LeaseMode::kSticky;
  config.lease.ttl = 0;       // infinite
  config.lease.max_held = 0;  // unlimited
  const proto::RunResult result = proto::RunSimulation(config);
  EXPECT_GT(result.commits, 0);
  EXPECT_EQ(result.aborts, 0);
  EXPECT_EQ(result.lease_revokes, 0);
  EXPECT_EQ(result.lease_releases, 0);
  const int64_t grants =
      CountKind(result.obs_trace, obs::EventKind::kLeaseGrant);
  // At most one server grant per item (upgrades shared->exclusive may add
  // a second round for an item first read then written).
  EXPECT_LE(grants, 2 * config.workload.num_items);
  const int64_t ops =
      CountKind(result.obs_trace, obs::EventKind::kLockGrant);
  EXPECT_EQ(result.lease_hits, ops - grants);
  EXPECT_GT(result.lease_hits, 0);
}

// A tiny TTL expires every lease before its next use, so the same workload
// degenerates to a server round per acquisition: zero hits.
TEST(LeaseEquivalenceTest, TinyTtlDisablesHits) {
  const EngineInfo* info = Engines().Find("s2pl");
  ASSERT_NE(info, nullptr);
  proto::SimConfig config = BaseConfig(info->value, 7);
  config.num_clients = 1;
  config.workload.num_items = 12;
  config.workload.repeat_prob = 0.5;
  config.lease.mode = lease::LeaseMode::kSticky;
  config.lease.ttl = 1;
  const proto::RunResult result = proto::RunSimulation(config);
  EXPECT_GT(result.commits, 0);
  EXPECT_EQ(result.lease_hits, 0);
}

// max_held bounds the cache: with a one-entry cache the client voluntarily
// releases on nearly every grant even though nobody ever revokes.
TEST(LeaseEquivalenceTest, MaxHeldEvictsVoluntarily) {
  const EngineInfo* info = Engines().Find("s2pl");
  ASSERT_NE(info, nullptr);
  proto::SimConfig config = BaseConfig(info->value, 7);
  config.num_clients = 1;
  config.workload.num_items = 12;
  config.lease.mode = lease::LeaseMode::kSticky;
  config.lease.max_held = 1;
  const proto::RunResult result = proto::RunSimulation(config);
  EXPECT_GT(result.commits, 0);
  EXPECT_EQ(result.lease_revokes, 0);
  EXPECT_GT(result.lease_releases, 0);
}

}  // namespace
}  // namespace gtpl::cc
