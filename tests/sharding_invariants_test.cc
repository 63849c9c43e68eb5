// Property tests for the protocol-invariant layer (ISSUE 2): over
// randomized workloads and 1-8 shards, the global precedence graph stays
// acyclic, every pair of transactions appears in the same order in every
// forward list they share, and a writer never releases its update before
// all reader releases of the preceding read group arrived (MR1W
// discipline) — in single-server and sharded runs alike, under every g-2PL
// option variant. Runs are deterministic at any shard count. The checkers
// themselves are also exercised on synthetic violating streams, so a
// regression in the checkers cannot silently hollow out the suite.

#include <gtest/gtest.h>

#include "protocols/engine.h"
#include "protocols/invariants.h"
#include "rng/rng.h"

namespace gtpl::proto {
namespace {

SimConfig RandomConfig(Protocol protocol, uint64_t seed) {
  rng::Rng rng(seed * 7919 + 13);
  SimConfig config;
  config.protocol = protocol;
  config.num_clients = 6 + static_cast<int32_t>(rng.Next64() % 12);
  config.latency = 1 + static_cast<SimTime>(rng.Next64() % 200);
  config.workload.num_items = 10 + static_cast<int32_t>(rng.Next64() % 15);
  config.workload.read_prob = 0.2 * static_cast<double>(rng.Next64() % 5);
  config.measured_txns = 250;
  config.warmup_txns = 25;
  config.seed = seed;
  config.record_history = true;
  config.obs_trace = true;
  config.max_sim_time = 2'000'000'000;
  return config;
}

void CheckRun(const SimConfig& config) {
  const RunResult result = RunSimulation(config);
  ASSERT_FALSE(result.timed_out);
  std::string why;
  EXPECT_TRUE(CheckAcyclicity(result.obs_trace, &why)) << why;
  EXPECT_TRUE(CheckForwardListOrderConsistency(result.obs_trace, &why))
      << why;
  EXPECT_TRUE(CheckMr1wDiscipline(result.obs_trace, &why)) << why;
  EXPECT_TRUE(HistoryIsSerializable(result.history, &why)) << why;
}

void ExpectSameWelford(const stats::Welford& a, const stats::Welford& b,
                       const char* what) {
  EXPECT_EQ(a.count(), b.count()) << what;
  EXPECT_EQ(a.mean(), b.mean()) << what;
  EXPECT_EQ(a.variance(), b.variance()) << what;
  EXPECT_EQ(a.min(), b.min()) << what;
  EXPECT_EQ(a.max(), b.max()) << what;
}

void ExpectSameResult(const RunResult& a, const RunResult& b) {
  ExpectSameWelford(a.response, b.response, "response");
  ExpectSameWelford(a.op_wait, b.op_wait, "op_wait");
  ExpectSameWelford(a.abort_age, b.abort_age, "abort_age");
  ExpectSameWelford(a.abort_held_items, b.abort_held_items,
                    "abort_held_items");
  EXPECT_EQ(a.commits, b.commits);
  EXPECT_EQ(a.aborts, b.aborts);
  EXPECT_EQ(a.total_commits, b.total_commits);
  EXPECT_EQ(a.total_aborts, b.total_aborts);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.timed_out, b.timed_out);
  EXPECT_EQ(a.network.messages, b.network.messages);
  EXPECT_EQ(a.network.server_to_client, b.network.server_to_client);
  EXPECT_EQ(a.network.client_to_server, b.network.client_to_server);
  EXPECT_EQ(a.network.client_to_client, b.network.client_to_client);
  EXPECT_EQ(a.network.payload_units, b.network.payload_units);
  EXPECT_EQ(a.windows_dispatched, b.windows_dispatched);
  EXPECT_EQ(a.mean_forward_list_length, b.mean_forward_list_length);
  EXPECT_EQ(a.read_group_expansions, b.read_group_expansions);
  EXPECT_EQ(a.mean_effective_cap, b.mean_effective_cap);
  EXPECT_EQ(a.final_effective_cap, b.final_effective_cap);
  EXPECT_EQ(a.cap_increases, b.cap_increases);
  EXPECT_EQ(a.cap_decreases, b.cap_decreases);
  EXPECT_EQ(a.cross_server_commits, b.cross_server_commits);
  EXPECT_EQ(a.commit_participants.count(), b.commit_participants.count());
  EXPECT_EQ(a.wal_appends, b.wal_appends);
  EXPECT_EQ(a.wal_forces, b.wal_forces);
  EXPECT_EQ(a.wal_retained, b.wal_retained);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (size_t i = 0; i < a.history.size(); ++i) {
    const CommittedTxn& x = a.history[i];
    const CommittedTxn& y = b.history[i];
    EXPECT_EQ(x.id, y.id);
    EXPECT_EQ(x.client, y.client);
    EXPECT_EQ(x.start_time, y.start_time);
    EXPECT_EQ(x.commit_time, y.commit_time);
    ASSERT_EQ(x.ops.size(), y.ops.size());
    for (size_t k = 0; k < x.ops.size(); ++k) {
      EXPECT_EQ(x.ops[k].item, y.ops[k].item);
      EXPECT_EQ(x.ops[k].mode, y.ops[k].mode);
      EXPECT_EQ(x.ops[k].version_read, y.ops[k].version_read);
      EXPECT_EQ(x.ops[k].version_written, y.ops[k].version_written);
    }
  }
  ASSERT_EQ(a.obs_trace.size(), b.obs_trace.size());
  for (size_t i = 0; i < a.obs_trace.size(); ++i) {
    EXPECT_TRUE(a.obs_trace[i] == b.obs_trace[i]) << "event " << i;
  }
}

TEST(ShardingInvariantsTest, G2plRandomizedWorkloadsAcrossShardCounts) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    for (int32_t servers : {1, 2, 3, 5, 8}) {
      SimConfig config = RandomConfig(Protocol::kG2pl, seed);
      config.num_servers = servers;
      SCOPED_TRACE("seed " + std::to_string(seed) + " servers " +
                   std::to_string(servers));
      CheckRun(config);
    }
  }
}

TEST(ShardingInvariantsTest, G2plRangeRoutingAndExpansion) {
  for (int32_t servers : {2, 4, 8}) {
    SimConfig config = RandomConfig(Protocol::kG2pl, 17);
    config.num_servers = servers;
    config.shard_routing = ShardRouting::kRange;
    config.workload.read_prob = 0.8;
    config.g2pl.expand_read_groups = true;
    SCOPED_TRACE("servers " + std::to_string(servers));
    CheckRun(config);
  }
}

// Every g-2PL option variant keeps the invariants on one server and across
// four: MR1W off, read-group expansion, window cap with aging, the adaptive
// cap controller, heterogeneous latency, and charged abort notices with a
// WAL force delay.
TEST(ShardingInvariantsTest, G2plOptionVariantsAcrossShardCounts) {
  struct Variant {
    const char* name;
    void (*apply)(SimConfig* config);
  };
  const Variant variants[] = {
      {"default", [](SimConfig*) {}},
      {"mr1w-off", [](SimConfig* c) { c->g2pl.mr1w = false; }},
      {"expand-read-groups",
       [](SimConfig* c) {
         c->g2pl.expand_read_groups = true;
         c->workload.read_prob = 0.8;
       }},
      {"cap-and-aging",
       [](SimConfig* c) {
         c->g2pl.max_forward_list_length = 3;
         c->g2pl.aging_threshold = 2;
       }},
      {"adaptive",
       [](SimConfig* c) {
         c->g2pl.adaptive.enabled = true;
         c->g2pl.adaptive.initial_cap = 3;
         c->g2pl.adaptive.max_cap = 8;
         c->g2pl.aging_threshold = 2;
       }},
      {"jitter-and-spread",
       [](SimConfig* c) {
         c->latency_jitter = 20;
         c->latency_spread = 0.5;
       }},
      {"delayed-notice-and-wal-delay",
       [](SimConfig* c) {
         c->instant_abort_notice = false;
         c->wal_force_delay = 5;
       }},
  };
  for (const Variant& variant : variants) {
    for (int32_t servers : {1, 4}) {
      SimConfig config = RandomConfig(Protocol::kG2pl, 11);
      config.num_clients = 12;
      config.latency = 50;
      config.workload.num_items = 15;
      config.workload.read_prob = 0.5;
      config.num_servers = servers;
      variant.apply(&config);
      SCOPED_TRACE(std::string(variant.name) + " servers " +
                   std::to_string(servers));
      CheckRun(config);
    }
  }
}

// Sharded runs are deterministic: the same configuration run twice yields
// identical results and traces (the determinism contract extends to the
// multi-server engines).
TEST(ShardingInvariantsTest, ShardedRunsAreDeterministic) {
  for (Protocol protocol : {Protocol::kS2pl, Protocol::kG2pl}) {
    SimConfig config = RandomConfig(protocol, 11);
    config.num_servers = 4;
    const RunResult a = RunSimulation(config);
    const RunResult b = RunSimulation(config);
    ExpectSameResult(a, b);
  }
}

TEST(ShardingInvariantsTest, S2plShardedHistoriesStaySerializable) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    for (int32_t servers : {1, 4, 8}) {
      SimConfig config = RandomConfig(Protocol::kS2pl, seed);
      config.num_servers = servers;
      SCOPED_TRACE("seed " + std::to_string(seed) + " servers " +
                   std::to_string(servers));
      CheckRun(config);
    }
  }
}

// The MR1W discipline check must not pass vacuously: under a write-heavy
// mixed workload the event stream has to contain real read-group/writer
// interactions, i.e. reader releases arriving at writers and writers
// releasing updates.
TEST(ShardingInvariantsTest, Mr1wDisciplineIsExercised) {
  for (int32_t servers : {1, 4}) {
    SimConfig config = RandomConfig(Protocol::kG2pl, 23);
    config.num_servers = servers;
    config.workload.read_prob = 0.6;
    const RunResult result = RunSimulation(config);
    ASSERT_FALSE(result.timed_out);
    int64_t reader_releases = 0;
    int64_t writer_releases = 0;
    for (const obs::TraceEvent& event : result.obs_trace) {
      reader_releases += event.kind == obs::EventKind::kReaderRelease;
      writer_releases += event.kind == obs::EventKind::kWriterRelease;
    }
    EXPECT_GT(reader_releases, 0) << "servers " << servers;
    EXPECT_GT(writer_releases, 0) << "servers " << servers;
    std::string why;
    EXPECT_TRUE(CheckMr1wDiscipline(result.obs_trace, &why)) << why;
  }
}

// Cross-server commits must actually happen under sharding and be visible
// in the 2PC event stream: every commit decision is preceded by a full
// round of yes votes for that transaction.
TEST(ShardingInvariantsTest, TwoPhaseCommitRoundsAreRecorded) {
  for (Protocol protocol : {Protocol::kS2pl, Protocol::kG2pl}) {
    SimConfig config = RandomConfig(protocol, 31);
    config.num_servers = 4;
    const RunResult result = RunSimulation(config);
    ASSERT_FALSE(result.timed_out);
    EXPECT_GT(result.cross_server_commits, 0);
    EXPECT_GE(result.commit_participants.mean(), 2.0);
    int64_t prepares = 0;
    int64_t yes_votes = 0;
    int64_t decisions = 0;
    for (const obs::TraceEvent& event : result.obs_trace) {
      prepares += event.kind == obs::EventKind::kPrepare;
      yes_votes += event.kind == obs::EventKind::kVote && event.flag;
      decisions += event.kind == obs::EventKind::kDecide;
    }
    EXPECT_GT(prepares, 0);
    EXPECT_GE(prepares, decisions);
    EXPECT_GE(yes_votes, decisions);
    EXPECT_GT(decisions, 0);
  }
}

// ---------------------------------------------------------------------------
// Checker self-tests on synthetic streams
// ---------------------------------------------------------------------------

obs::TraceEvent Window(ItemId item,
                       std::vector<obs::FlEntrySnapshot> entries) {
  obs::TraceEvent event;
  event.kind = obs::EventKind::kWindowDispatch;
  event.item = item;
  event.entries = std::move(entries);
  return event;
}

TEST(InvariantCheckersTest, DetectsCyclicGraphAudit) {
  obs::TraceEvent good;
  good.kind = obs::EventKind::kGraphCheck;
  good.flag = true;
  obs::TraceEvent bad = good;
  bad.flag = false;
  std::string why;
  EXPECT_TRUE(CheckAcyclicity({good}, &why));
  EXPECT_FALSE(CheckAcyclicity({good, bad}, &why));
  EXPECT_NE(why.find("cyclic"), std::string::npos);
}

TEST(InvariantCheckersTest, DetectsOppositeForwardListOrders) {
  const std::vector<obs::TraceEvent> consistent = {
      Window(1, {{false, {1}}, {false, {2}}}),
      Window(2, {{false, {1}}, {false, {2}}}),
  };
  const std::vector<obs::TraceEvent> flipped = {
      Window(1, {{false, {1}}, {false, {2}}}),
      Window(2, {{false, {2}}, {false, {1}}}),
  };
  std::string why;
  EXPECT_TRUE(CheckForwardListOrderConsistency(consistent, &why));
  EXPECT_FALSE(CheckForwardListOrderConsistency(flipped, &why));
}

TEST(InvariantCheckersTest, ReadGroupCoMembershipOrdersNeitherWay) {
  // {1,2} share a read group on item 1 but are strictly ordered on item 2:
  // compatible. A strict order on item 3 opposing item 2's order is not.
  const std::vector<obs::TraceEvent> compatible = {
      Window(1, {{true, {1, 2}}, {false, {3}}}),
      Window(2, {{false, {1}}, {false, {2}}}),
  };
  std::string why;
  EXPECT_TRUE(CheckForwardListOrderConsistency(compatible, &why));
  const std::vector<obs::TraceEvent> contradictory = {
      Window(2, {{false, {1}}, {false, {2}}}),
      Window(3, {{false, {2}}, {false, {1}}}),
  };
  EXPECT_FALSE(CheckForwardListOrderConsistency(contradictory, &why));
}

TEST(InvariantCheckersTest, DetectsEarlyWriterRelease) {
  std::vector<obs::TraceEvent> events = {
      Window(5, {{true, {1, 2}}, {false, {9}}}),
  };
  obs::TraceEvent release;
  release.kind = obs::EventKind::kReaderRelease;
  release.txn = 9;
  release.item = 5;
  obs::TraceEvent writer_release;
  writer_release.kind = obs::EventKind::kWriterRelease;
  writer_release.txn = 9;
  writer_release.item = 5;
  // Only one of two reader releases arrived: violation.
  std::vector<obs::TraceEvent> early = events;
  early.push_back(release);
  early.push_back(writer_release);
  std::string why;
  EXPECT_FALSE(CheckMr1wDiscipline(early, &why));
  EXPECT_NE(why.find("1/2"), std::string::npos);
  // Both arrived first: fine.
  std::vector<obs::TraceEvent> ok = events;
  ok.push_back(release);
  ok.push_back(release);
  ok.push_back(writer_release);
  EXPECT_TRUE(CheckMr1wDiscipline(ok, &why)) << why;
}

}  // namespace
}  // namespace gtpl::proto
