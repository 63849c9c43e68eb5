// Protocol-level tests of the caching extensions (c-2PL, CBL, O2PL).

#include <bit>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "obs/trace.h"
#include "protocols/engine.h"

namespace gtpl::proto {
namespace {

SimConfig BaseConfig(Protocol protocol) {
  SimConfig config;
  config.protocol = protocol;
  config.num_clients = 10;
  config.latency = 100;
  config.workload.num_items = 10;
  config.workload.read_prob = 0.8;
  config.measured_txns = 600;
  config.warmup_txns = 60;
  config.seed = 33;
  config.max_sim_time = 1'000'000'000;
  return config;
}

double MessagesPerCommit(const RunResult& result) {
  return static_cast<double>(result.network.messages) /
         static_cast<double>(result.commits);
}

TEST(CachingTest, C2plMatchesS2plRounds) {
  // Caching 2PL is s-2PL plus a client data cache: it saves payload, never
  // a round. At infinite bandwidth payload costs no time, so every timing
  // metric equals s-2PL's exactly, at one server and under sharding.
  for (int32_t servers : {1, 4}) {
    SCOPED_TRACE("servers " + std::to_string(servers));
    // The paper's contended point (50 clients, 25 items, half reads).
    SimConfig config = BaseConfig(Protocol::kS2pl);
    config.num_clients = 50;
    config.latency = 50;
    config.workload.num_items = 25;
    config.workload.read_prob = 0.5;
    config.measured_txns = 2000;
    config.warmup_txns = 200;
    config.num_servers = servers;
    ASSERT_EQ(config.link_bandwidth, 0.0);
    const RunResult s2pl = RunSimulation(config);
    config.protocol = Protocol::kC2pl;
    const RunResult c2pl = RunSimulation(config);
    ASSERT_FALSE(c2pl.timed_out);
    EXPECT_EQ(c2pl.commits, s2pl.commits);
    EXPECT_EQ(c2pl.aborts, s2pl.aborts);
    EXPECT_EQ(c2pl.events, s2pl.events);
    EXPECT_EQ(c2pl.network.messages, s2pl.network.messages);
    EXPECT_EQ(c2pl.end_time, s2pl.end_time);
    EXPECT_EQ(std::bit_cast<uint64_t>(c2pl.response.mean()),
              std::bit_cast<uint64_t>(s2pl.response.mean()));
    // Grants of current cached copies ship no data.
    EXPECT_LT(c2pl.network.payload_units, s2pl.network.payload_units);
  }
}

TEST(CachingTest, CblSavesMessagesOnReadMostlyWorkload) {
  SimConfig config = BaseConfig(Protocol::kS2pl);
  config.workload.read_prob = 0.95;
  const RunResult s2pl = RunSimulation(config);
  config.protocol = Protocol::kCbl;
  const RunResult cbl = RunSimulation(config);
  ASSERT_FALSE(cbl.timed_out);
  // Cached read permissions avoid request/grant rounds entirely.
  EXPECT_LT(MessagesPerCommit(cbl), MessagesPerCommit(s2pl));
  EXPECT_LT(cbl.response.mean(), s2pl.response.mean());
}

TEST(CachingTest, CblCallbackStormsOnWriteContendedHotSet) {
  // The flip side of callback locking: frequent writes to a small hot set
  // trigger callbacks to every caching client, so CBL sends *more* messages
  // than s-2PL there (the classic CB-read trade-off).
  SimConfig config = BaseConfig(Protocol::kS2pl);
  config.workload.read_prob = 0.8;
  const RunResult s2pl = RunSimulation(config);
  config.protocol = Protocol::kCbl;
  const RunResult cbl = RunSimulation(config);
  ASSERT_FALSE(cbl.timed_out);
  EXPECT_GT(MessagesPerCommit(cbl), MessagesPerCommit(s2pl));
}

TEST(CachingTest, CblWriteHeavyStillLive) {
  SimConfig config = BaseConfig(Protocol::kCbl);
  config.workload.read_prob = 0.2;
  config.record_history = true;
  const RunResult result = RunSimulation(config);
  ASSERT_FALSE(result.timed_out);
  std::string why;
  EXPECT_TRUE(HistoryIsSerializable(result.history, &why)) << why;
}

TEST(CachingTest, O2plReadOnlyNeverAborts) {
  SimConfig config = BaseConfig(Protocol::kO2pl);
  config.workload.read_prob = 1.0;
  const RunResult result = RunSimulation(config);
  ASSERT_FALSE(result.timed_out);
  EXPECT_EQ(result.aborts, 0);
}

TEST(CachingTest, O2plAbortsOnCertificationConflicts) {
  SimConfig config = BaseConfig(Protocol::kO2pl);
  config.workload.read_prob = 0.2;
  const RunResult result = RunSimulation(config);
  ASSERT_FALSE(result.timed_out);
  EXPECT_GT(result.aborts, 0);
}

TEST(CachingTest, O2plResponseIncludesCertificationRound) {
  // A read-only cache-miss transaction costs fetch (2L) per op plus the
  // certification round (2L): response >= 4L for single-op transactions.
  SimConfig config = BaseConfig(Protocol::kO2pl);
  config.num_clients = 1;
  config.workload.read_prob = 0.0;
  config.workload.min_items_per_txn = 1;
  config.workload.max_items_per_txn = 1;
  config.workload.num_items = 100000;  // cache misses essentially always
  config.workload.max_items_per_txn = 1;
  config.measured_txns = 20;
  config.warmup_txns = 0;
  const RunResult result = RunSimulation(config);
  ASSERT_FALSE(result.timed_out);
  EXPECT_GE(result.response.mean(), 4 * 100.0);
}

TEST(CachingTest, O2plSingleShardCommitForcesTheClientLog) {
  // A single-shard O2PL commit forces the client commit record after the
  // certification round, as OCC does: one client with no contention pays
  // exactly the force delay on top of the undelayed response.
  for (Protocol protocol : {Protocol::kOcc, Protocol::kO2pl}) {
    SCOPED_TRACE(ToString(protocol));
    SimConfig config = BaseConfig(protocol);
    config.num_clients = 1;
    config.measured_txns = 50;
    config.warmup_txns = 0;
    const RunResult undelayed = RunSimulation(config);
    config.wal_force_delay = 40;
    const RunResult forced = RunSimulation(config);
    ASSERT_FALSE(forced.timed_out);
    EXPECT_NEAR(forced.response.mean() - undelayed.response.mean(), 40.0,
                1e-9);
  }
}

TEST(CachingTest, O2plCrossServerCommitterStaysACopyHolder) {
  // A cross-server O2PL commit installs its writes when the decisions land,
  // after the client has finalized the commit and cached what it wrote.
  // The committer must be recorded there as the one copy holder: its own
  // install sends it no invalidate, and the item's next install by another
  // client does.
  SimConfig config = BaseConfig(Protocol::kO2pl);
  config.num_servers = 4;
  config.latency = 50;
  config.warmup_txns = 0;
  config.record_history = true;
  config.obs_trace = true;
  const RunResult result = RunSimulation(config);
  ASSERT_FALSE(result.timed_out);
  // The sites each transaction's installs invalidated: the sends that
  // directly follow its decisions.
  const std::vector<obs::TraceEvent>& events = result.obs_trace;
  std::unordered_map<TxnId, std::set<SiteId>> invalidated;
  for (size_t i = 0; i < events.size(); ++i) {
    if (events[i].kind != obs::EventKind::kDecide) continue;
    std::set<SiteId>& peers = invalidated[events[i].txn];
    for (size_t j = i + 1; j < events.size() &&
                           events[j].kind == obs::EventKind::kMsgSend &&
                           events[j].label == "invalidate";
         ++j) {
      peers.insert(events[j].peer);
    }
  }
  // A committer is never invalidated by its own install.
  for (const CommittedTxn& txn : result.history) {
    auto own = invalidated.find(txn.id);
    if (own != invalidated.end()) {
      EXPECT_EQ(own->second.count(txn.client), 0u) << "txn " << txn.id;
    }
  }
  // Each item's committed writers in install (version) order.
  std::map<ItemId, std::map<Version, const CommittedTxn*>> writers;
  for (const CommittedTxn& txn : result.history) {
    for (const OpRecord& op : txn.ops) {
      if (op.mode == LockMode::kExclusive) {
        writers[op.item][op.version_written] = &txn;
      }
    }
  }
  int checked = 0;
  for (const auto& [item, by_version] : writers) {
    const CommittedTxn* previous = nullptr;
    for (const auto& [version, txn] : by_version) {
      auto next = invalidated.find(txn->id);
      if (previous != nullptr && previous->commit_flights >= 0 &&
          previous->client != txn->client && next != invalidated.end()) {
        EXPECT_EQ(next->second.count(previous->client), 1u)
            << "item " << item << " version " << version << ": txn "
            << txn->id << " left site " << previous->client
            << "'s copy valid";
        ++checked;
      }
      previous = txn;
    }
  }
  EXPECT_GT(checked, 50);
}

TEST(CachingTest, CblSingleClientReadsBecomeLocal) {
  SimConfig config = BaseConfig(Protocol::kCbl);
  config.num_clients = 1;
  config.workload.read_prob = 1.0;
  config.measured_txns = 300;
  const RunResult result = RunSimulation(config);
  ASSERT_FALSE(result.timed_out);
  // After the cache warms, every read hits locally: far fewer messages
  // than two per operation.
  EXPECT_LT(MessagesPerCommit(result), 1.0);
}

TEST(CachingTest, AllCachingProtocolsDeterministic) {
  for (Protocol protocol :
       {Protocol::kC2pl, Protocol::kCbl, Protocol::kO2pl}) {
    SimConfig config = BaseConfig(protocol);
    config.measured_txns = 200;
    const RunResult a = RunSimulation(config);
    const RunResult b = RunSimulation(config);
    EXPECT_EQ(a.events, b.events) << ToString(protocol);
    EXPECT_EQ(a.response.mean(), b.response.mean()) << ToString(protocol);
  }
}

}  // namespace
}  // namespace gtpl::proto
