// Unit tests for the discrete-event simulation kernel.

#include "sim/simulator.h"

#include <array>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/latency_model.h"
#include "net/network.h"
#include "sim/callback_slab.h"
#include "sim/event_queue.h"

namespace gtpl::sim {
namespace {

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.Push(30, 0, [&order] { order.push_back(30); });
  queue.Push(10, 1, [&order] { order.push_back(10); });
  queue.Push(20, 2, [&order] { order.push_back(20); });
  while (!queue.empty()) queue.Pop().action();
  EXPECT_EQ(order, (std::vector<int>{10, 20, 30}));
}

TEST(EventQueueTest, SameTickFifoBySequence) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    queue.Push(5, static_cast<uint64_t>(i), [&order, i] { order.push_back(i); });
  }
  while (!queue.empty()) queue.Pop().action();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueueTest, PeekTimeMatchesEarliest) {
  EventQueue queue;
  queue.Push(42, 0, [] {});
  queue.Push(7, 1, [] {});
  EXPECT_EQ(queue.PeekTime(), 7);
}

TEST(EventQueueTest, SizeAndClear) {
  EventQueue queue;
  queue.Push(1, 0, [] {});
  queue.Push(2, 1, [] {});
  EXPECT_EQ(queue.size(), 2u);
  queue.Clear();
  EXPECT_TRUE(queue.empty());
}

TEST(SimulatorTest, ClockAdvancesToEventTimes) {
  Simulator sim;
  std::vector<SimTime> seen;
  sim.Schedule(5, [&] { seen.push_back(sim.Now()); });
  sim.Schedule(2, [&] { seen.push_back(sim.Now()); });
  sim.Run();
  EXPECT_EQ(seen, (std::vector<SimTime>{2, 5}));
  EXPECT_EQ(sim.Now(), 5);
}

TEST(SimulatorTest, NestedSchedulingUsesEventTimeAsBase) {
  Simulator sim;
  SimTime inner_fired = -1;
  sim.Schedule(10, [&] {
    sim.Schedule(7, [&] { inner_fired = sim.Now(); });
  });
  sim.Run();
  EXPECT_EQ(inner_fired, 17);
}

TEST(SimulatorTest, ZeroDelayRunsAfterPendingSameTick) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(1, [&] {
    order.push_back(1);
    sim.Schedule(0, [&] { order.push_back(3); });
  });
  sim.Schedule(1, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, RunUntilStopsAtHorizon) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(5, [&] { ++fired; });
  sim.Schedule(15, [&] { ++fired; });
  sim.Run(10);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, EventExactlyAtHorizonRuns) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(10, [&] { ++fired; });
  sim.Run(10);
  EXPECT_EQ(fired, 1);
}

TEST(SimulatorTest, StopHaltsExecution) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(1, [&] {
    ++fired;
    sim.Stop();
  });
  sim.Schedule(2, [&] { ++fired; });
  sim.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(SimulatorTest, StepExecutesOneEvent) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(1, [&] { ++fired; });
  sim.Schedule(2, [&] { ++fired; });
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.Step());
  EXPECT_FALSE(sim.Step());
}

// Regression (PR 9 bugfix sweep): Step() used to ignore `until`, skip the
// time-monotonicity check, and clear a pending stop — diverging from Run()'s
// contract. These pin the repaired semantics.
TEST(SimulatorTest, StepRespectsUntilHorizon) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(5, [&] { ++fired; });
  EXPECT_FALSE(sim.Step(3));  // earliest event past the horizon
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.Now(), 0);
  EXPECT_TRUE(sim.Step(5));  // event stamped exactly `until` still runs
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), 5);
}

TEST(SimulatorTest, StepStopSticksUntilNextRun) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(1, [&] {
    ++fired;
    sim.Stop();
  });
  sim.Schedule(2, [&] { ++fired; });
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.stopped());
  // The stop persists across Step() calls: nothing runs, nothing advances.
  EXPECT_FALSE(sim.Step());
  EXPECT_EQ(fired, 1);
  // Run() resets the flag and drains the remaining event.
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, StepAdvancesClockMonotonically) {
  Simulator sim;
  std::vector<SimTime> seen;
  sim.Schedule(4, [&] { seen.push_back(sim.Now()); });
  sim.Schedule(2, [&] { seen.push_back(sim.Now()); });
  sim.Schedule(4, [&] { seen.push_back(sim.Now()); });
  while (sim.Step()) {
  }
  EXPECT_EQ(seen, (std::vector<SimTime>{2, 4, 4}));
  EXPECT_EQ(sim.events_executed(), 3u);
  EXPECT_EQ(sim.Now(), 4);
}

#ifndef NDEBUG
// The (time, seq) pair is the determinism tiebreak; a duplicate seq makes
// same-tick order depend on heap internals. Debug builds abort on it.
TEST(EventQueueDeathTest, DuplicateSeqAbortsInDebugBuilds) {
  EventQueue queue;
  queue.Push(1, 7, [] {});
  EXPECT_DEATH(queue.Push(2, 7, [] {}), "duplicate event seq");
}
#endif

TEST(SimulatorTest, EmptyRunAdvancesToHorizon) {
  Simulator sim;
  sim.Run(100);
  EXPECT_EQ(sim.Now(), 100);
}

TEST(SimulatorTest, CountsExecutedEvents) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.Schedule(i, [] {});
  sim.Run();
  EXPECT_EQ(sim.events_executed(), 5u);
}

// --- CallbackSlab and the closure front-ends ---------------------------

TEST(CallbackSlabTest, ClosureRunsExactlyOnce) {
  Simulator sim;
  int runs = 0;
  std::string seen;
  const std::string tag = "a label too long for the small-string buffer";
  sim.Schedule(3, [&runs, &seen, tag] {
    ++runs;
    seen = tag;
  });
  EXPECT_EQ(sim.callback_slab().live(), 1u);
  sim.Run();
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(seen, tag);
  EXPECT_EQ(sim.callback_slab().live(), 0u);
}

TEST(CallbackSlabTest, NeverRunClosureIsReleasedWithTheSimulator) {
  auto token = std::make_shared<int>(7);
  {
    Simulator sim;
    sim.Schedule(10, [token] { FAIL() << "never runs"; });
    EXPECT_EQ(token.use_count(), 2);
    EXPECT_EQ(sim.callback_slab().live(), 1u);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(CallbackSlabTest, ClosureMayScheduleAndSendFromItsBody) {
  Simulator sim;
  net::Network network(&sim, std::make_unique<net::UniformLatency>(5));
  std::vector<std::string> log;
  // Each closure holds a std::string, so each one lives in the slab.
  const auto note = [&log, &sim](const std::string& what) {
    log.push_back(what + "@" + std::to_string(sim.Now()));
  };
  sim.Schedule(1, [&, what = std::string("outer")] {
    note(what);
    sim.Schedule(2, [&, what = std::string("scheduled")] { note(what); });
    network.Send(0, 1, "msg",
                 [&, what = std::string("delivered")] { note(what); });
    EXPECT_EQ(sim.callback_slab().live(), 3u);
  });
  sim.Run();
  EXPECT_EQ(log, (std::vector<std::string>{"outer@1", "scheduled@3",
                                           "delivered@6"}));
  EXPECT_EQ(sim.callback_slab().live(), 0u);
}

TEST(CallbackSlabTest, OneChunkServesALongRun) {
  Simulator sim;
  int64_t fired = 0;
  std::function<void(int64_t)> link = [&](int64_t id) {
    // 24 bytes of captures: too large for std::function's inline buffer.
    sim.Schedule(1, [&link, &fired, id] {
      EXPECT_EQ(fired, id);
      if (++fired < 100000) link(id + 1);
    });
  };
  link(0);
  sim.Run();
  EXPECT_EQ(fired, 100000);
  EXPECT_EQ(sim.callback_slab().num_chunks(), 1u);
  EXPECT_EQ(sim.callback_slab().live(), 0u);
}

TEST(CallbackSlabTest, SmallTriviallyCopyableClosureBypassesTheSlab) {
  Simulator sim;
  int runs = 0;
  int* counter = &runs;
  sim.Schedule(1, [counter] { ++*counter; });
  sim.Schedule(1, [counter, step = 1] { *counter += step; });
  EXPECT_EQ(sim.callback_slab().live(), 0u);
  EXPECT_EQ(sim.callback_slab().num_chunks(), 0u);
  sim.Run();
  EXPECT_EQ(runs, 2);
}

TEST(CallbackSlabTest, ClosureLargerThanACellStaysAStdFunction) {
  Simulator sim;
  std::array<char, 2 * CallbackSlab::kCellBytes> big{};
  big[0] = 'x';
  char seen = 0;
  sim.Schedule(1, [big, &seen] { seen = big[0]; });
  EXPECT_EQ(sim.callback_slab().live(), 0u);
  sim.Run();
  EXPECT_EQ(seen, 'x');
}

TEST(CallbackSlabTest, ReusedCellRunsOnlyItsNewClosure) {
  CallbackSlab slab;
  std::vector<int> ran;
  const std::string pad(40, 'p');
  CallbackSlab::Handle first = slab.Emplace([&ran, pad] { ran.push_back(1); });
  first();
  CallbackSlab::Handle second =
      slab.Emplace([&ran, pad] { ran.push_back(2); });
  second();
  EXPECT_EQ(ran, (std::vector<int>{1, 2}));
  EXPECT_EQ(slab.num_chunks(), 1u);
}

TEST(CallbackSlabDeathTest, SecondInvocationOfACopiedHandleFails) {
  CallbackSlab slab;
  int runs = 0;
  const std::string pad(40, 'p');
  std::function<void()> action =
      PackClosure(slab, [&runs, pad] { ++runs; });
  std::function<void()> copy = action;
  action();
  EXPECT_EQ(runs, 1);
  EXPECT_DEATH(copy(), "invoked more than once");
  // The freed cell now holds another closure; the stale copy still fails
  // instead of running it.
  std::function<void()> other = PackClosure(slab, [&runs, pad] { runs += 10; });
  EXPECT_DEATH(copy(), "invoked more than once");
  other();
  EXPECT_EQ(runs, 11);
}

}  // namespace
}  // namespace gtpl::sim
