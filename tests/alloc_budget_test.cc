// Steady-state heap allocations per committed transaction at the paper's
// operating point (50 clients, 25 items, read probability 0.5, latency 50).
//
// The binary replaces the global operator new/delete with counting versions
// and runs one configuration twice on one seed, with `measured_txns` A and
// B. Everything a run does once (engine construction, table growth, the
// first chunk of every pool, the result) is common to both runs, so
//
//   (allocs(B) - allocs(A)) / (B - A)
//
// is what one more committed transaction costs, aborted attempts included.
// Bounds, and the values the simulator had before the event and message
// paths stopped allocating (closures held by std::function on the heap, a
// fresh TxnRun per transaction, per-transaction lock lists):
//
//   s-2PL   54 before,  bound 16
//   g-2PL   65 before,  bound 45
//
// A change that puts an allocation back on the per-event, per-message or
// per-lock path fails here instead of hiding in host-timing noise.

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "protocols/config.h"
#include "protocols/engine.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto alignment = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded =
      (size + alignment - 1) / alignment * alignment;
  if (void* p = std::aligned_alloc(alignment, rounded == 0 ? alignment
                                                           : rounded)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace gtpl::proto {
namespace {

SimConfig PaperPoint(Protocol protocol, int64_t measured_txns) {
  SimConfig config;
  config.protocol = protocol;
  config.num_clients = 50;
  config.latency = 50;
  config.workload.num_items = 25;
  config.workload.read_prob = 0.5;
  config.seed = 7;
  config.warmup_txns = 1000;
  config.measured_txns = measured_txns;
  return config;
}

/// Operator-new calls of one run.
uint64_t AllocationsOf(const SimConfig& config) {
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const RunResult result = RunSimulation(config);
  const uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_FALSE(result.timed_out);
  EXPECT_EQ(result.commits, config.measured_txns);
  return after - before;
}

double AllocationsPerCommit(Protocol protocol) {
  constexpr int64_t kShort = 2000;
  constexpr int64_t kLong = 6000;
  const uint64_t short_run = AllocationsOf(PaperPoint(protocol, kShort));
  const uint64_t long_run = AllocationsOf(PaperPoint(protocol, kLong));
  EXPECT_GT(long_run, short_run);
  const double per_commit = static_cast<double>(long_run - short_run) /
                            static_cast<double>(kLong - kShort);
  std::printf("%s: %.2f allocations per commit\n", ToString(protocol),
              per_commit);
  return per_commit;
}

TEST(AllocBudgetTest, PaperS2plSteadyState) {
  EXPECT_LE(AllocationsPerCommit(Protocol::kS2pl), 16.0);
}

TEST(AllocBudgetTest, PaperG2plSteadyState) {
  EXPECT_LE(AllocationsPerCommit(Protocol::kG2pl), 45.0);
}

}  // namespace
}  // namespace gtpl::proto
