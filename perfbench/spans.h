#ifndef GTPL_PERFBENCH_SPANS_H_
#define GTPL_PERFBENCH_SPANS_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

/// A timed call site: the replication root plus every entry point the
/// traced binary interposes with -Wl,--wrap (wrappers.cc).
enum class Site : int {
  kRun,  // one RunSimulation call; its self time is the protocols layer
  kEventQueuePush,
  kEventQueuePop,
  kSimulatorSchedule,
  kSimulatorScheduleAt,
  kNetworkSend,
  kLinkAdmitUplink,
  kLinkAdmitDownlink,
  kLockRequest,
  kLockReleaseAll,
  kWfgAddWaits,
  kWfgClearWaits,
  kWfgRemoveTxn,
  kWfgCycleThrough,
  kWalAppend,
  kWalForce,
  kWindowOnRequest,
  kWindowOnReturn,
  kWindowOnTxnDrained,
  kGraphReachableAmong,
  kGraphAddEdge,
  kGraphRemoveTxn,
  kGraphContract,
  kNextTxn,
  kSampleDistinct,
  kCount,
};

inline constexpr int kNumSites = static_cast<int>(Site::kCount);

struct SiteInfo {
  const char* name;   // the interposed function, as in the source
  const char* layer;  // sim, net, db, core, workload or protocols
};

const SiteInfo& InfoOf(Site site);

/// Totals of one site over every span closed there.
struct SiteTotals {
  uint64_t calls = 0;
  int64_t inclusive_ns = 0;
  /// Inclusive time minus the time covered by child spans.
  int64_t self_ns = 0;
  /// Site-specific outcome count: kWaiting results of LockTable::Request,
  /// non-empty cycles returned by WaitsForGraph::CycleThrough.
  uint64_t hits = 0;
};

using Totals = std::array<SiteTotals, kNumSites>;

/// One thread's stack of open spans. Closing a span charges its inclusive
/// time to the parent's child time, so self time never counts a callee
/// twice however deep the calls nest.
class SpanRecorder {
 public:
  void Enter(Site site, int64_t now_ns) {
    stack_.push_back(Open{site, now_ns, 0});
  }

  /// Closes the innermost open span.
  void Exit(int64_t now_ns) {
    const Open open = stack_.back();
    stack_.pop_back();
    const int64_t inclusive = now_ns - open.start_ns;
    SiteTotals& totals = totals_[static_cast<size_t>(open.site)];
    ++totals.calls;
    totals.inclusive_ns += inclusive;
    totals.self_ns += inclusive - open.child_ns;
    if (!stack_.empty()) stack_.back().child_ns += inclusive;
  }

  void CountHit(Site site) { ++totals_[static_cast<size_t>(site)].hits; }

  size_t depth() const { return stack_.size(); }
  const Totals& totals() const { return totals_; }
  void Reset() { totals_ = Totals{}; }

 private:
  struct Open {
    Site site;
    int64_t start_ns;
    int64_t child_ns;
  };
  std::vector<Open> stack_;
  Totals totals_{};
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Creates the calling thread's recorder in a process-wide registry, so the
/// totals of the parallel engine's worker threads outlive the threads and
/// are summed by CollectTotals.
SpanRecorder& RegisterThreadRecorder();

/// The calling thread's recorder.
inline SpanRecorder& ThreadRecorder() {
  static thread_local SpanRecorder* recorder = nullptr;
  if (recorder == nullptr) recorder = &RegisterThreadRecorder();
  return *recorder;
}

/// Sums every thread's totals. Call only while no other thread records,
/// e.g. after RunSimulation returned (its worker threads are joined).
Totals CollectTotals();

/// Zeroes every thread's totals, under the same condition.
void ResetTotals();

/// Times the enclosing scope as one span of `site` on this thread.
class ScopedSpan {
 public:
  explicit ScopedSpan(Site site) : recorder_(ThreadRecorder()) {
    recorder_.Enter(site, NowNs());
  }
  ~ScopedSpan() { recorder_.Exit(NowNs()); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& recorder_;
};

}  // namespace perfbench

#endif  // GTPL_PERFBENCH_SPANS_H_
