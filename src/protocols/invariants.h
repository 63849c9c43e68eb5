#ifndef GTPL_PROTOCOLS_INVARIANTS_H_
#define GTPL_PROTOCOLS_INVARIANTS_H_

#include <string>
#include <vector>

#include "obs/trace.h"

namespace gtpl::core {
class ForwardList;
}

namespace gtpl::proto {

/// Invariant checkers over the structured observability trace (obs/trace.h).
/// Engines emit protocol *facts* into the trace (window dispatches and
/// expansions with forward-list snapshots, reader-release arrivals, writer
/// update releases, graph audits, 2PC rounds, lease grants/revokes/
/// releases) rather than engine internals, so the same checkers apply to
/// every engine and shard count, and replay a saved trace file with no live
/// run (trace_inspect --check-invariants). Events of other kinds are
/// ignored.

/// Entry/member snapshot of a forward list, for window events.
std::vector<obs::FlEntrySnapshot> ObsSnapshotForwardList(
    const core::ForwardList& fl);

/// Every kGraphCheck event in the stream reported an acyclic graph.
bool CheckAcyclicity(const std::vector<obs::TraceEvent>& events,
                     std::string* explanation = nullptr);

/// Same-pair-same-order (paper §3.3, global across shards): no two
/// transactions appear in opposite orders in two forward lists they share.
/// Co-membership in a read group orders neither way and is compatible with
/// any order elsewhere.
bool CheckForwardListOrderConsistency(
    const std::vector<obs::TraceEvent>& events,
    std::string* explanation = nullptr);

/// MR1W release discipline (paper §3.4): a committed writer never releases
/// its update before the release messages of *all* readers of the preceding
/// read group have arrived at it.
bool CheckMr1wDiscipline(const std::vector<obs::TraceEvent>& events,
                         std::string* explanation = nullptr);

/// Lease coherence (DESIGN.md §14): replays the kLease* events and checks
/// that an exclusive grant admits no other holder site, a shared grant
/// admits no other-site write holder, and *no* grant of any mode lands on
/// an item while a revoke on it is outstanding (sent but not yet followed
/// by that holder's release).
bool CheckLeaseCoherence(const std::vector<obs::TraceEvent>& events,
                         std::string* explanation = nullptr);

/// All of the above.
bool CheckProtocolInvariants(const std::vector<obs::TraceEvent>& events,
                             std::string* explanation = nullptr);

}  // namespace gtpl::proto

#endif  // GTPL_PROTOCOLS_INVARIANTS_H_
