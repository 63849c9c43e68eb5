#ifndef GTPL_LEASE_LEASE_H_
#define GTPL_LEASE_LEASE_H_

#include <cstdint>

#include "common/name_table.h"
#include "common/types.h"

namespace gtpl::lease {

/// Lease-based client lock caching (DESIGN.md §14). Selected per run by
/// SimConfig::lease / the `--lease=NAME` flag. kNone is the default and is
/// bit-identical to the pre-lease engines (the standing goldens and the
/// lease equivalence battery pin this).
enum class LeaseMode {
  /// Leases disabled: every lock acquisition pays the usual WAN round and
  /// the per-transaction lock table runs unchanged.
  kNone = 0,
  /// Sticky ownership, YFS lock_server_cache style: a grant is a per-item
  /// *site* lease that outlives the transaction. Repeat acquisitions at
  /// the holder site are satisfied from the client's LeaseCache with zero
  /// network flights (counted as lease_hits); conflicting requests at the
  /// server enqueue and trigger callback revocation (server -> holder
  /// revoke, holder drains the pinned local transaction, then releases).
  kSticky = 1,
};

/// Registry key of `mode` (LeaseModes().For(mode).name).
const char* ToString(LeaseMode mode);

using LeaseModeInfo = NamedValue<LeaseMode>;

/// Every lease mode under its --lease=<name>, in presentation order.
const NameTable<LeaseModeInfo>& LeaseModes();

/// Per-run lease knobs, carried inside SimConfig.
struct LeaseOptions {
  LeaseMode mode = LeaseMode::kNone;
  /// Client-side lease lifetime in sim time units; 0 means leases never
  /// expire. Expiry is lazy: an expired entry stops serving local hits and
  /// the next access re-fetches (and refreshes) the lease at the server.
  SimTime ttl = 0;
  /// Maximum unpinned leases a client retains; 0 means unlimited. Excess
  /// entries are evicted least-recently-used with a voluntary release.
  int32_t max_held = 0;
};

}  // namespace gtpl::lease

#endif  // GTPL_LEASE_LEASE_H_
