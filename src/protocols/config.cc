#include "protocols/config.h"

#include <string>

namespace gtpl::proto {
namespace {

constexpr EngineInfo kEngines[] = {
    {"s2pl", "strict 2PL, waits-for deadlock detection (paper baseline)",
     Protocol::kS2pl, "s-2PL", kAnyCommitPath | kStickyLease},
    {"g2pl", "group 2PL with forward lists (paper contribution)",
     Protocol::kG2pl, "g-2PL", kAnyCommitPath},
    {"c2pl", "caching 2PL: s-2PL locking plus a client data cache",
     Protocol::kC2pl, "c-2PL", 0},
    {"cbl", "callback locking", Protocol::kCbl, "CBL", 0},
    {"o2pl", "optimistic 2PL: OCC certification plus a client cache",
     Protocol::kO2pl, "O2PL", 0},
    {"nowait", "no-wait 2PL: blocked requests abort the requester",
     Protocol::kNoWait, "nw-2PL", kAnyCommitPath | kStickyLease | kParallel},
    {"waitdie", "wait-die 2PL: wait for younger only, die on older",
     Protocol::kWaitDie, "wd-2PL", kAnyCommitPath | kStickyLease | kParallel},
    {"woundwait", "wound-wait 2PL: wound younger blockers, wait on older",
     Protocol::kWoundWait, "ww-2PL", kAnyCommitPath | kStickyLease},
    {"occ", "optimistic CC, backward validation at commit", Protocol::kOcc,
     "OCC", kAnyCommitPath},
    {"ordered", "ordered 2PL: in-order acquisition, release at prepare",
     Protocol::kOrdered, "or-2PL", kAnyCommitPath | kStickyLease},
};

constexpr NameTable<EngineInfo> kEngineTable("engine", kEngines);

/// Comma-separated names of the engines with `cap`, for error messages.
std::string EnginesWith(EngineCapability cap) {
  return kEngineTable.Names(
      [cap](const EngineInfo& info) { return info.Has(cap); });
}

}  // namespace

const NameTable<EngineInfo>& Engines() { return kEngineTable; }

const char* ToString(Protocol protocol) {
  return kEngineTable.For(protocol).label;
}

const char* ToString(ShardRouting routing) {
  switch (routing) {
    case ShardRouting::kHash:
      return "hash";
    case ShardRouting::kRange:
      return "range";
  }
  return "unknown";
}

Status SimConfig::Validate() const {
  if (num_clients < 1) {
    return Status::InvalidArgument("num_clients must be >= 1");
  }
  if (num_servers < 1) {
    return Status::InvalidArgument("num_servers must be >= 1");
  }
  if (num_servers > workload.num_items) {
    return Status::InvalidArgument("num_servers must be <= num_items");
  }
  const EngineInfo& engine = kEngineTable.For(protocol);
  if (num_servers > 1 && commit_path != CommitPath::kClassic &&
      !engine.Has(kAnyCommitPath)) {
    return Status::InvalidArgument(
        "the caching protocols support only the classic commit path");
  }
  if (lease.mode == lease::LeaseMode::kSticky && !engine.Has(kStickyLease)) {
    return Status::InvalidArgument(
        "lease=sticky requires a lock-table engine (" +
        EnginesWith(kStickyLease) + ")");
  }
  if (lease.ttl < 0) {
    return Status::InvalidArgument("lease ttl must be >= 0 (0 = infinite)");
  }
  if (lease.max_held < 0) {
    return Status::InvalidArgument(
        "lease max_held must be >= 0 (0 = unlimited)");
  }
  if (latency < 0) return Status::InvalidArgument("latency must be >= 0");
  if (server_latency < -1) {
    return Status::InvalidArgument("server_latency must be -1 or >= 0");
  }
  if (latency_jitter < 0) {
    return Status::InvalidArgument("latency_jitter must be >= 0");
  }
  if (latency_spread < 0.0 || latency_spread > 1.0) {
    return Status::InvalidArgument("latency_spread must be in [0,1]");
  }
  if (link_bandwidth < 0.0) {
    return Status::InvalidArgument("link_bandwidth must be >= 0 (0 = inf)");
  }
  if (cross_traffic_load < 0.0 || cross_traffic_load >= 1.0) {
    return Status::InvalidArgument("cross_traffic_load must be in [0,1)");
  }
  if (cross_traffic_load > 0.0 && (!nic_queue || link_bandwidth <= 0.0)) {
    return Status::InvalidArgument(
        "cross_traffic_load requires nic_queue and finite link_bandwidth");
  }
  if (workload.num_items < 1) {
    return Status::InvalidArgument("num_items must be >= 1");
  }
  if (workload.min_items_per_txn < 1 ||
      workload.min_items_per_txn > workload.max_items_per_txn ||
      workload.max_items_per_txn > workload.num_items) {
    return Status::InvalidArgument("items-per-txn range invalid");
  }
  if (workload.read_prob < 0.0 || workload.read_prob > 1.0) {
    return Status::InvalidArgument("read_prob must be in [0,1]");
  }
  if (workload.repeat_prob < 0.0 || workload.repeat_prob > 1.0) {
    return Status::InvalidArgument("repeat_prob must be in [0,1]");
  }
  if (workload.min_think < 0 || workload.min_think > workload.max_think) {
    return Status::InvalidArgument("think range invalid");
  }
  if (workload.min_idle < 0 || workload.min_idle > workload.max_idle) {
    return Status::InvalidArgument("idle range invalid");
  }
  if (measured_txns < 1) {
    return Status::InvalidArgument("measured_txns must be >= 1");
  }
  if (warmup_txns < 0) {
    return Status::InvalidArgument("warmup_txns must be >= 0");
  }
  if (g2pl.max_forward_list_length < 0) {
    return Status::InvalidArgument("max_forward_list_length must be >= 0");
  }
  if (g2pl.aging_threshold < 0) {
    return Status::InvalidArgument("aging_threshold must be >= 0");
  }
  if (g2pl.adaptive.enabled) {
    const core::AdaptiveWindowOptions& a = g2pl.adaptive;
    if (a.min_cap < 1) {
      return Status::InvalidArgument("adaptive min_cap must be >= 1");
    }
    if (a.max_cap < a.min_cap) {
      return Status::InvalidArgument("adaptive max_cap must be >= min_cap");
    }
    if (a.initial_cap < a.min_cap || a.initial_cap > a.max_cap) {
      return Status::InvalidArgument(
          "adaptive initial_cap must be in [min_cap, max_cap]");
    }
    if (a.decrease_factor <= 0.0 || a.decrease_factor >= 1.0) {
      return Status::InvalidArgument(
          "adaptive decrease_factor must be in (0,1)");
    }
    if (a.increase_step < 1) {
      return Status::InvalidArgument("adaptive increase_step must be >= 1");
    }
    if (a.hysteresis < 1) {
      return Status::InvalidArgument("adaptive hysteresis must be >= 1");
    }
  }
  if (wal_force_delay < 0) {
    return Status::InvalidArgument("wal_force_delay must be >= 0");
  }
  if (max_sim_time < 0) {
    return Status::InvalidArgument("max_sim_time must be >= 0");
  }
  if (!trace_stream_path.empty() && !obs_trace) {
    return Status::InvalidArgument(
        "trace_stream_path requires obs_trace (simulate --trace-stream "
        "implies it)");
  }
  if (trace_flush_bytes < 1) {
    return Status::InvalidArgument("trace_flush_bytes must be >= 1");
  }
  if (metrics_interval < 0) {
    return Status::InvalidArgument("metrics_interval must be >= 0 (0 = off)");
  }
  if (sim_threads < 1) {
    return Status::InvalidArgument("sim_threads must be >= 1");
  }
  if (sim_threads > 1) {
    // The parallel engine covers the decomposable subset: every coupling
    // between shards must ride a message with >= one latency of delay
    // (the lookahead), or conservative windows have no safe width.
    if (!engine.Has(kParallel)) {
      return Status::InvalidArgument(
          "sim_threads > 1 supports the requester-victim engines only (" +
          EnginesWith(kParallel) +
          "); other protocols consult instantaneous cross-shard state "
          "(global graphs, wounds, caches)");
    }
    if (commit_path != CommitPath::kClassic) {
      return Status::InvalidArgument(
          "sim_threads > 1 requires the classic commit path");
    }
    if (lease.mode != lease::LeaseMode::kNone) {
      return Status::InvalidArgument(
          "sim_threads > 1 does not support lock leases");
    }
    if (link_bandwidth != 0.0 || latency_jitter != 0 ||
        latency_spread != 0.0 || server_latency >= 0) {
      return Status::InvalidArgument(
          "sim_threads > 1 requires the uniform pure-propagation network "
          "model (no bandwidth, jitter, spread, or server-latency mesh)");
    }
    if (latency < 1) {
      return Status::InvalidArgument(
          "sim_threads > 1 requires latency >= 1 (the lookahead bound)");
    }
    if (instant_abort_notice) {
      return Status::InvalidArgument(
          "sim_threads > 1 requires charged abort notices "
          "(--charged-abort-notice): an instant notice is a zero-latency "
          "cross-shard edge");
    }
    // obs_trace is supported: each LP gets its own Tracer and the streams
    // are k-way merged at window barriers into the kernel's deterministic
    // (time, lp, seq) order (DESIGN.md §16).
  }
  return Status::Ok();
}

}  // namespace gtpl::proto
