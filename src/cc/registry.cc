#include "cc/registry.h"

#include "cc/lock_engine.h"
#include "cc/occ.h"
#include "cc/policy.h"
#include "common/check.h"
#include "protocols/caching.h"
#include "protocols/g2pl.h"
#include "protocols/parsim.h"

namespace gtpl::cc {

std::unique_ptr<proto::EngineBase> MakeEngine(const proto::SimConfig& config) {
  using proto::Protocol;
  switch (config.protocol) {
    case Protocol::kS2pl:
      return std::make_unique<LockCcEngine>(config, MakeDetectPolicy());
    case Protocol::kG2pl:
      return std::make_unique<proto::G2plEngine>(config);
    case Protocol::kC2pl:
      return std::make_unique<LockCcEngine>(
          config, MakeDetectPolicy(),
          LockEngineTraits{.client_data_cache = true});
    case Protocol::kCbl:
      return proto::MakeCblEngine(config);
    case Protocol::kO2pl:
      return std::make_unique<OccEngine>(config, /*client_cache=*/true);
    case Protocol::kNoWait:
      return std::make_unique<LockCcEngine>(config, MakeNoWaitPolicy());
    case Protocol::kWaitDie:
      return std::make_unique<LockCcEngine>(config, MakeWaitDiePolicy());
    case Protocol::kOcc:
      return std::make_unique<OccEngine>(config, /*client_cache=*/false);
    case Protocol::kOrdered:
      return std::make_unique<LockCcEngine>(
          config, MakeOrderedPolicy(),
          LockEngineTraits{.release_at_prepare = true});
    case Protocol::kWoundWait:
      return std::make_unique<LockCcEngine>(config, MakeWoundWaitPolicy());
  }
  GTPL_CHECK(false) << "protocol without an engine factory";
  return nullptr;
}

}  // namespace gtpl::cc

namespace gtpl::proto {

RunResult RunSimulation(const SimConfig& config) {
  GTPL_CHECK(config.Validate().ok()) << config.Validate().ToString();
  if (config.sim_threads > 1) {
    // The conservative per-shard parallel engine (--sim-threads=N,
    // DESIGN.md §15); sim_threads == 1 keeps the legacy serial engines
    // below bit-identical.
    return RunParallelSimulation(config);
  }
  return cc::MakeEngine(config)->Run();
}

}  // namespace gtpl::proto
