#ifndef GTPL_CC_REGISTRY_H_
#define GTPL_CC_REGISTRY_H_

#include <memory>

#include "protocols/engine.h"

namespace gtpl::cc {

/// Builds the serial engine that runs `config.protocol`. The engine table
/// (proto::Engines(), protocols/config.h) names and describes every engine;
/// this is the one switch over Protocol that constructs them, so -Wswitch
/// flags an enumerator without a factory. proto::RunSimulation calls it
/// whenever sim_threads == 1.
std::unique_ptr<proto::EngineBase> MakeEngine(const proto::SimConfig& config);

}  // namespace gtpl::cc

#endif  // GTPL_CC_REGISTRY_H_
