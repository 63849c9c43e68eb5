#include "protocols/commit.h"

namespace gtpl::proto {
namespace {

constexpr CommitPathInfo kCommitPaths[] = {
    {"classic", "client-coordinated 2PC, parallel prepare fan-out (default)",
     CommitPath::kClassic},
    {"early", "speculative prepare piggybacked on each shard's last operation",
     CommitPath::kEarly},
    {"fastpath", "one-round commit for single-write-shard transactions",
     CommitPath::kFastPath},
    {"coord", "per-txn coordinator placement: client vs write-heaviest server",
     CommitPath::kCoord},
};

constexpr NameTable<CommitPathInfo> kCommitPathTable("commit path",
                                                     kCommitPaths);

}  // namespace

const char* ToString(CommitPath path) {
  return kCommitPathTable.For(path).name;
}

const NameTable<CommitPathInfo>& CommitPaths() { return kCommitPathTable; }

int32_t ExpectedCommitFlights(CommitPath path, bool single_write_shard,
                              bool remote_coordinator) {
  switch (path) {
    case CommitPath::kClassic:
      return 2;  // prepare out + vote back
    case CommitPath::kEarly:
      return 0;  // every vote is home before the commit point
    case CommitPath::kFastPath:
      return single_write_shard ? 0 : 2;
    case CommitPath::kCoord:
      return remote_coordinator ? 4 : 2;  // + handoff and ack legs
  }
  return 2;
}

}  // namespace gtpl::proto
