#include "lease/lease.h"

namespace gtpl::lease {
namespace {

constexpr LeaseModeInfo kLeaseModes[] = {
    {"none", "leases disabled: every lock acquisition pays the WAN round",
     LeaseMode::kNone},
    {"sticky",
     "sticky site leases with callback revocation: repeat acquisitions "
     "hit the client cache for zero flights",
     LeaseMode::kSticky},
};

constexpr NameTable<LeaseModeInfo> kLeaseModeTable("lease mode", kLeaseModes);

}  // namespace

const char* ToString(LeaseMode mode) { return kLeaseModeTable.For(mode).name; }

const NameTable<LeaseModeInfo>& LeaseModes() { return kLeaseModeTable; }

}  // namespace gtpl::lease
