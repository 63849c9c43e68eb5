// Runs one benchmark workload through proto::RunSimulation and prints one
// JSON object of raw measurements on stdout; perfbench/run.py turns those
// into the benchmark's metrics. The same source links into two binaries:
// perfbench_e2e (no interposition) and perfbench_traced (wrappers.cc), so
// only the link differs between the untraced and traced passes.
//
//   perfbench_e2e --workload NAME --seed N --mode MODE [--seconds S]
//                 [--count N]
//
// Modes:
//   e2e     measured replications for --seconds, each followed by set-up
//           probes, then the correctness gate (same-seed determinism and, with
//           record_history, HistoryIsSerializable)
//   reps    replications 0..count-1 (--count), or as many as fit in
//           --seconds, with per-site span totals
//   stream  one short replication untraced and one streaming its trace to
//           a file under the working directory (deleted afterwards)

#include <sched.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "protocols/engine.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

using gtpl::proto::RunResult;
using gtpl::proto::SimConfig;

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Peak resident set of this process in kB (VmHWM), or -1 if unreadable.
int64_t PeakRssKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stoll(line.substr(6));
    }
  }
  return -1;
}

// CPU placement. On a shared host, co-tenants slow single vCPUs by up to
// half for seconds at a time, each vCPU independently of the others, and
// deschedule them outright. Before every replication the runner restricts
// itself to the one CPU that currently runs a fixed integer loop fastest,
// so a slow regime on one vCPU cannot fill a whole run. Threads the engine
// starts inherit the restriction: the parallel engine's threads then take
// turns on that CPU, and its wall time measures the engine's work and
// synchronization rather than how well the host co-schedules two vCPUs.

/// The CPUs this process was allowed to run on when it started.
const std::vector<int>& AllowedCpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> allowed;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &set)) allowed.push_back(cpu);
      }
    }
    return allowed;
  }();
  return cpus;
}

bool RestrictTo(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

volatile uint64_t spin_sink = 0;  // keeps the probe loop from folding away

/// Best of three timings of a fixed dependent integer loop, in ns.
double SpinProbeNs() {
  double best = 0.0;
  for (int round = 0; round < 3; ++round) {
    const int64_t start = NowNs();
    uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (int i = 0; i < 100000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    spin_sink = x;
    const double ns = static_cast<double>(NowNs() - start);
    if (round == 0 || ns < best) best = ns;
  }
  return best;
}

/// Restricts the process to the currently fastest allowed CPU.
void PinToQuietestCpu() {
  const std::vector<int>& allowed = AllowedCpus();
  if (allowed.size() <= 1) return;
  double best_ns = 0.0;
  int best_cpu = -1;
  for (int cpu : allowed) {
    if (!RestrictTo({cpu})) continue;
    const double ns = SpinProbeNs();
    if (best_cpu < 0 || ns < best_ns) {
      best_ns = ns;
      best_cpu = cpu;
    }
  }
  if (best_cpu < 0 || !RestrictTo({best_cpu})) RestrictTo(allowed);
}

struct Timed {
  RunResult result;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

Timed RunTimed(const SimConfig& config) {
  Timed timed;
  const double cpu0 = CpuSeconds();
  const double wall0 = WallSeconds();
  {
    ScopedSpan span(Site::kRun);
    timed.result = gtpl::proto::RunSimulation(config);
  }
  timed.wall_s = WallSeconds() - wall0;
  timed.cpu_s = CpuSeconds() - cpu0;
  return timed;
}

std::string Num(double value) {
  std::ostringstream out;
  out.precision(17);
  out << value;
  return out.str();
}

std::string Quote(const std::string& text) { return "\"" + text + "\""; }

std::string ReplicationJson(uint64_t seed, const Timed& timed) {
  const RunResult& r = timed.result;
  uint64_t max_lp_events = 0;
  uint64_t sum_lp_events = 0;
  for (uint64_t events : r.shard_events) {
    max_lp_events = std::max(max_lp_events, events);
    sum_lp_events += events;
  }
  return "{\"seed\":" + std::to_string(seed) +
         ",\"wall_s\":" + Num(timed.wall_s) +
         ",\"cpu_s\":" + Num(timed.cpu_s) +
         ",\"commits\":" + std::to_string(r.commits) +
         ",\"total_commits\":" + std::to_string(r.total_commits) +
         ",\"events\":" + std::to_string(r.events) +
         ",\"messages\":" + std::to_string(r.network.messages) +
         ",\"response_mean\":" + Num(r.response.mean()) +
         ",\"timed_out\":" + (r.timed_out ? "true" : "false") +
         ",\"lps\":" + std::to_string(r.shard_events.size()) +
         ",\"sync_windows\":" + std::to_string(r.sync_windows) +
         ",\"sync_stalls\":" + std::to_string(r.sync_stalls) +
         ",\"max_lp_events\":" + std::to_string(max_lp_events) +
         ",\"sum_lp_events\":" + std::to_string(sum_lp_events) +
         ",\"digest\":" + Quote(Digest(r)) + "}";
}

std::string TotalsJson(const Totals& totals) {
  std::string out = "{";
  for (int i = 0; i < kNumSites; ++i) {
    const SiteTotals& t = totals[static_cast<size_t>(i)];
    if (i > 0) out += ",";
    out += Quote(InfoOf(static_cast<Site>(i)).name) + ":{\"layer\":" +
           Quote(InfoOf(static_cast<Site>(i)).layer) +
           ",\"calls\":" + std::to_string(t.calls) +
           ",\"inclusive_ns\":" + std::to_string(t.inclusive_ns) +
           ",\"self_ns\":" + std::to_string(t.self_ns) +
           ",\"hits\":" + std::to_string(t.hits) + "}";
  }
  return out + "}";
}

std::string Join(const std::vector<std::string>& parts) {
  std::string out = "[";
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += ",";
    out += parts[i];
  }
  return out + "]";
}

/// One set-up probe: the workload's configuration at one measured commit
/// and no warmup, so its time is dominated by building and tearing down
/// the engine.
double SetupProbe(const Workload& workload, uint64_t seed) {
  return RunTimed(MakeConfig(workload, seed, 1)).wall_s;
}

/// Replications ReplicationSeed(seed, 0..): exactly `count` when count > 0,
/// else at least `min_count` and until `seconds` have elapsed. With
/// `probes` set, each replication is followed by set-up probes worth about
/// a tenth of its time, so the probes sample the host over the whole run
/// rather than over one instant of it.
std::vector<std::string> Replications(const Workload& workload, uint64_t seed,
                                      int64_t count, double seconds,
                                      int64_t min_count,
                                      std::vector<std::string>* probes) {
  constexpr int kMaxProbesPerReplication = 100;
  std::vector<std::string> reps;
  const double start = WallSeconds();
  for (int64_t i = 0;; ++i) {
    if (count > 0 ? i >= count
                  : i >= min_count && WallSeconds() - start >= seconds) {
      break;
    }
    const uint64_t rep_seed = ReplicationSeed(seed, i);
    PinToQuietestCpu();
    const Timed timed =
        RunTimed(MakeConfig(workload, rep_seed, workload.measured_txns));
    reps.push_back(ReplicationJson(rep_seed, timed));
    if (probes == nullptr) continue;
    double probed = 0.0;
    for (int p = 0; p < kMaxProbesPerReplication && probed < 0.1 * timed.wall_s;
         ++p) {
      const double probe = SetupProbe(workload, rep_seed);
      probes->push_back(Num(probe));
      probed += probe;
    }
  }
  return reps;
}

/// The correctness gate on short replications of seed `seed`: two plain
/// runs and one recording its history must agree on the digest, none may
/// time out, and the history must be serializable.
std::string Gate(const Workload& workload, uint64_t seed) {
  const SimConfig config = MakeConfig(workload, seed, kCheckTxns);
  const RunResult first = gtpl::proto::RunSimulation(config);
  const RunResult second = gtpl::proto::RunSimulation(config);
  SimConfig history_config = config;
  history_config.record_history = true;
  const RunResult history = gtpl::proto::RunSimulation(history_config);
  std::string explanation;
  const bool serializable =
      gtpl::proto::HistoryIsSerializable(history.history, &explanation);
  if (!serializable) {
    std::cerr << "history not serializable: " << explanation << "\n";
  }
  const bool deterministic =
      Digest(first) == Digest(second) && Digest(first) == Digest(history);
  const bool timed_out =
      first.timed_out || second.timed_out || history.timed_out;
  return "{\"deterministic\":" + std::string(deterministic ? "true" : "false") +
         ",\"serializable\":" + (serializable ? "true" : "false") +
         ",\"timed_out\":" + (timed_out ? "true" : "false") +
         ",\"history_commits\":" + std::to_string(history.history.size()) +
         ",\"digest\":" + Quote(Digest(first)) + "}";
}

/// One short replication untraced, then the same one streaming its
/// observability trace to disk.
std::string StreamPass(const Workload& workload, uint64_t seed) {
  const SimConfig config = MakeConfig(workload, seed, kCheckTxns);
  PinToQuietestCpu();
  const Timed plain = RunTimed(config);
  SimConfig streamed = config;
  streamed.obs_trace = true;
  streamed.trace_stream_path = "perfbench_stream.jsonl.tmp";
  const Timed traced = RunTimed(streamed);
  std::remove(streamed.trace_stream_path.c_str());
  return "{\"plain_wall_s\":" + Num(plain.wall_s) +
         ",\"stream_wall_s\":" + Num(traced.wall_s) +
         ",\"stream_bytes\":" +
         std::to_string(traced.result.trace_stream_bytes) +
         ",\"total_commits\":" + std::to_string(traced.result.total_commits) +
         ",\"plain_digest\":" + Quote(Digest(plain.result)) +
         ",\"stream_digest\":" + Quote(Digest(traced.result)) + "}";
}

int Usage(const std::string& error) {
  std::cerr << "perfbench runner: " << error << "\n"
            << "usage: --workload NAME --seed N --mode e2e|reps|stream "
               "[--seconds S] [--count N]\n";
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload_name;
  std::string mode;
  uint64_t seed = 0;
  double seconds = 0.0;
  int64_t count = 0;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        workload_name = value;
      } else if (flag == "--mode") {
        mode = value;
      } else if (flag == "--seed") {
        seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        seconds = std::stod(value);
      } else if (flag == "--count") {
        count = std::stoll(value);
      } else {
        return Usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      return Usage("malformed value for " + flag + ": " + value);
    }
  }
  const Workload* workload = FindWorkload(workload_name);
  if (workload == nullptr) {
    return Usage("unknown workload '" + workload_name + "'");
  }
  if (!have_seed) return Usage("--seed is required");
  if (seconds < 0.0 || count < 0) return Usage("negative --seconds or --count");

  std::string out = "{\"workload\":" + Quote(workload->name);
  if (mode == "e2e") {
    std::vector<std::string> probes;
    out += ",\"reps\":" +
           Join(Replications(*workload, seed, 0, seconds, 3, &probes));
    out += ",\"setup_s\":" + Join(probes);
    out += ",\"gate\":" + Gate(*workload, ReplicationSeed(seed, 0));
  } else if (mode == "reps") {
    if (count == 0 && seconds <= 0.0) {
      return Usage("reps needs --count or --seconds");
    }
    ResetTotals();
    out += ",\"reps\":" +
           Join(Replications(*workload, seed, count, seconds, 1, nullptr));
    out += ",\"sites\":" + TotalsJson(CollectTotals());
  } else if (mode == "stream") {
    out += ",\"stream\":" + StreamPass(*workload, ReplicationSeed(seed, 0));
  } else {
    return Usage("unknown mode '" + mode + "'");
  }
  out += ",\"peak_rss_kb\":" + std::to_string(PeakRssKb()) + "}";
  std::cout << out << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
