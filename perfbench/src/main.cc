// perfbench: host wall-clock benchmark of the model checker.
//
//   perfbench --config <workload.conf> --seconds <s> --trace <0|1>
//             [--trace-out <spans.json>]
//
// Untraced (--trace 0): repeats the workload — Mcfs::Create + Mcfs::Run,
// or for a swarm workload a loopback FrameServer + Swarm::Run — until
// --seconds have passed, and reports the end-to-end metrics as medians
// over the repetitions.
// Traced (--trace 1): alternates untraced repetitions with traced ones
// (TimedSystem between explorer and engine, TimedStore in front of the
// remote visited store), records one untraced solo repetition with the
// engine's trace cap lifted and replays its complete history on a fresh
// pair, fills the rest of --seconds with untraced repetitions, and
// reports the per-layer metrics.
// Either way the last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "config.h"
#include "mc/sharded_table.h"
#include "mc/swarm.h"
#include "mcfs/harness.h"
#include "net/remote_store.h"
#include "net/server.h"
#include "net/visited_service.h"
#include "replay.h"
#include "timed.h"
#include "tracer.h"

namespace perfbench {
namespace {

using mcfs::core::Mcfs;
using mcfs::core::McfsConfig;

// ---------------------------------------------------------------------
// Correctness gates. Every run and every explored or replayed operation
// is one attempt; each broken gate is one failure.

struct Gates {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void Attempt(std::uint64_t n) { attempted += n; }
  void Check(bool ok, const std::string& what) {
    if (ok) return;
    ++failed;
    if (failures.size() < 20) failures.push_back(what);
  }
};

// One repetition of a workload, from config to last explored op.
struct Rep {
  bool created = false;
  double setup_s = 0;
  double wall_s = 0;
  double sim_s = 0;
  std::uint64_t ops = 0;
  std::uint64_t unique = 0;
  std::uint64_t crash_states = 0;
};

// Set-up-only samples an untraced run takes before its repetitions.
constexpr int kSetupSamples = 10;
// Repetitions an untraced run makes even once --seconds are spent, so
// the median has three values and the repeat gate has something to
// compare.
constexpr std::size_t kMinReps = 3;
// Traced repetitions a traced run keeps at most; a swarm repetition
// records a few hundred thousand spans.
constexpr std::size_t kMaxTracedReps = 3;

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile of span durations, in microseconds.
double PercentileUs(std::vector<Nanos> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return static_cast<double>(v[std::max<std::size_t>(rank, 1) - 1]) / 1e3;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double Seconds(Nanos ns) { return static_cast<double>(ns) / 1e9; }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------
// Solo workloads.

// A clean pair must explore without any finding.
void CheckClean(const mcfs::mc::ExploreStats& stats,
                const mcfs::core::EngineCounters& counters, Gates* gates) {
  gates->Check(!stats.violation_found, "violation: " + stats.violation_report);
  gates->Check(counters.corruption_events == 0, "corruption events");
  gates->Check(counters.discrepancies == 0, "discrepancies");
}

Rep FromStats(const mcfs::mc::ExploreStats& stats,
              const mcfs::core::EngineCounters& counters) {
  Rep rep;
  rep.created = true;
  rep.wall_s = stats.wall_seconds;
  rep.sim_s = stats.sim_seconds;
  rep.ops = stats.operations;
  rep.unique = stats.unique_states;
  rep.crash_states = counters.crash_states_checked;
  return rep;
}

// The untraced path: exactly what a user of the library runs.
Rep RunSolo(const Workload& w, Gates* gates) {
  const Nanos t0 = NowNs();
  auto created = Mcfs::Create(w.mcfs);
  const Nanos t1 = NowNs();
  gates->Attempt(1);
  if (!created.ok()) {
    gates->Check(false, "Mcfs::Create failed");
    return {};
  }
  const mcfs::core::McfsReport report = created.value()->Run();
  Rep rep = FromStats(report.stats, report.counters);
  rep.setup_s = Seconds(t1 - t0);
  gates->Attempt(rep.ops);
  CheckClean(report.stats, report.counters, gates);
  return rep;
}

// Counters a solo history run reads from the stack's own accessors.
struct SoloLayers {
  mcfs::core::EngineCounters counters;
  mcfs::mc::ExploreStats stats;
  std::uint64_t exclusive_peak = 0;
  // kind -> {bytes_read, bytes_written, flushes} accumulated over the run
  std::map<std::string, std::array<std::uint64_t, 3>> storage;
  std::uint64_t dcache_hits = 0, dcache_lookups = 0;
  std::uint64_t icache_hits = 0, icache_lookups = 0;
  mcfs::core::Trace history;
  bool history_complete = false;
};

struct StackSample {
  std::map<std::string, std::array<std::uint64_t, 3>> storage;
  std::uint64_t dh = 0, dl = 0, ih = 0, il = 0;
};

StackSample Sample(Mcfs& m) {
  StackSample s;
  for (mcfs::core::FsUnderTest* fut : {&m.fs_a(), &m.fs_b()}) {
    if (mcfs::storage::BlockDevice* dev = fut->device(); dev != nullptr) {
      auto& row = s.storage[KindTag(fut->config().kind)];
      row[0] += dev->stats().bytes_read;
      row[1] += dev->stats().bytes_written;
      row[2] += dev->stats().flushes;
    }
    const auto& d = fut->vfs().dcache().stats();
    const auto& i = fut->vfs().icache().stats();
    s.dh += d.hits;
    s.dl += d.hits + d.misses;
    s.ih += i.hits;
    s.il += i.hits + i.misses;
  }
  return s;
}

// The same config explored through TimedSystem. Without `layers` this
// is a traced repetition: its spans go under the root `mc.explorer`,
// tagged `run`. With `layers` it is the history repetition: the tracer
// stays off, the engine's trace cap is lifted so its trace is the
// complete history, and the stack's counters are read into `layers`.
Rep RunSoloTimed(const Workload& w, std::uint32_t run, Gates* gates,
                 SoloLayers* layers) {
  McfsConfig config = w.mcfs;
  if (layers != nullptr) {
    config.engine.trace_cap = 4 * config.explore.max_operations + 64;
  }
  const Nanos t0 = NowNs();
  auto created = Mcfs::Create(config);
  const Nanos t1 = NowNs();
  gates->Attempt(1);
  if (!created.ok()) {
    gates->Check(false, "Mcfs::Create failed (traced)");
    return {};
  }
  Mcfs& m = *created.value();
  const StackSample before = Sample(m);

  mcfs::mc::ExplorerOptions options = config.explore;
  options.clock = &m.clock();
  if (m.memory() != nullptr) options.memory = m.memory();
  TimedSystem timed(m.engine());
  Tracer& tracer = Tracer::Get();
  const std::uint32_t root = tracer.Name("mc.explorer");
  tracer.set_run(run);
  tracer.set_enabled(layers == nullptr);
  mcfs::mc::ExploreStats stats;
  {
    Scope scope(root);
    mcfs::mc::Explorer explorer(timed, options);
    stats = explorer.Run();
  }
  tracer.set_enabled(false);

  Rep rep = FromStats(stats, m.engine().counters());
  rep.setup_s = Seconds(t1 - t0);
  gates->Attempt(rep.ops);
  CheckClean(stats, m.engine().counters(), gates);
  if (layers == nullptr) return rep;

  const StackSample after = Sample(m);
  layers->counters = m.engine().counters();
  layers->stats = stats;
  layers->exclusive_peak = timed.exclusive_bytes_peak();
  layers->storage.clear();
  for (const auto& [kind, row] : after.storage) {
    const auto& base = before.storage.at(kind);
    layers->storage[kind] = {row[0] - base[0], row[1] - base[1],
                             row[2] - base[2]};
  }
  layers->dcache_hits = after.dh - before.dh;
  layers->dcache_lookups = after.dl - before.dl;
  layers->icache_hits = after.ih - before.ih;
  layers->icache_lookups = after.il - before.il;
  layers->history = m.engine().trace();
  layers->history_complete = layers->history.size() < config.engine.trace_cap;
  return rep;
}

// ---------------------------------------------------------------------
// The remote swarm workload.

struct SwarmLayers {
  mcfs::mc::SwarmResult result;
  double worker_wall_s = 0;  // summed over workers
  mcfs::net::RemoteVisitedStore::CoalesceStats coalesce;
};

// A swarm worker whose engine is seen through a TimedSystem.
class TimedInstance final : public mcfs::mc::SwarmInstance {
 public:
  explicit TimedInstance(std::unique_ptr<Mcfs> mcfs)
      : mcfs_(std::move(mcfs)), timed_(mcfs_->engine()) {}
  mcfs::mc::System& system() override { return timed_; }
  mcfs::SimClock* clock() override { return &mcfs_->clock(); }

 private:
  std::unique_ptr<Mcfs> mcfs_;
  TimedSystem timed_;
};

// The swarm's shared store: a reactor FrameServer serving an in-process
// table on a loopback port, and one RemoteVisitedStore connection to it.
struct LoopbackStore {
  mcfs::mc::ShardedVisitedTable table;
  mcfs::net::VisitedService service{&table};
  mcfs::net::FrameServer server{{&service}};
  std::unique_ptr<mcfs::net::RemoteVisitedStore> remote;

  bool Start() {
    mcfs::net::Endpoint loopback;
    loopback.host = "127.0.0.1";
    loopback.port = 0;
    if (!server.Start(loopback).ok()) return false;
    remote = std::make_unique<mcfs::net::RemoteVisitedStore>(server.endpoint());
    return true;
  }
};

// Set-up alone, from config to the first explorable state: both stacks
// built (mkfs, mount, free-space equalize), plus for a swarm the server
// start and every worker's stack. Negative when set-up fails.
double SetupOnce(const Workload& w) {
  const Nanos t0 = NowNs();
  if (w.workers == 0) {
    return Mcfs::Create(w.mcfs).ok() ? Seconds(NowNs() - t0) : -1;
  }
  LoopbackStore store;
  if (!store.Start()) return -1;
  const mcfs::mc::SwarmFactory factory =
      mcfs::core::MakeMcfsSwarmFactory(w.mcfs);
  // Kept alive past the clock read: tearing them down is not set-up.
  std::vector<std::unique_ptr<mcfs::mc::SwarmInstance>> workers;
  for (int i = 0; i < w.workers; ++i) workers.push_back(factory(i));
  return Seconds(NowNs() - t0);
}

Rep RunSwarm(const Workload& w, bool traced, std::uint32_t run, Gates* gates,
             SwarmLayers* layers) {
  gates->Attempt(1);
  const Nanos t0 = NowNs();
  LoopbackStore store;
  if (!store.Start()) {
    gates->Check(false, "loopback FrameServer failed to start");
    return {};
  }
  mcfs::net::RemoteVisitedStore& remote = *store.remote;
  TimedStore timed_store(remote);
  const Nanos server_ns = NowNs() - t0;

  mcfs::mc::SwarmOptions options;
  options.workers = w.workers;
  options.base = w.mcfs.explore;
  options.base_seed = w.mcfs.explore.seed;
  options.cooperative = true;
  options.shared_store =
      traced ? static_cast<mcfs::mc::VisitedStore*>(&timed_store) : &remote;

  // Workers are built one after another on this thread before any of
  // them starts; their build time is set-up, not exploration.
  Nanos factory_ns = 0;
  const mcfs::mc::SwarmFactory plain =
      mcfs::core::MakeMcfsSwarmFactory(w.mcfs);
  const mcfs::mc::SwarmFactory factory =
      [&](int worker) -> std::unique_ptr<mcfs::mc::SwarmInstance> {
    const Nanos start = NowNs();
    std::unique_ptr<mcfs::mc::SwarmInstance> instance;
    if (traced) {
      auto created = Mcfs::Create(w.mcfs);
      if (!created.ok()) std::abort();  // as MakeMcfsSwarmFactory does
      instance = std::make_unique<TimedInstance>(std::move(created).value());
    } else {
      instance = plain(worker);
    }
    factory_ns += NowNs() - start;
    return instance;
  };

  Tracer& tracer = Tracer::Get();
  tracer.set_run(run);
  tracer.set_enabled(traced);
  const Nanos r0 = NowNs();
  mcfs::mc::SwarmResult result = mcfs::mc::Swarm(options).Run(factory);
  const Nanos r1 = NowNs();
  tracer.set_enabled(false);
  store.server.Stop();

  Rep rep;
  rep.created = true;
  rep.setup_s = Seconds(server_ns + factory_ns);
  rep.wall_s = Seconds(r1 - r0 - factory_ns);
  rep.ops = result.total_operations;
  rep.unique = result.merged_unique_states;
  for (const auto& stats : result.per_worker) {
    // Workers run in parallel, each on its own simulated clock.
    rep.sim_s = std::max(rep.sim_s, stats.sim_seconds);
    layers->worker_wall_s += stats.wall_seconds;
  }
  gates->Attempt(rep.ops);
  gates->Check(!result.any_violation,
               "violation: " + result.first_violation_report);
  gates->Check(result.merged_unique_states >= w.target_unique,
               "swarm stopped short of its unique-state target");
  gates->Check(result.store_degradations == 0, "store degraded");
  gates->Check(result.remote_rpc_failures == 0, "RPC failures");
  gates->Check(store.table.size() == result.merged_unique_states,
               "server table size differs from merged_unique_states");
  layers->coalesce = remote.coalesce_stats();
  layers->result = std::move(result);
  return rep;
}

// ---------------------------------------------------------------------
// Reporting.

struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

const char* const kKinds[] = {"verifs1", "verifs2", "ext2",
                              "ext4",    "xfs",     "jffs2"};
const char* const kDeviceKinds[] = {"ext2", "ext4", "xfs", "jffs2"};

// Every per-layer metric, zero unless the workload exercises the layer.
Metrics PerLayerSkeleton() {
  Metrics m;
  auto frac = [&m](const std::string& name) { m[name] = {0, "fraction"}; };
  for (const char* l : {"apply", "save", "restore", "discard", "hash",
                        "crash_check"}) {
    frac(std::string("mcfs.engine.") + l + "_frac");
  }
  for (const char* l : {"apply", "restore"}) {
    m[std::string("mcfs.engine.") + l + "_us.p50"] = {0, "us"};
    m[std::string("mcfs.engine.") + l + "_us.p99"] = {0, "us"};
    m[std::string("mcfs.engine.") + l + "_us.n"] = {0, "count"};
  }
  frac("mc.explorer.self_frac");
  for (const char* k : kKinds) {
    for (const char* l : {"op", "remount"}) {
      frac(std::string("fs.") + k + "." + l + "_frac");
    }
    for (const char* l : {"save", "restore", "discard"}) {
      frac(std::string("snapshot.") + k + "." + l + "_frac");
    }
  }
  frac("mcfs.abstraction.refresh_frac");
  frac("mcfs.checker.compare_frac");
  frac("replay.other_frac");
  m["mcfs.abstraction.nodes_rehashed_per_op"] = {0, "count/op"};
  m["mcfs.abstraction.full_recomputes"] = {0, "count"};
  m["mcfs.crash.states_per_check"] = {0, "count"};
  m["snapshot.exclusive_bytes_peak"] = {0, "bytes"};
  for (const char* k : kDeviceKinds) {
    m[std::string("storage.") + k + ".bytes_read_per_op"] = {0, "bytes/op"};
    m[std::string("storage.") + k + ".bytes_written_per_op"] = {0, "bytes/op"};
    m[std::string("storage.") + k + ".flushes_per_op"] = {0, "count/op"};
  }
  frac("vfs.dcache_hit_frac");
  frac("vfs.icache_hit_frac");
  frac("mc.visited.revisit_frac");
  m["mc.por.pruned_per_op"] = {0, "count/op"};
  m["net.store.insert_us.p50"] = {0, "us"};
  m["net.store.insert_us.p99"] = {0, "us"};
  m["net.store.insert_us.n"] = {0, "count"};
  frac("net.store.insert_frac");
  m["net.store.ops_per_wire_batch"] = {0, "count"};
  frac("mc.swarm.redundant_discovery_ratio");
  m["net.rpc_failures"] = {0, "count"};
  m["net.degradations"] = {0, "count"};
  frac("trace.replay_coverage_frac");
  m["trace.overhead_frac"] = {0, "fraction"};
  return m;
}

// Fills the explore-side split from `table`, whose runs together took
// `wall_ns` of explorer time, and prints it as a self-time table.
void ExploreSplit(const LayerTable& table, Nanos wall_ns, Metrics* m) {
  auto self = [&table](const std::string& name) {
    const auto it = table.self.find(name);
    return it == table.self.end() ? 0 : it->second;
  };
  const double wall = static_cast<double>(wall_ns);
  Nanos children = 0;
  std::printf("\nexplore split (self time, %.3f s of explorer wall time)\n",
              Seconds(wall_ns));
  auto row = [&](const std::string& span, const std::string& metric) {
    const Nanos ns = self(span);
    children += ns;
    (*m)[metric].value = Ratio(static_cast<double>(ns), wall);
    std::printf("  %-28s %10.3f ms  %6.2f%%\n", span.c_str(), ns / 1e6,
                100 * Ratio(static_cast<double>(ns), wall));
  };
  for (const char* l : {"apply", "save", "restore", "discard", "hash",
                        "crash_check"}) {
    row(std::string("mcfs.engine.") + l,
        std::string("mcfs.engine.") + l + "_frac");
  }
  row("net.store.insert", "net.store.insert_frac");
  // The explorer's own bookkeeping: its wall time minus every call into
  // the engine or the store.
  const Nanos explorer_self = wall_ns - children;
  (*m)["mc.explorer.self_frac"].value =
      Ratio(static_cast<double>(explorer_self), wall);
  std::printf("  %-28s %10.3f ms  %6.2f%%\n", "mc.explorer (self)",
              explorer_self / 1e6,
              100 * Ratio(static_cast<double>(explorer_self), wall));
  for (const char* l : {"apply", "restore"}) {
    const auto it = table.durations.find(std::string("mcfs.engine.") + l);
    if (it == table.durations.end()) continue;
    const std::string base = std::string("mcfs.engine.") + l + "_us";
    (*m)[base + ".p50"].value = PercentileUs(it->second, 0.50);
    (*m)[base + ".p99"].value = PercentileUs(it->second, 0.99);
    (*m)[base + ".n"].value = static_cast<double>(it->second.size());
  }
  const auto ins = table.durations.find("net.store.insert");
  if (ins != table.durations.end()) {
    (*m)["net.store.insert_us.p50"].value = PercentileUs(ins->second, 0.50);
    (*m)["net.store.insert_us.p99"].value = PercentileUs(ins->second, 0.99);
    (*m)["net.store.insert_us.n"].value =
        static_cast<double>(ins->second.size());
  }
}

// Fills the replay split: every replay span's self time over the replay
// root's duration.
void ReplaySplit(const LayerTable& table, Metrics* m) {
  const auto root = table.total.find("replay");
  if (root == table.total.end() || root->second <= 0) return;
  const double wall = static_cast<double>(root->second);
  std::printf("\nreplay split (self time, %.3f s of replay wall time)\n",
              Seconds(root->second));
  double covered = 0;
  for (const auto& [span, ns] : table.self) {
    const std::string metric =
        span == "replay" ? "replay.other_frac" : span + "_frac";
    const double frac = Ratio(static_cast<double>(ns), wall);
    if (m->count(metric) == 0) continue;
    (*m)[metric].value = frac;
    if (span != "replay") covered += frac;
    std::printf("  %-28s %10.3f ms  %6.2f%%\n", span.c_str(), ns / 1e6,
                100 * frac);
  }
  (*m)["trace.replay_coverage_frac"].value = covered;
}

void PrintJson(const Gates& gates, const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              gates.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(gates.attempted),
              static_cast<unsigned long long>(gates.failed));
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    const double v = std::isfinite(metric.value) ? metric.value : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), v, metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

struct Args {
  std::string config;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--config") {
      args->config = value;
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->config.empty() && args->seconds > 0;
}

void PrintRep(const char* label, const Rep& rep) {
  std::printf(
      "%-7s setup %.4f s  explore %.4f s  ops %llu  unique %llu  "
      "crash states %llu  wall ops/s %.1f\n",
      label, rep.setup_s, rep.wall_s, static_cast<unsigned long long>(rep.ops),
      static_cast<unsigned long long>(rep.unique),
      static_cast<unsigned long long>(rep.crash_states),
      Ratio(static_cast<double>(rep.ops), rep.wall_s));
}

// Solo repetitions of one config must agree exactly.
void CheckRepeat(const Workload& w, const Rep& first, const Rep& rep,
                 Gates* gates) {
  if (w.workers > 0 || !first.created || !rep.created) return;
  gates->Check(rep.ops == first.ops && rep.unique == first.unique &&
                   rep.crash_states == first.crash_states,
               "same-seed repeat changed operations, unique states or "
               "crash states");
}

// Medians over the repetitions; setup_s also over `setups`, the run's
// set-up-only samples.
Metrics EndToEnd(const std::vector<Rep>& reps, std::vector<double> setups) {
  std::vector<double> ops, unique_rate, unique, sim, checked;
  for (const Rep& r : reps) {
    if (!r.created) continue;
    setups.push_back(r.setup_s);
    ops.push_back(Ratio(static_cast<double>(r.ops), r.wall_s));
    unique_rate.push_back(Ratio(static_cast<double>(r.unique), r.wall_s));
    unique.push_back(static_cast<double>(r.unique));
    sim.push_back(Ratio(static_cast<double>(r.ops), r.sim_s));
    checked.push_back(
        Ratio(static_cast<double>(r.unique + r.crash_states), r.wall_s));
  }
  Metrics m;
  m["setup_s"] = {Median(setups), "s"};
  m["wall_ops_per_s"] = {Median(ops), "1/s"};
  m["unique_states_per_s"] = {Median(unique_rate), "1/s"};
  m["unique_states"] = {Median(unique), "count"};
  m["sim_ops_per_s"] = {Median(sim), "1/s"};
  m["checked_states_per_s"] = {Median(checked), "1/s"};
  m["peak_rss_mb"] = {PeakRssMb(), "MB"};
  return m;
}

Rep RunOnce(const Workload& w, bool traced, std::uint32_t run, Gates* gates,
            SwarmLayers* net) {
  if (w.workers > 0) {
    SwarmLayers scratch;
    return RunSwarm(w, traced, run, gates, net != nullptr ? net : &scratch);
  }
  return traced ? RunSoloTimed(w, run, gates, nullptr) : RunSolo(w, gates);
}

void PrintFailures(const Gates& gates) {
  for (const std::string& f : gates.failures) {
    std::printf("FAILED: %s\n", f.c_str());
  }
}

// --trace 0: set-up samples, then repetitions until the budget is spent;
// the end-to-end metrics are medians over them.
void UntracedRun(const Workload& w, Nanos budget, Gates* gates) {
  const Nanos start = NowNs();
  std::vector<double> setups;
  for (int i = 0; i < kSetupSamples; ++i) {
    const double s = SetupOnce(w);
    gates->Attempt(1);
    gates->Check(s >= 0, "set-up failed");
    if (s >= 0) setups.push_back(s);
  }
  std::vector<Rep> reps;
  while (reps.size() < kMinReps ||
         NowNs() - start < budget) {
    reps.push_back(RunOnce(w, false, 0, gates, nullptr));
    PrintRep("run", reps.back());
    CheckRepeat(w, reps.front(), reps.back(), gates);
    if (!reps.back().created) break;
  }
  const Metrics metrics = EndToEnd(reps, setups);
  std::printf("\n%zu repetitions; error_frac %.6f (%llu failed of %llu "
              "attempted)\n",
              reps.size(), Ratio(gates->failed, gates->attempted),
              static_cast<unsigned long long>(gates->failed),
              static_cast<unsigned long long>(gates->attempted));
  for (const auto& [name, metric] : metrics) {
    std::printf("  %-22s %14.4f %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
  PrintFailures(*gates);
  PrintJson(*gates, metrics);
}

// Counts the traced solo run read from the stack's accessors.
void SoloCounts(const SoloLayers& solo, Metrics* m) {
  const double ops =
      static_cast<double>(std::max<std::uint64_t>(solo.stats.operations, 1));
  (*m)["mcfs.abstraction.nodes_rehashed_per_op"].value =
      static_cast<double>(solo.counters.abstraction_nodes_rehashed) / ops;
  (*m)["mcfs.abstraction.full_recomputes"].value =
      static_cast<double>(solo.counters.abstraction_full_recomputes);
  (*m)["mcfs.crash.states_per_check"].value =
      Ratio(static_cast<double>(solo.counters.crash_states_checked),
            static_cast<double>(solo.counters.crash_checks));
  (*m)["snapshot.exclusive_bytes_peak"].value =
      static_cast<double>(solo.exclusive_peak);
  for (const auto& [kind, row] : solo.storage) {
    const std::string base = "storage." + kind + ".";
    (*m)[base + "bytes_read_per_op"].value = row[0] / ops;
    (*m)[base + "bytes_written_per_op"].value = row[1] / ops;
    (*m)[base + "flushes_per_op"].value = row[2] / ops;
  }
  (*m)["vfs.dcache_hit_frac"].value =
      Ratio(solo.dcache_hits, solo.dcache_lookups);
  (*m)["vfs.icache_hit_frac"].value =
      Ratio(solo.icache_hits, solo.icache_lookups);
  (*m)["mc.visited.revisit_frac"].value =
      Ratio(solo.stats.revisits, solo.stats.revisits + solo.stats.unique_states);
  (*m)["mc.por.pruned_per_op"].value =
      static_cast<double>(solo.stats.por_pruned_transitions) / ops;
}

void SwarmCounts(const SwarmLayers& net, Metrics* m) {
  const mcfs::mc::SwarmResult& r = net.result;
  (*m)["mc.visited.revisit_frac"].value =
      Ratio(r.total_revisits, r.total_revisits + r.summed_unique_states);
  (*m)["net.store.ops_per_wire_batch"].value =
      Ratio(net.coalesce.scalar_calls, net.coalesce.wire_batches);
  (*m)["mc.swarm.redundant_discovery_ratio"].value =
      r.redundant_discovery_ratio;
  (*m)["net.rpc_failures"].value = static_cast<double>(r.remote_rpc_failures);
  (*m)["net.degradations"].value = static_cast<double>(r.store_degradations);
}

// --trace 1: pairs of (untraced, traced) repetitions through the first
// half of the budget; for solo workloads one history repetition and its
// replay; then untraced repetitions for the rest of the budget, each one
// more pass of the repeat gate. Returns false when the span file cannot
// be written.
bool TracedRun(const Workload& w, Nanos budget, const std::string& trace_out,
               Gates* gates) {
  const Nanos start = NowNs();
  const bool swarm = w.workers > 0;
  Tracer& tracer = Tracer::Get();
  Metrics m = PerLayerSkeleton();
  std::map<std::uint32_t, std::string> runs;
  std::vector<std::uint32_t> traced_runs;
  std::vector<Rep> plain_reps, traced_reps;
  SoloLayers solo;
  SwarmLayers net;
  Nanos swarm_worker_wall = 0;
  while (traced_reps.empty() || (NowNs() - start < budget / 2 &&
                                 traced_reps.size() < kMaxTracedReps)) {
    plain_reps.push_back(RunOnce(w, false, 0, gates, nullptr));
    PrintRep("plain", plain_reps.back());
    const auto run = static_cast<std::uint32_t>(traced_reps.size() + 1);
    SwarmLayers swarm_layers;
    traced_reps.push_back(RunOnce(w, true, run, gates, &swarm_layers));
    PrintRep("traced", traced_reps.back());
    CheckRepeat(w, plain_reps.front(), plain_reps.back(), gates);
    CheckRepeat(w, plain_reps.front(), traced_reps.back(), gates);
    if (!plain_reps.back().created || !traced_reps.back().created) break;
    runs[run] = swarm ? "swarm" : "explore";
    traced_runs.push_back(run);
    if (swarm) {
      swarm_worker_wall += static_cast<Nanos>(swarm_layers.worker_wall_s * 1e9);
      net = std::move(swarm_layers);
    }
  }

  // Swarm::Run owns the worker threads, so a worker's explorer time comes
  // from its ExploreStats; a solo run has its own root span.
  const LayerTable explore = tracer.Aggregate(traced_runs);
  const auto root = explore.total.find("mc.explorer");
  const Nanos root_ns = root == explore.total.end() ? 0 : root->second;
  ExploreSplit(explore, swarm ? swarm_worker_wall : root_ns, &m);
  if (!swarm) {
    // The split's base is the root span; it must be the explorer's own
    // measure of its search, or the shares describe something else.
    double explore_s = 0;
    for (const Rep& r : traced_reps) explore_s += r.wall_s;
    gates->Check(std::abs(Seconds(root_ns) - explore_s) <= 0.05 * explore_s,
                 "explorer root span differs from ExploreStats::wall_seconds");
  }

  Rep history;
  if (swarm) {
    SwarmCounts(net, &m);
  } else if (plain_reps.back().created && traced_reps.back().created) {
    // (A repetition that could not be created already broke a gate.)
    history = RunSoloTimed(w, 0, gates, &solo);
    PrintRep("history", history);
    CheckRepeat(w, plain_reps.front(), history, gates);
    SoloCounts(solo, &m);
    // The replay gate: the complete history must reproduce on a fresh
    // pair, errno pair for errno pair.
    gates->Check(solo.history_complete, "engine history was trimmed");
    const std::uint32_t replay_run = 1000;
    runs[replay_run] = "replay";
    tracer.set_run(replay_run);
    tracer.set_enabled(true);
    const ReplayOutcome replay = ReplayHistory(w.mcfs, solo.history);
    tracer.set_enabled(false);
    gates->Attempt(1 + replay.records);
    gates->Check(replay.setup_ok, "replay pair could not be created");
    gates->Check(replay.mismatches == 0,
                 std::to_string(replay.mismatches) +
                     " replay mismatches, first at " + replay.first_mismatch);
    std::printf("\nreplayed %llu records (%llu ops), %llu mismatches\n",
                static_cast<unsigned long long>(replay.records),
                static_cast<unsigned long long>(replay.ops),
                static_cast<unsigned long long>(replay.mismatches));
    ReplaySplit(tracer.Aggregate({replay_run}), &m);
  }

  // Tracing overhead: each traced repetition against the untraced one
  // just before it (same config, same trace cap), so host drift over
  // the run cancels.
  auto rate = [](const Rep& r) {
    return Ratio(static_cast<double>(r.ops), r.wall_s);
  };
  std::vector<double> plain_rates, traced_over_plain;
  for (std::size_t i = 0; i < traced_reps.size(); ++i) {
    plain_rates.push_back(rate(plain_reps[i]));
    traced_over_plain.push_back(Ratio(rate(traced_reps[i]), plain_rates[i]));
  }
  const double plain_rate = Median(plain_rates);
  m["trace.overhead_frac"].value = 1 - Median(traced_over_plain);
  std::printf("\ntracing overhead: median over %zu (untraced, traced) pairs "
              "%+.2f%% (untraced median %.1f wall ops/s)\n",
              traced_reps.size(), 100 * m["trace.overhead_frac"].value,
              plain_rate);
  if (history.created) {
    // Not tracing: the history repetition only lifts the trace cap, which
    // spares Trace::TrimToLast's erase-from-front on every op.
    std::printf("lifted trace cap: history repetition %.1f wall ops/s, "
                "%+.2f%% vs the paired untraced median (1 run)\n",
                rate(history), 100 * (Ratio(rate(history), plain_rate) - 1));
  }

  while (NowNs() - start < budget) {
    plain_reps.push_back(RunOnce(w, false, 0, gates, nullptr));
    PrintRep("plain", plain_reps.back());
    CheckRepeat(w, plain_reps.front(), plain_reps.back(), gates);
    if (!plain_reps.back().created) break;
  }
  std::printf("replay coverage %.4f; error_frac %.6f\n",
              m["trace.replay_coverage_frac"].value,
              Ratio(gates->failed, gates->attempted));
  PrintFailures(*gates);
  if (!trace_out.empty() && !tracer.WriteJson(trace_out, runs, w.name)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", trace_out.c_str());
    return false;
  }
  PrintJson(*gates, m);
  return true;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --config <file> --seconds <s> "
                 "--trace <0|1> [--trace-out <file>]\n");
    return 2;
  }
  Workload w;
  std::string error;
  if (!LoadWorkload(args.config, &w, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }
  std::printf("workload %s: %s vs %s, %s, %d worker(s), trace %d\n",
              w.name.c_str(), KindTag(w.mcfs.fs_a.kind).c_str(),
              KindTag(w.mcfs.fs_b.kind).c_str(),
              w.workers > 0 ? "remote swarm" : "solo DFS",
              std::max(w.workers, 1), args.trace ? 1 : 0);
  Gates gates;
  const auto budget = static_cast<Nanos>(args.seconds * 1e9);
  if (!args.trace) {
    UntracedRun(w, budget, &gates);
    return 0;
  }
  return TracedRun(w, budget, args.trace_out, &gates) ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
