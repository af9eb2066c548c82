// Swarm verification scaling — paper §2(iii)/§7: seed-diversified
// parallel verifiers jointly cover more of a large state space.
//
// Part 1 sweeps worker counts for the share-nothing (Spin-style) swarm
// and reports merged (union) coverage vs the best single worker.
//
// Part 2 compares the independent swarm against the cooperative swarm
// (shared lock-striped visited store): total operations for 4 workers to
// cover the same number of unique states a single worker reaches, plus
// the cross-worker redundant-discovery ratio. Cooperation prunes peer
// revisits, so the cooperative swarm needs strictly fewer operations.
// Part 2b demonstrates the work-stealing frontier (mc::SharedFrontier)
// on a *closed* state space, where the cooperative trade-offs invert:
// the random walk — the plain cooperative mode's workhorse — collapses
// near full coverage (reaching the last states of a closed ball is what
// walks are worst at), and partitioned DFS without stealing starves
// every late worker (DESIGN.md §7.1: their whole root subtree is
// peer-claimed, so they exhaust and retire having discovered nothing).
// Stealing fixes both: starved workers adopt donated branches and the
// swarm reaches the coverage target K with systematic-search economy.
// Ops-to-K is counted honestly — trail-replay actions are included —
// and the rows export steals, replay ops, frontier peak, idle time,
// and how many workers actually contributed discoveries.
//
// Part 3 measures the distributed swarm (DESIGN.md §7.3) over a
// loopback visited server: first raw remote-insert throughput, batched
// vs scalar — the round-trip amortization the batch API redesign
// exists for — then ops-to-K for two single-worker swarm "processes"
// sharing one visited server + frontier server versus one two-worker
// process with in-process sharing. Same total worker count, so the
// delta is the price (or not) of putting sockets in the middle.
//
// Part 4 seeds a VeriFS1 bug and measures that the first violation
// cancels all cooperative workers promptly (no budget burn, no hang).
//
// All figures are exported as benchmark counters, so
// --benchmark_format=json carries the full comparison.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "mcfs/harness.h"
#include "net/frontier_service.h"
#include "net/remote_frontier.h"
#include "net/remote_store.h"
#include "net/server.h"
#include "net/visited_service.h"

namespace {

using namespace mcfs;
using namespace mcfs::core;

McfsConfig VerifsPairConfig() {
  McfsConfig config;
  config.fs_a.kind = FsKind::kVerifs1;
  config.fs_a.strategy = StateStrategy::kIoctl;
  config.fs_b.kind = FsKind::kVerifs2;
  config.fs_b.strategy = StateStrategy::kIoctl;
  config.engine.pool = ParameterPool::Default();
  return config;
}

// ---------------------------------------------------------------------------
// Part 1: share-nothing scaling sweep (unchanged shape from the paper).

struct Row {
  std::uint64_t merged_unique = 0;
  std::uint64_t best_single = 0;
  std::uint64_t total_ops = 0;
  double wall_seconds = 0;
};

std::map<int, Row> g_rows;

void RunSwarm(benchmark::State& state, int workers) {
  for (auto _ : state) {
    mc::SwarmOptions options;
    options.workers = workers;
    options.base.mode = mc::SearchMode::kDfs;
    options.base.max_operations = 1500;
    options.base.max_depth = 9;
    // Full visited tables (not bitstate) so the merged union is exact.
    options.base_seed = 100;

    mc::Swarm swarm(options);
    const auto start = std::chrono::steady_clock::now();
    mc::SwarmResult result = swarm.Run(MakeMcfsSwarmFactory(VerifsPairConfig()));
    Row row;
    row.merged_unique = result.merged_unique_states;
    row.total_ops = result.total_operations;
    row.wall_seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
    for (const auto& stats : result.per_worker) {
      row.best_single = std::max(row.best_single, stats.unique_states);
    }
    g_rows[workers] = row;
    state.counters["merged_unique"] =
        static_cast<double>(row.merged_unique);
    state.counters["ops_per_wall_s"] =
        row.wall_seconds > 0
            ? static_cast<double>(row.total_ops) / row.wall_seconds
            : 0;
  }
}

// ---------------------------------------------------------------------------
// Part 2: independent vs cooperative, ops to cover K unique states.

struct CompareRow {
  std::uint64_t total_ops = 0;
  std::uint64_t merged_unique = 0;
  double redundant_discovery = 0;  // (summed - merged) / summed
  double revisit_ratio = 0;        // revisits / operations
  double wall_seconds = 0;
};

std::map<std::string, CompareRow> g_compare;
std::uint64_t g_target_states = 0;  // K, set by the single-worker run

constexpr std::uint64_t kSingleWorkerBudget = 1200;
constexpr int kCompareWorkers = 4;

CompareRow Summarize(const mc::SwarmResult& result, double wall) {
  CompareRow row;
  row.total_ops = result.total_operations;
  row.merged_unique = result.merged_unique_states;
  row.redundant_discovery = result.redundant_discovery_ratio;
  row.revisit_ratio =
      result.total_operations > 0
          ? static_cast<double>(result.total_revisits) /
                static_cast<double>(result.total_operations)
          : 0;
  row.wall_seconds = wall;
  return row;
}

void ExportCounters(benchmark::State& state, const CompareRow& row) {
  state.counters["ops_to_target"] = static_cast<double>(row.total_ops);
  state.counters["merged_unique"] = static_cast<double>(row.merged_unique);
  state.counters["redundant_discovery_ratio"] = row.redundant_discovery;
  state.counters["revisit_ratio"] = row.revisit_ratio;
}

void RunCompare(benchmark::State& state, const std::string& label,
                bool cooperative) {
  for (auto _ : state) {
    mc::SwarmOptions options;
    options.workers = label == "single" ? 1 : kCompareWorkers;
    options.cooperative = cooperative;
    options.base.mode = mc::SearchMode::kRandomWalk;
    options.base_seed = 500;
    if (label == "single") {
      options.base.max_operations = kSingleWorkerBudget;
    } else {
      // Stop at K states; the budget is only a hang backstop.
      options.base.max_operations = 16 * kSingleWorkerBudget;
      options.base.target_unique_states = g_target_states;
    }

    mc::Swarm swarm(options);
    const auto start = std::chrono::steady_clock::now();
    mc::SwarmResult result = swarm.Run(MakeMcfsSwarmFactory(VerifsPairConfig()));
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    g_compare[label] = Summarize(result, wall);
    if (label == "single") g_target_states = result.merged_unique_states;
    ExportCounters(state, g_compare[label]);
  }
}

// ---------------------------------------------------------------------------
// Part 2b: the work-stealing frontier on a closed state space.

// Tiny widened to three files and two fill bytes: a ~670-state closure
// that solo DFS exhausts in a few thousand operations, so "cover K"
// means "nearly finish the space" — the regime §7.1's starvation
// actually bites in.
McfsConfig ClosedBallConfig() {
  McfsConfig config;
  config.fs_a.kind = FsKind::kVerifs1;
  config.fs_a.strategy = StateStrategy::kIoctl;
  config.fs_b.kind = FsKind::kVerifs2;
  config.fs_b.strategy = StateStrategy::kIoctl;
  config.engine.pool = ParameterPool::Tiny();
  config.engine.pool.file_paths = {"/f0", "/f1", "/f2"};
  config.engine.pool.fill_bytes = {0x41, 0x42};
  return config;
}

constexpr std::uint64_t kStealSingleBudget = 4000;
constexpr std::uint32_t kStealDepth = 64;  // >> closure diameter

struct StealRow {
  std::uint64_t total_ops = 0;  // includes replay ops
  std::uint64_t merged_unique = 0;
  bool reached_target = false;
  std::uint64_t steals = 0;
  std::uint64_t steal_replay_ops = 0;
  std::uint64_t frontier_peak = 0;
  double steal_wait_seconds = 0;
  int contributing_workers = 0;  // workers that discovered any state
  double wall_seconds = 0;
};

std::map<std::string, StealRow> g_steal;
std::uint64_t g_steal_target = 0;  // K2, set by the single-DFS run

void RunStealCompare(benchmark::State& state, const std::string& label,
                     mc::SearchMode mode, bool steal) {
  for (auto _ : state) {
    mc::SwarmOptions options;
    options.workers = label == "single-dfs" ? 1 : kCompareWorkers;
    options.cooperative = label != "single-dfs";
    options.steal_work = steal;
    options.base.mode = mode;
    options.base.max_depth = kStealDepth;
    options.base_seed = 500;
    if (label == "single-dfs") {
      options.base.max_operations = kStealSingleBudget;
    } else {
      // Generous backstop: the walk row is *expected* to burn it without
      // reaching K — that failure is the result being measured.
      options.base.max_operations = 10 * kStealSingleBudget;
      options.base.target_unique_states = g_steal_target;
    }

    mc::Swarm swarm(options);
    const auto start = std::chrono::steady_clock::now();
    mc::SwarmResult result =
        swarm.Run(MakeMcfsSwarmFactory(ClosedBallConfig()));
    StealRow row;
    row.total_ops = result.total_operations + result.steal_replay_ops;
    row.merged_unique = result.merged_unique_states;
    row.reached_target = label == "single-dfs" ||
                         result.merged_unique_states >= g_steal_target;
    row.steals = result.steals;
    row.steal_replay_ops = result.steal_replay_ops;
    row.frontier_peak = result.frontier_peak;
    row.steal_wait_seconds = result.steal_wait_seconds;
    for (const auto& stats : result.per_worker) {
      if (stats.unique_states > 0) ++row.contributing_workers;
    }
    row.wall_seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
    g_steal[label] = row;
    if (label == "single-dfs") g_steal_target = result.merged_unique_states;

    state.counters["ops_to_target"] = static_cast<double>(row.total_ops);
    state.counters["merged_unique"] = static_cast<double>(row.merged_unique);
    state.counters["reached_target"] = row.reached_target ? 1 : 0;
    state.counters["steals"] = static_cast<double>(row.steals);
    state.counters["steal_replay_ops"] =
        static_cast<double>(row.steal_replay_ops);
    state.counters["frontier_peak"] =
        static_cast<double>(row.frontier_peak);
    state.counters["steal_wait_seconds"] = row.steal_wait_seconds;
    state.counters["contributing_workers"] =
        static_cast<double>(row.contributing_workers);
  }
}

// ---------------------------------------------------------------------------
// Part 3: the distributed swarm over a loopback visited server.

constexpr std::uint64_t kRemoteInsertDigests = 20'000;

std::map<int, double> g_remote_insert;  // batch size -> inserts per second

// Inserts kRemoteInsertDigests unique digests through a
// RemoteVisitedStore in batches of `batch` (batch 1 = the scalar API:
// one full round-trip per digest).
void RunRemoteInsertThroughput(benchmark::State& state, int batch) {
  for (auto _ : state) {
    mc::ShardedVisitedTable table;
    net::VisitedService service(&table);
    net::FrameServer server({&service});
    net::Endpoint loopback;
    loopback.host = "127.0.0.1";
    loopback.port = 0;
    if (!server.Start(loopback).ok()) {
      state.SkipWithError("failed to bind loopback server");
      return;
    }
    net::RemoteVisitedStore store(server.endpoint());

    std::vector<Md5Digest> digests(static_cast<std::size_t>(batch));
    const auto start = std::chrono::steady_clock::now();
    std::uint64_t sent = 0;
    while (sent < kRemoteInsertDigests) {
      const std::size_t n = static_cast<std::size_t>(
          std::min<std::uint64_t>(batch, kRemoteInsertDigests - sent));
      for (std::size_t i = 0; i < n; ++i) {
        Md5 md5;
        md5.UpdateU64(sent + i);
        digests[i] = md5.Final();
      }
      store.InsertBatch(std::span<const Md5Digest>(digests.data(), n));
      sent += n;
    }
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    server.Stop();

    const double rate =
        wall > 0 ? static_cast<double>(kRemoteInsertDigests) / wall : 0;
    g_remote_insert[batch] = rate;
    state.counters["inserts_per_s"] = rate;
    state.counters["degradations"] =
        static_cast<double>(store.health().degrade_events);
    if (table.size() != kRemoteInsertDigests) {
      state.SkipWithError("remote table lost digests");
    }
  }
}

// Connection scaling (DESIGN.md §7.9): N single-connection clients
// hammer scalar inserts at one visited server. The epoll reactor serves
// every row from one loop thread, however many connections. Scalar
// (batch-1) traffic on purpose: per-connection round-trip handling is
// what the serving model decides. BENCH_net.json keeps the historical
// comparison against the deleted thread-per-connection model.
constexpr std::uint64_t kConnScaleInserts = 8192;  // total, split evenly

struct ConnRow {
  double inserts_per_s = 0;
  int serving_threads = 0;
};

std::map<int, ConnRow> g_conn;  // workers -> row

void RunConnScaling(benchmark::State& state, int workers) {
  for (auto _ : state) {
    mc::ShardedVisitedTable table;
    net::VisitedService service(&table);
    net::FrameServer server({&service});
    net::Endpoint loopback;
    loopback.host = "127.0.0.1";
    loopback.port = 0;
    if (!server.Start(loopback).ok()) {
      state.SkipWithError("failed to bind loopback server");
      return;
    }

    const std::uint64_t per_worker =
        kConnScaleInserts / static_cast<std::uint64_t>(workers);
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> clients;
    for (int w = 0; w < workers; ++w) {
      clients.emplace_back([&, w] {
        // Own store object = own connection, as separate processes
        // would hold. Scalar inserts: one round-trip each on the wire.
        net::RemoteVisitedStore store(server.endpoint());
        for (std::uint64_t i = 0; i < per_worker; ++i) {
          Md5 md5;
          md5.UpdateU64(static_cast<std::uint64_t>(w) * 10'000'000 + i);
          store.Insert(md5.Final());
        }
      });
    }
    // Sample the serving-thread count mid-storm (the reactor's <=2).
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const int serving = server.serving_threads();
    for (auto& client : clients) client.join();
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    server.Stop();

    ConnRow row;
    row.inserts_per_s =
        wall > 0 ? static_cast<double>(per_worker) *
                       static_cast<double>(workers) / wall
                 : 0;
    row.serving_threads = serving;
    g_conn[workers] = row;
    state.counters["inserts_per_s"] = row.inserts_per_s;
    state.counters["serving_threads"] = static_cast<double>(serving);
    if (table.size() != per_worker * static_cast<std::uint64_t>(workers)) {
      state.SkipWithError("conn-scale table lost digests");
    }
  }
}

// Ops-to-K on the Part 2b closed ball: "solo" = one process, two
// workers, in-process sharing; "distributed" = two concurrent
// single-worker processes (separate client objects, as separate OS
// processes would hold) sharing a visited server and a frontier server
// over loopback sockets.
std::map<std::string, StealRow> g_dist;

void RunDistributedSolo(benchmark::State& state) {
  for (auto _ : state) {
    mc::SwarmOptions options;
    options.workers = 2;
    options.cooperative = true;
    options.steal_work = true;
    options.base.mode = mc::SearchMode::kDfs;
    options.base.max_depth = kStealDepth;
    options.base.max_operations = 10 * kStealSingleBudget;
    options.base.target_unique_states = g_steal_target;
    options.base_seed = 500;

    mc::Swarm swarm(options);
    const auto start = std::chrono::steady_clock::now();
    mc::SwarmResult result =
        swarm.Run(MakeMcfsSwarmFactory(ClosedBallConfig()));
    StealRow row;
    row.total_ops = result.total_operations + result.steal_replay_ops;
    row.merged_unique = result.merged_unique_states;
    row.reached_target = result.merged_unique_states >= g_steal_target;
    row.steals = result.steals;
    row.wall_seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
    g_dist["solo-1proc-2w"] = row;
    state.counters["ops_to_target"] = static_cast<double>(row.total_ops);
    state.counters["reached_target"] = row.reached_target ? 1 : 0;
  }
}

void RunDistributedPair(benchmark::State& state) {
  for (auto _ : state) {
    mc::ShardedVisitedTable table;
    net::VisitedService visited_service(&table);
    net::FrameServer visited_server({&visited_service});
    mc::SharedFrontier frontier(/*workers=*/2);
    net::FrontierService frontier_service(&frontier);
    net::FrameServer frontier_server({&frontier_service});
    net::Endpoint loopback;
    loopback.host = "127.0.0.1";
    loopback.port = 0;
    if (!visited_server.Start(loopback).ok() ||
        !frontier_server.Start(loopback).ok()) {
      state.SkipWithError("failed to bind loopback servers");
      return;
    }

    const auto start = std::chrono::steady_clock::now();
    std::vector<mc::SwarmResult> results(2);
    std::vector<std::thread> processes;
    for (int p = 0; p < 2; ++p) {
      processes.emplace_back([&, p] {
        // Each "process" owns its own client objects and connections,
        // exactly as two real OS processes would.
        net::RemoteVisitedStore store(visited_server.endpoint());
        net::RemoteFrontier remote_frontier(frontier_server.endpoint(),
                                            /*workers=*/2);
        mc::SwarmOptions options;
        options.workers = 1;
        options.shared_store = &store;
        options.shared_frontier = &remote_frontier;
        options.base.mode = mc::SearchMode::kDfs;
        options.base.max_depth = kStealDepth;
        options.base.max_operations = 10 * kStealSingleBudget;
        options.base.target_unique_states = g_steal_target;
        // Different seeds so the two processes descend different
        // branches before stealing evens things out.
        options.base_seed = 500 + 37 * p;
        mc::Swarm swarm(options);
        results[p] = swarm.Run(MakeMcfsSwarmFactory(ClosedBallConfig()));
      });
    }
    for (auto& t : processes) t.join();
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    frontier_server.Stop();
    visited_server.Stop();

    StealRow row;
    for (const mc::SwarmResult& result : results) {
      row.total_ops += result.total_operations + result.steal_replay_ops;
      row.steals += result.steals;
    }
    // Coverage is global: the server's table is the merged union.
    row.merged_unique = table.size();
    row.reached_target = row.merged_unique >= g_steal_target;
    row.wall_seconds = wall;
    g_dist["dist-2proc-1w"] = row;
    state.counters["ops_to_target"] = static_cast<double>(row.total_ops);
    state.counters["reached_target"] = row.reached_target ? 1 : 0;
    state.counters["remote_steals"] = static_cast<double>(row.steals);
    state.counters["degradations"] = static_cast<double>(
        results[0].store_degradations + results[1].store_degradations +
        results[0].frontier_degradations +
        results[1].frontier_degradations);
  }
}

// ---------------------------------------------------------------------------
// Part 3b: solo-DFS partial-order reduction on the same closed ball —
// ops to exhaust the space with sleep sets on vs off (DESIGN.md §7.6).
// The depth bound is far above the state count so the closure, not the
// bound, ends both runs and the explored state sets are identical.

struct PorRow {
  std::uint64_t total_ops = 0;
  std::uint64_t unique_states = 0;
  std::uint64_t pruned = 0;
  std::uint64_t awakened = 0;
};

std::map<std::string, PorRow> g_por;

void RunPorAblation(benchmark::State& state, const std::string& label,
                    bool por) {
  for (auto _ : state) {
    McfsConfig config = ClosedBallConfig();
    config.engine.abstraction.incremental = true;
    config.explore.mode = mc::SearchMode::kDfs;
    config.explore.max_operations = 200'000;
    config.explore.max_depth = 100'000;
    config.explore.seed = 7;
    config.explore.por = por;
    auto mcfs = Mcfs::Create(config);
    if (!mcfs.ok()) {
      state.SkipWithError("setup failed");
      return;
    }
    McfsReport report = mcfs.value()->Run();
    PorRow row;
    row.total_ops = report.stats.operations;
    row.unique_states = report.stats.unique_states;
    row.pruned = report.stats.por_pruned_transitions;
    row.awakened = report.stats.por_sleep_awakened;
    g_por[label] = row;
    state.counters["ops_to_exhaustion"] = static_cast<double>(row.total_ops);
    state.counters["unique_states"] = static_cast<double>(row.unique_states);
    state.counters["por_pruned"] = static_cast<double>(row.pruned);
    state.counters["por_awakened"] = static_cast<double>(row.awakened);
  }
}

// ---------------------------------------------------------------------------
// Part 4: a seeded violation cancels all cooperative workers promptly.

void RunCancelOnViolation(benchmark::State& state) {
  for (auto _ : state) {
    // Bug #1 (VeriFS1 truncate-no-zero vs ext4f) trips within a few
    // thousand ops on the small pool — same setup as bench_bug_detection.
    McfsConfig config;
    config.fs_a.kind = FsKind::kExt4;
    config.fs_a.strategy = StateStrategy::kRemountPerOp;
    config.fs_b.kind = FsKind::kVerifs1;
    config.fs_b.strategy = StateStrategy::kIoctl;
    config.fs_b.bugs.truncate_no_zero_on_expand = true;
    config.engine.pool = ParameterPool::Tiny();

    mc::SwarmOptions options;
    options.workers = kCompareWorkers;
    options.cooperative = true;
    // Random walk, the cooperative workhorse: partitioned DFS prunes
    // peer-claimed subtrees, which under a shallow depth bound can
    // exhaust the partitioned tree before reaching the bug state.
    options.base.mode = mc::SearchMode::kRandomWalk;
    // Far beyond ops-to-detection: cancellation keeps this short, and
    // the budget is a bounded backstop rather than an unbounded hang.
    options.base.max_operations = 150'000;
    options.base_seed = 77;

    mc::Swarm swarm(options);
    const auto start = std::chrono::steady_clock::now();
    mc::SwarmResult result = swarm.Run(MakeMcfsSwarmFactory(config));
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    state.counters["violation_found"] = result.any_violation ? 1 : 0;
    state.counters["first_violation_worker"] =
        static_cast<double>(result.first_violation_worker);
    state.counters["total_ops_until_cancel"] =
        static_cast<double>(result.total_operations);
    state.counters["wall_seconds"] = wall;
  }
}

void PrintSummary() {
  std::printf("\n=== Swarm verification scaling (independent) ===\n");
  std::printf("%8s %14s %14s %12s %14s\n", "workers", "merged states",
              "best single", "total ops", "ops/wall-s");
  for (const auto& [workers, row] : g_rows) {
    std::printf("%8d %14llu %14llu %12llu %14.0f\n", workers,
                static_cast<unsigned long long>(row.merged_unique),
                static_cast<unsigned long long>(row.best_single),
                static_cast<unsigned long long>(row.total_ops),
                row.wall_seconds > 0
                    ? static_cast<double>(row.total_ops) / row.wall_seconds
                    : 0);
  }
  const auto one = g_rows.find(1);
  const auto eight = g_rows.find(8);
  if (one != g_rows.end() && eight != g_rows.end() &&
      one->second.merged_unique > 0) {
    std::printf("\nshape check: 8 diversified workers cover %.1fx the "
                "states of one worker under the same per-worker budget.\n",
                static_cast<double>(eight->second.merged_unique) /
                    static_cast<double>(one->second.merged_unique));
  }

  std::printf("\n=== Independent vs cooperative: ops to cover K=%llu "
              "unique states (%d workers) ===\n",
              static_cast<unsigned long long>(g_target_states),
              kCompareWorkers);
  std::printf("%-14s %12s %14s %12s %12s\n", "mode", "total ops",
              "merged states", "redund.", "revisit");
  for (const char* label : {"single", "independent", "cooperative"}) {
    const auto it = g_compare.find(label);
    if (it == g_compare.end()) continue;
    const CompareRow& row = it->second;
    std::printf("%-14s %12llu %14llu %11.1f%% %11.1f%%\n", label,
                static_cast<unsigned long long>(row.total_ops),
                static_cast<unsigned long long>(row.merged_unique),
                100 * row.redundant_discovery, 100 * row.revisit_ratio);
  }
  const auto ind = g_compare.find("independent");
  const auto coop = g_compare.find("cooperative");
  if (ind != g_compare.end() && coop != g_compare.end() &&
      coop->second.total_ops > 0) {
    const bool fewer = coop->second.total_ops < ind->second.total_ops;
    const bool less_redundant = coop->second.redundant_discovery <
                                ind->second.redundant_discovery;
    std::printf("\nshape check: cooperative swarm reached K with %.2fx the "
                "operations of the independent swarm (%s), redundancy "
                "%.1f%% vs %.1f%% (%s).\n",
                static_cast<double>(coop->second.total_ops) /
                    static_cast<double>(ind->second.total_ops),
                fewer ? "fewer, as expected" : "NOT fewer — regression",
                100 * coop->second.redundant_discovery,
                100 * ind->second.redundant_discovery,
                less_redundant ? "lower, as expected"
                               : "NOT lower — regression");
  }
  std::printf("\n=== Work-stealing frontier: ops to cover K=%llu of a "
              "closed ~670-state space (%d workers) ===\n",
              static_cast<unsigned long long>(g_steal_target),
              kCompareWorkers);
  std::printf("%-16s %12s %14s %8s %8s %8s %10s %8s\n", "mode",
              "total ops", "merged states", "K?", "steals", "workers",
              "idle s", "wall s");
  for (const char* label :
       {"single-dfs", "coop-walk", "coop-dfs", "coop-dfs+steal"}) {
    const auto it = g_steal.find(label);
    if (it == g_steal.end()) continue;
    const StealRow& row = it->second;
    std::printf("%-16s %12llu %14llu %8s %8llu %8d %10.3f %8.3f\n", label,
                static_cast<unsigned long long>(row.total_ops),
                static_cast<unsigned long long>(row.merged_unique),
                row.reached_target ? "yes" : "NO",
                static_cast<unsigned long long>(row.steals),
                row.contributing_workers, row.steal_wait_seconds,
                row.wall_seconds);
  }
  const auto walk = g_steal.find("coop-walk");
  const auto dfs = g_steal.find("coop-dfs");
  const auto steal = g_steal.find("coop-dfs+steal");
  if (walk != g_steal.end() && steal != g_steal.end() &&
      steal->second.total_ops > 0) {
    // total_ops includes steal_replay_ops, so the comparison does not
    // hide the cost of transferring work between workers.
    const bool fewer = steal->second.reached_target &&
                       steal->second.total_ops < walk->second.total_ops;
    std::printf("\nshape check: cooperative+stealing reached K with %.3fx "
                "the operations of the plain cooperative (walk) swarm "
                "(%s; walk %s K), with %llu steals (%llu replay ops), "
                "frontier peak %llu, %.3fs total idle.\n",
                static_cast<double>(steal->second.total_ops) /
                    static_cast<double>(walk->second.total_ops),
                fewer ? "fewer, as expected" : "NOT fewer — regression",
                walk->second.reached_target ? "also reached" : "never reached",
                static_cast<unsigned long long>(steal->second.steals),
                static_cast<unsigned long long>(
                    steal->second.steal_replay_ops),
                static_cast<unsigned long long>(steal->second.frontier_peak),
                steal->second.steal_wait_seconds);
  }
  if (dfs != g_steal.end() && steal != g_steal.end()) {
    std::printf("shape check: without stealing, %d of %d DFS workers "
                "contributed discoveries (§7.1 starvation); with "
                "stealing, %d of %d did.\n",
                dfs->second.contributing_workers, kCompareWorkers,
                steal->second.contributing_workers, kCompareWorkers);
  }

  const auto full = g_por.find("dfs-full");
  const auto sleep = g_por.find("dfs-por");
  if (full != g_por.end() && sleep != g_por.end() &&
      full->second.total_ops > 0) {
    const bool same_states =
        full->second.unique_states == sleep->second.unique_states;
    std::printf("\n=== Partial-order reduction, solo DFS to exhaustion "
                "(DESIGN.md §7.6) ===\n");
    std::printf("%-10s %12s %14s %10s %10s\n", "mode", "total ops",
                "unique states", "pruned", "awakened");
    std::printf("%-10s %12llu %14llu %10s %10s\n", "full",
                static_cast<unsigned long long>(full->second.total_ops),
                static_cast<unsigned long long>(full->second.unique_states),
                "-", "-");
    std::printf("%-10s %12llu %14llu %10llu %10llu\n", "por",
                static_cast<unsigned long long>(sleep->second.total_ops),
                static_cast<unsigned long long>(sleep->second.unique_states),
                static_cast<unsigned long long>(sleep->second.pruned),
                static_cast<unsigned long long>(sleep->second.awakened));
    std::printf("shape check: sleep sets exhausted the space with %.3fx "
                "the operations of the full DFS, identical state count: "
                "%s.\n",
                static_cast<double>(sleep->second.total_ops) /
                    static_cast<double>(full->second.total_ops),
                same_states ? "yes" : "NO — soundness regression");
  }

  std::printf("\n=== Distributed swarm over loopback (DESIGN.md §7.3) "
              "===\n");
  const auto scalar = g_remote_insert.find(1);
  const auto batched = g_remote_insert.find(64);
  if (scalar != g_remote_insert.end() && batched != g_remote_insert.end() &&
      scalar->second > 0) {
    std::printf("remote insert throughput: scalar %.0f/s, batch-64 "
                "%.0f/s — batching amortizes the round-trip %.1fx.\n",
                scalar->second, batched->second,
                batched->second / scalar->second);
  }
  if (!g_conn.empty()) {
    std::printf("\nconnection scaling, scalar inserts/s (DESIGN.md §7.9):\n");
    std::printf("%8s %16s %10s\n", "workers", "reactor", "(threads)");
    for (const auto& [workers, row] : g_conn) {
      std::printf("%8d %16.0f %10d\n", workers, row.inserts_per_s,
                  row.serving_threads);
    }
  }
  std::printf("%-16s %12s %14s %8s %8s %8s\n", "deployment", "total ops",
              "merged states", "K?", "steals", "wall s");
  for (const char* label : {"solo-1proc-2w", "dist-2proc-1w"}) {
    const auto it = g_dist.find(label);
    if (it == g_dist.end()) continue;
    const StealRow& row = it->second;
    std::printf("%-16s %12llu %14llu %8s %8llu %8.3f\n", label,
                static_cast<unsigned long long>(row.total_ops),
                static_cast<unsigned long long>(row.merged_unique),
                row.reached_target ? "yes" : "NO",
                static_cast<unsigned long long>(row.steals),
                row.wall_seconds);
  }
  const auto solo = g_dist.find("solo-1proc-2w");
  const auto dist = g_dist.find("dist-2proc-1w");
  if (solo != g_dist.end() && dist != g_dist.end() &&
      solo->second.total_ops > 0) {
    std::printf("shape check: two socket-sharing processes reached K=%llu "
                "with %.2fx the operations of one in-process two-worker "
                "swarm (%s) — the wire adds latency, not wasted search.\n",
                static_cast<unsigned long long>(g_steal_target),
                static_cast<double>(dist->second.total_ops) /
                    static_cast<double>(solo->second.total_ops),
                dist->second.reached_target ? "both reached K"
                                            : "distributed MISSED K");
  }
}

}  // namespace

int main(int argc, char** argv) {
  for (int workers : {1, 2, 4, 8}) {
    benchmark::RegisterBenchmark(
        ("swarm/workers:" + std::to_string(workers)).c_str(),
        [workers](benchmark::State& state) { RunSwarm(state, workers); })
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
  // Registration order is execution order: the single-worker run sets
  // the K target the two swarm modes then race to.
  benchmark::RegisterBenchmark(
      "swarm_compare/single",
      [](benchmark::State& state) { RunCompare(state, "single", false); })
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark(
      "swarm_compare/independent",
      [](benchmark::State& state) {
        RunCompare(state, "independent", false);
      })
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark(
      "swarm_compare/cooperative",
      [](benchmark::State& state) {
        RunCompare(state, "cooperative", true);
      })
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
  // Part 2b registration order: the single-DFS run defines the closed
  // ball's coverage target K before the three 4-worker modes race to it.
  benchmark::RegisterBenchmark(
      "swarm_frontier/single_dfs",
      [](benchmark::State& state) {
        RunStealCompare(state, "single-dfs", mc::SearchMode::kDfs, false);
      })
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark(
      "swarm_frontier/coop_walk",
      [](benchmark::State& state) {
        RunStealCompare(state, "coop-walk", mc::SearchMode::kRandomWalk,
                        false);
      })
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark(
      "swarm_frontier/coop_dfs",
      [](benchmark::State& state) {
        RunStealCompare(state, "coop-dfs", mc::SearchMode::kDfs, false);
      })
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark(
      "swarm_frontier/coop_dfs_steal",
      [](benchmark::State& state) {
        RunStealCompare(state, "coop-dfs+steal", mc::SearchMode::kDfs,
                        true);
      })
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark(
      "swarm_por/dfs_full",
      [](benchmark::State& state) {
        RunPorAblation(state, "dfs-full", false);
      })
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark(
      "swarm_por/dfs_por",
      [](benchmark::State& state) { RunPorAblation(state, "dfs-por", true); })
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
  for (int batch : {1, 64}) {
    benchmark::RegisterBenchmark(
        ("swarm_remote/insert_batch:" + std::to_string(batch)).c_str(),
        [batch](benchmark::State& state) {
          RunRemoteInsertThroughput(state, batch);
        })
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
  for (int workers : {1, 4, 16, 64}) {
    benchmark::RegisterBenchmark(
        ("conn_scale/reactor/workers:" + std::to_string(workers)).c_str(),
        [workers](benchmark::State& state) {
          RunConnScaling(state, workers);
        })
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
  // Needs g_steal_target, so these must run after swarm_frontier/*.
  benchmark::RegisterBenchmark(
      "swarm_remote/solo_1proc_2workers",
      [](benchmark::State& state) { RunDistributedSolo(state); })
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark(
      "swarm_remote/dist_2proc_1worker",
      [](benchmark::State& state) { RunDistributedPair(state); })
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark(
      "swarm_cancel/seeded_violation",
      [](benchmark::State& state) { RunCancelOnViolation(state); })
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  PrintSummary();
  return 0;
}
