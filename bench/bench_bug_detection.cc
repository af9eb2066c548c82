// Bug-detection benchmark — the paper's §6 case studies, measured as
// operations-to-detection:
//   * VeriFS1 truncate-no-zero, found vs Ext4 (paper: ~9K ops);
//   * VeriFS1 missing cache invalidation, found vs Ext4 (paper: ~12K ops);
//   * VeriFS2 write-hole-no-zero, found vs VeriFS1 (paper: ~900K ops);
//   * VeriFS2 size-update-only-on-growth, found vs VeriFS1 (paper: ~1.2M).
//
// Absolute counts depend on pools and search order; the shape claim is
// that ALL four are caught, and that the two VeriFS2 data bugs take
// substantially longer than the two VeriFS1 bugs (they hide in rarer
// interleavings). Each case sums operations across seed-diversified
// attempts until detection, mirroring swarm-style diversification.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "mcfs/shrink.h"

namespace {

using namespace mcfs;
using namespace mcfs::core;

struct BugRow {
  std::string name;
  const char* paper;
  bool found = false;
  std::uint64_t ops_to_detect = 0;
  std::size_t raw_ops = 0;   // records in the raw violating trace
  std::size_t min_ops = 0;   // records after TraceMinimizer
  bool replayed = false;     // minimized trace reproduced on a fresh pair
  bool one_minimal = false;
};

std::vector<BugRow> g_rows;

void RunBugCase(benchmark::State& state, const std::string& name,
                const char* paper_ops, FsKind reference,
                verifs::VerifsBugs bugs, FsKind buggy,
                const ParameterPool& pool) {
  for (auto _ : state) {
    BugRow row;
    row.name = name;
    row.paper = paper_ops;
    std::uint64_t total_ops = 0;
    for (std::uint64_t seed = 1; seed <= 16 && !row.found; ++seed) {
      McfsConfig config;
      config.fs_a.kind = reference;
      config.fs_a.strategy =
          (reference == FsKind::kVerifs1 || reference == FsKind::kVerifs2)
              ? StateStrategy::kIoctl
              : StateStrategy::kRemountPerOp;
      config.fs_b.kind = buggy;
      config.fs_b.strategy = StateStrategy::kIoctl;
      config.fs_b.bugs = bugs;
      config.engine.pool = pool;
      // Keep the whole linear history (ops + snapshot records): the raw
      // trace is the shrink fallback for restore-dependent bugs.
      config.engine.trace_cap = 200'000;
      config.explore.max_operations = 50'000;
      config.explore.max_depth = 8;
      config.explore.seed = seed;
      auto mcfs = Mcfs::Create(config);
      if (!mcfs.ok()) {
        state.SkipWithError("setup failed");
        return;
      }
      McfsReport report = mcfs.value()->Run();
      total_ops += report.stats.operations;
      if (report.stats.violation_found) {
        row.found = true;
        row.ops_to_detect = total_ops;
        // Shrink the violating trace to a 1-minimal reproducer and
        // replay-confirm it on a fresh buggy pair: the paper's
        // reproducibility claim ("Spin logs the precise sequence of
        // operations... simplifying reproducibility", §2), sharpened.
        SyscallEngine& engine = mcfs.value()->engine();
        row.raw_ops = engine.trace().size();
        ShrinkOptions shrink;
        shrink.max_replays = 4'000;
        TraceMinimizer minimizer(config, shrink);
        ShrinkReport sr;
        bool shrunk = false;
        // Trail first (tiny, snapshot-free); raw linear history as the
        // fallback for bugs that only manifest across a rollback.
        auto trail =
            TraceFromTrail(engine, report.stats.violation_trail);
        if (trail.ok() && minimizer.Minimize(trail.value(), &sr).ok()) {
          shrunk = true;
        }
        if (!shrunk) (void)minimizer.Minimize(engine.trace(), &sr);
        row.min_ops = sr.final_ops;
        row.replayed = sr.replay_confirmed;
        row.one_minimal = sr.one_minimal;
      }
    }
    g_rows.push_back(row);
    state.counters["ops_to_detect"] =
        static_cast<double>(row.ops_to_detect);
    state.counters["found"] = row.found ? 1 : 0;
    state.counters["min_ops"] = static_cast<double>(row.min_ops);
  }
}

void PrintSummary() {
  std::printf("\n=== Bug detection: operations until MCFS reports the "
              "discrepancy ===\n");
  std::printf("%-44s %6s %12s %9s %8s %8s  %s\n", "bug", "found", "ops",
              "raw_trace", "min_ops", "replay", "paper");
  for (const auto& row : g_rows) {
    std::printf("%-44s %6s %12llu %9zu %8zu %8s  %s\n", row.name.c_str(),
                row.found ? "yes" : "NO",
                static_cast<unsigned long long>(row.ops_to_detect),
                row.raw_ops, row.min_ops,
                row.replayed ? (row.one_minimal ? "1-min" : "yes") : "-",
                row.paper);
  }
  if (g_rows.size() == 4 && g_rows[0].found && g_rows[2].found) {
    std::printf("\nshape check: VeriFS2 data bugs take %s ops than the "
                "VeriFS1 bugs (paper: ~100x more)\n",
                g_rows[2].ops_to_detect + g_rows[3].ops_to_detect >
                        g_rows[0].ops_to_detect + g_rows[1].ops_to_detect
                    ? "more"
                    : "FEWER (unexpected)");
  }
}

}  // namespace

int main(int argc, char** argv) {
  verifs::VerifsBugs bug1;
  bug1.truncate_no_zero_on_expand = true;
  verifs::VerifsBugs bug2;
  bug2.skip_cache_invalidation_on_restore = true;
  verifs::VerifsBugs bug3;
  bug3.write_hole_no_zero = true;
  verifs::VerifsBugs bug4;
  bug4.size_update_only_on_capacity_growth = true;

  // The VeriFS1 bugs trip on small pools; the VeriFS2 data bugs need the
  // richer pool (offsets past EOF, multiple sizes) and far more ops —
  // which is the paper's observed ordering.
  const ParameterPool small = ParameterPool::Tiny();
  const ParameterPool rich = ParameterPool::Default();

  auto reg = [&](const char* name, const char* paper, FsKind reference,
                 verifs::VerifsBugs bugs, FsKind buggy,
                 const ParameterPool& pool) {
    benchmark::RegisterBenchmark(name, [=](benchmark::State& state) {
      RunBugCase(state, name, paper, reference, bugs, buggy, pool);
    })->Iterations(1)->Unit(benchmark::kMillisecond);
  };

  reg("verifs1 truncate-no-zero (vs ext4f)", "~9K ops", FsKind::kExt4,
      bug1, FsKind::kVerifs1, small);
  reg("verifs1 no-cache-invalidation (vs ext4f)", "~12K ops",
      FsKind::kExt4, bug2, FsKind::kVerifs1, small);
  reg("verifs2 write-hole-no-zero (vs verifs1)", "~900K ops",
      FsKind::kVerifs1, bug3, FsKind::kVerifs2, rich);
  reg("verifs2 size-only-on-growth (vs verifs1)", "~1.2M ops",
      FsKind::kVerifs1, bug4, FsKind::kVerifs2, rich);

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  PrintSummary();
  return 0;
}
