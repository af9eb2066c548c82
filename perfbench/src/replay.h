// Replays an engine's complete linear history (operations interleaved
// with the explorer's checkpoint/restore records) on a fresh file-system
// pair, timing each public step in its own span:
//   fs.<kind>.op          ExecuteOp (VFS -> FUSE -> FS -> device)
//   fs.<kind>.remount     FsUnderTest::BeginOp / EndOp
//   mcfs.abstraction.refresh  TouchedPaths + IncrementalAbstraction
//                         (or the full walk when incremental is off)
//   mcfs.checker.compare  CompareOutcomes
//   snapshot.<kind>.save / .restore / .discard  FsUnderTest state calls
// under one `replay` root span. A snapshot is discarded after the last
// record that restores it, as the explorer would have.
#pragma once

#include <cstdint>
#include <string>

#include "mcfs/harness.h"

namespace perfbench {

struct ReplayOutcome {
  bool setup_ok = false;
  std::uint64_t records = 0;
  std::uint64_t ops = 0;
  // Records whose errno pair differs from the recorded one, whose
  // outcomes the checker rejects, or whose two abstract states differ,
  // plus failed snapshot calls.
  std::uint64_t mismatches = 0;
  std::string first_mismatch;
};

ReplayOutcome ReplayHistory(const mcfs::core::McfsConfig& config,
                            const mcfs::core::Trace& history);

}  // namespace perfbench
