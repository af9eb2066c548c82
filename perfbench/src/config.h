// Workload configs. The benchmark binary never sees a seed: workloads.py
// expands (workload, seed) into a flat `key=value` file and this parser
// turns that file into the model checker's own config structs.
#pragma once

#include <cstdint>
#include <string>

#include "mcfs/harness.h"

namespace perfbench {

struct Workload {
  std::string name;
  mcfs::core::McfsConfig mcfs;
  // 0 = solo run through Mcfs::Run. >0 = cooperative swarm of this many
  // DFS workers sharing one RemoteVisitedStore to a loopback FrameServer,
  // stopping at `target_unique` states.
  int workers = 0;
  std::uint64_t target_unique = 0;
};

// Parses `path`. On failure returns false and sets *error.
bool LoadWorkload(const std::string& path, Workload* out, std::string* error);

// Short file-system kind used in metric names: ext2, ext4, xfs, jffs2,
// verifs1, verifs2.
std::string KindTag(mcfs::core::FsKind kind);

}  // namespace perfbench
