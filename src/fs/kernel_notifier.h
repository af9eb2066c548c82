// Callback surface a user-space file system uses to invalidate kernel
// caches — the analogue of libfuse's fuse_lowlevel_notify_inval_entry /
// fuse_lowlevel_notify_inval_inode, which are exactly the calls that
// fixed the paper's second VeriFS1 bug (§6).
#pragma once

#include <string>
#include <vector>

#include "fs/types.h"

namespace mcfs::fs {

class KernelNotifier {
 public:
  virtual ~KernelNotifier() = default;

  // Invalidate the (parent directory, name) dcache binding.
  virtual void InvalEntry(const std::string& parent_path,
                          const std::string& name) = 0;

  // Invalidate cached attributes/data of one inode.
  virtual void InvalInode(InodeNum ino) = 0;
};

// Sends what a state rollback owes the kernel: InvalEntry for each
// distinct path, in ascending order, then InvalInode for each distinct
// inode, ascending. Duplicates collapse, so callers may pass overlapping
// sets (the namespace before and after the rollback).
void NotifyInvalidations(KernelNotifier& notifier,
                         std::vector<std::string> paths,
                         std::vector<InodeNum> inos);

}  // namespace mcfs::fs
