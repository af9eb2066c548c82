#include "fs/kernel_notifier.h"

#include <algorithm>

#include "fs/path.h"

namespace mcfs::fs {

void NotifyInvalidations(KernelNotifier& notifier,
                         std::vector<std::string> paths,
                         std::vector<InodeNum> inos) {
  std::sort(paths.begin(), paths.end());
  paths.erase(std::unique(paths.begin(), paths.end()), paths.end());
  for (const auto& path : paths) {
    notifier.InvalEntry(ParentPath(path), Basename(path));
  }
  std::sort(inos.begin(), inos.end());
  inos.erase(std::unique(inos.begin(), inos.end()), inos.end());
  for (InodeNum ino : inos) notifier.InvalInode(ino);
}

}  // namespace mcfs::fs
