// fs_shell: a tiny stdin-driven shell over any of the six file systems,
// for poking the substrates directly.
//
//   ./fs_shell [ext2|ext4|xfs|jffs2|verifs1|verifs2]
//
// Commands:
//   ls <dir> | write <path> <text> | cat <path> | mkdir <p> | rmdir <p>
//   rm <p> | mv <a> <b> | ln <a> <b> | stat <p> | truncate <p> <n>
//   checkpoint | restore <id> | statfs | remount | quit
#include <cstdio>
#include <iostream>
#include <sstream>

#include "fs/checkpointable.h"
#include "fs/ext2/ext2fs.h"
#include "fs/ext4/ext4fs.h"
#include "fs/jffs2/jffs2fs.h"
#include "fs/xfs/xfsfs.h"
#include "storage/ram_disk.h"
#include "verifs/verifs1.h"
#include "verifs/verifs2.h"

namespace {

using namespace mcfs;
using namespace mcfs::fs;

struct Instance {
  FileSystemPtr filesystem;
  std::vector<std::shared_ptr<void>> keepalive;
};

Instance MakeFs(const std::string& kind) {
  Instance instance;
  if (kind == "ext2") {
    auto dev = std::make_shared<storage::RamDisk>("d", 256 * 1024, nullptr);
    instance.filesystem = std::make_shared<Ext2Fs>(dev);
    instance.keepalive.push_back(dev);
  } else if (kind == "ext4") {
    auto dev = std::make_shared<storage::RamDisk>("d", 256 * 1024, nullptr);
    instance.filesystem = std::make_shared<Ext4Fs>(dev);
    instance.keepalive.push_back(dev);
  } else if (kind == "xfs") {
    auto dev =
        std::make_shared<storage::RamDisk>("d", 16 * 1024 * 1024, nullptr);
    instance.filesystem = std::make_shared<XfsFs>(dev);
    instance.keepalive.push_back(dev);
  } else if (kind == "jffs2") {
    auto mtd =
        std::make_shared<storage::MtdDevice>("mtd", 1024 * 1024, nullptr);
    instance.filesystem = std::make_shared<Jffs2Fs>(mtd);
    instance.keepalive.push_back(mtd);
  } else if (kind == "verifs1") {
    instance.filesystem = std::make_shared<verifs::Verifs1>();
  } else {
    instance.filesystem = std::make_shared<verifs::Verifs2>();
  }
  return instance;
}

void PrintStatus(Status status) {
  std::printf("%s\n", status.ok()
                          ? "ok"
                          : std::string(ErrnoName(status.error())).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const std::string kind = argc > 1 ? argv[1] : "verifs2";
  Instance instance = MakeFs(kind);
  FileSystem& fs = *instance.filesystem;
  auto* checkpointable = dynamic_cast<CheckpointableFs*>(&fs);

  if (!fs.Mkfs().ok() || !fs.Mount().ok()) {
    std::fprintf(stderr, "failed to format/mount %s\n", kind.c_str());
    return 1;
  }
  std::printf("%s mounted. type 'help' for commands.\n",
              fs.TypeName().c_str());

  std::string line;
  while (std::printf("%s> ", fs.TypeName().c_str()),
         std::fflush(stdout), std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd, a, b;
    in >> cmd >> a;
    std::getline(in, b);
    if (!b.empty() && b.front() == ' ') b.erase(0, 1);

    if (cmd.empty()) continue;
    if (cmd == "quit" || cmd == "exit") break;
    if (cmd == "help") {
      std::printf(
          "ls write cat mkdir rmdir rm mv ln stat truncate checkpoint "
          "restore statfs remount quit\n");
    } else if (cmd == "ls") {
      auto entries = fs.ReadDir(a.empty() ? "/" : a);
      if (!entries.ok()) {
        std::printf("%s\n", std::string(ErrnoName(entries.error())).c_str());
        continue;
      }
      for (const auto& e : entries.value()) {
        std::printf("%-10s %s\n", std::string(FileTypeName(e.type)).c_str(),
                    e.name.c_str());
      }
    } else if (cmd == "write") {
      auto fd = fs.Open(a, kCreate | kWrOnly | kTrunc, 0644);
      if (!fd.ok()) {
        std::printf("%s\n", std::string(ErrnoName(fd.error())).c_str());
        continue;
      }
      auto n = fs.Write(fd.value(), 0, AsBytes(b));
      (void)fs.Close(fd.value());
      if (n.ok()) {
        std::printf("wrote %llu bytes\n",
                    static_cast<unsigned long long>(n.value()));
      } else {
        std::printf("%s\n", std::string(ErrnoName(n.error())).c_str());
      }
    } else if (cmd == "cat") {
      auto fd = fs.Open(a, kRdOnly, 0);
      if (!fd.ok()) {
        std::printf("%s\n", std::string(ErrnoName(fd.error())).c_str());
        continue;
      }
      auto data = fs.Read(fd.value(), 0, 1 << 20);
      (void)fs.Close(fd.value());
      if (data.ok()) {
        std::printf("%.*s\n", static_cast<int>(data.value().size()),
                    reinterpret_cast<const char*>(data.value().data()));
      } else {
        std::printf("%s\n", std::string(ErrnoName(data.error())).c_str());
      }
    } else if (cmd == "mkdir") {
      PrintStatus(fs.Mkdir(a, 0755));
    } else if (cmd == "rmdir") {
      PrintStatus(fs.Rmdir(a));
    } else if (cmd == "rm") {
      PrintStatus(fs.Unlink(a));
    } else if (cmd == "mv") {
      PrintStatus(fs.Rename(a, b));
    } else if (cmd == "ln") {
      PrintStatus(fs.Link(a, b));
    } else if (cmd == "truncate") {
      PrintStatus(fs.Truncate(a, std::strtoull(b.c_str(), nullptr, 10)));
    } else if (cmd == "stat") {
      auto attr = fs.GetAttr(a);
      if (!attr.ok()) {
        std::printf("%s\n", std::string(ErrnoName(attr.error())).c_str());
        continue;
      }
      const auto& at = attr.value();
      std::printf("ino=%llu type=%s mode=%o nlink=%u uid=%u gid=%u "
                  "size=%llu blocks=%llu\n",
                  static_cast<unsigned long long>(at.ino),
                  std::string(FileTypeName(at.type)).c_str(), at.mode,
                  at.nlink, at.uid, at.gid,
                  static_cast<unsigned long long>(at.size),
                  static_cast<unsigned long long>(at.blocks));
    } else if (cmd == "checkpoint") {
      if (checkpointable == nullptr) {
        std::printf("ENOTSUP (the paper's point: only VeriFS has this)\n");
      } else {
        auto snap = checkpointable->Checkpoint();
        if (snap.ok()) {
          std::printf("snapshot %llu\n",
                      static_cast<unsigned long long>(snap.value()));
        } else {
          PrintStatus(snap.error());
        }
      }
    } else if (cmd == "restore") {
      if (checkpointable == nullptr) {
        std::printf("ENOTSUP\n");
      } else {
        PrintStatus(checkpointable->Restore(
            std::strtoull(a.c_str(), nullptr, 10)));
      }
    } else if (cmd == "statfs") {
      auto sv = fs.StatFs();
      if (sv.ok()) {
        std::printf("total=%llu free=%llu inodes=%llu/%llu\n",
                    static_cast<unsigned long long>(sv.value().total_bytes),
                    static_cast<unsigned long long>(sv.value().free_bytes),
                    static_cast<unsigned long long>(sv.value().free_inodes),
                    static_cast<unsigned long long>(
                        sv.value().total_inodes));
      } else {
        std::printf("%s\n", std::string(ErrnoName(sv.error())).c_str());
      }
    } else if (cmd == "remount") {
      Status u = fs.Unmount();
      if (!u.ok()) {
        PrintStatus(u);
        continue;
      }
      PrintStatus(fs.Mount());
    } else {
      std::printf("unknown command '%s'\n", cmd.c_str());
    }
  }
  if (fs.IsMounted()) (void)fs.Unmount();
  return 0;
}
