// Abstraction-function tests (paper Algorithm 1, §3.3): the digest must
// be sensitive to everything the checker cares about (content, names,
// important metadata) and insensitive to everything it must ignore
// (timestamps, inode numbers, directory sizes, exception-list paths,
// physical placement) — and two different file systems holding logically
// identical trees must hash identically.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "fs/ext2/ext2fs.h"
#include "fs/path.h"
#include "fs/ext4/ext4fs.h"
#include "fs/xfs/xfsfs.h"
#include "mcfs/abstraction.h"
#include "storage/ram_disk.h"
#include "util/rng.h"
#include "verifs/verifs1.h"
#include "verifs/verifs2.h"

namespace mcfs::core {
namespace {

struct Stack {
  std::shared_ptr<storage::RamDisk> disk;
  fs::FileSystemPtr filesystem;
  std::unique_ptr<vfs::Vfs> v;
};

Stack MakeExt2() {
  Stack stack;
  stack.disk = std::make_shared<storage::RamDisk>("d", 256 * 1024, nullptr);
  stack.filesystem = std::make_shared<fs::Ext2Fs>(stack.disk);
  stack.v = std::make_unique<vfs::Vfs>(stack.filesystem, nullptr);
  EXPECT_TRUE(stack.filesystem->Mkfs().ok());
  EXPECT_TRUE(stack.v->Mount().ok());
  return stack;
}

Stack MakeVerifs(fs::FileSystemPtr filesystem) {
  Stack stack;
  stack.filesystem = std::move(filesystem);
  stack.v = std::make_unique<vfs::Vfs>(stack.filesystem, nullptr);
  EXPECT_TRUE(stack.filesystem->Mkfs().ok());
  EXPECT_TRUE(stack.v->Mount().ok());
  return stack;
}

Stack MakeVerifs2() { return MakeVerifs(std::make_shared<verifs::Verifs2>()); }

void Write(vfs::Vfs& v, const std::string& path, std::string_view data) {
  auto fd = v.Open(path, fs::kCreate | fs::kWrOnly, 0644);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(v.Write(fd.value(), 0, AsBytes(data)).ok());
  ASSERT_TRUE(v.Close(fd.value()).ok());
}

Md5Digest HashOf(vfs::Vfs& v, AbstractionOptions options = {}) {
  auto digest = ComputeAbstractState(v, options);
  EXPECT_TRUE(digest.ok());
  return digest.value_or(Md5Digest{});
}

TEST(AbstractionTest, EmptyTreesHashEqually) {
  Stack a = MakeExt2();
  Stack b = MakeExt2();
  EXPECT_EQ(HashOf(*a.v), HashOf(*b.v));
}

TEST(AbstractionTest, ContentChangesTheHash) {
  Stack stack = MakeExt2();
  const Md5Digest empty = HashOf(*stack.v);
  Write(*stack.v, "/f", "one");
  const Md5Digest one = HashOf(*stack.v);
  EXPECT_NE(empty, one);

  auto fd = stack.v->Open("/f", fs::kWrOnly, 0);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(stack.v->Write(fd.value(), 0, AsBytes("two")).ok());
  ASSERT_TRUE(stack.v->Close(fd.value()).ok());
  EXPECT_NE(HashOf(*stack.v), one);
}

TEST(AbstractionTest, PathnamesMatter) {
  Stack a = MakeExt2();
  Stack b = MakeExt2();
  Write(*a.v, "/name-a", "same-content");
  Write(*b.v, "/name-b", "same-content");
  EXPECT_NE(HashOf(*a.v), HashOf(*b.v));
}

TEST(AbstractionTest, ModeAndOwnershipMatter) {
  Stack stack = MakeExt2();
  Write(*stack.v, "/f", "x");
  const Md5Digest before = HashOf(*stack.v);
  ASSERT_TRUE(stack.v->Chmod("/f", 0600).ok());
  const Md5Digest after_chmod = HashOf(*stack.v);
  EXPECT_NE(before, after_chmod);
  ASSERT_TRUE(stack.v->Chown("/f", 7, 7).ok());
  EXPECT_NE(HashOf(*stack.v), after_chmod);
}

TEST(AbstractionTest, AtimeUpdatesDoNotChangeTheHash) {
  // The noise exclusion that prevents state explosion (paper §3.3).
  Stack stack = MakeExt2();
  Write(*stack.v, "/f", "stable");
  const Md5Digest before = HashOf(*stack.v);
  // Reads update atime on the file and the directory.
  auto fd = stack.v->Open("/f", fs::kRdOnly, 0);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(stack.v->Read(fd.value(), 0, 6).ok());
  ASSERT_TRUE(stack.v->Close(fd.value()).ok());
  ASSERT_TRUE(stack.v->GetDents("/").ok());
  EXPECT_EQ(HashOf(*stack.v), before);
}

TEST(AbstractionTest, TimestampInclusionCausesExplosion) {
  // Ablation knob: with timestamps hashed, every read mints a "new"
  // state — exactly why the paper's c_track of raw buffers failed.
  Stack stack = MakeExt2();
  Write(*stack.v, "/f", "stable");
  AbstractionOptions noisy;
  noisy.include_timestamps = true;
  const Md5Digest before = HashOf(*stack.v, noisy);
  auto fd = stack.v->Open("/f", fs::kRdOnly, 0);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(stack.v->Read(fd.value(), 0, 6).ok());
  ASSERT_TRUE(stack.v->Close(fd.value()).ok());
  EXPECT_NE(HashOf(*stack.v, noisy), before);
}

TEST(AbstractionTest, PhysicalPlacementDoesNotMatter) {
  // Two ext2f instances reach the same logical state along different
  // allocation histories: blocks land in different places, hashes agree.
  Stack a = MakeExt2();
  Stack b = MakeExt2();

  Write(*a.v, "/f", "final");

  Write(*b.v, "/junk1", std::string(3000, 'j'));
  Write(*b.v, "/junk2", std::string(5000, 'k'));
  Write(*b.v, "/f", "final");
  ASSERT_TRUE(b.v->Unlink("/junk1").ok());
  ASSERT_TRUE(b.v->Unlink("/junk2").ok());

  EXPECT_EQ(HashOf(*a.v), HashOf(*b.v));
}

TEST(AbstractionTest, ExceptionListHidesSpecialFolders) {
  auto disk = std::make_shared<storage::RamDisk>("d", 256 * 1024, nullptr);
  auto ext4 = std::make_shared<fs::Ext4Fs>(disk);
  vfs::Vfs v4(ext4, nullptr);
  ASSERT_TRUE(ext4->Mkfs().ok());
  ASSERT_TRUE(v4.Mount().ok());

  Stack ext2 = MakeExt2();

  // Without the exception list, ext4f's lost+found makes the trees hash
  // differently; with it, the hashes agree (paper §3.4).
  AbstractionOptions plain;
  EXPECT_NE(HashOf(v4, plain), HashOf(*ext2.v, plain));

  AbstractionOptions with_exceptions;
  with_exceptions.exception_list = {"/lost+found"};
  EXPECT_EQ(HashOf(v4, with_exceptions), HashOf(*ext2.v, with_exceptions));
}

TEST(AbstractionTest, DirectorySizesIgnoredAcrossFsTypes) {
  // ext2f reports block-rounded dir sizes; verifs2 reports entry-based
  // ones. With the workaround on, identical trees hash identically.
  Stack a = MakeExt2();
  Stack b = MakeVerifs2();
  ASSERT_TRUE(a.v->Mkdir("/d", 0755).ok());
  ASSERT_TRUE(b.v->Mkdir("/d", 0755).ok());
  Write(*a.v, "/d/f", "same");
  Write(*b.v, "/d/f", "same");
  EXPECT_EQ(HashOf(*a.v), HashOf(*b.v));

  AbstractionOptions strict;
  strict.ignore_directory_sizes = false;
  EXPECT_NE(HashOf(*a.v, strict), HashOf(*b.v, strict));
}

TEST(AbstractionTest, CrossFsEqualStatesHashEqually) {
  // The core integrity-check property across three different on-disk
  // formats (bitmap ext2f, extent xfsf, RAM verifs2).
  auto xfs_disk =
      std::make_shared<storage::RamDisk>("x", 16 * 1024 * 1024, nullptr);
  auto xfs = std::make_shared<fs::XfsFs>(xfs_disk);
  vfs::Vfs vx(xfs, nullptr);
  ASSERT_TRUE(xfs->Mkfs().ok());
  ASSERT_TRUE(vx.Mount().ok());

  Stack e2 = MakeExt2();
  Stack v2 = MakeVerifs2();

  for (vfs::Vfs* v : {&vx, e2.v.get(), v2.v.get()}) {
    ASSERT_TRUE(v->Mkdir("/dir", 0750).ok());
    Write(*v, "/dir/a", "alpha");
    Write(*v, "/b", std::string(2048, 'b'));
    ASSERT_TRUE(v->Chmod("/b", 0600).ok());
  }
  const Md5Digest hx = HashOf(vx);
  EXPECT_EQ(hx, HashOf(*e2.v));
  EXPECT_EQ(hx, HashOf(*v2.v));
}

TEST(AbstractionTest, SymlinksAndHardLinksAffectTheHash) {
  Stack a = MakeExt2();
  Stack b = MakeExt2();
  Write(*a.v, "/f", "x");
  Write(*b.v, "/f", "x");
  ASSERT_TRUE(a.v->Symlink("/f", "/sl").ok());
  ASSERT_TRUE(b.v->Symlink("/OTHER", "/sl").ok());
  EXPECT_NE(HashOf(*a.v), HashOf(*b.v));  // targets differ

  Stack c = MakeExt2();
  Stack d = MakeExt2();
  Write(*c.v, "/f", "x");
  Write(*d.v, "/f", "x");
  ASSERT_TRUE(c.v->Link("/f", "/hl").ok());
  Write(*d.v, "/hl", "x");  // same names/content but nlink differs
  EXPECT_NE(HashOf(*c.v), HashOf(*d.v));
}

TEST(AbstractionTest, XattrsAffectTheHash) {
  Stack a = MakeExt2();
  Stack b = MakeExt2();
  Write(*a.v, "/f", "x");
  Write(*b.v, "/f", "x");
  ASSERT_TRUE(a.v->SetXattr("/f", "user.k", AsBytes("v1")).ok());
  ASSERT_TRUE(b.v->SetXattr("/f", "user.k", AsBytes("v2")).ok());
  EXPECT_NE(HashOf(*a.v), HashOf(*b.v));
}

TEST(AbstractionTest, ListTreePathsIsSortedAndFiltered) {
  Stack stack = MakeExt2();
  ASSERT_TRUE(stack.v->Mkdir("/zz", 0755).ok());
  ASSERT_TRUE(stack.v->Mkdir("/aa", 0755).ok());
  Write(*stack.v, "/zz/file", "x");
  Write(*stack.v, "/skipme", "x");

  AbstractionOptions options;
  options.exception_list = {"/skipme"};
  auto paths = ListTreePaths(*stack.v, options);
  ASSERT_TRUE(paths.ok());
  EXPECT_EQ(paths.value(),
            (std::vector<std::string>{"/aa", "/zz", "/zz/file"}));
}

TEST(AbstractionTest, DeterministicAcrossRepeatedWalks) {
  Stack stack = MakeExt2();
  Write(*stack.v, "/f", "deterministic");
  const Md5Digest h1 = HashOf(*stack.v);
  const Md5Digest h2 = HashOf(*stack.v);
  // The walk itself updates atimes — which must not feed back into the
  // digest (or no state would ever match itself).
  EXPECT_EQ(h1, h2);
}

// Forwards everything to an inner file system but lets tests force a
// specific errno out of ListXattr — the fault the walk must not swallow —
// or cap how many bytes one Read returns.
class FaultyFs final : public fs::FileSystem {
 public:
  explicit FaultyFs(fs::FileSystemPtr inner) : inner_(std::move(inner)) {}

  void set_listxattr_error(std::optional<Errno> error) {
    listxattr_error_ = error;
  }
  void set_max_read(std::optional<std::uint64_t> bytes) { max_read_ = bytes; }

  Status Mkfs() override { return inner_->Mkfs(); }
  Status Mount() override { return inner_->Mount(); }
  Status Unmount() override { return inner_->Unmount(); }
  bool IsMounted() const override { return inner_->IsMounted(); }
  Result<fs::InodeAttr> GetAttr(const std::string& path) override {
    return inner_->GetAttr(path);
  }
  Status Mkdir(const std::string& path, fs::Mode mode) override {
    return inner_->Mkdir(path, mode);
  }
  Status Rmdir(const std::string& path) override {
    return inner_->Rmdir(path);
  }
  Status Unlink(const std::string& path) override {
    return inner_->Unlink(path);
  }
  Result<std::vector<fs::DirEntry>> ReadDir(
      const std::string& path) override {
    return inner_->ReadDir(path);
  }
  Result<fs::FileHandle> Open(const std::string& path, std::uint32_t flags,
                              fs::Mode mode) override {
    return inner_->Open(path, flags, mode);
  }
  Status Close(fs::FileHandle fh) override { return inner_->Close(fh); }
  Result<Bytes> Read(fs::FileHandle fh, std::uint64_t offset,
                     std::uint64_t size) override {
    return inner_->Read(fh, offset, std::min(size, max_read_.value_or(size)));
  }
  Result<std::uint64_t> Write(fs::FileHandle fh, std::uint64_t offset,
                              ByteView data) override {
    return inner_->Write(fh, offset, data);
  }
  Status Truncate(const std::string& path, std::uint64_t size) override {
    return inner_->Truncate(path, size);
  }
  Status Fsync(fs::FileHandle fh) override { return inner_->Fsync(fh); }
  Status Chmod(const std::string& path, fs::Mode mode) override {
    return inner_->Chmod(path, mode);
  }
  Status Chown(const std::string& path, std::uint32_t uid,
               std::uint32_t gid) override {
    return inner_->Chown(path, uid, gid);
  }
  Result<fs::StatVfs> StatFs() override { return inner_->StatFs(); }
  bool Supports(fs::FsFeature feature) const override {
    return inner_->Supports(feature);
  }
  Status SetXattr(const std::string& path, const std::string& name,
                  ByteView value) override {
    return inner_->SetXattr(path, name, value);
  }
  Result<Bytes> GetXattr(const std::string& path,
                         const std::string& name) override {
    return inner_->GetXattr(path, name);
  }
  Result<std::vector<std::string>> ListXattr(
      const std::string& path) override {
    if (listxattr_error_.has_value()) return *listxattr_error_;
    return inner_->ListXattr(path);
  }
  Status RemoveXattr(const std::string& path,
                     const std::string& name) override {
    return inner_->RemoveXattr(path, name);
  }
  std::string TypeName() const override { return inner_->TypeName(); }

 private:
  fs::FileSystemPtr inner_;
  std::optional<Errno> listxattr_error_;
  std::optional<std::uint64_t> max_read_;
};

TEST(AbstractionTest, ListXattrFailurePropagatesOutOfTheWalk) {
  // Regression: the walk used to treat EVERY ListXattr error as "no
  // xattrs" and hash on. An EIO mid-walk must fail the walk — silently
  // dropping xattrs would let a corrupted state masquerade as a match.
  auto disk = std::make_shared<storage::RamDisk>("d", 256 * 1024, nullptr);
  auto faulty =
      std::make_shared<FaultyFs>(std::make_shared<fs::Ext2Fs>(disk));
  vfs::Vfs v(faulty, nullptr);
  ASSERT_TRUE(faulty->Mkfs().ok());
  ASSERT_TRUE(v.Mount().ok());
  Write(v, "/f", "x");

  faulty->set_listxattr_error(Errno::kEIO);
  auto digest = ComputeAbstractState(v, {});
  ASSERT_FALSE(digest.ok());
  EXPECT_EQ(digest.error(), Errno::kEIO);
  auto node = HashNode(v, "/f", {});
  ASSERT_FALSE(node.ok());
  EXPECT_EQ(node.error(), Errno::kEIO);

  faulty->set_listxattr_error(std::nullopt);
  EXPECT_TRUE(ComputeAbstractState(v, {}).ok());
}

TEST(AbstractionTest, ListXattrNotSupportedIsQuietlySkipped) {
  // ENOTSUP is the one benign errno: VeriFS1-class systems simply have
  // no xattrs, which must hash like "no xattrs set" on a system that
  // has them.
  auto disk = std::make_shared<storage::RamDisk>("d", 256 * 1024, nullptr);
  auto faulty =
      std::make_shared<FaultyFs>(std::make_shared<fs::Ext2Fs>(disk));
  vfs::Vfs v(faulty, nullptr);
  ASSERT_TRUE(faulty->Mkfs().ok());
  ASSERT_TRUE(v.Mount().ok());
  Write(v, "/f", "x");

  const Md5Digest with_support = HashOf(v);
  faulty->set_listxattr_error(Errno::kENOTSUP);
  EXPECT_EQ(HashOf(v), with_support);
}

TEST(AbstractionTest, DeepTreeWalkDoesNotOverflowTheStack) {
  // The walk is iterative (explicit stack): a mkdir chain bounded only
  // by kPathMax must not translate tree depth into call-stack depth.
  Stack stack = MakeVerifs2();
  std::string path;
  std::size_t depth = 0;
  while (path.size() + 2 <= fs::kPathMax - 2) {
    path += "/d";
    ASSERT_TRUE(stack.v->Mkdir(path, 0755).ok()) << path.size();
    ++depth;
  }
  ASSERT_GT(depth, 1500u);

  auto paths = ListTreePaths(*stack.v, {});
  ASSERT_TRUE(paths.ok());
  EXPECT_EQ(paths.value().size(), depth);
  EXPECT_TRUE(ComputeAbstractState(*stack.v, {}).ok());
}

// ---------------------------------------------------------------------------
// Chunked content: a regular file's content enters the node bytes as the
// MD5 of each complete 4 KB chunk, then the raw tail.

std::string PatternData(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::string data(n, '\0');
  for (char& c : data) c = static_cast<char>(rng.Next());
  return data;
}

void WriteByte(vfs::Vfs& v, const std::string& path, std::uint64_t offset,
               char byte) {
  auto fd = v.Open(path, fs::kWrOnly, 0);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(v.Write(fd.value(), offset, AsBytes(std::string(1, byte))).ok());
  ASSERT_TRUE(v.Close(fd.value()).ok());
}

Md5Digest NodeOf(vfs::Vfs& v, const std::string& path) {
  auto node = HashNode(v, path, {});
  EXPECT_TRUE(node.ok()) << path;
  return node.ok() ? node.value().digest : Md5Digest{};
}

// The node byte scheme from before content was chunked, kept here as the
// reference for files under one chunk: the whole content raw, then the
// important attributes and the sorted xattrs (default options).
void AppendRawSchemeNodeBytes(Md5& md5ctx, vfs::Vfs& v,
                              const std::string& path) {
  auto attr = v.Stat(path);
  ASSERT_TRUE(attr.ok()) << path;
  const fs::InodeAttr& a = attr.value();
  if (a.type == fs::FileType::kRegular) {
    auto fd = v.Open(path, fs::kRdOnly, 0);
    ASSERT_TRUE(fd.ok()) << path;
    for (std::uint64_t offset = 0;;) {
      auto data = v.Read(fd.value(), offset, 64 * 1024);
      ASSERT_TRUE(data.ok()) << path;
      if (data.value().empty()) break;
      md5ctx.Update(data.value());
      offset += data.value().size();
    }
    ASSERT_TRUE(v.Close(fd.value()).ok());
  } else if (a.type == fs::FileType::kSymlink) {
    auto target = v.ReadLink(path);
    ASSERT_TRUE(target.ok()) << path;
    md5ctx.Update(target.value());
  }
  md5ctx.UpdateU64(static_cast<std::uint64_t>(a.type));
  md5ctx.UpdateU64(a.mode);
  md5ctx.UpdateU64(a.nlink);
  md5ctx.UpdateU64(a.uid);
  md5ctx.UpdateU64(a.gid);
  md5ctx.UpdateU64(a.type == fs::FileType::kDirectory ? 0 : a.size);
  auto names = v.ListXattr(path);
  if (!names.ok()) return;  // ENOTSUP: no xattrs
  std::vector<std::string> sorted = names.value();
  std::sort(sorted.begin(), sorted.end());
  for (const auto& name : sorted) {
    auto value = v.GetXattr(path, name);
    ASSERT_TRUE(value.ok()) << path << " " << name;
    md5ctx.Update(name);
    md5ctx.Update(value.value());
  }
}

// ComputeAbstractState and the incremental fold under the raw scheme.
struct RawSchemeDigests {
  Md5Digest state;
  Md5Digest fold;
};

RawSchemeDigests RawScheme(vfs::Vfs& v) {
  auto paths = ListTreePaths(v, {});
  EXPECT_TRUE(paths.ok());
  Md5 state;
  Md5 fold;
  for (const auto& path : paths.value_or(std::vector<std::string>{})) {
    AppendRawSchemeNodeBytes(state, v, path);
    state.Update(path);
    Md5 node;
    AppendRawSchemeNodeBytes(node, v, path);
    fold.UpdateU64(path.size());
    fold.Update(path);
    fold.Update(node.Final().bytes);
  }
  return {state.Final(), fold.Final()};
}

TEST(ChunkedContentTest, FilesUnderOneChunkHashAsBeforeChunking) {
  Stack ext2 = MakeExt2();
  Stack verifs2 = MakeVerifs2();
  for (vfs::Vfs* v : {ext2.v.get(), verifs2.v.get()}) {
    ASSERT_TRUE(v->Mkdir("/d", 0750).ok());
    Write(*v, "/d/empty", "");
    Write(*v, "/one", "x");
    Write(*v, "/d/mid", PatternData(3000, 1));
    Write(*v, "/last", PatternData(Md5::kChunkBytes - 1, 2));
    ASSERT_TRUE(v->Chmod("/one", 0600).ok());
    ASSERT_TRUE(v->Symlink("/one", "/s").ok());
    ASSERT_TRUE(v->Link("/d/mid", "/d/alias").ok());
    ASSERT_TRUE(v->SetXattr("/last", "user.tag", AsBytes("v")).ok());

    const RawSchemeDigests raw = RawScheme(*v);
    EXPECT_EQ(HashOf(*v), raw.state);
    IncrementalAbstraction inc;
    auto fold = inc.FullRecompute(*v, {});
    ASSERT_TRUE(fold.ok());
    EXPECT_EQ(fold.value(), raw.fold);

    // One complete chunk is where the schemes part.
    Write(*v, "/full", PatternData(Md5::kChunkBytes, 3));
    EXPECT_NE(HashOf(*v), RawScheme(*v).state);
  }
}

TEST(ChunkedContentTest, EveryChunkAndTheTailReachTheNodeDigest) {
  Stack stack = MakeVerifs2();
  for (std::size_t size : {4095, 4096, 4097, 65536, 131172}) {
    const std::string path = "/f" + std::to_string(size);
    const std::string data = PatternData(size, size);
    Write(*stack.v, path, data);
    const Md5Digest base = NodeOf(*stack.v, path);
    // The first byte, both sides of the first chunk boundary and of the
    // 64 KB read boundary, and the last byte (the tail, or the last
    // chunk's end).
    for (std::size_t at : {std::size_t{0}, std::size_t{4095},
                           std::size_t{4096}, std::size_t{65535},
                           std::size_t{65536}, size - 1}) {
      if (at >= size) continue;
      const std::string where = path + " byte " + std::to_string(at);
      WriteByte(*stack.v, path, at, static_cast<char>(data[at] ^ 1));
      EXPECT_NE(NodeOf(*stack.v, path), base) << where;
      WriteByte(*stack.v, path, at, data[at]);
      EXPECT_EQ(NodeOf(*stack.v, path), base) << where;
    }
  }
}

TEST(ChunkedContentTest, FileSystemsAgreeOnEqualContent) {
  Stack verifs1 = MakeVerifs(std::make_shared<verifs::Verifs1>());
  Stack verifs2 = MakeVerifs2();
  Stack ext2 = MakeExt2();
  for (vfs::Vfs* v : {verifs1.v.get(), verifs2.v.get(), ext2.v.get()}) {
    ASSERT_TRUE(v->Mkdir("/d", 0755).ok());
    Write(*v, "/d/a", PatternData(4097, 4));
    Write(*v, "/b", PatternData(70000, 5));
    Write(*v, "/c", PatternData(Md5::kChunkBytes * 3, 6));
    Write(*v, "/small", "tail only");
  }
  const Md5Digest want = HashOf(*verifs1.v);
  EXPECT_EQ(HashOf(*verifs2.v), want);
  EXPECT_EQ(HashOf(*ext2.v), want);
  for (const char* path : {"/d/a", "/b", "/c"}) {
    const Md5Digest node = NodeOf(*verifs1.v, path);
    EXPECT_EQ(NodeOf(*verifs2.v, path), node) << path;
    EXPECT_EQ(NodeOf(*ext2.v, path), node) << path;
  }
}

TEST(ChunkedContentTest, DigestDoesNotDependOnHowReadsSplitTheFile) {
  // Chunks are cut at file offsets, not at read boundaries: a file system
  // that returns at most 1,000 bytes per read carries partial chunks
  // from one read into the next and still hashes the same.
  auto faulty = std::make_shared<FaultyFs>(std::make_shared<verifs::Verifs2>());
  Stack stack = MakeVerifs(faulty);
  for (std::size_t size : {1000, 4095, 4096, 4097, 10000, 131172}) {
    const std::string path = "/f" + std::to_string(size);
    Write(*stack.v, path, PatternData(size, size));
    faulty->set_max_read(std::nullopt);
    const Md5Digest whole = NodeOf(*stack.v, path);
    faulty->set_max_read(1000);
    EXPECT_EQ(NodeOf(*stack.v, path), whole) << path;
  }
  faulty->set_max_read(std::nullopt);
  const Md5Digest whole = HashOf(*stack.v);
  faulty->set_max_read(1000);
  EXPECT_EQ(HashOf(*stack.v), whole);
}

}  // namespace
}  // namespace mcfs::core
