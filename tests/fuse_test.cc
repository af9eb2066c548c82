// FUSE plumbing tests: the /dev/fuse channel (latency, stats,
// char-device identity), wire marshaling via the host/client pair, and
// the reverse notification path used for cache invalidation.
#include <gtest/gtest.h>

#include "fuse/fuse_channel.h"
#include "fuse/fuse_host.h"
#include "fuse/fuse_kernel.h"
#include "verifs/verifs2.h"

namespace mcfs::fuse {
namespace {

TEST(FuseChannelTest, TransactWithoutHostIsEnxio) {
  FuseChannel channel(nullptr);
  EXPECT_EQ(channel.Transact(AsBytes("ping")).error(), Errno::kENXIO);
}

TEST(FuseChannelTest, RoundTripAndStats) {
  FuseChannel channel(nullptr);
  channel.SetRequestHandler([](ByteView request) {
    Bytes reply(request.begin(), request.end());
    std::reverse(reply.begin(), reply.end());
    return reply;
  });
  auto reply = channel.Transact(AsBytes("abc"));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(AsString(reply.value()), "cba");
  EXPECT_EQ(channel.stats().requests, 1u);
  EXPECT_EQ(channel.stats().bytes_up, 3u);
  EXPECT_EQ(channel.stats().bytes_down, 3u);
}

TEST(FuseChannelTest, ChargesCrossingLatency) {
  SimClock clock;
  FuseChannel channel(&clock);
  channel.SetRequestHandler([](ByteView) { return Bytes{}; });
  ASSERT_TRUE(channel.Transact(AsBytes("x")).ok());
  // Two crossings (request + reply), each at least the crossing cost.
  EXPECT_GE(clock.now(), 8'000u);
}

TEST(FuseChannelTest, IsACharacterDevice) {
  // The property that makes CRIU refuse FUSE daemons (paper §5).
  FuseChannel channel(nullptr);
  EXPECT_TRUE(channel.is_char_device());
  EXPECT_STREQ(channel.device_path(), "/dev/fuse");
}

TEST(FuseChannelTest, NotificationsAreDroppedWithoutKernelHandler) {
  FuseChannel channel(nullptr);
  channel.Notify(AsBytes("lost"));  // must not crash
  EXPECT_EQ(channel.stats().notifications, 0u);

  std::string received;
  channel.SetNotifyHandler(
      [&received](ByteView n) { received = std::string(AsString(n)); });
  channel.Notify(AsBytes("heard"));
  EXPECT_EQ(received, "heard");
  EXPECT_EQ(channel.stats().notifications, 1u);
}

// ---------------------------------------------------------------------------
// Host + client wire marshaling
//
// (The full operation matrix runs through the client in the POSIX suite's
// verifs*-fuse instantiations; these tests cover the pieces the suite
// doesn't reach.)

struct FuseStack {
  std::unique_ptr<FuseChannel> channel;
  std::shared_ptr<verifs::Verifs2> hosted;
  std::unique_ptr<FuseHost> host;
  std::unique_ptr<FuseClientFs> client;
};

FuseStack MakeStack() {
  FuseStack stack;
  stack.channel = std::make_unique<FuseChannel>(nullptr);
  stack.hosted = std::make_shared<verifs::Verifs2>();
  stack.host = std::make_unique<FuseHost>(stack.hosted, stack.channel.get());
  stack.client = std::make_unique<FuseClientFs>(stack.channel.get());
  EXPECT_TRUE(stack.client->Mkfs().ok());
  EXPECT_TRUE(stack.client->Mount().ok());
  return stack;
}

TEST(FuseWireTest, ErrorCodesCrossTheWireIntact) {
  FuseStack stack = MakeStack();
  EXPECT_EQ(stack.client->GetAttr("/missing").error(), Errno::kENOENT);
  EXPECT_EQ(stack.client->Rmdir("/").error(), Errno::kEBUSY);
  EXPECT_EQ(stack.client->Unlink("/nope").error(), Errno::kENOENT);
  ASSERT_TRUE(stack.client->Mkdir("/d", 0755).ok());
  EXPECT_EQ(stack.client->Mkdir("/d", 0755).error(), Errno::kEEXIST);
}

TEST(FuseWireTest, SupportsQueryCrossesTheWire) {
  FuseStack stack = MakeStack();
  EXPECT_TRUE(stack.client->Supports(fs::FsFeature::kRename));
  EXPECT_TRUE(stack.client->Supports(fs::FsFeature::kCheckpointRestore));
}

TEST(FuseWireTest, BinaryPayloadsSurviveTheWire) {
  FuseStack stack = MakeStack();
  // Payload with embedded NULs and every byte value.
  Bytes payload(256);
  for (int i = 0; i < 256; ++i) payload[i] = static_cast<std::uint8_t>(i);
  auto fd = stack.client->Open("/bin", fs::kCreate | fs::kWrOnly, 0644);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(stack.client->Write(fd.value(), 0, payload).ok());
  ASSERT_TRUE(stack.client->Close(fd.value()).ok());

  auto rfd = stack.client->Open("/bin", fs::kRdOnly, 0);
  ASSERT_TRUE(rfd.ok());
  auto data = stack.client->Read(rfd.value(), 0, 256);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data.value(), payload);
  ASSERT_TRUE(stack.client->Close(rfd.value()).ok());
}

TEST(FuseWireTest, IoctlsForwardToHostedFileSystem) {
  FuseStack stack = MakeStack();
  ASSERT_TRUE(stack.client->Mkdir("/before", 0755).ok());
  auto snap = stack.client->Checkpoint();
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(stack.hosted->SnapshotCount(), 1u);

  ASSERT_TRUE(stack.client->Mkdir("/after", 0755).ok());
  ASSERT_TRUE(stack.client->Restore(snap.value()).ok());
  EXPECT_TRUE(stack.client->GetAttr("/before").ok());
  EXPECT_EQ(stack.client->GetAttr("/after").error(), Errno::kENOENT);
  // Restore preserves the snapshot; discard ends it.
  EXPECT_EQ(stack.hosted->SnapshotCount(), 1u);
  ASSERT_TRUE(stack.client->Discard(snap.value()).ok());
  EXPECT_EQ(stack.hosted->SnapshotCount(), 0u);
  EXPECT_EQ(stack.client->Restore(snap.value()).error(), Errno::kENOENT);
}

TEST(FuseWireTest, IoctlDiscardDropsWithoutRestoring) {
  FuseStack stack = MakeStack();
  auto snap = stack.client->Checkpoint();
  ASSERT_TRUE(snap.ok());
  ASSERT_TRUE(stack.client->Mkdir("/kept", 0755).ok());
  ASSERT_TRUE(stack.client->Discard(snap.value()).ok());
  EXPECT_TRUE(stack.client->GetAttr("/kept").ok());  // state untouched
  EXPECT_EQ(stack.client->Discard(snap.value()).error(), Errno::kENOENT);
}

TEST(FuseWireTest, RestoreNotificationsReachTheKernelSide) {
  FuseStack stack = MakeStack();
  stack.hosted->SetNotifier(stack.host.get());

  struct Recorder final : fs::KernelNotifier {
    void InvalEntry(const std::string& parent,
                    const std::string& name) override {
      entries.push_back(parent + "|" + name);
    }
    void InvalInode(fs::InodeNum ino) override { inos.push_back(ino); }
    std::vector<std::string> entries;
    std::vector<fs::InodeNum> inos;
  } recorder;
  stack.client->SetNotifier(&recorder);

  auto snap = stack.client->Checkpoint();
  ASSERT_TRUE(snap.ok());
  ASSERT_TRUE(stack.client->Mkdir("/dir", 0755).ok());
  ASSERT_TRUE(stack.client->Restore(snap.value()).ok());

  // The restore must have emitted an entry invalidation for /dir (the
  // path from the abandoned timeline) and inode invalidations.
  EXPECT_NE(std::find(recorder.entries.begin(), recorder.entries.end(),
                      "/|dir"),
            recorder.entries.end());
  EXPECT_FALSE(recorder.inos.empty());
}

TEST(FuseHostTest, HoldsCharDeviceHandle) {
  FuseStack stack = MakeStack();
  EXPECT_TRUE(stack.host->holds_char_device_handle());
  EXPECT_STREQ(stack.host->held_device_path(), "/dev/fuse");
  EXPECT_GT(stack.host->EstimateResidentBytes(), 0u);
}

TEST(FuseWireTest, MessageTrafficIsCounted) {
  FuseStack stack = MakeStack();
  const std::uint64_t before = stack.channel->stats().requests;
  ASSERT_TRUE(stack.client->Mkdir("/d", 0755).ok());
  ASSERT_TRUE(stack.client->GetAttr("/d").ok());
  EXPECT_EQ(stack.channel->stats().requests, before + 2);
}

}  // namespace
}  // namespace mcfs::fuse
