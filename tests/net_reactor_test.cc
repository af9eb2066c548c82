// Reactor FrameServer tests (DESIGN.md §7.9): lifecycle-flag race
// regression, per-connection FIFO reply order under deferred replies,
// parked steal-waits costing zero threads, scalar-RPC coalescing, a
// >=64-connection mixed-traffic storm with mid-run disconnects, and a
// two-shard reactor serving mixed traffic.
#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <thread>
#include <vector>

#include "mc/sharded_table.h"
#include "net/frontier_service.h"
#include "net/remote_frontier.h"
#include "net/remote_store.h"
#include "net/server.h"
#include "net/visited_service.h"
#include "net/wire.h"

namespace mcfs::net {
namespace {

Md5Digest DigestOf(std::uint64_t seed) {
  Md5 md5;
  md5.UpdateU64(seed);
  return md5.Final();
}

Endpoint LoopbackTcp() {
  Endpoint ep;
  ep.host = "127.0.0.1";
  ep.port = 0;
  return ep;
}

RetryPolicy FastPolicy() {
  RetryPolicy policy;
  policy.attempts = 2;
  policy.backoff_ms = 5;
  policy.call_timeout_ms = 2000;
  policy.connect_timeout_ms = 500;
  return policy;
}

// Reads exactly one frame off a raw socket (blocking, bounded).
Result<Frame> ReadFrame(Socket& socket, FrameDecoder& decoder) {
  std::uint8_t buf[4096];
  for (int round = 0; round < 1000; ++round) {
    auto next = decoder.Next();
    if (!next.ok()) return next.error();
    if (next.value().has_value()) return std::move(*next.value());
    auto n = socket.RecvSome(buf, sizeof(buf), /*timeout_ms=*/50);
    if (!n.ok() && n.error() != Errno::kEAGAIN) return n.error();
    if (n.ok() && n.value() == 0) return Errno::kEIO;
    if (n.ok()) decoder.Feed(ByteView(buf, n.value()));
  }
  return Errno::kEAGAIN;
}

// --- lifecycle flags (satellite 1: TSan regression) -----------------

// running_/stopping_ used to be plain bools read by one thread while
// Stop()'s caller wrote them — a data race TSan flags. This test hammers
// running() from one thread while another stops the server; under
// -DMCFS_TSAN=ON it is the regression pin.
TEST(NetReactorTest, RunningFlagIsRaceFreeAgainstStop) {
  mc::ShardedVisitedTable table;
  VisitedService service(&table);
  FrameServer server({&service});
  ASSERT_TRUE(server.Start(LoopbackTcp()).ok());
  ASSERT_TRUE(server.running());

  std::atomic<bool> quit{false};
  std::thread watcher([&] {
    std::uint64_t reads = 0;
    while (!quit.load(std::memory_order_acquire)) {
      if (server.running()) ++reads;  // the racing read
    }
    EXPECT_GT(reads, 0u);
  });
  // Give the watcher a moment to overlap with Stop's writes.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  server.Stop();
  EXPECT_FALSE(server.running());
  quit.store(true, std::memory_order_release);
  watcher.join();
}

// --- FIFO reply order under deferred replies ------------------------

// A pipelined pair on one raw socket: first a StealWait that parks
// (empty frontier, no other workers -> the wait sits on the deadline
// list), then a Stats request the service answers instantly. The
// reactor must hold the instant reply behind the parked one — i-th
// reply answers i-th request; RpcClient's pipelining has no request
// ids to reorder with.
TEST(NetReactorTest, DeferredReplyKeepsPerConnectionFifoOrder) {
  mc::SharedFrontier frontier(4);
  frontier.WorkerStarted();  // one busy worker so the wait parks
  FrontierService service(&frontier);
  FrameServer server({&service});
  ASSERT_TRUE(server.Start(LoopbackTcp()).ok());

  auto conn = ConnectTo(server.endpoint(), 1000);
  ASSERT_TRUE(conn.ok());
  Socket socket = std::move(conn.value());

  // Started: this connection's worker joins the busy count.
  ASSERT_TRUE(socket
                  .SendAll(EncodeFrame(FrameType::kFrontierStarted, 0, {}),
                           1000)
                  .ok());
  StealRequest steal;
  steal.worker = 1;
  steal.timeout_ms = 150;
  Bytes wait_frame = EncodeFrame(FrameType::kFrontierStealWait, 0,
                                 EncodeStealRequest(steal, true));
  Bytes stats_frame = EncodeFrame(FrameType::kFrontierStats, 0, {});
  // One write, two requests: the wait parks ~150ms, the stats request
  // is answerable immediately.
  Bytes pipelined = wait_frame;
  pipelined.insert(pipelined.end(), stats_frame.begin(), stats_frame.end());
  ASSERT_TRUE(socket.SendAll(pipelined, 1000).ok());

  FrameDecoder decoder;
  auto started_reply = ReadFrame(socket, decoder);
  ASSERT_TRUE(started_reply.ok());
  EXPECT_TRUE(started_reply.value().IsReplyTo(FrameType::kFrontierStarted));

  const auto before = std::chrono::steady_clock::now();
  auto first = ReadFrame(socket, decoder);
  ASSERT_TRUE(first.ok());
  // FIFO: the parked wait's reply arrives first even though the stats
  // reply was ready ~150ms earlier...
  EXPECT_TRUE(first.value().IsReplyTo(FrameType::kFrontierStealWait));
  auto rsp = DecodeStealResponse(first.value().payload);
  ASSERT_TRUE(rsp.ok());
  EXPECT_EQ(rsp.value().outcome, kStealTimeout);
  // ...and it genuinely parked instead of answering instantly.
  EXPECT_GE(std::chrono::steady_clock::now() - before,
            std::chrono::milliseconds(100));

  auto second = ReadFrame(socket, decoder);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().IsReplyTo(FrameType::kFrontierStats));

  socket.Close();
  server.Stop();
  frontier.Retire();
}

// --- parked waits cost no threads -----------------------------------

// 16 clients all parked in steal-waits on an empty frontier: the
// thread-per-conn server would hold 16 blocked threads; the reactor
// holds them on a deadline list under its single loop thread.
TEST(NetReactorTest, ParkedStealWaitsHoldNoServerThreads) {
  mc::SharedFrontier frontier(64);
  frontier.WorkerStarted();  // keep the swarm live while clients park
  FrontierService service(&frontier);
  FrameServer server({&service});
  ASSERT_TRUE(server.Start(LoopbackTcp()).ok());

  constexpr int kClients = 16;
  std::vector<Socket> sockets;
  std::vector<FrameDecoder> decoders(kClients);
  for (int i = 0; i < kClients; ++i) {
    auto conn = ConnectTo(server.endpoint(), 1000);
    ASSERT_TRUE(conn.ok());
    sockets.push_back(std::move(conn.value()));
    // Protocol: a steal-waiter is a Started worker (its wait may then
    // decrement the busy count it contributed).
    StealRequest steal;
    steal.worker = static_cast<std::uint32_t>(i + 1);
    steal.timeout_ms = 400;
    Bytes pipelined = EncodeFrame(FrameType::kFrontierStarted, 0, {});
    const Bytes wait = EncodeFrame(FrameType::kFrontierStealWait, 0,
                                   EncodeStealRequest(steal, true));
    pipelined.insert(pipelined.end(), wait.begin(), wait.end());
    ASSERT_TRUE(sockets.back().SendAll(pipelined, 1000).ok());
    auto started_reply = ReadFrame(sockets.back(), decoders[i]);
    ASSERT_TRUE(started_reply.ok());
    EXPECT_TRUE(
        started_reply.value().IsReplyTo(FrameType::kFrontierStarted));
  }
  // Wait until every request has parked server-side.
  for (int round = 0; round < 200 && service.parked_waits() < kClients;
       ++round) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(service.parked_waits(), static_cast<std::size_t>(kClients));
  // The acceptance criterion: all of them served by the reactor's loop
  // thread(s), not one thread per parked wait.
  EXPECT_LE(server.serving_threads(), 2);

  // Push one entry: exactly one parked wait should conclude kEntry.
  mc::FrontierEntry entry;
  entry.digest = DigestOf(7);
  entry.tag = 7;
  frontier.Push(std::move(entry));

  int entries = 0, timeouts = 0;
  for (int i = 0; i < kClients; ++i) {
    Socket& socket = sockets[static_cast<std::size_t>(i)];
    FrameDecoder& decoder = decoders[static_cast<std::size_t>(i)];
    auto reply = ReadFrame(socket, decoder);
    ASSERT_TRUE(reply.ok());
    ASSERT_TRUE(reply.value().IsReplyTo(FrameType::kFrontierStealWait));
    auto rsp = DecodeStealResponse(reply.value().payload);
    ASSERT_TRUE(rsp.ok());
    if (rsp.value().outcome == kStealEntry) {
      ++entries;
      ASSERT_TRUE(rsp.value().entry.has_value());
      EXPECT_EQ(rsp.value().entry->tag, 7u);
    } else {
      EXPECT_EQ(rsp.value().outcome, kStealTimeout);
      ++timeouts;
    }
  }
  EXPECT_EQ(entries, 1);  // exactly-once, even from the parked list
  EXPECT_EQ(timeouts, kClients - 1);

  sockets.clear();
  server.Stop();
  frontier.Retire();
}

// --- scalar-RPC coalescing ------------------------------------------

TEST(NetReactorTest, ScalarOpsCoalesceIntoFewerWireBatches) {
  mc::ShardedVisitedTable table;
  VisitedService service(&table);
  FrameServer server({&service});
  ASSERT_TRUE(server.Start(LoopbackTcp()).ok());
  RemoteVisitedStore remote(server.endpoint(), FastPolicy());

  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        // Unique per (thread, i): every scalar insert is a real insert.
        const Md5Digest d =
            DigestOf(static_cast<std::uint64_t>(t) * 1'000'000 + i);
        EXPECT_TRUE(remote.Insert(d).inserted);
        EXPECT_TRUE(remote.Contains(d));
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(table.size(), kThreads * kPerThread);
  const auto stats = remote.coalesce_stats();
  EXPECT_EQ(stats.scalar_calls, 2 * kThreads * kPerThread);
  // Concurrent scalars must have shared wire batches. (Equality would
  // mean zero coalescing ever happened across 8 threads.)
  EXPECT_LT(stats.wire_batches, stats.scalar_calls);
  EXPECT_FALSE(remote.health().degraded);
  server.Stop();
}

// Coalesced scalars agree with a local table even when every thread
// inserts the *same* digests (duplicates inside one wire batch).
TEST(NetReactorTest, CoalescedDuplicateInsertsGrantExactlyOneCredit) {
  mc::ShardedVisitedTable table;
  VisitedService service(&table);
  FrameServer server({&service});
  ASSERT_TRUE(server.Start(LoopbackTcp()).ok());
  RemoteVisitedStore remote(server.endpoint(), FastPolicy());

  constexpr int kThreads = 8;
  constexpr std::uint64_t kDigests = 200;
  std::atomic<std::uint64_t> credits{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (std::uint64_t i = 0; i < kDigests; ++i) {
        if (remote.Insert(DigestOf(i)).inserted) {
          credits.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  // Each digest's discovery credit granted exactly once across all
  // threads, batches, and duplicate-in-one-batch collisions.
  EXPECT_EQ(credits.load(), kDigests);
  EXPECT_EQ(table.size(), kDigests);
  server.Stop();
}

// --- the storm (satellite 3) ----------------------------------------

// >=64 concurrent clients: a third hammer the visited store, a third
// push/steal frontier work, a third park in steal-waits mid-storm; a
// handful of clients disconnect abruptly partway through. The reactor
// must survive TSan-clean, keep the table exact, keep termination
// accounting balanced (the final drain concludes), and do it all from
// <=2 server threads.
TEST(NetReactorTest, SixtyFourClientStormWithMidRunDisconnects) {
  mc::ShardedVisitedTable table;
  VisitedService visited(&table);
  mc::SharedFrontier frontier(128);
  FrontierService frontier_service(&frontier);
  FrameServer server({&visited, &frontier_service});
  ASSERT_TRUE(server.Start(LoopbackTcp()).ok());

  constexpr int kClients = 66;
  constexpr std::uint64_t kInsertsPerStoreClient = 60;
  std::atomic<std::uint64_t> store_inserted{0};
  std::atomic<std::uint64_t> entries_stolen{0};
  std::atomic<int> waiters_done{0};

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      if (c % 3 == 0) {
        // Visited-store traffic; every 4th of these drops its
        // connection mid-run (abrupt close, no goodbye).
        RemoteVisitedStore remote(server.endpoint(), FastPolicy());
        const bool deserter = (c % 12 == 0);
        const std::uint64_t quota =
            deserter ? kInsertsPerStoreClient / 2 : kInsertsPerStoreClient;
        for (std::uint64_t i = 0; i < quota; ++i) {
          const Md5Digest d =
              DigestOf(static_cast<std::uint64_t>(c) * 100'000 + i);
          if (remote.Insert(d).inserted) {
            store_inserted.fetch_add(1, std::memory_order_relaxed);
          }
        }
        // Destructor closes the socket with requests possibly still
        // buffered server-side — the mid-storm disconnect.
      } else if (c % 3 == 1) {
        // Frontier producer/consumer.
        RemoteFrontier remote(server.endpoint(), 128, FastPolicy());
        remote.WorkerStarted();
        for (int i = 0; i < 20; ++i) {
          mc::FrontierEntry entry;
          entry.digest = DigestOf(static_cast<std::uint64_t>(c));
          entry.tag = static_cast<std::uint64_t>(c) * 1000 +
                      static_cast<std::uint64_t>(i);
          remote.Push(std::move(entry));
        }
        for (int i = 0; i < 10; ++i) {
          if (remote.TrySteal(c).has_value()) {
            entries_stolen.fetch_add(1, std::memory_order_relaxed);
          }
        }
        remote.Retire();
      } else {
        // Steal-waiter: parks mid-storm, then concludes by entry,
        // timeout, or the final drain.
        RemoteFrontier remote(server.endpoint(), 128, FastPolicy());
        remote.WorkerStarted();
        for (int i = 0; i < 4; ++i) {
          auto entry = remote.StealOrTerminate(c, nullptr);
          if (!entry.has_value()) break;  // drained or stopped
          entries_stolen.fetch_add(1, std::memory_order_relaxed);
        }
        remote.Retire();
        waiters_done.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Mid-storm: the server must be running the whole fleet on the
  // reactor loop alone.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_LE(server.serving_threads(), 2);
  EXPECT_TRUE(server.running());

  for (auto& client : clients) client.join();
  EXPECT_GE(server.connections_accepted(), static_cast<std::uint64_t>(
                                               kClients));

  // Exact visited accounting despite disconnects: every insert that was
  // acknowledged is in the table, each exactly once.
  EXPECT_EQ(table.size(), store_inserted.load());
  // All steal-waiters concluded — termination detection survived parked
  // waits + disconnect cleanup (a busy-count leak would hang them, and
  // the test, forever).
  EXPECT_EQ(waiters_done.load(), kClients / 3);
  server.Stop();
  EXPECT_FALSE(server.running());
}

// Multi-shard reactor serves the same traffic (connections round-robin
// across two loops).
TEST(NetReactorTest, TwoShardReactorServesMixedTraffic) {
  ServerOptions options;
  options.reactor_shards = 2;
  mc::ShardedVisitedTable table;
  VisitedService visited(&table);
  FrameServer server({&visited}, options);
  ASSERT_TRUE(server.Start(LoopbackTcp()).ok());
  EXPECT_EQ(server.serving_threads(), 2);

  std::vector<std::thread> clients;
  for (int c = 0; c < 8; ++c) {
    clients.emplace_back([&, c] {
      RemoteVisitedStore remote(server.endpoint(), FastPolicy());
      for (std::uint64_t i = 0; i < 50; ++i) {
        remote.Insert(DigestOf(static_cast<std::uint64_t>(c) * 1000 + i));
      }
    });
  }
  for (auto& client : clients) client.join();
  EXPECT_EQ(table.size(), 8u * 50u);
  server.Stop();
}

}  // namespace
}  // namespace mcfs::net
