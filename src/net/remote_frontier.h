// RemoteFrontier: the Frontier interface backed by a frontier server —
// remote work-stealing over the same push/steal/terminate protocol the
// in-process SharedFrontier speaks.
//
// Connection layout: one shared "main" channel for push / try-steal /
// started / retire / stop / stats, plus one *dedicated* channel per
// worker for StealWait. The split is what makes pipelining safe: a
// StealWait parks server-side (up to FrontierService::kMaxWaitMs per
// round) on its connection's thread, and FIFO reply matching means
// anything pipelined behind it would stall that long too. On its own
// channel, a parked wait stalls nobody.
//
// Blocking steal = bounded rounds: StealOrTerminate issues StealWait
// RPCs in a loop; kTimeout re-arms, kEntry/kDrained/kStopped conclude.
// Between rounds the worker counts busy server-side, which can only
// delay — never falsify — the drained verdict (same argument as
// SharedFrontier::StealOrTerminateFor's contract).
//
// Sticky stop travels both ways: RequestStop() forwards to the server
// (reaching workers on other hosts), and every reply's kFlagStopped
// updates the local cache the explorer polls via stopped().
//
// Degradation mirrors RemoteVisitedStore: on RPC failure the frontier
// flips — once, stickily — to a private SharedFrontier, replaying the
// local Started-minus-Retired balance so the fallback's termination
// protocol starts coherent, and carrying the stop flag over. Entries
// being pushed when the server died are pushed to the fallback instead
// (never dropped). The flip is logged and counted in health().
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>

#include "mc/frontier.h"
#include "net/client.h"

namespace mcfs::net {

class RemoteFrontier final : public mc::Frontier {
 public:
  // `workers` sizes the fallback frontier's hunger threshold, matching
  // what an in-process swarm of the same width would use.
  RemoteFrontier(Endpoint endpoint, int workers, RetryPolicy policy = {});

  void Push(mc::FrontierEntry entry) override;
  std::optional<mc::FrontierEntry> TrySteal(int worker) override;
  void WorkerStarted() override;
  void Retire() override;
  std::optional<mc::FrontierEntry> StealOrTerminate(
      int worker, double* idle_seconds) override;
  void RequestStop() override;
  bool stopped() const override;
  bool Hungry() const override;

  std::uint64_t size() const override;
  std::uint64_t peak_size() const override;
  std::uint64_t pushed() const override;
  std::uint64_t stolen() const override;

  mc::RemoteHealth health() const override;

  const Endpoint& endpoint() const { return endpoint_; }

 private:
  // One client-side StealWait round (server caps its share of it).
  static constexpr std::uint32_t kStealRoundMs = 1000;

  // Issues the RPC on `client`, validates the reply type, and folds the
  // reply's stop/hungry flags into the local caches. Error replies and
  // transport failures both come back as errors.
  Result<Frame> CallFrontier(RpcClient& client, FrameType type,
                             ByteView payload, bool idempotent,
                             int extra_timeout_ms = 0) const;

  // Sticky flip; returns the fallback (creating it on first call).
  mc::SharedFrontier* Degrade(Errno error);
  bool degraded() const { return degraded_.load(std::memory_order_acquire); }

  // The per-worker StealWait channel, created on first use.
  RpcClient* StealChannel(int worker);

  // Best-effort refresh of the cached size/peak/pushed/stolen stats.
  void RefreshStats() const;

  const Endpoint endpoint_;
  const RetryPolicy policy_;
  const int workers_;

  mutable RpcClient main_;
  std::mutex channels_mu_;
  std::map<int, std::unique_ptr<RpcClient>> steal_channels_;

  // Serializes the Started/Retire/RequestStop counts and the degrade
  // transition, so the fallback's replayed busy count is exact. These
  // are per-worker-lifetime events, not per-op — contention is nil.
  std::mutex mu_;
  int active_ = 0;  // local Started-minus-Retired balance
  std::unique_ptr<mc::SharedFrontier> fallback_;

  std::atomic<bool> degraded_{false};
  std::atomic<std::uint64_t> degrade_events_{0};
  std::atomic<bool> stop_requested_{false};   // local RequestStop calls
  mutable std::atomic<bool> remote_stopped_{false};  // learned from flags
  // Optimistically hungry until the first reply says otherwise, so
  // early donations flow before any flag has been cached.
  mutable std::atomic<bool> remote_hungry_{true};

  mutable std::atomic<std::uint64_t> stat_size_{0};
  mutable std::atomic<std::uint64_t> stat_peak_{0};
  mutable std::atomic<std::uint64_t> stat_pushed_{0};
  mutable std::atomic<std::uint64_t> stat_stolen_{0};
};

}  // namespace mcfs::net
