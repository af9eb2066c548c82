// FrontierService: serves a SharedFrontier over frames — the server
// half of remote work-stealing.
//
// The wrapped SharedFrontier runs the exact in-process termination
// protocol; remote workers participate through three translations:
//
//  * Started/Retire RPCs move the server-side busy count. The service
//    keeps a per-connection balance and retires leaked counts in
//    OnDisconnect, so a worker (or whole host) that dies mid-run cannot
//    wedge the swarm's termination detection forever.
//  * StealWait (HandleAsync) is *deferred*, never blocking: BeginWait
//    either answers immediately or parks the request's ReplyToken on a
//    deadline list, the requested timeout clamped to kMaxWaitMs. Each
//    reactor tick (and every Push / Retire / Stop, for latency)
//    re-probes parked waits via PollWait; deadline expiry concludes
//    with CancelWait + a kTimeout reply the client re-arms, so a remote
//    worker's long wait becomes a sequence of short server-side waits.
//    Between rounds the remote worker counts busy, which can only delay
//    — never falsify — the drained verdict. A parked remote worker costs
//    zero server threads while still counting idle for the whole parked
//    duration — the property the termination protocol needs
//    (instantaneous-probe polling would never observe all workers idle
//    at once).
//  * Every reply carries kFlagStopped/kFlagHungry so clients track the
//    sticky stop and donation pressure without polling RPCs.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "mc/frontier.h"
#include "net/server.h"

namespace mcfs::net {

class FrontierService final : public FrameService {
 public:
  // Server-side cap on one StealWait round. Clients re-arm on kTimeout.
  static constexpr std::uint32_t kMaxWaitMs = 1000;

  // The frontier is borrowed and must outlive the service.
  explicit FrontierService(mc::SharedFrontier* frontier)
      : frontier_(frontier) {}

  bool Handles(FrameType type) const override;
  // Every request type but StealWait, which only HandleAsync serves.
  Result<Frame> Handle(const Frame& request, std::uint64_t conn_id) override;
  void HandleAsync(const Frame& request, std::uint64_t conn_id,
                   ReplyTokenPtr token) override;
  void OnTick() override;
  void OnDisconnect(std::uint64_t conn_id) override;

  // Steal-waits currently parked on the deadline list (tests: 64 parked
  // workers, zero extra server threads).
  std::size_t parked_waits() const;

 private:
  // A deferred StealWait: the frontier-side wait began (busy count
  // decremented); the reply completes from OnTick / a Push / disconnect.
  struct ParkedWait {
    ReplyTokenPtr token;
    std::uint64_t conn_id = 0;
    int worker = 0;
    std::chrono::steady_clock::time_point deadline;
  };

  // Builds the StealWait reply frame; flags reflect frontier state at
  // completion time, like every other reply.
  Frame MakeStealReply(mc::SharedFrontier::StealWaitResult round);

  // Re-probes every parked wait, completing those that concluded.
  void PollParked();

  mc::SharedFrontier* const frontier_;

  mutable std::mutex mu_;
  // Outstanding Started-minus-Retired per connection, for disconnect
  // cleanup.
  std::map<std::uint64_t, int> busy_balance_;
  std::vector<ParkedWait> parked_;
};

}  // namespace mcfs::net
