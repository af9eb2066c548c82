#include "net/frontier_service.h"

#include <algorithm>

#include "net/wire.h"
#include "util/log.h"

namespace mcfs::net {

namespace {

std::uint8_t OutcomeByte(mc::SharedFrontier::StealWait outcome) {
  switch (outcome) {
    case mc::SharedFrontier::StealWait::kEntry: return kStealEntry;
    case mc::SharedFrontier::StealWait::kTimeout: return kStealTimeout;
    case mc::SharedFrontier::StealWait::kDrained: return kStealDrained;
    case mc::SharedFrontier::StealWait::kStopped: return kStealStopped;
  }
  return kStealTimeout;
}

}  // namespace

bool FrontierService::Handles(FrameType type) const {
  switch (type) {
    case FrameType::kFrontierPush:
    case FrameType::kFrontierTrySteal:
    case FrameType::kFrontierStealWait:
    case FrameType::kFrontierStarted:
    case FrameType::kFrontierRetire:
    case FrameType::kFrontierStop:
    case FrameType::kFrontierStats:
      return true;
    default:
      return false;
  }
}

Result<Frame> FrontierService::Handle(const Frame& request,
                                      std::uint64_t conn_id) {
  Frame reply;
  reply.type = static_cast<FrameType>(
      static_cast<std::uint8_t>(request.type) | kReplyBit);

  switch (request.type) {
    case FrameType::kFrontierPush: {
      auto entry = DecodeFrontierEntry(request.payload);
      if (!entry.ok()) return entry.error();
      frontier_->Push(std::move(entry.value()));
      break;
    }
    case FrameType::kFrontierTrySteal: {
      auto req = DecodeStealRequest(request.payload, /*with_timeout=*/false);
      if (!req.ok()) return req.error();
      StealResponse rsp;
      if (auto entry =
              frontier_->TrySteal(static_cast<int>(req.value().worker))) {
        rsp.outcome = kStealEntry;
        rsp.entry = std::move(entry);
      } else {
        rsp.outcome = kStealTimeout;
      }
      reply.payload = EncodeStealResponse(rsp);
      break;
    }
    case FrameType::kFrontierStarted: {
      frontier_->WorkerStarted();
      std::lock_guard<std::mutex> lock(mu_);
      ++busy_balance_[conn_id];
      break;
    }
    case FrameType::kFrontierRetire: {
      frontier_->Retire();
      std::lock_guard<std::mutex> lock(mu_);
      --busy_balance_[conn_id];
      break;
    }
    case FrameType::kFrontierStop: {
      frontier_->RequestStop();
      break;
    }
    case FrameType::kFrontierStats: {
      FrontierStats stats;
      stats.size = frontier_->size();
      stats.peak = frontier_->peak_size();
      stats.pushed = frontier_->pushed();
      stats.stolen = frontier_->stolen();
      reply.payload = EncodeFrontierStats(stats);
      break;
    }
    default:
      return Errno::kENOTSUP;
  }

  if (frontier_->stopped()) reply.flags |= kFlagStopped;
  if (frontier_->Hungry()) reply.flags |= kFlagHungry;
  return reply;
}

Frame FrontierService::MakeStealReply(
    mc::SharedFrontier::StealWaitResult round) {
  Frame reply;
  reply.type = static_cast<FrameType>(
      static_cast<std::uint8_t>(FrameType::kFrontierStealWait) | kReplyBit);
  StealResponse rsp;
  rsp.outcome = OutcomeByte(round.outcome);
  rsp.entry = std::move(round.entry);
  reply.payload = EncodeStealResponse(rsp);
  if (frontier_->stopped()) reply.flags |= kFlagStopped;
  if (frontier_->Hungry()) reply.flags |= kFlagHungry;
  return reply;
}

void FrontierService::HandleAsync(const Frame& request, std::uint64_t conn_id,
                                  ReplyTokenPtr token) {
  if (request.type != FrameType::kFrontierStealWait) {
    token->Complete(Handle(request, conn_id));
    switch (request.type) {
      case FrameType::kFrontierPush:
      case FrameType::kFrontierRetire:
      case FrameType::kFrontierStop:
        // Work (or a verdict) may have arrived for a parked wait;
        // conclude now instead of waiting for the next tick.
        PollParked();
        break;
      default:
        break;
    }
    return;
  }

  auto req = DecodeStealRequest(request.payload, /*with_timeout=*/true);
  if (!req.ok()) {
    token->Complete(req.error());
    return;
  }
  const int worker = static_cast<int>(req.value().worker);
  auto round = frontier_->BeginWait(worker);
  if (round.outcome != mc::SharedFrontier::StealWait::kTimeout) {
    token->Complete(MakeStealReply(std::move(round)));
    return;
  }
  // Parked: the frontier-side wait is live (worker counts idle). The
  // reply token sits on the deadline list; no thread sleeps for it.
  const std::uint32_t wait_ms = std::min(req.value().timeout_ms, kMaxWaitMs);
  ParkedWait parked;
  parked.token = std::move(token);
  parked.conn_id = conn_id;
  parked.worker = worker;
  parked.deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(wait_ms);
  std::lock_guard<std::mutex> lock(mu_);
  parked_.push_back(std::move(parked));
}

void FrontierService::OnTick() { PollParked(); }

std::size_t FrontierService::parked_waits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return parked_.size();
}

void FrontierService::PollParked() {
  // Complete tokens outside mu_: Complete crosses into a reactor
  // shard's mailbox, and holding our mutex across that is pointless
  // lock nesting.
  std::vector<std::pair<ReplyTokenPtr, Frame>> done;
  const auto now = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = parked_.begin();
    while (it != parked_.end()) {
      auto round = frontier_->PollWait(it->worker);
      if (round.outcome == mc::SharedFrontier::StealWait::kTimeout) {
        if (now < it->deadline) {
          ++it;  // still parked, still counting idle
          continue;
        }
        // Deadline passed: conclude the wait. CancelWait restores the
        // busy count — a kTimeout reply means "worker busy between
        // rounds".
        frontier_->CancelWait(it->worker);
      }
      done.emplace_back(std::move(it->token),
                        MakeStealReply(std::move(round)));
      it = parked_.erase(it);
    }
  }
  for (auto& [token, reply] : done) token->Complete(std::move(reply));
}

void FrontierService::OnDisconnect(std::uint64_t conn_id) {
  int leaked = 0;
  std::vector<ParkedWait> cancelled;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = parked_.begin();
    while (it != parked_.end()) {
      if (it->conn_id == conn_id) {
        cancelled.push_back(std::move(*it));
        it = parked_.erase(it);
      } else {
        ++it;
      }
    }
    auto bal = busy_balance_.find(conn_id);
    if (bal != busy_balance_.end()) {
      leaked = bal->second;
      busy_balance_.erase(bal);
    }
  }
  // Order matters: a parked wait already decremented the busy count, so
  // restore those *before* retiring the leaked Started balance — doing
  // it the other way around double-decrements and can falsely drain a
  // live swarm. The dropped tokens' kEIO completions no-op (the
  // connection is already gone from its shard).
  for (ParkedWait& wait : cancelled) frontier_->CancelWait(wait.worker);
  cancelled.clear();
  if (leaked > 0) {
    MCFS_LOG_WARN << "frontier: connection " << conn_id << " died with "
                  << leaked << " busy workers; retiring them so "
                  << "termination detection can conclude";
    for (int i = 0; i < leaked; ++i) frontier_->Retire();
  }
}

}  // namespace mcfs::net
