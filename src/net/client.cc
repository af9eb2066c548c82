#include "net/client.h"

#include <chrono>
#include <thread>

namespace mcfs::net {

namespace {

using Clock = std::chrono::steady_clock;

int MsUntil(Clock::time_point deadline) {
  const auto remain = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - Clock::now());
  return remain.count() > 0 ? static_cast<int>(remain.count()) : 0;
}

}  // namespace

RpcClient::RpcClient(Endpoint endpoint, RetryPolicy policy)
    : endpoint_(std::move(endpoint)), policy_(policy) {}

RpcClient::~RpcClient() {
  std::lock_guard<std::mutex> lock(mu_);
  socket_.Shutdown();
}

Result<Frame> RpcClient::Call(FrameType type, ByteView payload,
                              bool idempotent, int extra_timeout_ms) {
  const int attempts = idempotent ? std::max(1, policy_.attempts) : 1;
  int backoff_ms = policy_.backoff_ms;
  Errno last = Errno::kEIO;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      backoff_ms *= 2;
    }
    auto reply =
        CallOnce(type, payload, policy_.call_timeout_ms + extra_timeout_ms);
    if (reply.ok()) return reply;
    failures_.fetch_add(1, std::memory_order_relaxed);
    last = reply.error();
  }
  return last;
}

void RpcClient::BreakLocked(Errno error) {
  connected_ = false;
  // Shutdown (not Close): a reader may be blocked in RecvSome on this
  // fd right now — shutdown wakes it with EOF; the fd itself is only
  // replaced once no reader is busy (the reconnect path waits).
  socket_.Shutdown();
  for (std::uint64_t t : fifo_) failed_[t] = error;
  fifo_.clear();
}

Result<Frame> RpcClient::CallOnce(FrameType type, ByteView payload,
                                  int reply_timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);

  if (!connected_) {
    // Replace the socket only once no reader holds the old fd.
    cv_.wait(lock, [this] { return !reader_busy_; });
    if (!connected_) {
      lock.unlock();
      auto sock = ConnectTo(endpoint_, policy_.connect_timeout_ms);
      lock.lock();
      if (!sock.ok()) return sock.error();
      if (!connected_ && !reader_busy_) {
        socket_ = std::move(sock.value());
        decoder_ = FrameDecoder();
        connected_ = true;
      }
      // else a racing caller reconnected first; ours closes via RAII.
    }
    if (!connected_) return Errno::kEIO;
  }

  const std::uint64_t ticket = next_ticket_++;
  fifo_.push_back(ticket);
  // Send under mu_: serializes writers, so pipelined frames never
  // interleave and fifo_ order is exactly socket order.
  const Bytes frame = EncodeFrame(type, 0, payload);
  if (Status sent = socket_.SendAll(frame, policy_.call_timeout_ms);
      !sent.ok()) {
    BreakLocked(sent.error());
    cv_.notify_all();
    failed_.erase(ticket);
    return sent.error();
  }

  const auto deadline =
      Clock::now() + std::chrono::milliseconds(reply_timeout_ms);
  for (;;) {
    if (auto it = ready_.find(ticket); it != ready_.end()) {
      Frame reply = std::move(it->second);
      ready_.erase(it);
      return reply;
    }
    if (auto it = failed_.find(ticket); it != failed_.end()) {
      const Errno error = it->second;
      failed_.erase(it);
      return error;
    }

    if (!reader_busy_ && connected_) {
      // Claim the reader role: read exactly one frame, hand it to the
      // oldest pending ticket, then re-check our own.
      reader_busy_ = true;
      lock.unlock();
      Errno read_error = Errno::kOk;
      std::optional<Frame> got;
      for (;;) {
        auto next = decoder_.Next();
        if (!next.ok()) {
          read_error = next.error();
          break;
        }
        if (next.value().has_value()) {
          got = std::move(*next.value());
          break;
        }
        const int remain = MsUntil(deadline);
        if (remain <= 0) {
          read_error = Errno::kEAGAIN;
          break;
        }
        std::uint8_t buf[16 * 1024];
        auto n = socket_.RecvSome(buf, sizeof(buf), remain);
        if (!n.ok()) {
          read_error = n.error();
          break;
        }
        if (n.value() == 0) {
          read_error = Errno::kEIO;  // EOF with replies outstanding
          break;
        }
        decoder_.Feed(ByteView(buf, n.value()));
      }
      lock.lock();
      reader_busy_ = false;
      if (got.has_value()) {
        if (!fifo_.empty()) {
          const std::uint64_t front = fifo_.front();
          fifo_.pop_front();
          ready_[front] = std::move(*got);
        }
        // A frame with no pending ticket can only follow a break that
        // already failed the queue; drop it.
      } else {
        BreakLocked(read_error);
      }
      cv_.notify_all();
      continue;
    }

    // Someone else is reading (or the connection broke and our ticket
    // is about to fail). Wait for progress — but never past our own
    // deadline: a FIFO slot cannot be abandoned, so timing out means
    // breaking the connection for everyone.
    if (cv_.wait_until(lock, deadline) == std::cv_status::timeout &&
        ready_.find(ticket) == ready_.end() &&
        failed_.find(ticket) == failed_.end()) {
      BreakLocked(Errno::kEAGAIN);
      cv_.notify_all();
    }
  }
}

}  // namespace mcfs::net
