#include "mc/explorer.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <numeric>
#include <vector>

namespace mcfs::mc {

namespace {

class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace

Explorer::Explorer(System& system, ExplorerOptions options)
    : system_(system),
      options_(options),
      visited_(1024),
      rng_(options.seed) {
  if (options_.use_bitstate && options_.shared_store == nullptr) {
    bitstate_ =
        std::make_unique<ConcurrentBitstateFilter>(options_.bitstate_bits);
  }
  if (options_.resume_visited != nullptr) {
    auto resumed = VisitedTable::Deserialize(*options_.resume_visited);
    if (resumed.ok()) {
      if (options_.shared_store != nullptr) {
        // Seed the shared store too: resumed states must cost no worker
        // any discovery credit, not just this one. One batched insert —
        // a resumed image can hold millions of digests, and on a remote
        // store that would otherwise be millions of round-trips.
        std::vector<Md5Digest> seeds;
        resumed.value().ForEach(
            [&seeds](const Md5Digest& digest) { seeds.push_back(digest); });
        (void)options_.shared_store->InsertBatch(seeds);
      }
      visited_ = std::move(resumed).value();
    } else {
      // A rejected image (truncated, garbage, or the empty sentinel a
      // bitstate run would produce) must not silently degrade into a
      // fresh search: the caller asked to *resume*, and re-counting
      // already-explored states would corrupt every downstream figure.
      resume_status_ = resumed.error();
    }
  }
}

Result<Bytes> Explorer::ExportCheckpoint() const {
  if (bitstate_ != nullptr) {
    // Bitstate mode never populates visited_; serializing it would yield
    // an empty image that a resumed run would happily accept as "no
    // states explored yet".
    return Errno::kENOTSUP;
  }
  return visited_.Serialize();
}

void Explorer::AccountMemory() {
  if (options_.memory == nullptr) return;
  std::uint64_t table_bytes;
  if (options_.shared_store != nullptr) {
    // The worker pays for its walk-control table plus the shared store
    // (which every sharer reports — the model cares about pressure, not
    // exact attribution).
    table_bytes = options_.shared_store->bytes_used() + visited_.bytes_used();
  } else if (options_.use_bitstate) {
    table_bytes = bitstate_->bytes_used();
  } else {
    table_bytes = visited_.bytes_used();
  }
  (void)options_.memory->SetUsage(table_bytes + stored_state_bytes_);
}

bool Explorer::ShouldStop() {
  if (options_.cancel != nullptr &&
      options_.cancel->load(std::memory_order_relaxed)) {
    stats_.cancelled = true;
    return true;
  }
  // A remote peer's violation reaches this host as the frontier's sticky
  // stop (the swarm raises it alongside the cancel flag); polling it
  // here halts mid-search workers that would never observe the remote
  // cancel otherwise.
  if (options_.shared_frontier != nullptr &&
      options_.shared_frontier->stopped()) {
    stats_.cancelled = true;
    return true;
  }
  if (options_.target_unique_states != 0) {
    // The target is judged against the shared store, so buffered credit
    // must be resolved first — at the cost of degrading the batch to the
    // interval between ShouldStop calls while a target is armed.
    FlushCreditBuffer();
    const std::uint64_t known = options_.shared_store != nullptr
                                    ? options_.shared_store->size()
                                    : stats_.unique_states;
    if (known >= options_.target_unique_states) {
      stats_.cancelled = true;
      return true;
    }
  }
  return false;
}

bool Explorer::BufferSharedCredit() const {
  return options_.mode == SearchMode::kRandomWalk &&
         options_.shared_store != nullptr && options_.store_batch_size > 1;
}

void Explorer::FlushCreditBuffer() {
  if (credit_buffer_.empty()) return;
  const std::vector<StoreInsert> results =
      options_.shared_store->InsertBatch(credit_buffer_);
  credit_buffer_.clear();
  bool resized = false;
  std::uint64_t rehashed = 0;
  for (const StoreInsert& r : results) {
    if (r.inserted) {
      ++stats_.unique_states;
      stored_state_bytes_ += system_.ConcreteStateBytes();
    } else {
      ++stats_.revisits;
    }
    resized |= r.resized;
    rehashed += r.rehashed;
  }
  if (resized && options_.clock != nullptr) {
    options_.clock->Advance(rehashed * options_.rehash_cost_per_entry);
  }
  AccountMemory();
}

Explorer::RecordResult Explorer::RecordState(const Md5Digest& digest) {
  RecordResult result;
  if (options_.shared_store != nullptr) {
    // The private table stays authoritative for *walk control* (the
    // worker's own revisit structure); the shared store arbitrates the
    // *discovery credit*: whichever worker inserts a state first
    // swarm-wide owns it, so summed per-worker uniques equal the union.
    const VisitedTable::InsertResult local = visited_.Insert(digest);
    if (local.resized && options_.clock != nullptr) {
      options_.clock->Advance(local.rehashed *
                              options_.rehash_cost_per_entry);
    }
    result.locally_new = local.inserted;
    if (local.inserted) {
      if (BufferSharedCredit()) {
        // Walk mode: the shared insert settles only the discovery
        // credit (the walk steers by locally_new), so it is deferred
        // into a batch — one round-trip per store_batch_size states on
        // a socket-backed store. unique/revisit accounting happens at
        // flush time; globally_new is provisional and unused here.
        result.globally_new = true;
        credit_buffer_.push_back(digest);
        if (credit_buffer_.size() >= options_.store_batch_size) {
          FlushCreditBuffer();
        }
        return result;
      }
      // Only a locally-new state can be globally new: if this worker saw
      // it before, it inserted it into the shared store then.
      const StoreInsert shared = options_.shared_store->Insert(digest);
      if (shared.resized && options_.clock != nullptr) {
        options_.clock->Advance(shared.rehashed *
                                options_.rehash_cost_per_entry);
      }
      result.globally_new = shared.inserted;
    }
  } else if (options_.use_bitstate) {
    result.locally_new = result.globally_new =
        bitstate_->Insert(digest).inserted;
  } else {
    const VisitedTable::InsertResult r = visited_.Insert(digest);
    if (r.resized && options_.clock != nullptr) {
      // The resize stall of Figure 3: exploration pauses while every
      // stored digest is rehashed into the doubled table.
      options_.clock->Advance(r.rehashed * options_.rehash_cost_per_entry);
    }
    result.locally_new = result.globally_new = r.inserted;
  }
  if (result.globally_new) {
    ++stats_.unique_states;
    // Spin retains per-state restore information; account for it even in
    // modes that do not keep the bytes live (the memory pressure is what
    // Figure 3 measures).
    stored_state_bytes_ += system_.ConcreteStateBytes();
  } else {
    ++stats_.revisits;
  }
  AccountMemory();
  return result;
}

void Explorer::MaybeSample() {
  if (!options_.progress_callback || options_.progress_interval_ops == 0) {
    return;
  }
  if (stats_.operations % options_.progress_interval_ops != 0) return;
  // Samples feed the swarm's merged (store-exact) series: resolve any
  // buffered credit so this worker's counters agree with the store.
  FlushCreditBuffer();
  ProgressSample sample;
  sample.operations = stats_.operations;
  sample.sim_seconds =
      options_.clock != nullptr ? options_.clock->seconds() : 0;
  sample.unique_states = stats_.unique_states;
  sample.swap_used_bytes =
      options_.memory != nullptr ? options_.memory->swap_used() : 0;
  sample.table_resizes = options_.shared_store != nullptr
                             ? options_.shared_store->resize_count()
                             : visited_.resize_count();
  sample.por_pruned_transitions = stats_.por_pruned_transitions;
  options_.progress_callback(sample);
}

ExploreStats Explorer::Run() {
  stats_ = ExploreStats{};
  stored_state_bytes_ = 0;
  credit_buffer_.clear();
  sleep_map_.clear();
  // A zero batch size reads as "no batching", and the flush paths guard
  // on a non-empty buffer anyway — but clamping to 1 makes the
  // invariant ("every locally-new digest's credit is resolved within
  // batch_size insertions") hold by construction instead of by the
  // accident of `size() >= 0` always being true.
  if (options_.store_batch_size == 0) options_.store_batch_size = 1;
  if (!resume_status_.ok()) {
    stats_.violation_report =
        "resume_visited checkpoint rejected: " +
        std::string(ErrnoName(resume_status_.error()));
    return stats_;
  }
  const double sim_start =
      options_.clock != nullptr ? options_.clock->seconds() : 0;
  WallTimer timer;

  switch (options_.mode) {
    case SearchMode::kDfs:
      stats_ = RunDfs();
      break;
    case SearchMode::kRandomWalk:
      stats_ = RunRandomWalk();
      break;
  }

  stats_.wall_seconds = timer.seconds();
  stats_.sim_seconds =
      (options_.clock != nullptr ? options_.clock->seconds() : 0) - sim_start;
  return stats_;
}

// ---------------------------------------------------------------------------
// Depth-first search with backtracking

ExploreStats Explorer::RunDfs() {
  struct Frame {
    SnapshotId snapshot;
    Md5Digest digest;                // abstract hash of this node
    std::vector<std::size_t> order;  // randomized untried action order
    std::size_t next = 0;
    std::uint32_t depth = 0;         // distance from the true root
    // True while the system's live state equals this frame's state, so
    // the first child needs no restore.
    bool state_current = true;
    // POR sleep set at this node (sorted action indices; empty when POR
    // is inactive). An action in it was already explored by an earlier
    // sibling branch it commutes with, so re-running it here would only
    // rebuild an interleaving whose representative is covered.
    std::vector<std::uint32_t> sleep;
  };

  Frontier* frontier = options_.shared_frontier;
  if (frontier != nullptr) frontier->WorkerStarted();

  // POR activates only for a solo exact DFS (see ExplorerOptions::por).
  // Shared-store/frontier runs prune by peer claims and donate pending
  // branches — a peer cannot know what this worker's sleep sets covered;
  // bitstate cannot key the sleep map (false positives would mistake a
  // fresh state for a revisit with stored sleep ∅); a resumed image
  // carries visited digests but not their sleep sets.
  por_active_ = options_.por && options_.shared_store == nullptr &&
                frontier == nullptr && !options_.use_bitstate &&
                options_.resume_visited == nullptr;
  if (por_active_) {
    dependence_ = DependenceMatrix::Build(system_);
    // A fully-dependent matrix makes every sleep set empty forever; skip
    // the sleep-set upkeep instead of paying it for nothing.
    if (dependence_.reducible_actions() == 0) por_active_ = false;
  }
  stats_.por_active = por_active_;

  const Md5Digest root_digest = system_.AbstractHash();
  RecordState(root_digest);

  auto make_order = [this](const std::vector<std::uint32_t>& sleep) {
    std::vector<std::size_t> order;
    order.reserve(system_.ActionCount() - sleep.size());
    for (std::size_t a = 0; a < system_.ActionCount(); ++a) {
      if (!sleep.empty() &&
          std::binary_search(sleep.begin(), sleep.end(),
                             static_cast<std::uint32_t>(a))) {
        continue;
      }
      order.push_back(a);
    }
    // Fisher-Yates with the seeded RNG: different seeds diversify the
    // exploration order (the lever swarm verification pulls).
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng_.Below(i)]);
    }
    return order;
  };

  std::vector<Frame> stack;
  // Prefix of the current work unit: empty for the root unit, the
  // stolen entry's trail after a steal. base_names mirrors it as action
  // names so violation trails stay complete end-to-end.
  std::vector<std::uint32_t> base_trail;
  std::vector<std::string> base_names;

  // In frontier mode, one never-discarded snapshot of the initial state
  // anchors trail replays.
  std::optional<SnapshotId> replay_base;

  enum class Halt { kNone, kBudget, kStop, kViolation, kError };
  Halt halt = Halt::kNone;

  auto fail = [this, &halt](const char* what) {
    stats_.violation_report = what;
    halt = Halt::kError;
  };

  if (frontier != nullptr) {
    auto base = system_.SaveConcrete();
    if (!base.ok()) {
      fail("SaveConcrete failed at root");
    } else {
      ++stats_.snapshots_taken;
      replay_base = base.value();
    }
  }

  if (halt == Halt::kNone) {
    auto root_snap = system_.SaveConcrete();
    if (!root_snap.ok()) {
      fail("SaveConcrete failed at root");
    } else {
      ++stats_.snapshots_taken;
      stack.push_back(
          Frame{root_snap.value(), root_digest, make_order({}), 0, 0, true});
    }
  }

  auto collect_trail = [&stack, &base_names, this]() {
    std::vector<std::string> trail = base_names;
    for (const Frame& f : stack) {
      if (f.next > 0) trail.push_back(system_.ActionName(f.order[f.next - 1]));
    }
    return trail;
  };

  // Action-index trail from the true root to stack[i]'s node: the base
  // prefix plus the applied action of every frame below i.
  auto trail_to_frame = [&stack, &base_trail](std::size_t i) {
    std::vector<std::uint32_t> trail = base_trail;
    for (std::size_t j = 0; j < i; ++j) {
      trail.push_back(
          static_cast<std::uint32_t>(stack[j].order[stack[j].next - 1]));
    }
    return trail;
  };

  // Proactive donation: while the frontier is hungry, disown the tail
  // half of the untried actions of the shallowest frame that still has
  // at least two (the shallowest branches root the biggest subtrees).
  // The donor will not descend donated branches — exactly-once transfer.
  auto donate = [&]() {
    for (std::size_t i = 0; i < stack.size(); ++i) {
      Frame& f = stack[i];
      const std::size_t rem = f.order.size() - f.next;
      if (rem < 2) continue;
      const std::size_t give = rem / 2;
      FrontierEntry entry;
      entry.trail = trail_to_frame(i);
      entry.digest = f.digest;
      entry.pending.assign(f.order.end() - static_cast<std::ptrdiff_t>(give),
                           f.order.end());
      f.order.resize(f.order.size() - give);
      frontier->Push(std::move(entry));
      ++stats_.frontier_published;
      return;
    }
  };

  // Budget exit: publish every frame's untried siblings so the subtree
  // this worker abandons mid-search is finished by its peers instead of
  // silently lost (the §7.1 starvation cure).
  auto publish_stack = [&]() {
    for (std::size_t i = 0; i < stack.size(); ++i) {
      const Frame& f = stack[i];
      if (f.next >= f.order.size()) continue;
      FrontierEntry entry;
      entry.trail = trail_to_frame(i);
      entry.digest = f.digest;
      for (std::size_t j = f.next; j < f.order.size(); ++j) {
        entry.pending.push_back(static_cast<std::uint32_t>(f.order[j]));
      }
      frontier->Push(std::move(entry));
      ++stats_.frontier_published;
    }
  };

  // Replays a stolen trail from the initial state and verifies the
  // digest. On success the stolen node becomes the new stack root.
  auto adopt = [&](FrontierEntry entry) -> bool {
    if (Status s = system_.RestoreConcrete(*replay_base); !s.ok()) {
      fail("RestoreConcrete failed before steal replay");
      return false;
    }
    std::vector<std::string> names;
    names.reserve(entry.trail.size());
    for (const std::uint32_t action : entry.trail) {
      if (Status s = system_.ApplyAction(action); !s.ok()) {
        fail("checker infrastructure failure replaying stolen trail");
        return false;
      }
      ++stats_.steal_replay_ops;
      names.push_back(system_.ActionName(action));
      if (system_.violation_detected()) {
        // The publisher traversed this prefix violation-free, so a
        // violation here is itself a determinism discrepancy worth
        // surfacing with its full trail.
        stats_.violation_found = true;
        stats_.violation_report = system_.violation_report();
        stats_.violation_trail = std::move(names);
        halt = Halt::kViolation;
        return false;
      }
    }
    if (system_.AbstractHash() != entry.digest) {
      // Replay did not reconstruct the publisher's state: drop the entry
      // (the publisher's claim on the digest keeps the store sound) and
      // let the caller steal the next one.
      ++stats_.steal_digest_mismatches;
      return false;
    }
    auto snap = system_.SaveConcrete();
    if (!snap.ok()) {
      fail("SaveConcrete failed adopting stolen entry");
      return false;
    }
    ++stats_.snapshots_taken;
    ++stats_.steals;
    base_trail = std::move(entry.trail);
    base_names = std::move(names);
    Frame frame;
    frame.snapshot = snap.value();
    frame.digest = entry.digest;
    frame.order.assign(entry.pending.begin(), entry.pending.end());
    frame.depth = static_cast<std::uint32_t>(base_trail.size());
    stack.push_back(std::move(frame));
    return true;
  };

  while (halt == Halt::kNone) {
    while (!stack.empty()) {
      if (stats_.operations >= options_.max_operations) {
        halt = Halt::kBudget;
        break;
      }
      if (ShouldStop()) {
        halt = Halt::kStop;
        break;
      }
      Frame& frame = stack.back();

      if (frame.next == frame.order.size()) {
        // Subtree exhausted: drop this node's snapshot and return to the
        // parent's state.
        (void)system_.DiscardConcrete(frame.snapshot);
        stack.pop_back();
        if (!stack.empty()) {
          (void)system_.RestoreConcrete(stack.back().snapshot);
          if (options_.memory != nullptr) {
            options_.memory->Touch(system_.ConcreteStateBytes());
          }
          ++stats_.backtracks;
          stack.back().state_current = true;
        }
        continue;
      }

      if (!frame.state_current) {
        if (Status s = system_.RestoreConcrete(frame.snapshot); !s.ok()) {
          fail("RestoreConcrete failed mid-search");
          break;
        }
        if (options_.memory != nullptr) {
          options_.memory->Touch(system_.ConcreteStateBytes());
        }
        ++stats_.backtracks;
      }
      frame.state_current = false;

      const std::size_t action = frame.order[frame.next++];
      if (Status s = system_.ApplyAction(action); !s.ok()) {
        stats_.violation_found = true;
        stats_.violation_report =
            "checker infrastructure failure applying action: " +
            system_.ActionName(action);
        stats_.violation_trail = collect_trail();
        halt = Halt::kViolation;
        break;
      }
      ++stats_.operations;
      MaybeSample();

      if (system_.violation_detected()) {
        stats_.violation_found = true;
        stats_.violation_report = system_.violation_report();
        stats_.violation_trail = collect_trail();
        halt = Halt::kViolation;
        break;
      }

      if (options_.crash_mode != CrashMode::kOff) {
        if (Status s = system_.CrashCheck(); !s.ok()) {
          fail("crash-check infrastructure failure");
          break;
        }
        if (system_.violation_detected()) {
          stats_.violation_found = true;
          stats_.violation_report = system_.violation_report();
          stats_.violation_trail = collect_trail();
          halt = Halt::kViolation;
          break;
        }
      }

      // Sleep-set upkeep (Godefroid). The child inherits the slept
      // transitions that commute with `action` — their interleavings
      // with it are covered on the sibling branch that ran them first —
      // and `action` itself then joins this frame's sleep set so the
      // remaining siblings skip re-running its commuting interleavings.
      // Both updates must land before the push below invalidates the
      // `frame` reference.
      std::vector<std::uint32_t> child_sleep;
      if (por_active_) {
        for (const std::uint32_t slept : frame.sleep) {
          if (dependence_.independent(action, slept)) {
            child_sleep.push_back(slept);  // stays sorted
          }
        }
        const auto a32 = static_cast<std::uint32_t>(action);
        frame.sleep.insert(
            std::lower_bound(frame.sleep.begin(), frame.sleep.end(), a32),
            a32);
      }

      // Descend only below globally-new states: under a shared store
      // this prunes subtrees a peer already claimed, partitioning the
      // tree across the swarm.
      const std::uint32_t child_depth = frame.depth + 1;
      const Md5Digest child_digest = system_.AbstractHash();
      const bool is_new = RecordState(child_digest).globally_new;
      if (is_new && child_depth < options_.max_depth) {
        auto snap = system_.SaveConcrete();
        if (!snap.ok()) {
          fail("SaveConcrete failed mid-search");
          break;
        }
        ++stats_.snapshots_taken;
        stats_.max_depth_reached =
            std::max<std::uint64_t>(stats_.max_depth_reached, child_depth);
        Frame child{snap.value(), child_digest, make_order(child_sleep), 0,
                    child_depth, true};
        if (por_active_) {
          stats_.por_pruned_transitions += child_sleep.size();
          if (!child_sleep.empty()) {
            // Remember what this (first) visit left asleep: a later
            // visit arriving with a smaller sleep set must re-awaken the
            // difference, or its interleavings would be silently lost.
            sleep_map_[child_digest] = child_sleep;
          }
          child.sleep = std::move(child_sleep);
        }
        stack.push_back(std::move(child));
        if (frontier != nullptr && frontier->Hungry()) donate();
      } else if (por_active_ && !is_new && child_depth < options_.max_depth) {
        // Revisit under POR: sound only if everything the first visit
        // slept is also asleep now. Transitions slept then but awake now
        // were never explored from this state on any path — re-expand
        // the node on exactly those, and shrink the stored sleep set to
        // the intersection so the state never owes them again.
        const auto it = sleep_map_.find(child_digest);
        if (it != sleep_map_.end()) {
          std::vector<std::uint32_t> awake;
          std::vector<std::uint32_t> still_asleep;
          for (const std::uint32_t slept : it->second) {
            if (std::binary_search(child_sleep.begin(), child_sleep.end(),
                                   slept)) {
              still_asleep.push_back(slept);
            } else {
              awake.push_back(slept);
            }
          }
          if (!awake.empty()) {
            if (still_asleep.empty()) {
              sleep_map_.erase(it);
            } else {
              it->second = std::move(still_asleep);
            }
            auto snap = system_.SaveConcrete();
            if (!snap.ok()) {
              fail("SaveConcrete failed mid-search");
              break;
            }
            ++stats_.snapshots_taken;
            ++stats_.por_sleep_awakened;
            stats_.max_depth_reached =
                std::max<std::uint64_t>(stats_.max_depth_reached, child_depth);
            Frame child{snap.value(), child_digest, {}, 0, child_depth, true};
            child.order.assign(awake.begin(), awake.end());
            for (std::size_t i = child.order.size(); i > 1; --i) {
              std::swap(child.order[i - 1], child.order[rng_.Below(i)]);
            }
            child.sleep = std::move(child_sleep);
            stack.push_back(std::move(child));
          }
        }
      }
      // On a plain revisit (or at the depth bound) the loop simply
      // continues; the next iteration restores this frame's snapshot.
    }

    if (halt == Halt::kBudget && frontier != nullptr) publish_stack();
    if (halt != Halt::kNone) break;

    // Local stack exhausted. Solo explorers are done; swarm workers turn
    // to the shared frontier instead of going idle.
    if (frontier == nullptr) break;
    auto entry = frontier->StealOrTerminate(options_.worker_id,
                                            &stats_.steal_wait_seconds);
    if (!entry.has_value()) break;  // swarm drained or stopped
    (void)adopt(std::move(entry).value());
    // A digest mismatch leaves the stack empty; the outer loop simply
    // steals the next entry (or terminates).
  }

  // Unwind any remaining snapshots.
  for (const auto& frame : stack) {
    (void)system_.DiscardConcrete(frame.snapshot);
  }
  if (replay_base.has_value()) {
    (void)system_.DiscardConcrete(*replay_base);
  }
  if (frontier != nullptr) frontier->Retire();
  return stats_;
}

// ---------------------------------------------------------------------------
// Long random walk with revisit backtracking

ExploreStats Explorer::RunRandomWalk() {
  RecordState(system_.AbstractHash());

  auto frontier = system_.SaveConcrete();
  if (!frontier.ok()) {
    stats_.violation_report = "SaveConcrete failed at root";
    return stats_;
  }
  ++stats_.snapshots_taken;
  SnapshotId frontier_snap = frontier.value();

  std::deque<std::string> trail;
  constexpr std::size_t kTrailCap = 128;

  while (stats_.operations < options_.max_operations) {
    if (ShouldStop()) break;
    const std::size_t count = system_.ActionCount();
    if (count == 0) break;
    const auto action = static_cast<std::size_t>(rng_.Below(count));

    if (Status s = system_.ApplyAction(action); !s.ok()) {
      stats_.violation_found = true;
      stats_.violation_report =
          "checker infrastructure failure applying action: " +
          system_.ActionName(action);
      break;
    }
    ++stats_.operations;
    trail.push_back(system_.ActionName(action));
    if (trail.size() > kTrailCap) trail.pop_front();
    MaybeSample();

    if (system_.violation_detected()) {
      stats_.violation_found = true;
      stats_.violation_report = system_.violation_report();
      stats_.violation_trail.assign(trail.begin(), trail.end());
      break;
    }

    if (options_.crash_mode != CrashMode::kOff) {
      if (Status s = system_.CrashCheck(); !s.ok()) {
        stats_.violation_found = true;
        stats_.violation_report = "crash-check infrastructure failure";
        break;
      }
      if (system_.violation_detected()) {
        stats_.violation_found = true;
        stats_.violation_report = system_.violation_report();
        stats_.violation_trail.assign(trail.begin(), trail.end());
        break;
      }
    }

    // Frontier control is LOCAL even under a shared store: bouncing off
    // peer-claimed states would trap the walk once its neighbourhood is
    // claimed (the frontier could never advance through them). The walk
    // moves exactly as a solo walk would; only the discovery credit is
    // arbitrated globally.
    if (RecordState(system_.AbstractHash()).locally_new) {
      // New frontier: advance the rolling snapshot.
      (void)system_.DiscardConcrete(frontier_snap);
      auto snap = system_.SaveConcrete();
      if (!snap.ok()) {
        stats_.violation_report = "SaveConcrete failed mid-walk";
        break;
      }
      ++stats_.snapshots_taken;
      frontier_snap = snap.value();
    } else {
      // Already-seen abstract state: backtrack to the frontier, as Spin
      // does when a transition closes a cycle.
      if (Status s = system_.RestoreConcrete(frontier_snap); !s.ok()) {
        stats_.violation_report = "RestoreConcrete failed mid-walk";
        break;
      }
      if (options_.memory != nullptr) {
        options_.memory->Touch(system_.ConcreteStateBytes());
      }
      ++stats_.backtracks;
    }
  }
  // Settle deferred discovery credit before reporting: the returned
  // stats (and any differential comparison against them) must reflect
  // every state this walk found.
  FlushCreditBuffer();
  (void)system_.DiscardConcrete(frontier_snap);
  return stats_;
}

}  // namespace mcfs::mc
