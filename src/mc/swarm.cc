#include "mc/swarm.h"

#include <algorithm>
#include <mutex>
#include <thread>
#include <unordered_set>

#include "mc/frontier.h"
#include "mc/sharded_table.h"

namespace mcfs::mc {

namespace {

// Aggregates per-worker ProgressSamples into one swarm-wide time series:
// each incoming sample updates its worker's latest slot and appends a
// merged sample built from every worker's latest.
class ProgressMerger {
 public:
  ProgressMerger(int workers, const VisitedStore* store)
      : latest_(workers), store_(store) {}

  void Record(int worker, const ProgressSample& sample) {
    std::lock_guard<std::mutex> lock(mu_);
    latest_[worker] = sample;
    ProgressSample merged;
    for (const ProgressSample& s : latest_) {
      merged.operations += s.operations;
      merged.unique_states += s.unique_states;
      merged.swap_used_bytes += s.swap_used_bytes;
      merged.por_pruned_transitions += s.por_pruned_transitions;
      merged.sim_seconds = std::max(merged.sim_seconds, s.sim_seconds);
    }
    if (store_ != nullptr) {
      // Shared store: the union is exact; per-worker sums would merely
      // re-add the same states.
      merged.unique_states = store_->size();
      merged.table_resizes = store_->resize_count();
    } else {
      for (const ProgressSample& s : latest_) {
        merged.table_resizes += s.table_resizes;
      }
    }
    // Merge monotonically: parallel workers' samples interleave in lock
    // order, not in any global notion of time, so clamp every component
    // to the running maximum. A consumer plotting the series (bench_fig3
    // style ops/unique-states curves) must never see it run backwards.
    merged.operations = std::max(merged.operations, floor_.operations);
    merged.unique_states =
        std::max(merged.unique_states, floor_.unique_states);
    merged.swap_used_bytes =
        std::max(merged.swap_used_bytes, floor_.swap_used_bytes);
    merged.table_resizes =
        std::max(merged.table_resizes, floor_.table_resizes);
    merged.por_pruned_transitions =
        std::max(merged.por_pruned_transitions, floor_.por_pruned_transitions);
    merged.sim_seconds = std::max(merged.sim_seconds, floor_.sim_seconds);
    floor_ = merged;
    series_.push_back(merged);
  }

  std::vector<ProgressSample> Take() {
    // Belt and braces for consumers: the clamp above makes the series
    // monotone as recorded; a stable sort by operations keeps it so even
    // if this merger is ever fed from replayed/offline sample streams.
    std::stable_sort(series_.begin(), series_.end(),
                     [](const ProgressSample& a, const ProgressSample& b) {
                       return a.operations < b.operations;
                     });
    return std::move(series_);
  }

 private:
  std::mutex mu_;
  std::vector<ProgressSample> latest_;
  const VisitedStore* store_;
  ProgressSample floor_;  // running componentwise maximum
  std::vector<ProgressSample> series_;
};

}  // namespace

Swarm::Swarm(SwarmOptions options) : options_(std::move(options)) {}

SwarmResult Swarm::Run(const SwarmFactory& factory) {
  const int n = options_.workers;
  std::vector<std::unique_ptr<SwarmInstance>> instances(n);
  std::vector<std::unique_ptr<Explorer>> explorers(n);
  std::vector<ExploreStats> stats(n);

  // Cooperative mode: one concurrent store for every worker. An
  // externally-owned store (distributed swarm: a socket-backed
  // RemoteVisitedStore) takes precedence and implies cooperation;
  // otherwise the kind follows the base options — bitstate runs share a
  // lock-free filter, exact runs share the lock-striped sharded table.
  const bool cooperative =
      options_.cooperative || options_.shared_store != nullptr;
  std::unique_ptr<VisitedStore> owned_store;
  if (cooperative && options_.shared_store == nullptr) {
    if (options_.base.use_bitstate) {
      owned_store = std::make_unique<ConcurrentBitstateFilter>(
          options_.base.bitstate_bits);
    } else {
      owned_store = std::make_unique<ShardedVisitedTable>();
    }
  }
  VisitedStore* shared_store =
      options_.shared_store != nullptr ? options_.shared_store
                                       : owned_store.get();

  // Work-stealing frontier: only meaningful on top of the cooperative
  // store (partitioned DFS is what makes stolen work disjoint) and only
  // consumed by DFS workers (a random walk never exhausts, so it has
  // nothing to steal and nothing to publish). An externally-owned
  // frontier (net::RemoteFrontier) is used under the same gate.
  std::unique_ptr<SharedFrontier> owned_frontier;
  Frontier* frontier = nullptr;
  if (cooperative && options_.base.mode == SearchMode::kDfs) {
    if (options_.shared_frontier != nullptr) {
      frontier = options_.shared_frontier;
    } else if (options_.steal_work) {
      owned_frontier = std::make_unique<SharedFrontier>(n);
      frontier = owned_frontier.get();
    }
  }

  std::atomic<bool> cancel{false};
  // The first worker to CAS its index here is the first-in-time
  // violator; it also raises the cancel flag.
  std::atomic<int> first_violator{-1};
  auto report_violation = [&cancel, &first_violator, frontier,
                           this](int worker) {
    int expected = -1;
    first_violator.compare_exchange_strong(expected, worker);
    if (options_.cancel_on_violation) {
      cancel.store(true, std::memory_order_relaxed);
      // Wake workers blocked waiting to steal — they cannot observe the
      // cancel flag from inside the frontier's wait. For a remote
      // frontier this also propagates the stop to workers on other
      // hosts via the server's sticky stop flag.
      if (frontier != nullptr) frontier->RequestStop();
    }
  };

  ProgressMerger merger(n, shared_store);
  const bool sample_progress = options_.base.progress_interval_ops != 0;

  for (int i = 0; i < n; ++i) {
    instances[i] = factory(i);
    ExplorerOptions opts = options_.base;
    opts.seed = options_.base_seed + static_cast<std::uint64_t>(i);
    opts.clock = instances[i]->clock();
    if (shared_store != nullptr) {
      opts.shared_store = shared_store;
      opts.use_bitstate = false;  // the shared store covers it
    }
    if (frontier != nullptr) {
      opts.shared_frontier = frontier;
      opts.worker_id = i;
    }
    if (options_.cancel_on_violation) opts.cancel = &cancel;
    if (sample_progress) {
      auto inner = options_.base.progress_callback;
      opts.progress_callback = [&merger, i,
                                inner](const ProgressSample& sample) {
        merger.Record(i, sample);
        if (inner) inner(sample);
      };
    }
    explorers[i] =
        std::make_unique<Explorer>(instances[i]->system(), opts);
  }

  auto run_worker = [&explorers, &stats, &report_violation](int i) {
    stats[i] = explorers[i]->Run();
    if (stats[i].violation_found) report_violation(i);
  };

  if (options_.run_parallel) {
    std::vector<std::thread> threads;
    threads.reserve(n);
    for (int i = 0; i < n; ++i) {
      threads.emplace_back([&run_worker, i]() { run_worker(i); });
    }
    for (auto& t : threads) t.join();
  } else {
    for (int i = 0; i < n; ++i) {
      // Sequential analogue of prompt cancellation: later workers are
      // skipped entirely once an earlier one raised the flag.
      if (cancel.load(std::memory_order_relaxed)) {
        stats[i].cancelled = true;
        continue;
      }
      run_worker(i);
    }
  }

  SwarmResult result;
  result.per_worker = stats;
  result.merged_progress = merger.Take();
  std::unordered_set<Md5Digest> merged;
  for (int i = 0; i < n; ++i) {
    result.total_operations += stats[i].operations;
    result.total_revisits += stats[i].revisits;
    result.summed_unique_states += stats[i].unique_states;
    result.steals += stats[i].steals;
    result.steal_replay_ops += stats[i].steal_replay_ops;
    result.steal_digest_mismatches += stats[i].steal_digest_mismatches;
    result.frontier_published += stats[i].frontier_published;
    result.steal_wait_seconds += stats[i].steal_wait_seconds;
    result.por_pruned_transitions += stats[i].por_pruned_transitions;
    result.por_sleep_awakened += stats[i].por_sleep_awakened;
    if (shared_store == nullptr) {
      explorers[i]->visited().ForEach(
          [&merged](const Md5Digest& digest) { merged.insert(digest); });
    }
    if (stats[i].cancelled) result.cancelled = true;
  }
  if (frontier != nullptr) {
    result.frontier_peak = frontier->peak_size();
    result.frontier_unconsumed = frontier->size();
    const RemoteHealth fh = frontier->health();
    result.frontier_degradations = fh.degrade_events;
    result.remote_rpc_failures += fh.rpc_failures;
  }
  if (shared_store != nullptr) {
    const RemoteHealth sh = shared_store->health();
    result.store_degradations = sh.degrade_events;
    result.remote_rpc_failures += sh.rpc_failures;
  }
  if (options_.collect_union) {
    if (shared_store != nullptr) {
      // Exact stores (the sharded table, or a remote store's dump RPC)
      // enumerate their digests; a shared bitstate filter has none, so
      // the union stays empty (size is still in merged_unique_states).
      shared_store->ForEachDigest([&result](const Md5Digest& digest) {
        result.merged_union.push_back(digest);
      });
    } else {
      result.merged_union.assign(merged.begin(), merged.end());
    }
    std::sort(result.merged_union.begin(), result.merged_union.end(),
              [](const Md5Digest& a, const Md5Digest& b) {
                return a.bytes < b.bytes;
              });
  }
  result.merged_unique_states =
      shared_store != nullptr ? shared_store->size() : merged.size();
  if (result.summed_unique_states > 0) {
    result.redundant_discovery_ratio =
        static_cast<double>(result.summed_unique_states -
                            result.merged_unique_states) /
        static_cast<double>(result.summed_unique_states);
  }
  const int winner = first_violator.load();
  if (winner >= 0) {
    result.any_violation = true;
    result.first_violation_worker = winner;
    result.first_violation_report = stats[winner].violation_report;
  }
  return result;
}

}  // namespace mcfs::mc
