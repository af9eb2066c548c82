#include "mcfs/shrink.h"

#include <algorithm>
#include <sstream>
#include <utility>
#include <vector>

namespace mcfs::core {
namespace {

// Records of `t` with index in [begin, end) kept (keep=true) or removed
// (keep=false).
Trace Subset(const Trace& t, std::size_t begin, std::size_t end, bool keep) {
  Trace out;
  auto& dst = out.mutable_records();
  const auto& src = t.records();
  for (std::size_t i = 0; i < src.size(); ++i) {
    const bool inside = i >= begin && i < end;
    if (inside == keep) dst.push_back(src[i]);
  }
  return out;
}

std::string Basename(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return path;
  return path.substr(slash);  // keeps the leading '/'
}

// One-field-at-a-time rewrites toward "simpler" (0, shallow), most
// aggressive first. The greedy loop in SimplifyParams re-generates after
// every accepted rewrite, so halving steps converge.
std::vector<Operation> CandidateSimplifications(const Operation& op) {
  std::vector<Operation> out;
  // Snapshot records carry a key in `offset`, not a size — nothing to
  // simplify (ddmin already deletes them when they are not load-bearing).
  if (op.kind == OpKind::kCheckpoint || op.kind == OpKind::kRestore) {
    return out;
  }
  auto with = [&](auto&& mutate) {
    Operation cand = op;
    mutate(cand);
    if (!(cand == op)) out.push_back(std::move(cand));
  };
  if (op.size > 0) {
    with([](Operation& o) { o.size = 0; });
    with([](Operation& o) { o.size /= 2; });
  }
  if (op.offset > 0) {
    with([](Operation& o) { o.offset = 0; });
    with([](Operation& o) { o.offset /= 2; });
  }
  if (op.fill != 0) with([](Operation& o) { o.fill = 0; });
  with([](Operation& o) { o.path = Basename(o.path); });
  with([](Operation& o) { o.path2 = Basename(o.path2); });
  with([](Operation& o) { o.mode = 0644; });
  return out;
}

}  // namespace

std::string ShrinkReport::Summary() const {
  std::ostringstream out;
  out << "shrink: " << original_ops << " -> " << final_ops << " ops ("
      << replays << " replays, " << ddmin_rounds << " ddmin rounds, "
      << param_simplifications << " param rewrites";
  if (one_minimal) out << ", 1-minimal";
  if (replay_confirmed) out << ", replay-confirmed";
  out << ")";
  return out.str();
}

TraceMinimizer::TraceMinimizer(McfsConfig config, ShrinkOptions options)
    : config_(std::move(config)), options_(options) {}

bool TraceMinimizer::Reproduces(const Trace& t, ReplayResult* out,
                                Trace* observed) {
  if (setup_failed_ || budget_exhausted_) return false;
  if (replays_ >= options_.max_replays) {
    budget_exhausted_ = true;
    return false;
  }
  auto mcfs = Mcfs::Create(config_);
  if (!mcfs.ok()) {
    setup_failed_ = true;
    return false;
  }
  ++replays_;
  ReplayResult result = mcfs.value()->Replay(t);
  if (out != nullptr) *out = result;
  if (observed != nullptr) *observed = mcfs.value()->engine().trace();
  return result.reproduced;
}

bool TraceMinimizer::DdminPass(Trace& trace, ShrinkReport& report) {
  // Zeller/Hildebrandt ddmin over the record list. Invariant: `trace`
  // always reproduces. Returns true when a full singleton-granularity
  // pass (n == len) removed nothing — the 1-minimality certificate.
  std::size_t n = 2;
  while (trace.size() > 1) {
    if (budget_exhausted_ || setup_failed_) return false;
    const std::size_t len = trace.size();
    n = std::min(n, len);
    const std::size_t chunk = (len + n - 1) / n;
    bool reduced = false;
    ReplayResult rr;
    // Subsets: does one chunk alone reproduce?
    for (std::size_t i = 0; i < n && !reduced; ++i) {
      const std::size_t b = i * chunk;
      const std::size_t e = std::min(len, b + chunk);
      if (b >= e || e - b == len) continue;
      Trace candidate = Subset(trace, b, e, /*keep=*/true);
      if (Reproduces(candidate, &rr)) {
        candidate.TrimToFirst(rr.violation_index + 1);
        trace = std::move(candidate);
        n = 2;
        reduced = true;
      }
    }
    // Complements: does the trace minus one chunk still reproduce?
    for (std::size_t i = 0; i < n && !reduced; ++i) {
      const std::size_t b = i * chunk;
      const std::size_t e = std::min(len, b + chunk);
      if (b >= e || e - b == len) continue;
      Trace candidate = Subset(trace, b, e, /*keep=*/false);
      if (Reproduces(candidate, &rr)) {
        candidate.TrimToFirst(rr.violation_index + 1);
        trace = std::move(candidate);
        n = std::max<std::size_t>(n - 1, 2);
        reduced = true;
      }
    }
    ++report.ddmin_rounds;
    if (!reduced) {
      if (budget_exhausted_ || setup_failed_) return false;
      if (n >= len) return true;
      n = std::min(n * 2, len);
    }
  }
  return !budget_exhausted_ && !setup_failed_;
}

void TraceMinimizer::SimplifyParams(Trace& trace, ShrinkReport& report) {
  bool progress = true;
  while (progress && !budget_exhausted_ && !setup_failed_) {
    progress = false;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      for (const Operation& cand :
           CandidateSimplifications(trace.records()[i].op)) {
        Trace candidate = trace;
        candidate.mutable_records()[i].op = cand;
        ReplayResult rr;
        if (Reproduces(candidate, &rr)) {
          candidate.TrimToFirst(rr.violation_index + 1);
          trace = std::move(candidate);
          ++report.param_simplifications;
          progress = true;
          break;  // record i changed (or vanished); regenerate candidates
        }
        if (budget_exhausted_ || setup_failed_) return;
      }
    }
  }
}

Result<Trace> TraceMinimizer::Minimize(const Trace& input,
                                       ShrinkReport* report) {
  ShrinkReport local;
  ShrinkReport& rep = report != nullptr ? *report : local;
  rep = ShrinkReport{};
  rep.original_ops = input.size();
  replays_ = 0;
  budget_exhausted_ = false;
  setup_failed_ = false;
  // The confirming replay's engine trace is the result, so it must hold
  // every record the replay runs.
  config_.engine.trace_cap = std::max(config_.engine.trace_cap, input.size());

  Trace trace = input;
  ReplayResult rr;
  if (!Reproduces(trace, &rr)) {
    rep.replays = replays_;
    rep.final_ops = trace.size();
    if (setup_failed_) return Errno::kEIO;
    return Errno::kEINVAL;  // input does not reproduce on a fresh stack
  }
  rep.input_reproduced = true;
  // Everything after the first reproducing violation is dead weight.
  trace.TrimToFirst(rr.violation_index + 1);

  bool minimal = DdminPass(trace, rep);
  const std::size_t before = rep.param_simplifications;
  SimplifyParams(trace, rep);
  // A rewrite can make a formerly load-bearing record removable, so
  // re-establish deletion-minimality for the *final* parameters.
  if (rep.param_simplifications > before) {
    minimal = DdminPass(trace, rep);
  }
  if (setup_failed_) {
    rep.replays = replays_;
    rep.final_ops = trace.size();
    return Errno::kEIO;
  }

  // Confirming replay, allowed even when the budget ran dry — the
  // returned trace must never claim reproduction it did not just show.
  budget_exhausted_ = false;
  options_.max_replays = std::max(options_.max_replays, replays_ + 1);
  ReplayResult confirm;
  Trace observed;
  if (Reproduces(trace, &confirm, &observed)) {
    rep.replay_confirmed = true;
    rep.violation_index = confirm.violation_index;
    rep.detail = confirm.detail;
    trace = std::move(observed);
  }
  rep.one_minimal = minimal && rep.replay_confirmed;
  rep.final_ops = trace.size();
  rep.replays = replays_;
  if (setup_failed_) return Errno::kEIO;
  return trace;
}

}  // namespace mcfs::core
