// Violation-trace minimization — ddmin-style delta debugging over a
// recorded Trace.
//
// The paper's reproducibility story (§2) is a precise replayable trace,
// but real runs surface violations only after thousands to millions of
// operations — a trace nobody can read. TraceMinimizer turns such a
// trace into a 1-minimal reproducer: it repeatedly deletes chunks of
// records (Zeller/Hildebrandt ddmin: subsets, then complements, doubling
// granularity) and keeps a candidate only if replaying it on a *fresh*
// stack built from the detecting run's McfsConfig still reproduces a
// violation. Candidates go through Mcfs::Replay, so each is judged by the
// same checker, abstraction, state-compare, remount and crash rules as
// the search that found the bug. A second pass simplifies the surviving
// operations' parameters (sizes and offsets toward 0, paths toward
// shallow names) under the same replay-verified acceptance rule. The
// result is 1-minimal: removing any single remaining operation makes the
// violation vanish.
#pragma once

#include <string>

#include "mcfs/harness.h"

namespace mcfs::core {

struct ShrinkOptions {
  // Replay budget; the shrink stops with the best trace found so far
  // (one_minimal=false in the report) when it runs out.
  std::size_t max_replays = 20'000;
};

struct ShrinkReport {
  std::size_t original_ops = 0;
  std::size_t final_ops = 0;
  std::size_t ddmin_rounds = 0;          // granularity passes completed
  std::size_t replays = 0;               // fresh-stack replays performed
  std::size_t param_simplifications = 0; // accepted parameter rewrites
  bool input_reproduced = false;  // the input trace replayed at all
  bool one_minimal = false;       // full n==len deletion pass removed nothing
  bool replay_confirmed = false;  // final confirming replay reproduced
  std::size_t violation_index = 0;  // from the confirming replay
  std::string detail;               // checker detail from that replay

  std::string Summary() const;
};

class TraceMinimizer {
 public:
  TraceMinimizer(McfsConfig config, ShrinkOptions options);

  // Shrinks `input` to a 1-minimal violating trace and returns the
  // records its confirming replay observed: real errnos, snapshot keys
  // renumbered by that replay's engine, and the violation marker on the
  // last record. Fails with kEINVAL if the input does not reproduce a
  // violation on a fresh stack (the report still carries
  // input_reproduced=false), and with kEIO if Mcfs::Create rejects the
  // config.
  Result<Trace> Minimize(const Trace& input, ShrinkReport* report = nullptr);

 private:
  // Replays `t` on a fresh stack; `observed`, when set, receives that
  // stack's engine trace. Returns false once the budget is gone
  // (budget_exhausted_ distinguishes that from a genuine non-repro).
  bool Reproduces(const Trace& t, ReplayResult* out,
                  Trace* observed = nullptr);

  bool DdminPass(Trace& trace, ShrinkReport& report);
  void SimplifyParams(Trace& trace, ShrinkReport& report);

  McfsConfig config_;
  ShrinkOptions options_;
  std::size_t replays_ = 0;
  bool budget_exhausted_ = false;
  bool setup_failed_ = false;
};

}  // namespace mcfs::core
