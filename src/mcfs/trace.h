// Operation trace recording.
//
// "Spin logs the precise sequence of operations, parameters, and starting
// and ending states that led to a problem, simplifying reproducibility"
// (paper §2). The Trace captures every executed operation with both file
// systems' outcomes; after a violation it can be dumped for humans or
// replayed mechanically against a fresh pair of file systems
// (Mcfs::Replay) to confirm the bug reproduces.
#pragma once

#include <deque>
#include <string>

#include "mcfs/ops.h"
#include "vfs/vfs.h"

namespace mcfs::core {

// Executes one operation (meta-ops included) against a mounted VFS: the
// engine's per-member step. Snapshot records (kCheckpoint/kRestore) are
// no-ops here — they are the engine's SaveConcrete/RestoreConcrete.
OpOutcome ExecuteOp(vfs::Vfs& v, const Operation& op);

class Trace {
 public:
  struct Record {
    Operation op;
    Errno error_a;
    Errno error_b;
    bool violation = false;

    friend bool operator==(const Record&, const Record&) = default;
  };

  void Append(const Operation& op, const OpOutcome& a, const OpOutcome& b,
              bool violation);
  void Clear() { records_.clear(); }

  const std::deque<Record>& records() const { return records_; }
  std::size_t size() const { return records_.size(); }

  // Human-readable dump ("<op> -> A:<errno> B:<errno> [VIOLATION]").
  std::string ToText() const;

  // Binary round trip, so a trace can be saved alongside a bug report
  // and replayed later (paper §2's reproducibility story). Deserialize
  // treats the image as hostile: record counts are validated against the
  // remaining byte budget before any allocation, operation kinds, errno
  // values, and the violation flag must decode to legal values, and
  // trailing bytes after the last record poison the whole image.
  Bytes Serialize() const;
  static Result<Trace> Deserialize(ByteView image);

  // Keeps only the last `n` records (long runs cap their trace memory).
  // Records live in a deque, so dropping the oldest costs O(1) each.
  void TrimToLast(std::size_t n);
  // Keeps only the first `n` records (minimization truncates at the
  // first reproducing violation).
  void TrimToFirst(std::size_t n);

  std::deque<Record>& mutable_records() { return records_; }

 private:
  std::deque<Record> records_;
};

}  // namespace mcfs::core
