// Integrity checks — paper §2 and §3.4.
//
// After each operation, MCFS asserts that the file systems under test are
// in identical states: equal return values and error codes, equal file
// data, and equal (important) metadata. Any discrepancy is a potential
// bug; the checker halts exploration and reports it with the trail.
//
// The checker embeds the §3.4 false-positive workarounds:
//   * directory sizes are ignored in attribute comparison (ext4f reports
//     block-rounded sizes, xfsf reports entry-based ones);
//   * getdents output is sorted before comparison (entry order is
//     unstandardized);
//   * names on the special-path exception list (lost+found, the
//     free-space fill file) are filtered out of directory listings;
//   * inode numbers, block counts, and timestamps are never compared —
//     they are implementation detail.
// Each workaround can be disabled to measure how many false positives it
// suppresses (bench T-fp).
//
// With more than two members the checks become a vote (paper §7): members
// with identical outcomes (or abstract states) form groups, and the members
// outside the reference group are the suspects.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "mcfs/ops.h"

namespace mcfs::core {

struct CheckerOptions {
  bool ignore_directory_sizes = true;   // §3.4 workaround 1
  bool sort_dirents = true;             // §3.4 workaround 2
  std::vector<std::string> special_names;  // §3.4 workaround 3 (basenames)
};

struct CheckVerdict {
  bool ok = true;
  std::string detail;  // empty when ok
};

// Compares the outcomes of one operation on two file systems.
CheckVerdict CompareOutcomes(const Operation& op, const OpOutcome& a,
                             const OpOutcome& b,
                             const CheckerOptions& options);

// Attribute comparison honoring the workarounds (exposed for tests).
CheckVerdict CompareAttrs(const fs::InodeAttr& a, const fs::InodeAttr& b,
                          const CheckerOptions& options);

// Per-member verdict after a vote.
struct VoteResult {
  bool unanimous = true;
  // Index of each member's group. The reference group is 0; on a tie
  // groups keep first-appearance order.
  std::vector<int> group_of;
  // Members outside the reference group (the suspects). Empty on a tie.
  std::vector<std::size_t> minority;
  // No oracle and no single largest group: still a disagreement, but
  // nobody is convicted. A 2-member split without an oracle is a tie.
  bool tie = false;
  // First member outside member 0's group (0 when unanimous); a tie is
  // reported as members 0 and `split` disagreeing.
  std::size_t split = 0;
  // Sizes of the reference group and of the largest group.
  std::size_t agree = 0;
  std::size_t largest = 0;
  // Oracle mode only: the oracle's group was strictly smaller than the
  // largest group — relative voting would have blamed the oracle,
  // absolute checking blames the implementations instead.
  bool oracle_overruled_majority = false;
  std::string detail;
};

// Groups `n` members by `same` (each member joins the first group whose
// first member it matches) and elects the reference group: the oracle's
// when `oracle` names a member — absolute correctness is not a
// popularity contest — otherwise the single largest group. Leaves
// `detail` empty.
VoteResult Elect(std::size_t n,
                 const std::function<bool(std::size_t, std::size_t)>& same,
                 std::optional<std::size_t> oracle);

// Votes on one operation's outcomes, grouped by CompareOutcomes. The
// detail names the outvoted members by index; on a tie it is
// CompareOutcomes' detail for members 0 and `split`.
VoteResult Vote(const Operation& op, const std::vector<OpOutcome>& outcomes,
                const CheckerOptions& options,
                std::optional<std::size_t> oracle = std::nullopt);

}  // namespace mcfs::core
