#include "mcfs/checker.h"

#include <algorithm>
#include <sstream>

namespace mcfs::core {

namespace {

std::string DescribeDirents(const std::vector<fs::DirEntry>& entries) {
  std::string out = "[";
  for (const auto& e : entries) {
    if (out.size() > 1) out += ", ";
    out += e.name;
  }
  return out + "]";
}

std::vector<fs::DirEntry> NormalizeDirents(
    const std::vector<fs::DirEntry>& entries, const CheckerOptions& options) {
  std::vector<fs::DirEntry> out;
  out.reserve(entries.size());
  for (const auto& e : entries) {
    if (std::find(options.special_names.begin(), options.special_names.end(),
                  e.name) != options.special_names.end()) {
      continue;  // exception list: lost+found and friends (§3.4)
    }
    out.push_back(e);
  }
  if (options.sort_dirents) {
    // "file systems return directory entries in different orders, so we
    // sort the output of getdents before comparing" (§3.4).
    std::sort(out.begin(), out.end(),
              [](const fs::DirEntry& x, const fs::DirEntry& y) {
                return x.name < y.name;
              });
  }
  return out;
}

}  // namespace

CheckVerdict CompareAttrs(const fs::InodeAttr& a, const fs::InodeAttr& b,
                          const CheckerOptions& options) {
  std::ostringstream detail;
  if (a.type != b.type) {
    detail << "type " << fs::FileTypeName(a.type) << " vs "
           << fs::FileTypeName(b.type);
  } else if (a.mode != b.mode) {
    detail << "mode 0" << std::oct << a.mode << " vs 0" << b.mode;
  } else if (a.nlink != b.nlink) {
    detail << "nlink " << a.nlink << " vs " << b.nlink;
  } else if (a.uid != b.uid || a.gid != b.gid) {
    detail << "owner " << a.uid << ":" << a.gid << " vs " << b.uid << ":"
           << b.gid;
  } else {
    const bool is_dir = a.type == fs::FileType::kDirectory;
    if ((!is_dir || !options.ignore_directory_sizes) && a.size != b.size) {
      detail << "size " << a.size << " vs " << b.size
             << (is_dir ? " (directory)" : "");
    }
  }
  // ino, blocks, and all timestamps are deliberately not compared.
  if (detail.str().empty()) return {true, ""};
  return {false, "attr mismatch: " + detail.str()};
}

CheckVerdict CompareOutcomes(const Operation& op, const OpOutcome& a,
                             const OpOutcome& b,
                             const CheckerOptions& options) {
  if (a.error != b.error) {
    std::ostringstream detail;
    detail << op.ToString() << ": return codes differ: "
           << ErrnoName(a.error) << " vs " << ErrnoName(b.error);
    return {false, detail.str()};
  }
  if (a.error != Errno::kOk) return {true, ""};  // both failed identically

  if (a.data != b.data) {
    std::ostringstream detail;
    detail << op.ToString() << ": file data differs (" << a.data.size()
           << " vs " << b.data.size() << " bytes";
    // Locate the first differing byte for the report.
    const std::size_t n = std::min(a.data.size(), b.data.size());
    for (std::size_t i = 0; i < n; ++i) {
      if (a.data[i] != b.data[i]) {
        detail << ", first diff at offset " << i << ": 0x" << std::hex
               << static_cast<int>(a.data[i]) << " vs 0x"
               << static_cast<int>(b.data[i]) << std::dec;
        break;
      }
    }
    detail << ")";
    return {false, detail.str()};
  }

  if (op.kind == OpKind::kGetDents) {
    const auto na = NormalizeDirents(a.dirents, options);
    const auto nb = NormalizeDirents(b.dirents, options);
    bool equal = na.size() == nb.size();
    for (std::size_t i = 0; equal && i < na.size(); ++i) {
      equal = na[i].name == nb[i].name && na[i].type == nb[i].type;
    }
    if (!equal) {
      return {false, op.ToString() + ": directory listings differ: " +
                         DescribeDirents(na) + " vs " + DescribeDirents(nb)};
    }
  }

  if (a.has_attr && b.has_attr) {
    CheckVerdict verdict = CompareAttrs(a.attr, b.attr, options);
    if (!verdict.ok) {
      return {false, op.ToString() + ": " + verdict.detail};
    }
  }

  if (a.link_target != b.link_target) {
    return {false, op.ToString() + ": symlink targets differ: '" +
                       a.link_target + "' vs '" + b.link_target + "'"};
  }
  return {true, ""};
}

VoteResult Elect(std::size_t n,
                 const std::function<bool(std::size_t, std::size_t)>& same,
                 std::optional<std::size_t> oracle) {
  VoteResult result;
  std::vector<int>& group = result.group_of;
  group.assign(n, -1);
  std::vector<std::size_t> group_size;
  for (std::size_t i = 0; i < n; ++i) {
    if (group[i] != -1) continue;
    const int id = static_cast<int>(group_size.size());
    group[i] = id;
    group_size.push_back(1);
    for (std::size_t j = i + 1; j < n; ++j) {
      if (group[j] == -1 && same(i, j)) {
        group[j] = id;
        ++group_size[id];
      }
    }
  }
  result.agree = result.largest = n;
  if (group_size.size() <= 1) return result;  // unanimous
  result.unanimous = false;
  result.split = static_cast<std::size_t>(
      std::find_if(group.begin(), group.end(), [](int g) { return g != 0; }) -
      group.begin());

  const auto largest = std::max_element(group_size.begin(), group_size.end());
  result.largest = *largest;
  int reference = static_cast<int>(largest - group_size.begin());
  if (oracle.has_value() && *oracle < n) {
    reference = group[*oracle];
  } else if (std::count(group_size.begin(), group_size.end(), *largest) > 1) {
    result.tie = true;
    result.agree = 0;
    return result;
  }
  result.agree = group_size[reference];
  result.oracle_overruled_majority = result.agree < result.largest;
  for (std::size_t i = 0; i < n; ++i) {
    if (group[i] != reference) result.minority.push_back(i);
    group[i] = group[i] == reference ? 0 : group[i] + 1;
  }
  return result;
}

VoteResult Vote(const Operation& op, const std::vector<OpOutcome>& outcomes,
                const CheckerOptions& options,
                std::optional<std::size_t> oracle) {
  VoteResult result = Elect(
      outcomes.size(),
      [&](std::size_t i, std::size_t j) {
        return CompareOutcomes(op, outcomes[i], outcomes[j], options).ok;
      },
      oracle);
  if (result.unanimous) return result;
  if (result.tie) {
    result.detail =
        CompareOutcomes(op, outcomes[0], outcomes[result.split], options)
            .detail;
    return result;
  }
  const std::size_t n = outcomes.size();
  std::ostringstream detail;
  if (result.oracle_overruled_majority) {
    detail << op.ToString() << ": spec says majority is wrong (oracle "
           << result.agree << "/" << n << " vs majority " << result.largest
           << "/" << n << "); implicated:";
  } else {
    detail << op.ToString() << ": " << result.agree << "/" << n
           << " agree; outvoted:";
  }
  for (std::size_t i : result.minority) {
    detail << " #" << i << "(" << ErrnoName(outcomes[i].error) << ")";
  }
  result.detail = detail.str();
  return result;
}

}  // namespace mcfs::core
