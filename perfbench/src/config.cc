#include "config.h"

#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <type_traits>

namespace perfbench {

namespace {

using mcfs::core::FsKind;
using mcfs::core::StateStrategy;

std::vector<std::string> SplitList(const std::string& text) {
  std::vector<std::string> items;
  std::stringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (!item.empty()) items.push_back(item);
  }
  return items;
}

bool ParseU64(const std::string& text, std::uint64_t* out) {
  // strtoull would accept (and wrap) a leading minus sign.
  if (text.empty() || text[0] < '0' || text[0] > '9') return false;
  char* end = nullptr;
  // Base 0 accepts octal modes written as 0644.
  *out = std::strtoull(text.c_str(), &end, 0);
  return end != nullptr && *end == '\0';
}

template <typename T>
bool ParseU64List(const std::string& text, std::vector<T>* out) {
  out->clear();
  for (const std::string& item : SplitList(text)) {
    std::uint64_t v = 0;
    if (!ParseU64(item, &v)) return false;
    out->push_back(static_cast<T>(v));
  }
  return true;
}

bool ParseKind(const std::string& text, FsKind* out) {
  static const std::map<std::string, FsKind> kinds = {
      {"ext2", FsKind::kExt2},       {"ext4", FsKind::kExt4},
      {"xfs", FsKind::kXfs},         {"jffs2", FsKind::kJffs2},
      {"verifs1", FsKind::kVerifs1}, {"verifs2", FsKind::kVerifs2},
  };
  const auto it = kinds.find(text);
  if (it == kinds.end()) return false;
  *out = it->second;
  return true;
}

bool ParseStrategy(const std::string& text, StateStrategy* out) {
  static const std::map<std::string, StateStrategy> strategies = {
      {"remount", StateStrategy::kRemountPerOp},
      {"ioctl", StateStrategy::kIoctl},
      {"vfsapi", StateStrategy::kVfsApi},
  };
  const auto it = strategies.find(text);
  if (it == strategies.end()) return false;
  *out = it->second;
  return true;
}

// The pool presets are the model checker's own, so a change to them
// reaches this benchmark as it reaches the Fig. 2 benches.
bool ParsePool(const std::string& text, mcfs::core::ParameterPool* out) {
  if (text == "default") {
    *out = mcfs::core::ParameterPool::Default();
  } else if (text == "tiny") {
    *out = mcfs::core::ParameterPool::Tiny();
  } else {
    return false;
  }
  return true;
}

// bench_fig2_speed's seed, so the DFS action order matches its rows.
constexpr std::uint64_t kExploreSeed = 7;

}  // namespace

std::string KindTag(FsKind kind) {
  switch (kind) {
    case FsKind::kExt2: return "ext2";
    case FsKind::kExt4: return "ext4";
    case FsKind::kXfs: return "xfs";
    case FsKind::kJffs2: return "jffs2";
    case FsKind::kVerifs1: return "verifs1";
    case FsKind::kVerifs2: return "verifs2";
    case FsKind::kSpec: return "spec";
  }
  return "unknown";
}

bool LoadWorkload(const std::string& path, Workload* out, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open config " + path;
    return false;
  }
  std::map<std::string, std::string> kv;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      *error = "malformed config line: " + line;
      return false;
    }
    kv[line.substr(0, eq)] = line.substr(eq + 1);
  }

  Workload w;
  mcfs::core::McfsConfig& c = w.mcfs;
  mcfs::core::ParameterPool& pool = c.engine.pool;
  // The preset first: the pool keys below override its fields.
  if (!ParsePool(kv["pool"], &pool)) {
    *error = "pool must be default or tiny";
    return false;
  }
  std::vector<std::string> name;
  // Every key the generator emits, with its parser. Unknown keys, and
  // missing keys that are not in `optional`, are errors: a config must
  // say everything about its run.
  auto flag = [](bool* dst) {
    return [dst](const std::string& v) {
      if (v != "0" && v != "1") return false;
      *dst = v == "1";
      return true;
    };
  };
  auto u64 = [](auto* dst) {
    return [dst](const std::string& v) {
      std::uint64_t x = 0;
      if (!ParseU64(v, &x)) return false;
      *dst = static_cast<std::remove_reference_t<decltype(*dst)>>(x);
      return true;
    };
  };
  auto u64s = [](auto* dst) {
    return [dst](const std::string& v) { return ParseU64List(v, dst); };
  };
  auto names = [](std::vector<std::string>* dst) {
    return [dst](const std::string& v) {
      *dst = SplitList(v);
      return true;
    };
  };
  // Both sides of the pair share the capture strategy and cache size.
  auto both = [&c](auto member, auto parse) {
    return [&c, member, parse](const std::string& v) {
      if (!parse(&(c.fs_a.*member))(v)) return false;
      c.fs_b.*member = c.fs_a.*member;
      return true;
    };
  };
  auto strategy = [](StateStrategy* dst) {
    return [dst](const std::string& v) { return ParseStrategy(v, dst); };
  };
  auto kind = [](FsKind* dst) {
    return [dst](const std::string& v) { return ParseKind(v, dst); };
  };
  using Config = mcfs::core::FsUnderTestConfig;
  const std::map<std::string, std::function<bool(const std::string&)>>
      fields = {
          {"name", names(&name)},
          {"fs_a", kind(&c.fs_a.kind)},
          {"fs_b", kind(&c.fs_b.kind)},
          {"strategy", both(&Config::strategy, strategy)},
          {"block_cache", both(&Config::block_cache_capacity, u64)},
          {"pool", [](const std::string&) { return true; }},  // above
          {"write_sizes", u64s(&pool.write_sizes)},
          {"truncate_sizes", u64s(&pool.truncate_sizes)},
          {"fill_bytes", u64s(&pool.fill_bytes)},
          {"fsync_ops", flag(&pool.include_fsync_ops)},
          {"incremental", flag(&c.engine.abstraction.incremental)},
          {"por", flag(&c.explore.por)},
          {"depth", u64(&c.explore.max_depth)},
          {"max_ops", u64(&c.explore.max_operations)},
          {"memory_model", flag(&c.enable_memory_model)},
          // Crash exploration after every op, ordered barrier model.
          {"crash", flag(&c.engine.crash.enabled)},
          {"workers", u64(&w.workers)},
          {"target_unique", u64(&w.target_unique)},
      };
  for (const auto& [key, value] : kv) {
    const auto it = fields.find(key);
    if (it == fields.end()) {
      *error = "unknown config key: " + key;
      return false;
    }
    if (!it->second(value)) {
      *error = "bad value for " + key + ": " + value;
      return false;
    }
  }
  // Only the bulk workload resizes its writes (bench_fig2_speed's BulkPool).
  const std::set<std::string> optional = {"write_sizes", "truncate_sizes"};
  for (const auto& [key, parse] : fields) {
    if (kv.count(key) == 0 && optional.count(key) == 0) {
      *error = "missing config key: " + key;
      return false;
    }
  }
  if (name.size() != 1 || w.workers < 0 || w.workers > 64) {
    *error = "config needs one name and 0..64 workers";
    return false;
  }
  w.name = name[0];
  c.explore.seed = kExploreSeed;
  c.explore.mode = mcfs::mc::SearchMode::kDfs;
  c.engine.crash.states.barrier_model = mcfs::storage::BarrierModel::kOrdered;
  c.explore.crash_mode = c.engine.crash.enabled ? mcfs::mc::CrashMode::kEveryOp
                                                : mcfs::mc::CrashMode::kOff;
  if (c.enable_memory_model) {
    // bench_fig2_speed's scaled-down memory system (1 GB RAM, swap on a
    // shared SSD), so sim_ops_per_s matches the Fig. 2 rows.
    c.memory.ram_bytes = 1ull << 30;
    c.memory.swap_bytes = 64ull << 30;
    c.memory.swap_in_cost_per_mb = 1'000'000;
    c.memory.swap_out_cost_per_mb = 1'000'000;
  }
  if (w.workers > 0) {
    c.explore.target_unique_states = w.target_unique;
    if (w.target_unique == 0) {
      *error = "a swarm workload needs target_unique";
      return false;
    }
  }
  *out = std::move(w);
  return true;
}

}  // namespace perfbench
