#include "mcfs/harness.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <sstream>
#include <unordered_map>

#include "mcfs/shrink.h"

namespace mcfs::core {

Result<std::unique_ptr<Mcfs>> Mcfs::Create(McfsConfig config) {
  auto mcfs = std::unique_ptr<Mcfs>(new Mcfs());
  mcfs->config_ = std::move(config);

  // Crash exploration needs the recording device wrapper under both
  // file systems; turn it on implicitly so one flag configures the mode.
  if (mcfs->config_.engine.crash.enabled) {
    mcfs->config_.fs_a.crashable_device = true;
    mcfs->config_.fs_b.crashable_device = true;
  }

  auto fs_a = FsUnderTest::Create(mcfs->config_.fs_a, &mcfs->clock_);
  if (!fs_a.ok()) return fs_a.error();
  mcfs->fs_a_ = std::move(fs_a).value();

  auto fs_b = FsUnderTest::Create(mcfs->config_.fs_b, &mcfs->clock_);
  if (!fs_b.ok()) return fs_b.error();
  mcfs->fs_b_ = std::move(fs_b).value();

  if (mcfs->config_.equalize_free_space) {
    if (Status s = mcfs->fs_a_->EnsureMounted(); !s.ok()) return s.error();
    if (Status s = mcfs->fs_b_->EnsureMounted(); !s.ok()) return s.error();
    auto eq = EqualizeFreeSpace(
        {&mcfs->fs_a_->vfs(), &mcfs->fs_b_->vfs()});
    if (!eq.ok()) return eq.error();
  }

  mcfs->engine_ = std::make_unique<SyscallEngine>(
      std::vector<FsUnderTest*>{mcfs->fs_a_.get(), mcfs->fs_b_.get()},
      mcfs->config_.engine);

  if (mcfs->config_.enable_memory_model) {
    mcfs->memory_ = std::make_unique<mc::MemoryModel>(&mcfs->clock_,
                                                      mcfs->config_.memory);
  }
  return mcfs;
}

McfsReport Mcfs::Run() {
  mc::ExplorerOptions opts = config_.explore;
  opts.clock = &clock_;
  if (memory_ != nullptr) opts.memory = memory_.get();

  mc::Explorer explorer(*engine_, opts);
  McfsReport report;
  report.stats = explorer.Run();
  report.counters = engine_->counters();
  if (report.stats.sim_seconds > 0) {
    report.sim_ops_per_sec = static_cast<double>(report.stats.operations) /
                             report.stats.sim_seconds;
  }
  if (report.stats.wall_seconds > 0) {
    report.wall_ops_per_sec = static_cast<double>(report.stats.operations) /
                              report.stats.wall_seconds;
  }
  report.remounts_a = fs_a_->remounts();
  report.remounts_b = fs_b_->remounts();
  report.trace_text = engine_->trace().ToText();
  return report;
}

ReplayResult Mcfs::Replay(const Trace& trace) {
  ReplayResult result;
  const auto& records = trace.records();
  auto stop = [&result](std::size_t i, Errno error) {
    // Infrastructure failure (e.g. a restore whose checkpoint ddmin
    // deleted): the trace does not reproduce.
    result.detail = "replay stopped at record " + std::to_string(i) + ": " +
                    std::string(ErrnoName(error));
    return result;
  };
  (void)engine_->AbstractHash();  // the explorer's root visit
  std::unordered_map<std::uint64_t, mc::SnapshotId> snapshots;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Operation& op = records[i].op;
    if (op.kind == OpKind::kCheckpoint) {
      auto id = engine_->SaveConcrete();
      if (!id.ok()) return stop(i, id.error());
      snapshots.insert_or_assign(op.offset, id.value());
      continue;
    }
    if (op.kind == OpKind::kRestore) {
      const auto it = snapshots.find(op.offset);
      if (it == snapshots.end()) return stop(i, Errno::kENOENT);
      if (Status s = engine_->RestoreConcrete(it->second); !s.ok()) {
        return stop(i, s.error());
      }
      continue;
    }
    Status s = engine_->Apply(op);
    if (s.ok() && !engine_->violation_detected() &&
        config_.explore.crash_mode == mc::CrashMode::kEveryOp) {
      s = engine_->CrashCheck();
    }
    if (!s.ok()) return stop(i, s.error());
    if (engine_->violation_detected()) {
      result.reproduced = true;
      result.violation_index = i;
      result.detail = engine_->violation_report();
      return result;
    }
  }
  return result;
}

Result<Trace> TraceFromTrail(const SyscallEngine& engine,
                             const std::vector<std::string>& trail) {
  Trace trace;
  for (const std::string& name : trail) {
    const Operation* match = nullptr;
    for (const Operation& op : engine.actions()) {
      if (op.ToString() == name) {
        match = &op;
        break;
      }
    }
    if (match == nullptr) return Errno::kEINVAL;
    trace.mutable_records().push_back(
        Trace::Record{*match, Errno::kOk, Errno::kOk, false});
  }
  return trace;
}

mc::SwarmFactory MakeMcfsSwarmFactory(McfsConfig config) {
  return [config](int worker) -> std::unique_ptr<mc::SwarmInstance> {
    auto mcfs = Mcfs::Create(config);
    if (!mcfs.ok()) {
      std::fprintf(stderr, "swarm worker %d: Mcfs::Create failed (%s)\n",
                   worker, std::string(ErrnoName(mcfs.error())).c_str());
      std::abort();
    }
    return std::make_unique<McfsSwarmInstance>(std::move(mcfs).value());
  };
}

std::string McfsReport::Summary() const {
  std::ostringstream out;
  out << "ops=" << stats.operations << " unique_states="
      << stats.unique_states << " revisits=" << stats.revisits
      << " backtracks=" << stats.backtracks << " sim_ops/s="
      << sim_ops_per_sec << " remounts=" << remounts_a + remounts_b
      << " discrepancies=" << counters.discrepancies << " corruption="
      << counters.corruption_events << " abs_full="
      << counters.abstraction_full_recomputes << " abs_incr="
      << counters.abstraction_incremental_refreshes << " abs_rehashed="
      << counters.abstraction_nodes_rehashed;
  if (counters.snapshots_peak > 0) {
    out << " snaps=" << counters.snapshots_live << " snaps_peak="
        << counters.snapshots_peak << " snap_bytes="
        << counters.snapshot_total_bytes << " snap_shared="
        << counters.snapshot_shared_bytes << " snap_excl="
        << counters.snapshot_exclusive_bytes;
  }
  if (!oracle_disagreements.empty()) {
    out << "\noracle disagreements:";
    for (const auto& [name, count] : oracle_disagreements) {
      out << " " << name << "=" << count;
    }
  }
  if (stats.violation_found) {
    out << "\nVIOLATION: " << stats.violation_report;
    if (!stats.violation_trail.empty()) {
      out << "\ntrail:";
      for (const auto& step : stats.violation_trail) {
        out << "\n  " << step;
      }
    }
  }
  return out.str();
}

void AttachOracleTally(const SyscallEngine& engine, McfsReport* report) {
  if (!engine.options().oracle_index.has_value()) return;
  report->oracle_disagreements.clear();
  for (std::size_t i = 0; i < engine.fs_count(); ++i) {
    report->oracle_disagreements.emplace_back(
        engine.fs_name(i), engine.oracle_disagreement_counts()[i]);
  }
}

McfsConfig MutantCampaignConfig(const verifs::Mutant& mutant,
                                const MutationCampaignOptions& options,
                                std::uint64_t seed) {
  McfsConfig config;
  if (mutant.crash) {
    // Crash axis: one kernel family vs its pristine twin, crash mode on.
    // kVfsApi keeps the pair mounted (no remount would ever run the
    // broken recovery path live — only the crash probes do) and the
    // unbounded cache makes fsync the only device-write site for the
    // ext2f family, which is exactly the persistence contract's shape.
    config.fs_a.kind =
        mutant.crash_fs == "jffs2f" ? FsKind::kJffs2 : FsKind::kExt4;
    config.fs_a.strategy = StateStrategy::kVfsApi;
    config.fs_a.fuse_transport = false;
    config.fs_a.block_cache_capacity = 0;
    config.fs_b = config.fs_a;   // pristine twin as the reference oracle
    config.fs_b.bugs = mutant.bugs;
    config.engine.pool = options.pool;
    config.engine.pool.include_fsync_ops = true;
    config.engine.trace_cap = options.trace_cap;
    config.engine.abstraction.incremental = false;
    config.engine.crash.enabled = true;
    config.explore.mode = mc::SearchMode::kDfs;
    config.explore.max_operations = options.max_operations;
    config.explore.max_depth = options.max_depth;
    config.explore.seed = seed;
    config.explore.crash_mode = mc::CrashMode::kEveryOp;
    // Sleep sets reorder away schedules whose only difference is where
    // the crash point falls; the crash axis needs them all.
    config.explore.por = false;
    return config;
  }
  const FsKind kind = mutant.verifs2 ? FsKind::kVerifs2 : FsKind::kVerifs1;
  config.fs_a.kind = kind;
  config.fs_a.strategy = StateStrategy::kIoctl;
  config.fs_a.fuse_transport = options.fuse_transport;
  config.fs_b = config.fs_a;   // pristine twin as the reference oracle
  config.fs_b.bugs = mutant.bugs;
  if (mutant.dual) {
    // Dual mutants carry the same bug in BOTH families: the relative
    // axis pairs VeriFS1 against VeriFS2 with the flag armed on each
    // side, so the implementations agree on the wrong answer and the
    // 2-way check is blind by construction. Only the spec axis can
    // kill these.
    config.fs_a.kind = FsKind::kVerifs1;
    config.fs_a.bugs = mutant.bugs;
    config.fs_b.kind = FsKind::kVerifs2;
  }
  config.engine.pool = options.pool;
  config.engine.trace_cap = options.trace_cap;
  // Reference oracle: full recompute. The incremental cache rolls its
  // digests back on restore — the exact assumption the restore mutants
  // break — so it must not mediate the campaign's verdicts.
  config.engine.abstraction.incremental = false;
  config.explore.mode = mc::SearchMode::kDfs;
  config.explore.max_operations = options.max_operations;
  config.explore.max_depth = options.max_depth;
  config.explore.seed = seed;
  return config;
}

McfsConfig SpecMutantCampaignConfig(const verifs::Mutant& mutant,
                                    const MutationCampaignOptions& options,
                                    std::uint64_t seed) {
  McfsConfig config;
  // The spec on side A: in-process (no FUSE, no device), ioctl-style
  // handle snapshots. Side B is the mutant's own family with its flags.
  config.fs_a.kind = FsKind::kSpec;
  config.fs_a.strategy = StateStrategy::kIoctl;
  config.fs_a.fuse_transport = false;
  config.fs_b.kind = mutant.verifs2 ? FsKind::kVerifs2 : FsKind::kVerifs1;
  config.fs_b.strategy = StateStrategy::kIoctl;
  config.fs_b.fuse_transport = options.fuse_transport;
  config.fs_b.bugs = mutant.bugs;
  config.engine.pool = options.pool;
  config.engine.trace_cap = options.trace_cap;
  // Same rule as the relative axis: verdicts come from the
  // full-recompute abstraction, never the restore-trusting cache.
  config.engine.abstraction.incremental = false;
  config.explore.mode = mc::SearchMode::kDfs;
  config.explore.max_operations = options.max_operations;
  config.explore.max_depth = options.max_depth;
  config.explore.seed = seed;
  return config;
}

namespace {

AxisResult RunCampaignAxis(
    const std::function<McfsConfig(std::uint64_t)>& config_for_seed,
    const MutationCampaignOptions& options) {
  AxisResult out;
  for (std::uint64_t seed : options.seeds) {
    McfsConfig config = config_for_seed(seed);
    auto mcfs = Mcfs::Create(config);
    if (!mcfs.ok()) {
      out.violation =
          "Mcfs::Create failed: " + std::string(ErrnoName(mcfs.error()));
      break;
    }
    McfsReport run = mcfs.value()->Run();
    if (!run.stats.violation_found) continue;

    out.detected = true;
    out.seed = seed;
    out.ops_to_detect = run.stats.operations;
    out.violation = run.stats.violation_report;
    const Trace& raw = mcfs.value()->engine().trace();
    out.raw_trace_ops = raw.size();
    out.minimized_ops = raw.size();

    if (options.minimize) {
      ShrinkOptions shrink;
      shrink.max_replays = options.max_replays;
      TraceMinimizer minimizer(config, shrink);
      auto adopt = [&out](const Trace& t, const ShrinkReport& sr) {
        out.minimized_ops = sr.final_ops;
        out.replay_confirmed = sr.replay_confirmed;
        out.one_minimal = sr.one_minimal;
        out.minimized_trace = t.ToText();
      };
      // Shrink seed 1: the explorer's violation trail — the semantic
      // root-to-violation path, at most depth+1 ops and free of
      // snapshot records. It reproduces whenever restores are
      // faithful; the restore mutants are exactly the case where it
      // does not, and they fall through to the raw linear history.
      ShrinkReport sr;
      bool shrunk = false;
      auto trail =
          TraceFromTrail(mcfs.value()->engine(), run.stats.violation_trail);
      if (trail.ok()) {
        auto minimized = minimizer.Minimize(trail.value(), &sr);
        out.shrink_replays += sr.replays;
        if (minimized.ok()) {
          adopt(minimized.value(), sr);
          shrunk = true;
        }
      }
      if (!shrunk) {
        auto minimized = minimizer.Minimize(raw, &sr);
        out.shrink_replays += sr.replays;
        if (minimized.ok()) adopt(minimized.value(), sr);
      }
    }
    break;
  }
  return out;
}

}  // namespace

MutationCampaignReport RunMutationCampaign(
    const MutationCampaignOptions& options) {
  MutationCampaignReport report;
  for (const verifs::Mutant& mutant : verifs::MutationCorpus()) {
    if (!options.only.empty() &&
        std::find(options.only.begin(), options.only.end(), mutant.name) ==
            options.only.end()) {
      continue;
    }
    MutantOutcome outcome;
    outcome.name = mutant.name;
    outcome.hint = mutant.hint;
    outcome.historical = mutant.historical;
    outcome.expect_detected = mutant.expect_detected;
    outcome.crash = mutant.crash;
    outcome.dual = mutant.dual;

    outcome.relative = RunCampaignAxis(
        [&](std::uint64_t seed) {
          return MutantCampaignConfig(mutant, options, seed);
        },
        options);
    if (outcome.relative.detected) {
      // The crash axis: did the persistence oracle kill it, or did the
      // live differential check get there first?
      outcome.killed_by = outcome.relative.violation.rfind("crash:", 0) == 0
                              ? "crash"
                              : "live";
    }

    // Second axis: absolute 2-way against the executable spec. Crash
    // mutants are exempt — the spec has no device and no crash mode.
    if (options.spec_axis && !mutant.crash) {
      outcome.spec_ran = true;
      outcome.spec = RunCampaignAxis(
          [&](std::uint64_t seed) {
            return SpecMutantCampaignConfig(mutant, options, seed);
          },
          options);
      if (!outcome.relative.detected && outcome.spec.detected) {
        outcome.killed_by = "spec";
      }
    }
    report.outcomes.push_back(std::move(outcome));
  }

  for (const MutantOutcome& o : report.outcomes) {
    if (o.expect_detected) {
      ++report.expected_detections;
      if (o.relative.detected) {
        ++report.detections;
      } else {
        report.missed.push_back(o.name);
      }
    } else if (o.relative.detected) {
      report.unexpected.push_back(o.name);
    }
    if (o.spec_ran && (o.expect_detected || o.dual)) {
      ++report.spec_expected_detections;
      if (o.spec.detected) {
        ++report.spec_detections;
      } else {
        report.spec_missed.push_back(o.name);
      }
    }
  }
  if (report.expected_detections > 0) {
    report.kill_rate = static_cast<double>(report.detections) /
                       static_cast<double>(report.expected_detections);
  }
  if (report.spec_expected_detections > 0) {
    report.spec_kill_rate =
        static_cast<double>(report.spec_detections) /
        static_cast<double>(report.spec_expected_detections);
  }
  return report;
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

const char* JsonBool(bool b) { return b ? "true" : "false"; }

}  // namespace

std::string MutationCampaignReport::ToJson() const {
  std::ostringstream out;
  // One axis's columns, keys prefixed ("" or "spec_").
  auto axis = [&out](const char* p, const AxisResult& a) {
    out << " \"" << p << "detected\": " << JsonBool(a.detected) << ","
        << " \"" << p << "seed\": " << a.seed << ","
        << " \"" << p << "ops_to_detect\": " << a.ops_to_detect << ","
        << " \"" << p << "raw_trace_ops\": " << a.raw_trace_ops << ","
        << " \"" << p << "minimized_ops\": " << a.minimized_ops << ","
        << " \"" << p << "replay_confirmed\": "
        << JsonBool(a.replay_confirmed) << ","
        << " \"" << p << "one_minimal\": " << JsonBool(a.one_minimal)
        << ","
        << " \"" << p << "shrink_replays\": " << a.shrink_replays << ","
        << " \"" << p << "violation\": \"" << JsonEscape(a.violation)
        << "\",";
  };
  out << "{\n  \"mutants\": [\n";
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const MutantOutcome& o = outcomes[i];
    out << "    {\"name\": \"" << JsonEscape(o.name) << "\","
        << " \"historical\": " << JsonBool(o.historical) << ","
        << " \"expect_detected\": " << JsonBool(o.expect_detected) << ","
        << " \"crash\": " << JsonBool(o.crash) << ","
        << " \"dual\": " << JsonBool(o.dual) << ","
        << " \"killed_by\": \"" << JsonEscape(o.killed_by) << "\",";
    axis("", o.relative);
    out << " \"hint\": \"" << JsonEscape(o.hint) << "\","
        << " \"minimized_trace\": \""
        << JsonEscape(o.relative.minimized_trace) << "\","
        << " \"spec_ran\": " << JsonBool(o.spec_ran) << ",";
    axis("spec_", o.spec);
    out << " \"spec_minimized_trace\": \""
        << JsonEscape(o.spec.minimized_trace) << "\"}"
        << (i + 1 < outcomes.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"expected_detections\": " << expected_detections << ",\n";
  out << "  \"detections\": " << detections << ",\n";
  out << "  \"kill_rate\": " << kill_rate << ",\n";
  out << "  \"spec_expected_detections\": " << spec_expected_detections
      << ",\n";
  out << "  \"spec_detections\": " << spec_detections << ",\n";
  out << "  \"spec_kill_rate\": " << spec_kill_rate << ",\n";
  {
    out << "  \"spec_missed\": [";
    for (std::size_t i = 0; i < spec_missed.size(); ++i) {
      out << "\"" << JsonEscape(spec_missed[i]) << "\""
          << (i + 1 < spec_missed.size() ? ", " : "");
    }
    out << "],\n";
  }
  auto name_list = [&out](const std::vector<std::string>& names) {
    out << "[";
    for (std::size_t i = 0; i < names.size(); ++i) {
      out << "\"" << JsonEscape(names[i]) << "\""
          << (i + 1 < names.size() ? ", " : "");
    }
    out << "]";
  };
  out << "  \"missed\": ";
  name_list(missed);
  out << ",\n  \"unexpected_detections\": ";
  name_list(unexpected);
  out << "\n}\n";
  return out.str();
}

std::string MutationCampaignReport::Summary() const {
  std::ostringstream out;
  // "(seed S, N ops to detect, trace R -> M ops" for one axis.
  auto kill = [&out](const AxisResult& a) {
    out << "(seed " << a.seed << ", " << a.ops_to_detect
        << " ops to detect, trace " << a.raw_trace_ops << " -> "
        << a.minimized_ops << " ops";
  };
  auto certificates = [&out](const AxisResult& a) {
    if (a.replay_confirmed) out << ", replay-confirmed";
    if (a.one_minimal) out << ", 1-minimal";
    out << ")";
  };
  for (const MutantOutcome& o : outcomes) {
    const AxisResult& rel = o.relative;
    out << (rel.detected ? "KILLED   " : o.expect_detected ? "MISSED   "
                                                           : "SURVIVED ")
        << o.name;
    if (rel.detected) {
      out << "  ";
      kill(rel);
      if (!o.killed_by.empty()) out << ", killed by " << o.killed_by;
      certificates(rel);
    } else if (!o.spec_ran || !o.spec.detected) {
      out << "  (" << o.hint << ")";
    }
    if (o.spec_ran) {
      if (o.spec.detected) {
        out << "\n         spec axis: KILLED ";
        kill(o.spec);
        certificates(o.spec);
      } else {
        out << "\n         spec axis: survived";
      }
    }
    out << "\n";
  }
  out << "kill rate: " << detections << "/" << expected_detections;
  if (expected_detections > 0) {
    out << " (" << static_cast<int>(kill_rate * 100.0 + 0.5) << "%)";
  }
  out << "\n";
  if (spec_expected_detections > 0) {
    out << "spec-axis kill rate: " << spec_detections << "/"
        << spec_expected_detections << " ("
        << static_cast<int>(spec_kill_rate * 100.0 + 0.5) << "%)\n";
  }
  if (!spec_missed.empty()) {
    out << "spec-axis missed:";
    for (const auto& name : spec_missed) out << " " << name;
    out << "\n";
  }
  if (!missed.empty()) {
    out << "missed:";
    for (const auto& name : missed) out << " " << name;
    out << "\n";
  }
  if (!unexpected.empty()) {
    out << "unexpected detections:";
    for (const auto& name : unexpected) out << " " << name;
    out << "\n";
  }
  return out.str();
}

}  // namespace mcfs::core
