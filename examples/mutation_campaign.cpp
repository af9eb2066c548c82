// Mutation self-verification campaign: does the checker actually catch
// the bugs it claims to catch?
//
// Every corpus mutant (see src/verifs/mutations.cc) is explored on two
// axes: the relative axis pairs it against a pristine twin of its own
// file system (dual mutants pair the two buggy families against each
// other), and the spec axis pairs it against the executable POSIX spec.
// Each detection is shrunk to a 1-minimal replay-confirmed reproducer,
// and the campaign reports both kill rates plus a machine-readable JSON
// artifact with per-axis columns (`killed_by: "spec"` marks bugs only
// the absolute oracle could see). Exits nonzero if any mutant expected
// to be detected survived either axis, or (with minimization on) if any
// detection's reproducer failed to replay-confirm.
//
//   ./mutation_campaign [--list] [--mutant=NAME]... [--crash-only]
//                       [--out=FILE] [--ops=N] [--depth=N] [--seeds=N]
//                       [--max-replays=N] [--no-minimize] [--no-fuse]
//                       [--no-spec]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "mcfs/harness.h"

using namespace mcfs;
using namespace mcfs::core;

int main(int argc, char** argv) {
  MutationCampaignOptions options;
  std::string out_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&arg](const char* prefix) {
      return arg.substr(std::strlen(prefix));
    };
    if (arg == "--list") {
      for (const verifs::Mutant& m : verifs::MutationCorpus()) {
        std::printf("%-36s %s%s%s%s(%s)\n", m.name.c_str(),
                    m.historical ? "[historical] " : "",
                    m.crash ? "[crash] " : "",
                    m.dual ? "[dual: spec-axis only] " : "",
                    m.expect_detected ? "" : "[expected to survive] ",
                    m.hint.c_str());
      }
      return 0;
    } else if (arg.rfind("--mutant=", 0) == 0) {
      options.only.push_back(value("--mutant="));
    } else if (arg == "--crash-only") {
      // The crash axis alone (scripts/crash_campaign.sh): every corpus
      // mutant explored under the crash mode.
      for (const verifs::Mutant& m : verifs::MutationCorpus()) {
        if (m.crash) options.only.push_back(m.name);
      }
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = value("--out=");
    } else if (arg.rfind("--ops=", 0) == 0) {
      options.max_operations = std::strtoull(value("--ops=").c_str(),
                                             nullptr, 10);
    } else if (arg.rfind("--depth=", 0) == 0) {
      options.max_depth = static_cast<std::uint32_t>(
          std::strtoul(value("--depth=").c_str(), nullptr, 10));
    } else if (arg.rfind("--seeds=", 0) == 0) {
      const std::uint64_t n =
          std::strtoull(value("--seeds=").c_str(), nullptr, 10);
      options.seeds.clear();
      for (std::uint64_t s = 1; s <= n; ++s) options.seeds.push_back(s);
    } else if (arg.rfind("--max-replays=", 0) == 0) {
      options.max_replays = std::strtoull(value("--max-replays=").c_str(),
                                          nullptr, 10);
    } else if (arg == "--no-minimize") {
      options.minimize = false;
    } else if (arg == "--no-fuse") {
      options.fuse_transport = false;
    } else if (arg == "--no-spec") {
      options.spec_axis = false;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }

  MutationCampaignReport report = RunMutationCampaign(options);
  std::printf("%s", report.Summary().c_str());

  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 2;
    }
    out << report.ToJson();
    std::printf("JSON report written to %s\n", out_path.c_str());
  }

  // A reproducer that does not replay is no reproducer: fail the run.
  std::vector<std::string> unconfirmed;
  if (options.minimize) {
    for (const MutantOutcome& o : report.outcomes) {
      if ((o.relative.detected && !o.relative.replay_confirmed) ||
          (o.spec.detected && !o.spec.replay_confirmed)) {
        unconfirmed.push_back(o.name);
      }
    }
  }
  if (!unconfirmed.empty()) {
    std::printf("not replay-confirmed:");
    for (const auto& name : unconfirmed) std::printf(" %s", name.c_str());
    std::printf("\n");
  }

  return report.missed.empty() && report.spec_missed.empty() &&
                 unconfirmed.empty()
             ? 0
             : 1;
}
