#!/usr/bin/env bash
# Build and run the full mutation self-verification campaign: every
# registered VeriFS mutant is explored against a pristine twin (relative
# axis) AND against the executable POSIX spec (spec axis), each detection
# is ddmin-minimized and replay-confirmed, and the two kill-rate tables
# land in a JSON artifact whose per-mutant rows carry both axes'
# columns — `killed_by: "spec"` marks dual mutants the relative axis is
# blind to. Usage:
#
#   scripts/mutation_campaign.sh [--out=report.json] [campaign args...]
#
# Extra args go straight to examples/mutation_campaign (e.g.
# `--mutant=stat_size_off_by_one --seeds=2` to narrow a run, `--list`
# to print the corpus, `--no-spec` to skip the spec axis). Exits nonzero
# if any mutant expected to be detected survived either axis, or if any
# detection's minimized reproducer failed to replay-confirm.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${MCFS_BUILD_DIR:-${repo_root}/build}"
out="${repo_root}/mutation_report.json"

args=()
for arg in "$@"; do
  case "${arg}" in
    --out=*) out="${arg#--out=}" ;;
    *) args+=("${arg}") ;;
  esac
done

cmake -B "${build_dir}" -S "${repo_root}"
cmake --build "${build_dir}" -j --target mutation_campaign
"${build_dir}/examples/mutation_campaign" --out="${out}" ${args[@]+"${args[@]}"}
echo "report: ${out}"
