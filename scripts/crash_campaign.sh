#!/usr/bin/env bash
# Build and run the crash-mutation campaign: every crash mutant in the
# corpus (recovery defects invisible to live differential checking —
# jffs2f skipping log replay, ext4f acking before the journal barrier)
# is explored under the crash mode, killed by the persistence oracle,
# ddmin-minimized, and replay-confirmed; the report lands in a JSON
# artifact whose per-mutant rows carry the crash axis
# ("crash": true, "killed_by": "crash"). Usage:
#
#   scripts/crash_campaign.sh [--out=report.json] [campaign args...]
#
# Extra args go straight to examples/mutation_campaign (e.g. `--seeds=2`
# or `--ops=2000` to narrow a run). Exits nonzero if any crash mutant
# survived or its minimized reproducer failed to replay-confirm.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${MCFS_BUILD_DIR:-${repo_root}/build}"
out="${repo_root}/crash_report.json"

args=()
for arg in "$@"; do
  case "${arg}" in
    --out=*) out="${arg#--out=}" ;;
    *) args+=("${arg}") ;;
  esac
done

cmake -B "${build_dir}" -S "${repo_root}"
cmake --build "${build_dir}" -j --target mutation_campaign
"${build_dir}/examples/mutation_campaign" --crash-only --out="${out}" \
    ${args[@]+"${args[@]}"}
echo "report: ${out}"
