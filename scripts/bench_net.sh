#!/usr/bin/env bash
# Runs the network-path benchmarks — the conn_scale/reactor/* connection-
# scaling rows (DESIGN.md §7.9) and the swarm_remote/* loopback-swarm
# rows — with machine-readable JSON output so the serving model's
# throughput can be tracked across changes. Usage:
#
#   scripts/bench_net.sh [out.json] [extra benchmark args...]
#
# e.g. `scripts/bench_net.sh /tmp/net.json
#       --benchmark_filter=conn_scale` for just the scaling sweep.
# Builds the default tree if needed.
#
# Note: swarm_remote/solo+dist rows depend on the swarm_frontier rows
# running first (they set the coverage target K), so the default filter
# includes them.
#
# The committed BENCH_net.json is a historical record, not regenerated:
# it holds the comparison that retired the thread-per-connection server
# (conn_scale/threads/* rows; reactor vs that baseline: 0.94x at 1
# worker, 1.07x at 4, 1.42x at 64, single runs on 1 CPU), so the
# default output goes to the build tree instead.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${MCFS_BUILD_DIR:-${repo_root}/build}"
out="${1:-${build_dir}/bench_net.json}"
shift || true

cmake -B "${build_dir}" -S "${repo_root}" > /dev/null
cmake --build "${build_dir}" -j --target bench_swarm > /dev/null

"${build_dir}/bench/bench_swarm" \
    --benchmark_filter='conn_scale|swarm_remote|swarm_frontier' \
    --benchmark_format=json --benchmark_out="${out}" \
    --benchmark_out_format=json "$@"
echo "wrote ${out}"
