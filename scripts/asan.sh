#!/usr/bin/env bash
# One-command AddressSanitizer+UBSan sweep: configures a separate
# build-asan tree with -DMCFS_ASAN=ON, builds it, and runs the full test
# suite under the sanitizers. The shrink/mutation machinery builds
# hundreds of short-lived file-system pairs per minimization, which is
# exactly the allocation churn ASan is good at auditing. Usage:
#
#   scripts/asan.sh [extra ctest args...]
#
# e.g. `scripts/asan.sh -L mutation` to narrow to the shrink/campaign
# suite, `scripts/asan.sh -L crash` for the crash-exploration suite
# (the CrashableDisk journal + recovery-probe churn is allocation-heavy),
# `scripts/asan.sh -L snapshot` for the COW snapshot suite — the
# leak detector is what proves a discarded snapshot's refcounted chunks
# and blocks actually free — `scripts/asan.sh -L storage` for the
# block-device suite, where it proves the same of a dropped device
# snapshot's shared 4 KB blocks, or `scripts/asan.sh -L spec` for the
# executable-spec suite, whose O(state) deep-copy snapshots and
# export/import round-trips are pure allocation traffic.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${MCFS_ASAN_BUILD_DIR:-${repo_root}/build-asan}"

cmake -B "${build_dir}" -S "${repo_root}" -DMCFS_ASAN=ON
cmake --build "${build_dir}" -j
ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}" \
UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}" \
ctest --test-dir "${build_dir}" --output-on-failure -j "$(nproc)" "$@"
