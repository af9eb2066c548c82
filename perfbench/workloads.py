"""Seeded workload generator for the model-checker benchmark.

Each workload is a fixed shape (file-system pair, capture strategy, pool
preset, search bounds); the seed picks only the bytes every write fills
with. So seeds vary file content, not the work: op counts, unique-state
counts and the solo `sim_ops_per_s` read the same on every seed. Sizes
and the DFS action order stay fixed on purpose: a search cut off at an
op budget covers a different set of states under another action order
(85 vs 135 unique states on ext4-xfs-remount), and sizes that move by a
few bytes change which ops lead to one state (1355 vs 1418 unique states
on verifs-bulk), so either would swamp every rate. The same (workload,
seed) always yields the same config, and the benchmark program only
ever sees the generated `key=value` config.

    python3 perfbench/workloads.py verifs-bulk 7   # print one config
"""

import random
import sys

# Never used while the benchmark or a change is being tuned. Seeds vary
# only file content, so this guards a change that depends on the bytes
# written (hashing, compression, dedup); for any other change it is
# nominal.
HELD_OUT_SEED = 90210


def _csv(values):
    return ",".join(str(v) for v in values)


def _pool(rng, preset, fsync_ops=0):
    """One of the model checker's pool presets (ParameterPool::Default or
    ::Tiny) with seeded fill bytes, as many as the preset has."""
    fills = {"default": 2, "tiny": 1}[preset]
    return {
        "pool": preset,
        "fill_bytes": _csv(rng.sample(range(0x21, 0x7f), fills)),
        "fsync_ops": fsync_ops,
    }


def verifs_bulk(rng):
    # bench_fig2_speed's (bulk) row with the repo defaults: VeriFS1 vs
    # VeriFS2 over FUSE, COW ioctl snapshots, writes up to 128 KB,
    # incremental abstraction, POR, solo DFS at depth 8.
    config = {
        "fs_a": "verifs1", "fs_b": "verifs2", "strategy": "ioctl",
        "block_cache": 64,
        "incremental": 1, "por": 1, "depth": 8, "max_ops": 5000,
        "memory_model": 1, "crash": 0, "workers": 0,
        "target_unique": 0,
    }
    config.update(_pool(rng, "default"))
    # bench_fig2_speed's BulkPool: the default pool with these sizes.
    config.update({"write_sizes": "3000,32768,131072",
                   "truncate_sizes": "0,8192,131072"})
    return config


def ext4_xfs_remount(rng):
    # bench_fig2_speed's ext4-vs-xfs(ram) row: remount per op, the
    # default pool, full abstraction walks, memory model on.
    config = {
        "fs_a": "ext4", "fs_b": "xfs", "strategy": "remount",
        "block_cache": 64,
        "incremental": 0, "por": 0, "depth": 8, "max_ops": 500,
        "memory_model": 1, "crash": 0, "workers": 0,
        "target_unique": 0,
    }
    config.update(_pool(rng, "default"))
    return config


def ext2_jffs2_crash(rng):
    # bench_crash_mode's ext2-vs-jffs2 ordered row: kVfsApi capture over
    # crashable devices, the Tiny pool plus fsync, depth 3, a crash
    # check after every op. Exhaustive within its bounds.
    config = {
        "fs_a": "ext2", "fs_b": "jffs2", "strategy": "vfsapi",
        "block_cache": 0,
        "incremental": 0, "por": 0, "depth": 3, "max_ops": 600,
        "memory_model": 0, "crash": 1, "workers": 0,
        "target_unique": 0,
    }
    config.update(_pool(rng, "tiny", fsync_ops=1))
    return config


def swarm_remote(rng):
    # Two cooperative DFS workers on the VeriFS pair share one
    # RemoteVisitedStore (one loopback connection) to an in-process
    # reactor FrameServer and stop at a unique-state target. Two workers
    # plus the reactor leave a core of the 4 free: with 3 workers every
    # vCPU was busy and host load moved the rate by up to 36 % between
    # runs.
    config = {
        "fs_a": "verifs1", "fs_b": "verifs2", "strategy": "ioctl",
        "block_cache": 64,
        "incremental": 1, "por": 0, "depth": 8, "max_ops": 10000000,
        "memory_model": 0, "crash": 0, "workers": 2,
        "target_unique": 12000,
    }
    config.update(_pool(rng, "default"))
    return config


# Why each workload exists, and the layer it should stress, is recorded
# in BENCHMARK.json and README.md.
WORKLOADS = {
    "verifs-bulk": verifs_bulk,
    "ext4-xfs-remount": ext4_xfs_remount,
    "ext2-jffs2-crash": ext2_jffs2_crash,
    "swarm-remote": swarm_remote,
}


def generate(workload, seed, scale=1.0):
    """The config for (workload, seed) as `key=value` text. `scale` < 1
    shrinks the op budget and the swarm's state target (smoke tests)."""
    gen = WORKLOADS[workload]
    rng = random.Random("%s:%d" % (workload, seed))
    config = {"name": workload}
    config.update(gen(rng))
    for key in ("max_ops", "target_unique"):
        config[key] = int(config[key] * scale)
    return "".join("%s=%s\n" % (k, v) for k, v in config.items())


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] not in WORKLOADS:
        sys.exit("usage: workloads.py <%s> <seed>" % "|".join(WORKLOADS))
    sys.stdout.write(generate(sys.argv[1], int(sys.argv[2])))
