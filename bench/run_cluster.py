#!/usr/bin/env python3
"""Multi-process cluster benchmark: real TCP transport end to end.

Brings up an n-replica localhost cluster (separate OS processes, real
sockets) plus a load generator for each protocol stack, runs a closed-loop
sweep, and collects wall-clock throughput/latency plus transport counters
into BENCH_transport.json.

Hard assertions (exit nonzero on violation):
  * the loadgen sustained traffic through every measurement quarter and
    completed > 0 operations;
  * every replica averaged >= 2 envelopes per writev syscall on the
    broadcast path (scatter-gather batching actually engaged);
  * no decode errors on any node.

With --shards N > 1 the deployment becomes N independent replica groups
over one flat port plan (shard s, node k -> base_port + s*(replicas+1)+k);
every replica process joins one shard with shard-derived keys, the loadgen
routes per key and runs cross-shard multi-ops as 2PC-over-BFT. A nonzero
--cross-fraction adds the torn-write audit: the run fails if any multi-op
key group reads back inconsistent.

Usage:
  python3 bench/run_cluster.py [--build-dir build] [--smoke]
                               [--clients N] [--replicas N]
                               [--shards N] [--cross-fraction F]
                               [--workers N]
                               [--out BENCH_transport.json]
"""

import argparse
import json
import pathlib
import subprocess
import sys
import tempfile
import time

REPO = pathlib.Path(__file__).resolve().parent.parent


def parse_args():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--build-dir", default="build")
    p.add_argument("--smoke", action="store_true",
                   help="fast CI variant: fewer clients, shorter measure")
    p.add_argument("--clients", type=int, default=None)
    p.add_argument("--replicas", type=int, default=4)
    p.add_argument("--shards", type=int, default=1)
    p.add_argument("--cross-fraction", type=float, default=0.0,
                   dest="cross_fraction",
                   help="fraction of ops issued as multi-key transactions "
                        "(enables the torn-write audit when > 0)")
    p.add_argument("--workers", type=int, default=None,
                   help="execution-runner workers per replica, passed to "
                        "bft_replica (default: its own, 1 = serial)")
    p.add_argument("--base-port", type=int, default=18100)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", default="BENCH_transport.json")
    return p.parse_args()


def run_stack(stack, args, base_port, tmp):
    """Launches replicas + loadgen for one stack; returns the result dict."""
    build = REPO / args.build_dir
    replica_bin = build / "examples" / "bft_replica"
    loadgen_bin = build / "examples" / "bft_loadgen"
    clients = args.clients or (200 if args.smoke else 1000)
    warmup_ms = 500 if args.smoke else 1000
    measure_ms = 1500 if args.smoke else 4000
    # Replicas self-terminate (and write their stats) shortly after the
    # loadgen's window closes; generous margin for process startup, plus
    # room for the post-run torn-write audit when one is requested.
    audit_secs = 10 if args.cross_fraction > 0 else 0
    run_secs = (warmup_ms + measure_ms) // 1000 + (4 if args.smoke else 6) \
        + audit_secs

    common = ["--stack", stack, "--replicas", str(args.replicas),
              "--loadgens", "1", "--clients", str(clients),
              "--base-port", str(base_port), "--seed", str(args.seed),
              "--shards", str(args.shards)]

    replica_flags = [] if args.workers is None else \
        ["--workers", str(args.workers)]

    replicas = []
    stats_paths = []
    for s in range(args.shards):
        for r in range(args.replicas):
            stats = tmp / f"{stack}_s{s}_replica{r}.json"
            stats_paths.append(stats)
            log = open(tmp / f"{stack}_s{s}_replica{r}.log", "w")
            replicas.append(subprocess.Popen(
                [str(replica_bin), "--replica", str(r),
                 "--shard-index", str(s),
                 "--run-secs", str(run_secs), "--stats-out", str(stats)]
                + replica_flags + common,
                stdout=log, stderr=log))
    time.sleep(0.5)  # let every replica bind before the loadgen dials

    print(f"[{stack}] {args.shards} shard(s) x {args.replicas} replicas up, "
          f"driving {clients} closed-loop clients for {measure_ms} ms ...",
          flush=True)
    loadgen = subprocess.run(
        [str(loadgen_bin), "--loadgen", "0", "--mode", "closed",
         "--warmup-ms", str(warmup_ms), "--measure-ms", str(measure_ms),
         "--cross-fraction", str(args.cross_fraction),
         "--multi-groups", "64" if args.smoke else "256"]
        + common,
        capture_output=True, text=True, timeout=run_secs + audit_secs + 60)

    failures = []
    if loadgen.returncode != 0:
        failures.append(f"loadgen exit {loadgen.returncode}: "
                        f"{loadgen.stderr.strip()[-500:]}")
    try:
        report = json.loads(loadgen.stdout)
    except json.JSONDecodeError:
        failures.append(f"loadgen emitted no JSON: {loadgen.stdout[:200]!r}")
        report = None

    replica_stats = []
    for r, (proc, stats) in enumerate(zip(replicas, stats_paths)):
        try:
            proc.wait(timeout=run_secs + 30)
        except subprocess.TimeoutExpired:
            proc.kill()
            failures.append(f"replica {r} hung past its run window")
            continue
        if proc.returncode != 0:
            failures.append(f"replica {r} exit {proc.returncode}")
        if not stats.exists():
            failures.append(f"replica {r} wrote no stats file")
            continue
        s = json.loads(stats.read_text())
        replica_stats.append(s)
        if s["writev_calls"] and s["frames_out"] / s["writev_calls"] < 2.0:
            failures.append(
                f"replica {r} frames/writev "
                f"{s['frames_out'] / s['writev_calls']:.2f} < 2 — "
                "scatter-gather batching not engaged")
        if s["decode_errors"]:
            failures.append(f"replica {r} decode_errors={s['decode_errors']}")

    if report is not None:
        if not report.get("sustained"):
            failures.append("run did not sustain through every quarter")
        if not report.get("completed_ops"):
            failures.append("zero completed operations")
        if args.cross_fraction > 0:
            sharding = report.get("sharding", {})
            if not sharding.get("groups_checked"):
                failures.append("torn-write audit checked zero groups")
            if sharding.get("torn_groups"):
                failures.append(
                    f"torn multi-op groups: {sharding['torn_groups']}")
            if args.shards > 1 and not sharding.get("cross_shard_tx"):
                failures.append("no cross-shard transactions were driven")
        print(f"[{stack}] {report.get('ops_per_sec', 0):.0f} ops/s, "
              f"p50 {report.get('p50_us', 0) / 1000:.1f} ms, "
              f"replica frames/writev "
              + ", ".join(f"{s['frames_per_writev']:.1f}"
                          for s in replica_stats),
              flush=True)

    for f in failures:
        print(f"[{stack}] FAIL: {f}", file=sys.stderr, flush=True)
    return {"report": report, "replicas": replica_stats,
            "failures": failures}


def main():
    args = parse_args()
    results = {}
    with tempfile.TemporaryDirectory(prefix="sbft_cluster_") as td:
        tmp = pathlib.Path(td)
        for i, stack in enumerate(("pbft", "splitbft")):
            # Distinct port range per stack: no TIME_WAIT collisions.
            results[stack] = run_stack(stack, args, args.base_port + i * 100,
                                       tmp)

    out = {
        "bench": "transport",
        "smoke": args.smoke,
        "replicas": args.replicas,
        "shards": args.shards,
        "cross_fraction": args.cross_fraction,
        "workers": args.workers,
        "clients": args.clients or (200 if args.smoke else 1000),
        "stacks": results,
    }
    pathlib.Path(args.out).write_text(json.dumps(out, indent=2) + "\n")
    print(f"wrote {args.out}", flush=True)

    failed = [s for s, r in results.items() if r["failures"]]
    if failed:
        print(f"FAILED stacks: {', '.join(failed)}", file=sys.stderr)
        return 1
    print("cluster bench OK", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
