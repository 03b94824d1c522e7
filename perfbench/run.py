#!/usr/bin/env python3
"""Wall-clock cluster benchmark on the real multi-process TCP path.

Runs one workload (or all of them) against the shipped bft_replica and
bft_loadgen binaries: 4 replicas (f=1) as separate processes, one load
generator process, loopback TCP, no injected delay. See perfbench/README.md
for the workloads, the metrics and what each layer metric should move.

    python3 perfbench/run.py --workload pbft-saturate --seed 1 \
        --seconds 12 --trace 0

--trace 0 measures the end-to-end metrics with tracing off. --trace 1 runs
one untraced cluster for the outside-in counters (child rusage, replica
transport stats) and one cluster of traced replicas (perfbench_node, which
wraps every layer's public interface) for the per-layer numbers.

Every line before the last is human-readable; each metric is printed as
`<workload>/<metric> <value> <unit> (<samples>)`. The last line is one JSON
object {"correct", "attempted", "failed", "metrics"}. The exit code is 0
only when every correctness check passed.
"""

import argparse
import hashlib
import json
import math
import os
import pathlib
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent

REPLICAS = 4
# Loadgen node 0 is bft_loadgen; loadgen node 1 hosts the set-up probe.
# Clients alternate between the two nodes, so bft_loadgen drives
# DRIVEN_CLIENTS of the 2 * DRIVEN_CLIENTS provisioned ones.
LOADGENS = 2
DRIVEN_CLIENTS = 1000
PROBE_CLIENT_INDEX = 1
WORKERS = 1
BATCH_MAX = 200
PIPELINE_DEPTH = 8
WARMUP_MS = 1000
# 200 ms per client offers 5k ops/s, about a quarter of what a 4-vCPU VM
# serves at saturation (PBFT 15-30k ops/s). At 10k ops/s a slow spell of
# the host left too little headroom to drain the failover's backlog: p50
# rose from ~17 ms to 0.9-3.5 s and requests were still queued at the end.
PACED_INTERARRIVAL_US = 200_000
# Extra throwaway clusters per run whose only job is a set-up sample.
SETUP_SAMPLES = 5
# Replicas stop on their own timer, which must outlast set-up, the
# loadgen's start-up, warmup, window and shutdown; Cluster.drive checks that
# it did. The loadgen's start-up and shutdown take ~0.6 s on an idle 4-vCPU
# VM and several times that on a busy shared host, so the margin is wide.
# The time is not lost: a measured cluster is paused while later ones run.
REPLICA_MARGIN_S = 6.0
# pbft-failover fails unless service resumes within this long of the kill.
MAX_OUTAGE_S = 8

WORKLOADS = {
    "pbft-saturate": {
        "stack": "pbft", "mode": "closed", "subruns": 6,
        "why": "1000 closed-loop clients: batches are cut by size or a "
               "freed pipeline slot, never by the timer, so throughput is "
               "CPU per op in net, crypto, pbft, runner and apps"},
    "splitbft-saturate": {
        "stack": "splitbft", "mode": "closed", "subruns": 6,
        "why": "the same load on SplitBFT: broker plus three compartments "
               "do the work; against pbft-saturate this is the paper's "
               "overhead comparison"},
    "splitbft-paced": {
        "stack": "splitbft", "mode": "open", "subruns": 3,
        "why": "Poisson arrivals at ~5k ops/s (~1/4 capacity): batches "
               "are cut by the timer, so latency is batch wait plus three "
               "protocol hops and CPU savings should leave it flat"},
    "pbft-failover": {
        "stack": "pbft", "mode": "open", "subruns": 1, "fault": True,
        "why": "paced load while the view-0 primary is SIGKILLed and "
               "restarted: measures view change, reconnect and state "
               "transfer, which no other workload reaches"},
}

END_TO_END = [("throughput_ops_s", "ops/s"), ("p50_ms", "ms"),
              ("p99_ms", "ms"), ("setup_s", "s")]
PER_LAYER = [
    ("replica.cpu_ms_per_kop", "ms"), ("loadgen.cpu_ms_per_kop", "ms"),
    ("net.frames_per_op", "count"), ("net.bytes_per_op", "B"),
    ("net.frames_per_writev", "count"), ("net.backpressure_drops", "count"),
    ("net.reconnects", "count"),
    ("crypto.verify_per_op", "count"), ("crypto.verify_us_per_op", "us"),
    ("crypto.sign_per_op", "count"), ("crypto.sign_us_per_op", "us"),
    ("runner.queue_wait_us", "us"), ("runner.drain_wait_us_per_op", "us"),
    ("apps.execute_us_per_op", "us"),
    ("protocol.self_us_per_op", "us"), ("protocol.ops_per_batch", "count"),
    ("protocol.batch_wait_ms", "ms"), ("protocol.order_ms", "ms"),
    ("protocol.view_changes", "count"),
    ("splitbft.prep.ecalls_per_op", "count"),
    ("splitbft.conf.ecalls_per_op", "count"),
    ("splitbft.exec.ecalls_per_op", "count"),
    ("recovery.state_bytes", "B"), ("trace.overhead_pct", "%"),
]

LIVE = []  # every child process not yet reaped


class BenchError(Exception):
    """The benchmark itself could not run (build, ports, missing files)."""


# ------------------------------------------------------------ processes

def spawn(cmd, log_path, stdout=None):
    log = open(log_path, "w")
    proc = subprocess.Popen(cmd, stdout=stdout or log, stderr=log,
                            cwd=ROOT, start_new_session=True)
    proc.log = log
    proc.cmd = cmd
    LIVE.append(proc)
    return proc


def kill(proc):
    """SIGKILLs a child that has not been reaped yet. Not Popen.kill():
    that polls first and may reap the child, and reap()'s wait4 would then
    find no child to wait for."""
    os.kill(proc.pid, signal.SIGKILL)


def reap(proc, timeout):
    """Waits for `proc` (killing it past `timeout` s); returns
    (exit code or -signal, cpu seconds, timed_out)."""
    deadline = time.monotonic() + timeout
    timed_out = False
    while True:
        pid, status, ru = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline and not timed_out:
            timed_out = True
            kill(proc)
            deadline = time.monotonic() + 10
        time.sleep(0.01)
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.log.close()
    if proc in LIVE:
        LIVE.remove(proc)
    return proc.returncode, ru.ru_utime + ru.ru_stime, timed_out


def exited(proc):
    """Whether `proc` has exited, without reaping it."""
    info = os.waitid(os.P_PID, proc.pid,
                     os.WEXITED | os.WNOHANG | os.WNOWAIT)
    return info is not None


def reap_all():
    for proc in list(LIVE):
        try:
            kill(proc)
            reap(proc, 10)
        except (ProcessLookupError, ChildProcessError):
            # Reaped by an interrupted reap() just before the signal came.
            LIVE.remove(proc)


def on_signal(signum, _frame):
    signal.signal(signum, signal.SIG_IGN)  # one cleanup, not two
    raise SystemExit(128 + signum)


# ---------------------------------------------------------------- build

def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / \
        "perfbench"


def build():
    """Configures and builds perfbench_node, bft_replica and bft_loadgen
    from this checkout's sources; returns their paths."""
    bdir = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(BENCH), "-B", str(bdir),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(bdir), "-j", jobs, "--target",
              "perfbench_node", "bft_replica", "bft_loadgen"]]
    for cmd in steps:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if out.returncode != 0:
            sys.stderr.write(out.stdout[-4000:] + out.stderr[-4000:])
            raise BenchError(f"build step failed: {' '.join(cmd)}")
    bins = {"node": bdir / "perfbench_node",
            "replica": bdir / "splitbft" / "examples" / "bft_replica",
            "loadgen": bdir / "splitbft" / "examples" / "bft_loadgen"}
    for name, path in bins.items():
        if not path.exists():
            raise BenchError(f"build produced no {name} binary at {path}")
    return bins


def source_digest():
    """Commit id when run from a git checkout, else a digest of the
    sources the benchmark builds (an exported source tree has no git)."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for sub in ("CMakeLists.txt", "src", "examples", "perfbench"):
        p = ROOT / sub
        files = [p] if p.is_file() else sorted(
            f for f in p.rglob("*") if f.is_file())
        for f in files:
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return "sources-sha256:" + h.hexdigest()[:16]


# ---------------------------------------------------------------- ports

def port_block(n):
    """A fresh block of n consecutive free loopback ports below the
    ephemeral range, so back-to-back clusters never meet TIME_WAIT."""
    rng = random.Random(time.monotonic_ns() ^ os.getpid())
    for _ in range(200):
        base = rng.randrange(20000, 32000 - n)
        socks = []
        try:
            for port in range(base, base + n):
                s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                socks.append(s)
                s.bind(("127.0.0.1", port))
            return base
        except OSError:
            continue
        finally:
            for s in socks:
                s.close()
    raise BenchError("no free port block")


# -------------------------------------------------------------- metrics

def percentile(buckets, q):
    """q-quantile of a histogram [[lower_us, upper_us, count], ...],
    interpolated linearly inside the bucket holding it (in ms)."""
    total = sum(c for _, _, c in buckets)
    if total == 0:
        return float("nan")
    rank = q * total
    seen = 0
    for lo, hi, count in buckets:
        if count and seen + count >= rank:
            frac = (rank - seen) / count
            return (lo + (hi - lo) * frac) / 1000.0
        seen += count
    return buckets[-1][1] / 1000.0


def merge_histograms(hists):
    merged = {}
    for buckets in hists:
        for lo, hi, count in buckets:
            key = (lo, hi)
            merged[key] = merged.get(key, 0) + count
    return [[lo, hi, c] for (lo, hi), c in sorted(merged.items())]


def finite(value):
    """JSON has no NaN: a metric with no samples (a failed run) reads 0."""
    return value if math.isfinite(value) else 0.0


def median(values):
    return statistics.median(values) if values else float("nan")


# -------------------------------------------------------------- cluster

class Cluster:
    """One deployment: replicas, the set-up probe, then bft_loadgen."""

    def __init__(self, args, bins, wl, run_dir, label, window_s, traced):
        self.args, self.bins, self.wl = args, bins, wl
        self.dir = run_dir / label
        self.dir.mkdir(parents=True)
        self.label = label
        self.window_s = window_s
        self.traced = traced
        self.port = port_block(REPLICAS + LOADGENS)
        self.common = [
            "--stack", wl["stack"], "--replicas", str(REPLICAS),
            "--loadgens", str(LOADGENS),
            "--clients", str(LOADGENS * DRIVEN_CLIENTS),
            "--base-port", str(self.port), "--seed", str(args.seed),
            "--batch-max", str(BATCH_MAX),
            "--pipeline-depth", str(PIPELINE_DEPTH)]
        self.failures = []
        self.replicas = {}   # index -> list of (proc, stats path)
        self.cpu = {"replica": 0.0, "loadgen": 0.0}

    def replica_cmd(self, r, run_secs, incarnation):
        out = self.dir / f"replica{r}.{incarnation}.json"
        if self.traced:
            cmd = [str(self.bins["node"]), "replica", "--trace-out", str(out)]
        else:
            cmd = [str(self.bins["replica"]), "--stats-out", str(out)]
        cmd += ["--replica", str(r), "--workers", str(WORKERS),
                "--run-secs", str(run_secs)] + self.common
        return cmd, out

    def start_replica(self, r, run_secs, incarnation=0):
        cmd, out = self.replica_cmd(r, run_secs, incarnation)
        proc = spawn(cmd, self.dir / f"replica{r}.{incarnation}.log")
        proc.deadline = time.monotonic() + run_secs
        self.replicas.setdefault(r, []).append((proc, out))
        return proc

    def probe(self):
        """Spawns the replicas and times set-up: first replica spawned
        until the probe's one request is committed (f+1 replies)."""
        # Replicas stop on their own timer (that is when bft_replica writes
        # its stats).
        self.run_secs = math.ceil(
            REPLICA_MARGIN_S + WARMUP_MS / 1000 + self.window_s)
        t0 = time.monotonic_ns()
        for r in range(REPLICAS):
            self.start_replica(r, self.run_secs)
        probe = spawn([str(self.bins["node"]), "probe",
                       "--loadgen", str(LOADGENS - 1),
                       "--client-index", str(PROBE_CLIENT_INDEX)]
                      + self.common, self.dir / "probe.log",
                      stdout=subprocess.PIPE)
        out = probe.stdout.read()
        probe.stdout.close()
        code, _, _ = reap(probe, 30)
        if code != 0:
            self.failures.append(f"{self.label}: set-up probe exit {code}")
            return None
        return (json.loads(out)["commit_ns"] - t0) / 1e9

    def drive(self):
        """Runs bft_loadgen (and the fault, if any); returns its report."""
        wl, args = self.wl, self.args
        cmd = [str(self.bins["loadgen"]), "--loadgen", "0",
               "--mode", wl["mode"], "--warmup-ms", str(WARMUP_MS),
               "--measure-ms", str(int(self.window_s * 1000))] + self.common
        if wl["mode"] == "open":
            cmd += ["--interarrival-us", str(PACED_INTERARRIVAL_US)]
        self.loadgen_cmd = cmd
        report_path = self.dir / "loadgen.json"
        with open(report_path, "w") as report_out:
            t_lg = time.monotonic()
            lg = spawn(cmd, self.dir / "loadgen.log", stdout=report_out)
            if wl.get("fault"):
                self.inject_fault(t_lg)
            code, cpu, timed_out = reap(
                lg, WARMUP_MS / 1000 + self.window_s + 60)
        self.cpu["loadgen"] += cpu
        if timed_out:
            self.failures.append(f"{self.label}: loadgen hung")
        # The loadgen exits after its window closes: every replica still
        # meant to run must have been alive for all of it. The slack (time
        # left on the first replica timer to run out) is printed per cluster.
        t_exit = time.monotonic()
        self.slack_s = min(incarnations[-1][0].deadline - t_exit
                           for incarnations in self.replicas.values())
        for r, incarnations in sorted(self.replicas.items()):
            proc, _ = incarnations[-1]
            if proc.returncode is None and exited(proc):
                self.failures.append(
                    f"{self.label}: replica {r}.{len(incarnations) - 1} "
                    "stopped before the loadgen's window closed")
        self.loadgen_exit = code
        # Idle replicas still tick, retry connections to the departed
        # clients and time out their pending requests, which took CPU from
        # the next cluster's measurement (later clusters of a run read
        # slower). SIGSTOP freezes them until finish() lets them run out
        # their timers, which fire at once on SIGCONT.
        self.signal_replicas(signal.SIGSTOP)
        try:
            return json.loads(report_path.read_text())
        except (json.JSONDecodeError, OSError):
            self.failures.append(
                f"{self.label}: loadgen exit {code} with no report")
            return None

    def inject_fault(self, t_lg):
        """SIGKILLs the view-0 primary at a fixed offset into the window
        and restarts it --restart-delay-s later as a fresh process."""
        kill_at = t_lg + WARMUP_MS / 1000 + self.args.fault_offset_s
        time.sleep(max(0.0, kill_at - time.monotonic()))
        proc, _ = self.replicas[0][-1]
        self.kill_ns = time.monotonic_ns()
        kill(proc)
        code, cpu, _ = reap(proc, 10)
        self.cpu["replica"] += cpu
        self.killed_status = code
        time.sleep(self.args.restart_delay_s)
        end = t_lg + WARMUP_MS / 1000 + self.window_s + REPLICA_MARGIN_S
        self.start_replica(0, max(1, math.ceil(end - time.monotonic())), 1)

    def signal_replicas(self, signum):
        for incarnations in self.replicas.values():
            for proc, _ in incarnations:
                if proc.returncode is None:
                    os.kill(proc.pid, signum)

    def finish(self):
        """Reaps every replica; returns the stats/trace each wrote."""
        self.signal_replicas(signal.SIGCONT)
        written = []
        for r, incarnations in sorted(self.replicas.items()):
            for i, (proc, out) in enumerate(incarnations):
                if proc.returncode is not None:
                    continue  # the killed primary, reaped at the kill
                code, cpu, timed_out = reap(proc, self.run_secs + 30)
                self.cpu["replica"] += cpu
                name = f"{self.label}: replica {r}.{i}"
                if timed_out:
                    self.failures.append(f"{name} hung past its run window")
                elif code != 0:
                    self.failures.append(f"{name} exit {code}")
                elif not out.exists():
                    self.failures.append(f"{name} wrote no stats")
                else:
                    stats = json.loads(out.read_text())
                    transport = stats.get("transport", stats)
                    if transport["decode_errors"]:
                        self.failures.append(
                            f"{name} decode_errors="
                            f"{transport['decode_errors']}")
                    written.append((r, i, stats))
        return written


def arrivals_in_window(bins, args, window_s):
    """Open-loop arrivals bft_loadgen schedules inside its measurement
    window, replayed from the stations' seeded arrival streams."""
    from_us = WARMUP_MS * 1000
    out = subprocess.run(
        [str(bins["node"]), "arrivals", "--seed", str(args.seed),
         "--clients", str(LOADGENS * DRIVEN_CLIENTS),
         "--loadgens", str(LOADGENS), "--loadgen", "0",
         "--interarrival-us", str(PACED_INTERARRIVAL_US),
         "--from-us", str(from_us),
         "--to-us", str(from_us + int(window_s * 1e6))],
        cwd=ROOT, capture_output=True, text=True, timeout=60)
    if out.returncode != 0:
        raise BenchError("arrival replay failed: " + out.stderr[-500:])
    return json.loads(out.stdout)["arrivals"]


def setup_only(args, bins, wl, run_dir, label):
    """A throwaway cluster that only yields a set-up sample."""
    c = Cluster(args, bins, wl, run_dir, label, 0, traced=False)
    setup = c.probe()
    for r, incarnations in c.replicas.items():
        for proc, _ in incarnations:
            kill(proc)
            reap(proc, 10)
    return setup, c.failures


def measure(args, bins, wl, run_dir, label, window_s, traced):
    """One cluster, one measurement window: set-up, then bft_loadgen. The
    replicas are left to run out their timers (see collect)."""
    c = Cluster(args, bins, wl, run_dir, label, window_s, traced)
    c.setup_s = c.probe()
    c.report = c.drive() if c.setup_s is not None else None
    return c


def collect(args, bins, wl, c):
    """Reaps a measured cluster's replicas and returns its result dict."""
    label, window_s, traced, report = c.label, c.window_s, c.traced, c.report
    res = {"label": label, "setup_s": c.setup_s,
           "slack_s": getattr(c, "slack_s", None)}
    written = c.finish()
    res["loadgen_cmd"] = getattr(c, "loadgen_cmd", None)
    res["replica_cmd"] = c.replica_cmd(0, c.run_secs, 0)[0]
    failures = c.failures
    res["failures"] = failures
    if report is None:
        return res

    completed = report["completed_ops"]
    if completed == 0:
        # A stalled cluster: every attempt failed and there is nothing to
        # measure. bft_loadgen exits 1 here; that is data, not a crash.
        attempted = (arrivals_in_window(bins, args, window_s)
                     if wl["mode"] == "open" else DRIVEN_CLIENTS)
        res.update(attempted=attempted, failed=attempted)
        failures.append(f"{label}: zero completed operations "
                        f"(loadgen exit {c.loadgen_exit})")
        return res
    hist = report["histogram"]
    res.update(completed=completed,
               throughput=report["ops_per_sec"],
               p50=percentile(hist, 0.50), p99=percentile(hist, 0.99),
               max_ms=report["max_us"] / 1000.0,
               sustained=report["sustained"])
    if not report["sustained"]:
        failures.append(f"{label}: loadgen exit {c.loadgen_exit}, a "
                        "measurement quarter completed nothing")
    if wl["mode"] == "open":
        attempted = arrivals_in_window(bins, args, window_s)
        # Requests that arrive within the window's last stretch are still
        # legitimately in flight when it closes; allow twice the median
        # latency's worth of arrivals for them.
        allowance = math.ceil(attempted / window_s * 2 * res["p50"] / 1000)
        failed = max(0, attempted - completed - allowance)
        res.update(attempted=attempted, failed=failed,
                   failed_frac=max(0.0, 1 - completed / attempted))
        if failed:
            failures.append(
                f"{label}: {failed} of {attempted} scheduled requests "
                f"never completed ({completed} did)")
    else:
        in_flight = DRIVEN_CLIENTS
        res.update(attempted=completed + in_flight,
                   failed=0 if report["sustained"] else in_flight,
                   failed_frac=0.0 if report["sustained"] else
                   in_flight / (completed + in_flight))

    if wl.get("fault"):
        res["outage_ms"] = res["max_ms"]
        if c.killed_status != -signal.SIGKILL:
            failures.append(f"{label}: primary was not killed "
                            f"(status {c.killed_status})")
        restarted = [s for r, i, s in written if r == 0 and i == 1]
        if not restarted:
            failures.append(f"{label}: restarted primary did not exit "
                            "cleanly with stats")
        if res["max_ms"] < 500:
            failures.append(f"{label}: no completed request waited out an "
                            f"outage (max latency {res['max_ms']:.1f} ms)")
        if res["max_ms"] > MAX_OUTAGE_S * 1000:
            failures.append(f"{label}: service did not resume within "
                            f"{MAX_OUTAGE_S} s")
        res["kill_ns"] = c.kill_ns

    # Outside-in counters, normalized per op over the loadgen's whole
    # run: the replicas' counters cover warmup as well as the window.
    ops = completed * (WARMUP_MS / 1000 + window_s) / window_s
    transports = [s.get("transport", s) for _, _, s in written]
    frames = sum(t["frames_out"] for t in transports)
    writevs = sum(t["writev_calls"] for t in transports)
    res["counters"] = {
        "replica.cpu_ms_per_kop": c.cpu["replica"] * 1e3 / (ops / 1e3),
        "loadgen.cpu_ms_per_kop": c.cpu["loadgen"] * 1e3 / (ops / 1e3),
        "net.frames_per_op": frames / ops,
        "net.bytes_per_op": sum(t["bytes_out"] for t in transports) / ops,
        "net.frames_per_writev": frames / writevs if writevs else 0.0,
        "net.backpressure_drops": sum(t["backpressure_drops"]
                                      for t in transports),
        "net.reconnects": sum(t["reconnects"] for t in transports),
    }
    if traced:
        res["trace"] = trace_metrics(res, written, failures, label, wl)
    return res


# -------------------------------------------------------------- tracing

def trace_metrics(res, traces, failures, label, wl):
    """Per-layer numbers from the traced replicas' summaries."""
    spans = {}
    for _, _, s in traces:
        for name, t in s["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "total_ns": 0,
                                          "self_ns": 0})
            for k in acc:
                acc[k] += t[k]
    ops = max((s["final"]["ops_executed"] for _, _, s in traces), default=0)
    if ops == 0:
        failures.append(f"{label}: traced replicas executed nothing")
        return {}

    def per_op_us(*names, field="total_ns"):
        return sum(spans[n][field] for n in names) / 1000 / ops

    units = sum(s["final"]["runner_units"] for _, _, s in traces)
    waited = sum(s["final"]["runner_queue_wait_ns"] for _, _, s in traces)
    batches = sum(s["protocol"]["batches"] for _, _, s in traces)
    batched = sum(s["protocol"]["batched_ops"] for _, _, s in traces)
    batch_wait = merge_histograms(
        s["protocol"]["batch_wait_us"]["buckets"] for _, _, s in traces)
    order = merge_histograms(
        s["protocol"]["order_us"]["buckets"] for _, _, s in traces)
    pbft = ("pbft.handle", "pbft.tick")
    split = ("splitbft.broker.handle", "splitbft.broker.tick",
             "splitbft.prep.deliver", "splitbft.conf.deliver",
             "splitbft.exec.deliver")
    m = {
        "crypto.verify_per_op": spans["crypto.verify"]["calls"] / ops,
        "crypto.verify_us_per_op": per_op_us("crypto.verify"),
        "crypto.sign_per_op": spans["crypto.sign"]["calls"] / ops,
        "crypto.sign_us_per_op": per_op_us("crypto.sign"),
        "runner.queue_wait_us": waited / units / 1000 if units else 0.0,
        "runner.drain_wait_us_per_op": per_op_us("runner.drain",
                                                 field="self_ns"),
        "apps.execute_us_per_op": per_op_us("apps.execute"),
        "protocol.self_us_per_op": per_op_us(
            *(pbft if wl["stack"] == "pbft" else split), field="self_ns"),
        "protocol.ops_per_batch": batched / batches if batches else 0.0,
        "protocol.batch_wait_ms": percentile(batch_wait, 0.5),
        "protocol.order_ms": percentile(order, 0.5),
        "protocol.view_changes": max(
            sum(1 for v in s["protocol"]["new_view_ns"] if int(v) > 0)
            for _, _, s in traces),
        "recovery.state_bytes": sum(s["final"]["state_bytes"]
                                    for _, _, s in traces),
    }
    for c in ("prep", "conf", "exec"):
        m[f"splitbft.{c}.ecalls_per_op"] = \
            spans[f"splitbft.{c}.deliver"]["calls"] / ops
    # Stack- and fault-specific numbers, printed but not in the JSON
    # line: they do not exist on every workload.
    extra = {"samples.batch_wait": sum(c for _, _, c in batch_wait),
             "samples.order": sum(c for _, _, c in order)}
    if wl["stack"] == "pbft":
        extra["pbft.handle_self_us_per_op"] = per_op_us(*pbft,
                                                        field="self_ns")
    else:
        extra["splitbft.broker_self_us_per_op"] = per_op_us(
            *split[:2], field="self_ns")
        for c in ("prep", "conf", "exec"):
            extra[f"splitbft.{c}.deliver_us_per_op"] = per_op_us(
                f"splitbft.{c}.deliver", field="self_ns")
    if "kill_ns" in res:
        vc = [int(ns) for _, _, s in traces
              for v, ns in s["protocol"]["view_change_sent_ns"].items()
              if int(v) > 0]
        nv = [int(ns) for _, _, s in traces
              for v, ns in s["protocol"]["new_view_ns"].items()
              if int(v) > 0]
        if vc:
            extra["pbft.detect_ms"] = (min(vc) - res["kill_ns"]) / 1e6
        if vc and nv:
            extra["pbft.view_change_ms"] = (min(nv) - min(vc)) / 1e6
        back = [s for r, i, s in traces if r == 0 and i == 1]
        if back and back[0]["final"]["first_execute_ns"]:
            extra["recovery.catchup_ms"] = (
                back[0]["final"]["first_execute_ns"]
                - back[0]["start_ns"]) / 1e6
        if not vc or not nv:
            failures.append(f"{label}: traced failover saw no view change")
    check_agreement(traces, failures, label)
    m["_extra"] = extra
    return m


def check_agreement(traces, failures, label):
    """Replicas' state digests must agree at every executed sequence
    number they share: the checkpoints each one signed, and the final
    application state among replicas that stopped at the same seq."""
    by_seq = {}
    for r, i, s in traces:
        for seq, digest in s["protocol"]["checkpoints"].items():
            by_seq.setdefault(int(seq), {})[f"{r}.{i}"] = digest
    shared = {seq: d for seq, d in by_seq.items() if len(d) >= 3}
    if not shared:
        failures.append(f"{label}: no checkpoint shared by 3 replicas")
    for seq, digests in sorted(by_seq.items()):
        if len(set(digests.values())) > 1:
            failures.append(f"{label}: state digests differ at seq {seq}: "
                            f"{digests}")
    finals = {}
    for r, i, s in traces:
        f = s["final"]
        finals.setdefault(f["last_executed"], set()).add(f["app_digest"])
    for seq, digests in finals.items():
        if len(digests) > 1:
            failures.append(f"{label}: final app digests differ at "
                            f"seq {seq}")


# ------------------------------------------------------------ reporting

def emit(workload, name, value, unit, samples):
    print(f"{workload}/{name} {value:.6g} {unit} ({samples})", flush=True)


def run_workload(args, bins, name, run_dir):
    wl = WORKLOADS[name]
    runs = []
    failures = []
    if args.trace:
        plan = [("untraced", False), ("traced", True)]
        window = args.seconds if wl.get("fault") else args.seconds / 2
    else:
        plan = [(f"run{k}", False) for k in range(wl["subruns"])]
        window = args.seconds / wl["subruns"]
    # Each cluster's replicas are paused while the next cluster measures
    # and while any extra set-up samples are taken; they run out their
    # timers, are reaped and have their stats read once all have run.
    measured = [measure(args, bins, wl, run_dir / name, label, window,
                        traced) for label, traced in plan]
    setups = [c.setup_s for c in measured if c.setup_s is not None]
    while (not args.trace and len(setups) < SETUP_SAMPLES and not failures
           and not any(c.failures for c in measured)):
        setup, fails = setup_only(args, bins, wl, run_dir / name,
                                  f"setup{len(setups)}")
        failures += fails
        if setup is not None:
            setups.append(setup)
    for c in measured:
        res = collect(args, bins, wl, c)
        runs.append(res)
        failures += res["failures"]

    done = [r for r in runs if "completed" in r]
    attempted = sum(r.get("attempted", 0) for r in runs)
    failed = sum(r.get("failed", 0) for r in runs)
    metrics = {}
    print(f"# workload {name}: {wl['why']}")
    print(f"# replica: {' '.join(runs[0]['replica_cmd'])}")
    if runs[0]["loadgen_cmd"]:
        print(f"# loadgen: {' '.join(runs[0]['loadgen_cmd'])}")
    for r in runs:
        if "completed" in r:
            print(f"# {r['label']}: {r['throughput']:.1f} ops/s, p50 "
                  f"{r['p50']:.3f} ms, p99 {r['p99']:.3f} ms, max "
                  f"{r['max_ms']:.1f} ms, set-up {r['setup_s']:.4f} s, "
                  f"replica timer slack {r['slack_s']:.1f} s, "
                  f"{r['completed']} of {r['attempted']} attempted")
    for f in failures:
        print(f"# CHECK FAILED: {f}")
    if len(done) < len(runs) or (args.trace and not done[1]["trace"]):
        return False, max(attempted, 1), max(failed, 1), metrics

    samples = sum(r["completed"] for r in done)
    if not args.trace:
        untraced = done
        # Medians over the run's clusters: a host slowdown that hits one
        # cluster does not move them.
        vals = {
            "throughput_ops_s": median([r["throughput"] for r in untraced]),
            "p50_ms": median([r["p50"] for r in untraced]),
            "p99_ms": median([r["p99"] for r in untraced]),
            "setup_s": median(setups),
        }
        for metric, unit in END_TO_END:
            n = (f"{len(setups)} set-ups" if metric == "setup_s" else
                 f"median of {len(untraced)} clusters" if metric ==
                 "throughput_ops_s" else f"median of {len(untraced)} "
                 f"clusters, {samples} requests")
            emit(name, metric, vals[metric], unit, n)
            metrics[metric] = {"value": finite(vals[metric]), "unit": unit}
        emit(name, "failed_frac",
             failed / attempted if attempted else 0.0, "ratio",
             f"{failed} of {attempted} attempted")
        if wl.get("fault"):
            emit(name, "outage_ms", median([r["outage_ms"] for r in done]),
                 "ms", "longest request latency: the first request "
                 "stranded by the kill waits out the whole outage")
    else:
        base, traced = done[0], done[1]
        layer = dict(base["counters"])
        layer.update({k: v for k, v in traced["trace"].items()
                      if k != "_extra"})
        # base["throughput"] > 0: a run that completed nothing is not done.
        layer["trace.overhead_pct"] = 100 * (
            base["throughput"] - traced["throughput"]) / base["throughput"]
        for metric, unit in PER_LAYER:
            emit(name, metric, layer[metric], unit,
                 f"{base['completed']} untraced / {traced['completed']} "
                 "traced requests")
            metrics[metric] = {"value": finite(layer[metric]), "unit": unit}
        for metric, value in traced["trace"]["_extra"].items():
            unit = ("count" if metric.startswith("samples.") else
                    "ms" if metric.endswith("_ms") else "us")
            emit(name, metric, value, unit, "traced run only")
        print("# note: client-request MACs are checked by "
              "crypto::hmac_verify inside the protocol handler, so their "
              "time is in protocol.self_us_per_op, not crypto.*")
        print(f"# note: untraced {base['throughput']:.1f} ops/s, traced "
              f"{traced['throughput']:.1f} ops/s")
    return not failures, max(attempted, 1), failed, metrics


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", required=True,
                   choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=12)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--fault-offset-s", type=float, default=3.0,
                   help="pbft-failover: kill the primary this long into "
                        "the measurement window")
    p.add_argument("--restart-delay-s", type=float, default=1.0,
                   help="pbft-failover: restart the killed primary after "
                        "this long")
    args = p.parse_args()
    signal.signal(signal.SIGTERM, on_signal)

    run_dir = ROOT / ".bench_runs" / "last"
    try:
        bins = build()
        if run_dir.exists():
            shutil.rmtree(run_dir)
        run_dir.mkdir(parents=True)
        print(f"# nproc {os.cpu_count()}, source {source_digest()}, "
              f"seed {args.seed}, seconds {args.seconds}, "
              f"trace {args.trace}, workers {WORKERS}")
        names = sorted(WORKLOADS) if args.workload == "all" \
            else [args.workload]
        correct, attempted, failed, metrics = True, 0, 0, {}
        for name in names:
            ok, a, f, m = run_workload(args, bins, name, run_dir)
            correct &= ok
            attempted += a
            failed += f
            if len(names) == 1:
                metrics = m
            else:
                metrics.update({f"{name}/{k}": v for k, v in m.items()})
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        reap_all()
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
