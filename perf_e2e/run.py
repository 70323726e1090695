#!/usr/bin/env python3
"""End-to-end benchmark of the Charon simulator.

Builds perf_e2e (the simulator's src/ libraries plus the program in this
directory) under .bench_build/, runs one workload closed-loop for
--seconds, checks its outputs and prints one JSON result line:

    python3 perf_e2e/run.py --workload cold-fig12 --seed 1 --seconds 25 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer ones.  Run it from the repository root.  See README.md
in this directory for the workloads, the metrics and how to compare
two commits.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("cold-fig12", "warm-sweep", "fleet")
WARM = ("warm-sweep", "fleet")
BUILD_TYPE = "RelWithDebInfo"
# Fixed thread count, never above the host's cores.
JOBS = min(4, os.cpu_count() or 1)
# Extra set-up-only launches per run, so setup_s is a median even
# when a single journey iteration fills the measuring window.
SETUP_PROBES = 10
# Every child must finish well inside the 180 s a run may take.
DEADLINE_S = 170
# Fewest untraced journeys in a run, so wall_s is a median even when
# a short --seconds holds about one journey.
MIN_JOURNEYS = {"cold-fig12": 3}
# Result digests at seed 1: cold-fig12's is perf_replay's functional
# digest of the same cell set.  A change to the simulated results must
# update them on purpose.
PINNED_DIGESTS = {
    ("cold-fig12", 1): "e51969bce249ec28",
    ("warm-sweep", 1): "856507f399b7c6fb",
    ("fleet", 1): "77cb308d684461f6",
}


class BenchError(Exception):
    pass


def log(msg):
    print(f"perf_e2e: {msg}", file=sys.stderr, flush=True)


def call(cmd, timeout):
    """Run cmd to completion (killed and reaped on timeout)."""
    try:
        return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(timeout, 1))
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"timed out: {' '.join(map(str, cmd))}") from e


def build():
    bdir = BUILD / "perf_e2e"
    steps = [["cmake", "-S", str(HERE), "-B", str(bdir),
              f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
             ["cmake", "--build", str(bdir), "-j", str(JOBS),
              "--target", "perf_e2e"]]
    for cmd in steps:
        p = call(cmd, 900)
        if p.returncode != 0:
            sys.stderr.write(p.stdout + p.stderr)
            raise BenchError("build failed")
    return bdir / "perf_e2e"


def source_digest():
    """sha256 over the simulator and benchmark sources: it names the
    code even in a source export that is not a git checkout."""
    h = hashlib.sha256()
    for top in ("src", HERE.name):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_rev():
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        if top.returncode != 0 or Path(top.stdout.strip()) != ROOT:
            return "unknown"
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return rev.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


class Runner:
    def __init__(self, exe, workload, seed, rundir, deadline, source):
        self.exe = exe
        self.workload = workload
        self.seed = seed
        self.rundir = rundir
        self.deadline = deadline
        # Kept across runs of the same sources: the traces are a pure
        # function of the code and the seed, and filling costs more
        # than a whole fleet journey.  Changed code fills a new one.
        self.warm_cache = (BUILD / "warm-cache" / source
                           / f"{workload}-seed{seed}")

    def remaining(self):
        return self.deadline - time.monotonic()

    def base(self, cmd):
        return [str(self.exe), cmd, "--workload", self.workload,
                "--seed", str(self.seed), "--jobs", str(JOBS)]

    def fill(self):
        """Record the warm traces, or load them from an earlier run."""
        self.warm_cache.mkdir(parents=True, exist_ok=True)
        p = call(self.base("fill") + ["--cache", str(self.warm_cache)],
                 self.remaining())
        if p.returncode != 0:
            sys.stderr.write(p.stderr)
            raise BenchError("filling the warm cache failed")

    def journey(self, tag, setup_only=False, trace_file=None):
        """One journey process; returns its result with setup_s."""
        if self.workload in WARM:
            cache = self.warm_cache
        else:
            cache = self.rundir / f"cache-{tag}"  # empty: a cold run
        work = self.rundir / f"work-{tag}"
        work.mkdir(parents=True)
        cmd = self.base("run") + ["--cache", str(cache),
                                  "--work", str(work)]
        if setup_only:
            cmd.append("--setup-only")
        if trace_file:
            cmd += ["--trace", str(trace_file)]
        spawned = time.monotonic()
        p = call(cmd, self.remaining())
        if p.returncode != 0:
            sys.stderr.write(p.stderr)
            raise BenchError(f"journey process exited {p.returncode}")
        result = json.loads(p.stdout.strip().splitlines()[-1])
        result["setup_s"] = result["ready"] - spawned
        result["process_s"] = time.monotonic() - spawned
        if cache != self.warm_cache:
            shutil.rmtree(cache, ignore_errors=True)
        shutil.rmtree(work, ignore_errors=True)
        return result


def median(values):
    return statistics.median(values) if values else 0.0


def earlier_digests(results_dir, stem, source):
    """Digests of this checkout's earlier runs (traced or not) of the
    same workload and seed with the same sources."""
    found = {}
    for trace in (0, 1):
        path = results_dir / f"{stem}-trace{trace}.json"
        try:
            manifest = json.loads(path.read_text())["manifest"]
        except (OSError, ValueError, KeyError):
            continue
        if manifest.get("source_sha256") == source and manifest["digest"]:
            found[path.name] = manifest["digest"]
    return found


def main():
    try:
        return run()
    except BenchError as e:
        log(str(e))
        return 1


def run():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    exe = build()
    source = source_digest()
    start = time.monotonic()
    runs = BUILD / "runs"
    rundir = runs / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    results_dir = BUILD / "perf_e2e-results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    trace_file = results_dir / f"{stem}.trace.json"
    try:
        r = Runner(exe, args.workload, args.seed, rundir,
                   start + DEADLINE_S, source)
        if args.workload in WARM:
            r.fill()
        setups = [r.journey(f"probe{i}", setup_only=True)["setup_s"]
                  for i in range(SETUP_PROBES)]
        # Closed loop: the next journey starts when the previous one
        # ends.  Traced runs alternate traced and untraced journeys,
        # traced first, so the difference of their walls is the
        # tracing overhead.  No journey starts that the deadline could
        # not hold.
        need = 2 if args.trace else MIN_JOURNEYS.get(args.workload, 1)
        its = []
        t0 = time.monotonic()
        while len(its) < need or time.monotonic() - t0 < args.seconds:
            if its and r.remaining() < 1.25 * its[-1]["process_s"] + 5:
                break
            traced = bool(args.trace) and len(its) % 2 == 0
            it = r.journey(len(its), trace_file=trace_file if traced
                           else None)
            it["traced"] = traced
            its.append(it)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    attempted = sum(it["attempted"] for it in its)
    failures = [f for it in its for f in it["failures"]]
    digests = sorted({it["digest"] for it in its})
    attempted += 1
    if len(digests) != 1:
        failures.append(f"digest differs across runs: {digests}")
    pinned = PINNED_DIGESTS.get((args.workload, args.seed))
    if pinned:
        attempted += 1
        if digests != [pinned]:
            failures.append(f"digest {digests} != pinned {pinned}")
    for name, earlier in earlier_digests(results_dir, stem, source).items():
        attempted += 1
        if earlier != digests:
            failures.append(f"digest {digests} != {earlier} of {name}")

    traced = [it for it in its if it["traced"]]
    untraced = [it["wall_s"] for it in its if not it["traced"]]
    metrics = {}
    if args.trace:
        for name in traced[0]["layers"]:
            metrics[name] = median([it["layers"][name] for it in traced])
        # 0 when the deadline left no room for an untraced journey;
        # the manifest then says the overhead is unmeasured.
        base = median(untraced)
        overhead = median([it["wall_s"] for it in traced]) - base
        metrics["trace.overhead_s"] = overhead if base else 0.0
        metrics["trace.overhead_pct"] = 100 * overhead / base if base else 0.0
    else:
        metrics["setup_s"] = median(setups + [it["setup_s"] for it in its])
        for name in ("wall_s", "cpu_s", "peak_rss_mib"):
            metrics[name] = median([it[name] for it in its])

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics missing from the run: {missing}")

    manifest = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "git_rev": git_rev(),
        "source_sha256": source,
        "build_type": BUILD_TYPE,
        "nproc": os.cpu_count(),
        "jobs": JOBS,
        "cache": ("warm: private directory, filled by the first run of "
                  "these sources and seed" if args.workload in WARM
                  else "cold: fresh private directory per journey"),
        "iterations": len(its),
        "digest": digests,
        "results": its[0]["results"],
        "failures": failures,
        "setup_s": setups + [it["setup_s"] for it in its],
        "wall_s": [it["wall_s"] for it in its],
        "traced": [it["traced"] for it in its],
        "chrome_trace": str(trace_file.relative_to(ROOT))
        if args.trace else None,
        "trace_overhead": ((f"{len(untraced)} untraced journeys of this run"
                            if untraced else "unmeasured: no untraced "
                            "journey fit the deadline")
                           if args.trace else None),
    }
    out = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }
    (results_dir / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps({"manifest": manifest, "result": out}, indent=1) + "\n")
    for f in failures:
        log(f"FAILED: {f}")
    print(json.dumps({"manifest": manifest}))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
