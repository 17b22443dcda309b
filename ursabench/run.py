#!/usr/bin/env python3
"""Repository benchmark: builds the benchmark program from source, runs one workload and
prints one JSON result line.

    python3 ursabench/run.py --workload vm_fleet --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. The program (ursabench/src) is built with
CMake into $CARGO_TARGET_DIR/ursabench, or .bench_build/ursabench when that
variable is unset. See ursabench/README.md for what each workload and metric
means.

The program runs in fresh processes, one after another, until --seconds have
passed. With --trace 0, round r simulates sub-seed r mod SUB_SEEDS of --seed,
and at least SUB_SEEDS rounds run:
  * each simulated metric is the median over the SUB_SEEDS sub-seeds, so one
    unlucky input does not decide a run;
  * each wall-clock metric is the median over all rounds;
  * a round that repeats a sub-seed must simulate exactly what the first one
    did (a determinism check; any difference fails the run).

With --trace 1 every round uses sub-seed 0 and the rounds alternate between
untraced and traced processes: the per-layer metrics come from the first
traced round, and trace.overhead_frac compares the measured-phase wall time
of the two kinds. The traced round's spans are written to
<build dir>/spans/<workload>-seed<seed>.jsonl.

The last line of standard output is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ("vm_fleet", "scale_out", "bg_storm")
SUB_SEEDS = 5
# A run must end within 180 s; no round starts once this much has passed.
ROUND_DEADLINE_S = 120.0
ROUND_TIMEOUT_S = 150.0

RECON_P50_BOUND = 0.01

# End-to-end metrics: (name, unit, section of the program's output).
END_TO_END = (
    ("io_per_wall_s", "1/s", "wall"),
    ("setup_s", "s", "wall"),
    ("peak_rss_mb", "MiB", "wall"),
    ("read_p50_us", "us", "sim"),
    ("read_p999_us", "us", "sim"),
    ("write_p50_us", "us", "sim"),
    ("write_p999_us", "us", "sim"),
    ("sim_kiops", "kIOPS", "sim"),
    ("bytes_stored_per_user_byte", "ratio", "sim"),
    ("bg_converge_s", "s", "sim"),
)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(bench_dir, build_dir):
    """Configures and builds the program; returns the executable path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", bench_dir, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "ursabench", "-j", jobs],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("build failed: " + " ".join(cmd))
            sys.exit(2)
    return os.path.join(build_dir, "ursabench")


def sub_seed(seed, k):
    return seed * 1000 + k


def run_round(exe, workload, seed, traced, spans_out=None):
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--trace", "1" if traced else "0"]
    if spans_out:
        cmd += ["--spans-out", spans_out]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("ursabench timed out")
        sys.exit(4)
    if proc.stderr:
        log(proc.stderr.rstrip())
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    if not lines:
        log("ursabench printed no result (exit code %d)" % proc.returncode)
        sys.exit(4)
    result = json.loads(lines[-1])
    if proc.returncode != 0:
        # A failed op or read-back mismatch: report it and stop.
        result["correct"] = False
    return result


def deterministic_part(result):
    return {"sim": result["sim"], "counts": result["counts"], "attempted": result["attempted"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(build_root, "ursabench"))
    exe = build(bench_dir, build_dir)

    start = time.monotonic()
    untraced, traced = [], []  # (sub-seed index, result)
    while True:
        if args.trace == 0:
            k = len(untraced) % SUB_SEEDS
            untraced.append((k, run_round(exe, args.workload, sub_seed(args.seed, k), False)))
            last = untraced[-1][1]
            ready = len(untraced) >= SUB_SEEDS
        elif len(traced) < len(untraced):
            spans_out = None
            if not traced:
                spans_dir = os.path.join(build_dir, "spans")
                os.makedirs(spans_dir, exist_ok=True)
                spans_out = os.path.join(spans_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))
            traced.append((0, run_round(exe, args.workload, sub_seed(args.seed, 0), True,
                                        spans_out)))
            last = traced[-1][1]
            ready = True
        else:
            untraced.append((0, run_round(exe, args.workload, sub_seed(args.seed, 0), False)))
            last = untraced[-1][1]
            ready = False
        if not last["correct"]:
            break
        elapsed = time.monotonic() - start
        rounds = len(untraced) + len(traced)
        if (ready and elapsed >= args.seconds) or elapsed + elapsed / rounds > ROUND_DEADLINE_S:
            break

    rounds = [r for _, r in untraced + traced]
    correct = all(r["correct"] for r in rounds) and (args.trace == 0 or bool(traced))
    first = {}
    for k, r in untraced + traced:
        if first.setdefault(k, deterministic_part(r)) != deterministic_part(r):
            log("nondeterminism: two rounds of sub-seed %d simulated different results" % k)
            correct = False
    attempted = sum(int(r["attempted"]) for r in rounds)
    failed = sum(int(r["failed"]) for r in rounds)

    metrics = {}
    if args.trace == 0:
        per_sub_seed = [r for k, r in untraced[:SUB_SEEDS]]
        for name, unit, section in END_TO_END:
            source = rounds if section == "wall" else per_sub_seed
            metrics[name] = {"value": statistics.median(r[section][name] for r in source),
                             "unit": unit}
    elif traced:
        layers = traced[0][1]
        for name, value in layers["layers"].items():
            metrics[name] = {"value": value, "unit": layers["units"][name]}
        metrics["rss.kb_per_io"] = {
            "value": statistics.median(r["wall"]["rss_kb_per_io"] for _, r in untraced),
            "unit": "KiB/io"}
        metrics["failed_io_frac"] = {
            "value": failed / attempted if attempted else 0.0, "unit": "fraction"}
        t = statistics.median(r["wall"]["measured_s"] for _, r in traced)
        u = statistics.median(r["wall"]["measured_s"] for _, r in untraced)
        metrics["trace.overhead_frac"] = {"value": t / u - 1.0, "unit": "fraction"}
        # The one gated reconciliation: at the median, a read's per-request
        # stage sum matches its end-to-end latency within 1%, the bound
        # tests/obs_test.cc sets. A read has one critical path, so a gap
        # means a stage went unrecorded or was recorded twice. Writes
        # max-merge their parallel replica legs per stage (an approximation
        # by design, see src/obs/trace.h); their gap, and every p99 gap, is
        # reported only.
        err = layers["layers"]["stage.read.recon_err_p50"]
        if layers["layers"]["stage.read.spans"] > 0 and err > RECON_P50_BOUND:
            log("stage.read.recon_err_p50 = %.4f exceeds %g" % (err, RECON_P50_BOUND))
            correct = False

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
