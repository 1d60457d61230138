#!/usr/bin/env python3
"""Build and run the growt benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root.  The benchmark is built with cargo into
$CARGO_TARGET_DIR (default `.bench_build`), run once for the given
workload, and its record is printed with provenance.  The last line of
stdout is one JSON object with the keys `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
metrics with `--trace 1`.  Any wrong result, tripped guard, build failure
or missing metric exits non-zero without printing that line.
"""

import argparse
import hashlib
import json
import os
import platform
import socket
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("insert_grow", "mixed_presized", "wordcount_string")
# Seconds a run may take once built; the binary stops adding rounds well
# before this.
RUN_LIMIT_S = 170
BUILD_LIMIT_S = 850
SELF_TEST_SEEDS = (1, 2)


def fail(msg, code=1):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def cargo_env():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    return env


def target_dir(env):
    return os.path.join(ROOT, env["CARGO_TARGET_DIR"])


def build(env):
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    for path in (manifest, os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        if not os.path.isfile(path):
            fail(f"{path} is missing: run from a full checkout of the repository", 2)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, check=True, timeout=BUILD_LIMIT_S)
    except (OSError, subprocess.SubprocessError) as e:
        fail(f"build failed: {e}", 2)
    return os.path.join(target_dir(env), "release", "growt-perfbench")


def metric_names():
    """End-to-end and per-layer metric names from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return (
        {m["name"] for m in spec["end_to_end"]},
        {m["name"] for m in spec["per_layer"]},
    )


def run_binary(exe, args, env, limit):
    try:
        proc = subprocess.run(
            [exe] + args, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=sys.stderr,
            text=True, timeout=limit,
        )
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {limit:.0f} s")
    if proc.returncode != 0:
        fail(f"benchmark failed with exit code {proc.returncode}", proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("benchmark printed no record")
    return json.loads(lines[-1])


def first_line(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
        return out.stdout.strip().splitlines()[0] if out.returncode == 0 and out.stdout else None
    except (OSError, subprocess.SubprocessError):
        return None


def source_digest():
    """SHA-256 over the sources that make up the benchmarked program."""
    h = hashlib.sha256()
    roots = ["Cargo.toml", "Cargo.lock", ".cargo", "crates", "src", "perfbench"]
    for top in roots:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else [
            os.path.join(d, f) for d, dirs, fs in os.walk(path)
            for f in fs if "target" not in os.path.relpath(d, ROOT).split(os.sep)
        ]
        for f in sorted(files):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(record, seed):
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "commit": first_line(["git", "rev-parse", "HEAD"]) if os.path.isdir(os.path.join(ROOT, ".git")) else None,
        "source_sha256": source_digest(),
        "host": socket.gethostname(),
        "nproc": nproc,
        "cpu_model": cpu_model(),
        "rustc": first_line(["rustc", "--version"]),
        "growt_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("GROWT_")},
        "clock": "tsc" if record.get("clock_tsc") else "instant",
        "seed": seed,
        "threads": record["threads"],
        "oversubscribed": record["threads"] > (nproc or 1),
        "unix_time": time.time(),
    }


def check_metrics(record, trace):
    end_to_end, per_layer = metric_names()
    want = per_layer if trace else end_to_end
    got = set(record["metrics"])
    if got != want:
        fail(f"metric set mismatch: missing {sorted(want - got)}, unexpected {sorted(got - want)}")


def bench(args):
    env = cargo_env()
    exe = build(env)
    start = time.monotonic()
    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            target_dir(env), "perfbench-trace", f"{args.workload}-seed{args.seed}.tsv")]
    record = run_binary(exe, cmd, env, RUN_LIMIT_S)
    check_metrics(record, args.trace)
    if record["failed"] != 0 or record["attempted"] < 1:
        fail("benchmark reported failed results")
    record["provenance"] = provenance(record, args.seed)
    record["run_s"] = time.monotonic() - start
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": True,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))


def self_test():
    """Unit and gate tests at tiny sizes, then every workload on two seeds
    with both trace settings, checking the emitted metric names."""
    env = cargo_env()
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    tests = subprocess.run(
        ["cargo", "test", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if tests.returncode != 0:
        fail("cargo test failed")
    _, per_layer = metric_names()
    with open(os.path.join(HERE, "layer_map.json")) as f:
        mapped = {m for layer in json.load(f)["per_layer_to_end_to_end"] for m in layer["metrics"]}
    if mapped != per_layer:
        fail(f"layer_map.json and BENCHMARK.json disagree on {sorted(mapped ^ per_layer)}")
    exe = build(env)
    for seed in SELF_TEST_SEEDS:
        for workload in WORKLOADS:
            for trace in (0, 1):
                record = run_binary(exe, [
                    "--workload", workload, "--seed", str(seed), "--seconds", "0.2",
                    "--trace", str(trace), "--tiny"], env, RUN_LIMIT_S)
                check_metrics(record, trace)
                print(f"self-test: {workload} seed {seed} trace {trace}: "
                      f"{len(record['metrics'])} metrics, {record['attempted']} checked results",
                      file=sys.stderr)
    print("self-test passed")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None or args.seed is None or args.seed < 0:
        p.error("--workload and a non-negative --seed are required")
    if not 0 < args.seconds <= 60:
        p.error("--seconds must be in (0, 60]")
    bench(args)


if __name__ == "__main__":
    main()
