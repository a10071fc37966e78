#!/usr/bin/env python3
"""Build and run the GE benchmark (``perfbench``).

Usage, from the repository root:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
        One run of one workload. With --trace 0 the result carries the
        end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer
        metrics. The last line of standard output is one JSON object with
        the keys correct, attempted, failed and metrics.

    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]
        Every workload in turn; prints each metric by name and unit per
        workload, then rewrites BENCHMARK.json from the catalogue in
        perfbench/src/spec.rs.

    python3 perfbench/run.py --self-test
        The benchmark's own tests: the Rust helpers (percentiles, metric
        names, catalogue, counting sink) and this script's checks.

The benchmark is the ``ge-perfbench`` package in this directory, built in
release mode into $CARGO_TARGET_DIR (default ``.bench_build``). Exit code 0
means every correctness check passed.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
MANIFEST = os.path.join(HERE, "Cargo.toml")
BINARY = "ge-perfbench"
# One run must end well inside the 180 s a run is allowed.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SPEC_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


class BenchError(Exception):
    pass


def check_spec(doc):
    """Checks a parsed BENCHMARK.json against the benchmark contract."""
    if not isinstance(doc, dict) or set(doc) != SPEC_KEYS:
        raise BenchError(f"BENCHMARK.json keys must be exactly {sorted(SPEC_KEYS)}")
    cmd = doc["command"]
    if not (isinstance(cmd, list) and 1 <= len(cmd) <= 32):
        raise BenchError("command must be a list of 1..32 strings")
    for arg in cmd:
        if not isinstance(arg, str) or len(arg) > 200 or arg.startswith("/") or ".." in arg:
            raise BenchError(f"bad command argument {arg!r}")
    paths = doc["paths"]
    if not (isinstance(paths, list) and 1 <= len(paths) <= 16):
        raise BenchError("paths must be a list of 1..16 directories")
    for p in paths:
        if not (isinstance(p, str) and re.fullmatch(r"[A-Za-z0-9_./-]{1,200}", p)) or ".." in p:
            raise BenchError(f"bad path {p!r}")
    rs = doc["run_seconds"]
    if not (isinstance(rs, int) and not isinstance(rs, bool) and 1 <= rs <= 60):
        raise BenchError("run_seconds must be a whole number in 1..60")
    names = set()

    def fresh(name):
        if not (isinstance(name, str) and NAME_RE.fullmatch(name)) or name in names:
            raise BenchError(f"bad or repeated name {name!r}")
        names.add(name)

    workloads = doc["workloads"]
    if not (isinstance(workloads, list) and 2 <= len(workloads) <= 8):
        raise BenchError("need 2..8 workloads")
    for w in workloads:
        if not isinstance(w, dict) or set(w) != {"name", "why"}:
            raise BenchError(f"workload entries need exactly name and why: {w!r}")
        fresh(w["name"])
        why = w["why"]
        if not (isinstance(why, str) and 0 < len(why) <= 200 and "\n" not in why):
            raise BenchError(f"workload {w['name']}: why must be one line of 1..200 chars")
    for key, lo, hi, keys in (
        ("end_to_end", 1, 16, {"name", "unit", "better", "bound"}),
        ("per_layer", 1, 128, {"name", "unit", "better"}),
    ):
        metrics = doc[key]
        if not (isinstance(metrics, list) and lo <= len(metrics) <= hi):
            raise BenchError(f"{key} needs {lo}..{hi} metrics")
        for m in metrics:
            if not isinstance(m, dict) or set(m) != keys:
                raise BenchError(f"{key} entries need exactly {sorted(keys)}: {m!r}")
            fresh(m["name"])
            if not (isinstance(m["unit"], str) and UNIT_RE.fullmatch(m["unit"])):
                raise BenchError(f"metric {m['name']}: bad unit {m['unit']!r}")
            if m["better"] not in ("higher", "lower"):
                raise BenchError(f"metric {m['name']}: better must be higher or lower")
            if "bound" in m and not (
                isinstance(m["bound"], (int, float)) and 0 < m["bound"] <= 0.25
            ):
                raise BenchError(f"metric {m['name']}: bound must be in (0, 0.25]")
    e2e = {m["name"]: m for m in doc["end_to_end"]}
    setup = e2e.get("setup_s")
    if not setup or setup["unit"] != "s" or setup["better"] != "lower":
        raise BenchError("end_to_end needs setup_s in s, lower is better")
    if setup["bound"] < max(m["bound"] for m in doc["end_to_end"]):
        raise BenchError("setup_s must carry the largest bound")
    return doc


def check_result(line, spec, trace):
    """Parses and checks the benchmark's last output line."""
    try:
        res = json.loads(line)
    except ValueError as e:
        raise BenchError(f"last line is not JSON: {e}") from None
    if not isinstance(res, dict) or set(res) != RESULT_KEYS:
        raise BenchError(f"result keys must be exactly {sorted(RESULT_KEYS)}")
    if not isinstance(res["correct"], bool):
        raise BenchError("correct must be true or false")
    for k in ("attempted", "failed"):
        if not isinstance(res[k], int) or isinstance(res[k], bool) or res[k] < 0:
            raise BenchError(f"{k} must be a whole number")
    if res["attempted"] < 1:
        raise BenchError("attempted must be at least 1")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = res["metrics"]
    if not isinstance(got, dict) or set(got) != set(want):
        missing = sorted(set(want) - set(got or {}))
        extra = sorted(set(got or {}) - set(want))
        raise BenchError(f"metric set differs from BENCHMARK.json: missing {missing}, extra {extra}")
    for name, m in got.items():
        if not isinstance(m, dict) or set(m) != {"value", "unit"} or m["unit"] != want[name]:
            raise BenchError(f"metric {name}: need value and unit {want[name]!r}")
        v = m["value"]
        if not isinstance(v, (int, float)) or isinstance(v, bool) or v != v or abs(v) == float("inf"):
            raise BenchError(f"metric {name}: value must be a finite number")
    return res


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")


def build():
    """Builds the benchmark; returns the binary's path."""
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        raise BenchError("the repository's crates/ directory is missing; nothing to benchmark")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"build failed: {e}") from None
    if done.returncode != 0:
        raise BenchError(f"build failed with exit code {done.returncode}")
    path = os.path.join(target_dir(), "release", BINARY)
    if not os.path.isabs(path):
        path = os.path.join(ROOT, path)
    return path


def run_binary(binary, args):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    try:
        done = subprocess.run(
            [binary] + args, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"run exceeded {RUN_TIMEOUT_S} s and was stopped") from None
    return done.returncode, done.stdout.splitlines()


def load_spec():
    try:
        with open(SPEC_PATH, encoding="utf-8") as f:
            return check_spec(json.load(f))
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read BENCHMARK.json: {e}") from None


def one_run(binary, spec, workload, seed, seconds, trace):
    """One run; prints its output and returns (exit code, result or None)."""
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    code, lines = run_binary(binary, args + ["--trace", "1" if trace else "0"])
    for line in lines[:-1]:
        print(line)
    if not lines:
        raise BenchError(f"{workload}: no output (exit code {code})")
    res = check_result(lines[-1], spec, trace)
    return code, res, lines[-1]


def write_spec(binary):
    code, lines = run_binary(binary, ["--spec"])
    if code != 0:
        raise BenchError("the binary rejected its own catalogue")
    text = "\n".join(lines) + "\n"
    check_spec(json.loads(text))
    with open(SPEC_PATH, "w", encoding="utf-8") as f:
        f.write(text)
    print(f"wrote {SPEC_PATH}")


def self_test():
    import unittest

    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "test", "--release", "--offline", "--manifest-path", MANIFEST]
    rust = subprocess.run(cmd, cwd=ROOT, env=env).returncode
    suite = unittest.defaultTestLoader.discover(HERE, pattern="test_*.py")
    py = unittest.TextTestRunner(verbosity=1).run(suite)
    return 0 if rust == 0 and py.wasSuccessful() else 1


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args(argv)
    if a.self_test:
        return self_test()
    try:
        binary = build()
        spec = load_spec()
        seconds = a.seconds if a.seconds is not None else spec["run_seconds"]
        if a.all:
            worst = 0
            table = []
            for w in spec["workloads"]:
                code, res, _ = one_run(binary, spec, w["name"], a.seed, seconds, a.trace == 1)
                worst = worst or code
                frac = res["failed"] / res["attempted"]
                table.append((w["name"], "failed_frac", frac, "ratio"))
                for name, m in res["metrics"].items():
                    table.append((w["name"], name, m["value"], m["unit"]))
            print()
            for row in table:
                print(f"{row[0]:<12} {row[1]:<30} {row[2]:>18.6f} {row[3]}")
            write_spec(binary)
            return worst
        if a.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError(f"unknown workload {a.workload!r}")
        code, _, last = one_run(binary, spec, a.workload, a.seed, seconds, a.trace == 1)
        print(last)
        return code
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
