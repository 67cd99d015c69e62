#!/usr/bin/env python3
"""Build and run the PIMENTO benchmark.

Run from the root of a PIMENTO checkout:

    python3 pimbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 pimbench/run.py --selftest

The first form builds `pimbench` (the repository's `pimento` library plus the
benchmark binary, Release) under `$CARGO_TARGET_DIR/pimbench` (default
`.bench_build/pimbench`), runs one workload and prints its table; the last
line of standard output is the result object
`{"correct", "attempted", "failed", "metrics"}`. Every run also appends its
provenance and result to `<build dir>/results.jsonl`.

`--selftest` runs every workload at small scale in both modes, checks that
the metric names and units are exactly those of BENCHMARK.json, that the
correctness gate fails when fed a wrong answer, and that single-client
allocation counts repeat exactly from run to run.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"pimbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "pimbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    for needed in ("CMakeLists.txt", os.path.join("src", "core", "engine.h")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"no PIMENTO sources here ({needed} is missing)")
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", out, "--target", "pimbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    return os.path.join(out, "pimbench")


def source_hash():
    """SHA-256 over the library sources, the root build file, the shared
    Fig. 5 mix and the benchmark: names the code measured even where there
    is no git."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt"),
             os.path.join(ROOT, "bench", "xmark_workload.h")]
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in paths:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_binary(binary, args):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    work = os.path.join(build_dir(), "work")
    cmd = [binary] + args + ["--work-dir", work,
                             "--source-hash", source_hash(),
                             "--git-sha", git_sha()]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout.splitlines()


def record(lines):
    """Appends the run's provenance and result to results.jsonl."""
    provenance = next((l[len("# provenance "):] for l in lines
                       if l.startswith("# provenance ")), "{}")
    try:
        entry = {"provenance": json.loads(provenance),
                 "result": json.loads(lines[-1])}
    except (ValueError, IndexError):
        return
    with open(os.path.join(build_dir(), "results.jsonl"), "a") as f:
        f.write(json.dumps(entry) + "\n")


def run(args):
    binary = build()
    code, lines = run_binary(binary, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace)])
    for line in lines:
        print(line)
    sys.stdout.flush()
    if lines:
        record(lines)
    return code


def selftest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = build()
    problems = []

    def check(ok, what):
        print(("PASS " if ok else "FAIL ") + what)
        if not ok:
            problems.append(what)

    def small_run(workload, trace, extra=()):
        code, lines = run_binary(binary, [
            "--workload", workload, "--seed", "3", "--seconds", "1",
            "--trace", str(trace), "--small", *extra])
        try:
            return code, json.loads(lines[-1])
        except (ValueError, IndexError):
            return code, None

    for name in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result = small_run(name, trace)
            what = f"{name} --trace {trace}"
            check(code == 0 and result is not None and result["correct"],
                  f"{what}: exits 0 with correct answers")
            if result is None:
                continue
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, f"{what}: emits exactly the {key} metrics")
            values = [v["value"] for v in result["metrics"].values()]
            check(all(isinstance(v, (int, float)) and math.isfinite(v)
                      for v in values), f"{what}: every value is finite")
            if trace == 0:
                check(all(v != 0 for v in values),
                      f"{what}: no end-to-end metric is 0")
        code, result = small_run(name, 0, ["--corrupt-one-answer"])
        check(code != 0 and result is not None and not result["correct"]
              and result["failed"] >= 1,
              f"{name}: the gate rejects a deliberately wrong answer")

    runs = [small_run("fig5_warm", 1)[1] for _ in range(2)]
    if all(runs):
        allocs = [{k: v["value"] for k, v in r["metrics"].items()
                   if k.endswith(".allocs")} for r in runs]
        check(allocs[0] == allocs[1],
              "fig5_warm: allocation counts repeat exactly across runs")
        check(runs[0]["metrics"]["alloc.repeat_exact"]["value"] == 1.0,
              "fig5_warm: allocation counts repeat exactly within a run")
    print("selftest " + ("passed" if not problems else
                         f"FAILED ({len(problems)} checks)"))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if not args.workload:
        fail("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
