#!/usr/bin/env python3
"""Request-path benchmark of Chronus.

Builds the `reqbench` program (this directory's CMake package, which compiles
the library sources under ../src) into .bench_build/ at the checkout root,
then runs one workload:

    python3 reqbench/run.py --workload plan-slack --seed 1 --seconds 25 --trace 0

The last line of standard output is the JSON result. `--self-test` instead
runs every workload at a tiny size, checks that each metric declared in
BENCHMARK.json is printed with its unit, and checks that injected faults
and a refused configuration are reported as such.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "reqbench")
BINARY = os.path.join(BUILD, "reqbench")
WORKLOADS = ("plan-slack", "plan-tight", "serve-rounds")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"reqbench/run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the program; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no Chronus sources under {os.path.join(ROOT, 'src')}; "
            "run from a full checkout")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    done = subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                          stdout=sys.stderr)
    return done.returncode == 0


def run(args, env=None):
    """Runs the program; returns (exit code, stdout)."""
    try:
        done = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                              text=True, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"timed out: {' '.join(args)}")
        return 124, ""
    return done.returncode, done.stdout


def result_of(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return res if isinstance(res, dict) else None


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []

    def expect(cond, what):
        print(f"  {'ok  ' if cond else 'FAIL'} {what}")
        if not cond:
            problems.append(what)

    for w in WORKLOADS:
        for trace in (0, 1):
            code, out = run(["--workload", w, "--seed", "1", "--seconds", "1",
                             "--trace", str(trace), "--tiny", "1"])
            res = result_of(out)
            tag = f"{w} --trace {trace}"
            expect(code == 0 and res is not None, f"{tag}: exits 0 with a result")
            if res is None:
                continue
            expect(sorted(res) == ["attempted", "correct", "failed", "metrics"],
                   f"{tag}: result has exactly the four keys")
            expect(res.get("correct") is True and res.get("failed") == 0
                   and res.get("attempted", 0) >= 1,
                   f"{tag}: correct, no failed operation")
            got = {k: v.get("unit") for k, v in res.get("metrics", {}).items()}
            expect(got == declared[trace],
                   f"{tag}: prints every declared metric with its unit")

    faults = [("plan-slack", "early-switch",
               "a plan with one switch moved a step earlier"),
              ("serve-rounds", "digest", "a tampered round digest")]
    for w, inject, what in faults:
        code, out = run(["--workload", w, "--seed", "1", "--seconds", "1",
                         "--trace", "0", "--tiny", "1", "--inject", inject])
        res = result_of(out)
        expect(code != 0 and res is not None and res["correct"] is False
               and res["failed"] >= 1, f"{w}: {what} counts as a failure")

    env = dict(os.environ, CHRONUS_ARENA="off")
    code, out = run(["--workload", "plan-slack", "--seed", "1", "--seconds",
                     "1", "--trace", "0", "--tiny", "1"], env=env)
    expect(code == 3 and result_of(out) is None,
           "CHRONUS_ARENA=off is refused without a result")

    print("self-test " + ("passed" if not problems else
                          f"FAILED ({len(problems)} checks)"))
    return 0 if not problems else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    if not a.self_test and a.workload is None:
        p.error("--workload is required")
    if not build():
        log("build failed")
        return 2
    if a.self_test:
        return self_test()
    code, out = run(["--workload", a.workload, "--seed", str(a.seed),
                     "--seconds", str(a.seconds), "--trace", str(a.trace)])
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
