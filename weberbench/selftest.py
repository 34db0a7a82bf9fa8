#!/usr/bin/env python3
"""Self-test of the weber benchmark.

Run from the root of a checkout:

    python3 weberbench/selftest.py

It runs every workload of BENCHMARK.json at the tiny scale with a second
seed, untraced and traced, and checks that each run exits 0, reports a
correct result with no failed operation, and prints exactly the metric
names and units BENCHMARK.json declares for that kind of run. It then
checks that the benchmark refuses to run, without printing a result, in a
directory that holds only BENCHMARK.json and the benchmark's own files.
"""

import json
import math
import os
import shutil
import subprocess
import sys

SEED = "7"
ROOT = os.getcwd()
WORK = os.path.join(ROOT, ".bench_work", "selftest")


def run(args, cwd, env=None):
    return subprocess.run([sys.executable, "weberbench/run.py"] + args,
                          cwd=cwd, env=env, capture_output=True, text=True)


def check_run(spec, workload, trace):
    proc = run(["--workload", workload, "--seed", SEED, "--seconds", "1",
                "--trace", trace, "--scale", "tiny"], ROOT)
    label = f"{workload} --trace {trace}"
    errors = []
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True:
        errors.append(f"{label}: correct is {result.get('correct')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"{label}: attempted {result.get('attempted')}")
    if result.get("failed") != 0:
        errors.append(f"{label}: failed {result.get('failed')}")
    declared = spec["per_layer" if trace == "1" else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if set(got) != set(want):
        errors.append(f"{label}: missing {sorted(set(want) - set(got))} "
                      f"extra {sorted(set(got) - set(want))}")
    for name, unit in got.items():
        if name in want and unit != want[name]:
            errors.append(f"{label}: {name} unit {unit}, declared {want[name]}")
        value = result["metrics"][name].get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{label}: {name} value {value}")
    return errors


def check_bare_directory(spec):
    bare = os.path.join(WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    proc = run(["--workload", spec["workloads"][0]["name"], "--seed", SEED,
                "--seconds", "1", "--trace", "0"], bare, env)
    shutil.rmtree(WORK, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 or (lines and lines[-1].startswith("{")):
        return [f"bare directory: exit {proc.returncode}, stdout {lines[-1:]}"]
    return []


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = []
    for workload in spec["workloads"]:
        for trace in ("0", "1"):
            found = check_run(spec, workload["name"], trace)
            print(f"{workload['name']} --trace {trace}: "
                  f"{'ok' if not found else 'FAIL'}", flush=True)
            errors += found
    found = check_bare_directory(spec)
    print(f"bare directory refuses: {'ok' if not found else 'FAIL'}")
    errors += found
    for error in errors:
        print(error, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
