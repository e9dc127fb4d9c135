#!/usr/bin/env python3
"""certchain benchmark entry point.

Builds the certbench harness from the checkout's sources (CMake, into
.bench_build/perfbench) and runs one workload:

    python3 perfbench/run.py --workload batch_study --seed 20200901 \
        --seconds 20 --trace 0

The harness prints every metric with its unit and every correctness check,
and as its last line one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics declared in
BENCHMARK.json, --trace 1 the per-layer ones; this script checks that the
line carries exactly the declared names and units.

    python3 perfbench/run.py --all [--seed N] [--seconds S]

runs every workload untraced and prints one table of all end-to-end
metrics, their workload-specific names and the checks (exit 1 if any check
failed). Result documents (host block, seed, corpus shape, sample counts)
land in .bench_build/results/.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("batch_study", "serve_read", "serve_write")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_declaration():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as error:
        fail(f"cannot read {path}: {error}")


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures and builds the harness; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no certchain sources at {os.path.join(ROOT, 'src')}")
    out = os.path.join(build_dir(), "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    for command in (
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", jobs],
    ):
        done = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                              check=False)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(command)}")
    return os.path.join(out, "certbench")


def declared(declaration, trace):
    key = "per_layer" if trace else "end_to_end"
    return {metric["name"]: metric["unit"] for metric in declaration[key]}


def run_workload(binary, workload, seed, seconds, trace, extra=()):
    """Runs one workload; returns (stdout lines, parsed result line)."""
    work = os.path.join(build_dir(), "work", f"{workload}-{os.getpid()}")
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--out-dir", os.path.join(build_dir(), "results"),
               "--work-dir", work, *extra]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{workload} exited with {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"{workload} printed no result line")
    return lines, result


def check_result(result, expected):
    """The result line must carry exactly the declared metrics and units."""
    metrics = result.get("metrics", {})
    units = {name: entry.get("unit") for name, entry in metrics.items()}
    if units != expected:
        missing = sorted(set(expected) - set(units))
        extra = sorted(set(units) - set(expected))
        wrong = sorted(name for name in set(units) & set(expected)
                       if units[name] != expected[name])
        fail(f"metrics differ from BENCHMARK.json: missing={missing} "
             f"extra={extra} wrong_unit={wrong}")


def run_all(binary, declaration, seed, seconds):
    expected = declared(declaration, False)
    all_correct = True
    rows = []
    for workload in WORKLOADS:
        lines, result = run_workload(binary, workload, seed, seconds, 0)
        check_result(result, expected)
        all_correct = all_correct and result["correct"]
        for name, entry in result["metrics"].items():
            rows.append((workload, name, entry["value"], entry["unit"]))
        for line in lines:
            if line.startswith(("alias", "check", "fail_ratio")):
                rows.append((workload, line, None, None))
    for workload, name, value, unit in rows:
        if value is None:
            print(f"{workload:12} {name}")
        else:
            print(f"{workload:12} {name:18} {value:>16.6g} {unit}")
    print("all checks passed" if all_correct else "CHECKS FAILED")
    return 0 if all_correct else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced and print one table")
    parser.add_argument("--seed", type=int, default=20200901)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Corpus shape and digest overrides, for the harness's own tests.
    parser.add_argument("--scale")
    parser.add_argument("--connections")
    parser.add_argument("--expect-digest")
    args = parser.parse_args()
    if not args.all and args.workload is None:
        parser.error("give --workload or --all")

    declaration = load_declaration()
    binary = build()
    seconds = args.seconds if args.seconds is not None else declaration["run_seconds"]
    extra = []
    for flag in ("scale", "connections", "expect_digest"):
        value = getattr(args, flag)
        if value is not None:
            extra += ["--" + flag.replace("_", "-"), value]
    if args.all:
        return run_all(binary, declaration, args.seed, seconds)

    lines, result = run_workload(binary, args.workload, args.seed, seconds,
                                 args.trace, extra)
    check_result(result, declared(declaration, args.trace == 1))
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
