#!/usr/bin/env python3
"""Builds and runs the reCloud benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The library and the benchmark binary are
built from source with CMake into .bench_build/perfbench (or under
$CARGO_TARGET_DIR when it is set). Each workload runs in its own process with
the RECLOUD_* switches that could change the measured path removed from its
environment. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; run details (build, host, CPU
time, steal) go to standard error.
"""
import argparse
import json
import os
import subprocess
import sys
import threading
import time

ROOT = os.getcwd()
SOURCE = os.path.join(ROOT, "perfbench")
CLEARED_ENV = (
    "RECLOUD_VERDICT_CACHE",
    "RECLOUD_INCREMENTAL",
    "RECLOUD_TRACE",
    "RECLOUD_CHAOS_SEED",
    "RECLOUD_FULL",
)
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures once, then builds incrementally; returns the binary path."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", SOURCE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", out, "-j4", "--target", "perfbench"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "perfbench")


def steal_seconds():
    """Host steal time summed over every CPU, from /proc/stat."""
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return float("nan")


def run_child(command, env):
    """Runs one workload process; returns (stdout, exit code, its rusage).

    os.wait4 reaps exactly this child, so its peak RSS is not mixed with the
    compiler processes of the build."""
    child = subprocess.Popen(command, env=env, stdout=subprocess.PIPE)
    chunks = []
    reader = threading.Thread(target=lambda: chunks.append(child.stdout.read()))
    reader.start()
    watchdog = threading.Timer(RUN_TIMEOUT_S, child.kill)
    watchdog.start()
    _, status, usage = os.wait4(child.pid, 0)
    watchdog.cancel()
    reader.join()
    child.stdout.close()
    child.returncode = os.waitstatus_to_exitcode(status)
    return b"".join(chunks).decode(), child.returncode, usage


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="only compare the reference judge with exact enumeration")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as error:
        log(f"run.py: build failed: {error}")
        return 1

    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    if args.self_test:
        return subprocess.run([binary, "--self-test"], env=env).returncode

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    steal_before = steal_seconds()
    wall_start = time.monotonic()
    stdout, code, usage = run_child(command, env)
    wall = time.monotonic() - wall_start
    steal = steal_seconds() - steal_before
    if code != 0:
        log(f"run.py: workload exited with code {code}")
        return 1
    lines = [line for line in stdout.splitlines() if line.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log("run.py: the workload printed no result")
        return 1

    info = result.pop("info", {})
    if args.trace == 0:
        # ru_maxrss is in KiB on Linux.
        result["metrics"]["peak_rss_mb"] = {"value": usage.ru_maxrss / 1024.0,
                                            "unit": "MiB"}
    log("run.py: " + json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": os.cpu_count(), "compiler": info.get("compiler"),
        "build_type": info.get("build_type"), "git": info.get("git"),
        "wall_s": round(wall, 3),
        "cpu_s": round(usage.ru_utime + usage.ru_stime, 3),
        "host_steal_s": round(steal, 3),
    }))
    print(json.dumps({key: result[key]
                      for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
