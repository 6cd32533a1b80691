#!/usr/bin/env python3
"""CAFA pipeline benchmark.

    python3 perfbench/run.py --workload <apps|bigtrace|triage|fleet>
        --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark driver and the analyzer from the sources next to this
directory (first run only), generates the workload's inputs from the seed
in a separate process, then measures.  With --trace 0 it prints the
end-to-end metrics, with --trace 1 the per-layer ones; the last line of
standard output is one JSON object with "correct", "attempted", "failed"
and "metrics".  perfbench/README.md describes the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("apps", "bigtrace", "triage", "fleet")
# Setups per run; setup_s is their median.
SETUPS = 3
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return (ROOT / target / "perfbench").resolve()


def build(out):
    """Configures and builds cafabench and offline_analyzer (Release)."""
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(out), "-j", jobs, "--target",
                    "cafabench", "offline_analyzer"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def child_env():
    # The program's defaults, not whatever CAFA_* knobs the caller has set.
    return {k: v for k, v in os.environ.items() if not k.startswith("CAFA_")}


def run_child(cmd, env):
    """Runs cmd in its own process group and kills the whole group (fleet
    workers included) if it outlives RUN_TIMEOUT_S."""
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, stdout, stderr


def last_json(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise RuntimeError("no output")
    return lines, json.loads(lines[-1])


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return [(m["name"], m["unit"]) for m in spec[key]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--small", action="store_true",
                    help="reduced inputs (the benchmark's own tests)")
    ap.add_argument("--wrong-reference", action="store_true",
                    help="hand every checker a wrong reference")
    args = ap.parse_args()

    out = build_dir()
    try:
        build(out)
    except (subprocess.CalledProcessError, OSError) as err:
        log(f"perfbench: build failed: {err}")
        return 1
    bench = out / "cafabench"
    env = child_env()

    work = out / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setups = []
        for _ in range(SETUPS):
            cmd = [str(bench), "setup", args.workload, f"--seed={args.seed}",
                   f"--dir={work}"] + (["--small"] if args.small else [])
            code, stdout, stderr = run_child(cmd, env)
            if code != 0:
                log(stderr)
                log("perfbench: setup failed")
                return 1
            setups.append(last_json(stdout)[1])

        cmd = [str(bench), "run", args.workload, f"--dir={work}",
               f"--seconds={args.seconds}", f"--trace={args.trace}",
               f"--analyzer={out / 'offline_analyzer'}",
               f"--spans={out / ('spans-' + args.workload + '.jsonl')}"]
        if args.wrong_reference:
            cmd.append("--wrong-reference")
        code, stdout, stderr = run_child(cmd, env)
        sys.stderr.write(stderr)
        if code != 0:
            log("perfbench: run failed")
            return 1
        notes, run = last_json(stdout)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = dict(run["metrics"])
    median = lambda key: statistics.median(s[key] for s in setups)
    if args.trace:
        metrics["rt.record_ms"] = {"value": median("rt.record_ms"),
                                   "unit": "ms"}
        metrics["rt.trace_mb"] = {"value": median("rt.trace_mb"),
                                  "unit": "MB"}
    else:
        metrics["setup_s"] = {"value": median("setup_s"), "unit": "s"}

    # Print exactly the metrics BENCHMARK.json names, in its order, and
    # refuse to report a result that does not match it.
    result = {}
    for name, unit in expected_metrics(args.trace):
        got = metrics.get(name)
        if got is None or got["unit"] != unit:
            log(f"perfbench: metric {name} [{unit}] missing or mismatched")
            return 1
        result[name] = got
    attempted, failed = int(run["attempted"]), int(run["failed"])
    for line in notes[:-1]:
        print(line)
    print(f"setup_s samples: {[round(s['setup_s'], 4) for s in setups]}")
    print(json.dumps({"correct": attempted > 0 and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
