"""Run the repository benchmark and print every metric.

From the repository root::

    python3 bench/run.py [--workload W ...] [--seed N] [--seconds S]
                         [--trace [0|1]] [--json OUT] [--smoke]

Each workload runs in fresh child processes (``PYTHONHASHSEED=0``,
``PYTHONPATH=src``, compile cache off) on the default ``auto`` backend.
In-process workloads are set up three times, each in its own child, and
``setup_s`` is the median spawn-to-ready time; the third child then
measures for ``--seconds``.  ``--trace 1`` makes one traced child
instead, which reports the per-layer metrics.  Every metric is printed
as ``workload metric value unit``; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
status is 0 when every output matched its oracle, 1 when one did not,
and 2 when a workload could not run (a stale oracle, a crash, or a
checkout without the program).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

import common

SETUPS = 3
#: wall-clock ceiling of one workload (the benchmark must end in 180 s)
WORKLOAD_TIMEOUT = 170.0
SCRIPT = {
    "sweep-distinct": "inproc.py",
    "sweep-repeat": "inproc.py",
    "refine-scale": "inproc.py",
    "serve-open": "serve_open.py",
}


class WorkloadError(Exception):
    """A workload child failed to produce a result."""


def spawn(cmd, deadline):
    """Run one child; return ``(seconds to READY, last stdout line)``."""
    env = dict(os.environ, PYTHONPATH=str(common.ROOT / "src"), PYTHONHASHSEED="0")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=common.ROOT)
    timer = threading.Timer(max(deadline - start, 1.0), proc.kill)
    timer.start()
    ready, last = None, ""
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - start
            elif line.strip():
                last = line
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None:
        raise WorkloadError(f"{' '.join(cmd[1:3])} exited with status {code}")
    return ready, last


def run_workload(workload, args):
    """Set up and measure one workload; returns the child's result dict."""
    deadline = time.perf_counter() + WORKLOAD_TIMEOUT
    cmd = [sys.executable, str(common.BENCH_DIR / SCRIPT[workload])]
    if SCRIPT[workload] == "inproc.py":
        cmd.append(workload)
    cmd += [
        "--seed", str(args.seed),
        "--seconds", str(0 if args.smoke else args.seconds),
        "--trace", str(args.trace),
        "--oracles", args.oracles,
    ]
    if args.smoke:
        cmd.append("--smoke")
    setups = []
    if workload != "serve-open" and not (args.trace or args.smoke):
        for _ in range(SETUPS - 1):
            setups.append(spawn(cmd + ["--setup-only"], deadline)[0])
    ready, last = spawn(cmd, deadline)
    try:
        result = json.loads(last)
    except ValueError:
        raise WorkloadError(f"{workload}: no result line (got {last[:200]!r})") from None
    setups = result.pop("setup_s", setups + [ready])
    result["setup_samples_s"] = setups
    if not args.trace:
        result["metrics"]["setup_s"] = statistics.median(setups)
    return result


def main(argv=None) -> int:
    spec = json.loads(common.BENCHMARK_JSON.read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", choices=names, default=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--json", metavar="OUT", help="write every run detail to OUT")
    parser.add_argument("--smoke", action="store_true", help="one short round per workload")
    parser.add_argument("--oracles", default=str(common.ORACLES_PATH))
    args = parser.parse_args(argv)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    results = {}
    try:
        for workload in args.workload:
            result = run_workload(workload, args)
            values = result.get("per_layer" if args.trace else "metrics", {})
            missing = sorted(set(units) - set(values))
            if missing:
                raise WorkloadError(f"{workload}: no value for {', '.join(missing)}")
            result["reported"] = {name: values[name] for name in units}
            results[workload] = result
    except WorkloadError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    single = len(results) == 1
    metrics = {}
    for workload, result in results.items():
        for name, value in result["reported"].items():
            print(f"{workload} {name} {value!r} {units[name]}")
            key = name if single else f"{workload}/{name}"
            metrics[key] = {"value": value, "unit": units[name]}
    correct = all(r["correct"] for r in results.values())
    if args.json:
        write_details(args, results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


def write_details(args, results):
    sys.path.insert(0, str(common.ROOT / "src"))
    from repro.perf.fingerprint import machine_fingerprint

    document = {
        "schema": "repro.bench.run/v1",
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "machine": machine_fingerprint(),
        "workloads": results,
    }
    with open(args.json, "w") as fh:
        json.dump(document, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
