#!/usr/bin/env python3
"""Time-to-solution benchmark for the simulator, one workload per command.

    python3 perfbench/run.py --workload incast_figs --seed 1 --seconds 55 --trace 0

Runs whole rounds of the workload for about ``--seconds`` seconds, each round
in a fresh interpreter (``workloads.py``), and prints one JSON object as the
last stdout line: ``correct``, ``attempted`` and ``failed`` simulations, and
the metrics.  ``--trace 0`` reports the end-to-end metrics (medians over the
rounds) with every instrumentation global off; ``--trace 1`` alternates
plain and traced rounds and reports the per-layer metrics (medians over the
traced rounds) plus the traced/plain wall-time ratio.  Exits non-zero if any
simulation failed or the program cannot be imported.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402

WORKLOADS = ("incast_figs", "hadoop_both")

#: Hard ceiling on one command's run time; no round starts that could cross it.
RUN_LIMIT_S = 170.0
#: At least this many plain rounds run, however short ``--seconds`` is.
MIN_ROUNDS = 3


class RoundFailed(RuntimeError):
    """A round's interpreter exited abnormally or printed no result."""


def run_round(workload: str, seed: int, index: int, mode: str, timeout_s: float) -> Dict[str, Any]:
    """Run one round in a fresh interpreter; return its report plus ``setup_s``."""
    env = dict(os.environ)
    scratch = ROOT / ".perfbench-tmp"
    scratch.mkdir(exist_ok=True)
    env["TMPDIR"] = str(scratch)
    cmd = [
        sys.executable,
        str(HERE / "workloads.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--round", str(index),
        "--mode", mode,
    ]
    t_spawn = time.monotonic()
    # A session of its own, so a timeout can stop campaign workers too.
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, start_new_session=True, text=True
    )
    try:
        stdout, _ = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RoundFailed(f"{workload} round {index} ({mode}) exceeded {timeout_s:.0f} s")
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundFailed(f"{workload} round {index} ({mode}) exited with {proc.returncode}")
    report = json.loads(lines[-1])
    report["setup_s"] = report["t_first"] - t_spawn
    return report


def run_rounds(args) -> List[Dict[str, Any]]:
    """Whole rounds for about ``--seconds`` (at least MIN_ROUNDS).

    A round starts while its expected end is nearer to ``--seconds`` than the
    end of the round before, so runs last ``--seconds`` on average.
    """
    modes = ("plain", "traced") if args.trace else ("plain",)
    start = time.monotonic()
    reports: List[Dict[str, Any]] = []
    durations: List[float] = []
    index = 0
    while True:
        elapsed = time.monotonic() - start
        if durations:
            estimate = statistics.median(durations)
            enough = index >= (1 if args.trace else MIN_ROUNDS)
            if enough and elapsed + estimate / 2 > args.seconds:
                break
            if elapsed + 2 * estimate > RUN_LIMIT_S:
                break
        t0 = time.monotonic()
        for mode in modes:
            remaining = RUN_LIMIT_S - (time.monotonic() - start)
            report = run_round(args.workload, args.seed, index, mode, remaining)
            report["mode"] = mode
            reports.append(report)
            print(
                f"perfbench: round {index} {mode}: setup {report['setup_s']:.3f} s, "
                f"wall {report['wall_s']:.3f} s",
                file=sys.stderr,
            )
        durations.append(time.monotonic() - t0)
        index += 1
    return reports


def declared_units(trace: int) -> Dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def summarize(args, reports: List[Dict[str, Any]]) -> Dict[str, Any]:
    plain = [r for r in reports if r["mode"] == "plain"]
    traced = [r for r in reports if r["mode"] == "traced"]
    if args.trace:
        values = {
            name: statistics.median(r["layers"][name] for r in traced)
            for name in traced[0]["layers"]
        }
        values["tracing.overhead_ratio"] = statistics.median(
            r["wall_s"] for r in traced
        ) / statistics.median(r["wall_s"] for r in plain)
    else:
        values = {
            name: statistics.median(r[name] for r in plain)
            for name in ("setup_s", "wall_s", "peak_rss_mb")
        }
    units = declared_units(args.trace)
    if set(values) != set(units):
        raise RuntimeError(
            f"measured metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json"
        )
    return {
        "correct": not any(r["wrong"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    checks.selftest()
    try:
        reports = run_rounds(args)
    except RoundFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        try:
            (ROOT / ".perfbench-tmp").rmdir()  # only if no round left files behind
        except OSError:
            pass
    for r in reports:
        for problem in r["problems"]:
            print(f"perfbench: {problem}", file=sys.stderr)
        for hook in r.get("missing_hooks", ()):
            print(f"perfbench: hook target not found: {hook}", file=sys.stderr)
    result = summarize(args, reports)
    print(json.dumps(result))
    return 1 if result["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
