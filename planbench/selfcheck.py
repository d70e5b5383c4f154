#!/usr/bin/env python3
"""Determinism self-check of the planner benchmark.

Runs one workload twice with the same seed, both traced, and requires the
same output digest and the same per-layer counts.  Each traced run also
compares its traced and untraced passes (``run.py`` reports ``correct:
false`` when their digests differ), so this covers both halves of the
contract::

    python3 planbench/selfcheck.py --workload deep_whatif --seed 3 --requests 4

Closed loops time exactly ``--requests`` requests, so both runs do the same
work whatever the machine's speed; the open loop always issues the same
schedule.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(args) -> tuple[dict, dict]:
    cmd = [
        sys.executable, str(HERE / "run.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "1",
        "--requests", str(args.requests),
    ]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"run.py exited with {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    info = json.loads(next(line for line in lines if line.startswith("# run "))[6:])
    return info, json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--requests", type=int, default=4)
    args = parser.parse_args(argv)

    (info_a, res_a), (info_b, res_b) = run_once(args), run_once(args)
    problems = []
    for name, res, info in (("first", res_a, info_a), ("second", res_b, info_b)):
        if not res["correct"]:
            problems.append(f"{name} run reports correct=false")
        if info["digest"] != info.get("traced_digest"):
            problems.append(f"{name} run: traced digest differs from untraced")
    if info_a["digest"] != info_b["digest"]:
        problems.append(f"digests differ: {info_a['digest']} vs {info_b['digest']}")
    for key, metric in res_a["metrics"].items():
        other = res_b["metrics"][key]["value"]
        if metric["unit"] in ("count", "bytes") and metric["value"] != other:
            problems.append(f"{key}: {metric['value']} vs {other}")
    print(f"digest {info_a['digest']} / {info_b['digest']}")
    for problem in problems:
        print("MISMATCH", problem)
    print("selfcheck", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
