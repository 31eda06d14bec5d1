"""Tracing overhead: each end-to-end figure untraced and traced.

Runs ``run.py`` twice on one workload and seed, ``--trace 0`` then
``--trace 1``, and prints every end-to-end metric (reported by the
traced run as ``trace.<name>``) and every figure of the ``# report``
line next to its traced value; the difference is the overhead::

    python3 perfbench/overhead.py --workload cmtbone-surface --seed 1 \\
        --seconds 20
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def measure(workload: str, seed: int, seconds: float, trace: int):
    """``(metrics, report figures)`` of one run."""
    lines = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        check=True, capture_output=True, text=True, timeout=600,
    ).stdout.strip().splitlines()
    report = json.loads(lines[-2].removeprefix("# report "))["metrics"]
    return json.loads(lines[-1])["metrics"], report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    args = ap.parse_args(argv)
    plain, plain_report = measure(args.workload, args.seed, args.seconds, 0)
    traced, traced_report = measure(args.workload, args.seed,
                                    args.seconds, 1)
    rows = [(name, m, traced[f"trace.{name}"]) for name, m in plain.items()]
    rows += [(f"report:{name}", m, traced_report[name])
             for name, m in plain_report.items() if m["value"]]
    print(f"{'figure':<34} {'untraced':>11} {'traced':>11} {'overhead':>9}")
    for name, m, t in rows:
        v = m["value"]
        print(f"{name:<34} {v:>11.5g} {t['value']:>11.5g} "
              f"{(t['value'] - v) / v:>+9.1%}  {m['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
