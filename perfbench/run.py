"""Repository benchmark: host time of CMT-bone, Sod and the job service.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cmtbone-highorder --seed 1 \\
        --seconds 16 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``cmtbone-highorder`` -- N=20, 2x2x2 elements per rank: kernel-bound.
* ``cmtbone-surface`` -- N=5, 6x6x6 elements per rank, 11 exchanged
  traces: gather-scatter-bound.
* ``sod-tts`` -- Sod shock tube to t=0.1 on the DG solver, P=2 procs.
* ``service-mixed`` -- seeded cmtbone/Sod job traffic through the job
  service, open loop then burst.

The program is only driven through its public API; nothing under
``src/`` is edited.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` wraps the program's layer entry points (``tracer.py``)
and reports the per-layer metrics (``layers.py``) instead.

Output: a human-readable report line (``# report {...}``: the workload's
own metrics under the names of the issue that defined the benchmark,
phase kinds, generator lateness) and, last, one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  Any output check
that fails prints the reasons to stderr and exits 1 after the result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

#: Workload -> (module that runs it, ``layers`` function for --trace 1).
WORKLOADS = {
    "cmtbone-highorder": ("wl_cmtbone", "cmtbone"),
    "cmtbone-surface": ("wl_cmtbone", "cmtbone"),
    "sod-tts": ("wl_sod", "sod"),
    "service-mixed": ("wl_service", "service"),
}


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def stop_children(timeout: float = 10.0) -> None:
    """Stop every process this run started, and wait for each to end.

    The program's backends and job service join the ranks and workers
    they fork; anything still alive here (a failed run) is terminated.
    Shared-memory rings also start multiprocessing's resource tracker,
    a helper process that would otherwise outlive this one until it
    notices the closed pipe; stopping it closes the pipe and reaps it.
    """
    import multiprocessing as mp
    from multiprocessing import resource_tracker

    children = mp.active_children()
    for p in children:
        p.join(timeout)
    for p in children:
        if p.is_alive():
            p.terminate()
            p.join(5.0)
        if p.is_alive():
            p.kill()
            p.join()
    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    try:
        return _main(argv)
    finally:
        stop_children()


def _main(argv=None) -> int:
    args = parse_args(argv)
    # The program must come from this checkout, never from elsewhere.
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    import importlib

    import layers
    import tracer as tracing

    module_name, layer_fn = WORKLOADS[args.workload]
    module = importlib.import_module(module_name)
    tracer = restore = None
    if args.trace:
        tracer = tracing.Tracer()
        restore = tracing.install(tracer)
    try:
        result = module.run(args.workload, args.seed, args.seconds, tracer)
    finally:
        if restore is not None:
            restore()

    errors = result["errors"]
    failed = len({unit for unit, _msg in errors})
    report = {k: {"value": v, "unit": u} for k, (v, u) in
              result["report"].items()}
    report["failed_frac"] = {"value": failed / result["attempted"],
                             "unit": "ratio"}
    print("# report " + json.dumps(
        {"workload": args.workload, "trace": args.trace,
         "metrics": report, "info": result["info"]}, default=str))
    if args.trace:
        values = {f"trace.{k}": v for k, (v, _u) in
                  result["metrics"].items()}
        values.update(getattr(layers, layer_fn)(result))
        metrics = layers.complete(values)
    else:
        metrics = result["metrics"]
    print(json.dumps({
        "correct": not errors,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    for unit, msg in errors:
        print(f"perfbench: check failed: {unit}: {msg}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
