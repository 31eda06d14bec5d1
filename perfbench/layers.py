"""Per-layer metrics of a traced run, named by the program's modules.

Every traced run reports every name in :func:`catalog`; a layer that a
workload does not run reports 0.  Times are self times (span duration
minus traced children) per step, averaged over ranks and over every
launch of the mode, unless the name says otherwise.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Tuple

import numpy as np

import stats

MODES = ("serial", "threads", "procs", "sockets")

#: (metric stem, span names whose self time it sums).
SELF_MS = [
    ("kernels.grad_ms", ("grad",)),
    ("surface.full2face_ms", ("full2face", "surface_multi")),
    ("gs.condense_ms", ("condense",)),
    ("gs.scatter_ms", ("scatter",)),
    ("gs.exchange_self_ms", ("gs_op",)),
    ("mpi.wait_ms", ("waitall",)),
    ("mpi.send_ms", ("isend",)),
    ("mpi.allreduce_ms", ("allreduce",)),
    ("core.self_ms", ("timestep",)),
]
#: Per-mode launch metrics: (stem, unit, better).
LAUNCH = [
    ("backend.launch_s", "s", "lower"),
    ("backend.teardown_s", "s", "lower"),
    ("rank.cpu_frac", "ratio", "higher"),
]
SINGLE = [
    ("kernels.grad_calls", "count", "lower"),
    ("kernels.grad_gflops", "GFLOP/s", "higher"),
    ("kernels.grad_bw_frac", "ratio", "higher"),
    ("kernels.bw_probe_gbs", "GB/s", "higher"),
    ("gs.local_bytes_per_step", "B", "lower"),
    ("mpi.msgs_per_step", "count", "lower"),
    ("mpi.bytes_per_step", "B", "lower"),
    ("core.gs_setup_s", "s", "lower"),
    ("core.autotune_s", "s", "lower"),
    ("solver.rhs_ms", "ms", "lower"),
    ("solver.flux_ms", "ms", "lower"),
    ("solver.numflux_ms", "ms", "lower"),
    ("solver.divergence_ms", "ms", "lower"),
    ("solver.filter_ms", "ms", "lower"),
    ("solver.stable_dt_ms", "ms", "lower"),
    ("solver.steps", "count", "lower"),
    ("service.queue_wait_s.p50", "s", "lower"),
    ("service.dispatch_s.p50", "s", "lower"),
    ("service.exec_s.p50", "s", "lower"),
    ("service.collect_s.p50", "s", "lower"),
    ("service.cache_hit_ratio", "ratio", "higher"),
    ("service.batched_dispatches", "count", "higher"),
    ("service.worker_busy_frac", "ratio", "lower"),
    ("service.kernel_frac", "ratio", "lower"),
]
#: End-to-end metrics, re-measured in the traced run (``trace.<name>``);
#: against the untraced run they give the tracing overhead.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("op_rel.serial", "ratio", "lower"),
]

#: Bandwidth-probe array size.  The last-level cache size is not
#: available portably, so each array is 64 MiB, at least four times the
#: last-level cache of common 2-8 core hosts.
PROBE_BYTES = 64 << 20


def catalog() -> List[Tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``."""
    out = [(f"{stem}.{m}", "ms", "lower") for stem, _ in SELF_MS
           for m in MODES]
    out += [(f"{stem}.{m}", unit, better) for stem, unit, better in LAUNCH
            for m in MODES]
    out += SINGLE
    out += [(f"trace.{name}", unit, better)
            for name, unit, better in END_TO_END]
    return out


def bandwidth_probe(repeats: int = 5) -> float:
    """Best-of-``repeats`` numpy copy rate, bytes/s (read + write)."""
    a = np.ones(PROBE_BYTES // 8)
    b = np.empty_like(a)
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.copyto(b, a)
        best = min(best, time.perf_counter() - t0)
    return 2.0 * a.nbytes / best


def self_per_step(launches: Iterable[dict]) -> Dict[str, float]:
    """Span name -> self seconds per timed step, mean over ranks and
    launches.  ``steps`` holds each rank's ``(start, end)`` per step."""
    total: Dict[str, float] = {}
    steps = 0
    for L in launches:
        for r in L["ranks"]:
            steps += len(r["steps"])
            for name, sec in stats.self_times(r["spans"], r["steps"]).items():
                total[name] = total.get(name, 0.0) + sec
    return {k: v / steps for k, v in total.items()} if steps else {}


def mode_metrics(mode: str, launches: List[dict]) -> Dict[str, float]:
    """Self-time and launch metrics of one mode's launches."""
    per = self_per_step(launches)
    out = {f"{stem}.{mode}": 1e3 * sum(per.get(n, 0.0) for n in names)
           for stem, names in SELF_MS}
    out[f"backend.launch_s.{mode}"] = stats.median(
        L["launch"] for L in launches)
    out[f"backend.teardown_s.{mode}"] = stats.median(
        L["teardown"] for L in launches)
    out[f"rank.cpu_frac.{mode}"] = stats.median(
        min(r["cpu_frac"] for r in L["ranks"]) for L in launches)
    return out


def cmtbone(result: dict) -> Dict[str, float]:
    from repro.kernels import derivatives

    import wl_cmtbone

    bandwidth = bandwidth_probe()
    rounds = result["rounds"]
    cfg = result["config"]
    out: Dict[str, float] = {}
    for mode in MODES:
        out.update(mode_metrics(mode, [L[mode] for L in rounds]))

    # Kernel rate on the serial launches: one rank, nothing contending.
    nel = cfg.nel_local
    grad_s = grad_calls = steps = 0
    for L in (R["serial"] for R in rounds):
        r = L["ranks"][0]
        grad_s += stats.self_times(r["spans"], r["steps"]).get("grad", 0.0)
        grad_calls += stats.span_counts(r["spans"], r["steps"]).get("grad", 0)
        steps += len(r["steps"])
    roof = stats.roofline(
        grad_calls * derivatives.flops(cfg.n, nel, 3),
        grad_calls * derivatives.mem_bytes(cfg.n, nel, 3),
        grad_s, bandwidth)
    out["kernels.grad_calls"] = grad_calls / steps
    out["kernels.grad_gflops"] = roof["gflops"]
    out["kernels.grad_bw_frac"] = roof["bw_frac"]
    out["kernels.bw_probe_gbs"] = bandwidth / 1e9

    # Exact traffic of the P=2 step loop, from the mpiP-style profile
    # (warm-up steps included in both numerator and denominator).
    L = rounds[0]["threads"]
    nsteps = wl_cmtbone.WARMUP_STEPS + L["nsteps"]
    msgs = nbytes = 0
    for rp in L["profile"].rank_profiles:
        for (op, site), rec in rp.records.items():
            if site in wl_cmtbone.STEP_SITES and op in (
                    "MPI_Isend", "MPI_Send", "MPI_Allreduce"):
                msgs += rec.count
                nbytes += rec.bytes_total
    nranks = len(L["ranks"])
    out["mpi.msgs_per_step"] = msgs / nsteps / nranks
    out["mpi.bytes_per_step"] = nbytes / nsteps / nranks

    # Local gather-scatter traffic per rank and step (computed): each
    # gs_op reads the face array and writes the condensed vector, then
    # reads it back and writes the scattered result.
    r = L["ranks"][0]
    gs_calls = stats.span_counts(r["spans"], r["steps"]).get("gs_op", 0)
    face_size = nel * 6 * cfg.n ** 2
    out["gs.local_bytes_per_step"] = (
        gs_calls / len(r["steps"]) * 16.0 * (face_size + r["n_unique"]))

    def setup_span(name):
        return stats.median(
            max(sum(stats.durations(r["spans"], name)) for r in R["ranks"])
            for R in (x["threads"] for x in rounds))

    out["core.gs_setup_s"] = setup_span("gs_setup")
    out["core.autotune_s"] = setup_span("choose_method")
    return out


def sod(result: dict) -> Dict[str, float]:
    out: Dict[str, float] = {}
    out.update(mode_metrics("serial", result["serials"]))
    out.update(mode_metrics("procs", result["solves"]))
    per = self_per_step(result["solves"])
    for key, name in (("flux", "flux"), ("numflux", "numflux"),
                      ("divergence", "divergence"), ("filter", "filter"),
                      ("stable_dt", "stable_dt")):
        out[f"solver.{key}_ms"] = 1e3 * per.get(name, 0.0)
    # rhs is reported inclusive: the whole spatial operator.
    rhs = steps = 0
    for L in result["solves"]:
        for r in L["ranks"]:
            rhs += sum(stats.durations(r["spans"], "rhs"))
            steps += len(r["steps"])
    out["solver.rhs_ms"] = 1e3 * rhs / steps
    out["solver.steps"] = result["solves"][-1]["nsteps"]
    return out


def complete(values: Dict[str, float]) -> Dict[str, Tuple[float, str]]:
    """Every catalog metric, with 0 for layers the workload never ran."""
    unknown = set(values) - {n for n, _, _ in catalog()}
    if unknown:
        raise KeyError(f"metrics not in the catalog: {sorted(unknown)}")
    return {name: (float(values.get(name, 0.0)), unit)
            for name, unit, _ in catalog()}


def service(result: dict) -> Dict[str, float]:
    """Where open-loop job latency went, from the parent's pool spans."""
    from wl_service import NWORKERS

    ph = result["phases"]["open"]
    open_ids = {r.job_id for r in ph["results"]}
    dispatch, busy_from = {}, {}
    busy = 0.0
    for spans in ph["spans"]:
        for name, t0, t1, _parent, tag in spans:
            if name not in ("dispatch", "collect") or not open_ids.issuperset(
                    tag[1]):
                continue  # a closed-loop job between open chunks
            if name == "dispatch":
                busy_from[tag] = t0
                for job_id in tag[1]:
                    dispatch[job_id] = (t0, t1 - t0)
            else:
                busy += t1 - busy_from[tag]
    wait, disp, execs, collect, kernel, latency = [], [], [], [], 0.0, 0.0
    hits = misses = 0
    for i, r in enumerate(ph["results"]):
        t_disp, d = dispatch[r.job_id]
        lat = ph["done"][i] - ph["submitted"][i]
        wait.append(t_disp - ph["submitted"][i])
        disp.append(d)
        execs.append(r.exec_seconds)
        collect.append(lat - wait[-1] - r.exec_seconds)
        hits += r.cache_hits
        misses += r.cache_misses
        kernel += result["kernel_s"].get(r.job_id, 0.0)
        latency += ph["done"][i] - ph["due"][i]
    return {
        "service.queue_wait_s.p50": stats.median(wait),
        "service.dispatch_s.p50": stats.median(disp),
        "service.exec_s.p50": stats.median(execs),
        "service.collect_s.p50": stats.median(collect),
        "service.cache_hit_ratio": hits / (hits + misses),
        "service.batched_dispatches": ph["queue_stats"].get(
            "batched_dispatches", 0),
        "service.worker_busy_frac": busy / (NWORKERS * ph["wall"]),
        "service.kernel_frac": kernel / latency,
    }
