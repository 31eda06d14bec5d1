"""Mixed job traffic through ``Service(nworkers=2)``.

A seeded stream: 75% cmtbone jobs split with a 1/k skew over six
(n, elements) configurations, so setup-artifact cache hits (reads) sit
beside cold setups that store (writes); 25% Sod jobs, which bypass the
cache.  Phases:

* ``open`` -- open loop at ``RATE`` jobs/s (job k due at a uniformly
  drawn time in [k, k+1)/RATE), every latency measured from the job's
  *due* time; run in ``ROUNDS`` chunks.
* ``serial`` -- after each open chunk drains, a closed loop with one
  client (submit, wait, repeat): job latency with nothing queued.
* ``direct`` -- after each closed chunk, its jobs again through
  ``run_job`` in this process: the single-process baseline, and a
  digest reference for the service's results.
* ``burst`` -- on a fresh service, the whole batch submitted at once:
  completions per second.

All load comes from this one process; the pool has ``NWORKERS``
workers, no more than the host's cores.
"""

from __future__ import annotations

import asyncio
import random
import time
from typing import Dict, List

import reference
import stats

NWORKERS = 2
RATE = 20.0
#: (n, elements per rank).  Element counts are ints: a 3-tuple here
#: makes ``JobSpec.work_units`` raise inside the service's drive loop,
#: which stops dispatch and leaves every submitted job pending.
CMTBONE_CONFIGS = [(4, 2), (4, 4), (5, 2), (5, 4), (6, 2), (6, 4)]
SOD_SHARE = 0.25
SERIAL_JOBS = 120
#: Service starts per run, for the ``setup_s`` median.
SETUP_STARTS = 25
#: Open-loop chunks, each followed by a closed-loop and a direct chunk.
ROUNDS = 4
#: A phase that has not finished by then has hung: fail the run.
PHASE_TIMEOUT_S = 120.0


def make_specs(rng: random.Random, count: int) -> list:
    """``count`` jobs in seeded order, with a fixed composition.

    Exactly ``SOD_SHARE`` are Sod; the cmtbone jobs split over the
    configurations in proportion to 1/k (largest remainders).  Only the
    order depends on the seed, so a median cannot move across the
    boundary between job kinds from one seed to the next.
    """
    from repro.service import JobSpec

    nsod = round(count * SOD_SHARE)
    weights = [1.0 / (k + 1) for k in range(len(CMTBONE_CONFIGS))]
    share = [(count - nsod) * w / sum(weights) for w in weights]
    counts = [int(x) for x in share]
    largest = sorted(range(len(share)), key=lambda k: counts[k] - share[k])
    for k in largest[:count - nsod - sum(counts)]:
        counts[k] += 1
    specs = [JobSpec(kind="sod", params=dict(n=5, nelx=4, nsteps=5))
             for _ in range(nsod)]
    for (n, nel), c in zip(CMTBONE_CONFIGS, counts):
        specs += [JobSpec(kind="cmtbone", params=dict(n=n, nel=nel, nsteps=5))
                  for _ in range(c)]
    rng.shuffle(specs)
    return specs


async def _start():
    from repro.service import Service

    t0 = time.perf_counter()
    svc = Service(nworkers=NWORKERS)
    await svc.start()
    return svc, time.perf_counter() - t0


def _direct(specs, cache) -> dict:
    """Run ``specs`` one after another in this process, no service,
    sampling the reference kernel between jobs."""
    from repro.service import run_job

    ref = reference.Interleaver()
    results, seconds, cpu = [], [], []
    for spec in specs:
        # Process CPU time: the job's ranks run on their own threads.
        c0 = time.process_time()
        t0 = time.perf_counter()
        results.append(run_job(spec, cache))
        seconds.append(time.perf_counter() - t0)
        cpu.append(time.process_time() - c0)
        ref.after_op(cpu[-1])
    return {"results": results, "seconds": seconds, "cpu": cpu,
            "ref": ref.samples}


async def _phase(svc, specs, due_offsets) -> dict:
    """Submit ``specs`` at ``due_offsets`` (None: closed loop)."""
    n = len(specs)
    due = [0.0] * n
    submitted = [0.0] * n
    done = [0.0] * n
    futures = []
    t0 = time.perf_counter()
    try:
        for i, spec in enumerate(specs):
            if due_offsets is None:
                if futures:
                    await futures[-1]
                due[i] = time.perf_counter()
            else:
                due[i] = t0 + due_offsets[i]
                delay = due[i] - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
            submitted[i] = time.perf_counter()
            fut = svc.submit(spec)
            fut.add_done_callback(
                lambda _f, i=i: done.__setitem__(i, time.perf_counter()))
            futures.append(fut)
        results = await asyncio.wait_for(asyncio.gather(*futures),
                                         PHASE_TIMEOUT_S)
    except BaseException:
        # Stop the workers without draining: the run is failing.
        svc.pool.close()
        raise
    return {"results": results, "due": due, "submitted": submitted,
            "done": done, "wall": time.perf_counter() - t0,
            "first_submit": submitted[0],
            "queue_stats": svc.queue.stats.snapshot()}


def _trace_workers(tracer):
    """Report each job's kernel self time from inside the pool workers.

    Wraps the job entry point the worker loop looks up; the workers
    fork after this, inherit the wrapper and send ``(job_id, seconds)``
    back over a queue created before the fork.  Returns
    ``(queue, undo)``.
    """
    import multiprocessing as mp

    from repro.service import pool

    queue = mp.get_context("fork").SimpleQueue()
    run_job = pool.run_job

    def traced_run_job(spec, cache=None):
        tracer.take_all()  # spans inherited from the parent at fork
        result = run_job(spec, cache)
        grad = sum(stats.self_times(spans).get("grad", 0.0)
                   for spans in tracer.take_all())
        queue.put((result.job_id, grad))
        return result

    pool.run_job = traced_run_job

    def undo() -> None:
        pool.run_job = run_job

    return queue, undo


def check(phases: Dict[str, dict]) -> List[tuple]:
    """Failed jobs, and jobs with identical specs but distinct digests.

    Returns ``(job id, message)`` pairs.  Identical specs must share one
    digest whether their setup came from the artifact cache or ran cold.
    """
    errors = []
    digests: Dict[str, Dict[str, list]] = {}
    for name, ph in phases.items():
        for spec_key, r in zip(ph["keys"], ph["results"]):
            if not r.ok:
                first = r.error.splitlines()[0] if r.error else ""
                errors.append((r.job_id, f"{name}: {r.status}: {first}"))
            else:
                digests.setdefault(spec_key, {}).setdefault(
                    r.digest, []).append(r.job_id)
    for key, by_digest in digests.items():
        if len(by_digest) > 1:
            # Every job outside the most common digest counts as failed.
            groups = sorted(by_digest.values(), key=len)
            for job_id in (j for g in groups[:-1] for j in g):
                errors.append((job_id, f"digest differs from "
                               f"{len(groups[-1])} identical jobs of {key}"))
    return errors


def _key(spec) -> str:
    return repr((spec.kind, spec.nranks, sorted(spec.params.items())))


def _merge(chunks: List[dict]) -> dict:
    out = {k: [x for c in chunks for x in c[k]]
           for k in ("results", "due", "submitted", "done")}
    out["wall"] = sum(c["wall"] for c in chunks)
    out["queue_stats"] = chunks[-1]["queue_stats"]
    return out


def run(workload: str, seed: int, seconds: float, tracer) -> dict:
    del workload
    rng = random.Random(seed)
    n_open = max(ROUNDS * 55, int(RATE * seconds * 0.55))
    n_burst = max(80, int(seconds * 5))
    open_specs = make_specs(rng, n_open)
    serial_specs = make_specs(rng, SERIAL_JOBS)
    burst_specs = make_specs(rng, n_burst)

    def chunks(specs):
        k = len(specs) // ROUNDS
        return [specs[i * k:(i + 1) * k if i < ROUNDS - 1 else None]
                for i in range(ROUNDS)]

    open_chunks = chunks(open_specs)
    # Job k is due in [k, k+1)/RATE, uniformly: an open loop at RATE
    # whose arrival bursts are bounded, so queueing does not swing the
    # latency median from one seed to the next the way Poisson bursts do.
    offsets = [[(k + rng.random()) / RATE for k in range(len(chunk))]
               for chunk in open_chunks]

    # Import what the drive loop and the jobs use before the first
    # service forks, so no phase pays first-use imports.
    import repro.cli  # noqa: F401  (the Sod job's setup lives there)
    import repro.core.cmtbone  # noqa: F401
    from repro.service import ArtifactCache, spec_artifact_key

    spec_artifact_key(open_specs[0])
    direct_cache = ArtifactCache()
    # Warm the in-process cache with every configuration, as a running
    # service's caches are: the baseline is the job, not its cold setup.
    _direct(make_specs(random.Random(0), 4 * len(CMTBONE_CONFIGS)),
            direct_cache)

    async def main():
        setups = []
        svc, setup = await _start()
        setups.append(setup)
        opened, closed, direct = [], [], []
        # Open-loop chunks alternate with closed-loop chunks on one
        # service and with the same jobs run directly, without the
        # service, so all three see the same host conditions.
        for o_specs, o_due, s_specs in zip(
                open_chunks, offsets, chunks(serial_specs)):
            opened.append(await _phase(svc, o_specs, o_due))
            closed.append(await _phase(svc, s_specs, None))
            direct.append(_direct(s_specs, direct_cache))
        await svc.close()
        phases = {"open": _merge(opened), "serial": _merge(closed),
                  "direct": {"results": [r for d in direct
                                         for r in d["results"]]},
                  "chunks": (opened, closed, direct)}
        if tracer is not None:
            phases["open"]["spans"] = tracer.take_all()
        svc, setup = await _start()
        setups.append(setup)
        phases["burst"] = await _phase(svc, burst_specs, [0.0] * n_burst)
        await svc.close()
        for _ in range(SETUP_STARTS - len(setups)):
            svc, setup = await _start()
            setups.append(setup)
            await svc.close()
        return phases, setups

    if tracer is not None:
        kernel_queue, undo = _trace_workers(tracer)
    try:
        phases, setups = asyncio.run(main())
    finally:
        if tracer is not None:
            undo()
    opened, closed, direct = phases.pop("chunks")
    kernel = {}
    if tracer is not None:
        while not kernel_queue.empty():
            job_id, sec = kernel_queue.get()
            kernel[job_id] = sec
    phases["open"]["keys"] = [_key(s) for c in open_chunks for s in c]
    phases["serial"]["keys"] = [_key(s) for s in serial_specs]
    phases["direct"]["keys"] = phases["serial"]["keys"]
    phases["burst"]["keys"] = [_key(s) for s in burst_specs]
    errors = check(phases)

    op = phases["open"]
    lat = stats.due_latencies(op["due"], op["done"])
    q, p_tail = stats.tail(lat)
    late = [s - d for s, d in zip(op["submitted"], op["due"])]
    _lq, late_tail = stats.tail(late)
    serial = phases["serial"]
    serial_lat = stats.due_latencies(serial["due"], serial["done"])
    burst = phases["burst"]
    jobs_per_s = len(burst["results"]) / (
        max(burst["done"]) - burst["first_submit"])
    loaded = [stats.due_latencies(c["due"], c["done"]) for c in opened]
    idle = [stats.due_latencies(c["due"], c["done"]) for c in closed]
    p50, idle_p50 = stats.median(lat), stats.median(serial_lat)
    op_cpu = stats.median(x for d in direct for x in d["cpu"])
    ref = [x for d in direct for x in d["ref"]]
    metrics = {
        "setup_s": (stats.median(setups), "s"),
        "op_rel.serial": (op_cpu / stats.median(ref), "ratio"),
    }
    report = {
        "op_cpu_ms.serial": (1e3 * op_cpu, "ms"),
        "reference_ms": (1e3 * stats.median(ref), "ms"),
        "op_ms.serial": (1e3 * stats.median(
            x for d in direct for x in d["seconds"]), "ms"),
        # Loaded over idle latency, each open chunk against the closed
        # chunk right after it: how much queueing adds at RATE.
        "load_ratio": (stats.median(
            stats.median(a) / stats.median(b) for a, b in zip(loaded, idle)),
            "ratio"),
        "op_ms.p50": (1e3 * p50, "ms"),
        "latency_p50_s": (p50, "s"),
        "latency_p95_s": (p_tail, "s"),
        "jobs_per_s": (jobs_per_s, "jobs/s"),
        "idle_latency_p50_s": (idle_p50, "s"),
        "setup_s": metrics["setup_s"],
        "generator_late_max_s": (max(late), "s"),
        "generator_late_p95_s": (late_tail, "s"),
    }
    info = {
        "phases": {"open": f"open loop, {RATE:g} jobs/s, "
                           f"{ROUNDS} chunks",
                   "serial": "closed loop, 1 client, between open chunks",
                   "direct": "the closed-loop jobs again, run_job in "
                             "this process, no service",
                   "burst": "burst, all submitted at t=0"},
        "jobs": {k: len(v["results"]) for k, v in phases.items()},
        "tail_percentile": q, "nworkers": NWORKERS,
    }
    attempted = sum(len(ph["results"]) for ph in phases.values())
    return {"metrics": metrics, "report": report, "info": info,
            "attempted": attempted, "errors": errors, "phases": phases,
            "kernel_s": kernel, "raw": {"loaded": loaded, "idle": idle}}
