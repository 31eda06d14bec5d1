"""In-memory span recorder that wraps public callables from outside.

The benchmark never edits the program: in a traced run it replaces a
few public callables *where their callers look them up* (a module
attribute such as ``repro.core.cmtbone.gs_op``, or a class attribute
such as ``GSHandle.condense``) with a timing wrapper.  Every execution
backend forks its ranks after the wrappers are installed, so rank
processes inherit them; each rank hands its spans back through its
``main``'s return value.

A span is ``[name, t0, t1, parent, tag]``: host ``perf_counter`` times,
the index of the enclosing span on the same thread (-1 at top level)
and, for the service's pool calls, ``(worker index, job ids)``.
Spans live in one list per thread, so rank threads of the threads
backend never contend.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from typing import Callable, Dict, List, Tuple

#: Span-name -> "module:attr" or "module:Class.attr" targets.  The
#: module-level names are the bindings inside the calling module, so
#: wrapping them traces exactly the calls that module makes.
TARGETS: Dict[str, str] = {
    "grad": "repro.kernels.derivatives:grad",
    "full2face": "repro.core.cmtbone:full2face",
    "timestep": "repro.core.cmtbone:CMTBone.timestep",
    "gs_op": "repro.core.cmtbone:gs_op",
    "gs_setup": "repro.core.cmtbone:gs_setup",
    "choose_method": "repro.core.cmtbone:choose_method",
    "condense": "repro.gs.handle:GSHandle.condense",
    "scatter": "repro.gs.handle:GSHandle.scatter",
    "waitall": "repro.mpi.request:Request.waitall",
    "isend": "repro.mpi.communicator:Comm.isend",
    "allreduce": "repro.mpi.communicator:Comm.allreduce",
    "rhs": "repro.solver.driver:CMTSolver.rhs",
    "stable_dt": "repro.solver.driver:CMTSolver.stable_dt",
    "flux": "repro.solver.driver:euler_fluxes",
    "divergence": "repro.solver.driver:flux_divergence_multi",
    "surface_multi": "repro.solver.driver:full2face_multi",
    "filter": "repro.solver.shock:ShockFilter.apply_state",
    "dispatch": "repro.service.pool:WorkerPool.dispatch",
    "collect": "repro.service.pool:WorkerPool.collect",
}

def _pool_tag(_pool, index, specs):
    return index, tuple(s.job_id for s in specs)


#: Span names whose spans carry a tag computed from the call arguments.
TAGS: Dict[str, Callable] = {"dispatch": _pool_tag, "collect": _pool_tag}

#: The Riemann numerical flux is chosen by name at solver construction
#: (``get_scheme`` in the driver module); wrapping the factory wraps
#: every scheme it hands out.
NUMFLUX_FACTORY = "repro.solver.driver:get_scheme"

Span = List  # [name, t0, t1, parent, tag]


class Tracer:
    """Per-thread span lists plus the wrappers that fill them."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._lists: List[List[Span]] = []

    def _state(self):
        st = self._local
        if not hasattr(st, "spans"):
            st.spans = []
            st.stack = []
            with self._lock:
                self._lists.append(st.spans)
        return st

    def wrap(self, name: str, fn: Callable, tag: Callable = None
             ) -> Callable:
        """``fn`` with every call recorded as a span named ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = self._state()
            span = [name, time.perf_counter(), 0.0,
                    st.stack[-1] if st.stack else -1,
                    tag(*args, **kwargs) if tag is not None else None]
            st.spans.append(span)
            st.stack.append(len(st.spans) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                st.stack.pop()
                span[2] = time.perf_counter()

        return traced

    def take(self) -> List[Span]:
        """Remove and return the calling thread's finished spans."""
        st = self._state()
        if st.stack:
            raise RuntimeError("take() inside an open span")
        spans = list(st.spans)
        st.spans.clear()
        return spans

    def take_all(self) -> List[List[Span]]:
        """Remove and return every thread's spans (one list each)."""
        with self._lock:
            lists = [list(sp) for sp in self._lists if sp]
            for sp in self._lists:
                sp.clear()
        return lists


def _resolve(target: str) -> Tuple[object, str]:
    module, _, path = target.partition(":")
    owner: object = importlib.import_module(module)
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, attr


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every target in :data:`TARGETS`; return an undo function."""
    undo = []

    def patch(owner, attr, name, fn=None):
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(
            owner, attr)
        undo.append((owner, attr, raw))
        if isinstance(raw, staticmethod):
            setattr(owner, attr, staticmethod(tracer.wrap(name, raw.__func__)))
        else:
            setattr(owner, attr, fn or tracer.wrap(name, raw, TAGS.get(name)))

    for name, target in TARGETS.items():
        patch(*_resolve(target), name)

    owner, attr = _resolve(NUMFLUX_FACTORY)
    factory = getattr(owner, attr)

    def traced_factory(*args, **kwargs):
        return tracer.wrap("numflux", factory(*args, **kwargs))

    patch(owner, attr, "numflux_factory", traced_factory)

    def restore() -> None:
        for owner_, attr_, raw in reversed(undo):
            setattr(owner_, attr_, raw)

    return restore
