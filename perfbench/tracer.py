"""Spans around the calls into each gaborfio module, installed from outside.

A wrapper replaces every binding of a traced function in the loaded
``gaborfio`` namespaces (``algebra`` binds ``gabor_matrix`` and
``decay_profile`` by name, the package re-exports everything), and
``CanonicalMap.map_points`` is patched on its class.  Each call appends one
span ``[name, start, end, parent_index, alloc_mb]`` to an in-memory list,
which the child writes out when the pipeline has finished.

``alloc_mb`` is the tracemalloc peak of the call above what was allocated
when it began, recorded only for the functions that build large arrays and
only while ``record_alloc`` is set.  tracemalloc slows small numpy calls
about fivefold, so the child records allocations in a second, untimed run
of the same pipeline and takes self times from the first.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc

# (module, function, record alloc_mb): the layers are the modules
TARGETS = (
    ("tfcore", "tf_shift", False),
    ("tfcore", "stft", False),
    ("gabor", "build_frame", False),
    ("gabor", "atom_matrix", True),
    ("phasegeom", "canonical_map_of_phase", False),
    ("phasegeom", "CanonicalMap.map_points", False),
    ("operators", "discrete_phase_from_tame", False),
    ("operators", "fio_type1", False),
    ("operators", "fio_type2", False),
    ("operators", "kn_quantize", False),
    ("operators", "compose", False),
    ("operators", "metaplectic", False),
    ("gabormatrix", "gabor_matrix", True),
    ("gabormatrix", "decay_profile", True),
    ("gabormatrix", "wrapped_displacements", True),
    ("gabormatrix", "envelope_fit", False),
    ("gabormatrix", "sparsify", True),
    ("gabormatrix", "symbol_class_norm", False),
    ("gabormatrix", "offgrid_decay_check", True),
    ("gabormatrix", "gabor_matrix_to_csv", False),
    ("gabormatrix", "gabor_matrix_from_csv", False),
    ("algebra", "verify_inverse", False),
    ("algebra", "verify_composition", False),
    ("algebra", "factorize_metaplectic", False),
    ("cli", "run_experiment", False),
    ("cli", "parse_operator", False),
    ("cli", "sparsity_sweep", False),
)

LAYERS = tuple(dict.fromkeys(mod for mod, _, _ in TARGETS))


def span_name(module: str, function: str) -> str:
    return f"{module}.{function}"


class Tracer:
    """Holds the spans of one interpreter; install() patches gaborfio."""

    def __init__(self):
        self.spans: list[list] = []
        self.record_alloc = False
        self._open: list[int] = []
        self._mem: list[list] = []      # [base, running peak, started here]

    def install(self) -> None:
        import gaborfio.cli  # noqa: F401  (every module must be loaded)
        namespaces = [m for name, m in list(sys.modules.items())
                      if name == "gaborfio" or name.startswith("gaborfio.")]
        for module, function, alloc in TARGETS:
            mod = sys.modules[f"gaborfio.{module}"]
            name = span_name(module, function)
            if "." in function:
                cls_name, meth = function.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self._wrap(name, getattr(cls, meth), alloc))
                continue
            orig = getattr(mod, function)
            wrapper = self._wrap(name, orig, alloc)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is orig:
                        setattr(ns, attr, wrapper)

    def _wrap(self, name, fn, alloc):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, open_[-1] if open_ else -1, None]
            open_.append(len(spans))
            spans.append(rec)
            mem = self._alloc_enter() if alloc and self.record_alloc else None
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                rec[1] = t0
                if mem is not None:
                    rec[4] = self._alloc_exit(mem)
                open_.pop()

        return wrapper

    def _alloc_enter(self) -> list:
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        cur, peak = tracemalloc.get_traced_memory()
        if self._mem:
            self._mem[-1][1] = max(self._mem[-1][1], peak)
        tracemalloc.reset_peak()
        frame = [cur, cur, started]
        self._mem.append(frame)
        return frame

    def _alloc_exit(self, frame: list) -> float:
        peak = max(frame[1], tracemalloc.get_traced_memory()[1])
        self._mem.pop()
        if self._mem:
            self._mem[-1][1] = max(self._mem[-1][1], peak)
        if frame[2]:
            tracemalloc.stop()
        return (peak - frame[0]) / 2 ** 20


def self_times(spans: list) -> dict:
    """Per span name: (self seconds, calls, alloc_mb list) over one span list.

    Self time is a span's duration minus the durations of its direct
    children; wrapped calls nest strictly, so children never overlap.
    """
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out: dict = {}
    for i, (name, t0, t1, _, alloc) in enumerate(spans):
        self_s, calls, allocs = out.get(name, (0.0, 0, []))
        if alloc is not None:
            allocs.append(alloc)
        out[name] = (self_s + (t1 - t0) - child[i], calls + 1, allocs)
    return out
