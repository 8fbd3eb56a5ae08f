"""Per-layer tracing by wrapping the public functions of the tvk modules.

Every public function of a layer module is replaced by a wrapper at each
binding site in the loaded ``tvk`` package, not only in its home module:
``from .lp import common_point`` in ``tverberg`` holds its own reference,
and a wrapper installed only in ``lp`` would never see those calls. All
bindings are put back by ``Tracer.restore`` (or on leaving the ``with``
block).

Most functions get a span: calls, inclusive busy time (outermost
activation only, so recursion is not counted twice) and self time (span
duration minus the time covered by child spans). The hot predicates get a
call counter only, because a span around each of their ~10^5 calls per run
would cost more than the predicate itself. Spans are aggregated in memory
per function name as they close; nothing is written during a run.
"""
from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict
from functools import wraps

PACKAGE = "tvk"
LAYERS = ("apps", "tverberg", "lp", "fixing", "geometry", "linalg", "fileio")

# Called ~10^5 times per planar run: counted, never timed.
COUNT_ONLY = {
    "geometry.rat",
    "geometry.mk_point",
    "geometry.vsub",
    "geometry.vadd",
    "geometry.vscale",
    "geometry.dot",
    "geometry.cross2",
    "geometry.cross3",
    "geometry.orientation",
    "geometry.simplex_volume",
    "geometry.barycentric_coordinates",
    "geometry.point_in_simplex",
    "linalg.sign",
    "linalg.det",
    "linalg.solve_unique",
    "linalg.nullspace",
    "linalg.rank",
    "fileio.fmt_rat",
    "fileio.parse_rat",
    "tverberg.canonical_parts",
}


class _Span:
    __slots__ = ("calls", "busy", "self_time")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0


class Tracer:
    """Install with ``with Tracer() as tr:``; read ``tr.spans``/``tr.counts``.

    ``spans`` maps "module.function" to calls/busy/self aggregates,
    ``counts`` holds plain call counters and the derived event counters
    (see ``_observe``). ``active`` counts open spans per name, so an
    observer can ask whether a call happens inside another layer's span.
    """

    def __init__(self):
        self.spans = defaultdict(_Span)
        self.counts = defaultdict(int)
        self.active = defaultdict(int)
        self._stack = []
        self._bindings = []  # (module, attribute name, original object)

    # --- installation ---------------------------------------------------

    def targets(self) -> dict:
        """Public functions of every layer module, keyed "module.function"."""
        out = {}
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for name, obj in vars(mod).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    out[f"{layer}.{name}"] = obj
        return out

    def install(self) -> "Tracer":
        if self._bindings:
            raise RuntimeError("tracer already installed")
        wrappers = {id(fn): self._wrap(key, fn) for key, fn in self.targets().items()}
        for mod in package_modules():
            for name, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._bindings.append((mod, name, obj))
                    setattr(mod, name, wrapper)
        return self

    def restore(self) -> None:
        for mod, name, original in reversed(self._bindings):
            setattr(mod, name, original)
        self._bindings = []

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    @property
    def binding_count(self) -> int:
        return len(self._bindings)

    # --- wrappers -------------------------------------------------------

    def _wrap(self, key: str, fn):
        if inspect.isgeneratorfunction(fn):
            wrapper = self._wrap_generator(key, fn)
        elif key in COUNT_ONLY:
            wrapper = self._wrap_counter(key, fn)
        else:
            wrapper = self._wrap_span(key, fn)
        wrapper.tvkbench_traced = key
        return wrapper

    def _wrap_counter(self, key, fn):
        counts = self.counts

        @wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _wrap_generator(self, key, fn):
        counts = self.counts

        @wraps(fn)
        def counted_generator(*args, **kwargs):
            counts[key] += 1
            for item in fn(*args, **kwargs):
                counts[key + ".items"] += 1
                yield item

        return counted_generator

    def _wrap_span(self, key, fn):
        span = self.spans[key]
        stack = self._stack
        active = self.active
        clock = time.perf_counter
        observe = self._observe

        @wraps(fn)
        def spanned(*args, **kwargs):
            span.calls += 1
            child = [0.0]
            stack.append(child)
            active[key] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                active[key] -= 1
                if not active[key]:
                    span.busy += elapsed
                span.self_time += elapsed - child[0]
                if stack:
                    stack[-1][0] += elapsed
            observe(key, result)
            return result

        return spanned

    def _observe(self, key: str, result) -> None:
        """Event counters read from results and the enclosing spans."""
        counts, active = self.counts, self.active
        if key == "lp.solve_feasibility":
            counts["lp.solve_feasibility.feasible"] += bool(result.feasible)
            if active["lp.relative_interior_witness"]:
                counts["lp.relative_interior_witness.solves"] += 1
        elif key == "lp.common_point":
            if active["tverberg.tverberg_partition_bruteforce"]:
                counts["tverberg.partitions_lp_checked"] += 1
                counts["tverberg.partitions_lp_hits"] += result is not None
        elif key == "tverberg.tverberg_partition_bruteforce":
            if active["tverberg.birch_partition_planar"]:
                counts["tverberg.birch_fallbacks"] += 1
        elif key == "fixing.fix_all":
            counts["fixing.steps"] += result[1].iterations

    # --- reading --------------------------------------------------------

    def calls(self, key: str) -> int:
        if key in self.spans:
            return self.spans[key].calls
        return self.counts.get(key, 0)

    def deterministic_counts(self) -> dict:
        """Every call and event count (no times): equal across repeat runs."""
        out = {k: v.calls for k, v in self.spans.items() if v.calls}
        out.update({k: v for k, v in self.counts.items() if v})
        return dict(sorted(out.items()))


def package_modules() -> list:
    """The loaded modules of the tvk package, itself included."""
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def unrestored_bindings() -> list:
    """Attributes of the tvk package that still hold a tracing wrapper."""
    out = []
    for mod in package_modules():
        for name, obj in vars(mod).items():
            if getattr(obj, "tvkbench_traced", None) is not None:
                out.append(f"{mod.__name__}.{name}")
    return out
