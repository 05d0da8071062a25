"""In-memory spans around calls into ccspectral's modules, timed from outside.

``instrument`` replaces public functions of each module (and the aliases
``cli``, ``nodal`` and ``cheeger`` look them up under) with wrappers that
record a span per call: name, start, end, parent span id and job id, plus a
few counters read off the arguments or the result.  Nothing in the package
is edited and no profiler hook is installed, so time inside native code is
measured as it is: cProfile's per-call cost inflated ``nodal_domains``
about 2.5x, because its union-find loop makes many small Python calls.
"""

from __future__ import annotations

import functools
import hashlib
import os
import time
from contextlib import contextmanager


class Tracer:
    """Single-threaded span recorder; spans stay in memory until written."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self.job: int | None = None
        self._stack: list[dict] = []

    def open(self, name: str) -> dict:
        span = {"id": len(self.spans), "name": name, "start": self.clock(), "end": None,
                "parent": self._stack[-1]["id"] if self._stack else None, "job": self.job}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = self.clock()
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span['name']} closed out of order")

    @contextmanager
    def span(self, name: str):
        s = self.open(name)
        try:
            yield s
        finally:
            self.close(s)

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording a ``name`` span per call.  ``after(span, args,
        kwargs, result)`` adds counters once the span is closed, so their
        cost lands in the parent's self time, not in the layer's."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            s = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(s)
            if after is not None:
                after(s, args, kwargs, result)
            return result

        return wrapper


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of (start, end) intervals."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of its interval child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {s["id"]: s["end"] - s["start"]
            - _covered(children.get(s["id"], ()), s["start"], s["end"])
            for s in spans}


def covered_time(spans: list[dict], names, within: list[dict]) -> float:
    """Total time of the ``within`` spans covered by spans named in ``names``."""
    return sum(_covered([(s["start"], s["end"]) for s in spans
                         if s["name"] in names and s["job"] == outer["job"]],
                        outer["start"], outer["end"])
               for outer in within)


def digest(array) -> str:
    """Content hash of an ndarray-like (used to count repeated work)."""
    return hashlib.blake2b(getattr(array, "values", array).tobytes(),
                           digest_size=16).hexdigest()


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _set(**fields):
    def after(span, args, kwargs, result):
        for key, read in fields.items():
            span[key] = read(args, kwargs, result)
    return after


def instrument(tracer: Tracer) -> None:
    """Wrap the layer entry points of an imported ccspectral package."""
    import scipy.sparse.linalg._dsolve.linsolve as linsolve
    from ccspectral import (cheeger, cli, discretization, eigensolver, expressions,
                            geometry, grushin, nodal, pgm)
    import ccspectral

    modules = (ccspectral, cli, discretization, eigensolver, nodal, cheeger,
               geometry, expressions, grushin, pgm)

    def patch(module, attr: str, name: str, after=None) -> None:
        original = getattr(module, attr)
        wrapper = tracer.wrap(name, original, after)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)
        setattr(module, attr, wrapper)

    patch(cli, "load_config", "cli.load_config")
    for cmd in ("cmd_spectrum", "cmd_cheeger", "cmd_grushin_table", "cmd_carnot"):
        patch(cli, cmd, "cli.cmd")

    patch(discretization, "assemble", "discretization.assemble",
          _set(nnz=lambda a, k, r: int(r.A.nnz)))

    patch(eigensolver, "solve_smallest", "eigensolver.solve_smallest",
          _set(residual_max=lambda a, k, r: float(max(r.residuals))))
    patch(eigensolver, "_solve_dense", "eigensolver.dense",
          _set(n=lambda a, k, r: int(_arg(a, k, 0, "forms").n_active)))
    # eigsh(sigma=...) and splu both factorize through this one SuperLU entry.
    patch(linsolve._superlu, "gstrf", "eigensolver.factor",
          _set(fill=lambda a, k, r: int(r.nnz)))

    patch(nodal, "nodal_domains", "nodal.nodal_domains",
          _set(key=lambda a, k, r: digest(_arg(a, k, 1, "u"))))
    patch(nodal, "check_courant", "nodal.check_courant")

    patch(cheeger, "cut_from_level_set", "cheeger.cut_from_level_set")
    patch(cheeger, "dirichlet_cheeger_upper", "cheeger.dirichlet_cheeger_upper")
    patch(cheeger, "horizontal_perimeter", "cheeger.horizontal_perimeter")
    patch(cheeger, "region_volume", "cheeger.region_volume")
    patch(cheeger, "mfmc_certify", "cheeger.mfmc_certify")
    # Every level-set cut, whichever sweep asked for it, is built here.
    patch(cheeger, "_level_segments", "cheeger.level_set",
          _set(key=lambda a, k, r: f"{digest(_arg(a, k, 1, 'values2d'))}"
                                   f"@{float(_arg(a, k, 2, 't'))!r}"))

    patch(geometry.CCStructure, "coefficients_at", "geometry.coefficients_at",
          _set(points=lambda a, k, r: r.size // (2 * a[0].m)))
    patch(geometry.CCStructure, "density_at", "geometry.density_at",
          _set(points=lambda a, k, r: r.size))
    patch(expressions.Expression, "__call__", "expressions.eval")

    patch(grushin, "build_table", "grushin.build_table")
    patch(grushin, "find_eigenvalues", "grushin.find_eigenvalues")
    patch(grushin, "shoot", "grushin.shoot")
    patch(grushin, "cross_validate", "grushin.cross_validate")

    patch(pgm, "write_pgm", "pgm.write_pgm",
          _set(bytes=lambda a, k, r: os.path.getsize(_arg(a, k, 1, "path"))))
