"""Per-layer tracing for the hooklab benchmark, done from outside the package.

The tracer wraps the public functions and operators of each hooklab layer,
times every call, and counts the work done.  It never edits hooklab: it
rebinds names while a traced repetition runs and puts every original back
afterwards.

Rebinding is done by identity.  ``from .multipoly import poly_gcd`` gives
the importing module its own reference, so rebinding only the defining
module would miss every call made from ``checks``, ``identities``, ``series``
or ``harness``.  ``Rebinder`` therefore replaces the original object wherever
it appears: in the namespace of every loaded ``hooklab`` module, in the
``__dict__`` of every hooklab class (which also catches aliases such as
``__rmul__ = __mul__``) and in module-level dicts (``cli._RENDERERS``).

Self time of a call is its duration minus the time covered by the traced
calls it made.  Inclusive time counts only the outermost call of an op, so
recursion is not counted twice.  Each thread keeps its own stack and
tables, merged at the end, so counts stay exact under ``--jobs 2``.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from typing import Callable, Optional

#: Every hooklab module the tracer scans.  All are imported before wrapping,
#: so no module can bind a name to a wrapper that restore() would not see.
MODULES = (
    "hooklab", "hooklab.errors", "hooklab.multipoly", "hooklab.partitions",
    "hooklab.series", "hooklab.sturm", "hooklab.permstats",
    "hooklab.symfunc", "hooklab.identities", "hooklab.harness",
    "hooklab.checks", "hooklab.cli",
)


def _set(container, key, value) -> None:
    if isinstance(container, dict):
        container[key] = value
    else:
        setattr(container, key, value)


class Rebinder:
    """Replaces an object everywhere hooklab holds it, and undoes it."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def rebind(self, original, replacement) -> None:
        """Replace `original` by `replacement` wherever hooklab holds it."""
        for modname, module in list(sys.modules.items()):
            if modname != "hooklab" and not modname.startswith("hooklab."):
                continue
            namespace = vars(module)
            containers = [namespace]
            for value in list(namespace.values()):
                if isinstance(value, dict):
                    containers.append(value)
                elif isinstance(value, type) and value.__module__.startswith("hooklab"):
                    containers.append(value)
            for container in containers:
                items = container.items() if isinstance(container, dict) else vars(container).items()
                for key, value in list(items):
                    if value is original:
                        _set(container, key, replacement)
                        self._undo.append((container, key, original))

    def restore(self) -> None:
        while self._undo:
            container, key, original = self._undo.pop()
            _set(container, key, original)

    def __enter__(self) -> "Rebinder":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


class Stat:
    """Counters of one op in one thread."""

    __slots__ = ("calls", "self_s", "incl_s", "units", "candidates", "max_bits", "args_seen")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        self.units = 0          # op-specific work count: hits, cells, cores found
        self.candidates = 0
        self.max_bits = 0
        self.args_seen: set = set()

    def merge(self, other: "Stat") -> None:
        self.calls += other.calls
        self.self_s += other.self_s
        self.incl_s += other.incl_s
        self.units += other.units
        self.candidates += other.candidates
        self.max_bits = max(self.max_bits, other.max_bits)
        self.args_seen |= other.args_seen


# ----- observers: count the work a call did, from its arguments and result --


def _count_exact(stat: Stat, args, kwargs, result) -> None:
    stat.units += result is not None


def _gcd_bits(stat: Stat, args, kwargs, result) -> None:
    for c in result.terms.values():
        stat.max_bits = max(stat.max_bits, c.numerator.bit_length(), c.denominator.bit_length())


def _count_cores(stat: Stat, args, kwargs, result) -> None:
    s = args[0] if args else kwargs["s"]
    # <s, s+1> has s(s-1)/2 gaps; the beta walk tests every subset of them.
    stat.candidates += 2 ** (s * (s - 1) // 2)
    stat.units += len(result.members)


def _count_cells(stat: Stat, args, kwargs, result) -> None:
    stat.units += len(result)


def _record_n(stat: Stat, args, kwargs, result) -> None:
    stat.args_seen.add(args[0] if args else kwargs["n"])


Observer = Callable[[Stat, tuple, dict, object], None]

#: (op, module, attribute path, observer).  Two targets may share an op.
TARGETS: tuple[tuple[str, str, str, Optional[Observer]], ...] = (
    ("multipoly.mul", "hooklab.multipoly", "MultiPoly.__mul__", None),
    ("multipoly.add", "hooklab.multipoly", "MultiPoly.__add__", None),
    ("multipoly.poly_gcd", "hooklab.multipoly", "poly_gcd", _gcd_bits),
    ("multipoly.exact_div", "hooklab.multipoly", "exact_div", _count_exact),
    ("multipoly.ratfunc_new", "hooklab.multipoly", "RatFunc.__init__", None),
    ("multipoly.ratfunc_mul", "hooklab.multipoly", "RatFunc.__mul__", None),
    ("multipoly.ratfunc_add", "hooklab.multipoly", "RatFunc.__add__", None),
    ("series.mul", "hooklab.series", "TruncatedSeries.__mul__", None),
    ("series.div", "hooklab.series", "TruncatedSeries.__truediv__", None),
    ("series.exp", "hooklab.series", "TruncatedSeries.exp", None),
    ("series.log", "hooklab.series", "TruncatedSeries.log", None),
    ("series.eta_product", "hooklab.series", "eta_product", None),
    ("series.gaussian_binomial", "hooklab.series", "gaussian_binomial", None),
    ("sturm.analysis", "hooklab.sturm", "sturm_analysis", None),
    ("sturm.unimodal", "hooklab.sturm", "unimodal", None),
    ("partitions.sss_cores", "hooklab.partitions", "enumerate_sss_cores", _count_cores),
    ("partitions.partition_list", "hooklab.partitions", "partition_list", None),
    ("partitions.cell_stats", "hooklab.partitions", "cell_stats", _count_cells),
    ("permstats.eulerian", "hooklab.permstats", "eulerian_A", None),
    ("permstats.eulerian", "hooklab.permstats", "eulerian_B", None),
    ("permstats.q_eulerian_B", "hooklab.permstats", "q_eulerian_B", None),
    ("identities.hook_square_polynomial", "hooklab.identities", "hook_square_polynomial", _record_n),
    ("identities.surd_hook_factor", "hooklab.identities", "surd_hook_factor", None),
    ("symfunc.schur_poly", "hooklab.symfunc", "schur_poly", None),
    ("harness.registry", "hooklab.harness", "registry", None),
    ("harness.warm", "hooklab.harness", "warm_shared_tables", None),
    ("cli.render", "hooklab.cli", "render_json", None),
)


def _resolve(module: str, path: str):
    obj = importlib.import_module(module)
    for part in path.split("."):
        obj = vars(obj).get(part) if isinstance(obj, type) else getattr(obj, part, None)
        if obj is None:
            return None
    return obj


def _cache_counts(functions) -> tuple[int, int]:
    hits = misses = 0
    for fn in functions:
        info = fn.cache_info()
        hits += info.hits
        misses += info.misses
    return hits, misses


class Tracer:
    """Wraps every target while active; use as a context manager."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: list[dict[str, Stat]] = []
        self._rebinder = Rebinder()
        self._caches: dict[str, tuple] = {}
        self._cache_start: dict[str, tuple[int, int]] = {}
        self._cache_end: dict[str, tuple[int, int]] = {}

    # -- per-thread state

    def _state(self):
        local = self._local
        if not hasattr(local, "table"):
            local.table, local.stack, local.depth = {}, [], {}
            with self._lock:
                self._tables.append(local.table)
        return local

    def _wrap(self, op: str, fn, observe: Optional[Observer]):
        state = self._state
        clock = time.perf_counter

        def traced(*args, **kwargs):
            local = state()
            stack, depth = local.stack, local.depth
            frame = [0.0]
            stack.append(frame)
            depth[op] = depth.get(op, 0) + 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                depth[op] -= 1
                stat = local.table.get(op)
                if stat is None:
                    stat = local.table[op] = Stat()
                stat.calls += 1
                stat.self_s += elapsed - frame[0]
                if not depth[op]:
                    stat.incl_s += elapsed
            if observe is not None:
                observe(stat, args, kwargs, result)
            return result

        return traced

    # -- install / remove

    def __enter__(self) -> "Tracer":
        for name in MODULES:
            importlib.import_module(name)
        from hooklab import partitions, permstats

        self._caches = {
            "partition_list": (partitions.partition_list,),
            "permstats": tuple(
                fn for fn in vars(permstats).values()
                if hasattr(fn, "cache_info") and fn.__module__ == permstats.__name__
            ),
        }
        self._cache_start = {k: _cache_counts(v) for k, v in self._caches.items()}
        for op, module, path, observe in TARGETS:
            fn = _resolve(module, path)
            if fn is not None:
                self._rebinder.rebind(fn, self._wrap(op, fn, observe))
        return self

    def __exit__(self, *exc) -> None:
        self._rebinder.restore()
        self._cache_end = {k: _cache_counts(v) for k, v in self._caches.items()}

    # -- results

    def stats(self) -> dict[str, Stat]:
        merged: dict[str, Stat] = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for op, stat in table.items():
                merged.setdefault(op, Stat()).merge(stat)
        return merged

    def cache_hit_ratio(self, name: str) -> float:
        (h0, m0), (h1, m1) = self._cache_start[name], self._cache_end[name]
        lookups = (h1 - h0) + (m1 - m0)
        return (h1 - h0) / lookups if lookups else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced repetition, by name."""
    stats = tracer.stats()

    def get(op: str) -> Stat:
        return stats.get(op, Stat())

    out: dict[str, float] = {}
    for op in ("multipoly.mul", "multipoly.add", "multipoly.poly_gcd", "multipoly.exact_div",
               "multipoly.ratfunc_new", "multipoly.ratfunc_mul", "multipoly.ratfunc_add",
               "partitions.sss_cores", "partitions.partition_list", "partitions.cell_stats",
               "harness.registry"):
        out[f"{op}.calls"] = get(op).calls
        out[f"{op}.self_s"] = get(op).self_s
    for op in ("series.mul", "series.div", "series.exp", "series.log", "series.eta_product",
               "series.gaussian_binomial", "sturm.analysis", "sturm.unimodal",
               "permstats.eulerian", "permstats.q_eulerian_B",
               "identities.hook_square_polynomial", "identities.surd_hook_factor",
               "symfunc.schur_poly"):
        out[f"{op}.calls"] = get(op).calls
        out[f"{op}.incl_s"] = get(op).incl_s
    gcd, div, cores = get("multipoly.poly_gcd"), get("multipoly.exact_div"), get("partitions.sss_cores")
    out["multipoly.poly_gcd.max_coeff_bits"] = gcd.max_bits
    out["multipoly.exact_div.hit_ratio"] = div.units / div.calls if div.calls else 0.0
    out["partitions.sss_cores.candidates"] = cores.candidates
    out["partitions.sss_cores.found"] = cores.units
    out["partitions.sss_cores.useful_ratio"] = cores.units / cores.candidates if cores.candidates else 0.0
    out["partitions.partition_list.hit_ratio"] = tracer.cache_hit_ratio("partition_list")
    out["partitions.cell_stats.cells"] = get("partitions.cell_stats").units
    out["permstats.cache_hit_ratio"] = tracer.cache_hit_ratio("permstats")
    out["identities.hook_square_polynomial.distinct_n"] = len(
        get("identities.hook_square_polynomial").args_seen)
    out["harness.warm_s"] = get("harness.warm").incl_s
    out["cli.render_s"] = get("cli.render").incl_s
    return out
