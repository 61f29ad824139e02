"""Per-layer tracing of the dualgraph package, installed from outside.

The tracer wraps the public functions and methods of each layer module and
rebinds every module attribute that refers to them, so calls made through
``from .lattice import discriminant`` are seen too.  Nothing under ``src/``
changes, and ``uninstall`` puts the original objects back.

Each wrapped call measures its span with ``perf_counter_ns``; its self time
is the span minus the spans of the wrapped calls it made.  Calls into the
``graph`` layer run hundreds of thousands of times per census, so they are
kept as aggregated counters only; every other call also becomes a span
(call id, request id, parent id, name, start, end, size) held in memory and
written out when the run ends.

Trivial accessors (``weight``, ``has_vertex``, ``require_vertex``,
``Fiber.mult``) are not wrapped: they cost less than a wrapper, and their
time stays in their caller's self time.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
from statistics import median
from time import perf_counter_ns
from typing import Dict, List, Tuple

LAYERS = ("intmat", "lattice", "graph", "moves", "chains", "fibration", "resolution", "cli")
COUNTER_ONLY_LAYERS = ("graph",)
UNWRAPPED = {"weight", "has_vertex", "require_vertex", "mult"}


def _first(a, k, name):
    return a[0] if a else k[name]


def _selection_size(a, k, r):
    g = _first(a, k, "g")
    sel = a[1] if len(a) > 1 else k.get("selection")
    if sel is None:
        return len(g)
    return len(sel) if hasattr(sel, "__len__") else None


#: input size of a call, for n_max and the size-growth fit
SIZES = {
    "intmat.det_bareiss": lambda a, k, r: len(_first(a, k, "rows")),
    "intmat.charpoly": lambda a, k, r: len(_first(a, k, "rows")),
    "intmat.smith_normal_form": lambda a, k, r: len(_first(a, k, "rows")),
    "lattice.discriminant": _selection_size,
    "moves.apply_move": lambda a, k, r: len(_first(a, k, "g")),
    "fibration.fiber_key": lambda a, k, r: len(_first(a, k, "f").graph),
    "resolution.theorem_pipeline": lambda a, k, r: len(r.graph),
}

#: operation counts computed from call sizes (not measured): sum of n**power
OPS_POWER = {"intmat.det_bareiss": 3, "intmat.smith_normal_form": 3, "intmat.charpoly": 4}

#: per-call quantities read from results and summed
EXTRAS = {
    "moves.snc_minimalize": ("contracted", lambda r: len(r[1])),
    "chains.standardize_chain": ("moves", lambda r: len(r.log)),
    "fibration.enumerate_fibers": ("classes", len),
}


def _stats(name, *stats):
    return [f"{name}.{s}" for s in stats]


#: every per-layer metric, with its unit, better direction, and the
#: end-to-end metric (workload.metric) it should move
PER_LAYER: List[Tuple[str, str, str, str]] = []


def _add(names, targets):
    units = {"calls": ("count", "lower"), "self_s": ("s", "lower"),
             "n_max": ("vertices", "lower"), "vertices_max": ("vertices", "lower"),
             "ops_computed": ("ops", "lower"), "exponent": ("slope", "lower"),
             "contracted": ("count", "lower"), "moves": ("count", "lower")}
    for n in names:
        unit, better = units[n.rsplit(".", 1)[1]]
        PER_LAYER.append((n, unit, better, targets))


_add(_stats("intmat.det_bareiss", "calls", "self_s", "n_max", "ops_computed", "exponent"),
     "verify_sweep.throughput_per_s; little on chain_rewrite and fiber_census")
_add(_stats("intmat.charpoly", "calls", "self_s", "n_max", "ops_computed", "exponent")
     + _stats("intmat.smith_normal_form", "calls", "self_s", "n_max", "ops_computed",
              "exponent"),
     "lattice_kernels.throughput_per_s; ~0 elsewhere")
_add(_stats("lattice.discriminant", "calls", "self_s", "n_max"),
     "verify_sweep.throughput_per_s (large pairs), verify_sweep.call_p50_ms (small)")
_add(_stats("lattice.signature", "calls", "self_s")
     + _stats("lattice.definiteness", "calls", "self_s")
     + _stats("lattice.smith_invariants", "calls", "self_s"),
     "lattice_kernels.throughput_per_s")
_add(_stats("graph.WeightedGraph.neighbors", "calls", "self_s")
     + _stats("graph.SubDivisor.induced_edges", "calls", "self_s")
     + _stats("graph.SubDivisor.neighbors", "calls", "self_s")
     + _stats("graph.classify_shape", "calls", "self_s")
     + _stats("graph.intersection_matrix", "calls", "self_s"),
     "fiber_census.throughput_per_s, chain_rewrite.throughput_per_s, "
     "verify_sweep.call_p50_ms")
_add(_stats("moves.apply_move", "calls", "self_s", "exponent")
     + _stats("moves.snc_minimalize", "calls", "self_s", "contracted")
     + _stats("moves.MoveLog.replay", "calls", "self_s"),
     "chain_rewrite.throughput_per_s, verify_sweep.call_p50_ms")
_add(_stats("chains.standardize_chain", "calls", "self_s", "moves")
     + _stats("chains.chain_order", "calls", "self_s"),
     "chain_rewrite.throughput_per_s")
_add(_stats("fibration.fiber_key", "calls", "self_s", "exponent")
     + _stats("fibration.fiber_blow_up", "calls", "self_s")
     + _stats("fibration.validate_fiber", "calls", "self_s")
     + ["fibration.enumerate_fibers.self_s"],
     "fiber_census.throughput_per_s")
PER_LAYER.append(("fibration.key_calls_per_class", "ratio", "lower",
                  "fiber_census.throughput_per_s"))
PER_LAYER.append(("fibration.classes_per_blow_up", "ratio", "higher",
                  "fiber_census.throughput_per_s"))
_add(_stats("resolution.theorem_pipeline", "calls", "self_s", "vertices_max"),
     "verify_sweep.call_p50_ms")
_add(_stats("cli.main", "calls", "self_s") + _stats("cli.render", "calls", "self_s"),
     "verify_sweep.call_p50_ms, fiber_census.call_p50_ms")
PER_LAYER.append(("trace.overhead_ratio", "ratio", "higher", "none: traced / untraced "
                  "throughput_per_s of the same workload"))


def _targets(pkg_name: str):
    """(qualified name, owner, attribute, original) for every wrapped callable."""
    out = []
    for layer in LAYERS:
        mod = sys.modules[f"{pkg_name}.{layer}"]
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                out.append((f"{layer}.{name}", mod, name, obj))
            elif inspect.isclass(obj):
                for attr, fn in vars(obj).items():
                    if (inspect.isfunction(fn) and not attr.startswith("_")
                            and attr not in UNWRAPPED):
                        out.append((f"{layer}.{name}.{attr}", obj, attr, fn))
    return out


class Tracer:
    """Wraps the package's layers and accumulates spans and counters."""

    def __init__(self, pkg_name: str = "dualgraph"):
        self.pkg_name = pkg_name
        self.stack: List[list] = []
        self.spans: List[tuple] = []
        self.calls: Dict[str, int] = {}
        self.self_ns: Dict[str, int] = {}
        self.points: Dict[str, List[Tuple[int, int]]] = {}
        self.extras: Dict[str, int] = {}
        self.request = 0
        self._next_id = 0
        self._patches: List[tuple] = []

    def reset(self) -> None:
        """Forget everything recorded so far; the wrappers stay installed."""
        self.spans.clear()
        self._next_id = 0
        for table in (self.calls, self.self_ns, self.extras):
            for key in table:
                table[key] = 0
        for pts in self.points.values():
            pts.clear()

    # ------------------------------------------------------------ install

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == self.pkg_name or n.startswith(self.pkg_name + "."))]
        for qname, owner, attr, fn in _targets(self.pkg_name):
            layer = qname.split(".", 1)[0]
            wrapper = self._wrap(fn, qname, layer in COUNTER_ONLY_LAYERS)
            if inspect.isclass(owner):
                self._patch(owner, attr, fn, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, name, fn, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, fn, qname: str, counter_only: bool):
        stack, spans = self.stack, self.spans
        calls, self_ns = self.calls, self.self_ns
        calls[qname] = 0
        self_ns[qname] = 0
        sizer = SIZES.get(qname)
        points = self.points.setdefault(qname, []) if sizer else None
        extra = EXTRAS.get(qname)
        if extra:
            self.extras[f"{qname}.{extra[0]}"] = 0
        tracer = self

        def wrapper(*a, **k):
            parent = stack[-1][1] if stack else 0
            if counter_only:
                frame = [0, parent]
            else:
                tracer._next_id += 1
                frame = [0, tracer._next_id]
            stack.append(frame)
            ok, result = False, None
            t0 = perf_counter_ns()
            try:
                result = fn(*a, **k)
                ok = True
                return result
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                span = t1 - t0
                if stack:
                    stack[-1][0] += span
                own = span - frame[0]
                calls[qname] += 1
                self_ns[qname] += own
                size = None
                if ok and sizer:
                    size = sizer(a, k, result)
                    if size is not None:
                        points.append((size, own))
                if ok and extra:
                    tracer.extras[f"{qname}.{extra[0]}"] += extra[1](result)
                if not counter_only:
                    spans.append((frame[1], tracer.request, parent, qname, t0, t1, size))

        return functools.update_wrapper(wrapper, fn)

    # ------------------------------------------------------------ results

    def work_counts(self) -> Dict[str, int]:
        """Counts that must repeat exactly for the same code and inputs."""
        counts = {f"{q}.calls": c for q, c in self.calls.items()}
        counts.update(self.extras)
        for qname, power in OPS_POWER.items():
            counts[f"{qname}.ops_computed"] = sum(n ** power for n, _ in self.points[qname])
        return dict(sorted(counts.items()))

    def exponent(self, qname: str) -> dict:
        """Slope of log self time against log size over the traced calls.

        Self times are first reduced to one median per size, then the fit
        uses the sizes in the upper half of the log-size range (at least
        three of them), where per-call overheads weigh least.
        """
        by_size: Dict[int, List[int]] = {}
        for n, own in self.points.get(qname, ()):
            if n >= 2 and own > 0:
                by_size.setdefault(n, []).append(own)
        sizes = sorted(by_size)
        if len(sizes) < 2:
            return {"value": 0.0, "defined": False, "sizes": sizes}
        upper = [n for n in sizes if n >= math.sqrt(sizes[-1])]
        used = upper if len(upper) >= 3 else sizes
        xs = [math.log(n) for n in used]
        ys = [math.log(median(by_size[n])) for n in used]
        mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
        sxx = sum((x - mx) ** 2 for x in xs)
        slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
        return {"value": slope, "defined": True, "n_min": used[0], "n_max": used[-1],
                "sizes": len(used)}

    def layer_metrics(self) -> Dict[str, float]:
        """Every per-layer metric of PER_LAYER except trace.overhead_ratio."""
        counts = self.work_counts()
        out: Dict[str, float] = {}
        for name, _unit, _better, _targets in PER_LAYER:
            if name == "trace.overhead_ratio":
                continue
            if name == "fibration.key_calls_per_class":
                classes = counts["fibration.enumerate_fibers.classes"]
                out[name] = counts["fibration.fiber_key.calls"] / classes if classes else 0.0
                continue
            if name == "fibration.classes_per_blow_up":
                blow_ups = counts["fibration.fiber_blow_up.calls"]
                out[name] = (counts["fibration.enumerate_fibers.classes"] / blow_ups
                             if blow_ups else 0.0)
                continue
            qname, stat = name.rsplit(".", 1)
            if stat == "self_s":
                out[name] = self.self_ns[qname] / 1e9
            elif stat in ("n_max", "vertices_max"):
                out[name] = max((n for n, _ in self.points[qname]), default=0)
            elif stat == "exponent":
                out[name] = self.exponent(qname)["value"]
            else:
                out[name] = counts[name]
        return out

    def layer_totals(self) -> Dict[str, float]:
        """Self seconds per layer, summed over every wrapped function."""
        totals = {layer: 0.0 for layer in LAYERS}
        for qname, ns in self.self_ns.items():
            totals[qname.split(".", 1)[0]] += ns / 1e9
        return totals

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for call_id, request, parent, name, t0, t1, size in self.spans:
                fh.write(json.dumps({"id": call_id, "request": request, "parent": parent,
                                     "name": name, "start_ns": t0, "end_ns": t1,
                                     "size": size}) + "\n")
