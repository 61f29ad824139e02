"""Benchmark of the dualgraph package: four certified workloads.

    python3 bench/run.py --workload verify_sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run it from the root of a source tree; it imports the package from
``src/`` of that tree and refuses to run against any other copy.  Each
workload runs in one single-threaded process as a closed loop with one
client: the next call starts when the previous one and its check are done.
Inputs come from ``--seed`` only.  The timed phase repeats whole passes
over the inputs until ``--seconds`` have passed and at least three passes
are done.  Every output is checked after its call, outside the timed
interval.

With ``--trace 0`` the last line of output is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
one traced pass (see ``tracer.py``), and the run also checks that two
traced passes agree exactly on every work count.  ``--workload all`` runs
each workload in its own process, one after the other, and prints a table.

A run record (Python version, platform, CPUs, commit, seed, the imported
``dualgraph.__file__`` and the details behind each metric) and, for traced
runs, the spans are written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
PKG = "dualgraph"

sys.path.insert(0, str(BENCH))
from tracer import PER_LAYER, Tracer  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

SETUP_REPEATS = 7
MIN_PASSES = 3
#: duration of one reference_kernel() call on the nominal machine
REF_NOMINAL_S = 0.008
#: reference-kernel time spent per second of call time during a measured phase
REF_SHARE = 0.1
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: fit ranges are capped by what the dense kernels finish in one run today
EXPONENT_NOTE = ("sizes are capped so the dense kernels finish within a run: "
                 "matrices up to 40 (lattice_kernels), graphs up to about 340 "
                 "vertices (verify_sweep); extend toward 800 vertices once the "
                 "forest kernel lands")


class BenchError(Exception):
    """The benchmark cannot run here: wrong tree, missing sources or fixtures."""


def source_digest() -> str:
    """SHA-256 over the package's source files, names included."""
    h = hashlib.sha256()
    for p in sorted((SRC / PKG).glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def git_commit() -> Optional[str]:
    """HEAD of the tree's git repository, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def import_package():
    """Import dualgraph afresh from this tree's src/, dropping any earlier import."""
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == PKG or n.startswith(PKG + ".")]:
        del sys.modules[name]
    pkg = importlib.import_module(PKG)
    importlib.import_module(PKG + ".cli")
    where = Path(pkg.__file__).resolve()
    if where.parent != (SRC / PKG).resolve():
        raise BenchError(f"{PKG} imported from {where}, not from {SRC / PKG}")
    return pkg


def setup(wl: Workload, seed: int, tiny: bool):
    """Import, generate inputs and load fixtures; return them with the time taken."""
    t0 = time.perf_counter()
    pkg = import_package()
    items = wl.inputs(pkg, seed, tiny)
    try:
        fixtures = wl.fixtures(ROOT, tiny)
    except OSError as e:
        raise BenchError(f"cannot read fixtures: {e}") from None
    return time.perf_counter() - t0, pkg, items, fixtures


def reference_kernel() -> int:
    """Fixed pure-Python work that tracks how fast the machine runs right now.

    It mixes what the package spends its time on: dict and tuple churn,
    products of big integers, and building and sorting lists of small tuples
    the way a graph rebuild does.  On a shared host the speed of a whole run
    drifts by tens of percent; the time of this kernel drifts with it, so
    dividing by it removes most of that drift from the metrics.
    """
    table = {}
    acc = 1
    for i in range(2500):
        table[(i * 7919) % 1009] = (i, i + 1)
        acc = (acc * 3 + i) % (10 ** 40 + 7) * 12345678901234567 % 10 ** 60
    out = len(sorted(table.items())) + acc % 7
    edges = [((i * 7919) % 613, (i * 104729) % 613) for i in range(1200)]
    for r in range(6):
        ordered = sorted((a, b) if a <= b else (b, a) for a, b in edges)
        index = {e: i for i, e in enumerate(ordered[::3])}
        out += len(index) + len(tuple(e for e in ordered if e[0] != r))
    return out


class SpeedProbe:
    """Reference-kernel samples taken between calls, outside timed intervals.

    After each call the probe samples until its own time reaches REF_SHARE
    of the call's, so the samples are spread like the call time they scale.
    """

    def __init__(self):
        self.samples: List[float] = []
        self.debt = 0.0

    def sample(self) -> float:
        t0 = time.perf_counter()
        reference_kernel()
        self.samples.append(time.perf_counter() - t0)
        return self.samples[-1]

    def after_call(self, call_s: float) -> None:
        self.debt += REF_SHARE * call_s
        while self.debt > 0:
            self.debt -= self.sample()

    def slowdown(self) -> float:
        """Mean reference time over its nominal value; > 1 on a slow machine."""
        return sum(self.samples) / len(self.samples) / REF_NOMINAL_S


class Phase:
    """Calls, latencies and check results of one measured phase."""

    def __init__(self, n_items: int):
        self.latency: List[List[float]] = [[] for _ in range(n_items)]
        self.units = 0
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.outputs: Dict[int, object] = {}
        self.passes = 0
        self.wall_s = 0.0
        self.probe = SpeedProbe()

    def fail(self, problems: List[str], units: int = 0) -> None:
        """Count a failed call; units it was credited with are taken back."""
        self.failed += 1
        self.units -= units
        if len(self.problems) < 20:
            self.problems.append("; ".join(problems))

    def latencies(self) -> List[float]:
        return [x for lat in self.latency for x in lat]


def run_passes(wl: Workload, pkg, items, fixtures, seconds: float, min_passes: int,
               tracer: Optional[Tracer] = None, keep_outputs: bool = False) -> Phase:
    """Closed loop: whole passes over the items until time and pass count are met."""
    ph = Phase(len(items))
    ph.probe.sample()
    start = time.perf_counter()
    while ph.passes < min_passes or time.perf_counter() - start < seconds:
        for i, item in enumerate(items):
            if tracer is not None:
                tracer.request = ph.attempted + 1
            ph.attempted += 1
            raised = None
            t0 = time.perf_counter()
            try:
                out = wl.call(pkg, item)
            except Exception as e:  # noqa: BLE001 - a raising call is a failed call
                raised = e
            ph.latency[i].append(time.perf_counter() - t0)
            ph.probe.after_call(ph.latency[i][-1])
            if raised is not None:
                ph.fail([f"item {i} raised {type(raised).__name__}: {raised}"])
                continue
            try:
                bad = wl.check(item, out, fixtures)
                if not bad:
                    ph.units += wl.units(item, out)
            except Exception as e:  # noqa: BLE001 - a malformed output fails its check
                bad = [f"check raised {type(e).__name__}: {e}"]
            if bad:
                ph.fail([f"item {i}: " + "; ".join(bad)])
            elif keep_outputs and ph.passes == 0:
                ph.outputs[i] = out
        ph.passes += 1
    ph.wall_s = time.perf_counter() - start
    ph.probe.sample()
    return ph


def throughput(ph: Phase, slowdown: float) -> float:
    """Certified output units per second of call time, at nominal speed."""
    return ph.units / (sum(ph.latencies()) / slowdown)


def tail(latencies: List[float], passes: int) -> dict:
    """Highest ladder percentile with at least ten inputs' calls beyond it.

    Nearest-rank percentiles.  Every pass calls each input once, so a
    percentile qualifies when at least ten calls per pass lie beyond it;
    repeated calls on one input are not independent samples of the tail.
    When no percentile qualifies, the slowest call is reported, labelled as
    percentile 100.
    """
    xs = sorted(latencies)
    n = len(xs)
    for p in TAIL_LADDER:
        k = max(0, math.ceil(n * p / 100.0) - 1)
        if n - 1 - k >= 10 * passes:
            return {"percentile": p, "samples": n, "beyond": n - 1 - k, "value_s": xs[k]}
    return {"percentile": 100.0, "samples": n, "beyond": 0, "value_s": xs[-1]}


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool, tiny: bool = False,
                 min_passes: int = MIN_PASSES, write: bool = True) -> dict:
    """Run one workload; return the result line and the run record."""
    setups, scaled, probe = [], [], SpeedProbe()
    for _ in range(SETUP_REPEATS):
        pkg = items = fixtures = None
        gc.collect()
        before = probe.sample()
        dt, pkg, items, fixtures = setup(wl, seed, tiny)
        setups.append(dt)
        scaled.append(dt * 2 * REF_NOMINAL_S / (before + probe.sample()))
    record = {
        "workload": wl.name, "seed": seed, "seed_changes_inputs": wl.seeded,
        "seconds": seconds, "trace": int(trace), "tiny": tiny,
        "python": sys.version.split()[0], "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "commit": git_commit(), "src_sha256": source_digest(),
        "dualgraph_file": str(Path(pkg.__file__).resolve()),
        "items": len(items), "setup_s_raw": setups,
        "load": {"clients": 1, "loop": "closed", "threads": 1},
    }

    try:
        wl.call(pkg, items[0])  # warm-up; the package keeps no caches
    except Exception as e:  # noqa: BLE001 - the timed calls count this failure
        record["warmup_error"] = f"{type(e).__name__}: {e}"
    ph = run_passes(wl, pkg, items, fixtures, seconds, min_passes,
                    keep_outputs=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # the sympy oracle is imported after the peak RSS is read
    for i, bad in wl.final_checks(items, ph.outputs, seed, tiny).items():
        ph.fail([f"item {i}: " + "; ".join(bad)], wl.units(items[i], ph.outputs[i]))
    ph.outputs.clear()
    record["oracle"] = wl.oracle

    slow = ph.probe.slowdown()
    lat = ph.latencies()
    tl = tail(lat, ph.passes)
    e2e = {
        "throughput_per_s": (throughput(ph, slow), "1/s"),
        "call_p50_ms": (median(lat) / slow * 1e3, "ms"),
        "call_tail_ms": (tl["value_s"] / slow * 1e3, "ms"),
        "certified_ratio": ((ph.attempted - ph.failed) / ph.attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (median(scaled), "s"),
    }
    record.update({
        "throughput_unit": f"{wl.unit}/s", "passes": ph.passes, "timed_wall_s": ph.wall_s,
        "attempted": ph.attempted, "failed": ph.failed,
        "failed_ratio": ph.failed / ph.attempted, "problems": ph.problems,
        "call_tail": tl, "end_to_end": {k: v for k, (v, _) in e2e.items()},
        "slowdown": slow, "reference_samples": len(ph.probe.samples),
        "reference_nominal_s": REF_NOMINAL_S,
        "raw": {"throughput_per_s": throughput(ph, 1.0), "call_p50_ms": median(lat) * 1e3,
                "call_tail_ms": tl["value_s"] * 1e3, "setup_s": median(setups)},
    })
    attempted, failed = ph.attempted, ph.failed
    correct = failed == 0

    if trace:
        layer, counts_ok = trace_passes(wl, pkg, items, fixtures, seed, tiny, write, record)
        untraced = e2e["throughput_per_s"][0]
        layer["trace.overhead_ratio"] = (record["traced_throughput_per_s"] / untraced
                                         if untraced else 0.0)
        attempted += record["traced_attempted"]
        failed += record["traced_failed"]
        correct = correct and failed == 0 and counts_ok
        units = {name: unit for name, unit, _b, _t in PER_LAYER}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layer.items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record["result"] = result
    if write:
        OUT.mkdir(parents=True, exist_ok=True)
        path = OUT / f"record-{wl.name}-seed{seed}-trace{int(trace)}.json"
        path.write_text(json.dumps(record, indent=2, sort_keys=True, default=str) + "\n")
    return {"result": result, "record": record}


def trace_passes(wl, pkg, items, fixtures, seed, tiny, write, record):
    """Two traced passes; per-layer metrics of the first, work counts of both."""
    tracer = Tracer(PKG)
    tracer.install()
    try:
        first = run_passes(wl, pkg, items, fixtures, 0, 1, tracer=tracer)
        layer = tracer.layer_metrics()
        counts = tracer.work_counts()
        exponents = {q: tracer.exponent(q) for q in tracer.points}
        totals = tracer.layer_totals()
        per_function = {q: {"calls": tracer.calls[q], "self_s": tracer.self_ns[q] / 1e9}
                        for q in sorted(tracer.calls) if tracer.calls[q]}
        if write:
            OUT.mkdir(parents=True, exist_ok=True)
            tracer.write_spans(OUT / f"spans-{wl.name}-seed{seed}.jsonl")
        tracer.reset()
        second = run_passes(wl, pkg, items, fixtures, 0, 1, tracer=tracer)
        repeat = tracer.work_counts()
    finally:
        tracer.uninstall()
    mismatch = sorted(k for k in counts if counts[k] != repeat.get(k))
    stored = _stored_counts(wl.name, seed, record["src_sha256"], counts, write and not tiny)
    record.update({
        "traced_throughput_per_s": throughput(first, first.probe.slowdown()),
        "traced_attempted": first.attempted + second.attempted,
        "traced_failed": first.failed + second.failed,
        "traced_problems": first.problems + second.problems,
        "work_counts": counts, "work_count_mismatch_in_run": mismatch,
        "work_count_mismatch_across_runs": stored,
        "exponents": exponents, "exponent_note": EXPONENT_NOTE,
        "layer_self_s": totals, "per_function": per_function,
        "per_layer_targets": {n: t for n, _u, _b, t in PER_LAYER},
    })
    return layer, not mismatch and not stored


def _stored_counts(name, seed, digest, counts, use_store) -> List[str]:
    """Compare work counts with an earlier run of the same sources and seed."""
    if not use_store:
        return []
    path = OUT / "counts" / f"{digest[:16]}-{name}-seed{seed}.json"
    if path.is_file():
        earlier = json.loads(path.read_text())
        return sorted(k for k in set(earlier) | set(counts) if earlier.get(k) != counts.get(k))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counts, indent=1, sort_keys=True) + "\n")
    return []


def summary_lines(name: str, result: dict, record: dict) -> List[str]:
    lines = [f"{name}: {record['attempted']} calls in {record['passes']} passes, "
             f"failed_ratio = {record['failed_ratio']:.6g}, "
             f"throughput in {record['throughput_unit']}",
             f"  times scaled to nominal speed: machine slowdown {record['slowdown']:.4g} "
             f"from {record['reference_samples']} reference samples; unscaled "
             + ", ".join(f"{k} {v:.6g}" for k, v in record["raw"].items())]
    tl = record["call_tail"]
    for k, m in result["metrics"].items():
        note = ""
        if k == "call_tail_ms":
            note = f"  (p{tl['percentile']:g} of {tl['samples']} calls)"
        lines.append(f"  {k:40s} {m['value']:>16.6g} {m['unit']}{note}")
    for p in record["problems"][:5]:
        lines.append(f"  problem: {p}")
    return lines


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own process, one after the other."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 2
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for k, m in res["metrics"].items():
            merged["metrics"][f"{name}.{k}"] = m
    print(json.dumps(merged, sort_keys=True))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / PKG / "__init__.py").is_file():
        print(f"error: no package sources at {SRC / PKG}; run from a source tree",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    try:
        out = run_workload(WORKLOADS[args.workload](), args.seed, args.seconds,
                           bool(args.trace))
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    result, record = out["result"], out["record"]
    print("\n".join(summary_lines(args.workload, result, record)))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
