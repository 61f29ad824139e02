"""Smoke test of the benchmark itself.

Runs every workload at a tiny size, checks that each metric named in
BENCHMARK.json is emitted with its unit, and checks that corrupted outputs
and unrepeatable work counts are counted as failures rather than passing.

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracer import PER_LAYER  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    ChainRewrite,
    FiberCensus,
    LatticeKernels,
    VerifySweep,
)

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def tiny_run(wl, trace=False):
    return run.run_workload(wl, seed=3, seconds=0, trace=trace, tiny=True, min_passes=1,
                            write=False)


def corrupted(cls, corrupt):
    """A workload whose every output passes through corrupt(pkg, item, output)."""
    wl = cls()
    call = wl.call
    wl.call = lambda pkg, item: corrupt(pkg, item, call(pkg, item))
    return wl


class SpecTest(unittest.TestCase):
    def test_spec_lists_the_workloads_and_layer_metrics(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(WORKLOADS))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]],
                         [(n, u, b) for n, u, b, _t in PER_LAYER])

    def test_every_metric_is_emitted_on_every_workload(self):
        e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for name, cls in WORKLOADS.items():
            for trace, want in ((False, e2e), (True, layer)):
                with self.subTest(workload=name, trace=trace):
                    out = tiny_run(cls(), trace)
                    res = out["result"]
                    self.assertTrue(res["correct"], out["record"]["problems"])
                    self.assertEqual(res["failed"], 0)
                    self.assertEqual({k: m["unit"] for k, m in res["metrics"].items()}, want)


class CorruptedOutputTest(unittest.TestCase):
    def assertAllFailed(self, wl):
        out = tiny_run(wl)
        res, record = out["result"], out["record"]
        self.assertFalse(res["correct"])
        self.assertGreater(res["attempted"], 0)
        self.assertEqual(res["failed"], res["attempted"])
        self.assertEqual(record["failed_ratio"], 1.0)
        self.assertEqual(res["metrics"]["certified_ratio"]["value"], 0.0)

    def test_certificate_with_d_v1_off_by_one(self):
        def bump(pkg, item, out):
            rc, text, err = out
            payload = json.loads(text)
            payload["results"]["d_v1"] += 1
            return rc, json.dumps(payload, sort_keys=True, indent=2) + "\n", err

        self.assertAllFailed(corrupted(VerifySweep, bump))

    def test_by_size_entry_off_by_one(self):
        def bump(pkg, item, out):
            rc, text, err = out
            payload = json.loads(text)
            by_size = payload["results"]["by_size"]
            by_size[max(by_size, key=int)] += 1
            return rc, json.dumps(payload, sort_keys=True, indent=2) + "\n", err

        self.assertAllFailed(corrupted(FiberCensus, bump))

    def test_replay_that_drops_one_move(self):
        def drop(pkg, item, out):
            res, _forward, back = out
            return res, pkg.MoveLog(res.log.moves[:-1]).replay(item["graph"]), back

        self.assertAllFailed(corrupted(ChainRewrite, drop))

    def test_discriminant_off_by_one(self):
        def bump(pkg, item, out):
            inv, sig = out
            return dataclasses.replace(inv, discriminant=inv.discriminant + 1), sig

        self.assertAllFailed(corrupted(LatticeKernels, bump))


class WorkCountTest(unittest.TestCase):
    def test_unrepeatable_work_counts_fail_the_run(self):
        wl = ChainRewrite()
        call, made = wl.call, itertools.count()

        def drifting(pkg, item):
            # extra work that grows with every call, so no two passes match
            for _ in range(next(made)):
                pkg.chain_order(item["graph"])
            return call(pkg, item)

        wl.call = drifting
        out = run.run_workload(wl, seed=3, seconds=0, trace=True, tiny=True, min_passes=1,
                               write=False)
        self.assertFalse(out["result"]["correct"])
        self.assertIn("chains.chain_order.calls",
                      out["record"]["work_count_mismatch_in_run"])


class OutsideSourceTreeTest(unittest.TestCase):
    def test_refuses_to_run_without_the_sources(self):
        run.OUT.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
            shutil.copytree(BENCH, Path(tmp) / "bench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            shutil.copy(BENCH.parent / "BENCHMARK.json", tmp)
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "verify_sweep", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
