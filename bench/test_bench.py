"""Smoke test of the benchmark itself, each workload at its smallest size.

    python3 -m unittest discover -s bench -p 'test_*.py'

Checks that every end-to-end and per-layer metric named in BENCHMARK.json
is printed with its unit, that a wrong expected witness order is reported
as a failure, that the host-speed correction scales wall time by the
sampled speed, and that without the gcompat sources the benchmark exits
non-zero and prints no result.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from time import perf_counter
from unittest import mock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import speed  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def smallest(name):
    """The workload cut down to its tampered pair (plus one more on the CLI)."""
    wl = WORKLOADS[name]
    keep = {wl.tamper, wl.pairs[0].key}
    return dataclasses.replace(wl, pairs=tuple(p for p in wl.pairs if p.key in keep))


def run_bench(wl, trace, seed=3):
    out = io.StringIO()
    with mock.patch.dict(run.WORKLOADS, {wl.name: wl}), \
            contextlib.redirect_stdout(out):
        rc = run.main(["--workload", wl.name, "--seed", str(seed),
                       "--seconds", "0", "--trace", str(trace)])
    lines = out.getvalue().splitlines()
    return rc, lines, json.loads(lines[-1])


class BenchmarkSmoke(unittest.TestCase):
    def test_every_metric_is_printed_with_its_unit(self):
        for name in WORKLOADS:
            wl = smallest(name)
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    rc, lines, result = run_bench(wl, trace)
                    self.assertEqual(rc, 0, "\n".join(lines))
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    expected = {m["name"]: m["unit"] for m in SPEC[key]}
                    self.assertEqual(set(result["metrics"]), set(expected))
                    for metric, unit in expected.items():
                        self.assertEqual(result["metrics"][metric]["unit"], unit)
                        self.assertTrue(any(line.startswith(f"{metric}: ")
                                            and f" {unit}" in line
                                            for line in lines), metric)
                    if trace == 0:
                        self.assertTrue(any(line.startswith("failed_share: 0 share")
                                            for line in lines))

    def test_wrong_expected_order_is_a_failure(self):
        wl = smallest("cli-roundtrip")
        first = dataclasses.replace(wl.pairs[0],
                                    witness_order=wl.pairs[0].witness_order * 2)
        wl = dataclasses.replace(wl, pairs=(first,) + wl.pairs[1:])
        rc, lines, result = run_bench(wl, 0)
        self.assertEqual(rc, 1)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertTrue(any(line.startswith("FAIL ") and first.key in line
                            and "witness order" in line for line in lines))

    def test_tracer_replaces_and_restores_every_binding(self):
        if str(run.SRC) not in sys.path:
            sys.path.insert(0, str(run.SRC))
        gc = run.import_gcompat()
        mul = gc.perms.mul
        holders = [m for m in (gc.perms, gc.groups, gc.homs, gc.isos,
                               gc.inverse_limits, gc.hybrid, gc.witness)
                   if getattr(m, "mul", None) is mul]
        self.assertGreaterEqual(len(holders), 6)
        tracer = Tracer()
        tracer.install()
        try:
            for m in holders:
                self.assertIsNot(m.mul, mul, m.__name__)
                self.assertIs(m.mul.__wrapped__, mul)
            gc.named_group("Z4").elements()
            self.assertGreater(tracer.calls["perms.mul"], 0)
            self.assertEqual(tracer.calls["perms.closure"], 1)
            self.assertEqual(tracer.calls["catalog.named_group"], 1)
        finally:
            tracer.restore()
        for m in holders:
            self.assertIs(m.mul, mul, m.__name__)
        self.assertNotIn("__wrapped__", vars(gc.Homomorphism.__call__))

    def test_speed_correction_scales_by_the_sampled_speed(self):
        probe = SpeedProbe()
        # A slice every 20 ms at half the reference speed, none at t >= 2.
        probe.starts.extend(k * 0.02 for k in range(100))
        probe.durations.extend([2 * speed.NOMINAL_SLICE_S] * 100)
        own = 1.0 - 50 * 2 * speed.NOMINAL_SLICE_S
        self.assertAlmostEqual(probe.corrected(0.0, 1.0), own / 2)
        self.assertAlmostEqual(probe.corrected(2.1, 2.2), 0.05)
        with self.assertRaises(RuntimeError):
            probe.corrected(5.0, 6.0)
        with SpeedProbe() as live:
            t0 = perf_counter()
            while perf_counter() < t0 + 0.2:
                pass
        self.assertGreaterEqual(len(live.durations), 5)

    def test_no_sources_means_no_result(self):
        run.OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH, Path(tmp) / "bench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "cli-roundtrip",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
