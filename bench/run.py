"""gcompat benchmark: time to a verified verdict, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from `src/`.
Workloads are defined in `workloads.py`: nilpotent-order8,
squarefree-stretch and cli-roundtrip. One process, one thread, a closed
loop with a single caller: each build or verify starts when the previous
one has finished. The speed sampler of `speed.py` is a second thread, but
it holds the GIL while it runs, so it never runs beside the caller.

The seed picks the kernel-iso entries swapped in the tampered certificate
and seeds the verifier's random samples (`rng` in the library, `--seed` in
the CLI). A run first sets up several times (import gcompat, construct
the workload's target groups), then runs whole passes until the next one
would end past `--seconds`, with at least two passes so that their pins
can be compared: two passes with different pins are a failure.

`--trace 0` reports the end-to-end metrics: the median over passes of
build and verify seconds, the median set-up time, peak RSS and the
certificate bytes of one pass. `--trace 1` runs one untraced pass, then
traced passes, and reports per-layer figures for one set-up plus the
median traced pass, and the tracing overhead. The last line of stdout is
one JSON object; a copy of the run's record, pins included, goes to
`bench/out/`, and the traced run writes its spans there too.

Times are reference seconds: the host's speed is sampled all through the
run (see `speed.py`) and each timed call's wall time is scaled to what it
would be at the reference speed, because on a shared host that speed
drifts by up to 2x over seconds to minutes. The wall-time median is
printed beside each, and the record keeps every pass's value. Per-layer
self times are wall times, the sampler's share (about 1%) included.

Exit status: 0 when every correctness check passed, 1 when one failed,
2 when the gcompat sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc as garbage
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

sys.path.insert(0, str(BENCH))

from speed import SpeedProbe  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Gate, cli_pass, library_pass  # noqa: E402

SETUP_REPEATS = 9
MIN_PASSES = 2

PER_LAYER = {name: "count" for name in [
    "perms.mul.calls", "perms.closure.calls", "perms.closure.elements",
    "groups.from_elements.calls", "groups.from_elements.closure_elements",
    "groups.max_enumerated_order", "homs.quotient.calls", "homs.eval.calls",
    "isos.find_isomorphism.calls", "inverse_limits.star_limit.calls",
    "inverse_limits.encode.calls", "inverse_limits.decode.calls",
    "hybrid.hybrid_wreath.calls", "verify.checks.total",
    "verify.checks.sampled_or_skipped",
]}
PER_LAYER.update({name: "s" for name in [
    "perms.closure.self_s", "perms.StabilizerChain.self_s",
    "groups.from_elements.self_s", "homs.quotient.self_s",
    "homs.validate.self_s", "homs.kernel.self_s",
    "isos.find_isomorphism.self_s", "inverse_limits.star_limit.self_s",
    "hybrid.hybrid_wreath.self_s", "witness.comp_membership.self_s",
    "witness.build_witness_length2.self_s",
    "witness.build_recursion_step.self_s", "witness.compose_witness.self_s",
    "witness.verify_witness.self_s", "verify.p-homomorphism_s",
    "verify.ker-matches_s", "verify.quotient-isomorphic_s",
    "verify.kernel-iso_s", "verify.kernel-iso-independent-search_s",
    "verify.good-at-extendable_s",
    "descriptors.certificate_to_descriptor.self_s",
    "descriptors.dumps.self_s",
    "descriptors.certificate_from_descriptor.self_s", "cli.run.self_s",
    "catalog.named_group.self_s",
]})
PER_LAYER["trace.overhead_share"] = "share"


def import_gcompat():
    """Import gcompat afresh, so each set-up pays the full import."""
    for name in [m for m in sys.modules
                 if m == "gcompat" or m.startswith("gcompat.")]:
        del sys.modules[name]
    gc = importlib.import_module("gcompat")
    importlib.import_module("gcompat.cli")
    importlib.import_module("gcompat.descriptors")
    return gc


def make_groups(gc, wl):
    return {name: gc.named_group(name) for name in wl.group_names()}


def setup(wl):
    """Set up SETUP_REPEATS times; returns the last set-up and the wall
    interval of each, as one-interval lists like a pass's timed calls."""
    intervals = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        gc = import_gcompat()
        groups = make_groups(gc, wl)
        intervals.append([(t0, perf_counter())])
    return gc, groups, intervals


class Runner:
    """Runs passes of one workload and keeps what they produced."""

    def __init__(self, gc, wl, seed, workdir):
        self.gc, self.wl, self.seed, self.workdir = gc, wl, seed, workdir
        self.tracer = None
        self.gate = Gate()
        self.first_pins = None

    def attach(self, tracer):
        """Trace the following passes; operation names become span items."""
        self.tracer = tracer
        self.gate.on_op = lambda name: setattr(tracer, "item", name)

    def _untraced(self):
        return self.tracer.suspended() if self.tracer else contextlib.nullcontext()

    def run_pass(self, groups, label):
        garbage.collect()
        if self.wl.kind == "cli":
            res = cli_pass(self.gc, self.wl, self.seed, self.gate, label,
                           self.workdir)
        else:
            res = library_pass(self.gc, self.wl, groups, self.seed, self.gate,
                               label, self._untraced)
        if self.first_pins is None:
            self.first_pins = res.pins
        else:
            for key in sorted(set(self.first_pins) | set(res.pins)):
                with self.gate.op(f"{label} {key} pins") as problems:
                    if res.pins.get(key) != self.first_pins.get(key):
                        problems.append("differ from the first pass: "
                                        f"{res.pins.get(key)} vs "
                                        f"{self.first_pins.get(key)}")
        return res

    def run_until(self, groups, deadline, min_passes, label, on_pass=None):
        results, longest = [], 0.0
        while True:
            t0 = perf_counter()
            results.append(self.run_pass(groups, f"{label}{len(results) + 1}"))
            if on_pass is not None:
                on_pass()
            longest = max(longest, perf_counter() - t0)
            if len(results) >= min_passes and perf_counter() + longest > deadline:
                return results


def summary(values, unit):
    return {"value": statistics.median(values), "unit": unit,
            "max": max(values), "n": len(values)}


def seconds_summary(probe, timed):
    """Median reference seconds over `timed`, a list (one entry per pass
    or set-up) of lists of wall intervals; the wall median rides along."""
    values = [sum(probe.corrected(*iv) for iv in ivs) for ivs in timed]
    walls = [sum(t1 - t0 for t0, t1 in ivs) for ivs in timed]
    return dict(summary(values, "s"), wall=statistics.median(walls),
                each=values, each_wall=walls)


def measure(wl, seed, seconds, trace):
    """One run of one workload; returns the run record."""
    OUT.mkdir(exist_ok=True)
    with SpeedProbe() as probe, \
            tempfile.TemporaryDirectory(dir=OUT) as tmp:
        gc, groups, setups = setup(wl)
        start = perf_counter()
        deadline = start + seconds
        if trace:
            record = _traced(gc, wl, seed, Path(tmp), groups, deadline, probe)
        else:
            runner = Runner(gc, wl, seed, Path(tmp))
            passes = runner.run_until(groups, deadline, MIN_PASSES, "pass ")
        measured_s = perf_counter() - start
    if not trace:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        record = {
            "metrics": {
                "setup_s": seconds_summary(probe, setups),
                "build_s": seconds_summary(probe, [p.build for p in passes]),
                "verify_s": seconds_summary(probe,
                                            [p.verify for p in passes]),
                "peak_rss_mb": {"value": rss, "unit": "MB"},
                "cert_bytes": summary([p.cert_bytes for p in passes],
                                      "bytes"),
            },
            "gate": runner.gate,
            "pins": runner.first_pins,
        }
    speeds = probe.speeds()
    record["measured_s"] = measured_s
    record["host_speed"] = {"median": statistics.median(speeds),
                            "min": min(speeds), "max": max(speeds),
                            "samples": len(speeds), "cpu": probe.cpu}
    return record


def _traced(gc, wl, seed, workdir, groups, deadline, probe):
    runner = Runner(gc, wl, seed, workdir)
    base = runner.run_pass(groups, "untraced pass ")
    tracer = Tracer()
    runner.attach(tracer)
    tracer.install()
    try:
        tracer.item = "setup"
        groups = make_groups(gc, wl)
        setup_totals = tracer.totals()
        per_pass = []

        def take():
            per_pass.append(tracer.totals())
            tracer.reset_totals()

        tracer.reset_totals()
        passes = runner.run_until(groups, deadline, 1, "traced pass ", take)
    finally:
        tracer.restore()
    tracer.write_spans(OUT / f"{wl.name}-seed{seed}-spans.json.gz")

    metrics = {}
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead_share":
            continue
        median = statistics.median(t.get(name, 0) for t in per_pass)
        if name == "groups.max_enumerated_order":
            value = max(median, setup_totals.get(name, 0))
        else:
            value = setup_totals.get(name, 0) + median
        metrics[name] = {"value": value, "unit": unit}
    def pass_s(p):
        return sum(probe.corrected(*iv) for iv in p.build + p.verify)

    untraced = pass_s(base)
    traced = statistics.median(pass_s(p) for p in passes)
    metrics["trace.overhead_share"] = {
        "value": (traced - untraced) / untraced, "unit": "share"}
    pins = dict(runner.first_pins)
    pins["perms.mul.calls"] = [t.get("perms.mul.calls", 0) for t in per_pass]
    return {"metrics": metrics, "gate": runner.gate, "pins": pins,
            "spans": len(tracer.spans)}


def provenance(wl, seed, trace):
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"workload": wl.name, "why": wl.why, "seed": seed, "trace": trace,
            "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "platform": platform.platform()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if not (SRC / "gcompat" / "__init__.py").is_file():
        print(f"error: no gcompat sources under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    wl = WORKLOADS[args.workload]
    prov = provenance(wl, args.seed, args.trace)
    print("provenance " + json.dumps(prov, sort_keys=True))
    record = measure(wl, args.seed, args.seconds, args.trace)
    gate = record.pop("gate")

    for name, m in record["metrics"].items():
        tail = f" (max {m['max']:.6g}, n={m['n']})" if "n" in m else ""
        if "wall" in m:
            tail = f" (wall {m['wall']:.6g} s, max {m['max']:.6g}, n={m['n']})"
        print(f"{name}: {m['value']:.6g} {m['unit']}{tail}")
    hs = record["host_speed"]
    print(f"host speed: median {hs['median']:.3g}, min {hs['min']:.3g}, "
          f"max {hs['max']:.3g} of the reference ({hs['samples']} samples "
          f"on CPU {hs['cpu']})")
    print(f"failed_share: {len(gate.failures) / gate.attempted:.6g} share "
          f"({len(gate.failures)} of {gate.attempted} operations)")
    for failure in gate.failures:
        print(f"FAIL {failure}")
    print("pins " + json.dumps(record["pins"], sort_keys=True))

    result = {
        "correct": not gate.failures,
        "attempted": gate.attempted,
        "failed": len(gate.failures),
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in record["metrics"].items()},
    }
    full = dict(record, provenance=prov, result=result, failures=gate.failures)
    out = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(full, sort_keys=True, indent=1) + "\n")
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
