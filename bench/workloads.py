"""The benchmark's workloads: what one pass does and what it must produce.

A pass builds every certificate of the workload, verifies each one (plus
one tampered certificate, which must fail), and records the pins that fix
the work done: witness and kernel orders, every check with its verdict,
and the sha256 of every certificate's canonical JSON. Only the build and
verify calls are timed, as wall intervals that the runner turns into
seconds; serialising for the digests is not timed.

Every miss is reported through `Gate` by name and counts as a failed
operation: a wrong order, a failed check on a genuine certificate, a
tampered certificate that passes, or any exception (`UndecidedError`
included).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ORDER8 = ["Z8", "Z4xZ2", "E(2,3)", "D8", "Q8"]


@dataclass(frozen=True)
class Pair:
    l1: str
    l2: str
    witness_order: int
    kernel_order: int
    series: str = "auto-central"     # or "auto-squarefree", as in the CLI

    @property
    def key(self):
        return f"{self.l1}|{self.l2}"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str                 # "library" or "cli"
    pairs: tuple
    tamper: str               # key of the pair whose certificate is tampered
    stretch: bool = False

    def group_names(self):
        names = {n for p in self.pairs for n in (p.l1, p.l2)}
        if self.kind == "cli":
            names |= set(HYBRID_GROUPS)
        return sorted(names)


WORKLOADS = {w.name: w for w in [
    Workload(
        "nilpotent-order8",
        "verify-heavy: ten order-2048 witnesses with order-256 kernels, "
        "fully enumerated; moves with perms, groups, homs.quotient and isos",
        "library",
        tuple(Pair(a, b, 2048, 256)
              for a, b in itertools.combinations(ORDER8, 2)),
        tamper="D8|Q8"),
    Workload(
        "squarefree-stretch",
        "generator-based witnesses of order 7031250 and 103766418: limit "
        "encode/decode, rule-based maps, samples, stabilizer chains; no iso search",
        "library",
        (Pair("Z30", "Z5xS3", 7031250, 234375, "auto-squarefree"),
         Pair("F21xZ2", "Z7xS3", 103766418, 2470629, "auto-squarefree")),
        tamper="", stretch=True),
    Workload(
        "cli-roundtrip",
        "the user path: many small witnesses through witness build --out and "
        "witness verify --cert, so per-call and JSON costs weigh heavily",
        "cli",
        (Pair("Z4", "Z2xZ2", 8, 2),
         Pair("Z9", "Z3xZ3", 27, 3),
         Pair("Z25", "Z5xZ5", 125, 5),
         Pair("Z6", "S3", 18, 3, "auto-squarefree"),
         Pair("Z10", "D10", 50, 5, "auto-squarefree"),
         Pair("Z14", "D14", 98, 7, "auto-squarefree"),
         Pair("Z22", "D22", 242, 11, "auto-squarefree"),
         Pair("Z21", "F21", 147, 7, "auto-squarefree"),
         Pair("Z26", "D26", 338, 13, "auto-squarefree"),
         Pair("Z15", "Z15", 75, 5, "auto-squarefree"),
         Pair("Z33", "Z33", 363, 11, "auto-squarefree")),
        tamper="Z21|F21"),
]}

HYBRID_GROUPS = ("F21", "S3", "Z3")
HYBRID_ARGS = ["hybrid", "--G", "F21", "--H", "S3", "--theta-image", "Z3"]
HYBRID_EXPECT = [
    "HW(F21, S3, theta): order 294",
    "ker(p_theta): order 49, abelian: True, elementary: True",
    "BW: order 147",
    "evaluation maps surjective: True",
    "BW as limit of twisted copies: verified, order 147",
]


class Gate:
    """Counts attempted operations and names every failed one.

    `on_op` is called with each operation's name before it runs (the
    traced run uses it as the span item id).
    """

    def __init__(self, on_op=None):
        self.attempted = 0
        self.failures = []
        self.on_op = on_op

    @contextlib.contextmanager
    def op(self, name):
        self.attempted += 1
        if self.on_op is not None:
            self.on_op(name)
        problems = []
        try:
            yield problems
        except Exception as e:  # any exception is a failed operation
            problems.append(f"{type(e).__name__}: {e}")
        if problems:
            self.failures.append(f"{name}: {'; '.join(problems)}")


@dataclass
class PassResult:
    build: list = field(default_factory=list)    # wall (start, end) of each
    verify: list = field(default_factory=list)   # timed call
    cert_bytes: int = 0
    pins: dict = field(default_factory=dict)     # item key -> pins


def _expect_orders(problems, pair, witness_order, kernel_orders):
    if witness_order != pair.witness_order:
        problems.append(f"witness order {witness_order} != {pair.witness_order}")
    if list(kernel_orders) != [pair.kernel_order] * 2:
        problems.append(f"kernel orders {list(kernel_orders)} != "
                        f"{[pair.kernel_order] * 2}")


def _failed_checks(checks):
    return [name for name, passed in checks if not passed]


def _swap_two(rng, values):
    """Indices of two entries to swap, picked by the seeded rng."""
    return sorted(rng.sample(range(len(values)), 2))


# ---------------------------------------------------------------------------
# library workloads


def library_pass(gc, wl, groups, seed, gate, label, untraced):
    """One pass through `witness_*` and `verify_witness`.

    `untraced` is a context manager factory that turns tracing off for the
    benchmark's own serialisation of the certificates.
    """
    bounds = gc.Bounds().with_mode("stretch") if wl.stretch else gc.DEFAULT_BOUNDS
    builders = {"auto-central": gc.witness_nilpotent,
                "auto-squarefree": gc.witness_square_free}
    res = PassResult()
    for i, pair in enumerate(wl.pairs):
        build = builders[pair.series]
        l1, l2 = groups[pair.l1], groups[pair.l2]
        cert = None
        with gate.op(f"{label} {pair.key} build") as problems:
            t0 = perf_counter()
            cert = build(l1, l2, bounds)
            res.build.append((t0, perf_counter()))
            _expect_orders(problems, pair, cert.witness.order(),
                           (cert.ker1.order(), cert.ker2.order()))
        with gate.op(f"{label} {pair.key} verify") as problems:
            if cert is None:
                raise RuntimeError("no certificate to verify")
            t0 = perf_counter()
            rep = gc.verify_witness(cert, l1, l2, bounds,
                                    rng=random.Random(seed * 1000 + i))
            res.verify.append((t0, perf_counter()))
            checks = [(c.name, c.passed) for c in rep.checks]
            if not rep.passed:
                problems.append(f"checks failed: {_failed_checks(checks)}")
            with untraced():
                text = gc.descriptors.dumps(
                    gc.descriptors.certificate_to_descriptor(cert, bounds, rep))
            data = text.encode()
            res.cert_bytes += len(data)
            res.pins[pair.key] = {
                "orders": [cert.witness.order(), cert.ker1.order(),
                           cert.ker2.order()],
                "checks": checks,
                "sha256": hashlib.sha256(data).hexdigest(),
            }
        if pair.key == wl.tamper and cert is not None:
            _tampered_library_verify(gc, cert, l1, l2, bounds, seed, gate,
                                     label, res)
    return res


def _tampered_library_verify(gc, cert, l1, l2, bounds, seed, gate, label, res):
    """Swap two kernel-iso table entries; the verifier must reject it."""
    with gate.op(f"{label} tampered {cert.p1.target.label}|"
                 f"{cert.p2.target.label} verify") as problems:
        table = dict(cert.kernel_iso.tabulated())
        keys = sorted(table)
        i, j = _swap_two(random.Random(seed), keys)
        table[keys[i]], table[keys[j]] = table[keys[j]], table[keys[i]]
        bad = gc.Homomorphism(cert.ker1.group, cert.ker2.group, table=table,
                              label="kernel-iso", check=False)
        tampered = dataclasses.replace(cert, kernel_iso=bad)
        t0 = perf_counter()
        rep = gc.verify_witness(tampered, l1, l2, bounds,
                                rng=random.Random(seed))
        res.verify.append((t0, perf_counter()))
        failed = _failed_checks((c.name, c.passed) for c in rep.checks)
        if rep.passed:
            problems.append("tampered certificate passed verification")
        res.pins["tampered"] = {"swapped": [i, j], "failed_checks": failed}


# ---------------------------------------------------------------------------
# CLI workload


def _cli(gc, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = gc.cli.run(argv)
    return rc, out.getvalue(), err.getvalue()


_CHECK_LINE = re.compile(r"^\[(PASS|FAIL)\] (\S+)")


def _parse_checks(text):
    return [(m.group(2), m.group(1) == "PASS")
            for m in map(_CHECK_LINE.match, text.splitlines()) if m]


def cli_pass(gc, wl, seed, gate, label, workdir: Path):
    """One pass through `gcompat.cli.run`, certificates as files."""
    res = PassResult()
    common = ["--seed", str(seed)]
    for pair in wl.pairs:
        path = workdir / f"{pair.l1}_{pair.l2}.json"
        names = ["--L1", pair.l1, "--L2", pair.l2]
        built = False
        with gate.op(f"{label} {pair.key} build") as problems:
            t0 = perf_counter()
            rc, out, err = _cli(gc, common + ["witness", "build", *names,
                                              "--series", pair.series,
                                              "--out", str(path)])
            res.build.append((t0, perf_counter()))
            if rc != 0:
                raise RuntimeError(f"exit {rc}: {err.strip()}")
            m = re.search(r"witness order: (\d+)\nkernel orders: (\d+), (\d+)", out)
            if m is None:
                raise RuntimeError(f"unexpected output: {out!r}")
            order, k1, k2 = map(int, m.groups())
            _expect_orders(problems, pair, order, (k1, k2))
            if "(all checks passed)" not in out:
                problems.append("embedded verification did not pass")
            data = path.read_bytes()
            res.cert_bytes += len(data)
            res.pins[pair.key] = {"orders": [order, k1, k2],
                                  "sha256": hashlib.sha256(data).hexdigest()}
            built = True
        with gate.op(f"{label} {pair.key} verify") as problems:
            if not built:
                raise RuntimeError("no certificate to verify")
            t0 = perf_counter()
            rc, out, err = _cli(gc, common + ["witness", "verify",
                                              "--cert", str(path), *names])
            res.verify.append((t0, perf_counter()))
            checks = _parse_checks(out)
            res.pins[pair.key]["checks"] = checks
            if rc != 0 or not checks or "verdict: all checks passed" not in out:
                problems.append(f"exit {rc}, checks failed: "
                                f"{_failed_checks(checks)} {err.strip()}")
        if pair.key == wl.tamper and built:
            _tampered_cli_verify(gc, pair, path, common, seed, gate, label, res)

    with gate.op(f"{label} hybrid F21 S3 Z3") as problems:
        t0 = perf_counter()
        rc, out, err = _cli(gc, common + HYBRID_ARGS)
        res.build.append((t0, perf_counter()))
        missing = [line for line in HYBRID_EXPECT if line not in out.splitlines()]
        if rc != 0 or missing:
            problems.append(f"exit {rc}, missing lines {missing} {err.strip()}")
        res.pins["hybrid"] = {"sha256": hashlib.sha256(out.encode()).hexdigest()}
    return res


def _tampered_cli_verify(gc, pair, path, common, seed, gate, label, res):
    """Swap two kernel-iso table entries in the file; verify must exit 1."""
    with gate.op(f"{label} tampered {pair.key} verify") as problems:
        data = json.loads(path.read_text())
        table = data["kernel_iso"]["table"]
        i, j = _swap_two(random.Random(seed), table)
        table[i][1], table[j][1] = table[j][1], table[i][1]
        bad = path.with_name("tampered.json")
        bad.write_text(json.dumps(data, sort_keys=True, indent=1) + "\n")
        t0 = perf_counter()
        rc, out, err = _cli(gc, common + ["witness", "verify", "--cert", str(bad),
                                          "--L1", pair.l1, "--L2", pair.l2])
        res.verify.append((t0, perf_counter()))
        failed = _failed_checks(_parse_checks(out))
        if rc != 1:
            problems.append(f"tampered certificate: exit {rc}, expected 1")
        res.pins["tampered"] = {"swapped": [i, j], "failed_checks": failed}
