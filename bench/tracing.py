"""Per-layer tracing of gcompat from outside the package.

`Tracer.install` wraps public functions and methods of the `gcompat`
modules (the modules are the layers) and `Tracer.restore` puts the
originals back. A module-level function is replaced under every
module-level name bound to the same object, because `witness`, `homs`,
`isos`, `inverse_limits` and `hybrid` import `mul`, `closure` and
`star_limit` with `from .x import y`.

Two kinds of wrapper:

* span: records (name, start, end, parent span, item id) and adds the
  span's self time (duration minus the time its child spans cover) and
  one call to the per-phase totals;
* count: adds one call and nothing else. Used for the hot calls
  (`perms.mul`, `Homomorphism.__call__`, `LimitGroup.encode`/`decode`),
  where a span per call would distort the run.

Verification checks are timed by timestamps: each `VerificationReport.add`
is charged the time since the previous one (or since `verify_witness`
started), and `check_extend_evidence` gets a span of its own.
"""

from __future__ import annotations

import gzip
import json
import re
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, attribute path, span name). Methods are wrapped on their class.
SPANS = [
    ("perms", "closure", "perms.closure"),
    ("perms", "StabilizerChain.__init__", "perms.StabilizerChain"),
    ("perms", "StabilizerChain.add", "perms.StabilizerChain"),
    ("perms", "StabilizerChain.contains", "perms.StabilizerChain"),
    ("groups", "from_elements", "groups.from_elements"),
    ("homs", "quotient", "homs.quotient"),
    ("homs", "Homomorphism.validate", "homs.validate"),
    ("homs", "Homomorphism.kernel", "homs.kernel"),
    ("isos", "find_isomorphism", "isos.find_isomorphism"),
    ("inverse_limits", "star_limit", "inverse_limits.star_limit"),
    ("hybrid", "hybrid_wreath", "hybrid.hybrid_wreath"),
    ("witness", "comp_membership", "witness.comp_membership"),
    ("witness", "build_witness_length2", "witness.build_witness_length2"),
    ("witness", "build_recursion_step", "witness.build_recursion_step"),
    ("witness", "compose_witness", "witness.compose_witness"),
    ("witness", "verify_witness", "witness.verify_witness"),
    ("witness", "check_extend_evidence", "witness.check_extend_evidence"),
    ("descriptors", "certificate_to_descriptor",
     "descriptors.certificate_to_descriptor"),
    ("descriptors", "dumps", "descriptors.dumps"),
    ("descriptors", "certificate_from_descriptor",
     "descriptors.certificate_from_descriptor"),
    ("cli", "run", "cli.run"),
    ("catalog", "named_group", "catalog.named_group"),
]

# LimitGroupBuilder.encode is the same limit encoder as LimitGroup.encode,
# so both count as one, and folding one into the other leaves the count.
COUNTS = [
    ("perms", "mul", "perms.mul"),
    ("homs", "Homomorphism.__call__", "homs.eval"),
    ("inverse_limits", "LimitGroup.encode", "inverse_limits.encode"),
    ("inverse_limits", "LimitGroupBuilder.encode", "inverse_limits.encode"),
    ("inverse_limits", "LimitGroup.decode", "inverse_limits.decode"),
]

_SAMPLED_OR_SKIPPED = re.compile(r"sample|skipped|stretch")


def check_group(name: str) -> str:
    """Fold the per-side check names of a report into one name per check:
    p1-homomorphism -> p-homomorphism, ker-p2-matches -> ker-matches,
    quotient-1-isomorphic -> quotient-isomorphic, kernel-iso-bijective ->
    kernel-iso (the independent search keeps its own name)."""
    name = re.sub(r"-p[12]-", "-", name)
    name = re.sub(r"^p[12]-", "p-", name)
    name = re.sub(r"-[12]-", "-", name)
    if name.startswith("kernel-iso-") and name != "kernel-iso-independent-search":
        name = "kernel-iso"
    return name


class Tracer:
    def __init__(self):
        self.spans = []         # (name, start, end, parent index, item)
        self.item = None        # id of the work item being run
        self._stack = []        # [span index, child seconds, name]
        self._patches = []      # (owner, attribute, original, wrapper)
        self._check_mark = None
        self.reset_totals()

    def reset_totals(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.closure_elements = 0
        self.from_elements_closure_elements = 0
        self.max_enumerated = 0
        self.checks_total = 0
        self.checks_sampled_or_skipped = 0

    # -- wrappers ------------------------------------------------------------

    def _span(self, fn, name):
        spans, stack, tracer = self.spans, self._stack, self
        on_exit = {
            "perms.closure": self._after_closure,
            "groups.from_elements": self._after_from_elements,
            "witness.verify_witness": self._after_verify,
            "witness.check_extend_evidence": self._after_extend_check,
        }.get(name)
        on_enter = self._before_verify if name == "witness.verify_witness" else None

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [len(spans), 0.0, name]
            spans.append(None)
            stack.append(frame)
            t0 = perf_counter()
            if on_enter is not None:
                on_enter(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                duration = t1 - t0
                if stack:
                    stack[-1][1] += duration
                spans[frame[0]] = (name, t0, t1, parent, tracer.item)
                tracer.self_s[name] += duration - frame[1]
                tracer.calls[name] += 1
            if on_exit is not None:
                on_exit(result, t0, t1)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, fn, name):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _report_add(self, fn):
        tracer = self

        def wrapper(report, name, passed, detail=""):
            if tracer._check_mark is not None:
                now = perf_counter()
                tracer.self_s["verify." + check_group(name)] += now - tracer._check_mark
            result = fn(report, name, passed, detail)
            if tracer._check_mark is not None:
                tracer._check_mark = perf_counter()
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- hooks ---------------------------------------------------------------

    def _after_closure(self, elems, t0, t1):
        n = len(elems)
        self.closure_elements += n
        self.max_enumerated = max(self.max_enumerated, n)
        if any(frame[2] == "groups.from_elements" for frame in self._stack):
            self.from_elements_closure_elements += n

    def _after_from_elements(self, group, t0, t1):
        self.max_enumerated = max(self.max_enumerated, group.order())

    def _before_verify(self, t0):
        self._check_mark = t0

    def _after_verify(self, report, t0, t1):
        self._check_mark = None
        self.checks_total += len(report.checks)
        self.checks_sampled_or_skipped += sum(
            1 for c in report.checks if _SAMPLED_OR_SKIPPED.search(c.detail))

    def _after_extend_check(self, result, t0, t1):
        if self._check_mark is not None:
            self.self_s["verify." + check_group(result.name)] += t1 - self._check_mark
            self._check_mark = t1

    # -- install / restore ---------------------------------------------------

    def install(self):
        """Wrap every traced function of the imported `gcompat` modules."""
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "gcompat" or name.startswith("gcompat.")}
        plan = [(m, path, self._span, name) for m, path, name in SPANS]
        plan += [(m, path, self._count, name) for m, path, name in COUNTS]
        for module, path, make, name in plan:
            owner = mods[f"gcompat.{module}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, attr, make(cls.__dict__[attr], name))
                continue
            original = getattr(owner, path)
            wrapper = make(original, name)
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)
        report_cls = mods["gcompat.witness"].VerificationReport
        self._patch(report_cls, "add", self._report_add(report_cls.add))

    def _patch(self, owner, attr, wrapper):
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        self._patches.append((owner, attr, original, wrapper))
        setattr(owner, attr, wrapper)

    def restore(self):
        """Put every original back."""
        for owner, attr, original, _wrapper in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def suspended(self):
        """Run the block untraced (the benchmark's own bookkeeping)."""
        patches = list(self._patches)
        self.restore()
        try:
            yield
        finally:
            for owner, attr, _original, wrapper in patches:
                setattr(owner, attr, wrapper)
            self._patches = patches

    # -- results -------------------------------------------------------------

    def totals(self) -> dict:
        """Per-layer figures accumulated since the last `reset_totals`."""
        out = {}
        for name, n in self.calls.items():
            out[f"{name}.calls"] = n
        for name, s in self.self_s.items():
            key = name + ("_s" if name.startswith("verify.") else ".self_s")
            out[key] = s
        out["perms.closure.elements"] = self.closure_elements
        out["groups.from_elements.closure_elements"] = \
            self.from_elements_closure_elements
        out["groups.max_enumerated_order"] = self.max_enumerated
        out["verify.checks.total"] = self.checks_total
        out["verify.checks.sampled_or_skipped"] = self.checks_sampled_or_skipped
        return out

    def write_spans(self, path):
        """Write every recorded span once, as gzipped JSON."""
        with gzip.open(path, "wt") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "item"],
                       "spans": self.spans}, f)
