"""Batch command-line front end.

Exit codes: 0 success, 1 refuted hypothesis, 2 bound exceeded (undecided),
3 malformed input. Output is deterministic for fixed inputs, bounds and
seed (canonical orderings everywhere; JSON dumps are sorted).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from . import descriptors
from .bounds import Bounds, HypothesisError, UndecidedError
from .catalog import named_group, surjection_onto_subgroup
from .groups import Subgroup, all_subgroups
from .homs import Homomorphism
from .hybrid import bw_as_limit, evaluation_maps, hybrid_wreath
from .inverse_limits import limit
from .isos import find_isomorphism
from .witness import (
    SERIES,
    assemble_certificate,
    build_good_witness,
    certificate_mode,
    comp_membership,
    compatible_central_series,
    is_trivially_extendable,
    sequences_from_series,
    verify_witness,
    witness_nilpotent,
    witness_square_free,
)
from .wreath import natural_action, wreath_product


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # malformed invocations exit 3, not argparse's default 2
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(3)


def _bound(text: str) -> int:
    """A bound given on the command line: an integer of at least 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"a bound must be an integer of at least 1, not {text!r}")
    return int(text)


def _group_arg(spec: str):
    spec = spec.strip()
    if spec.startswith("@"):
        data = json.loads(Path(spec[1:]).read_text())
        return descriptors.group_from_descriptor(data)
    if spec.startswith("{"):
        return descriptors.group_from_descriptor(json.loads(spec))
    return named_group(spec)


def _emit(args, payload: dict, note: str = ""):
    """Write `payload` to `--out`, when given, as canonical JSON and a
    newline, then report the file (and `note`) on stdout."""
    if getattr(args, "out", None):
        with open(args.out, "w") as f:
            f.write(descriptors.dumps(payload))
            f.write("\n")
        print(f"wrote {args.out}{note}")


def _bounds(args) -> Bounds:
    return Bounds(enum=args.bound_enum, iso=args.bound_iso,
                  aut=args.bound_aut)


def cmd_group(args) -> int:
    g = _group_arg(args.spec)
    bounds = _bounds(args)
    print(f"group {g.label}: order {g.order()}, degree {g.degree}")
    print(f"abelian: {g.is_abelian()}")
    if g.is_enumerable(bounds.enum):
        print(f"exponent: {g.exponent(bounds.enum)}")
        print(f"nilpotent: {g.is_nilpotent(bounds.enum)}")
        print(f"center order: {g.center(bounds.enum).order()}")
    _emit(args, descriptors.group_to_descriptor(g))
    return 0


def cmd_limit(args) -> int:
    data = json.loads(Path(args.system).read_text())
    system = descriptors.system_from_descriptor(data)
    lim = limit(system, _bounds(args))
    print(f"limit order: {lim.group.order()}")
    for n in lim.node_order:
        p = lim.projection(n)
        order = p.image().order()
        print(f"projection to {n}: image order {order} "
              f"(surjective: {order == p.target.order()})")
    _emit(args, descriptors.group_to_descriptor(lim.group))
    return 0


def cmd_wreath(args) -> int:
    base = _group_arg(args.base)
    top = _group_arg(args.top)
    w = wreath_product(base, natural_action(top), bounds=_bounds(args))
    print(f"wreath {base.label} wr {top.label} on {w.npoints} points: "
          f"order {w.order}")
    print(f"carrier degree: {w.carrier.degree}")
    _emit(args, descriptors.group_to_descriptor(w.carrier))
    return 0


def _find_image_subgroup(h, image_spec, bounds):
    wanted = named_group(image_spec)
    for sub in all_subgroups(h):
        if sub.order() != wanted.order():
            continue
        if find_isomorphism(sub.group, wanted, bounds) is not None:
            return sub
    raise HypothesisError(f"{h.label} has no subgroup of type {image_spec}")


def cmd_hybrid(args) -> int:
    g = _group_arg(args.G)
    h = _group_arg(args.H)
    bounds = _bounds(args)
    sub = _find_image_subgroup(h, args.theta_image, bounds)
    theta = surjection_onto_subgroup(g, h, sub, bounds)
    hw = hybrid_wreath(g, h, theta, bounds=bounds)
    kp = hw.kernel_of_standard_map()
    print(f"HW({g.label}, {h.label}, theta): order {hw.order()}")
    print(f"theta image order: {hw.image.order()} (normal: {hw.normal})")
    # abelian with one non-identity order, which must then be a prime
    kp_ea = kp.group.is_abelian() and len(kp.group.order_histogram()) <= 2
    print(f"ker(p_theta): order {kp.order()}, "
          f"abelian: {kp.group.is_abelian()}, elementary: {kp_ea}")
    print(f"BW: order {hw.base.order()}")
    if hw.normal:
        evals = evaluation_maps(hw)
        surj = all(p.is_surjective() for p in evals.values())
        print(f"evaluation maps surjective: {surj}")
        lim, _ = bw_as_limit(hw, bounds)
        print(f"BW as limit of twisted copies: verified, order {lim.group.order()}")
    _emit(args, descriptors.group_to_descriptor(hw.group))
    return 0


def _chain_from_file(path: str, l1, l2):
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError("series file must be a JSON object")
    chains = []
    for key, grp in (("chain1", l1), ("chain2", l2)):
        terms = data[key]
        if not isinstance(terms, list):
            raise ValueError(f"{key}: expected a list of generator lists")
        chain = [grp.trivial_subgroup()]
        for gens in terms:
            gens = descriptors.perm_list(gens, f"{key} term")
            if not gens:
                continue
            chain.append(Subgroup(grp, gens=gens))
        if chain[-1].order() != grp.order():
            chain.append(grp.full_subgroup())
        chains.append(chain)
    return chains


def _sequences_for(args, l1, l2, bounds):
    """The two sequences of `--series`, a `SERIES` name or the chains of a
    series file, both through `sequences_from_series`."""
    series = SERIES.get(args.series) or _chain_from_file(args.series, l1, l2)
    return sequences_from_series(l1, l2, series, bounds)


def cmd_witness_build(args) -> int:
    bounds = _bounds(args)
    l1, l2 = _group_arg(args.L1), _group_arg(args.L2)
    cert = build_good_witness(*_sequences_for(args, l1, l2, bounds), None,
                              bounds)
    print(f"witness order: {cert.witness.order()}")
    print(f"kernel orders: {cert.ker1.order()}, {cert.ker2.order()}")
    print(f"mode: {certificate_mode(cert, bounds)}")
    if args.out:
        report = verify_witness(cert, l1, l2, bounds)
        payload = descriptors.certificate_to_descriptor(cert, bounds, report)
        _emit(args, payload, " (all checks passed)" if report.passed
              else " (CHECKS FAILED)")
        if not report.passed:
            return 1
    return 0


def cmd_witness_verify(args) -> int:
    bounds = _bounds(args)
    l1, l2 = _group_arg(args.L1), _group_arg(args.L2)
    data = json.loads(Path(args.cert).read_text())
    cert = descriptors.certificate_from_descriptor(data, l1, l2)
    rep = verify_witness(cert, l1, l2, bounds)
    for line in rep.lines():
        print(line)
    print("verdict:", "all checks passed" if rep.passed else "FAILED")
    return 0 if rep.passed else 1


def cmd_comp_check(args) -> int:
    bounds = _bounds(args)
    l1, l2 = _group_arg(args.L1), _group_arg(args.L2)
    s1, s2 = _sequences_for(args, l1, l2, bounds)
    comp = comp_membership(s1, s2, bounds)
    ell = s1.length
    if comp is None:
        print(f"not a member of Comp_{ell} for this series choice")
        return 1
    print(f"member of Comp_{ell}")
    print(f"kernel orders: {s1.kernel_orders()}")
    return 0


def cmd_series_central(args) -> int:
    bounds = _bounds(args)
    g = _group_arg(args.L)
    chain = compatible_central_series(g, bounds)
    print(f"central series of {g.label}: "
          + " <= ".join(str(t.order()) for t in chain))
    _emit(args, {"orders": [t.order() for t in chain],
                 "terms": [descriptors.subgroup_to_descriptor(t)
                           for t in chain]})
    return 0


# ---------------------------------------------------------------------------
# named example reproductions


def _example_hybrid(bounds, rng):
    from .catalog import frobenius21
    from .perms import inv

    g = frobenius21()
    h = named_group("S3")
    sub = _find_image_subgroup(h, "Z3", bounds)
    theta = surjection_onto_subgroup(g, h, sub, bounds)
    hw = hybrid_wreath(g, h, theta, bounds=bounds)
    kp = hw.kernel_of_standard_map()
    evals = evaluation_maps(hw)
    pairs = {(evals[0](w), evals[1](w)) for w in hw.base.members()}
    lim, _ = bw_as_limit(hw, bounds)
    ok = (hw.order() == 294 and kp.order() == 49
          and kp.group.is_abelian()
          and set(kp.group.element_orders().values()) <= {1, 7}
          and hw.base.order() == 147
          and len(pairs) == 147
          and len({a for a, _ in pairs}) == 21
          and len({b for _, b in pairs}) == 21
          and all(theta(a) == inv(theta(b)) for a, b in pairs)
          and lim.group.order() == 147)
    return ok, "order 294, kernel 7^2, base 147, subdirect, limit form"


def _example_goodwit(bounds, rng):
    from .perms import closure as perm_closure

    g = named_group("Z2xZ4xZ8")
    l1 = named_group("E(2,3)")
    l2 = named_group("Z8")
    a1, a2, a3 = g.generators
    x1, x2, x3 = l1.generators
    y = l2.generators[0]
    p1 = Homomorphism.from_gen_images(g, l1, {a1: x1, a2: x2, a3: x3}, "p1")
    p2 = Homomorphism.from_gen_images(
        g, l2, {a1: l2.identity, a2: l2.identity, a3: y}, "p2")
    n1 = Subgroup(l1, members=perm_closure([x1]))
    n2 = Subgroup(l2, members=perm_closure([l2.power(y, 4)]))
    cert = assemble_certificate(g, p1, p2, (n1, n2), bounds=bounds)
    rep = verify_witness(cert, l1, l2, bounds)
    l1p, l2p = named_group("E(2,2)"), named_group("Z4")
    u1, u2 = l1p.generators
    pi1 = Homomorphism.from_gen_images(
        l1, l1p, {x1: l1p.identity, x2: u1, x3: u2}, "pi1")
    pi2 = Homomorphism.from_gen_images(l2, l2p, {y: l2p.generators[0]}, "pi2")
    kappa = find_isomorphism(pi1.kernel().group, pi2.kernel().group, bounds)
    from .witness import compose_witness

    ev1 = is_trivially_extendable(pi1, l1p.trivial_subgroup(), bounds).evidence
    ev2 = is_trivially_extendable(pi2, l2p.trivial_subgroup(), bounds).evidence
    cert2 = compose_witness(cert, pi1, pi2, kappa, (ev1, ev2),
                            (l1p.trivial_subgroup(), l2p.trivial_subgroup()),
                            bounds)
    rep2 = verify_witness(cert2, l1p, l2p, bounds)
    return rep.passed and rep2.passed, "hand certificate and its quotient"


def _example_z6s3(bounds, rng):
    l1, l2 = named_group("Z6"), named_group("S3")
    cert = witness_square_free(l1, l2, bounds)
    rep = verify_witness(cert, l1, l2, bounds)
    return (cert.witness.order() == 18 and rep.passed,
            f"witness order {cert.witness.order()}")


def _example_order8(bounds, rng):
    import itertools

    from .catalog import quaternion

    names = ["Z8", "Z4xZ2", "E(2,3)", "D8"]
    groups = [named_group(n) for n in names] + [quaternion()]
    count = 0
    for a, b in itertools.combinations(groups, 2):
        cert = witness_nilpotent(a, b, bounds)
        rep = verify_witness(cert, a, b, bounds)
        if not (rep.passed and cert.witness.order() <= 2048):
            return False, f"{a.label} vs {b.label} failed"
        count += 1
    return True, f"{count} pairs, witness order 2048 each"


def _example_embeddings(bounds, rng):
    from .sampling import medium_group_pool, random_transitive_action, random_transversal
    from .wreath import embedding_conjugator, standard_embedding

    pool = medium_group_pool(60)
    for _ in range(40):
        g = rng.choice(pool)
        act = random_transitive_action(rng, g)
        e1 = standard_embedding(act, random_transversal(rng, act), bounds)
        e1.map.validate(bounds)
        if len({e1(x) for x in g.elements()}) != g.order():
            return False, "embedding not injective"
        e2 = standard_embedding(act, random_transversal(rng, act), bounds)
        embedding_conjugator(e1, e2)
    return True, "40 random embeddings with verified conjugators"


def _example_limits(bounds, rng):
    from .inverse_limits import (
        limit_of_morphism,
        preimage_system,
        subsystem_limit,
    )
    from .sampling import (
        random_in_forest_poset,
        random_quotient_morphism,
        random_subsystem,
        random_surjective_system,
    )

    for _ in range(40):
        poset = random_in_forest_poset(rng, 5)
        system = random_surjective_system(rng, poset)
        ls = limit(system, bounds)
        if not all(ls.projection(n).is_surjective() for n in ls.node_order):
            return False, "limit projection not surjective"
        phi = random_quotient_morphism(rng, system)
        z = random_subsystem(rng, phi.target)
        lt = limit(phi.target, bounds)
        hom, _, _ = limit_of_morphism(phi, ls, lt, bounds)
        z_lim = subsystem_limit(lt, z, bounds)
        lhs = subsystem_limit(ls, preimage_system(phi, z), bounds).members()
        rhs = frozenset(x for x in ls.group.elements()
                        if z_lim.contains(hom(x)))
        if lhs != rhs:
            return False, "pullback and limit do not commute"
    return True, "40 random systems: projections surjective, pullback law"


def _example_base_limits(bounds, rng):
    from .sampling import random_normal_hybrid

    for _ in range(10):
        hw = random_normal_hybrid(rng, bounds=bounds)
        bw_as_limit(hw, bounds)  # identification verified internally
    return True, "10 random normal hybrids: base-subgroup limit form"


EXAMPLES = {
    "hybrid": _example_hybrid,
    "goodwit": _example_goodwit,
    "z6s3": _example_z6s3,
    "order8": _example_order8,
    "embeddings": _example_embeddings,
    "limits": _example_limits,
    "baselimits": _example_base_limits,
}


def cmd_examples(args) -> int:
    bounds = _bounds(args)
    names = args.names.split(",") if args.names else list(EXAMPLES)
    verdicts = set()
    for name in names:
        if name not in EXAMPLES:
            print(f"unknown example {name!r}", file=sys.stderr)
            return 3
        rng = random.Random(args.seed)
        try:
            ok, detail = EXAMPLES[name](bounds, rng)
            verdict = "PASS" if ok else "FAIL"
        except HypothesisError as e:
            verdict, detail = "FAIL", str(e)
        except UndecidedError as e:
            verdict, detail = "UNDECIDED", str(e)
        print(f"[{verdict}] {name}  ({detail})")
        verdicts.add(verdict)
    return 1 if "FAIL" in verdicts else 2 if "UNDECIDED" in verdicts else 0


# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    p = _Parser(prog="gcompat",
                description="finite-group compatibility witnesses")
    p.add_argument("--bound-enum", type=_bound, default=20000)
    p.add_argument("--bound-iso", type=_bound, default=2000)
    p.add_argument("--bound-aut", type=_bound, default=512)
    p.add_argument("--seed", type=int, default=20240801)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("group", help="build and describe a group")
    sp.add_argument("spec")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_group)

    sp = sub.add_parser("limit", help="inverse limit of a system file")
    sp.add_argument("--system", required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_limit)

    sp = sub.add_parser("wreath", help="wreath product of two groups")
    sp.add_argument("--base", required=True)
    sp.add_argument("--top", required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_wreath)

    sp = sub.add_parser("hybrid", help="hybrid wreath product report")
    sp.add_argument("--G", required=True)
    sp.add_argument("--H", required=True)
    sp.add_argument("--theta-image", required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_hybrid)

    wp = sub.add_parser("witness", help="build or verify certificates")
    wsub = wp.add_subparsers(dest="witness_command", required=True)
    sp = wsub.add_parser("build")
    sp.add_argument("--L1", required=True)
    sp.add_argument("--L2", required=True)
    sp.add_argument("--series", default="auto-central",
                    help=" | ".join(SERIES) + " | FILE")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_witness_build)
    sp = wsub.add_parser("verify")
    sp.add_argument("--cert", required=True)
    sp.add_argument("--L1", required=True)
    sp.add_argument("--L2", required=True)
    sp.set_defaults(func=cmd_witness_verify)

    cp = sub.add_parser("comp", help="restriction-condition membership")
    csub = cp.add_subparsers(dest="comp_command", required=True)
    sp = csub.add_parser("check")
    sp.add_argument("--L1", required=True)
    sp.add_argument("--L2", required=True)
    sp.add_argument("--series", default="auto-central")
    sp.set_defaults(func=cmd_comp_check)

    gp = sub.add_parser("series", help="normal series helpers")
    gsub = gp.add_subparsers(dest="series_command", required=True)
    sp = gsub.add_parser("central")
    sp.add_argument("--L", required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_series_central)

    sp = sub.add_parser("examples", help="reproduce the named examples")
    sp.add_argument("--names", default="")
    sp.set_defaults(func=cmd_examples)
    return p


_PARSER = None  # built by the first `run` and kept: it holds no state


def run(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except UndecidedError as e:
        print(f"undecided: {e}", file=sys.stderr)
        return 2
    except HypothesisError as e:
        print(f"hypothesis refuted: {e}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as e:
        print(f"malformed input: {e}", file=sys.stderr)
        return 3


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
