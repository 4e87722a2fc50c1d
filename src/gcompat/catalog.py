"""Named group constructions, name parsing, and the construct() front door.

The catalog understands names like Z6, S4, A5, D8, Q8, F21, E(2,3) and
direct products joined with 'x' (Z2xZ4xZ8).
"""

from __future__ import annotations

import re

from .bounds import DEFAULT_BOUNDS, HypothesisError
from .groups import (
    FiniteGroup,
    Subgroup,
    alternating,
    cyclic,
    dihedral,
    direct_product,
    elementary_abelian,
    semidirect,
    symmetric,
    trivial_group,
)
from .homs import Homomorphism
from .isos import AutomorphismSet, find_isomorphism


def quaternion(label="Q8") -> FiniteGroup:
    """The quaternion group from its regular action on {1,-1,i,-i,j,-j,k,-k}."""
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    idx = {n: i for i, n in enumerate(names)}

    def q_mul(a, b):
        sign = 1
        for axis in (a, b):
            if axis.startswith("-"):
                sign = -sign
        ua, ub = a.lstrip("-"), b.lstrip("-")
        table = {
            ("1", "1"): "1",
            ("1", "i"): "i", ("i", "1"): "i",
            ("1", "j"): "j", ("j", "1"): "j",
            ("1", "k"): "k", ("k", "1"): "k",
            ("i", "i"): "-1", ("j", "j"): "-1", ("k", "k"): "-1",
            ("i", "j"): "k", ("j", "i"): "-k",
            ("j", "k"): "i", ("k", "j"): "-i",
            ("k", "i"): "j", ("i", "k"): "-j",
        }
        out = table[(ua, ub)]
        if out.startswith("-"):
            sign = -sign
            out = out[1:]
        return out if sign > 0 else "-" + out

    def right_mult_perm(b):
        return tuple(idx[q_mul(a, b)] for a in names)

    gens = [right_mult_perm("i"), right_mult_perm("j")]
    g = FiniteGroup(8, gens, label)
    hist = dict(g.order_histogram())
    if g.order() != 8 or hist.get(2) != 1 or hist.get(4) != 6:
        raise AssertionError("quaternion construction is broken")
    return g


def frobenius21(label="F21") -> FiniteGroup:
    """Z7 x| Z3 with an order-3 twist (multiplication by 2 mod 7)."""
    z7, z3 = cyclic(7), cyclic(3)
    twist = {}
    for q in z3.sorted_elements():
        j = q[0]  # rotation amount in Z3; acts on Z7 by x -> 2^j x

        def pow_auto(e, j=j):
            k = e[0]
            return tuple((i + (2 ** j % 7) * k) % 7 for i in range(7))

        twist[q] = {e: pow_auto(e) for e in z7.elements()}
    g = semidirect(z7, z3, twist, label)
    if g.order() != 21 or g.is_abelian():
        raise AssertionError("frobenius construction is broken")
    return g


def construct(kind, *params):
    """Build a group by kind.

    kinds: cyclic n | symmetric n | alternating n | dihedral m (order m) |
    elementary_abelian p k | direct_product G H | semidirect P Q phi
    where phi is a verified homomorphism into an automorphism set's group.
    """
    if kind == "cyclic":
        return cyclic(*params)
    if kind == "symmetric":
        return symmetric(*params)
    if kind == "alternating":
        return alternating(*params)
    if kind == "dihedral":
        return dihedral(*params)
    if kind == "elementary_abelian":
        return elementary_abelian(*params)
    if kind == "direct_product":
        return direct_product(*params)
    if kind == "semidirect":
        return semidirect_from_hom(*params)
    raise ValueError(f"unknown construction kind {kind!r}")


def semidirect_from_hom(p_group, q_group, phi: Homomorphism,
                        auts: AutomorphismSet = None, label=None):
    """Semidirect product P x| Q from phi: Q -> Aut(P) (as a permutation
    group on P's canonical element list).

    phi is validated as a homomorphism and each image is checked to decode
    to an automorphism of P.
    """
    if auts is None:
        auts = AutomorphismSet(p_group, [])
    phi.validate()
    twist = {}
    for q in q_group.elements():
        auto = auts.auto_of_perm(phi(q))  # checked as a homomorphism
        twist[q] = {e: auto(e) for e in p_group.elements()}
    # action property follows from phi being a homomorphism into Aut(P)
    return semidirect(p_group, q_group, twist, label)


_NAME_RE = re.compile(r"^(Z|C)(\d+)$|^S(\d+)$|^A(\d+)$|^D(\d+)$|^E\((\d+),(\d+)\)$")


def _atom(name):
    name = name.strip()
    if name in ("1", "triv"):
        return trivial_group()
    if name == "Q8":
        return quaternion()
    if name == "F21":
        return frobenius21()
    m = _NAME_RE.match(name)
    if not m:
        raise ValueError(f"unrecognized group name {name!r}")
    if m.group(2):
        return cyclic(int(m.group(2)), label=name)
    if m.group(3):
        return symmetric(int(m.group(3)))
    if m.group(4):
        return alternating(int(m.group(4)))
    if m.group(5):
        return dihedral(int(m.group(5)))
    return elementary_abelian(int(m.group(6)), int(m.group(7)))


def named_group(spec: str) -> FiniteGroup:
    """Parse names like 'Z4', 'S3', 'Q8', 'F21', 'Z2xZ4xZ8', 'E(2,3)'."""
    parts = spec.split("x") if "x" in spec and not spec.startswith("E(") else [spec]
    if len(parts) == 1:
        return _atom(parts[0])
    g = _atom(parts[0])
    for p in parts[1:]:
        g = direct_product(g, _atom(p))
    g.label = spec
    return g


def surjection_onto_subgroup(g: FiniteGroup, h: FiniteGroup, sub: Subgroup,
                             bounds=DEFAULT_BOUNDS):
    """A homomorphism g -> h with image exactly `sub`, or HypothesisError.

    Found as quotient-then-isomorphism: g / N =~ sub for some normal N.
    Deterministic: normal subgroups scanned in canonical order.
    """
    from .groups import all_subgroups
    from .homs import quotient

    target_order = sub.order()
    if g.order() % target_order:
        raise HypothesisError("no surjection: order obstruction")
    for cand in all_subgroups(g):
        if cand.order() * target_order != g.order():
            continue
        if not cand.is_normal():
            continue
        q, pi = quotient(g, cand)
        iso = find_isomorphism(q, sub.group, bounds)
        if iso is not None:
            incl = Homomorphism.inclusion(sub)
            return pi.then(iso).then(incl, label=f"{g.label}->{sub.group.label}")
    raise HypothesisError(
        f"no surjection of {g.label} onto the chosen subgroup")
