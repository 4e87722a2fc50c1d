"""Randomized instance builders for the property suites.

Everything takes an explicit random.Random so suites are reproducible from
a seed. Sizes are kept at desk scale: these feed laws that are checked by
exhaustive enumeration.
"""

from __future__ import annotations

import random

from .bounds import DEFAULT_BOUNDS, HypothesisError
from .groups import (
    FiniteGroup,
    Subgroup,
    alternating,
    cyclic,
    dihedral,
    direct_product,
    elementary_abelian,
    symmetric,
    trivial_group,
)
from .homs import Homomorphism, quotient
from .hybrid import hybrid_wreath
from .inverse_limits import InverseSystem, Subsystem, SystemMorphism
from .isos import automorphism_set
from .perms import closure
from .posets import Poset
from .wreath import GroupAction, PermutationTransversal, coset_action


def small_group_pool(max_order=24):
    pool = [cyclic(n) for n in range(2, 9)]
    pool += [elementary_abelian(2, 2), elementary_abelian(3, 2),
             elementary_abelian(2, 3)]
    pool += [symmetric(3), dihedral(8), dihedral(12), alternating(4),
             direct_product(cyclic(2), cyclic(4)),
             direct_product(cyclic(2), symmetric(3))]
    return [g for g in pool if g.order() <= max_order]


def medium_group_pool(max_order=60):
    pool = small_group_pool(24)
    pool += [symmetric(4), alternating(4), dihedral(16), dihedral(20),
             direct_product(cyclic(3), symmetric(3)),
             direct_product(cyclic(5), cyclic(4)),
             alternating(5), cyclic(30),
             direct_product(symmetric(3), symmetric(3)),
             direct_product(cyclic(2), alternating(4))]
    return [g for g in pool if g.order() <= max_order]


def random_in_forest_poset(rng: random.Random, max_nodes=5) -> Poset:
    """Every non-root node covers exactly one earlier node."""
    n = rng.randint(1, max_nodes)
    rel = []
    for i in range(1, n):
        if rng.random() < 0.75:
            rel.append((rng.randrange(i), i))
    return Poset(tuple(range(n)), rel)


def random_subgroup(rng: random.Random, g: FiniteGroup, tries=3) -> Subgroup:
    elems = g.sorted_elements()
    gens = [rng.choice(elems) for _ in range(rng.randint(1, tries))]
    return Subgroup(g, members=closure(gens), label="rand-sub")


def random_normal_subgroup(rng: random.Random, g: FiniteGroup,
                           proper=False) -> Subgroup:
    elems = g.sorted_elements()
    for _ in range(20):
        seed = [rng.choice(elems) for _ in range(rng.randint(1, 2))]
        sub = g.normal_closure(seed)
        if not proper or sub.order() < g.order():
            return sub
    return g.trivial_subgroup()


def random_surjective_system(rng: random.Random, poset: Poset,
                             node_bound=24, limit_budget=4000,
                             pool=None) -> InverseSystem:
    """Cover transitions are quotient-like surjections built upward from the
    roots: direct-product extensions, optionally twisted by an automorphism,
    or plain isomorphic relabelings."""
    pool = pool or small_group_pool(min(node_bound, 12))
    groups, cover_maps = {}, {}
    budget = limit_budget
    for node in poset.linear_extension():
        covers = poset.lower_covers(node)
        if not covers:
            fits = [p for p in pool
                    if p.order() <= node_bound and p.order() <= budget]
            g = rng.choice(fits) if fits else trivial_group()
            groups[node] = g
            budget = max(1, budget // g.order())
            continue
        (c,) = covers
        base = groups[c]
        options = [p for p in pool
                   if p.order() * base.order() <= node_bound
                   and p.order() <= budget]
        if options and rng.random() < 0.7:
            k = rng.choice(options)
            big = direct_product(k, base)
            budget = max(1, budget // k.order())
            trans = Homomorphism.block(big, base, k.degree, label="proj")
        else:
            big = base
            trans = Homomorphism.identity(base)
        if big.order() <= 24 and rng.random() < 0.4:
            auts = automorphism_set(base, DEFAULT_BOUNDS)
            twist = rng.choice(auts.autos)
            trans = trans.then(twist)
        groups[node] = big
        cover_maps[(c, node)] = trans
    return InverseSystem.from_cover_maps(poset, groups, cover_maps)


def random_quotient_morphism(rng: random.Random, system: InverseSystem):
    """A level-wise quotient morphism onto a coherently built target system."""
    poset = system.poset
    order = poset.linear_extension()
    normal = {}
    for node in reversed(order):
        above = [j for j in poset.nodes if poset.le(node, j) and j != node]
        seed = []
        for j in above:
            f = system.maps[(node, j)]
            seed += [f(x) for x in normal[j].group.generators]
        if rng.random() < 0.6:
            extra = random_normal_subgroup(rng, system.groups[node])
            seed += list(extra.group.generators)
        if seed:
            normal[node] = system.groups[node].normal_closure(seed)
        else:
            normal[node] = system.groups[node].trivial_subgroup()
    t_groups, level = {}, {}
    for node in poset.nodes:
        q, pi = quotient(system.groups[node], normal[node])
        t_groups[node] = q
        level[node] = pi
    t_maps = {}
    for (i, j) in poset.comparable_pairs():
        f = system.maps[(i, j)]
        t_maps[(i, j)] = Homomorphism.from_gen_images(
            t_groups[j], t_groups[i],
            {level[j](x): level[i](f(x)) for x in system.groups[j].generators},
            label="induced")
    target = InverseSystem(poset, t_groups, t_maps)
    return SystemMorphism(system, target, level)


def random_subsystem(rng: random.Random, system: InverseSystem) -> Subsystem:
    poset = system.poset
    order = poset.linear_extension()
    subs = {}
    for node in reversed(order):
        above = [j for j in poset.nodes if poset.le(node, j) and j != node]
        gens = []
        for j in above:
            f = system.maps[(node, j)]
            gens += [f(x) for x in subs[j].group.generators]
        if rng.random() < 0.5:
            gens.append(rng.choice(system.groups[node].sorted_elements()))
        members = closure(gens or [system.groups[node].identity])
        subs[node] = Subgroup(system.groups[node], members=members)
    return Subsystem(system, subs)


def random_transitive_action(rng: random.Random, g: FiniteGroup,
                             max_points=8) -> GroupAction:
    for _ in range(30):
        sub = random_subgroup(rng, g)
        if g.order() // sub.order() <= max_points:
            return coset_action(g, sub)
    return coset_action(g, g.full_subgroup())


def random_transversal(rng: random.Random, action: GroupAction,
                       basepoint=0) -> PermutationTransversal:
    reps = {basepoint: action.group.identity}
    elems = action.group.sorted_elements()
    buckets = {}
    for e in elems:
        buckets.setdefault(action.act(basepoint, e), []).append(e)
    for v in range(action.npoints):
        if v == basepoint:
            continue
        reps[v] = rng.choice(buckets[v])
    return PermutationTransversal(action, basepoint, reps)


def random_normal_hybrid(rng: random.Random, max_h=24, max_kernel=8,
                         max_points=3, bounds=DEFAULT_BOUNDS):
    """A random normal hybrid wreath: theta projects K x D onto a normal
    subgroup K of H with small index."""
    from .groups import all_subgroups

    pool = small_group_pool(max_h)
    for _ in range(60):
        h = rng.choice(pool)
        normals = [s for s in all_subgroups(h)
                   if s.is_normal() and h.order() // s.order() <= max_points]
        if not normals:
            continue
        k = rng.choice(normals)
        npts = h.order() // k.order()
        kernels = [g for g in small_group_pool(max_kernel)
                   if h.order() * g.order() ** npts <= bounds.enum
                   and g.order() ** npts <= 512]
        if not kernels:
            continue
        d = rng.choice(kernels + [trivial_group()])
        src = direct_product(k.group, d, label="K x D")
        theta = Homomorphism.block(src, h, 0, label="theta")
        try:
            return hybrid_wreath(src, h, theta, bounds=bounds)
        except HypothesisError:
            continue
    raise HypothesisError("could not sample a normal hybrid")
