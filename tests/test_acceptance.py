"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Runtime limits are asserted with the stated budgets. Criterion 9 is the
generator-based large-order suite and is reported separately; it runs only
with --run-stretch.
"""

import itertools
import random
import time

import pytest

from gcompat.bounds import Bounds, HypothesisError
from gcompat.catalog import frobenius21, named_group, quaternion, surjection_onto_subgroup
from gcompat.groups import Subgroup, cyclic, direct_product, symmetric
from gcompat.homs import Homomorphism
from gcompat.hybrid import bw_as_limit, evaluation_maps, hybrid_wreath
from gcompat.inverse_limits import (
    kernel_system,
    limit,
    limit_of_morphism,
    preimage_system,
    subsystem_limit,
)
from gcompat.isos import find_isomorphism
from gcompat.perms import closure, perm_order
from gcompat.sampling import (
    medium_group_pool,
    random_in_forest_poset,
    random_normal_hybrid,
    random_quotient_morphism,
    random_subsystem,
    random_surjective_system,
    random_transitive_action,
    random_transversal,
)
from gcompat.sequences import series_to_sequence
from gcompat.witness import (
    WitnessCertificate,
    assemble_certificate,
    build_recursion_step,
    build_witness_length2,
    comp_membership,
    compatible_central_series,
    compose_witness,
    is_trivially_extendable,
    square_free_series,
    verify_witness,
    witness_nilpotent,
    witness_square_free,
)
from gcompat.wreath import embedding_conjugator, standard_embedding


def report(num, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    print(line)
    assert ok, line


def f21_s3_hybrid():
    g = frobenius21()
    h = symmetric(3)
    a3 = Subgroup(h, members=[e for e in h.elements()
                              if perm_order(e) in (1, 3)], label="A3")
    theta = surjection_onto_subgroup(g, h, a3)
    return g, h, hybrid_wreath(g, h, theta)


def test_criterion_1_hybrid_example():
    t0 = time.time()
    g, h, hw = f21_s3_hybrid()
    ok = hw.order() == 294
    kp = hw.kernel_of_standard_map()
    ok &= kp.order() == 49
    ok &= kp.group.is_abelian()
    ok &= all(perm_order(e) in (1, 7) for e in kp.members())
    ok &= hw.base.order() == 147
    evals = evaluation_maps(hw)
    pairs = {(evals[0](w), evals[1](w)) for w in hw.base.members()}
    ok &= len(pairs) == 147                       # joint injective
    ok &= len({a for a, _ in pairs}) == 21        # both projections onto
    ok &= len({b for _, b in pairs}) == 21
    ok &= len(pairs) < 21 * 21                    # proper in the square
    kp_sub = Subgroup(hw.group, members=kp.members())
    bw_sub = hw.base
    ok &= kp_sub.is_normal() and bw_sub.is_normal()
    q_orders = (kp.order(),
                bw_sub.order() // kp.order(),
                hw.order() // bw_sub.order())
    ok &= q_orders == (49, 3, 2)
    elapsed = time.time() - t0
    ok &= elapsed < 5.0
    report(1, ok, f"HW order 294, kernel 7^2, base 147 proper subdirect, "
                  f"series quotients {q_orders}, {elapsed:.2f}s")


def test_criterion_2_bw_as_limit():
    failures = 0
    _, _, hw = f21_s3_hybrid()
    instances = [hw]
    rng = random.Random(20240802)
    while len(instances) < 21:
        instances.append(random_normal_hybrid(rng))
    for inst in instances:
        lim, ident = bw_as_limit(inst)  # internal checks: iso + commuting
        evals = evaluation_maps(inst)
        for w in inst.base.members():
            img = ident(w)
            if lim.decode(img, "r") != inst.standard_map(w):
                failures += 1
                break
            if any(lim.decode(img, v) != evals[v](w)
                   for v in range(inst.npoints)):
                failures += 1
                break
    report(2, failures == 0,
           f"{len(instances)} hybrids (example + 20 random), "
           f"identification commutes everywhere, {failures} failures")


def test_criterion_3_universal_embedding_suite():
    t0 = time.time()
    rng = random.Random(20240803)
    pool = medium_group_pool(60)
    failures = 0
    count = 0
    while count < 200:
        g = rng.choice(pool)
        act = random_transitive_action(rng, g)
        tr1 = random_transversal(rng, act)
        emb1 = standard_embedding(act, tr1)
        emb1.map.validate()
        if len({emb1(x) for x in g.elements()}) != g.order():
            failures += 1
        tr2 = random_transversal(rng, act)
        emb2 = standard_embedding(act, tr2)
        try:
            embedding_conjugator(emb1, emb2)  # verified elementwise inside
        except HypothesisError:
            failures += 1
        count += 1
    elapsed = time.time() - t0
    ok = failures == 0 and elapsed < 30.0
    report(3, ok, f"200 embeddings injective homomorphisms, conjugators "
                  f"verified, {failures} failures, {elapsed:.1f}s")


def test_criterion_4_inverse_limit_laws():
    rng = random.Random(20240804)
    failures = 0
    for _ in range(200):
        poset = random_in_forest_poset(rng, 5)
        system = random_surjective_system(rng, poset, node_bound=24)
        ls = limit(system)
        for n in ls.node_order:
            if not ls.projection(n).is_surjective():
                failures += 1
        phi = random_quotient_morphism(rng, system)
        z = random_subsystem(rng, phi.target)
        lt = limit(phi.target)
        hom, _, _ = limit_of_morphism(phi, ls, lt)
        z_lim = subsystem_limit(lt, z)
        lhs = subsystem_limit(ls, preimage_system(phi, z)).members()
        rhs = frozenset(x for x in ls.group.elements()
                        if z_lim.contains(hom(x)))
        if lhs != rhs:
            failures += 1
        k_lim = subsystem_limit(ls, kernel_system(phi)).members()
        ker = frozenset(x for x in ls.group.elements()
                        if hom(x) == lt.group.identity)
        if k_lim != ker:
            failures += 1
    report(4, failures == 0,
           f"200 systems: pullback/limit commute as literal subgroups, "
           f"projections surjective, {failures} failures")


def _tower(group, chain):
    return series_to_sequence(group, chain)


def test_criterion_5_length2_witnesses():
    from gcompat.groups import cyclic_normal_subgroup_of_order

    t0 = time.time()
    results = []

    z4 = named_group("Z4")
    v4 = named_group("Z2xZ2")
    two_z4 = Subgroup(z4, members=closure([z4.power(z4.generators[0], 2)]))
    two_v4 = Subgroup(v4, members=closure([v4.generators[0]]))
    s1 = _tower(z4, [z4.trivial_subgroup(), two_z4, z4.full_subgroup()])
    s2 = _tower(v4, [v4.trivial_subgroup(), two_v4, v4.full_subgroup()])
    cert = build_witness_length2(s1, s2, comp_membership(s1, s2))
    rep = verify_witness(cert, z4, v4)
    results.append(("Z4/V4", cert.witness.order() == 8 and rep.passed))

    z6, s3 = named_group("Z6"), named_group("S3")
    three = Subgroup(z6, members=closure([z6.power(z6.generators[0], 2)]))
    a3 = Subgroup(s3, members=[e for e in s3.elements()
                               if perm_order(e) in (1, 3)])
    t1 = _tower(z6, [z6.trivial_subgroup(), three, z6.full_subgroup()])
    t2 = _tower(s3, [s3.trivial_subgroup(), a3, s3.full_subgroup()])
    cert = build_witness_length2(t1, t2, comp_membership(t1, t2))
    rep = verify_witness(cert, z6, s3)
    results.append(("Z6/S3", cert.witness.order() == 18 and rep.passed))

    d8, q8 = named_group("D8"), quaternion()
    n1 = cyclic_normal_subgroup_of_order(d8, 4)
    n2 = cyclic_normal_subgroup_of_order(q8, 4)
    u1 = _tower(d8, [d8.trivial_subgroup(), n1, d8.full_subgroup()])
    u2 = _tower(q8, [q8.trivial_subgroup(), n2, q8.full_subgroup()])
    cert = build_witness_length2(u1, u2, comp_membership(u1, u2))
    rep = verify_witness(cert, d8, q8)
    results.append(("D8/Q8", cert.witness.order() == 32 and rep.passed))

    elapsed = time.time() - t0
    ok = all(flag for _, flag in results) and elapsed < 5.0
    report(5, ok, f"orders 8, 18, 32 with independent verification "
                  f"({', '.join(n for n, _ in results)}), {elapsed:.2f}s")


def test_criterion_6_nilpotent_order8_suite():
    t0 = time.time()
    groups = [named_group("Z8"), named_group("Z4xZ2"), named_group("E(2,3)"),
              named_group("D8"), quaternion()]
    count, failures = 0, []
    for a, b in itertools.combinations(groups, 2):
        s1 = _tower(a, compatible_central_series(a))
        s2 = _tower(b, compatible_central_series(b))
        comp = comp_membership(s1, s2)
        if comp is None:
            failures.append(f"{a.label}/{b.label}: membership")
            continue
        # central factors: the transported inner restrictions are trivial
        for seq in (s1, s2):
            for i in range(2, seq.length):
                if not seq.kernel(i).is_central():
                    failures.append(f"{a.label}/{b.label}: non-central factor")
        cert = witness_nilpotent(a, b)
        ok = cert.witness.order() <= 2048
        ok &= cert.witness.is_enumerable()
        rep = verify_witness(cert, a, b)
        ok &= rep.passed
        ok &= cert.ker1.order() <= 256
        ok &= find_isomorphism(cert.ker1.group, cert.ker2.group) is not None
        if not ok:
            failures.append(f"{a.label}/{b.label}")
        count += 1
    elapsed = time.time() - t0
    ok = count == 10 and not failures and elapsed < 600.0
    report(6, ok, f"10/10 order-8 pairs: membership, witness (order 2048, "
                  f"fully enumerated), all checks incl. independent kernel "
                  f"search, {elapsed:.1f}s")


def test_criterion_7_goodwit_cross_check():
    t0 = time.time()
    g = named_group("Z2xZ4xZ8")
    l1, l2 = named_group("E(2,3)"), named_group("Z8")
    a1, a2, a3 = g.generators
    x1, x2, x3 = l1.generators
    y = l2.generators[0]
    p1 = Homomorphism.from_gen_images(g, l1, {a1: x1, a2: x2, a3: x3}, "p1")
    p2 = Homomorphism.from_gen_images(
        g, l2, {a1: l2.identity, a2: l2.identity, a3: y}, "p2")
    n1 = Subgroup(l1, members=closure([x1]))
    n2 = Subgroup(l2, members=closure([l2.power(y, 4)]))
    cert = assemble_certificate(g, p1, p2, (n1, n2))
    rep = verify_witness(cert, l1, l2)
    ok = rep.passed

    l1p, l2p = named_group("E(2,2)"), named_group("Z4")
    u1, u2 = l1p.generators
    pi1 = Homomorphism.from_gen_images(
        l1, l1p, {x1: l1p.identity, x2: u1, x3: u2}, "pi1")
    pi2 = Homomorphism.from_gen_images(l2, l2p, {y: l2p.generators[0]}, "pi2")
    kappa = find_isomorphism(pi1.kernel().group, pi2.kernel().group)
    ev1 = is_trivially_extendable(pi1, l1p.trivial_subgroup()).evidence
    ev2 = is_trivially_extendable(pi2, l2p.trivial_subgroup()).evidence
    cert2 = compose_witness(cert, pi1, pi2, kappa, (ev1, ev2),
                            (l1p.trivial_subgroup(), l2p.trivial_subgroup()))
    rep2 = verify_witness(cert2, l1p, l2p)
    ok &= rep2.passed
    elapsed = time.time() - t0
    ok &= elapsed < 5.0
    report(7, ok, f"hand certificate for (Z2^3, Z8) incl. extendability at "
                  f"the designated pair, composed witness for (Z2^2, Z4), "
                  f"{elapsed:.2f}s")


def test_criterion_8_order42_recursion_step():
    t0 = time.time()
    l1 = direct_product(frobenius21(), cyclic(2), "F21xZ2")
    l2 = direct_product(cyclic(7), named_group("S3"), "Z7xS3")
    s1 = _tower(l1, square_free_series(l1))
    s2 = _tower(l2, square_free_series(l2))
    comp = comp_membership(s1, s2)
    ok = comp is not None
    step = build_recursion_step(s1, s2, comp)
    ok &= all(c.passed for c in step.checks)
    for d in (1, 2):
        ok &= step.g_lims[d].group.order() == 294
        ok &= step.hybrids[d].order() == 294
        ker_rho = step.rho[d].kernel()
        ker_phi = step.phis[d].kernel()
        # ker(pi_{l+1}) = ker(rho) x ker(phi): elementary abelian 7^3
        ok &= ker_rho.order() * ker_phi.order() == 343
        for sub in (ker_rho, ker_phi):
            ok &= sub.group.is_abelian()
            ok &= all(perm_order(e) in (1, 7) for e in sub.members())
    elapsed = time.time() - t0
    ok &= elapsed < 60.0
    report(8, ok, f"G and H of order 294, eta bijective, squares commute, "
                  f"next kernels Z7^3 both sides, {elapsed:.1f}s")


@pytest.mark.stretch
def test_criterion_9_stretch_end_to_end():
    t0 = time.time()
    b = Bounds()
    ok = True

    z30 = cyclic(30)
    other30 = direct_product(cyclic(5), named_group("S3"), "Z5xS3")
    cert = witness_square_free(z30, other30, b)
    ok &= cert.witness.order() == 7031250
    ok &= verify_witness(cert, z30, other30, b).passed

    l1 = direct_product(frobenius21(), cyclic(2), "F21xZ2")
    l2 = direct_product(cyclic(7), named_group("S3"), "Z7xS3")
    cert42 = witness_square_free(l1, l2, b)
    ok &= cert42.witness.order() == 103766418
    ok &= verify_witness(cert42, l1, l2, b).passed
    elapsed = time.time() - t0
    report(9, ok, f"stretch witnesses of orders 7031250 and 103766418, "
                  f"generator-based orders, maps proved from blocks and "
                  f"the kernel map's generator graph, "
                  f"{elapsed:.1f}s")


def test_criterion_10_negative_controls():
    # tampered certificate fails verification
    l1, l2 = named_group("Z8"), named_group("Z4xZ2")
    cert = witness_nilpotent(l1, l2)
    table = dict(cert.kernel_iso.tabulated())
    keys = sorted(table)
    table[keys[1]], table[keys[2]] = table[keys[2]], table[keys[1]]
    bad = Homomorphism(cert.kernel_iso.source, cert.kernel_iso.target,
                       table=table, check=False)
    tampered = WitnessCertificate(cert.witness, cert.p1, cert.p2, cert.ker1,
                                  cert.ker2, bad, cert.good_at, cert.evidence,
                                  cert.provenance)
    ok = not verify_witness(tampered, l1, l2).passed

    # Z4 -> Z2 is not trivially extendable at Z2
    z4, z2 = named_group("Z4"), named_group("Z2")
    pi = Homomorphism.from_gen_images(z4, z2,
                                      {z4.generators[0]: z2.generators[0]})
    refuted = is_trivially_extendable(pi, z2.full_subgroup())
    ok &= not refuted.ok and refuted.failing.order() == 2

    # non-square-free input is a refuted hypothesis (CLI exit 1)
    from gcompat.cli import run

    ok &= run(["witness", "build", "--L1", "Z4", "--L2", "Z4",
               "--series", "auto-squarefree"]) == 1
    report(10, ok, "tampering detected, Z4->Z2 refuted at Z2, "
                   "non-square-free input exits with refuted status")
