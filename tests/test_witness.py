import pytest

from gcompat.bounds import Bounds, HypothesisError
from gcompat.catalog import frobenius21, named_group, quaternion
from gcompat.groups import FiniteGroup, Subgroup, cyclic, direct_product
from gcompat.homs import Homomorphism
from gcompat.isos import find_isomorphism
from gcompat.perms import closure, inv, mul, perm_order
from gcompat.sequences import GroupSequence, series_to_sequence, sharp
from gcompat.witness import (
    CheckResult,
    WitnessCertificate,
    assemble_certificate,
    build_good_witness,
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


def seq_of(group, chain):
    return series_to_sequence(group, chain)


def cyclic_tower(n, factors):
    """Series of Z_n with the given factor orders, bottom-up."""
    g = cyclic(n)
    gen = g.generators[0]
    chain = [g.trivial_subgroup()]
    size = 1
    for f in factors[:-1]:
        size *= f
        chain.append(Subgroup(g, members=closure([g.power(gen, n // size)])))
    chain.append(g.full_subgroup())
    return g, chain


# ---------------------------------------------------------------------------
# comp membership


def test_length2_pairs_are_always_members():
    z4, chain = cyclic_tower(4, [2, 2])
    s1 = seq_of(z4, chain)
    v4 = named_group("Z2xZ2")
    two = Subgroup(v4, members=closure([v4.generators[0]]))
    s2 = seq_of(v4, [v4.trivial_subgroup(), two, v4.full_subgroup()])
    comp = comp_membership(s1, s2)
    assert comp is not None
    assert set(comp.kernel_isos) == {1, 2}
    assert not comp.alphas  # no condition indices at length 2


def test_incompatible_pair_is_refuted():
    z4, chain = cyclic_tower(4, [2, 2])
    s1 = seq_of(z4, chain)
    z9 = cyclic(9)
    three = Subgroup(z9, members=closure([z9.power(z9.generators[0], 3)]))
    s2 = seq_of(z9, [z9.trivial_subgroup(), three, z9.full_subgroup()])
    with pytest.raises(HypothesisError):
        comp_membership(s1, s2)


def test_central_series_membership_with_trivial_restrictions():
    d8, q8 = named_group("D8"), quaternion()
    s1 = seq_of(d8, compatible_central_series(d8))
    s2 = seq_of(q8, compatible_central_series(q8))
    comp = comp_membership(s1, s2)
    assert comp is not None
    # central kernels: the inner twist restricts to the identity
    i = 2
    k1 = s1.kernel(i)
    tau = comp.taus[(i, 1)]
    for x, tx in tau.items():
        for k in k1.members():
            assert mul(mul(inv(tx), k), tx) == k


def test_comp_data_restriction_identity():
    # the defining identity: transported inner twist = recorded automorphism
    # restricted to the kernel, on both sides
    l1 = direct_product(frobenius21(), cyclic(2))
    l2 = direct_product(cyclic(7), named_group("S3"))
    s1 = seq_of(l1, square_free_series(l1))
    s2 = seq_of(l2, square_free_series(l2))
    comp = comp_membership(s1, s2)
    assert comp is not None
    seqs = {1: s1, 2: s2}
    i = 2
    sigma = comp.kernel_isos[i]
    for delta in (1, 2):
        bar = 3 - delta
        t = sigma if delta == 1 else sigma.inverse()
        k_bar = seqs[bar].kernel(i)
        tau = comp.taus[(i, delta)]
        alpha = comp.alphas[(i, bar)]
        t_inv = t.inverse()
        for x, tx in tau.items():
            a = alpha[x]
            for k in k_bar.members():
                transported = t(mul(mul(inv(tx), t_inv(k)), tx))
                assert a(k) == transported


def test_abelian_aut_tower_membership():
    # cyclic kernels with abelian automorphism groups: condition holds
    z30 = cyclic(30)
    other = direct_product(cyclic(5), named_group("S3"))
    s1 = seq_of(z30, square_free_series(z30))
    s2 = seq_of(other, square_free_series(other))
    assert s1.kernel_orders() == s2.kernel_orders() == (2, 3, 5)
    assert comp_membership(s1, s2) is not None


# ---------------------------------------------------------------------------
# length-2 witnesses


def fiber_count(s1, s2, sigma):
    return sum(1 for a in s1.top.elements() for b in s2.top.elements()
               if sigma(s1.map(2)(a)) == s2.map(2)(b))


def test_length2_z4_vs_v4():
    z4, chain = cyclic_tower(4, [2, 2])
    s1 = seq_of(z4, chain)
    v4 = named_group("Z2xZ2")
    two = Subgroup(v4, members=closure([v4.generators[0]]))
    s2 = seq_of(v4, [v4.trivial_subgroup(), two, v4.full_subgroup()])
    comp = comp_membership(s1, s2)
    cert = build_witness_length2(s1, s2, comp)
    # oracle: count sigma-compatible pairs in the double fiber
    assert cert.witness.order() == fiber_count(s1, s2, comp.kernel_isos[1]) == 8
    assert cert.ker1.order() == cert.ker2.order() == 2
    rep = verify_witness(cert, z4, v4)
    assert rep.passed


def test_length2_z6_vs_s3():
    z6, s3 = named_group("Z6"), named_group("S3")
    three1 = Subgroup(z6, members=closure([z6.power(z6.generators[0], 2)]))
    a3 = Subgroup(s3, members=[e for e in s3.elements()
                               if perm_order(e) in (1, 3)])
    s1 = seq_of(z6, [z6.trivial_subgroup(), three1, z6.full_subgroup()])
    s2 = seq_of(s3, [s3.trivial_subgroup(), a3, s3.full_subgroup()])
    comp = comp_membership(s1, s2)
    cert = build_witness_length2(s1, s2, comp)
    assert cert.witness.order() == fiber_count(s1, s2, comp.kernel_isos[1]) == 18
    assert verify_witness(cert, z6, s3).passed


def test_length2_d8_vs_q8_over_z4():
    from gcompat.groups import cyclic_normal_subgroup_of_order

    d8, q8 = named_group("D8"), quaternion()
    n1 = cyclic_normal_subgroup_of_order(d8, 4)
    n2 = cyclic_normal_subgroup_of_order(q8, 4)
    s1 = seq_of(d8, [d8.trivial_subgroup(), n1, d8.full_subgroup()])
    s2 = seq_of(q8, [q8.trivial_subgroup(), n2, q8.full_subgroup()])
    cert = build_witness_length2(s1, s2, comp_membership(s1, s2))
    assert cert.witness.order() == 32
    rep = verify_witness(cert, d8, q8)
    assert rep.passed


def test_length2_identical_sequences_gives_double_fiber():
    z4, chain = cyclic_tower(4, [2, 2])
    s1 = seq_of(z4, chain)
    cert = build_witness_length2(s1, s1, comp_membership(s1, s1))
    assert cert.witness.order() == 8  # 4*4/2
    assert verify_witness(cert, z4, z4).passed


# ---------------------------------------------------------------------------
# trivial extendability


def test_trivial_kernel_always_extendable():
    z4 = cyclic(4)
    ident = Homomorphism.identity(z4)
    rep = is_trivially_extendable(ident, z4.full_subgroup())
    assert rep.ok


def test_extendability_search_reads_the_kernel_under_the_callers_bound():
    # S8 (order 40320) is past the default enumeration bound 20000; a
    # caller's bound that admits it admits the sign map's kernel too
    from itertools import combinations

    s8, z2 = named_group("S8"), cyclic(2)
    sign = Homomorphism.of_rule(
        s8, z2, lambda x: z2.generators[0]
        if sum(a > b for a, b in combinations(x, 2)) % 2 else z2.identity,
        label="sign")
    report = is_trivially_extendable(sign, z2.trivial_subgroup(),
                                     Bounds(enum=50000))
    assert report.ok
    assert sign.kernel().order() == 20160


def test_complement_budget_bounds_the_search():
    from gcompat.bounds import UndecidedError
    from gcompat.witness import _find_complement

    z4 = cyclic(4)
    ident = Homomorphism.identity(z4)
    kmembers = ident.kernel().members()
    # Z4 itself has one candidate section under the identity
    with pytest.raises(UndecidedError):
        _find_complement(ident, z4.full_subgroup(), kmembers, 0)
    assert _find_complement(ident, z4.full_subgroup(), kmembers,
                            1) is not None


def test_star_projection_extendable_at_branch_kernel():
    from gcompat.inverse_limits import star_limit, star_system

    z4, z2 = cyclic(4), cyclic(2)
    pi = Homomorphism.from_gen_images(z4, z2,
                                      {z4.generators[0]: z2.generators[0]})
    system = star_system(z2, [z4, z4], [pi, pi])
    lim = star_limit(system)
    p0 = lim.projection(0)
    rep = is_trivially_extendable(p0, pi.kernel())
    assert rep.ok


def test_z4_mod2_refuted_at_z2():
    z4, z2 = cyclic(4), cyclic(2)
    pi = Homomorphism.from_gen_images(z4, z2,
                                      {z4.generators[0]: z2.generators[0]})
    rep = is_trivially_extendable(pi, z2.full_subgroup())
    assert not rep.ok
    assert rep.failing.order() == 2


# ---------------------------------------------------------------------------
# compose


def goodwit_certificate():
    g = named_group("Z2xZ4xZ8")
    l1 = named_group("E(2,3)")
    l2 = named_group("Z8")
    a1, a2, a3 = g.generators
    x1, x2, x3 = l1.generators
    y = l2.generators[0]
    p1 = Homomorphism.from_gen_images(g, l1, {a1: x1, a2: x2, a3: x3}, "p1")
    p2 = Homomorphism.from_gen_images(
        g, l2, {a1: l2.identity, a2: l2.identity, a3: y}, "p2")
    n1 = Subgroup(l1, members=closure([x1]))
    n2 = Subgroup(l2, members=closure([l2.power(y, 4)]))
    return g, l1, l2, assemble_certificate(g, p1, p2, (n1, n2))


def test_goodwit_hand_certificate_passes():
    g, l1, l2, cert = goodwit_certificate()
    rep = verify_witness(cert, l1, l2)
    assert rep.passed


def goodwit_compose_to_quotients(cert, l1, l2):
    """`cert` composed onto E(2,2) and Z4: (composed certificate, E(2,2),
    Z4)."""
    x1, x2, x3 = l1.generators
    y = l2.generators[0]
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
    return cert2, l1p, l2p


def test_goodwit_compose_to_quotients():
    g, l1, l2, cert = goodwit_certificate()
    cert2, l1p, l2p = goodwit_compose_to_quotients(cert, l1, l2)
    assert cert2.ker1.order() == cert.ker1.order() * 2
    assert verify_witness(cert2, l1p, l2p).passed


def test_goodwit_composition_is_pinned():
    # the hand composition's certificate, report included, and its base
    import hashlib

    from gcompat.descriptors import certificate_to_descriptor, dumps

    def digest(c, report=None):
        text = dumps(certificate_to_descriptor(c, Bounds(), report))
        return hashlib.sha256(text.encode()).hexdigest()

    g, l1, l2, cert = goodwit_certificate()
    cert2, l1p, l2p = goodwit_compose_to_quotients(cert, l1, l2)
    report = verify_witness(cert2, l1p, l2p, Bounds())
    assert digest(cert2, report) == \
        "ecf84c6681ab45d88fc1dd3f8ef6342f07c686c418e38bf5e4c545042b3f44d7"
    assert digest(cert) == \
        "0a3709a7c01ab73584d359066fa38dcee2120c15fa56d750fd6a1c416ddba8ae"


def _reference_lift(ev_p, ev_pi, p, pi, members):
    """pi's complement of `members` lifted through p's complement of their
    preimage, the preimage found by evaluating pi on its whole source."""
    pre = [x for x in pi.source.elements() if pi(x) in members]
    outer = ev_p.complement_for(pre)
    return frozenset(next(c for c in outer if p(c) == x)
                     for x in ev_pi.complement_for(members))


def _split_e24_composition(quotient):
    """E(2,4) onto its two E(2,2) factors, good at both, composed with
    quotients onto Z2 (or with the identity maps, good at all of E(2,2)):
    (base, composed certificate, pi maps, their evidence, targets)."""
    g, e22 = named_group("E(2,4)"), named_group("E(2,2)")
    (u1, u2), one = e22.generators, e22.identity
    a1, a2, a3, a4 = g.generators
    p1 = Homomorphism.from_gen_images(
        g, e22, {a1: u1, a2: u2, a3: one, a4: one}, "p1")
    p2 = Homomorphism.from_gen_images(
        g, e22, {a1: one, a2: one, a3: u1, a4: u2}, "p2")
    base = assemble_certificate(g, p1, p2, (e22.full_subgroup(),
                                            e22.full_subgroup()))
    if quotient:
        top = cyclic(2)
        pis = [Homomorphism.from_gen_images(
            e22, top, {u1: top.generators[0], u2: top.identity}, f"pi{d}")
            for d in (1, 2)]
    else:
        top = e22
        pis = [Homomorphism.identity(e22)] * 2
    evs = tuple(is_trivially_extendable(pi, top.full_subgroup()).evidence
                for pi in pis)
    kappa = find_isomorphism(pis[0].kernel().group, pis[1].kernel().group)
    cert = compose_witness(base, pis[0], pis[1], kappa, evs,
                           (top.full_subgroup(), top.full_subgroup()))
    return base, cert, pis, evs, top


@pytest.mark.parametrize("quotient,count", [(True, 2), (False, 5)])
def test_lifted_table_equals_the_reference_lift(quotient, count):
    from gcompat.groups import all_subgroups

    base, cert, pis, evs, top = _split_e24_composition(quotient)
    assert verify_witness(cert, top, top).passed
    for d in (0, 1):
        ev = cert.evidence[d]
        assert ev.block is None and ev.kind == "composed"
        subs = all_subgroups(ev.n.group)
        assert len(subs) == count
        assert set(ev.table) == {m.members() for m in subs}
        p = (base.p1, base.p2)[d]
        for m_sub in subs:
            assert ev.table[m_sub.members()] == _reference_lift(
                base.evidence[d], evs[d], p, pis[d], m_sub.members())


def test_verification_reads_no_fiber_memo(monkeypatch):
    # a hand composition's evidence is lifted when composed, so verifying
    # it, or a built certificate, never reads a map's preimages or section
    g, l1, l2, base = goodwit_certificate()
    _, split, _, _, z2 = _split_e24_composition(True)
    cases = [goodwit_compose_to_quotients(base, l1, l2),
             _identity_composition()[:3], (split, z2, z2)]
    z6, s3 = named_group("Z6"), named_group("S3")
    cases.append((witness_square_free(z6, s3), z6, s3))

    def refuse(*args):
        raise AssertionError("a map's fibers were read at verify time")

    monkeypatch.setattr(Homomorphism, "section", refuse)
    monkeypatch.setattr(Homomorphism, "preimage_members", refuse)
    for cert, a, b in cases:
        assert verify_witness(cert, a, b).passed


def test_placed_evidence_refuses_a_member_outside_n():
    from gcompat.witness import placed_evidence

    z4, chain = cyclic_tower(4, [2, 2])
    s1 = seq_of(z4, chain)
    cert = build_witness_length2(s1, s1, comp_membership(s1, s1))
    ev = cert.evidence[0]
    assert ev.block == (cert.p1.offset, cert.witness.degree)
    outside = next(x for x in z4.elements() if not ev.n.contains(x))
    with pytest.raises(HypothesisError, match="not below the designated n"):
        ev.complement_for([z4.identity, outside])
    with pytest.raises(HypothesisError, match="not a block map"):
        placed_evidence(Homomorphism.identity(z4), ev.n, "star-projection")


def test_compose_with_identity_keeps_certificate():
    g, l1, l2, cert = goodwit_certificate()
    id1, id2 = Homomorphism.identity(l1), Homomorphism.identity(l2)
    kappa = find_isomorphism(id1.kernel().group, id2.kernel().group)
    ev1 = is_trivially_extendable(id1, cert.good_at[0]).evidence
    ev2 = is_trivially_extendable(id2, cert.good_at[1]).evidence
    cert2 = compose_witness(cert, id1, id2, kappa, (ev1, ev2), cert.good_at)
    assert cert2.witness is cert.witness
    assert cert2.ker1.members() == cert.ker1.members()
    assert verify_witness(cert2, l1, l2).passed


def test_compose_length2_with_own_top_maps():
    z4, chain = cyclic_tower(4, [2, 2])
    s1 = seq_of(z4, chain)
    cert = build_witness_length2(s1, s1, comp_membership(s1, s1))
    pi = s1.map(2)
    kappa = find_isomorphism(pi.kernel().group, pi.kernel().group)
    bottom = s1.group(1)
    ev = is_trivially_extendable(pi, bottom.trivial_subgroup()).evidence
    cert2 = compose_witness(cert, pi, pi, kappa, (ev, ev),
                            (bottom.trivial_subgroup(),
                             bottom.trivial_subgroup()))
    # kernels grow by the contracted factor
    assert cert2.ker1.order() == cert.ker1.order() * pi.kernel().order()
    assert verify_witness(cert2, bottom, bottom).passed


def test_compose_hands_on_a_kernel_map_that_breaks_the_law():
    # compose_witness does not check its composed kernel map: a certificate
    # map whose images of the identity and of ker1's least other element
    # are swapped composes, and the verifier's edge check alone refuses it
    from dataclasses import replace

    g, l1, l2, cert = goodwit_certificate()
    table = dict(cert.kernel_iso.tabulated())
    e = cert.ker1.group.identity
    least = min(x for x in table if x != e)
    table[e], table[least] = table[least], table[e]
    swapped = Homomorphism(cert.ker1.group, cert.ker2.group, table=table,
                           label="kernel-iso", check=False)
    cert2, l1p, l2p = goodwit_compose_to_quotients(
        replace(cert, kernel_iso=swapped), l1, l2)
    checks = verify_witness(cert2, l1p, l2p).checks
    assert [c.name for c in checks if not c.passed] == [
        "kernel-iso-homomorphism"]
    assert CheckResult("kernel-iso-independent-search", True,
                       "brute force at order 16") in checks


def test_compose_refuses_a_kernel_map_that_is_not_bijective():
    # the builders check no kernel map of their own: compose_witness's
    # is_bijective on kappa_pi is what refuses a collapsing one
    z4, chain = cyclic_tower(4, [2, 2])
    s1 = seq_of(z4, chain)
    cert = build_witness_length2(s1, s1, comp_membership(s1, s1))
    pi = s1.map(2)
    kpi = pi.kernel().group
    collapse = Homomorphism.trivial(kpi, kpi)
    bottom = s1.group(1)
    ev = is_trivially_extendable(pi, bottom.trivial_subgroup()).evidence
    with pytest.raises(HypothesisError, match="not an isomorphism"):
        compose_witness(cert, pi, pi, collapse, (ev, ev),
                        (bottom.trivial_subgroup(), bottom.trivial_subgroup()))


# ---------------------------------------------------------------------------
# recursion step


def test_recursion_step_order8():
    z8 = named_group("Z8")
    v8 = named_group("E(2,3)")
    s1 = seq_of(z8, compatible_central_series(z8))
    s2 = seq_of(v8, compatible_central_series(v8))
    comp = comp_membership(s1, s2)
    step = build_recursion_step(s1, s2, comp)
    assert step.n == 2
    for d in (1, 2):
        assert step.g_lims[d].group.order() == 16
        assert step.hybrids[d].order() == 16
    assert all(c.passed for c in step.checks)


def test_eta_from_generator_images_is_the_base_identification():
    # eta_d is given by its values at BW's generators; at every member it
    # is the assignment (sigma^(dbar-d)(phi_d(w)), w's base entries)
    z8, v8 = named_group("Z8"), named_group("E(2,3)")
    s1 = seq_of(z8, compatible_central_series(z8))
    s2 = seq_of(v8, compatible_central_series(v8))
    comp = comp_membership(s1, s2)
    step = build_recursion_step(s1, s2, comp)
    sigma = comp.kernel_isos[2]
    for d, fwd in ((1, sigma), (2, sigma.inverse())):
        hw, lim_bar = step.hybrids[d], step.g_lims[3 - d]
        for w in hw.base.members():
            base, _ = hw.decode(w)
            asg = {"r": fwd(step.phis[d](w)), **dict(enumerate(base))}
            assert step.eta[d](w) == lim_bar.encode(asg)


def _z8_e23_step_inputs():
    z8, v8 = named_group("Z8"), named_group("E(2,3)")
    s1 = seq_of(z8, compatible_central_series(z8))
    s2 = seq_of(v8, compatible_central_series(v8))
    return s1, s2, comp_membership(s1, s2)


@pytest.mark.parametrize("wrong", ["root-sent-to-1", "all-sent-to-1"])
def test_recursion_step_refuses_an_eta_image_outside_the_kernel_system(
        monkeypatch, wrong):
    # root entries sent to 1: an image whose base entries do not all lie in
    # the top kernel is no coherent tuple, so it lies outside limZ; every
    # image sent to 1: eta lands in limZ but is not injective
    from gcompat.hybrid import HybridWreath
    from gcompat.inverse_limits import LimitGroup

    s1, s2, comp = _z8_e23_step_inputs()
    if wrong == "root-sent-to-1":
        onto_limit = HybridWreath.onto_limit

        def trivial_twist(self, lim, over, twist, label):
            return onto_limit(self, lim, over,
                              Homomorphism.trivial(twist.source, twist.target),
                              label)

        monkeypatch.setattr(HybridWreath, "onto_limit", trivial_twist)
    else:
        monkeypatch.setattr(LimitGroup, "encode",
                            lambda self, asg: self.group.identity)
    with pytest.raises(HypothesisError, match="^eta_1: base subgroup is not "
                       "identified with the limit$"):
        build_recursion_step(s1, s2, comp)


def test_recursion_step_refuses_a_square_that_differs_at_one_generator(
        monkeypatch):
    # side 2's limit projection onto branch 0 sends eta_1(w0) to 1 and
    # agrees with the true one everywhere else
    from gcompat.inverse_limits import LimitGroup

    s1, s2, comp = _z8_e23_step_inputs()
    step = build_recursion_step(s1, s2, comp)
    hw = step.hybrids[1]
    w0 = next(w for w in hw.base.group.generators
              if step.phis[1](w) != step.phis[1].target.identity)
    e0 = step.eta[1](w0)
    project = LimitGroup.projection

    def off_at_e0(self, node):
        p = project(self, node)
        if node != 0:
            return p
        return Homomorphism.of_rule(
            p.source, p.target,
            lambda x: p.target.identity if x == e0 else p(x))

    monkeypatch.setattr(LimitGroup, "projection", off_at_e0)
    with pytest.raises(HypothesisError,
                       match="kernel square 1 does not commute"):
        build_recursion_step(s1, s2, comp)


def test_building_d8_q8_reads_no_preimage_in_a_limit(monkeypatch):
    # each eta_d is decided at BW_d's generators and by orders, so no
    # twisted star limit's kernel system p_r^-1(K) is read off its root
    # projection; a kernel is the preimage of the trivial member set, and
    # the contracted map's kernel, out of the next level's limit, is no
    # twisted star's kernel system
    import gcompat.witness as witness

    limits, sources = [], []
    step, preimage = witness.build_recursion_step, \
        Homomorphism.preimage_members

    def record_step(*args):
        out = step(*args)
        limits.extend(lim.group for lim in out.g_lims.values())
        return out

    def record_preimage(self, members):
        members = list(members)
        if any(tuple(m) != self.target.identity for m in members):
            sources.append(self.source)
        return preimage(self, members)

    monkeypatch.setattr(witness, "build_recursion_step", record_step)
    monkeypatch.setattr(Homomorphism, "preimage_members", record_preimage)
    witness_nilpotent(named_group("D8"), quaternion())
    assert limits and sources  # each hybrid's base is still a preimage
    assert not any(s is g for s in sources for g in limits)


def test_kappa_next_is_a_bijection_of_the_new_top_kernels(monkeypatch):
    # given by generator images, kappa_next is tabulated over all of
    # ker(pi1) and sends it one-to-one onto ker(pi2)
    import gcompat.witness as witness

    calls = []
    compose = witness.compose_witness

    def capture(base, pi1, pi2, kappa_pi, *args, **kwargs):
        calls.append((pi1, pi2, kappa_pi))
        return compose(base, pi1, pi2, kappa_pi, *args, **kwargs)

    monkeypatch.setattr(witness, "compose_witness", capture)
    witness_nilpotent(named_group("Z8"), named_group("E(2,3)"))
    (pi1, pi2, kappa), = calls
    assert kappa.label == "kappa_next"
    table = kappa.tabulated()
    assert set(table) == pi1.kernel().members()
    assert len(set(table.values())) == len(table)
    assert set(table.values()) == pi2.kernel().members()


def test_recursion_step_order42():
    l1 = direct_product(frobenius21(), cyclic(2))
    l2 = direct_product(cyclic(7), named_group("S3"))
    s1 = seq_of(l1, square_free_series(l1))
    s2 = seq_of(l2, square_free_series(l2))
    comp = comp_membership(s1, s2)
    step = build_recursion_step(s1, s2, comp)
    for d in (1, 2):
        assert step.g_lims[d].group.order() == 294
        assert step.hybrids[d].order() == 294
        ker_rho = step.rho[d].kernel()
        ker_phi = step.phis[d].kernel()
        assert ker_rho.order() * ker_phi.order() == 343
    assert all(c.passed for c in step.checks)


def test_recursion_step_order30():
    z30 = cyclic(30)
    other = direct_product(cyclic(5), named_group("S3"))
    s1 = seq_of(z30, square_free_series(z30))
    s2 = seq_of(other, square_free_series(other))
    comp = comp_membership(s1, s2)
    step = build_recursion_step(s1, s2, comp)
    for d in (1, 2):
        assert step.g_lims[d].group.order() == 150
        assert step.hybrids[d].order() == 150
    assert all(c.passed for c in step.checks)


def test_recursion_step_degenerate_trivial_kernels():
    # identity maps at the top two levels: the hybrid collapses to S_{l-1}
    z2 = cyclic(2)
    triv = z2.trivial_subgroup()
    seq = GroupSequence(
        [named_group("1"), z2, z2, z2],
        [Homomorphism.trivial(z2, named_group("1")),
         Homomorphism.identity(z2), Homomorphism.identity(z2)])
    comp = comp_membership(seq, seq)
    step = build_recursion_step(seq, seq, comp)
    for d in (1, 2):
        assert step.hybrids[d].order() == 2
        assert step.hybrids[d].theta.image().order() == 1


def d8_vs_z2z4_pair():
    """Length-3 pair whose level-2 condition rejects most kernel maps.

    Side 1 is D8 over the Klein subgroup containing the center (inner twists
    swap the two non-central involutions); side 2 is Z2xZ4 over its
    involution subgroup, where automorphism restrictions must fix the
    square. Only the aligned kernel isomorphisms transport correctly.
    """
    from gcompat.sequences import GroupSequence
    from gcompat.groups import trivial_group

    d8 = named_group("D8")
    rot, ref = d8.generators
    k1 = Subgroup(d8, members=closure([d8.power(rot, 2), ref]))
    z2 = cyclic(2)
    pi21 = Homomorphism(
        d8, z2, table={p: z2.identity if p in k1.members()
                       else z2.generators[0] for p in d8.elements()})
    za = named_group("Z2xZ4")
    g1, g2 = za.generators
    pi22 = Homomorphism.from_gen_images(za, z2,
                                        {g1: z2.identity,
                                         g2: z2.generators[0]})
    tops = {}
    for name, base, pi in (("1", d8, pi21), ("2", za, pi22)):
        ext = direct_product(base, cyclic(2))

        def proj(p, deg=base.degree):
            return tuple(p[:deg])

        pi3 = Homomorphism(ext, base,
                           table={x: proj(x) for x in ext.elements()})
        triv_map = Homomorphism.trivial(z2, trivial_group())
        tops[name] = GroupSequence([trivial_group(), z2, base, ext],
                                   [triv_map, pi, pi3])
    return tops["1"], tops["2"]


def test_condition_rejects_misaligned_kernel_isomorphisms():
    from gcompat.bounds import DEFAULT_BOUNDS
    from gcompat.isos import enumerate_isomorphisms
    from gcompat.witness import _condition_side, _derive_alpha_tau

    s1, s2 = d8_vs_z2z4_pair()
    k1g, k2g = s1.kernel(2).group, s2.kernel(2).group
    sides = {d: _condition_side((s1, s2), 2, d, DEFAULT_BOUNDS)
             for d in (1, 2)}
    verdicts = []
    for sigma in enumerate_isomorphisms(k1g, k2g):
        fwd = {1: sigma, 2: sigma.inverse()}
        verdicts.append(all(_derive_alpha_tau(sides[d], fwd, d) is not None
                            for d in (1, 2)))
    assert verdicts.count(True) == 2
    assert verdicts.count(False) == 4
    comp = comp_membership(s1, s2)
    assert comp is not None


def test_good_witness_with_nontrivial_twists():
    # the selected automorphisms genuinely move kernel elements here, so the
    # recursion runs with twisted star branches
    s1, s2 = d8_vs_z2z4_pair()
    comp = comp_membership(s1, s2)
    # the D8 inner swap transports to a genuinely moving automorphism of
    # the abelian side (the reverse direction is trivial: abelian inners)
    alpha = comp.alphas[(2, 2)]
    assert any(any(a(k) != k for k in s2.kernel(2).members())
               for a in alpha.values())
    cert = build_good_witness(s1, s2, comp)
    assert cert.witness.order() == 8192
    rep = verify_witness(cert, s1.top, s2.top)
    assert rep.passed


# ---------------------------------------------------------------------------
# full recursion


def test_good_witness_delegates_to_length2():
    z4, chain = cyclic_tower(4, [2, 2])
    s1 = seq_of(z4, chain)
    cert = build_good_witness(s1, s1)
    assert cert.witness.order() == 8
    assert cert.provenance.kind == "length2"


def test_good_witness_d8_q8_order_2048():
    d8, q8 = named_group("D8"), quaternion()
    cert = witness_nilpotent(d8, q8)
    assert cert.witness.order() == 2048
    assert cert.ker1.order() == cert.ker2.order() == 256
    rep = verify_witness(cert, d8, q8)
    assert rep.passed
    # the verifier derives the kernels' isomorphism from the certificate's
    # map; this brute-force search is the suite's independent cross-check
    assert find_isomorphism(cert.ker1.group, cert.ker2.group) is not None


def test_good_witness_z8_vs_e8():
    z8, e8 = named_group("Z8"), named_group("E(2,3)")
    cert = witness_nilpotent(z8, e8)
    assert verify_witness(cert, z8, e8).passed


def _d8_q8_with_its_composition(monkeypatch):
    """The D8|Q8 certificate and the arguments (base certificate, pi1,
    pi2) of the quotient composition that produced it."""
    import gcompat.witness as witness

    calls = []
    compose = witness.compose_witness

    def capture(base, pi1, pi2, *args, **kwargs):
        calls.append((base, pi1, pi2))
        return compose(base, pi1, pi2, *args, **kwargs)

    monkeypatch.setattr(witness, "compose_witness", capture)
    cert = witness_nilpotent(named_group("D8"), quaternion())
    return cert, calls[-1]


def test_kernel_iso_respects_the_decomposition_links(monkeypatch):
    # stored kernel map sends the lifted complement onto the other side's
    # lifted complement and the inner kernel onto the inner kernel
    cert, (base, pi1, pi2) = _d8_q8_with_its_composition(monkeypatch)
    d_one = base.evidence[0].complement_for(pi1.kernel().members())
    d_two = base.evidence[1].complement_for(pi2.kernel().members())
    ki = cert.kernel_iso
    assert {ki(d) for d in d_one} == set(d_two)
    inner_ker1 = {z for z in cert.ker1.members()
                  if base.p1(z) == base.p1.target.identity}
    inner_ker2 = {z for z in cert.ker2.members()
                  if base.p2(z) == base.p2.target.identity}
    assert {ki(z) for z in inner_ker1} == inner_ker2


def test_composed_kernel_is_internal_direct_product(monkeypatch):
    # ker(pi o p) = D x ker(p): trivial intersection, elementwise commuting,
    # full product
    cert, (base, pi1, pi2) = _d8_q8_with_its_composition(monkeypatch)
    for ev, p, pi, ker_sub in ((base.evidence[0], base.p1, pi1, cert.ker1),
                               (base.evidence[1], base.p2, pi2, cert.ker2)):
        d_comp = ev.complement_for(pi.kernel().members())
        inner = {z for z in ker_sub.members() if p(z) == p.target.identity}
        ident = cert.witness.identity
        assert set(d_comp) & inner == {ident}
        for c in d_comp:
            for k in inner:
                assert mul(c, k) == mul(k, c)
        assert {mul(c, k) for c in d_comp for k in inner} == ker_sub.members()


def test_witness_nilpotent_rejects_bad_input():
    with pytest.raises(HypothesisError):
        witness_nilpotent(named_group("Z8"), named_group("Z4"))
    with pytest.raises(HypothesisError):
        witness_nilpotent(named_group("S3"), named_group("Z6"))


def test_witness_square_free_z6_s3():
    cert = witness_square_free(named_group("Z6"), named_group("S3"))
    assert cert.witness.order() == 18
    assert verify_witness(cert, named_group("Z6"), named_group("S3")).passed


def test_witness_square_free_rejects_non_square_free():
    with pytest.raises(HypothesisError):
        witness_square_free(named_group("Z4"), named_group("Z4"))


@pytest.mark.parametrize("series, name, orders", [
    (compatible_central_series, "Q8", [1, 2, 4, 8]),
    (compatible_central_series, "D8", [1, 2, 4, 8]),
    (square_free_series, "Z30", [1, 5, 15, 30]),
    (square_free_series, "F21xZ2", [1, 7, 21, 42]),
    (square_free_series, "Z7xS3", [1, 7, 21, 42]),
])
def test_series_term_orders_and_normality(series, name, orders):
    # central picks climb by the smallest prime, Sylow picks by the largest
    g = named_group(name)
    chain = series(g)
    assert [t.order() for t in chain] == orders
    assert all(a <= b for a, b in zip(chain, chain[1:]))
    assert all(t.parent is g and t.is_normal() for t in chain)


def test_entry_point_hypothesis_messages():
    def refusal(build, a, b):
        with pytest.raises(HypothesisError) as e:
            build(named_group(a), named_group(b))
        return str(e.value)

    # unequal orders are refused before nilpotency is looked at
    assert refusal(witness_nilpotent, "D8", "S3xZ2") \
        == "groups have different orders"
    assert refusal(witness_nilpotent, "S3", "Z6") == "S3 is not nilpotent"
    assert refusal(witness_square_free, "Z6", "Z4") \
        == "groups have different orders"
    assert refusal(witness_square_free, "A4", "Z12") \
        == "|A4| = 12 is not square-free"


def test_length4_recursion_is_gated_honestly():
    # intermediate fibers at length 4 outgrow desk scale; no silent numbers
    from gcompat.bounds import UndecidedError

    with pytest.raises(UndecidedError):
        witness_nilpotent(named_group("Z16"), named_group("E(2,4)"))


def test_contracted_kernel_is_closed_under_the_bound_in_force():
    # D8|Q8 contracts onto tops of order 64: built within the bound,
    # refused below it with a message naming the bound that was applied
    from gcompat.bounds import UndecidedError

    d8, q8 = named_group("D8"), quaternion()
    cert = witness_nilpotent(d8, q8, Bounds(enum=100))
    assert cert.witness.order() == 2048
    assert verify_witness(cert, d8, q8, Bounds(enum=100)).passed
    with pytest.raises(UndecidedError, match=r"kernel of Pi_1: .*order 64, "
                       r"past the enumeration bound 50\)"):
        witness_nilpotent(d8, q8, Bounds(enum=50))


@pytest.mark.stretch
def test_order_30_stretch_end_to_end():
    b = Bounds()
    z30 = cyclic(30)
    other = direct_product(cyclic(5), named_group("S3"))
    cert = witness_square_free(z30, other, b)
    assert cert.witness.order() == 7031250
    assert verify_witness(cert, z30, other, b).passed


@pytest.mark.stretch
def test_order_30_stretch_negative_controls():
    from dataclasses import replace

    b = Bounds()
    z30, other = cyclic(30), direct_product(cyclic(5), named_group("S3"))
    cert = witness_square_free(z30, other, b)
    # p1 as a rule rather than a block map: proved by its graph chain,
    # never sampled
    rule_p1 = Homomorphism.of_rule(cert.witness, cert.p1.target, cert.p1,
                                   label="p1")
    rep = verify_witness(replace(cert, p1=rule_p1), z30, other, b)
    assert rep.passed
    assert CheckResult("p1-homomorphism", True,
                       "generator graph of order 7031250 = |G|") in rep.checks
    # a rule p1 that sends an order-15 generator to the element of order 2,
    # which no homomorphism does
    g15 = next(g for g in cert.witness.generators if perm_order(g) == 15)
    y2 = next(y for y in cert.p1.target.elements() if perm_order(y) == 2)
    broken = Homomorphism.of_rule(cert.witness, cert.p1.target,
                                  lambda x: y2 if x == g15 else cert.p1(x),
                                  label="p1")
    checks = {c.name: c for c in verify_witness(
        replace(cert, p1=broken), z30, other, b).checks}
    assert not checks["p1-homomorphism"].passed
    assert checks["p1-homomorphism"].detail.startswith(
        "p1: generator graph has order ")
    assert "p1-surjective" not in checks and checks["p2-homomorphism"].passed
    # nothing is derived from an unproved map
    assert not checks["quotient-1-isomorphic"].passed
    assert checks["quotient-1-isomorphic"].detail == (
        "failed: p1-homomorphism; absent: p1-surjective, ker-p1-matches")
    assert checks["quotient-2-isomorphic"].passed
    # an order-5 kernel generator sent to an order-15 element
    ki, gens = cert.kernel_iso, cert.ker1.group.generators
    five = next(g for g in gens if perm_order(g) == 5)
    fifteen = ki(gens[0])
    assert perm_order(fifteen) == 15
    images = {g: fifteen if g == five else ki(g) for g in gens}
    tampered = Homomorphism.of_rule(
        ki.source, ki.target,
        lambda x: images[x] if x in images else ki(x), label="kernel-iso")
    rep = verify_witness(replace(cert, kernel_iso=tampered), z30, other, b)
    checks = {c.name: c for c in rep.checks}
    assert not checks["kernel-iso-homomorphism"].passed and not rep.passed
    with pytest.raises(HypothesisError, match="generator graph has order"):
        Homomorphism.of_rule(ki.source, ki.target, images.__getitem__,
                             label="kernel-iso").graph_chain().order


def _length2_builds(monkeypatch, build, *args):
    """The result of `build(*args)` and, for each length-2 certificate
    built on the way, (certificate, its CompData, its star limit, the
    labels of the tables edge-checked while it was built)."""
    import gcompat.sequences as sequences
    import gcompat.witness as witness

    limits, checked, calls = [], [], []
    length2, star = witness.build_witness_length2, sequences.star_limit
    edges = Homomorphism.check_table_edges

    def record_limit(*a, **kw):
        limits.append(star(*a, **kw))
        return limits[-1]

    def record_edges(self):
        checked.append(self.label)
        return edges(self)

    def capture(s1, s2, comp=None, bounds=Bounds()):
        before, seen = len(limits), len(checked)
        cert = length2(s1, s2, comp, bounds)
        calls.append((cert, comp, limits[before], checked[seen:]))
        return cert

    # the builders' fibers are `sharp` calls, which reach star_limit
    # through `sequences`
    monkeypatch.setattr(sequences, "star_limit", record_limit)
    monkeypatch.setattr(witness, "build_witness_length2", capture)
    monkeypatch.setattr(Homomorphism, "check_table_edges", record_edges)
    return build(*args), calls


def _assert_length2_kernel_iso_is_the_placed_inverse(base, comp, lim):
    kappa2_inv = comp.kernel_isos[2].inverse()
    expected = {lim.place(1, y): lim.place(0, kappa2_inv(y))
                for y in kappa2_inv.source.elements()}
    assert len(expected) == base.ker1.order()
    table = {z: base.kernel_iso(z) for z in base.ker1.members()}
    assert table == expected
    Homomorphism(base.ker1.group, base.ker2.group, table=table,
                 label="kernel-iso", check=False).check_table_edges()


def _contracted_maps(calls):
    """The contracted kernel maps handed to the length-2 builds of
    `calls` (`_length2_builds`), as their CompData's level-2 map."""
    return [comp.kernel_isos[2] for _, comp, _, _ in calls
            if comp.kernel_isos[2].label == "kappa_contracted"]


def _assert_inverts_by_sifting(kappa):
    # a rule whose sifting inverse equals the flip of its tabulated map at
    # every element, and which stays untabulated
    assert kappa._table is None
    sifted = kappa.inverse()
    table = {x: kappa(x) for x in kappa.source.elements()}
    flipped = Homomorphism(kappa.source, kappa.target, table=table,
                           check=False).inverse().tabulated()
    assert len(flipped) == kappa.target.order() == len(table)
    assert all(sifted(y) == x for y, x in flipped.items())
    assert kappa._table is None


@pytest.mark.parametrize("a,b,build,count", [
    ("D8", "Q8", witness_nilpotent, 1),
    ("Z8", "E(2,3)", witness_nilpotent, 1),
    # a length-2 pair: no recursion step, so no contracted map
    ("Z21", "F21", witness_square_free, 0)])
def test_contracted_kernel_maps_invert_by_sifting(monkeypatch, a, b, build,
                                                  count):
    # while a witness is built, its contracted map is evaluated at its
    # source's generators only, twice each: for the provenance and for its
    # graph chain
    call, evaluated = Homomorphism.__call__, []
    monkeypatch.setattr(Homomorphism, "__call__",
                        lambda self, x: evaluated.append(self.label)
                        or call(self, x))
    _, calls = _length2_builds(monkeypatch, build, named_group(a),
                               named_group(b))
    monkeypatch.setattr(Homomorphism, "__call__", call)
    kappas = _contracted_maps(calls)
    assert len(kappas) == count
    assert evaluated.count("kappa_contracted") == 2 * sum(
        len(k.source.generators) for k in kappas)
    for kappa in kappas:
        _assert_inverts_by_sifting(kappa)


@pytest.mark.stretch
def test_stretch_contracted_kernel_map_inverts_by_sifting(monkeypatch):
    _, calls = _length2_builds(monkeypatch, witness_square_free,
                               cyclic(30),
                               direct_product(cyclic(5), named_group("S3")),
                               Bounds())
    (kappa,) = _contracted_maps(calls)
    _assert_inverts_by_sifting(kappa)


@pytest.mark.stretch
def test_stretch_length2_kernel_iso_is_a_rule(monkeypatch):
    # past the enumeration bound the length-2 kernel map is neither
    # tabulated nor edge-checked when built; its generator graph proves it,
    # and tabulated here it is the placed inverse, a homomorphism
    b = Bounds()
    z30, other = cyclic(30), direct_product(cyclic(5), named_group("S3"))
    cert, calls = _length2_builds(monkeypatch, witness_square_free,
                                  z30, other, b)
    (base, comp, lim, checked), = calls
    assert base.witness is cert.witness
    assert not base.witness.is_enumerable(b.enum)
    assert base.kernel_iso._table is None and "kernel-iso" not in checked
    assert base.kernel_iso.graph_chain().order == 1875
    _assert_length2_kernel_iso_is_the_placed_inverse(base, comp, lim)


@pytest.mark.parametrize("a,b,build,most", [
    ("D8", "Q8", witness_nilpotent, 2048),
    ("Z21", "F21", witness_square_free, 147),
    pytest.param("Z30", "Z5xS3", witness_square_free, 3750,
                 marks=pytest.mark.stretch),
    pytest.param("F21xZ2", "Z7xS3", witness_square_free, 14406,
                 marks=pytest.mark.stretch)])
def test_enumerated_star_limits_of_a_build_equal_their_closures(
        monkeypatch, a, b, build, most):
    # every star limit listed within the bound while a witness is built is
    # the group its generators close to, and the witness verifies
    import gcompat.sequences as sequences

    star, listed = sequences.star_limit, []

    def record_limit(*args, **kw):
        lim = star(*args, **kw)
        if lim.group._elements is not None:
            listed.append(lim.group)
        return lim

    monkeypatch.setattr(sequences, "star_limit", record_limit)
    l1, l2 = named_group(a), named_group(b)
    cert = build(l1, l2, Bounds())
    assert max(g.order() for g in listed) == most
    for g in listed:
        assert g.elements() == closure(g.generators or (g.identity,))
    assert verify_witness(cert, l1, l2, Bounds()).passed


DERIVED = {d: f"from p{d}-homomorphism, p{d}-surjective, ker-p{d}-matches"
           for d in (1, 2)}


def test_quotient_checks_are_derived_past_the_isomorphism_bound():
    # with the quotients' order past the isomorphism bound, the quotient
    # checks still rest on proved checks and never on the bound
    l1, l2 = named_group("D8"), named_group("Q8")
    cert = witness_nilpotent(l1, l2)
    rep = verify_witness(cert, l1, l2, Bounds(iso=4))
    assert rep.passed
    details = {c.name: c.detail for c in rep.checks}
    assert details["quotient-1-isomorphic"] == DERIVED[1]
    assert details["quotient-2-isomorphic"] == DERIVED[2]
    assert details["ker-p1-matches"] == "order 256 = |G|/|im p1|"
    # a target that is not L_d itself rests on its type check as well,
    # and the quotient check says when that check was skipped
    copies = named_group("D8"), named_group("Q8")
    for bounds, tail in ((Bounds(), ""), (Bounds(iso=4), " (skipped)")):
        details = {c.name: c.detail
                   for c in verify_witness(cert, *copies, bounds).checks}
        assert details["quotient-1-isomorphic"] == (
            DERIVED[1] + ", p1-target-type" + tail)
    # with the targets swapped, each map lands on the other type
    checks = {c.name: c for c in verify_witness(cert, l2, l1).checks}
    assert checks["p1-surjective"].passed
    assert checks["quotient-1-isomorphic"] == CheckResult(
        "quotient-1-isomorphic", False, "failed: p1-target-type")


def test_kernel_map_that_raises_fails_each_kernel_iso_check():
    from dataclasses import replace

    l1, l2 = named_group("D8"), named_group("Q8")
    cert = witness_nilpotent(l1, l2)
    # a kernel with no closed element set takes the generator branch
    ker1 = Subgroup(cert.witness, gens=cert.ker1.group.generators)
    bounds = Bounds(enum=100)
    assert verify_witness(replace(cert, ker1=ker1), l1, l2, bounds).passed
    # a rule over a table defined on the identity alone raises on every
    # generator
    identities = {ker1.group.identity: cert.ker2.group.identity}
    partial = Homomorphism(ker1.group, cert.ker2.group, table=identities,
                           label="kernel-iso", check=False)
    raising = Homomorphism.of_rule(ker1.group, cert.ker2.group, partial,
                                   label="kernel-iso")
    rep = verify_witness(replace(cert, ker1=ker1, kernel_iso=raising),
                         l1, l2, bounds)
    assert len(rep.checks) == 18
    error = "kernel-iso: element not in source table"
    for name in ("homomorphism", "bijective", "lands-in-ker2"):
        assert CheckResult(f"kernel-iso-{name}", False, error) in rep.checks
    # the one-entry table itself is a held table, proved as it stands
    rep = verify_witness(replace(cert, ker1=ker1, kernel_iso=partial),
                         l1, l2, bounds)
    assert len(rep.checks) == 18
    assert CheckResult("kernel-iso-homomorphism", False,
                       "kernel-iso: table not total") in rep.checks
    assert CheckResult("kernel-iso-bijective", False,
                       "table not keyed by ker1") in rep.checks


def test_swapped_kernel_table_fails_past_the_enumeration_bound():
    # a held table is proved by its edges at every bound, never at its
    # generators alone: with the values at two keys that generate nothing
    # swapped, exactly kernel-iso-homomorphism fails under Bounds(enum=100),
    # in process and read back from the descriptor
    from dataclasses import replace

    l1, l2 = named_group("D8"), named_group("Q8")
    cert = witness_nilpotent(l1, l2)
    ki = cert.kernel_iso
    table = dict(ki.table)
    keys = sorted(table)
    assert not {keys[1], keys[2]} & set(cert.ker1.group.generators)
    table[keys[1]], table[keys[2]] = table[keys[2]], table[keys[1]]
    swapped = replace(cert, kernel_iso=Homomorphism(
        ki.source, ki.target, table=table, label="kernel-iso", check=False))
    for tampered in (swapped, _loaded(swapped, l1, l2)):
        rep = verify_witness(tampered, l1, l2, Bounds(enum=100))
        assert [c for c in rep.checks if not c.passed] == [CheckResult(
            "kernel-iso-homomorphism", False,
            "kernel-iso: not a homomorphism")]


def _rule_kernel_failures(cert, l1, l2, fn):
    """The failed checks, name -> detail, of `cert` with the kernel map
    replaced by the rule `fn` out of ker1, verified under Bounds(enum=100):
    past the bound for an order-256 ker1, so proved by its graph chain."""
    from dataclasses import replace

    rule = Homomorphism.of_rule(cert.ker1.group, cert.ker2.group, fn,
                                label="kernel-iso")
    rep = verify_witness(replace(cert, kernel_iso=rule), l1, l2,
                         Bounds(enum=100))
    return {c.name: c.detail for c in rep.checks if not c.passed}


def test_each_generator_route_kernel_check_has_a_control():
    l1, l2 = named_group("D8"), named_group("Q8")
    cert = witness_nilpotent(l1, l2)
    ki, ker1, ker2 = cert.kernel_iso, cert.ker1.group, cert.ker2.group
    assert ker1.order() == 256
    assert _rule_kernel_failures(cert, l1, l2, ki) == {}
    # a homomorphism that collapses ker1 fails only bijectivity
    assert _rule_kernel_failures(cert, l1, l2, lambda x: ker2.identity) == {
        "kernel-iso-bijective":
            "image generates the full kernel (chain orders)"}
    # a generator sent to an element of ker2 whose order does not divide
    # its own: no homomorphism, and no image order to compare
    g, y = next((g, y) for g in ker1.generators for y in ker2.elements()
                if perm_order(g) % perm_order(y))
    broken = _rule_kernel_failures(cert, l1, l2,
                                   lambda x: y if x == g else ki(x))
    assert list(broken) == ["kernel-iso-homomorphism", "kernel-iso-bijective"]
    assert broken["kernel-iso-homomorphism"].startswith(
        "kernel-iso: generator graph has order ")
    assert broken["kernel-iso-bijective"] == broken["kernel-iso-homomorphism"]
    # the identity of ker1 lands outside ker2
    refusal = "kernel-iso: a generator's image is not in the target"
    assert _rule_kernel_failures(cert, l1, l2, lambda x: x) == {
        "kernel-iso-homomorphism": refusal, "kernel-iso-bijective": refusal,
        "kernel-iso-lands-in-ker2": ""}


def test_generator_route_builds_no_chain_on_the_images(monkeypatch):
    # kernel-iso-bijective reads |im f| off the graph chain that proved the
    # map: no stabilizer chain is built on its generator images alone
    from dataclasses import replace

    import gcompat.groups as groups
    import gcompat.homs as homs

    l1, l2 = named_group("D8"), named_group("Q8")
    cert = witness_nilpotent(l1, l2)
    ki, ker1 = cert.kernel_iso, cert.ker1.group
    rule = Homomorphism.of_rule(ker1, cert.ker2.group, ki, label="kernel-iso")
    images = {ki(g) for g in ker1.generators} - {ker1.identity}
    built, chain = [], groups.StabilizerChain

    def recorded(degree, gens=(), base=()):
        built.append(set(map(tuple, gens)))
        return chain(degree, gens, base)

    monkeypatch.setattr(groups, "StabilizerChain", recorded)
    monkeypatch.setattr(homs, "StabilizerChain", recorded)
    rep = verify_witness(replace(cert, kernel_iso=rule), l1, l2,
                         Bounds(enum=100))
    assert rep.passed and CheckResult(
        "kernel-iso-homomorphism", True,
        "generator graph of order 256 = |ker1|") in rep.checks
    assert built and images not in built


def test_length2_kernel_iso_is_a_rule_at_every_size(monkeypatch):
    # within the enumeration bound and one below the witness order, the
    # length-2 kernel map is a rule its builder never tabulates or
    # edge-checks; verify_witness edge-checks it over ker1, of order 3
    l1, l2 = named_group("Z6"), named_group("S3")
    edges = Homomorphism.check_table_edges
    for bounds in (Bounds(), Bounds(enum=17)):
        cert, calls = _length2_builds(monkeypatch, witness_square_free,
                                      l1, l2, bounds)
        (base, comp, lim, checked), = calls
        assert base is cert and cert.witness.order() == 18
        assert not cert.witness.is_enumerable(17)
        assert cert.kernel_iso._table is None and checked == []
        assert cert.kernel_iso.graph_chain().order == 3
        _assert_length2_kernel_iso_is_the_placed_inverse(cert, comp, lim)
        seen = []
        monkeypatch.setattr(Homomorphism, "check_table_edges",
                            lambda self: seen.append(self.label)
                            or edges(self))
        rep = verify_witness(cert, l1, l2, bounds)
        assert all(c.passed for c in rep.checks) and "kernel-iso" in seen
        assert CheckResult("kernel-iso-homomorphism", True,
                           "complete edge check") in rep.checks


def test_kernel_maps_are_proved_by_the_verifier_alone(monkeypatch):
    # D8|Q8 builds a contracted kernel map and a composed one: neither is
    # edge-checked while it is built, and verify_witness edge-checks the
    # certificate's map exactly once
    import gcompat.witness as witness

    l1, l2 = named_group("D8"), quaternion()
    edges = Homomorphism.check_table_edges
    seen = []
    monkeypatch.setattr(Homomorphism, "check_table_edges",
                        lambda self: seen.append(self.label) or edges(self))
    length2, contracted = witness.build_witness_length2, []
    monkeypatch.setattr(witness, "build_witness_length2",
                        lambda s1, s2, comp, bounds: contracted.append(
                            comp.kernel_isos[2]) or length2(s1, s2, comp,
                                                            bounds))
    cert = witness_nilpotent(l1, l2)
    assert [c.kind for c in cert.provenance.children] == [
        "length2", "recursion-step"]
    assert "kernel-iso" not in seen and "kappa_contracted" not in seen
    # the contracted map is a rule: it is never tabulated
    assert [k.label for k in contracted] == ["kappa_contracted"]
    assert contracted[0]._table is None
    del seen[:]
    rep = verify_witness(cert, l1, l2)
    assert rep.passed and seen.count("kernel-iso") == 1
    assert CheckResult("kernel-iso-homomorphism", True,
                       "complete edge check") in rep.checks


def test_composed_kernel_iso_reads_the_length2_rule(monkeypatch):
    # D8|Q8 composes its length-2 witness: the composed kernel map is
    # tabulated from the length-2 rule, which itself is never tabulated or
    # edge-checked
    cert, calls = _length2_builds(monkeypatch, witness_nilpotent,
                                  named_group("D8"), quaternion())
    (base, comp, lim, checked), = calls
    assert base.witness is cert.witness and base.ker1.order() == 32
    assert base.kernel_iso._table is None and checked == []
    assert len(cert.kernel_iso._table) == cert.ker1.order() == 256
    _assert_length2_kernel_iso_is_the_placed_inverse(base, comp, lim)


def test_enumerability_ignores_cached_elements():
    # a kernel whose elements were closed while building takes the same
    # path past the bound as the same kernel rebuilt from its generators
    from dataclasses import replace

    l1, l2 = named_group("D8"), named_group("Q8")
    cert = witness_nilpotent(l1, l2)
    assert cert.ker1.group._elements is not None
    assert not cert.ker1.group.is_enumerable(100)
    fresh = replace(cert, ker1=Subgroup(cert.witness,
                                        gens=cert.ker1.group.generators),
                    ker2=Subgroup(cert.witness,
                                  gens=cert.ker2.group.generators))
    bounds = Bounds(enum=100)
    lines = [[line for line in verify_witness(c, l1, l2, bounds).lines()
              if "kernel-iso-" in line] for c in (cert, fresh)]
    assert lines[0] == lines[1]
    assert ("[SKIP] kernel-iso-independent-search  (skipped: kernel order "
            "256 past the enumeration bound 100)") in lines[0]


def test_kernel_iso_keyed_outside_ker1_is_not_bijective():
    from dataclasses import replace

    l1, l2 = named_group("D8"), named_group("Q8")
    cert = witness_nilpotent(l1, l2)
    table = dict(cert.kernel_iso.tabulated())
    # two values swapped, same keys: only the homomorphism check fails
    keys = sorted(table)
    table[keys[1]], table[keys[2]] = table[keys[2]], table[keys[1]]
    swapped = Homomorphism(cert.ker1.group, cert.ker2.group, table=table,
                           label="kernel-iso", check=False)
    checks = verify_witness(replace(cert, kernel_iso=swapped), l1, l2).checks
    assert [c.name for c in checks if not c.passed] == [
        "kernel-iso-homomorphism"]
    # the kernels are still isomorphic, and the search that says so runs
    assert CheckResult("kernel-iso-independent-search", True,
                       "brute force at order 256") in checks
    # the inverse table, keyed by ker2's elements: as many distinct values
    # as ker1 has elements, yet not a map on ker1
    rekeyed = Homomorphism(cert.ker1.group, cert.ker2.group,
                           table={cert.kernel_iso(x): x
                                  for x in cert.ker1.members()},
                           label="kernel-iso", check=False)
    checks = {c.name: c for c in verify_witness(
        replace(cert, kernel_iso=rekeyed), l1, l2).checks}
    assert checks["kernel-iso-bijective"] == CheckResult(
        "kernel-iso-bijective", False, "table not keyed by ker1")


def test_kernel_iso_into_ker1_fails_only_landing_in_ker2():
    from dataclasses import replace

    l1, l2 = named_group("D8"), named_group("Q8")
    cert = witness_nilpotent(l1, l2)
    # the identity of ker1: a proved bijective homomorphism, onto ker1
    ident = Homomorphism(cert.ker1.group, cert.ker1.group,
                         table={z: z for z in cert.ker1.members()},
                         label="kernel-iso", check=False)
    checks = verify_witness(replace(cert, kernel_iso=ident), l1, l2).checks
    assert [c.name for c in checks if not c.passed] == [
        "kernel-iso-lands-in-ker2"]
    by_name = {c.name: c for c in checks}
    assert by_name["kernel-iso-homomorphism"].detail == "complete edge check"
    assert by_name["kernel-iso-bijective"].passed
    # the kernels are isomorphic, and the search that says so runs
    assert by_name["kernel-iso-independent-search"] == CheckResult(
        "kernel-iso-independent-search", True, "brute force at order 256")


def _loaded(cert, l1, l2):
    """`cert` written to its descriptor and read back: kernels given by
    generators, nothing closed."""
    from gcompat.descriptors import (
        certificate_from_descriptor,
        certificate_to_descriptor,
    )

    return certificate_from_descriptor(certificate_to_descriptor(cert),
                                       l1, l2)


def test_loaded_kernel_iso_into_ker1_fails_only_landing_in_ker2():
    # the same certificate as above, read back from its descriptor: the
    # verifier closes the kernels itself and gives the same report
    from dataclasses import replace

    l1, l2 = named_group("D8"), named_group("Q8")
    cert = witness_nilpotent(l1, l2)
    ident = Homomorphism(cert.ker1.group, cert.ker1.group,
                         table={z: z for z in cert.ker1.members()},
                         label="kernel-iso", check=False)
    in_memory = verify_witness(replace(cert, kernel_iso=ident), l1, l2).checks
    loaded = _loaded(replace(cert, kernel_iso=ident), l1, l2)
    assert loaded.ker1.group._elements is None
    assert loaded.ker2.group._elements is None
    checks = verify_witness(loaded, l1, l2).checks
    assert [c.name for c in checks if not c.passed] == [
        "kernel-iso-lands-in-ker2"]
    # a loaded p_d is a table, not a block map, so only its details differ
    assert [c for c in checks if c.name.startswith("kernel-iso")] == \
        [c for c in in_memory if c.name.startswith("kernel-iso")]


def test_table_branch_sifts_no_kernel_key_or_value(monkeypatch):
    # ker1 is closed by the edge check on its Cayley graph and ker2 (order
    # 256, within the bound) once before its values are tested, so no key
    # of the kernel map's table is sifted through ker1's chain and no value
    # through ker2's
    from gcompat.perms import StabilizerChain

    l1, l2 = named_group("D8"), named_group("Q8")
    cert = _loaded(witness_nilpotent(l1, l2), l1, l2)
    ker1, ker2 = cert.ker1.group, cert.ker2.group
    keyed = cert.kernel_iso.tabulated()
    sifted = []
    contains = StabilizerChain.contains

    def counted(chain, p):
        sifted.append((chain, p))
        return contains(chain, p)

    monkeypatch.setattr(StabilizerChain, "contains", counted)
    assert verify_witness(cert, l1, l2).passed
    assert ker1.order() == ker2.order() == 256 == len(keyed)
    assert not [p for chain, p in sifted
                if chain is ker1.chain() and p in keyed]
    values = set(keyed.values())
    assert not [p for chain, p in sifted
                if chain is ker2.chain() and p in values]


def test_good_at_another_subgroup_fails_only_its_designation():
    from dataclasses import replace

    from gcompat.groups import all_subgroups

    l1, l2 = named_group("E(2,3)"), named_group("D8")
    cert = witness_nilpotent(l1, l2)
    n1 = cert.good_at[0]
    assert n1.order() == 2
    others = [s for s in all_subgroups(l1)
              if s.order() == 2 and not s.same_as(n1)]
    assert len(others) == 6
    for other in others:
        checks = verify_witness(
            replace(cert, good_at=(other, cert.good_at[1])), l1, l2).checks
        assert [c.name for c in checks if not c.passed] == [
            "good-at-1-designated"]
        by_name = {c.name: c for c in checks}
        assert by_name["good-at-1-designated"].detail == "N_1 order 2"
        assert by_name["good-at-1-extendable"].passed


def test_kernel_iso_search_is_derived_from_the_proved_map(monkeypatch):
    from dataclasses import replace

    import gcompat.witness as witness

    l1, l2 = named_group("Z4"), named_group("Z2xZ2")
    cert = witness_nilpotent(l1, l2)
    kernels = (cert.ker1.group, cert.ker2.group)
    searched = []
    search = witness.find_isomorphism

    def counted(a, b, *args, **kwargs):
        searched.append((a, b) == kernels)
        return search(a, b, *args, **kwargs)

    monkeypatch.setattr(witness, "find_isomorphism", counted)
    rep = verify_witness(cert, l1, l2)
    assert rep.passed
    assert CheckResult(
        "kernel-iso-independent-search", True,
        "from kernel-iso-homomorphism, kernel-iso-bijective, "
        "kernel-iso-lands-in-ker2") in rep.checks
    assert True not in searched
    # the identity and the involution swap values: a bijection onto ker2
    # that is no homomorphism, so the kernels are searched
    table = dict(cert.kernel_iso.tabulated())
    a, b = sorted(table)
    table[a], table[b] = table[b], table[a]
    swapped = Homomorphism(*kernels, table=table, label="kernel-iso",
                           check=False)
    checks = verify_witness(replace(cert, kernel_iso=swapped), l1, l2).checks
    assert [c.name for c in checks if not c.passed] == [
        "kernel-iso-homomorphism"]
    assert CheckResult("kernel-iso-independent-search", True,
                       "brute force at order 2") in checks
    assert searched.count(True) == 1


def test_skipped_checks_print_skip():
    l1, l2 = named_group("D8"), named_group("Q8")
    cert = witness_nilpotent(l1, l2)
    rep = verify_witness(cert, l1, l2, Bounds(iso=4))
    assert rep.passed
    assert [c.name for c in rep.checks if c.skipped] == [
        "kernel-iso-independent-search"]
    assert ("[SKIP] kernel-iso-independent-search  (skipped: kernel order "
            "256 past the isomorphism bound 4)") in rep.lines()
    assert not any(line.startswith("[SKIP]")
                   for line in verify_witness(cert, l1, l2).lines())
    # a failed check is never read as skipped, whatever its detail says
    assert not CheckResult("x", False, "skipped: by hand").skipped


def test_wrong_kernels_fail_the_kernel_and_quotient_checks():
    from dataclasses import replace

    l1, l2 = named_group("D8"), named_group("Q8")
    cert = witness_nilpotent(l1, l2)
    ker1 = cert.ker1
    smaller = Subgroup(cert.witness, gens=ker1.group.generators[:1])
    assert smaller <= ker1 and smaller.order() < ker1.order()
    assert not cert.ker2.same_as(ker1)
    assert cert.ker2.order() == ker1.order()
    for wrong, detail in [
            (cert.ker2, "a generator is not in ker p1"),
            (smaller, f"order {smaller.order()}, but |G|/|im p1| = 256")]:
        checks = {c.name: c for c in verify_witness(
            replace(cert, ker1=wrong), l1, l2).checks}
        assert checks["ker-p1-matches"] == CheckResult(
            "ker-p1-matches", False, detail)
        assert checks["quotient-1-isomorphic"] == CheckResult(
            "quotient-1-isomorphic", False, "failed: ker-p1-matches")
        assert checks["quotient-2-isomorphic"].passed
    # the kernel check trusts a kernel to be the group its generators
    # generate: a member set of the kernel's size that is no group, whose
    # greedy generators still generate ker p1, is refused when built
    members = ker1.members()
    outside = min(x for x in cert.witness.elements()
                  if x not in members and perm_order(x) == 2)
    inside = min(x for x in members
                 if perm_order(x) == 2 and x not in ker1.group.generators)
    with pytest.raises(ValueError, match="element set is not a group"):
        Subgroup(cert.witness, members=(members - {inside}) | {outside})


def test_verification_builds_no_quotient(monkeypatch):
    import gcompat.homs
    import gcompat.witness

    targets = [(named_group(a), named_group(b))
               for a, b in (("D8", "Q8"), ("Z4", "Z2xZ2"))]
    certs = [witness_nilpotent(l1, l2) for l1, l2 in targets]

    def refuse(*args, **kwargs):
        raise AssertionError("verification built a quotient")

    monkeypatch.setattr(gcompat.witness, "quotient", refuse)
    monkeypatch.setattr(gcompat.homs, "action_on_cosets", refuse)
    for cert, (l1, l2) in zip(certs, targets):
        rep = verify_witness(cert, l1, l2)
        assert rep.passed
        details = {c.name: c.detail for c in rep.checks}
        assert details["quotient-1-isomorphic"] == DERIVED[1]


def test_generator_graph_rejects_what_generator_pairs_miss():
    from dataclasses import replace

    l1, l2 = named_group("Z6"), named_group("S3")
    cert = witness_square_free(l1, l2)
    # a fresh witness group with nothing enumerated, so that Bounds(enum=2)
    # sends the kernel map down the generator-based branch
    w = FiniteGroup(cert.witness.degree, cert.witness.generators, "G")
    ker1 = Subgroup(w, gens=cert.ker1.group.generators)
    ker2 = Subgroup(w, gens=cert.ker2.group.generators)
    (g,) = ker1.group.generators
    swap = (1, 0) + tuple(range(2, w.degree))
    # Z3 -> Z2, g -> (0 1), g^2 -> 1: f(g*g) = f(g)f(g) on the one
    # generator pair, yet no homomorphism
    rule = {w.identity: w.identity, g: swap, mul(g, g): w.identity}
    ki = Homomorphism.of_rule(ker1.group, ker2.group, rule.__getitem__,
                              label="kernel-iso")
    bad = replace(cert, witness=w, ker1=ker1, ker2=ker2, kernel_iso=ki)
    checks = {c.name: c for c in verify_witness(bad, l1, l2,
                                                Bounds(enum=2)).checks}
    assert checks["kernel-iso-homomorphism"] == CheckResult(
        "kernel-iso-homomorphism", False,
        "kernel-iso: generator graph has order 6, not the source's 3")
    genuine = verify_witness(replace(cert, witness=w, ker1=ker1, ker2=ker2),
                             l1, l2, Bounds(enum=2))
    assert genuine.passed
    details = {c.name: c.detail for c in genuine.checks}
    assert details["kernel-iso-homomorphism"] == (
        "generator graph of order 3 = |ker1|")
    assert details["kernel-iso-independent-search"] == (
        "skipped: kernel order 3 past the enumeration bound 2")


# ---------------------------------------------------------------------------
# sequence-operation laws used by the recursion


def comp3_pair():
    z8 = named_group("Z8")
    v8 = named_group("Z4xZ2")
    s1 = seq_of(z8, compatible_central_series(z8))
    s2 = seq_of(v8, compatible_central_series(v8))
    return s1, s2


def almost_equal_partner(seq):
    """Another extension of the same bottom with an isomorphic top kernel."""
    top, below = seq.top, seq.group(seq.length - 1)
    fiber = direct_product(below, cyclic(seq.kernel(seq.length).order()))

    def proj(p, deg=below.degree):
        return tuple(p[:deg])

    new_map = Homomorphism(fiber, below,
                           table={x: proj(x) for x in fiber.elements()})
    return GroupSequence(seq.groups[:-1] + [fiber], seq.maps[:-1] + [new_map])


def test_sharp_closure_of_the_condition():
    # fusing almost-equal member pairs stays compatible and in the class
    s1, s2 = comp3_pair()
    assert comp_membership(s1, s2) is not None
    t1, t2 = almost_equal_partner(s1), almost_equal_partner(s2)
    assert comp_membership(t1, t2) is not None
    f1, _ = sharp(s1, t1)
    f2, _ = sharp(s2, t2)
    assert f1.kernel_orders() == f2.kernel_orders()
    assert comp_membership(f1, f2) is not None


def test_the_recursion_fuses_and_contracts_through_the_surgeries(
        monkeypatch):
    # the length-2 base, each step's twisted star and each fiber of two
    # tops are `sharp`; each contracted pair and the step's composite are
    # `contraction`
    import gcompat.witness as witness

    fused, contracted = [], []
    sharp_, contraction_ = witness.sharp, witness.contraction

    def record_sharp(*seqs, bounds):
        fused.append(sharp_(*seqs, bounds=bounds))
        return fused[-1]

    def record_contraction(seq):
        contracted.append((seq, contraction_(seq)))
        return contracted[-1][1]

    monkeypatch.setattr(witness, "sharp", record_sharp)
    monkeypatch.setattr(witness, "contraction", record_contraction)
    witness_nilpotent(named_group("Z4"), named_group("Z2xZ2"))
    assert len(fused) == 1 and contracted == []

    fused.clear()
    l1, l2 = named_group("D8"), named_group("Q8")
    cert = witness_nilpotent(l1, l2)
    # the step's stars G_1 and G_2 fuse |S_1| = 2 copies of each top and
    # its composites contract the two length-3 sequences, then the two
    # fibers W_d contract into the recursive call's pair, whose base is
    # the fifth fusion
    assert len(fused) == 5 and len(contracted) == 4
    for top, (_, lim) in zip((l1, l2), fused[:2]):
        assert [lim.system.groups[n] for n in lim.node_order
                if n != "r"] == [top, top]
    assert [seq.top for seq, _ in contracted[:2]] == [l1, l2]
    assert [seq for seq, _ in contracted[2:]] == [w for w, _ in fused[2:4]]
    for d, (_, pair) in enumerate(contracted[2:], start=1):
        assert pair.map(2).label == f"Pi_{d}"
    # the base fuses over the bottom of the side-2 contracted sequence
    assert fused[4][1].system.groups["r"] is contracted[3][1].group(1)
    assert verify_witness(cert, l1, l2).passed


def test_one_identification_serves_each_eta_and_the_lemma(monkeypatch,
                                                          capsys):
    # D8|Q8 has one recursion step, whose eta_1 and eta_2 identify BW_d
    # with the other side's star; the hybrid command's lemma is one more
    from gcompat.cli import run
    from gcompat.hybrid import HybridWreath

    labels = []
    onto_limit = HybridWreath.onto_limit

    def record(self, lim, over, twist, label):
        labels.append(label)
        return onto_limit(self, lim, over, twist, label)

    monkeypatch.setattr(HybridWreath, "onto_limit", record)
    witness_nilpotent(named_group("D8"), named_group("Q8"))
    assert labels == ["eta_1", "eta_2"]
    labels.clear()
    assert run(["hybrid", "--G", "F21", "--H", "S3",
                "--theta-image", "Z3"]) == 0
    assert labels == ["bw-as-lim"]


@pytest.mark.parametrize("l1,l2,kernel", [("Z4", "Z2xZ2", "ker p1"),
                                          ("D8", "Q8", "ker pi_next_1")])
def test_a_kernel_of_the_wrong_order_is_refused_by_name(l1, l2, kernel,
                                                        monkeypatch):
    # every placed generator sent to 1: the kernel a builder generates is
    # trivial, not of the order its construction predicts
    from gcompat.inverse_limits import LimitGroup

    monkeypatch.setattr(LimitGroup, "place",
                        lambda self, node, value: self.group.identity)
    with pytest.raises(HypothesisError,
                       match=f"^{kernel}: generators have wrong order$"):
        witness_nilpotent(named_group(l1), named_group(l2))


def test_each_side_of_a_level_reads_its_transversal_once(monkeypatch):
    # the transversal and the stabilized automorphisms of a side do not
    # depend on the candidate sigma: one section per side of the level
    s1, s2 = d8_vs_z2z4_pair()
    calls = []
    section = Homomorphism.section

    def record(self, *args):
        calls.append(self)
        return section(self, *args)

    monkeypatch.setattr(Homomorphism, "section", record)
    assert comp_membership(s1, s2) is not None
    assert calls == [s1.map(2), s2.map(2)]


def test_almost_equal_replacement_preserves_membership():
    s1, s2 = comp3_pair()
    t1, t2 = almost_equal_partner(s1), almost_equal_partner(s2)
    assert t1.kernel_orders() == s1.kernel_orders()
    assert comp_membership(t1, t2) is not None


# ---------------------------------------------------------------------------
# verification and tampering


def test_order_bookkeeping_invariant():
    for builder, args in [
            (witness_nilpotent, (named_group("Z8"), quaternion())),
            (witness_square_free, (named_group("Z6"), named_group("S3")))]:
        cert = builder(*args)
        assert cert.order_bookkeeping_ok()


def test_tampered_kernel_iso_fails():
    g, l1, l2, cert = goodwit_certificate()
    table = dict(cert.kernel_iso.tabulated())
    keys = sorted(table)
    table[keys[1]], table[keys[2]] = table[keys[2]], table[keys[1]]
    bad = Homomorphism(cert.kernel_iso.source, cert.kernel_iso.target,
                       table=table, check=False)
    tampered = WitnessCertificate(cert.witness, cert.p1, cert.p2, cert.ker1,
                                  cert.ker2, bad, cert.good_at, cert.evidence,
                                  cert.provenance)
    assert not verify_witness(tampered, l1, l2).passed


def test_tampered_projection_fails():
    g, l1, l2, cert = goodwit_certificate()
    table = dict(cert.p1.tabulated())
    keys = sorted(table)
    table[keys[1]], table[keys[2]] = table[keys[2]], table[keys[1]]
    bad = Homomorphism(cert.p1.source, cert.p1.target, table=table,
                       check=False)
    tampered = WitnessCertificate(cert.witness, bad, cert.p2, cert.ker1,
                                  cert.ker2, cert.kernel_iso, cert.good_at,
                                  cert.evidence, cert.provenance)
    assert not verify_witness(tampered, l1, l2).passed


def test_surjectivity_needs_images_inside_the_target():
    z4, chain = cyclic_tower(4, [2, 2])
    v4 = named_group("Z2xZ2")
    assert z4.degree == v4.degree == 4
    # the identity of Z4, declared as a map to Z2xZ2: a homomorphism whose
    # image has the target's order but lies outside it
    relabelled = Homomorphism(z4, v4, table={x: x for x in z4.elements()})
    assert relabelled.validate() > 0
    assert relabelled.image().order() == v4.order()
    assert not relabelled.image() <= v4

    two = Subgroup(v4, members=closure([v4.generators[0]]))
    s1 = seq_of(z4, chain)
    s2 = seq_of(v4, [v4.trivial_subgroup(), two, v4.full_subgroup()])
    cert = build_witness_length2(s1, s2, comp_membership(s1, s2))
    genuine = {c.name: c for c in verify_witness(cert, z4, v4).checks}
    assert genuine["p2-surjective"].passed
    assert genuine["p2-surjective"].detail == "image order 4"
    # p1's table (images in Z4) relabelled as the map to Z2xZ2
    p2 = Homomorphism(cert.witness, v4, table=cert.p1.tabulated(),
                      label="p2")
    tampered = WitnessCertificate(cert.witness, cert.p1, p2, cert.ker1,
                                  cert.ker2, cert.kernel_iso, cert.good_at,
                                  cert.evidence, cert.provenance)
    rep = verify_witness(tampered, z4, v4)
    checks = {c.name: c for c in rep.checks}
    assert checks["p2-homomorphism"].passed
    assert not checks["p2-surjective"].passed
    assert checks["p2-surjective"].detail == "image order 4"
    assert not rep.passed


@pytest.mark.parametrize("a,b", [("Z4", "Z2xZ2"), ("Z8", "Z4xZ2")])
def test_evidence_for_a_different_map_fails_only_the_extend_check(a, b):
    # p2 followed by an automorphism of L2 is still a surjection with the
    # same kernel, but when the automorphism moves a subgroup of N_2 the
    # evidence, kept as it was, no longer fits the certificate's map
    from dataclasses import replace

    from gcompat.isos import automorphism_set

    l1, l2 = named_group(a), named_group(b)
    cert = witness_nilpotent(l1, l2)
    n2 = cert.good_at[1]
    alpha = next(x for x in automorphism_set(l2)
                 if not all(n2.contains(x(g)) for g in n2.group.generators))
    moved = replace(cert, p2=cert.p2.then(alpha))
    checks = verify_witness(moved, l1, l2).checks
    assert [c.name for c in checks if not c.passed] == ["good-at-2-extendable"]


def test_verify_recomputes_kernels_past_the_memo():
    from dataclasses import replace

    l1, l2 = named_group("Z4"), named_group("Z2xZ2")
    cert = witness_nilpotent(l1, l2)
    verdicts = lambda c: [(x.name, x.passed, x.detail)
                          for x in verify_witness(c, l1, l2).checks]
    genuine = verdicts(cert)
    # a wrong kernel memo on p1 changes no verdict and no detail
    wrong = cert.witness.trivial_subgroup()
    assert cert.ker1.order() > 1
    cert.p1._kernel = wrong
    assert cert.p1.kernel() is wrong
    assert verdicts(cert) == genuine
    # a wrong certificate kernel fails even when the memo agrees with it
    checks = {name: (ok, detail) for name, ok, detail
              in verdicts(replace(cert, ker1=wrong))}
    assert checks["ker-p1-matches"] == (
        False, f"order 1, but |G|/|im p1| = {cert.ker1.order()}")


def _poison_identity_fiber(monkeypatch, pi, n):
    """Swap, in pi's preimages, the identity's fiber with the fiber of the
    first other value in n, in the order of least preimages: the preimage
    of the trivial subgroup then lands on a coset of pi's kernel."""
    _swap_fibers(monkeypatch, pi, pi.target.identity,
                 next(y for y in pi.section()
                      if y != pi.target.identity and n.contains(y)))


def _swap_fibers(monkeypatch, p, a, b):
    """Patch p's `preimage_members` to read a's fiber for b's and b's for
    a's."""
    swap, preimage = {a: b, b: a}, p.preimage_members
    monkeypatch.setattr(p, "preimage_members", lambda members: preimage(
        [swap.get(tuple(m), tuple(m)) for m in members]))


def _verdicts(cert, l1, l2, bounds=None):
    return [(c.name, c.passed, c.detail)
            for c in verify_witness(cert, l1, l2, bounds or Bounds()).checks]


def _assert_bogus_map_memos_change_no_verdict(monkeypatch, cert, l1, l2,
                                              bounds=None):
    """Preimages, sections and kernel memos that call both certificate
    maps injective leave every verdict and detail as it was: no check
    reads them."""
    genuine = _verdicts(cert, l1, l2, bounds)
    assert all(ok for _, ok, _ in genuine)
    trivial = cert.witness.trivial_subgroup()
    only_one = frozenset([cert.witness.identity])
    for p in (cert.p1, cert.p2):
        monkeypatch.setattr(p, "preimage_members", lambda members: only_one)
        monkeypatch.setattr(p, "section", lambda p=p: {
            p.target.identity: cert.witness.identity})
        p._kernel = trivial
        assert p.kernel() is trivial
    assert _verdicts(cert, l1, l2, bounds) == genuine


def _identity_composition(monkeypatch=None):
    """A length-2 Z4|V4 certificate composed with the identity maps, which
    lifts each complement through id1's preimages; given `monkeypatch`,
    id1's preimages are poisoned before composing. (certificate, Z4, V4,
    id1)"""
    z4, chain = cyclic_tower(4, [2, 2])
    v4 = named_group("Z2xZ2")
    two = Subgroup(v4, members=closure([v4.generators[0]]))
    s1 = seq_of(z4, chain)
    s2 = seq_of(v4, [v4.trivial_subgroup(), two, v4.full_subgroup()])
    base = build_witness_length2(s1, s2, comp_membership(s1, s2))
    id1, id2 = Homomorphism.identity(z4), Homomorphism.identity(v4)
    kappa = find_isomorphism(id1.kernel().group, id2.kernel().group)
    ev1 = is_trivially_extendable(id1, base.good_at[0]).evidence
    ev2 = is_trivially_extendable(id2, base.good_at[1]).evidence
    if monkeypatch is not None:
        _poison_identity_fiber(monkeypatch, id1, ev1.n)
    cert = compose_witness(base, id1, id2, kappa, (ev1, ev2), base.good_at)
    return cert, z4, v4, id1


def test_poisoned_fiber_memo_fails_the_extend_check_without_raising(
        monkeypatch):
    l1, l2 = named_group("D8"), named_group("Q8")
    _assert_bogus_map_memos_change_no_verdict(
        monkeypatch, witness_nilpotent(l1, l2), l1, l2)
    # the hand composition reads id1's fibers once, when composed: a
    # preimage poisoned afterwards changes no verdict
    cert, z4, v4, id1 = _identity_composition()
    assert cert.evidence[0].table is not None
    genuine = _verdicts(cert, z4, v4)
    assert all(ok for _, ok, _ in genuine)
    _poison_identity_fiber(monkeypatch, id1, cert.evidence[0].n)
    assert _verdicts(cert, z4, v4) == genuine
    # poisoned before, it misplaces a lift: that subgroup is left out of
    # the table, and the verifier reports it missing, never raising
    cert, z4, v4, _ = _identity_composition(monkeypatch)
    poisoned = _verdicts(cert, z4, v4)
    lost = "missing complement: no complement recorded for this subgroup"
    assert [(n, ok) for n, ok, _ in poisoned] == [
        (n, n != "good-at-1-extendable") for n, _, _ in genuine]
    detail = dict((n, d) for n, _, d in poisoned)["good-at-1-extendable"]
    assert detail.startswith(lost)


@pytest.mark.stretch
def test_bogus_map_memos_change_no_stretch_verdict(monkeypatch):
    b = Bounds()
    z30, other = cyclic(30), direct_product(cyclic(5), named_group("S3"))
    cert = witness_square_free(z30, other, b)
    _assert_bogus_map_memos_change_no_verdict(monkeypatch, cert, z30, other,
                                              b)


def test_wrong_map_memos_change_no_verdict(monkeypatch):
    from dataclasses import replace

    l1, l2 = named_group("D8"), named_group("Q8")
    cert = witness_nilpotent(l1, l2)
    genuine = _verdicts(cert, l1, l2)
    p1, wrong = cert.p1, cert.witness.trivial_subgroup()
    first, second = list(p1.section())[:2]
    fiber = p1.preimage_members([first])
    for swapped, kernel in ((True, None), (False, wrong), (True, wrong)):
        with monkeypatch.context() as m:
            if swapped:  # the first two fibers trade places
                _swap_fibers(m, p1, first, second)
                assert p1.preimage_members([second]) == fiber
            p1._kernel = kernel
            assert kernel is None or p1.kernel() is wrong
            assert _verdicts(cert, l1, l2) == genuine
    # a wrong certificate kernel still fails, whatever the memos hold
    checks = {n: (ok, d) for n, ok, d
              in _verdicts(replace(cert, ker1=wrong), l1, l2)}
    assert checks["ker-p1-matches"] == (
        False, f"order 1, but |G|/|im p1| = {cert.ker1.order()}")
