import pytest

from gcompat.bounds import Bounds, HypothesisError
from gcompat.catalog import frobenius21, named_group, quaternion
from gcompat.groups import Subgroup, cyclic, direct_product
from gcompat.homs import Homomorphism
from gcompat.isos import find_isomorphism
from gcompat.perms import closure, inv, mul, perm_order
from gcompat.sequences import GroupSequence, series_to_sequence, sharp
from gcompat.witness import (
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


def test_goodwit_compose_to_quotients():
    g, l1, l2, cert = goodwit_certificate()
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
    assert cert2.ker1.order() == cert.ker1.order() * 2
    assert verify_witness(cert2, l1p, l2p).passed


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
        assert step.thetas[d].image().order() == 1


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
    pi21 = Homomorphism.of_rule(
        d8, z2,
        lambda p, members=k1.members(): z2.identity if p in members
        else z2.generators[0], tabulate=True)
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

        pi3 = Homomorphism.of_rule(ext, base, proj, tabulate=True)
        triv_map = Homomorphism.trivial(z2, trivial_group())
        tops[name] = GroupSequence([trivial_group(), z2, base, ext],
                                   [triv_map, pi, pi3])
    return tops["1"], tops["2"]


def test_condition_rejects_misaligned_kernel_isomorphisms():
    from gcompat.bounds import DEFAULT_BOUNDS
    from gcompat.isos import enumerate_isomorphisms
    from gcompat.witness import _derive_alpha_tau

    s1, s2 = d8_vs_z2z4_pair()
    k1g, k2g = s1.kernel(2).group, s2.kernel(2).group
    verdicts = []
    for sigma in enumerate_isomorphisms(k1g, k2g):
        ok = (_derive_alpha_tau((s1, s2), 2, sigma, 1, DEFAULT_BOUNDS)
              is not None
              and _derive_alpha_tau((s1, s2), 2, sigma, 2, DEFAULT_BOUNDS)
              is not None)
        verdicts.append(ok)
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
    # independent kernel isomorphism by brute force, as its own check
    assert find_isomorphism(cert.ker1.group, cert.ker2.group) is not None


def test_good_witness_z8_vs_e8():
    z8, e8 = named_group("Z8"), named_group("E(2,3)")
    cert = witness_nilpotent(z8, e8)
    assert verify_witness(cert, z8, e8).passed


def test_kernel_iso_respects_the_decomposition_links():
    # stored kernel map sends the lifted complement onto the other side's
    # lifted complement and the inner kernel onto the inner kernel
    d8, q8 = named_group("D8"), quaternion()
    cert = witness_nilpotent(d8, q8)
    ev1, ev2 = cert.evidence
    pi1, pi2 = ev1.inner_pi, ev2.inner_pi
    d_one = ev1.ev_p.complement_for(pi1.kernel().members())
    d_two = ev2.ev_p.complement_for(pi2.kernel().members())
    ki = cert.kernel_iso
    assert {ki(d) for d in d_one} == set(d_two)
    inner_ker1 = {z for z in cert.ker1.members() if ev1.p(z) == ev1.p.target.identity}
    inner_ker2 = {z for z in cert.ker2.members() if ev2.p(z) == ev2.p.target.identity}
    assert {ki(z) for z in inner_ker1} == inner_ker2


def test_composed_kernel_is_internal_direct_product():
    # ker(pi o p) = D x ker(p): trivial intersection, elementwise commuting,
    # full product
    d8, q8 = named_group("D8"), quaternion()
    cert = witness_nilpotent(d8, q8)
    for ev, ker_sub in ((cert.evidence[0], cert.ker1),
                        (cert.evidence[1], cert.ker2)):
        p, pi = ev.p, ev.inner_pi
        d_comp = ev.ev_p.complement_for(pi.kernel().members())
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


def test_length4_recursion_is_gated_honestly():
    # intermediate fibers at length 4 outgrow desk scale; no silent numbers
    from gcompat.bounds import UndecidedError

    with pytest.raises(UndecidedError):
        witness_nilpotent(named_group("Z16"), named_group("E(2,4)"))


def test_order_30_recursion_gated_without_stretch():
    from gcompat.bounds import UndecidedError

    z30 = cyclic(30)
    other = direct_product(cyclic(5), named_group("S3"))
    with pytest.raises(UndecidedError):
        witness_square_free(z30, other)


@pytest.mark.stretch
def test_order_30_stretch_end_to_end():
    b = Bounds().with_mode("stretch")
    z30 = cyclic(30)
    other = direct_product(cyclic(5), named_group("S3"))
    cert = witness_square_free(z30, other, b)
    assert cert.witness.order() == 7031250
    assert verify_witness(cert, z30, other, b).passed


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

    new_map = Homomorphism.of_rule(fiber, below, proj, tabulate=True)
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
                                  cert.provenance, cert.mode)
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
                                  cert.evidence, cert.provenance, cert.mode)
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
                                  cert.evidence, cert.provenance, cert.mode)
    rep = verify_witness(tampered, z4, v4)
    checks = {c.name: c for c in rep.checks}
    assert checks["p2-homomorphism"].passed
    assert not checks["p2-surjective"].passed
    assert checks["p2-surjective"].detail == "image order 4"
    assert not rep.passed
