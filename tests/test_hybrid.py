import pytest

from gcompat.bounds import HypothesisError
from gcompat.catalog import frobenius21, named_group, surjection_onto_subgroup
from gcompat.groups import Subgroup, cyclic, direct_product, symmetric
from gcompat.homs import Homomorphism, quotient
from gcompat.hybrid import (
    bw_as_limit,
    evaluation_maps,
    hybrid_wreath,
    transversal_independence,
)
from gcompat.isos import find_isomorphism
from gcompat.perms import inv, mul, perm_order
from gcompat.sampling import (
    random_normal_hybrid,
    random_subgroup,
    small_group_pool,
)


def f21_s3_theta():
    g = frobenius21()
    h = symmetric(3)
    a3 = Subgroup(h, members=[e for e in h.elements()
                              if perm_order(e) in (1, 3)], label="A3")
    theta = surjection_onto_subgroup(g, h, a3)
    return g, h, theta


def test_f21_s3_hybrid_headline_numbers():
    g, h, theta = f21_s3_theta()
    hw = hybrid_wreath(g, h, theta)
    assert hw.order() == 294
    kp = hw.kernel_of_standard_map()
    assert kp.order() == 49
    assert kp.group.is_abelian()
    assert all(perm_order(e) in (1, 7) for e in kp.members())
    assert hw.base.order() == 147
    # standard map is a verified surjection
    hw.standard_map.validate()
    assert hw.standard_map.is_surjective()


def test_f21_s3_carrier_is_closed_from_lifts_and_placed_kernel():
    # generators: one lift of each generator of H, then ker theta's
    # generators at each coset; p_theta sends them to H's generators and 1
    g, h, theta = f21_s3_theta()
    hw = hybrid_wreath(g, h, theta)
    p = hw.standard_map
    n_placed = len(hw.ker_theta.group.generators) * hw.npoints
    assert [p(x) for x in hw.group.generators] == \
        list(h.generators) + [h.identity] * n_placed
    assert set(p.tabulated()) == hw.group.elements()
    assert hw.base.members() == p.preimage_members(hw.image.members())


def test_f21_s3_base_is_proper_subdirect_with_inverse_pairing():
    g, h, theta = f21_s3_theta()
    hw = hybrid_wreath(g, h, theta)
    evals = evaluation_maps(hw)
    pairs = {(evals[0](w), evals[1](w)) for w in hw.base.members()}
    assert len(pairs) == 147                      # joint map injective
    assert len({a for a, _ in pairs}) == 21       # both coordinates onto
    assert len({b for _, b in pairs}) == 21
    assert all(theta(a) == inv(theta(b)) for a, b in pairs)


def test_f21_s3_normal_series_quotients():
    g, h, theta = f21_s3_theta()
    hw = hybrid_wreath(g, h, theta)
    kp = Subgroup(hw.group, members=hw.kernel_of_standard_map().members())
    bw = hw.base
    assert kp.is_normal()
    assert bw.is_normal()
    assert kp.order() == 49 and bw.order() // kp.order() == 3
    assert hw.order() // bw.order() == 2
    q1, _ = quotient(hw.group, kp)
    assert q1.order() == 6
    # middle factor is the image itself; top factor is H over the image
    kp_in_bw = Subgroup(bw.group, members=kp.members())
    mid, _ = quotient(bw.group, kp_in_bw)
    assert find_isomorphism(mid, hw.image.group) is not None
    top, _ = quotient(hw.group, Subgroup(hw.group, members=bw.members()))
    himg, _ = quotient(h, Subgroup(h, members=hw.image.members()))
    assert find_isomorphism(top, himg) is not None


def test_theta_isomorphism_collapses_to_g():
    z6 = cyclic(6)
    other = direct_product(cyclic(2), cyclic(3))
    theta = find_isomorphism(other, z6)
    hw = hybrid_wreath(other, z6, theta)
    assert hw.npoints == 1
    assert hw.order() == 6
    assert find_isomorphism(hw.group, z6) is not None
    # single evaluation map is an isomorphism onto G
    evals = evaluation_maps(hw)
    assert len(evals) == 1
    assert evals[0].is_bijective()


def test_trivial_theta_gives_full_wreath():
    z2, z3 = cyclic(2), cyclic(3)
    theta = Homomorphism.trivial(z2, z3)
    hw = hybrid_wreath(z2, z3, theta)
    # coset space is all of Z3; every base tuple allowed over each top
    assert hw.npoints == 3
    assert hw.order() == 3 * 2 ** 3


def test_evaluation_maps_z4_onto_factor():
    z4 = cyclic(4)
    v4 = named_group("Z2xZ2")
    # theta: Z4 -> V4 onto the first factor
    theta = Homomorphism.from_gen_images(z4, v4,
                                         {z4.generators[0]: v4.generators[0]})
    hw = hybrid_wreath(z4, v4, theta)
    assert hw.order() == 4 * 2 ** 2
    assert hw.base.order() == 2 * 2 ** 2
    evals = evaluation_maps(hw)
    assert len(evals) == 2
    for p in evals.values():
        assert p.is_surjective()


def test_bw_as_limit_f21():
    g, h, theta = f21_s3_theta()
    hw = hybrid_wreath(g, h, theta)
    lim, ident = bw_as_limit(hw)
    assert lim.group.order() == 147
    # identification is checked internally; spot check commuting here too
    evals = evaluation_maps(hw)
    for w in list(hw.base.members())[:30]:
        for v in range(hw.npoints):
            assert lim.decode(ident(w), v) == evals[v](w)
        assert lim.decode(ident(w), "r") == hw.standard_map(w)


@pytest.mark.parametrize("wrong", ["points-swapped", "coordinates-1"])
def test_bw_as_limit_refuses_a_wrong_identification(monkeypatch, wrong):
    # the two evaluation maps swapped: images outside the limit, one to
    # one; both sent to 1: images of a map that is not one to one
    import gcompat.hybrid as hybrid

    g, h, theta = f21_s3_theta()
    hw = hybrid_wreath(g, h, theta)
    evals = list(evaluation_maps(hw).values())
    if wrong == "points-swapped":
        evals.reverse()
    else:
        evals = [Homomorphism.trivial(hw.base.group, g) for _ in evals]
    monkeypatch.setattr(hybrid, "evaluation_maps",
                        lambda hw: dict(enumerate(evals)))
    with pytest.raises(HypothesisError,
                       match="base subgroup is not identified with the limit"):
        bw_as_limit(hw)


def test_bw_as_limit_isomorphism_case():
    z6 = cyclic(6)
    other = direct_product(cyclic(2), cyclic(3))
    theta = find_isomorphism(other, z6)
    hw = hybrid_wreath(other, z6, theta)
    lim, ident = bw_as_limit(hw)
    assert lim.group.order() == 6


def test_general_shape_hw_of_extension_pair():
    # G = A.B = F21 (A = Z7, B = Z3), H = B.C = S3 (C = Z2), theta = incl o pi:
    # HW has kernel/quotient orders matching A^{|C|}.B.C and BW = A^{|C|}.B
    g, h, theta = f21_s3_theta()
    hw = hybrid_wreath(g, h, theta)
    a_order, b_order, c_order = 7, 3, 2
    assert hw.order() == a_order ** c_order * b_order * c_order
    assert hw.base.order() == a_order ** c_order * b_order
    kp = hw.kernel_of_standard_map()
    assert kp.order() == a_order ** c_order
    q, _ = quotient(hw.group, Subgroup(hw.group, members=hw.base.members()))
    assert q.order() == c_order
    qb, _ = quotient(hw.base.group,
                     Subgroup(hw.base.group, members=kp.members()))
    assert qb.order() == b_order


def test_transversal_independence_identity_case():
    g, h, theta = f21_s3_theta()
    hw1 = hybrid_wreath(g, h, theta)
    hw2 = hybrid_wreath(g, h, theta)
    x = transversal_independence(hw1, hw2)
    assert x == hw1.wreath.carrier.identity


def test_transversal_independence_f21_alternate_rep():
    g, h, theta = f21_s3_theta()
    hw1 = hybrid_wreath(g, h, theta)
    # replace the second representative by another element of its coset
    reps = list(hw1.action.labels)
    image = hw1.image
    alt = sorted(mul(m, reps[1]) for m in image.members())[1]
    hw2 = hybrid_wreath(g, h, theta, transversal_elems=[reps[0], alt])
    x = transversal_independence(hw1, hw2)  # checked at generators inside
    assert hw2.group.elements() == frozenset(
        mul(mul(x, w), inv(x)) for w in hw1.group.elements())


def test_transversal_independence_refuses_a_wrong_conjugator(monkeypatch):
    # S3 inside S3xZ2: the two transversals give different carriers, and a
    # section sending every element to 1 gives the conjugator 1
    from gcompat.groups import pair_embeddings

    g = symmetric(3)
    h = direct_product(g, cyclic(2))
    embed = pair_embeddings(g, cyclic(2))[0]
    theta = Homomorphism.from_gen_images(
        g, h, {x: embed(x) for x in g.generators})
    hw1 = hybrid_wreath(g, h, theta)
    reps = list(hw1.action.labels)
    alt = sorted(mul(m, reps[1]) for m in hw1.image.members())[1]
    hw2 = hybrid_wreath(g, h, theta, transversal_elems=[reps[0], alt])
    assert hw1.group.elements() != hw2.group.elements()
    monkeypatch.setattr(theta, "section", lambda: dict.fromkeys(
        h.elements(), g.identity))
    with pytest.raises(HypothesisError,
                       match="conjugation does not move one carrier"):
        transversal_independence(hw1, hw2)


def test_theta_iso_transversal_forced_identity():
    z6 = cyclic(6)
    other = direct_product(cyclic(2), cyclic(3))
    theta = find_isomorphism(other, z6)
    hw1 = hybrid_wreath(other, z6, theta)
    hw2 = hybrid_wreath(other, z6, theta)
    assert transversal_independence(hw1, hw2) == hw1.wreath.carrier.identity


def test_random_normal_hybrids_bw_limit(rng):
    for _ in range(6):
        hw = random_normal_hybrid(rng)
        lim, ident = bw_as_limit(hw)
        assert lim.group.order() == hw.base.order()


def test_size_formula_invariant(rng):
    for _ in range(4):
        hw = random_normal_hybrid(rng)
        n = hw.npoints
        assert hw.order() == hw.h_group.order() * hw.ker_theta.order() ** n


def test_hybrid_coset_action_follows_the_transversal(rng, coset_table):
    # theta includes a random subgroup, normal or not; the transversal
    # picks a random element of each coset in random order, identity first
    pool = small_group_pool(24)
    for _ in range(20):
        h = rng.choice(pool)
        k = random_subgroup(rng, h)
        cosets = {}
        for e in h.sorted_elements():
            key = min(mul(m, e) for m in k.members())
            cosets.setdefault(key, []).append(e)
        others = [rng.choice(c) for key, c in cosets.items()
                  if key != h.identity]
        rng.shuffle(others)
        reps = [h.identity] + others
        hw = hybrid_wreath(k.group, h, Homomorphism.inclusion(k),
                           transversal_elems=reps)
        assert hw.action.labels == reps
        expect = coset_table(h, k, reps)
        assert list(hw.action.rho.tabulated().items()) == list(expect.items())


def test_hybrid_past_its_ambient_wreath_range():
    # the ambient Z5 wr E(2,4) on 16 points has order 5^16 * 16, past the
    # range of `wreath_product`; the hybrid itself has order 80
    h = named_group("Z5xE(2,4)")
    z5 = Subgroup(h, gens=[h.generators[0]])
    assert z5.order() == 5
    hw = hybrid_wreath(z5.group, h, Homomorphism.inclusion(z5))
    assert hw.order() == 80
    assert hw.npoints == 16
    lim, _ = bw_as_limit(hw)
    assert lim.group.order() == 5


def test_hybrid_never_closes_its_ambient_wreath():
    # the ambient F21 wr Z2 (882 elements) only encodes and decodes, and
    # no standard embedding of H is built
    g, h, theta = f21_s3_theta()
    hw = hybrid_wreath(g, h, theta)
    assert hw.order() == 294
    assert hw.wreath.carrier._elements is None
    assert not hasattr(hw, "iota")


def test_evaluation_maps_agree_with_decode_on_all_of_bw():
    g, h, theta = f21_s3_theta()
    hw = hybrid_wreath(g, h, theta)
    evals = evaluation_maps(hw)
    for w in hw.base.members():
        base, _top = hw.decode(w)
        for v in range(hw.npoints):
            assert evals[v](w) == base[v]


def s3_transposition_hybrid(order=(0, 1, 2)):
    # <(0 1)> <= S3 is not normal: three cosets, numbered by `order`
    s3 = symmetric(3)
    two = Subgroup(s3, gens=[(1, 0, 2)])
    first = hybrid_wreath(two.group, s3, Homomorphism.inclusion(two))
    reps = [first.action.labels[i] for i in order]
    return hybrid_wreath(two.group, s3, Homomorphism.inclusion(two),
                         transversal_elems=reps)


def test_hybrid_refuses_a_transversal_not_starting_at_the_identity():
    with pytest.raises(HypothesisError, match="start with the identity"):
        s3_transposition_hybrid(order=(1, 0, 2))


def test_evaluation_maps_refuse_a_non_normal_hybrid():
    hw = s3_transposition_hybrid()
    assert not hw.normal
    with pytest.raises(HypothesisError, match="normal hybrid"):
        evaluation_maps(hw)


def test_bw_as_limit_refuses_a_non_normal_hybrid():
    hw = s3_transposition_hybrid()
    with pytest.raises(HypothesisError, match="normal hybrid"):
        bw_as_limit(hw)


def test_transversal_independence_refuses_a_different_coset_numbering():
    hw1 = s3_transposition_hybrid()
    hw2 = s3_transposition_hybrid(order=(0, 2, 1))
    with pytest.raises(HypothesisError, match="cosets differently"):
        transversal_independence(hw1, hw2)
