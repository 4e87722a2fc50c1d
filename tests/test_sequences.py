import pytest

from gcompat.bounds import HypothesisError
from gcompat.catalog import frobenius21, named_group
from gcompat.groups import Subgroup, cyclic, direct_product, symmetric
from gcompat.homs import Homomorphism
from gcompat.isos import find_isomorphism
from gcompat.perms import closure, perm_order
from gcompat.sequences import (
    GroupSequence,
    almost_equal,
    compatible,
    concatenation,
    contraction,
    contraction2,
    pad_to_length,
    sequence_to_series,
    series_to_sequence,
    sharp,
)


def z4_series():
    z4 = cyclic(4)
    two = Subgroup(z4, members=closure([z4.power(z4.generators[0], 2)]))
    return z4, [z4.trivial_subgroup(), two, z4.full_subgroup()]


def test_series_to_sequence_z4():
    z4, chain = z4_series()
    seq = series_to_sequence(z4, chain)
    assert seq.length == 2
    assert [g.order() for g in seq.groups] == [1, 2, 4]
    assert seq.is_surjective()
    assert seq.kernel_orders() == (2, 2)


def test_series_to_sequence_s3():
    s3 = symmetric(3)
    a3 = Subgroup(s3, members=[e for e in s3.elements()
                               if perm_order(e) in (1, 3)])
    seq = series_to_sequence(s3, [s3.trivial_subgroup(), a3,
                                  s3.full_subgroup()])
    assert [g.order() for g in seq.groups] == [1, 2, 6]
    assert seq.kernel_orders() == (2, 3)


def test_series_to_sequence_f21xz2_length3():
    l1 = direct_product(frobenius21(), cyclic(2))
    # 1 <= Z7 <= F21 <= F21 x Z2, realized inside the product
    f21 = frobenius21()
    z7_gens = [g for g in f21.generators if perm_order(g) == 7]
    lift = lambda p: tuple(p) + (f21.degree, f21.degree + 1)
    z7 = Subgroup(l1, members=closure([lift(g) for g in z7_gens]))
    f21_sub = Subgroup(l1, members=closure([lift(g) for g in f21.generators]))
    seq = series_to_sequence(l1, [l1.trivial_subgroup(), z7, f21_sub,
                                  l1.full_subgroup()])
    assert seq.length == 3
    assert seq.kernel_orders() == (2, 3, 7)
    # round trip: factor orders preserved
    series = sequence_to_series(seq)
    assert [t.order() for t in series] == [1, 7, 21, 42]


@pytest.mark.parametrize("name, series", [("D8", "auto-central"),
                                          ("Q8", "auto-central"),
                                          ("F21xZ2", "auto-squarefree")])
def test_series_to_sequence_closes_each_term_once(monkeypatch, name, series):
    """One `from_elements` call per term: the term's Subgroup in L serves
    both its normality test and its quotient."""
    import gcompat.groups
    from gcompat.witness import SERIES

    g = named_group(name)
    chain = SERIES[series](g)
    calls = []
    real = gcompat.groups.from_elements
    monkeypatch.setattr(gcompat.groups, "from_elements",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    series_to_sequence(g, chain)
    assert len(calls) == len(chain) == 4


def test_series_terms_are_tested_normal_once(monkeypatch):
    # `quotient` is the one normality test: once per proper nontrivial
    # term, and a term that is not normal is still refused
    from gcompat.witness import SERIES

    s3 = symmetric(3)
    with pytest.raises(HypothesisError, match="not normal"):
        series_to_sequence(s3, [s3.trivial_subgroup(),
                                Subgroup(s3, gens=[(1, 0, 2)]),
                                s3.full_subgroup()])
    d8 = named_group("D8")
    chain = SERIES["auto-central"](d8)
    tested, real = [], Subgroup.is_normal
    monkeypatch.setattr(Subgroup, "is_normal",
                        lambda self: tested.append(self.order()) or real(self))
    series_to_sequence(d8, chain)
    proper = [t.order() for t in chain if 1 < t.order() < d8.order()]
    assert proper and sorted(tested) == sorted(proper)


def test_series_maps_equal_the_induced_quotient_maps(rng, coset_table):
    # pi_i is propagated from generator images; the reference is the pair
    # of coset actions hi, lo of L on S_i and S_{i-1}: pi_i(hi(x)) = lo(x)
    from gcompat.sampling import medium_group_pool, random_normal_subgroup

    pool = medium_group_pool(60)
    checked = 0
    for _ in range(40):
        g = rng.choice(pool)
        n = random_normal_subgroup(rng, g, proper=True)
        m = g.normal_closure(list(n.group.generators)
                             + [rng.choice(g.sorted_elements())])
        if n.order() == 1 or m.order() == g.order():
            continue
        seq = series_to_sequence(
            g, [g.trivial_subgroup(), n, m, g.full_subgroup()])
        level = [{x: (0,) for x in g.elements()}, coset_table(g, m),
                 coset_table(g, n), {x: x for x in g.elements()}]
        for i in (1, 2, 3):
            hi, lo = level[i], level[i - 1]
            assert all(seq.map(i)(hi[x]) == lo[x] for x in g.elements())
        checked += 1
    assert checked >= 10


def test_round_trip_preserves_factor_types():
    z4, chain = z4_series()
    seq = series_to_sequence(z4, chain)
    series = sequence_to_series(seq)
    assert [t.order() for t in series] == [t.order() for t in chain]
    for got, want in zip(series, chain):
        assert got.members() == want.members()


def test_series_requires_normal_terms():
    s3 = symmetric(3)
    two = Subgroup(s3, members=closure([s3.sorted_elements()[1]]))
    with pytest.raises(HypothesisError):
        series_to_sequence(s3, [s3.trivial_subgroup(), two,
                                s3.full_subgroup()])


def test_contraction_of_z8_tower():
    z8 = cyclic(8)
    g = z8.generators[0]
    four = Subgroup(z8, members=closure([z8.power(g, 2)]))
    two = Subgroup(z8, members=closure([z8.power(g, 4)]))
    seq = series_to_sequence(z8, [z8.trivial_subgroup(), two, four,
                                  z8.full_subgroup()])
    assert [x.order() for x in seq.groups] == [1, 2, 4, 8]
    contra = contraction(seq)
    assert [x.order() for x in contra.groups] == [1, 2, 8]
    assert contra.kernel_orders() == (2, 4)
    assert contraction2(seq).length == 1


def test_concatenation():
    z4, chain = z4_series()
    seq = series_to_sequence(z4, chain)
    z8 = cyclic(8)
    f = Homomorphism.from_gen_images(z8, seq.top,
                                     {z8.generators[0]: seq.top.generators[0]})
    longer = concatenation(z8, f, seq)
    assert longer.length == 3
    assert longer.top.order() == 8


def test_sharp_of_sequence_with_itself():
    z4, chain = z4_series()
    seq = series_to_sequence(z4, chain)
    assert almost_equal(seq, seq)
    fused, lim = sharp(seq, seq)
    assert fused.top.order() == 4 * 4 // 2
    assert fused.length == 2
    assert fused.map(2).is_surjective()


def test_sharp_of_z4_and_v4_towers():
    z4, chain = z4_series()
    s = series_to_sequence(z4, chain)
    v4 = named_group("Z2xZ2")
    two = Subgroup(v4, members=closure([v4.generators[0]]))
    t_full = series_to_sequence(v4, [v4.trivial_subgroup(), two,
                                     v4.full_subgroup()])
    # make them almost equal: reuse s's bottom groups and maps
    iso = find_isomorphism(t_full.group(1), s.group(1))
    new_top_map = t_full.map(2).then(iso)
    t = GroupSequence(s.groups[:-1] + [v4], s.maps[:-1] + [new_top_map])
    assert almost_equal(s, t)
    fused, lim = sharp(s, t)
    assert fused.top.order() == 8  # 4 * 4 / 2
    assert compatible(fused, fused)


def test_sharp_rejects_non_almost_equal():
    z4, chain = z4_series()
    s = series_to_sequence(z4, chain)
    z9 = cyclic(9)
    three = Subgroup(z9, members=closure([z9.power(z9.generators[0], 3)]))
    t = series_to_sequence(z9, [z9.trivial_subgroup(), three,
                                z9.full_subgroup()])
    with pytest.raises(HypothesisError):
        sharp(s, t)


def test_pad_to_length():
    z4, chain = z4_series()
    seq = series_to_sequence(z4, chain)
    padded = pad_to_length(seq, 4)
    assert padded.length == 4
    assert padded.kernel_orders() == (1, 1, 2, 2)
    assert padded.top.order() == 4
    assert padded.is_surjective()
