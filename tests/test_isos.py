import itertools

import pytest

from gcompat.bounds import Bounds, UndecidedError
from gcompat.catalog import named_group, quaternion
from gcompat.groups import Subgroup, cyclic, dihedral, direct_product, symmetric
from gcompat.homs import Homomorphism
from gcompat.isos import (
    automorphism_set,
    conjugate_transport,
    enumerate_isomorphisms,
    find_isomorphism,
    inner_automorphism,
    inner_automorphisms,
    restricted,
    stabilized,
)
from gcompat.perms import closure, mul, perm_order


def test_z6_isomorphic_to_z2xz3():
    f = find_isomorphism(cyclic(6), direct_product(cyclic(2), cyclic(3)))
    assert f is not None
    assert f.is_bijective()
    f.validate()


def test_d8_not_isomorphic_to_q8():
    d8, q8 = dihedral(8), quaternion()
    # oracle: order histograms computed independently
    hist = lambda g: sorted(perm_order(e) for e in g.elements())
    assert hist(d8) != hist(q8)
    assert find_isomorphism(d8, q8) is None


def test_identity_isomorphism_found():
    g = symmetric(3)
    f = find_isomorphism(g, g)
    assert f is not None and f.is_bijective()


def test_isomorphism_symmetry_and_composition():
    g = named_group("Z4xZ2")
    h = direct_product(cyclic(2), cyclic(4))
    f = find_isomorphism(g, h)
    b = find_isomorphism(h, g)
    assert f is not None and b is not None
    comp = f.then(b)
    # composition is an automorphism of g
    assert all(comp(mul(x, y)) == mul(comp(x), comp(y))
               for x in g.elements() for y in g.elements())
    assert len({comp(x) for x in g.elements()}) == g.order()


def test_isomorphism_bound_is_honest():
    big = symmetric(5)  # order 120 with a tiny bound
    with pytest.raises(UndecidedError):
        find_isomorphism(big, symmetric(5), Bounds(iso=50))


def test_aut_z7_is_cyclic_of_order_6():
    z7 = cyclic(7)
    auts = automorphism_set(z7)
    assert len(auts) == 6
    # oracle: unit multipliers mod 7, built directly
    expected = set()
    for k in range(1, 7):
        maps = {}
        for e in z7.sorted_elements():
            rot = e[0]
            maps[e] = tuple((i + k * rot) % 7 for i in range(7))
        expected.add(tuple(sorted(maps.items())))
    got = {tuple(sorted(a.tabulated().items())) for a in auts}
    assert got == expected
    assert auts.as_group().is_abelian()


def test_inner_automorphisms_of_abelian_group_trivial():
    auts = inner_automorphisms(cyclic(12))
    assert len(auts) == 1


@pytest.mark.parametrize("g", [symmetric(3), dihedral(8), quaternion(),
                               named_group("Z4xZ2")])
def test_inn_times_center_equals_order(g):
    inn = inner_automorphisms(g)
    assert len(inn) * g.center().order() == g.order()


def test_aut_z2xz4_stabilized_and_restricted():
    g = named_group("Z2xZ4")
    auts = automorphism_set(g)
    # oracle: count automorphisms by brute force over generator images
    from gcompat.bounds import HypothesisError

    count = 0
    gens = list(g.generators)
    elems = g.sorted_elements()
    for images in itertools.product(elems, repeat=len(gens)):
        try:
            h = Homomorphism.from_gen_images(g, g, dict(zip(gens, images)))
        except HypothesisError:
            continue
        if len(set(h.tabulated().values())) == g.order():
            count += 1
    assert len(auts) == count == 8

    a = g.generators[0]  # the Z2 factor generator
    sub = Subgroup(g, members=closure([a]))
    a_h = stabilized(auts, sub)
    rest = restricted(a_h, sub)
    # the restrictions form a subgroup of Aut(Z2) = 1
    assert all(r(m) == m for r in rest for m in sub.members())
    # closure check: restricted set is closed under composition
    keys = rest.keys()
    for r1 in rest:
        for r2 in rest:
            assert rest._key(r1.then(r2)) in keys


def test_stabilized_matches_the_member_filter():
    # deciding at the subgroup's generators keeps the same automorphisms,
    # in the same order, as testing every member
    from gcompat.groups import all_subgroups
    from gcompat.sampling import medium_group_pool

    for g in medium_group_pool():
        auts = automorphism_set(g)
        for sub in all_subgroups(g):
            members = sub.members()
            assert stabilized(auts, sub).autos == [
                a for a in auts if all(a(m) in members for m in members)]


def test_conjugate_transport():
    g = cyclic(6)
    h = direct_product(cyclic(2), cyclic(3))
    f = find_isomorphism(g, h)
    transport = conjugate_transport(f)
    auts_g = automorphism_set(g)
    moved = transport(auts_g)
    assert len(moved) == len(auts_g)
    for a in auts_g:
        ta = transport(a)
        for x in h.elements():
            assert ta(x) == f(a(f.inverse()(x)))


def test_inner_automorphism_rule():
    g = symmetric(3)
    x = g.sorted_elements()[1]
    inn = inner_automorphism(g, x)
    for e in g.elements():
        assert inn(e) == mul(mul(x, e), g.inv(x))


def test_enumerate_isomorphisms_complete_for_z5():
    isos = enumerate_isomorphisms(cyclic(5), cyclic(5))
    assert len(isos) == 4  # = |Aut(Z5)|


def test_screen_shortcut_on_abelian_pairs_matches_the_five_screens():
    from gcompat.isos import _screen

    def five_screens(g, h):
        return (g.order() == h.order()
                and g.is_abelian() == h.is_abelian()
                and g.order_histogram() == h.order_histogram()
                and g.center().order() == h.center().order()
                and g.derived_subgroup().order() == h.derived_subgroup().order())

    by_order = [["Z4", "Z2xZ2"], ["Z8", "Z2xZ4", "E(2,3)"],
                ["Z9", "E(3,2)"], ["Z12", "Z2xZ6"],
                ["Z16", "Z4xZ4", "Z2xZ8", "Z2xZ2xZ4", "E(2,4)"],
                ["Z36", "Z6xZ6", "Z4xE(3,2)", "Z9xE(2,2)"]]
    for names in by_order:
        groups = [named_group(n) for n in names]
        for g, h in itertools.product(groups, repeat=2):
            assert _screen(g, h) == five_screens(g, h), (g.label, h.label)
            assert _screen(g, h) == (find_isomorphism(g, h) is not None)


def test_screen_rejects_equal_histograms_by_center_and_derived_orders():
    from gcompat.groups import FiniteGroup
    from gcompat.isos import _screen

    # two non-abelian groups of order 192 and degree 8 with equal order
    # histograms: only the center and derived-subgroup screens tell them apart
    a = FiniteGroup(8, [(0, 5, 3, 1, 6, 2, 4, 7), (1, 7, 6, 0, 3, 4, 2, 5)], "A")
    b = FiniteGroup(8, [(4, 3, 7, 5, 2, 6, 1, 0), (6, 5, 1, 2, 0, 3, 7, 4)], "B")
    assert a.order() == b.order() == 192
    assert not a.is_abelian() and not b.is_abelian()
    assert a.order_histogram() == b.order_histogram()
    assert (a.center().order(), b.center().order()) == (1, 2)
    assert (a.derived_subgroup().order(), b.derived_subgroup().order()) == (48, 96)
    assert _screen(a, b) is False and _screen(b, a) is False
    assert find_isomorphism(a, b) is None
