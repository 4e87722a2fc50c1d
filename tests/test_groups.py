import pytest

from gcompat.bounds import HypothesisError, UndecidedError
from gcompat.catalog import frobenius21, named_group, quaternion
from gcompat.groups import (
    Subgroup,
    all_subgroups,
    alternating,
    cayley_graph,
    central_subgroup_of_order_p,
    cyclic,
    cyclic_normal_subgroup_of_order,
    dihedral,
    direct_product,
    elementary_abelian,
    from_elements,
    normal_sylow_and_complement,
    symmetric,
)
from gcompat.perms import closure, perm_order


def test_cyclic_6_is_abelian_of_order_6():
    g = cyclic(6)
    assert g.order() == 6
    assert g.is_abelian()
    assert g.exponent() == 6


def test_symmetric_and_alternating_orders():
    assert symmetric(4).order() == 24
    assert alternating(4).order() == 12
    assert alternating(5).order() == 60
    assert not symmetric(3).is_abelian()


def test_dihedral_orders_and_structure():
    d8 = dihedral(8)
    assert d8.order() == 8
    assert not d8.is_abelian()
    assert d8.center().order() == 2
    assert dihedral(2).order() == 2
    assert dihedral(4).order() == 4
    with pytest.raises(ValueError):
        dihedral(7)


def test_elementary_abelian():
    g = elementary_abelian(2, 3)
    assert g.order() == 8
    assert g.exponent() == 2
    with pytest.raises(ValueError):
        elementary_abelian(4, 2)


def test_semidirect_z3_z2_is_s3():
    # oracle: brute-force isomorphism search against S3
    from gcompat.isos import find_isomorphism

    z3, z2 = cyclic(3), cyclic(2)
    twist = {}
    for q in z2.sorted_elements():
        if q == z2.identity:
            twist[q] = {e: e for e in z3.elements()}
        else:
            twist[q] = {e: tuple((i - e[0]) % 3 for i in range(3))
                        for e in z3.elements()}
    from gcompat.groups import semidirect

    g = semidirect(z3, z2, twist)
    assert g.order() == 6
    assert find_isomorphism(g, symmetric(3)) is not None


def test_frobenius21_structure():
    g = frobenius21()
    assert g.order() == 21
    assert not g.is_abelian()
    # one normal subgroup of order 7, none of order 3
    orders = sorted(s.order() for s in all_subgroups(g) if s.is_normal())
    assert orders == [1, 7, 21]


def test_quaternion_structure():
    q8 = quaternion()
    assert q8.order() == 8
    assert dict(q8.order_histogram()) == {1: 1, 2: 1, 4: 6}
    assert q8.center().order() == 2


def test_center_and_derived():
    s3 = symmetric(3)
    assert s3.center().order() == 1
    assert s3.derived_subgroup().order() == 3
    d8 = dihedral(8)
    assert d8.derived_subgroup().order() == 2
    assert cyclic(12).derived_subgroup().order() == 1


def test_nilpotency():
    assert dihedral(8).is_nilpotent()
    assert quaternion().is_nilpotent()
    assert cyclic(12).is_nilpotent()
    assert not symmetric(3).is_nilpotent()
    assert not frobenius21().is_nilpotent()


def test_central_subgroup_of_order_p():
    z8 = cyclic(8)
    c = central_subgroup_of_order_p(z8, 2)
    assert c.order() == 2 and c.is_central()
    d8 = dihedral(8)
    c = central_subgroup_of_order_p(d8, 2)
    assert c.order() == 2
    assert c.same_as(d8.center())
    g = elementary_abelian(3, 2)
    c = central_subgroup_of_order_p(g, 3)
    assert c.order() == 3 and c.is_central()
    with pytest.raises(HypothesisError):
        central_subgroup_of_order_p(symmetric(3), 3)  # center is trivial
    with pytest.raises(HypothesisError):
        central_subgroup_of_order_p(cyclic(8), 3)  # p does not divide


def test_normal_sylow_and_complement_s3():
    p, q = normal_sylow_and_complement(symmetric(3))
    assert p.order() == 3 and q.order() == 2
    assert p.is_normal()


def test_normal_sylow_and_complement_f21():
    p, q = normal_sylow_and_complement(frobenius21())
    assert p.order() == 7 and q.order() == 3


def test_normal_sylow_and_complement_z30():
    p, q = normal_sylow_and_complement(cyclic(30))
    assert p.order() == 5 and q.order() == 6


def test_normal_sylow_rejects_non_square_free():
    with pytest.raises(HypothesisError):
        normal_sylow_and_complement(cyclic(4))


def test_subgroup_normality_and_membership():
    s3 = symmetric(3)
    a3 = Subgroup(s3, members=[e for e in s3.elements()
                               if perm_order(e) in (1, 3)])
    assert a3.is_normal()
    two = Subgroup(s3, members=closure([s3.sorted_elements()[1]]))
    assert two.order() == 2
    assert not two.is_normal()


def test_all_subgroups_counts():
    # oracle: known subgroup counts
    assert len(all_subgroups(cyclic(12))) == 6      # divisors of 12
    assert len(all_subgroups(symmetric(3))) == 6    # 1, 3xZ2, Z3, S3
    assert len(all_subgroups(elementary_abelian(2, 2))) == 5
    assert len(all_subgroups(quaternion())) == 6


def test_cyclic_normal_subgroup_search():
    d8 = dihedral(8)
    n = cyclic_normal_subgroup_of_order(d8, 4)
    assert n is not None and n.order() == 4
    assert cyclic_normal_subgroup_of_order(elementary_abelian(2, 3), 4) is None


def test_direct_product_and_embeddings():
    g = direct_product(cyclic(2), cyclic(3))
    assert g.order() == 6
    assert g.is_abelian()
    assert g.exponent() == 6


def test_enumeration_bound_is_honest():
    g = symmetric(6)  # order 720
    with pytest.raises(UndecidedError):
        g.elements(bound=100)
    # order still available through the stabilizer chain
    assert symmetric(6).order() == 720


def test_small_generating_set_round_trip():
    g = named_group("Z2xZ4xZ8")
    regen = from_elements(g.elements(), "copy")
    assert regen.order() == 64
    assert closure(regen.generators) == g.elements()


def test_random_element_lies_in_group(rng):
    g = symmetric(4)
    for _ in range(50):
        assert g.contains(g.random_element(rng))


def test_cayley_columns_are_right_multiplication():
    from array import array

    from gcompat.perms import mul

    for g in (cyclic(1), cyclic(6), symmetric(4), quaternion(),
              named_group("Z4xZ2"), frobenius21()):
        elems, gens, cols = g.cayley()
        assert elems == g.sorted_elements() and elems[0] == g.identity
        index = {x: i for i, x in enumerate(elems)}
        assert gens == tuple(index[s] for s in g.generators)
        assert len(cols) == len(g.generators)
        for s, col in zip(g.generators, cols):
            assert isinstance(col, array) and col.typecode == "i"
            assert list(col) == [index[mul(x, s)] for x in elems]
        assert g.cayley() is g.cayley()  # computed once
    # any closed element order gives the same columns; a gap is a KeyError
    g = symmetric(4)
    elems = list(g.elements())
    _, gens, cols = cayley_graph(elems, g.generators)
    index = {x: i for i, x in enumerate(elems)}
    assert gens == tuple(index[s] for s in g.generators)
    for s, col in zip(g.generators, cols):
        assert list(col) == [index[mul(x, s)] for x in elems]
    with pytest.raises(KeyError):
        cayley_graph(elems[:-1], g.generators)
