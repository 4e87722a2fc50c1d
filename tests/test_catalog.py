import pytest

from gcompat.bounds import HypothesisError
from gcompat.catalog import (
    construct,
    frobenius21,
    named_group,
    surjection_onto_subgroup,
)
from gcompat.groups import Subgroup, cyclic, symmetric
from gcompat.homs import Homomorphism
from gcompat.isos import automorphism_set, find_isomorphism
from gcompat.perms import perm_order


def test_construct_simple_kinds():
    assert construct("cyclic", 6).order() == 6
    assert construct("symmetric", 4).order() == 24
    assert construct("alternating", 4).order() == 12
    assert construct("dihedral", 10).order() == 10
    assert construct("elementary_abelian", 3, 2).order() == 9
    assert construct("direct_product", cyclic(2), cyclic(3)).order() == 6
    with pytest.raises(ValueError):
        construct("cyclic", 0)
    with pytest.raises(ValueError):
        construct("frobnicate", 5)


def test_construct_semidirect_inversion_gives_s3():
    z3, z2 = cyclic(3), cyclic(2)
    auts = automorphism_set(z3)
    inversion = next(a for a in auts
                     if any(a(e) != e for e in z3.elements()))
    phi = Homomorphism.from_gen_images(
        z2, auts.as_group(), {z2.generators[0]: auts.perm_of(inversion)})
    g = construct("semidirect", z3, z2, phi, auts)
    assert g.order() == 6
    assert find_isomorphism(g, symmetric(3)) is not None


def test_construct_semidirect_order3_twist_gives_f21():
    z7, z3 = cyclic(7), cyclic(3)
    auts = automorphism_set(z7)
    order3 = next(a for a in auts if _auto_order(auts, a) == 3)
    phi = Homomorphism.from_gen_images(
        z3, auts.as_group(), {z3.generators[0]: auts.perm_of(order3)})
    g = construct("semidirect", z7, z3, phi, auts)
    assert g.order() == 21
    assert not g.is_abelian()
    assert find_isomorphism(g, frobenius21()) is not None


def _auto_order(auts, a):
    return perm_order(auts.perm_of(a))


def test_construct_semidirect_rejects_non_homomorphism():
    z3, z4 = cyclic(3), cyclic(4)
    auts = automorphism_set(z3)
    inversion = next(a for a in auts
                     if any(a(e) != e for e in z3.elements()))
    # order-2 image for an order-4 generator is fine; an order-3 source
    # mapping onto the inversion is not
    with pytest.raises(HypothesisError):
        Homomorphism.from_gen_images(
            cyclic(3), auts.as_group(),
            {cyclic(3).generators[0]: auts.perm_of(inversion)})


def test_named_group_parsing():
    assert named_group("Z12").order() == 12
    assert named_group("S4").order() == 24
    assert named_group("A5").order() == 60
    assert named_group("D12").order() == 12
    assert named_group("Q8").order() == 8
    assert named_group("F21").order() == 21
    assert named_group("E(3,2)").order() == 9
    assert named_group("Z2xZ4xZ8").order() == 64
    # products split outside parentheses, whatever the order of factors
    assert named_group("E(2,2)xZ2").order() == 8
    assert named_group("E(2,3)xE(3,1)").order() == 24
    with pytest.raises(ValueError):
        named_group("wat")


def test_surjection_onto_subgroup():
    s3 = symmetric(3)
    a3 = Subgroup(s3, members=[e for e in s3.elements()
                               if perm_order(e) in (1, 3)])
    f = surjection_onto_subgroup(frobenius21(), s3, a3)
    assert f.image().order() == 3
    f.validate()
    with pytest.raises(HypothesisError):
        surjection_onto_subgroup(cyclic(4), s3, a3)
