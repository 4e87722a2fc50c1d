import pytest

from gcompat.bounds import HypothesisError, UndecidedError
from gcompat.catalog import frobenius21, named_group, quaternion
from gcompat.groups import (
    FiniteGroup,
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
    normal_sylow,
    symmetric,
    trivial_group,
)
from gcompat.perms import (
    closure,
    dimino_extend,
    identity_perm,
    inv,
    mul,
    perm_from_cycles,
    perm_order,
)


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


def test_central_subgroup_defaults_to_the_smallest_prime():
    assert central_subgroup_of_order_p(cyclic(12)).order() == 2
    assert central_subgroup_of_order_p(elementary_abelian(3, 2)).order() == 3
    with pytest.raises(HypothesisError):
        central_subgroup_of_order_p(trivial_group())


def test_normal_sylow_and_complement_s3():
    p = normal_sylow(symmetric(3))
    assert p.order() == 3
    assert p.is_normal()


def test_normal_sylow_and_complement_f21():
    p = normal_sylow(frobenius21())
    assert p.order() == 7


def test_normal_sylow_and_complement_z30():
    p = normal_sylow(cyclic(30))
    assert p.order() == 5


def test_normal_sylow_rejects_non_square_free():
    with pytest.raises(HypothesisError):
        normal_sylow(cyclic(4))


def test_subgroup_normality_and_membership():
    s3 = symmetric(3)
    a3 = Subgroup(s3, members=[e for e in s3.elements()
                               if perm_order(e) in (1, 3)])
    assert a3.is_normal()
    two = Subgroup(s3, members=closure([s3.sorted_elements()[1]]))
    assert two.order() == 2
    assert not two.is_normal()


def test_subgroup_is_given_by_generators_or_by_members():
    s3 = symmetric(3)
    gens = list(s3.generators)
    with pytest.raises(ValueError):
        Subgroup(s3)
    with pytest.raises(ValueError):
        Subgroup(s3, gens=gens, members=s3.elements())
    assert Subgroup(s3, gens=gens).members() == s3.elements()


def test_normal_closure_keeps_its_generators_and_closes_once(monkeypatch):
    import gcompat.groups as groups

    calls = []

    def counted(gens, bound=None):
        calls.append(len(gens))
        return closure(gens, bound=bound)

    monkeypatch.setattr(groups, "closure", counted)
    s3 = symmetric(3)
    a = s3.generators[0]
    n = s3.normal_closure([a])
    # the seed and its conjugates generate it, and it is closed once
    assert n.group.generators[0] == a
    assert all(s3.conjugate(a, g) in n.group.generators
               for g in s3.generators)
    assert len(n.members()) == 6
    assert len(calls) == 1


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


def order_sweep_groups():
    """The sampling pool, random subgroups and quotients of it, the catalog
    groups and the degree-1 trivial group."""
    import random

    from gcompat.homs import quotient
    from gcompat.sampling import (
        medium_group_pool,
        random_normal_subgroup,
        random_subgroup,
    )

    rng = random.Random(4102)
    groups = [trivial_group(), quaternion(), frobenius21(),
              named_group("Z4xZ2"), named_group("Z2xZ4xZ8"),
              named_group("E(2,3)"), named_group("D10"), named_group("Z5xS3")]
    for g in medium_group_pool():
        groups.append(g)
        groups.append(random_subgroup(rng, g).group)
        groups.append(quotient(g, random_normal_subgroup(rng, g))[0])
    s6 = symmetric(6)
    groups += [random_subgroup(rng, s6).group for _ in range(6)]
    # degree 256, the byte encoding's last degree, and 259, past it
    groups.append(dihedral(512))
    groups.append(FiniteGroup(259, [
        perm_from_cycles(259, [tuple(range(257))]),
        perm_from_cycles(259, [(257, 258)])]))
    return groups


def test_from_elements_refuses_a_set_that_is_no_group():
    # on the byte encoding (degree 6) and past it (degree 259)
    for n in (6, 259):
        ident = identity_perm(n)
        c3, x = (perm_from_cycles(n, [c]) for c in [(0, 1, 2), (0, 1, 2, 3)])
        t01, t12, t45 = (perm_from_cycles(n, [c])
                         for c in [(0, 1), (1, 2), (4, 5)])
        for elems in ([ident, c3],             # not closed: <c3> is larger
                      [ident, t01, t12],       # generates S3
                      [ident, x, inv(x), t45]):  # <x>: as large, but other
            with pytest.raises(ValueError, match="element set is not a group"):
                from_elements(elems)
        with pytest.raises(ValueError, match="must contain the identity"):
            from_elements([c3, mul(c3, c3)])
        regen = from_elements([ident, c3, mul(c3, c3)])
        assert regen.generators == (c3,) and regen.order() == 3
    # a map that is no permutation: its powers never reach the identity
    for n in (3, 259):
        squash = (0, 0, 1) + tuple(range(3, n))
        with pytest.raises(ValueError, match="element set is not a group"):
            from_elements([identity_perm(n), squash])
    with pytest.raises(ValueError):
        from_elements([])


def test_element_orders_match_cycle_walk():
    for g in order_sweep_groups():
        orders = g.element_orders()
        assert orders == {e: perm_order(e) for e in g.elements()}
        assert g.element_orders() is not orders  # built afresh, not kept
        assert g.order_histogram() == tuple(sorted(
            (o, sum(1 for e in g.elements() if perm_order(e) == o))
            for o in set(orders.values())))


def test_small_generating_set_is_the_order_first_greedy():
    # the greedy over (-perm_order(e), e), as the order sweep replaced it
    for g in order_sweep_groups():
        elems = g.sorted_elements()
        gens, have = [], frozenset([g.identity])
        if len(elems) > 1:
            for e in sorted(elems, key=lambda e: (-perm_order(e), e)):
                if e not in have:
                    have = dimino_extend(have, gens, e)
                    gens.append(e)
                    if len(have) == len(elems):
                        break
        assert g.small_generating_set() == tuple(gens)
        assert from_elements(g.elements()).generators == tuple(gens)
