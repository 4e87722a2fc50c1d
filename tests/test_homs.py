from functools import partial

import pytest

from gcompat.bounds import HypothesisError
from gcompat.catalog import named_group
from gcompat.groups import (
    FiniteGroup,
    Subgroup,
    cyclic,
    direct_product,
    symmetric,
)
from gcompat.homs import (
    Homomorphism,
    action_on_cosets,
    compose,
    direct_product_with_maps,
    image,
    kernel,
    quotient,
    restrict,
)
from gcompat.perms import closure, mul, perm_order


def mod2_map():
    z4, z2 = cyclic(4), cyclic(2)
    return z4, z2, Homomorphism.from_gen_images(
        z4, z2, {z4.generators[0]: z2.generators[0]}, label="mod2")


def test_kernel_of_mod2():
    z4, z2, f = mod2_map()
    k = kernel(f)
    # oracle: elements of Z4 with even rotation
    even = {e for e in z4.elements() if e[0] % 2 == 0}
    assert k.members() == even


def test_gen_image_propagation_rejects_non_homomorphism():
    z4, z2 = cyclic(4), cyclic(2)
    z3 = cyclic(3)
    with pytest.raises(HypothesisError):
        Homomorphism.from_gen_images(z3, z4,
                                     {z3.generators[0]: z4.generators[0]})


def test_image_of_diagonal():
    z2 = cyclic(2)
    prod = direct_product(z2, z2)

    def diag_rule(p):
        return tuple(p) + tuple(x + 2 for x in p)

    diag = Homomorphism.of_rule(z2, prod, diag_rule, tabulate=True)
    img = image(diag)
    # oracle: enumerate images directly
    assert img.members() == frozenset(diag(x) for x in z2.elements())
    assert img.order() == 2


def test_restrict_sign_map_to_a3_is_trivial():
    s3 = symmetric(3)
    z2 = cyclic(2)
    sign_images = {}
    for g in s3.generators:
        sign_images[g] = z2.generators[0] if perm_order(g) == 2 else z2.identity
    sign = Homomorphism.from_gen_images(s3, z2, sign_images, label="sign")
    a3 = Subgroup(s3, members=[e for e in s3.elements()
                               if perm_order(e) in (1, 3)])
    triv = z2.trivial_subgroup()
    r = restrict(sign, a3, triv)
    assert all(r(x) == z2.identity for x in a3.members())


def test_restrict_containment_violation_errors():
    s3 = symmetric(3)
    z2 = cyclic(2)
    sign = Homomorphism.from_gen_images(
        s3, z2, {g: (z2.generators[0] if perm_order(g) == 2 else z2.identity)
                 for g in s3.generators})
    with pytest.raises(HypothesisError):
        restrict(sign, s3.full_subgroup(), z2.trivial_subgroup())


def test_compose_applies_right_factor_first():
    z4, z2, f = mod2_map()
    ident = Homomorphism.identity(z2)
    g = compose(ident, f)
    assert all(g(x) == f(x) for x in z4.elements())
    with pytest.raises(ValueError):
        compose(f, ident)  # degree mismatch: ident lands in Z2, f starts at Z4


def test_quotient_s3_by_a3():
    s3 = symmetric(3)
    a3 = Subgroup(s3, members=[e for e in s3.elements()
                               if perm_order(e) in (1, 3)])
    q, pi = quotient(s3, a3)
    assert q.order() == 2
    assert kernel(pi).same_as(a3)


def test_quotient_kernel_round_trip_exact():
    g = named_group("Z4xZ2")
    n = Subgroup(g, members=closure([g.power(g.generators[0], 2)]))
    q, pi = quotient(g, n)
    assert q.order() == 4
    assert kernel(pi).members() == n.members()
    # oracle: coset enumeration says the quotient has exponent 2
    assert q.exponent() == 2


def test_quotient_by_trivial_is_bijective():
    g = symmetric(3)
    q, pi = quotient(g, g.trivial_subgroup())
    assert q.order() == 6
    assert pi.is_bijective()


def test_quotient_rejects_non_normal():
    s3 = symmetric(3)
    two = Subgroup(s3, members=closure([s3.sorted_elements()[1]]))
    assert two.order() == 2
    with pytest.raises(HypothesisError):
        quotient(s3, two)


def test_validate_is_complete_for_tables():
    z4, z2, f = mod2_map()
    assert f.validate() > 0
    broken = dict(f.tabulated())
    gen = z4.generators[0]
    broken[gen] = z2.identity  # now inconsistent
    bad = Homomorphism(z4, z2, table=broken, check=False)
    with pytest.raises(HypothesisError):
        bad.validate()


def _tuple_edge_law(g, table, target_identity):
    """The edge law straight from its definition, on permutation tuples."""
    if table.get(g.identity) != target_identity:
        return False
    return all(table.get(mul(x, s)) == mul(fx, table[s])
               for x, fx in table.items() for s in g.generators)


def _accepts(check):
    try:
        check()
    except HypothesisError:
        return False
    return True


def test_index_checks_agree_with_the_tuple_definition(rng):
    from gcompat.sampling import medium_group_pool, random_normal_subgroup

    pool = medium_group_pool(60)
    verdicts = set()
    for _ in range(40):
        g = rng.choice(pool)
        q, pi = quotient(g, random_normal_subgroup(rng, g))
        good = dict(pi.tabulated())
        keys, values = sorted(good), sorted(q.elements())
        swapped, changed = dict(good), dict(good)
        a, b = rng.sample(keys, 2)
        swapped[a], swapped[b] = good[b], good[a]
        changed[rng.choice(keys)] = rng.choice(values)
        scrambled = {x: rng.choice(values) for x in keys}
        scrambled[g.identity] = q.identity
        trivial = dict.fromkeys(keys, q.identity)
        for table in (good, swapped, changed, scrambled, trivial):
            # edges over the table's keys, then pairs and edges over the
            # kept graph of a copy of g that had none
            fresh = FiniteGroup(g.degree, g.generators)
            f = Homomorphism(fresh, q, table=table, check=False)
            expected = _tuple_edge_law(g, table, q.identity)
            assert _accepts(f.check_table_edges) == expected
            assert fresh._cayley is None
            fresh.cayley()
            assert _accepts(partial(f.check_table_edges, pairs=True)) == expected
            assert _accepts(f.check_table_edges) == expected
            verdicts.add(expected)
    assert verdicts == {True, False}


def test_pair_columns_are_products():
    from gcompat.homs import _pair_columns

    for g in (cyclic(5), symmetric(4), named_group("Z4xZ2")):
        elems, _, cols = g.cayley()
        index = {x: i for i, x in enumerate(elems)}
        seen = []
        for y, col in _pair_columns(cols, len(elems)):
            assert col == [index[mul(x, elems[y])] for x in elems]
            seen.append(y)
        assert sorted(seen) == list(range(len(elems)))


def test_two_swapped_values_are_rejected():
    z4, z2, f = mod2_map()
    table = dict(f.tabulated())
    gen = z4.generators[0]
    square = mul(gen, gen)
    table[gen], table[square] = table[square], table[gen]
    with pytest.raises(HypothesisError, match="not a homomorphism"):
        Homomorphism(z4, z2, table=table)


def test_non_total_table_is_refuted_not_undecided():
    z4, z2, f = mod2_map()
    table = dict(f.tabulated())
    del table[max(table)]
    with pytest.raises(HypothesisError, match="not total"):
        Homomorphism(z4, z2, table=table)
    z4.cayley()  # the same verdict over the source's kept graph
    with pytest.raises(HypothesisError, match="not total"):
        Homomorphism(z4, z2, table=table)
    # a source far past the enumeration bound is not enumerated: the short
    # table's keys are not closed under its generators, a refutation and
    # never UndecidedError
    big = symmetric(9)
    short = dict.fromkeys((big.identity,) + big.generators, z2.identity)
    with pytest.raises(HypothesisError, match="not total"):
        Homomorphism(big, z2, table=short)
    # an entry outside the source is checked like the others, with or
    # without a kept graph, as the definition over the table's items asks
    outside = dict(f.tabulated())
    outside[(1, 0, 2, 3)] = z2.identity
    for source in (FiniteGroup(4, z4.generators), z4):
        with pytest.raises(HypothesisError, match="not total"):
            Homomorphism(source, z2, table=outside)


def test_pair_check_alone_rejects_a_non_homomorphism():
    z4, z2, f = mod2_map()
    f.check_table_edges(pairs=True)
    assert f.validate() == 4 * 1 + 4 * 4  # edges plus pairs, as counted
    broken = dict(f.tabulated())
    broken[z4.generators[0]] = z2.identity
    bad = Homomorphism(z4, z2, table=broken, check=False)
    with pytest.raises(HypothesisError, match="not a homomorphism"):
        bad.check_table_edges(pairs=True)
    del broken[max(broken)]
    with pytest.raises(HypothesisError, match="not total"):
        Homomorphism(z4, z2, table=broken, check=False).check_table_edges(
            pairs=True)


def test_section_is_canonical_minimal():
    z4, z2, f = mod2_map()
    s = f.section()
    assert s[z2.identity] == z4.identity
    fibers = f.fibers()
    for y, x in s.items():
        assert x == min(fibers[y])


def test_direct_product_with_maps():
    z2, z3 = cyclic(2), cyclic(3)
    prod, inj1, inj2, pr1, pr2 = direct_product_with_maps(z2, z3)
    assert prod.order() == 6
    for x in z2.elements():
        assert pr1(inj1(x)) == x
        assert pr2(inj1(x)) == z3.identity
    for y in z3.elements():
        assert pr2(inj2(y)) == y
    inj1.validate()
    pr2.validate()


def test_hom_inverse():
    z6 = cyclic(6)
    other = direct_product(cyclic(2), cyclic(3))
    from gcompat.isos import find_isomorphism

    f = find_isomorphism(z6, other)
    finv = f.inverse()
    assert all(finv(f(x)) == x for x in z6.elements())


def test_quotient_table_matches_coset_definition(rng, coset_table):
    from gcompat.sampling import medium_group_pool, random_normal_subgroup

    pool = medium_group_pool(60)
    for _ in range(25):
        g = rng.choice(pool)
        n = random_normal_subgroup(rng, g)
        q, pi = quotient(g, n)
        assert list(pi.tabulated().items()) == list(coset_table(g, n).items())
        assert q.order() * n.order() == g.order()
        # any element of each coset, in any order, may number the points
        cosets = {frozenset(mul(m, e) for m in n.members())
                  for e in g.sorted_elements()}
        reps = [rng.choice(sorted(c)) for c in sorted(cosets, key=min)]
        rng.shuffle(reps)
        got, rho = action_on_cosets(g, n, reps)
        assert got == reps
        expect = coset_table(g, n, reps)
        assert list(rho.tabulated().items()) == list(expect.items())
