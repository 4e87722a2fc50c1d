import math

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
from gcompat.perms import closure, inv, mul, perm_order


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


def test_kernel_is_computed_once_and_matches_a_scan():
    from gcompat.catalog import frobenius21

    f21 = frobenius21()
    z3 = cyclic(3)
    f = Homomorphism.from_gen_images(
        f21, z3, {g: (z3.generators[0] if perm_order(g) == 3 else z3.identity)
                  for g in f21.generators})
    for h in (mod2_map()[2], f, Homomorphism.identity(f21),
              Homomorphism.trivial(f21, z3)):
        k = h.kernel()
        assert h.kernel() is k and kernel(h) is k
        scan = {x for x in h.source.elements() if h(x) == h.target.identity}
        assert k.members() == scan


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

    diag = Homomorphism(z2, prod,
                        table={x: diag_rule(x) for x in z2.elements()})
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
            # edges over the graph a copy of g with none builds and keeps,
            # then over that kept graph
            fresh = FiniteGroup(g.degree, g.generators)
            f = Homomorphism(fresh, q, table=table, check=False)
            expected = _tuple_edge_law(g, table, q.identity)
            assert _accepts(f.check_table_edges) == expected
            fresh.cayley()
            assert _accepts(f.check_table_edges) == expected
            verdicts.add(expected)
    assert verdicts == {True, False}


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


def test_section_is_canonical_minimal():
    z4, z2, f = mod2_map()
    s = f.section()
    assert s[z2.identity] == z4.identity
    for y, x in s.items():
        assert x == min(f.preimage_members([y]))


def test_a_section_sorts_nothing():
    """A block projection's section, and a `then` composite's over it, is
    one unsorted pass over a closed source: its sorted list is never built,
    and the least preimages come out in increasing order."""
    from gcompat.catalog import frobenius21

    f21, z3 = frobenius21(), cyclic(3)
    onto_z3 = Homomorphism.from_gen_images(
        f21, z3, {g: (z3.generators[0] if perm_order(g) == 3 else z3.identity)
                  for g in f21.generators})
    prod, _, _, pr1, _ = direct_product_with_maps(f21, symmetric(3))
    prod.elements()
    composite = pr1.then(onto_z3)
    assert pr1.offset == 0 and composite._then == (pr1, onto_z3)
    for f in (pr1, composite):
        s = f.section()
        assert prod._sorted is None
        assert len(s) == f.target.order()
        assert list(s.values()) == sorted(s.values())
        for y, x in s.items():
            assert x == min(f.preimage_members([y]))


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


def test_then_fuses_block_maps_only():
    z2, z3, z4 = cyclic(2), cyclic(3), cyclic(4)
    inner, _, _, _, in_pr2 = direct_product_with_maps(z3, z4)
    outer, _, _, _, out_pr2 = direct_product_with_maps(z2, inner)
    fused = out_pr2.then(in_pr2)
    assert fused.offset == 2 + 3 and fused.label == "pr2*pr2"
    table_left = Homomorphism(
        outer, inner, table={x: out_pr2(x) for x in outer.elements()})
    table_right = Homomorphism(
        inner, z4, table={x: in_pr2(x) for x in inner.elements()})
    rule_left = Homomorphism.of_rule(outer, inner, lambda x: out_pr2(x))
    rule_right = Homomorphism.of_rule(inner, z4, lambda y: in_pr2(y))
    for f, g in [(table_left, in_pr2), (out_pr2, table_right),
                 (rule_left, in_pr2), (out_pr2, rule_right)]:
        h = f.then(g)
        assert h.offset is None
        assert (h._table is None) == (f._table is None)
        assert all(h(x) == fused(x) == g(f(x)) for x in outer.elements())


def test_block_map_is_proved_from_its_block():
    z2, z3 = cyclic(2), cyclic(3)
    prod = direct_product(z2, z3)
    pr2 = Homomorphism.block(prod, z3, 2)
    assert pr2.validate() == len(prod.generators)
    assert pr2._table is None and prod._cayley is None  # nothing tabulated
    # a generator of S4 (the 4-cycle) moves a point of block 0..1 out of it
    s4 = symmetric(4)
    with pytest.raises(HypothesisError, match="out of it"):
        Homomorphism.block(s4, cyclic(2), 0).validate()
    # Z2's generator keeps block 0..1 but its image misses a trivial target
    one = FiniteGroup(2, [], "1")
    with pytest.raises(HypothesisError, match="not in the target"):
        Homomorphism.block(prod, one, 0).validate()


def test_rule_map_past_the_enumeration_bound_is_proved_by_its_graph_chain():
    from gcompat.bounds import Bounds

    z2, z3 = cyclic(2), cyclic(3)
    prod = direct_product(z2, z3)
    pr2 = Homomorphism.block(prod, z3, 2)
    rule = Homomorphism.of_rule(prod, z3, lambda x: pr2(x), label="r")
    assert rule.validate(Bounds(enum=5)) == 6  # the graph's order, |source|
    assert rule.table is None  # nothing tabulated
    # one wrong image: Z2's generator sent to Z3's, which no homomorphism
    # does; the graph chain refutes it past the bound
    (g2,) = [g for g in prod.generators if perm_order(g) == 2]
    wrong = Homomorphism.of_rule(
        prod, z3, lambda x: z3.generators[0] if x == g2 else pr2(x),
        label="w")
    with pytest.raises(HypothesisError, match="w: generator graph has order"):
        wrong.validate(Bounds(enum=5))
    assert rule.validate(Bounds(enum=6)) == 6 * 2  # one check per edge
    assert rule.table is not None and len(rule.table) == 6
    # a block map needs no enumeration; a table map is checked on its table
    assert pr2.validate(Bounds(enum=5)) == 2
    table = Homomorphism(prod, z3, table={x: pr2(x) for x in prod.elements()})
    assert table.validate(Bounds(enum=5)) == 6 * 2


def test_maps_out_of_a_source_closed_past_the_default_bound():
    # a builder run under a larger enumeration bound closes the source's
    # elements; kernels are read off them instead of being refused, and a
    # table map restricts to a table on them instead of to a rule
    from gcompat.bounds import UndecidedError

    s5, z2 = symmetric(5), cyclic(2)
    g = direct_product(direct_product(s5, s5), z2)
    assert g.degree == 12 and not g.is_enumerable()
    fresh = FiniteGroup(g.degree, g.generators, "G")
    assert not fresh.can_enumerate()
    with pytest.raises(UndecidedError, match="past the enumeration bound"):
        Homomorphism.block(fresh, z2, 10).kernel()
    g.elements(30000)
    assert not g.is_enumerable() and g.can_enumerate()
    assert Homomorphism.block(g, z2, 10).kernel().order() == 14400

    whole = Subgroup(g, gens=g.generators)
    onto = Subgroup(z2, gens=z2.generators)
    table = Homomorphism(g, z2, table=Homomorphism.block(g, z2, 10)
                         .tabulated(), check=False)
    assert table.restrict(whole, onto)._table is None
    whole.members(30000)
    restricted = table.restrict(whole, onto)
    assert restricted._table == table.tabulated()


def test_kernel_refusal_names_the_bound_in_force():
    from gcompat.bounds import UndecidedError

    s5, z2 = symmetric(5), cyclic(2)
    g = direct_product(direct_product(s5, s5), z2)
    fresh = FiniteGroup(g.degree, g.generators, "G")
    assert fresh.order() == 28800
    to_z2 = Homomorphism.block(fresh, z2, 10)
    with pytest.raises(UndecidedError, match="past the enumeration bound "
                       "25000"):
        to_z2.kernel(bound=25000)
    assert to_z2.kernel(bound=30000).order() == 14400


def test_generator_graph_decides_generator_images():
    z3, z2 = cyclic(3), cyclic(2)
    g, h = z3.generators[0], z2.generators[0]
    # g -> h, g^2 -> 1 agrees with itself on the only generator pair
    # (f(g*g) = 1 = h*h) but defines no homomorphism Z3 -> Z2
    rule = {z3.identity: z2.identity, g: h, mul(g, g): z2.identity}
    bad = Homomorphism.of_rule(z3, z2, rule.__getitem__, label="bad")
    assert bad(mul(g, g)) == mul(bad(g), bad(g))
    with pytest.raises(HypothesisError, match="bad: generator graph has "
                       "order 6, not the source's 3"):
        bad.graph_chain().order
    assert mod2_map()[2].graph_chain().order == 4
    z6 = cyclic(6)
    to_z3 = Homomorphism.from_gen_images(
        z6, z3, {z6.generators[0]: g}, label="mod3")
    assert to_z3.graph_chain().order == 6


def test_block_map_rejects_an_overrun():
    z3, z4 = cyclic(3), cyclic(4)
    prod = direct_product(z3, z4)
    assert Homomorphism.block(prod, z4, 3).gen_images() == {
        g: tuple(x - 3 for x in g[3:]) for g in prod.generators}
    with pytest.raises(ValueError):
        Homomorphism.block(prod, z4, 4)
    with pytest.raises(ValueError):
        Homomorphism.block(z3, z4, 0)


def test_hom_inverse():
    z6 = cyclic(6)
    other = direct_product(cyclic(2), cyclic(3))
    from gcompat.isos import find_isomorphism

    f = find_isomorphism(z6, other)
    finv = f.inverse()
    assert all(finv(f(x)) == x for x in z6.elements())


def test_rule_inverse_sifts_through_the_graph_chain(rng):
    # each group of the sampling pool, relabelled by a random permutation
    # of its points and given as a rule: the sifting inverse equals the
    # flip of the tabulated map at every element, and the graph chain's
    # levels past the target's base are the kernel of a quotient map
    from gcompat.sampling import medium_group_pool, random_normal_subgroup

    for g in medium_group_pool(60):
        s = tuple(rng.sample(range(g.degree), g.degree))
        s_inv = inv(s)
        h = FiniteGroup(g.degree, [mul(mul(s_inv, x), s)
                                   for x in g.generators], "h")
        f = Homomorphism.of_rule(g, h, lambda x: mul(mul(s_inv, x), s))
        graph = f.graph_chain()
        prefix = h.chain().base
        assert graph.base[:len(prefix)] == prefix
        assert len(graph.base) == len(prefix)
        sifted = f.inverse()
        assert f._table is None and sifted._table is None
        flipped = Homomorphism(g, h, table={x: f(x) for x in g.elements()},
                               check=False).inverse()
        assert len(flipped.tabulated()) == h.order()
        assert all(sifted(y) == x for y, x in flipped.tabulated().items())
        n = random_normal_subgroup(rng, g)
        pi = quotient(g, n)[1]
        rule = Homomorphism.of_rule(g, pi.target, pi)
        chain = rule.graph_chain()
        cut = len(pi.target.chain().base)
        assert math.prod(map(len, chain.orbits[cut:])) == n.order()
        assert chain.order == g.order()


def test_graph_orders_read_image_and_kernel(rng):
    # quotient maps and inner automorphisms of each group of the sampling
    # pool, as rules: the orders read off the graph chain are the number of
    # distinct values and the kernel's order, and inverse() refuses exactly
    # the maps that are not bijective
    from gcompat.isos import inner_automorphism
    from gcompat.sampling import medium_group_pool, random_normal_subgroup

    verdicts = set()
    for g in medium_group_pool(60):
        maps = [quotient(g, n)[1] for n in (
            g.trivial_subgroup(), random_normal_subgroup(rng, g),
            g.full_subgroup())]
        maps.append(inner_automorphism(g, rng.choice(g.sorted_elements())))
        for f in maps:
            rule = Homomorphism.of_rule(g, f.target, f)
            image = len(set(f.tabulated().values()))
            kernel = rule.kernel().order()
            assert rule.graph_orders() == (image, kernel)
            bijective = kernel == 1 and image == f.target.order()
            assert _accepts(rule.inverse) == bijective
            verdicts.add(bijective)
    assert verdicts == {True, False}


def test_rule_inverse_refuses_what_is_no_bijective_homomorphism():
    z2, z3, z4, s3 = cyclic(2), cyclic(3), cyclic(4), symmetric(3)
    # Z3 -> S3 sending the generator to a transposition: no homomorphism
    t = s3.generators[0]
    assert perm_order(t) == 2
    bad = Homomorphism.of_rule(z3, s3, lambda x: t, label="bad")
    with pytest.raises(HypothesisError, match="bad: generator graph has "
                       "order 6, not the source's 3"):
        bad.inverse()
    # squaring on Z4 collapses: a homomorphism with a kernel of order 2
    square = Homomorphism.of_rule(z4, z4, lambda x: mul(x, x), label="sq")
    assert square.graph_chain().order == 4
    with pytest.raises(HypothesisError, match="sq is not injective"):
        square.inverse()
    # Z2 into Z4: one-to-one, not onto
    (g,) = z4.generators
    into = Homomorphism.of_rule(z2, z4, lambda x: mul(g, g), label="into")
    with pytest.raises(HypothesisError, match="into is not surjective"):
        into.inverse()
    # a homomorphism onto the swap of points 2 and 3, which is not in the
    # target <(0 1)>
    target = FiniteGroup(4, [(1, 0, 2, 3)], "<(0 1)>")
    off = Homomorphism.of_rule(z2, target, lambda x: (0, 1, 3, 2),
                               label="off")
    with pytest.raises(HypothesisError, match="off: a generator's image is "
                       "not in the target"):
        off.inverse()


def test_sifting_inverse_refuses_points_outside_the_target():
    z4 = cyclic(4)
    cube = Homomorphism.of_rule(z4, z4, lambda x: mul(mul(x, x), x),
                                label="cube")
    back = cube.inverse()
    assert all(back(cube(x)) == x for x in z4.elements())
    # a transposition, a short tuple, a point of the source's block, and
    # the generator with its point 0 read as 0 - 8, which the products
    # take modulo the graph's degree 8
    for y in ((1, 0, 2, 3), (0, 1, 2), (0, 1, 2, 7), (1, 2, 3, 0 - 8)):
        with pytest.raises(ValueError, match="cube\\^-1: element not in "
                           "source"):
            back(y)


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


def test_kernel_past_the_enumeration_bound_names_order_and_bound():
    from gcompat.bounds import UndecidedError

    s8 = named_group("S8")
    f = Homomorphism.trivial(s8, cyclic(2), label="Pi_1")
    with pytest.raises(UndecidedError, match=r"kernel of Pi_1: source not "
                       r"enumerable \(order 40320, past the enumeration "
                       r"bound 20000\)"):
        f.kernel()


def _fibers_by_definition(f):
    """Each value's preimages, sorted, keyed by least preimage first."""
    elems = f.source.elements()
    values = {f(x) for x in elems}
    fibers = {y: sorted(x for x in elems if f(x) == y) for y in values}
    return dict(sorted(fibers.items(), key=lambda kv: kv[1][0]))


def _memo_maps():
    """A table, a rule and a block map, and two rule composites from `then`:
    one whose outer map merges fibers, one whose outer map is injective.
    (name -> map, and the names of the composites whose outer map is
    injective)"""
    s3, z2, z4 = symmetric(3), cyclic(2), cyclic(4)
    prod, _, _, pr1, pr2 = direct_product_with_maps(s3, z4)
    sign = Homomorphism.of_rule(
        s3, z2, lambda x: z2.generators[0] if perm_order(x) == 2
        else z2.identity, label="sign")
    parity = Homomorphism.of_rule(
        z4, z2, lambda x: z2.generators[0] if x[0] % 2 else z2.identity,
        label="mod2")
    negate = Homomorphism.of_rule(z4, z4, inv, label="neg")  # Z4 abelian
    table = Homomorphism(prod, z4, table={x: pr2(x) for x in prod.elements()},
                         label="table")
    # pr2's fibers interleave in the canonical order, so merging them must sort
    maps = {"table": table, "rule": sign, "block": pr1,
            "merging": pr2.then(parity), "injective": pr2.then(negate)}
    return maps, {"injective"}


def _pool_maps(rng):
    """Per group g of `sampling.medium_group_pool`: its quotient map by a
    random normal subgroup, the two block projections of g x Z2, and the
    projection onto g composed with that quotient map (merging, unless the
    subgroup is trivial) and with a conjugation (injective). (name -> map,
    and the names of the composites whose outer map is injective)"""
    from gcompat.sampling import medium_group_pool, random_normal_subgroup

    maps, injective = {}, set()
    for i, g in enumerate(medium_group_pool()):
        n = random_normal_subgroup(rng, g)
        _, pi = quotient(g, n)
        _, _, _, pr1, pr2 = direct_product_with_maps(g, cyclic(2))
        c = g.sorted_elements()[-1]
        conj = Homomorphism.of_rule(
            g, g, lambda x, c=c: mul(mul(inv(c), x), c), label="conj")
        name = f"{i}: {g.label}/{n.order()}"
        maps.update({f"{name} quotient": pi, f"{name} pr1": pr1,
                     f"{name} pr2": pr2, f"{name} merging": pr1.then(pi),
                     f"{name} injective": pr1.then(conj)})
        injective.add(f"{name} injective")
    return maps, injective


def test_kernels_preimages_and_sections_equal_definition_scans(rng):
    """Against scans straight from the definition, over the maps of
    `_memo_maps` and `_pool_maps`: the kernel, the preimage of every
    subgroup of the target, and the canonical section, in the order of
    its least preimages."""
    from gcompat.groups import all_subgroups

    memo, memo_injective = _memo_maps()
    assert memo["table"]._table is not None and memo["rule"]._table is None
    assert memo["merging"]._then is not None
    pool, pool_injective = _pool_maps(rng)
    assert pool and all(pool[name]._then is not None
                        for name in pool_injective)
    assert memo.keys().isdisjoint(pool)
    for name, f in {**memo, **pool}.items():
        fresh = _fibers_by_definition(f)
        assert f.kernel().members() == frozenset(fresh[f.target.identity]), \
            name
        assert f.kernel() is f.kernel()
        assert list(f.section().items()) == [(y, xs[0])
                                             for y, xs in fresh.items()], name
        for sub in all_subgroups(f.target):
            want = {x for x in f.source.elements() if f(x) in sub.members()}
            assert f.preimage_members(sub.members()) == want, name
            assert f.preimage(sub.members()).members() == want, name
    # an injective outer map keeps the inner map's kernel: one Subgroup
    for name in memo_injective | pool_injective:
        f = {**memo, **pool}[name]
        assert f.kernel() is f._then[0].kernel(), name
    assert memo["merging"].kernel() is not memo["merging"]._then[0].kernel()
    assert memo["merging"].kernel().order() == 12


def test_kernel_past_the_enumeration_bound_is_undecided_for_every_form():
    from gcompat.bounds import UndecidedError

    s8, z2 = named_group("S8"), cyclic(2)
    prod = direct_product(s8, z2)
    block = Homomorphism.block(prod, z2, 8, label="Pi_1")
    composite = block.then(Homomorphism.identity(z2), label="Pi_1")
    for f in (block, composite):
        with pytest.raises(UndecidedError, match=r"kernel of Pi_1: source "
                           r"not enumerable \(order 80640, past the "
                           r"enumeration bound 20000\)"):
            f.kernel()
        assert f.source._elements is None  # the source is left unclosed


def _dihedral_257():
    """The dihedral group of order 514 on 257 points, past the byte
    encoding."""
    from gcompat.perms import perm_from_cycles

    return FiniteGroup(257, [
        perm_from_cycles(257, [tuple(range(257))]),
        perm_from_cycles(257, [(i, 257 - i) for i in range(1, 129)])],
        "D514")


def test_edge_check_accepts_and_rejects_as_the_tuple_reference(rng):
    """Over every group of the sampling pool and one of degree 257: the
    identity map, a conjugation, a quotient map and a map onto the trivial
    group, each as given and with two entries swapped, get the verdict of
    the edge law written on tuples, with and without a kept graph."""
    from gcompat.sampling import medium_group_pool, random_normal_subgroup

    verdicts = set()
    for g in medium_group_pool() + [_dihedral_257()]:
        elems = g.sorted_elements()
        c = elems[-1]
        q, pi = quotient(g, random_normal_subgroup(rng, g))
        maps = [(g, {x: x for x in elems}),
                (g, {x: mul(mul(inv(c), x), c) for x in elems}),
                (q, dict(pi.tabulated())),
                (cyclic(1), dict.fromkeys(elems, (0,)))]
        for target, good in maps:
            tables = [good]
            if len(elems) > 1:
                a, b = rng.sample(elems, 2)
                swapped = dict(good)
                swapped[a], swapped[b] = good[b], good[a]
                tables.append(swapped)
            for table in tables:
                expected = _tuple_edge_law(g, table, target.identity)
                fresh = FiniteGroup(g.degree, g.generators)
                f = Homomorphism(fresh, target, table=table, check=False)
                assert _accepts(f.check_table_edges) == expected
                fresh.cayley()
                assert _accepts(f.check_table_edges) == expected
                verdicts.add(expected)
    assert verdicts == {True, False}


@pytest.mark.parametrize("degree", [4, 258])
def test_a_table_point_off_the_degree_is_refuted(degree):
    """A value with a point past the target's degree (past 255 too) or
    below 0 is no homomorphism's value, and a key with such a point is
    none of the source's elements: each check fails, on the byte encoding
    (degree 4) and past it (degree 258), and nothing else is raised."""
    from gcompat.perms import perm_from_cycles

    z4 = FiniteGroup(degree, [perm_from_cycles(degree, [(0, 1, 2, 3)])])
    z2 = FiniteGroup(degree, [perm_from_cycles(degree, [(0, 1)])])
    t = z2.generators[0]
    good = {x: t if x[0] % 2 else z2.identity for x in z4.elements()}
    assert _accepts(Homomorphism(z4, z2, table=good).check_table_edges)
    gen = z4.generators[0]
    for point in (degree, 300, -1, -degree):
        for k in (1, 3):
            bad = dict(good)
            value = list(good[gen])
            value[k] = point
            bad[gen] = tuple(value)
            with pytest.raises(HypothesisError, match="not a homomorphism"):
                Homomorphism(z4, z2, table=bad)
        key = list(gen)
        key[1] = point
        bad = dict(good)
        bad[tuple(key)] = bad.pop(gen)
        # over a fresh source's graph, then over z4's kept graph
        with pytest.raises(HypothesisError, match="not total"):
            Homomorphism(FiniteGroup(degree, z4.generators), z2, table=bad)
        z4.cayley()
        with pytest.raises(HypothesisError, match="not total"):
            Homomorphism(z4, z2, table=bad)


def test_gen_image_tables_satisfy_the_tuple_definition(rng):
    """Random generator images on every group of the sampling pool: a table
    `from_gen_images` builds is keyed by the source's own elements and
    satisfies the edge law written on tuples, and images the generator
    graph refutes raise "not consistent"."""
    from gcompat.sampling import medium_group_pool

    pool = medium_group_pool(60)
    verdicts = set()
    for g in pool:
        for _ in range(4):
            h = rng.choice([g] + pool)
            values = h.sorted_elements()
            images = {s: rng.choice(values) for s in g.generators}
            if rng.random() < 0.25:
                images = dict.fromkeys(g.generators, h.identity)
            graph = Homomorphism.of_rule(g, h, images.__getitem__)
            consistent = _accepts(lambda: graph.graph_chain().order)
            if not consistent:
                with pytest.raises(HypothesisError, match="not consistent"):
                    Homomorphism.from_gen_images(g, h, images)
            else:
                f = Homomorphism.from_gen_images(g, h, images)
                table = f.tabulated()
                assert list(table) == g.sorted_elements()
                assert _tuple_edge_law(g, table, h.identity)
                assert f.gen_images() == images
            verdicts.add(consistent)
    assert verdicts == {True, False}


def test_an_alias_key_past_the_byte_encoding_is_not_total():
    """Past degree 256 a key with a point below 0 reads that point modulo
    the degree in a tuple product; a table with such an alias beside the
    element it aliases has more keys than the source has elements, so it
    is refused, with and without a kept graph."""
    from gcompat.perms import perm_from_cycles

    z4 = FiniteGroup(258, [perm_from_cycles(258, [(0, 1, 2, 3)])])
    z2 = FiniteGroup(258, [perm_from_cycles(258, [(0, 1)])])
    t = z2.generators[0]
    good = {x: t if x[0] % 2 else z2.identity for x in z4.elements()}
    g = z4.generators[0]
    bad = dict(good)
    bad[g[:-1] + (g[-1] - 258,)] = good[g]
    assert len(bad) == 5
    with pytest.raises(HypothesisError, match="table not total"):
        Homomorphism(FiniteGroup(258, z4.generators), z2, table=bad)
    z4.cayley()
    with pytest.raises(HypothesisError, match="table not total"):
        Homomorphism(z4, z2, table=bad)
