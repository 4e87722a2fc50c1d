import pytest

from gcompat.bounds import HypothesisError
from gcompat.catalog import named_group
from gcompat.groups import Subgroup, cyclic, direct_product, symmetric
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
