import pytest

from gcompat.bounds import Bounds, HypothesisError
from gcompat.catalog import named_group
from gcompat.groups import Subgroup, cyclic, symmetric, trivial_group
from gcompat.homs import Homomorphism
from gcompat.inverse_limits import (
    InverseSystem,
    Subsystem,
    SystemMorphism,
    full_subsystem,
    kernel_system,
    limit,
    limit_of_morphism,
    preimage_system,
    projection_system,
    section_of_set_system,
    star_limit,
    star_system,
    subsystem_limit,
    trivial_subsystem,
)
from gcompat.perms import closure, mul
from gcompat.posets import Poset, chain_poset, star_poset
from gcompat.sampling import (
    random_in_forest_poset,
    random_quotient_morphism,
    random_surjective_system,
)


def z4_star():
    z4, z2 = cyclic(4), cyclic(2)
    pi = Homomorphism.from_gen_images(z4, z2, {z4.generators[0]: z2.generators[0]})
    return star_system(z2, [z4, z4], [pi, pi]), z4, z2, pi


def test_z4_star_limit_order_and_membership():
    system, z4, z2, pi = z4_star()
    lim = limit(system)
    # oracle: filter Z4 x Z4 for parity-compatible pairs
    pairs = [(a, b) for a in z4.elements() for b in z4.elements()
             if pi(a) == pi(b)]
    assert lim.group.order() == len(pairs) == 8
    got = {(lim.decode(w, 0), lim.decode(w, 1)) for w in lim.group.elements()}
    assert got == set(pairs)


def test_identity_transition_limit_is_isomorphic_to_g():
    g = symmetric(3)
    system = star_system(g, [g], [Homomorphism.identity(g)])
    lim = limit(system)
    assert lim.group.order() == 6
    assert lim.projection(0).is_bijective()


def test_z6_s3_star_has_order_18():
    z6, s3, z2 = named_group("Z6"), named_group("S3"), cyclic(2)
    from gcompat.perms import perm_order

    pi1 = Homomorphism.from_gen_images(z6, z2, {z6.generators[0]: z2.generators[0]})
    sign = {g: (z2.generators[0] if perm_order(g) == 2 else z2.identity)
            for g in s3.generators}
    pi2 = Homomorphism.from_gen_images(s3, z2, sign)
    system = star_system(z2, [z6, s3], [pi1, pi2])
    lim = limit(system)
    # oracle: filter the 36 pairs on matching sign
    count = sum(1 for a in z6.elements() for b in s3.elements()
                if pi1(a) == pi2(b))
    assert lim.group.order() == count == 18


@pytest.mark.parametrize("stretch", [False, True])
def test_star_limit_agrees_with_generic_limit(stretch, rng):
    # a small enum bound leaves about half the limits unclosed, so their
    # elements are closed only after star_limit returns
    bounds = Bounds(enum=40) if stretch else Bounds()
    systems = [z4_star()[0]] + [
        random_surjective_system(rng, star_poset(rng.randint(1, 3)))
        for _ in range(24)]
    past_bound = 0
    for system in systems:
        lim = star_limit(system, bounds)
        past_bound += lim.group._elements is None
        assert lim.group.elements() == limit(system).group.elements()
    assert past_bound > 0 if stretch else past_bound == 0


def test_star_limit_refutes_a_wrong_kernel():
    z4, z2 = cyclic(4), cyclic(2)
    pis = [Homomorphism.from_gen_images(z4, z2,
                                        {z4.generators[0]: z2.generators[0]})
           for _ in range(2)]
    pis[1]._kernel = z4.trivial_subgroup()
    # the generators span the order-8 limit, not the 2 * 2 * 1 predicted
    with pytest.raises(HypothesisError, match="wrong order"):
        star_limit(star_system(z2, [z4, z4], pis))


def test_limit_encode_concatenates_shifted_blocks(rng):
    from gcompat.inverse_limits import LimitGroup, LimitGroupBuilder

    assert LimitGroupBuilder.encode is LimitGroup.encode
    for _ in range(5):
        lim = limit(random_surjective_system(rng, random_in_forest_poset(rng)))
        for w in lim.group.sorted_elements()[:50]:
            asg = lim.decode_all(w)
            assert lim.encode(asg) == w == tuple(
                x + lim.offsets[n] for n in lim.node_order for x in asg[n])


def test_limit_projections_commute_with_transitions():
    system, z4, z2, pi = z4_star()
    lim = limit(system)
    for w in lim.group.elements():
        assert pi(lim.decode(w, 0)) == lim.decode(w, "r")


def test_subsystem_limit_examples():
    system, z4, z2, pi = z4_star()
    lim = limit(system)
    assert subsystem_limit(lim, full_subsystem(system)).order() == 8
    assert subsystem_limit(lim, trivial_subsystem(system)).order() == 1
    two = Subgroup(z4, members=closure([z4.power(z4.generators[0], 2)]))
    sub = Subsystem(system, {"r": z2.full_subgroup(), 0: two, 1: two})
    s_lim = subsystem_limit(lim, sub)
    # oracle: coherent pairs through the order-2 subgroups: both even entries
    assert s_lim.order() == 4


def test_subsystem_limit_maximality():
    # any subgroup projecting into the node subgroups lies inside
    system, z4, z2, pi = z4_star()
    lim = limit(system)
    two = Subgroup(z4, members=closure([z4.power(z4.generators[0], 2)]))
    sub = Subsystem(system, {"r": z2.full_subgroup(), 0: two, 1: two})
    s_lim = subsystem_limit(lim, sub)
    for w in lim.group.elements():
        inside = all(
            sub.subgroups[n].contains(lim.decode(w, n)) for n in lim.node_order)
        assert inside == s_lim.contains(w)


def test_kernel_system_of_identity_morphism_is_trivial():
    system, *_ = z4_star()
    phi = SystemMorphism(system, system,
                         {n: Homomorphism.identity(system.groups[n])
                          for n in system.poset.nodes})
    ker = kernel_system(phi)
    assert all(s.order() == 1 for s in ker.subgroups.values())


def test_kernel_system_of_mod2_morphism():
    system, z4, z2, pi = z4_star()
    ident2 = Homomorphism.identity(z2)
    target = star_system(z2, [z2, z2], [ident2, ident2])
    level = {"r": Homomorphism.identity(z2), 0: pi, 1: pi}
    phi = SystemMorphism(system, target, level)
    ker = kernel_system(phi)
    assert ker.subgroups[0].order() == 2
    assert ker.subgroups[1].order() == 2
    assert ker.subgroups["r"].order() == 1


def test_preimage_of_full_target_is_full_source():
    system, *_ = z4_star()
    phi = SystemMorphism(system, system,
                         {n: Homomorphism.identity(system.groups[n])
                          for n in system.poset.nodes})
    pre = preimage_system(phi, full_subsystem(system))
    assert all(pre.subgroups[n].order() == system.groups[n].order()
               for n in system.poset.nodes)


def test_limit_of_levelwise_isomorphisms_is_bijective():
    system, z4, z2, pi = z4_star()
    # multiplication by 3 on Z4, identity on Z2
    times3 = Homomorphism.from_gen_images(
        z4, z4, {z4.generators[0]: z4.power(z4.generators[0], 3)})
    phi = SystemMorphism(system, system,
                         {"r": Homomorphism.identity(z2), 0: times3, 1: times3})
    hom, ls, lt = limit_of_morphism(phi)
    values = {hom(w) for w in ls.group.elements()}
    assert len(values) == 8 and values == set(lt.group.elements())


def test_levelwise_identity_morphism_gives_identity_map():
    system, *_ = z4_star()
    phi = SystemMorphism(system, system,
                         {n: Homomorphism.identity(system.groups[n])
                          for n in system.poset.nodes})
    hom, ls, lt = limit_of_morphism(phi)
    assert all(hom(w) == w for w in ls.group.elements())


def test_surjective_morphism_with_surjective_kernel_system(rng):
    # levelwise surjections whose kernel system is surjective give a
    # surjective limit map, across random instances
    for _ in range(15):
        poset = random_in_forest_poset(rng, 4)
        system = random_surjective_system(rng, poset)
        phi = random_quotient_morphism(rng, system)
        ker = kernel_system(phi)
        ker_surj = all(
            ker.as_system().maps[p].is_surjective()
            for p in poset.comparable_pairs())
        if not ker_surj:
            continue
        hom, ls, lt = limit_of_morphism(phi)
        assert len({hom(w) for w in ls.group.elements()}) == lt.group.order()


def test_section_of_set_system_examples():
    # singleton sets: the unique tuple
    p = chain_poset(3)
    sets = {i: ["a"] for i in p.nodes}
    maps = {pair: {"a": "a"} for pair in p.comparable_pairs()}
    assert section_of_set_system(p, sets, maps) == {i: "a" for i in p.nodes}

    # Z4-star underlying sets: a parity-coherent pair
    system, z4, z2, pi = z4_star()
    poset = system.poset
    sets = {"r": z2.sorted_elements(), 0: z4.sorted_elements(),
            1: z4.sorted_elements()}
    maps = {(i, j): dict(system.maps[(i, j)].tabulated())
            for (i, j) in poset.comparable_pairs()}
    chosen = section_of_set_system(poset, sets, maps)
    assert pi(chosen[0]) == chosen["r"] == pi(chosen[1])


def test_section_follows_preimages_down_a_chain():
    z8, z4, z2 = cyclic(8), cyclic(4), cyclic(2)
    f84 = Homomorphism.from_gen_images(z8, z4, {z8.generators[0]: z4.generators[0]})
    f42 = Homomorphism.from_gen_images(z4, z2, {z4.generators[0]: z2.generators[0]})
    p = chain_poset(3)
    groups = {0: z2, 1: z4, 2: z8}
    system = InverseSystem.from_cover_maps(p, groups,
                                           {(0, 1): f42, (1, 2): f84})
    sets = {i: groups[i].sorted_elements() for i in p.nodes}
    maps = {pair: dict(system.maps[pair].tabulated())
            for pair in p.comparable_pairs()}
    chosen = section_of_set_system(p, sets, maps)
    assert f42(chosen[1]) == chosen[0]
    assert f84(chosen[2]) == chosen[1]


def test_projection_system_at_root_and_leaf():
    system, z4, z2, pi = z4_star()
    lim = limit(system)
    # root: every comparison group is the root group, projection surjective
    target, phi = projection_system(system, "r")
    assert all(target.groups[n].order() == 2 for n in system.poset.nodes)
    hom, ls, lt = limit_of_morphism(phi, source_limit=lim)
    for w in lim.group.elements():
        assert lt.decode(hom(w), "r") == lim.decode(w, "r")
    # leaf: kernel of the projection has order 2
    target0, phi0 = projection_system(system, 0)
    p0 = lim.projection(0)
    ker = p0.kernel()
    assert ker.order() == 2
    # and matches the kernel-system limit
    ker_sys = kernel_system(phi0)
    assert subsystem_limit(lim, ker_sys).members() == ker.members()


def test_projection_system_disjoint_component():
    z2, z3 = cyclic(2), cyclic(3)
    p = Poset((0, 1), [])
    system = InverseSystem(p, {0: z2, 1: z3}, {})
    target, phi = projection_system(system, 0)
    assert target.groups[1].order() == 1
    assert target.groups[0].order() == 2


def test_star_limit_requires_star():
    z2 = cyclic(2)
    p = chain_poset(3)
    f = Homomorphism.identity(z2)
    system = InverseSystem.from_cover_maps(p, {i: z2 for i in p.nodes},
                                           {(0, 1): f, (1, 2): f})
    with pytest.raises(ValueError):
        star_limit(system)


def test_star_limit_past_the_enumeration_bound_builds_from_generators():
    z = named_group("Z2xZ4xZ8")
    ident = Homomorphism.trivial(z, trivial_group())
    system = star_system(trivial_group(), [z, z, z], [ident, ident, ident])
    lim = star_limit(system, Bounds(enum=1000))
    assert lim.group.order() == 64 ** 3
    assert lim.group._elements is None


def test_star_limit_closes_its_branches_under_the_callers_bound():
    """The sign map S8 -> Z2 has a source of order 40320: under the
    default enumeration bound its section is refused, naming the bound,
    and under a bound of 50000 the limit (S8 itself) is built."""
    from gcompat.bounds import UndecidedError

    s8, z2 = symmetric(8), cyclic(2)

    def sign(p):
        seen, cycles = set(), 0
        for i in range(len(p)):
            cycles += i not in seen
            while i not in seen:
                seen.add(i)
                i = p[i]
        return z2.generators[0] if (len(p) - cycles) % 2 else z2.identity

    system = star_system(z2, [s8],
                         [Homomorphism.of_rule(s8, z2, sign, label="sign")])
    with pytest.raises(UndecidedError, match="section of sign: .* 20000"):
        star_limit(system)
    lim = star_limit(system, Bounds(enum=50000))
    assert lim.group.order() == 40320
    assert lim.projection(0).is_bijective()


def test_universal_property_on_small_instance():
    # any competitor cone factors uniquely through the limit
    system, z4, z2, pi = z4_star()
    lim = limit(system)
    cone_src = z4
    q = {"r": Homomorphism.from_gen_images(z4, z2,
                                           {z4.generators[0]: z2.generators[0]}),
         0: Homomorphism.identity(z4),
         1: Homomorphism.identity(z4)}
    # exhaustive search of mediating homomorphisms
    mediators = []
    elems = lim.group.sorted_elements()
    for image in elems:
        try:
            u = Homomorphism.from_gen_images(z4, lim.group,
                                             {z4.generators[0]: image})
        except HypothesisError:
            continue
        if all(all(lim.projection(n)(u(x)) == q[n](x) for x in z4.elements())
               for n in lim.node_order):
            mediators.append(u)
    assert len(mediators) == 1


def nested_star_limits(top_bounds=None):
    """lim1 = the Z4 star, lim2 a star over lim1, and a top star over lim2:
    small (order 32) by default, generator-based (order 65536) with
    `top_bounds` below that order."""
    system, z4, z2, pi = z4_star()
    lim1 = limit(system)
    lim2 = star_limit(star_system(z2, [lim1.group, z4],
                                  [lim1.projection("r"), pi]))
    if top_bounds is None:
        top = star_limit(star_system(z2, [lim2.group, z4],
                                     [lim2.projection("r"), pi]))
    else:
        z, triv = named_group("Z2xZ4xZ8"), trivial_group()
        maps = [Homomorphism.trivial(g, triv) for g in (lim2.group, z, z)]
        top = star_limit(star_system(triv, [lim2.group, z, z], maps),
                         top_bounds)
    return top, lim2, lim1


@pytest.mark.parametrize("stretch", [False, True])
def test_fused_limit_projections_equal_nested_decodes(stretch, rng):
    from gcompat.homs import decode_block

    bounds = Bounds(enum=1000) if stretch else None
    top, lim2, lim1 = nested_star_limits(bounds)
    two = top.projection(0).then(lim2.projection(1))
    three = top.projection(0).then(lim2.projection(0)).then(lim1.projection(1))
    off0, off1 = top.offsets[0], lim2.offsets[0]
    assert two.offset == off0 + lim2.offsets[1]
    assert three.offset == off0 + off1 + lim1.offsets[1]
    assert three.label == "p_1*p_0*p_0"
    if stretch:
        assert top.group.order() == 16 * 64 * 64
        assert not top.group.is_enumerable(1000)
        gens, elems = top.group.generators, []
        for _ in range(200):  # random words of length 30 in the generators
            w = top.group.identity
            for _ in range(30):
                w = mul(w, rng.choice(gens))
            elems.append(w)
    else:
        assert top.group.order() == 32
        elems = top.group.elements()
    deg1, deg2, z4deg = lim1.group.degree, lim2.group.degree, 4
    for w in elems:
        inner = decode_block(w, off0, deg2)
        assert two(w) == decode_block(inner, lim2.offsets[1], z4deg)
        nested = decode_block(decode_block(inner, off1, deg1),
                              lim1.offsets[1], z4deg)
        assert three(w) == nested
        assert nested == lim1.decode(lim2.decode(top.decode(w, 0), 0), 1)
