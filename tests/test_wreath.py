import pytest

from gcompat.bounds import HypothesisError
from gcompat.groups import Subgroup, cyclic, symmetric, trivial_group
from gcompat.homs import Homomorphism
from gcompat.perms import closure, inv, mul, perm_order
from gcompat.sampling import (
    medium_group_pool,
    random_subgroup,
    random_transitive_action,
    random_transversal,
)
from gcompat.wreath import (
    GroupAction,
    PermutationTransversal,
    coset_action,
    default_transversal,
    embedding_conjugator,
    natural_action,
    standard_embedding,
    wreath_of_homomorphisms,
    wreath_product,
)


def test_wreath_order_z2_by_z2_regular():
    z2 = cyclic(2)
    w = wreath_product(z2, natural_action(cyclic(2)))
    assert w.order == 8
    assert len(w.carrier.elements()) == 8


def test_wreath_by_trivial_action_is_direct_product():
    z3, z2 = cyclic(3), cyclic(2)
    act = GroupAction(z2, 1, Homomorphism.trivial(z2, trivial_group()))
    w = wreath_product(z3, act)
    assert w.order == 6
    assert w.carrier.is_abelian()


def test_wreath_order_formula_cross_check():
    # |Z7 wr S3-on-2-points| = 7^2 * 6, by enumeration
    s3 = symmetric(3)
    a3 = Subgroup(s3, members=[e for e in s3.elements()
                               if perm_order(e) in (1, 3)])
    act = coset_action(s3, a3)
    assert act.npoints == 2
    w = wreath_product(cyclic(7), act)
    assert w.order == 294
    assert len(w.carrier.elements()) == 294


def test_wreath_twist_contract():
    # multiplication encodes (f1,h1)(f2,h2) = (f1 * f2^(h1^-1), h1 h2)
    # with f^h(w) = f(w^(h^-1))
    z3 = cyclic(3)
    top = symmetric(3)
    w = wreath_product(z3, natural_action(top))
    elems = list(w.carrier.elements())[:40]
    for a in elems[:12]:
        for b in elems[:12]:
            f1, h1 = w.decode(a)
            f2, h2 = w.decode(b)
            base = tuple(mul(f1[i], f2[w.action.act(i, h1)])
                         for i in range(w.npoints))
            assert mul(a, b) == w.encode(base, mul(h1, h2))


def test_coset_action_examples():
    s3 = symmetric(3)
    a3 = Subgroup(s3, members=[e for e in s3.elements()
                               if perm_order(e) in (1, 3)])
    act = coset_action(s3, a3)
    assert act.npoints == 2
    assert act.kernel().same_as(a3)

    z4 = cyclic(4)
    reg = coset_action(z4, z4.trivial_subgroup())
    assert reg.npoints == 4
    assert reg.kernel().order() == 1

    two = Subgroup(s3, members=closure([s3.sorted_elements()[1]]))
    faith = coset_action(s3, two)
    assert faith.npoints == 3
    assert faith.kernel().order() == 1  # trivial core


def test_coset_action_stabilizer_of_basepoint():
    s3 = symmetric(3)
    two = Subgroup(s3, members=closure([s3.sorted_elements()[1]]))
    act = coset_action(s3, two)
    assert act.stabilizer(0).same_as(two)


def test_standard_embedding_z4_into_z2_wr_z2():
    z4 = cyclic(4)
    two = Subgroup(z4, members=closure([z4.power(z4.generators[0], 2)]))
    act = coset_action(z4, two)
    emb = standard_embedding(act)
    assert emb.wreath.carrier.order() == 8
    emb.map.validate()
    assert len({emb(x) for x in z4.elements()}) == 4


def test_standard_embedding_regular_action_is_regular_representation():
    g = symmetric(3)
    act = coset_action(g, g.trivial_subgroup())
    emb = standard_embedding(act)
    # stabilizer trivial: base coordinates are all trivial
    ident = tuple(range(g.degree))
    for x in g.elements():
        base, top = emb.wreath.decode(emb(x))
        assert all(b == ident for b in base)
        assert top == act.rho(x)


def test_standard_embedding_s3_natural():
    s3 = symmetric(3)
    act = natural_action(s3)
    emb = standard_embedding(act)
    emb.map.validate()
    assert len({emb(x) for x in s3.elements()}) == 6
    assert emb.stabilizer.order() == 2


def test_embedding_conjugator_identical_transversals():
    z4 = cyclic(4)
    two = Subgroup(z4, members=closure([z4.power(z4.generators[0], 2)]))
    act = coset_action(z4, two)
    t = default_transversal(act)
    e1 = standard_embedding(act, t)
    e2 = standard_embedding(act, t)
    x = embedding_conjugator(e1, e2)
    assert x == e1.wreath.carrier.identity


def test_embedding_conjugator_z4_two_transversals():
    z4 = cyclic(4)
    two = Subgroup(z4, members=closure([z4.power(z4.generators[0], 2)]))
    act = coset_action(z4, two)
    t1 = default_transversal(act)
    # swap in the other representative for point 1
    gen = z4.generators[0]
    other = {0: z4.identity, 1: z4.power(gen, 3)}
    t2 = PermutationTransversal(act, 0, other)
    e1 = standard_embedding(act, t1)
    e2 = standard_embedding(act, t2)
    x = embedding_conjugator(e1, e2)  # verifies internally
    assert x != e1.wreath.carrier.identity


def test_embedding_conjugator_s3_swapped_rep():
    s3 = symmetric(3)
    two = Subgroup(s3, members=closure([s3.sorted_elements()[1]]))
    act = coset_action(s3, two)
    t1 = default_transversal(act)
    reps = dict(t1.reps)
    stab_elt = [e for e in two.members() if e != s3.identity][0]
    reps[2] = mul(stab_elt, reps[2])
    assert act.act(0, reps[2]) == 2
    t2 = PermutationTransversal(act, 0, reps)
    e1 = standard_embedding(act, t1)
    e2 = standard_embedding(act, t2)
    x = embedding_conjugator(e1, e2)
    base, top = e1.wreath.decode(x)
    nontrivial = [b for b in base if b != s3.identity]
    assert len(nontrivial) == 1


def test_randomized_embeddings(rng):
    from gcompat.sampling import medium_group_pool

    pool = [g for g in medium_group_pool(60)]
    for _ in range(25):
        g = rng.choice(pool)
        act = random_transitive_action(rng, g)
        tr = random_transversal(rng, act)
        emb = standard_embedding(act, tr)
        emb.map.validate()
        assert len({emb(x) for x in g.elements()}) == g.order()
        # the map is propagated from its generators' images; the reference
        # is the formula x -> ((t_v x t_{v.x}^-1)_v, rho(x)) at every element
        for x in g.elements():
            cocycle = tuple(mul(mul(tr[v], x), inv(tr[act.act(v, x)]))
                            for v in range(act.npoints))
            assert emb(x) == emb.wreath.encode(cocycle, act.rho(x))


def test_wreath_of_homomorphisms_identity_case():
    z2 = cyclic(2)
    w = wreath_product(z2, natural_action(cyclic(2)))
    f = wreath_of_homomorphisms(Homomorphism.identity(z2), w, w,
                                (0, 1), Homomorphism.identity(cyclic(2)))
    assert all(f(x) == x for x in w.carrier.elements())


def test_wreath_of_homomorphisms_surjective_iff():
    z4, z2 = cyclic(4), cyclic(2)
    top = cyclic(2)
    w1 = wreath_product(z4, natural_action(top))
    w2 = wreath_product(z2, natural_action(top))
    mod2 = Homomorphism.from_gen_images(z4, z2,
                                        {z4.generators[0]: z2.generators[0]})
    f = wreath_of_homomorphisms(mod2, w1, w2, (0, 1),
                                Homomorphism.identity(top))
    assert w1.order == 32 and w2.order == 8
    assert len({f(x) for x in w1.carrier.elements()}) == 8  # surjective

    # non-surjective eta gives a non-surjective wreath map
    embed = Homomorphism.from_gen_images(
        z2, z4, {z2.generators[0]: z4.power(z4.generators[0], 2)})
    w3 = wreath_product(z2, natural_action(top))
    g = wreath_of_homomorphisms(embed, w3, w1, (0, 1),
                                Homomorphism.identity(top))
    assert len({g(x) for x in w3.carrier.elements()}) < w1.order


def test_wreath_of_homomorphisms_rejects_broken_action_pair():
    z2 = cyclic(2)
    z4 = cyclic(4)
    w1 = wreath_product(z2, natural_action(z4))
    w2 = wreath_product(z2, natural_action(z4))
    # psi = identity but phi swaps two points: not equivariant
    bad_phi = (1, 0, 2, 3)
    with pytest.raises(HypothesisError):
        wreath_of_homomorphisms(Homomorphism.identity(z2), w1, w2, bad_phi,
                                Homomorphism.identity(z4))


def test_base_and_top_embeddings():
    z3, z2 = cyclic(3), cyclic(2)
    w = wreath_product(z3, natural_action(z2))
    base = w.base_subgroup()
    assert base.order() == 9
    emb0 = w.coordinate_embedding(0)
    emb_top = w.top_embedding()
    assert len({emb0(x) for x in z3.elements()}) == 3
    assert len({emb_top(h) for h in z2.elements()}) == 2
    # base and top generate the carrier
    gens = [emb0(g) for g in z3.generators] + \
        [w.coordinate_embedding(1)(g) for g in z3.generators] + \
        [emb_top(h) for h in z2.generators]
    assert len(closure(gens)) == w.order


def test_coset_action_table_matches_coset_definition(rng, coset_table):
    pool = medium_group_pool(60)
    for _ in range(25):
        g = rng.choice(pool)
        k = random_subgroup(rng, g)
        act = coset_action(g, k)
        expect = coset_table(g, k)
        assert list(act.rho.tabulated().items()) == list(expect.items())
        assert act.npoints * k.order() == g.order()
        assert all(act.act(0, r) == i for i, r in enumerate(act.labels))
