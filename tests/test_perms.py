import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcompat.perms import (
    StabilizerChain,
    closure,
    cycles,
    decode_block,
    dimino,
    dimino_extend,
    encoding,
    identity_perm,
    inv,
    is_perm,
    mul,
    order_sweep,
    perm_from_cycles,
    perm_order,
    perm_pow,
    place_block,
)


def test_mul_applies_left_factor_first():
    p = (1, 0, 2)
    q = (0, 2, 1)
    # x^(pq) = (x^p)^q
    for x in range(3):
        assert mul(p, q)[x] == q[p[x]]


def test_inverse_and_power():
    p = perm_from_cycles(5, [(0, 1, 2, 3, 4)])
    assert mul(p, inv(p)) == identity_perm(5)
    assert perm_pow(p, 5) == identity_perm(5)
    assert perm_pow(p, -2) == perm_pow(inv(p), 2)
    assert perm_order(p) == 5


def test_cycles_round_trip():
    p = perm_from_cycles(6, [(0, 3), (1, 4, 5)])
    assert perm_from_cycles(6, cycles(p)) == p
    assert perm_order(p) == 6


def test_closure_of_s3():
    a = perm_from_cycles(3, [(0, 1)])
    b = perm_from_cycles(3, [(0, 1, 2)])
    assert len(closure([a, b])) == 6
    assert len(closure([b])) == 3


def test_closure_bound():
    from gcompat.bounds import UndecidedError

    a = perm_from_cycles(7, [(0, 1, 2, 3, 4, 5, 6)])
    with pytest.raises(UndecidedError):
        closure([a], bound=3)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 8, 9, 10])
def test_chain_order_matches_enumeration_symmetric(n):
    gens = [perm_from_cycles(n, [(0, 1)]),
            tuple((i + 1) % n for i in range(n))]
    chain = StabilizerChain(n, gens)
    assert chain.order == math.factorial(n)
    if n <= 6:
        assert chain.order == len(closure(gens))


def test_chain_membership():
    gens = [perm_from_cycles(4, [(0, 1, 2)]), perm_from_cycles(4, [(1, 2, 3)])]
    chain = StabilizerChain(4, gens)
    assert chain.order == 12
    elems = closure(gens)
    for p in itertools.permutations(range(4)):
        assert chain.contains(tuple(p)) == (tuple(p) in elems)


def test_chain_on_direct_product_style_generators(rng):
    # random small groups: chain order must equal closure size
    for _ in range(20):
        deg = rng.randint(3, 7)
        gens = []
        for _ in range(rng.randint(1, 3)):
            pts = list(range(deg))
            rng.shuffle(pts)
            gens.append(tuple(pts))
        chain = StabilizerChain(deg, gens)
        assert chain.order == len(closure(gens))


def test_mul_matches_generator_expression(rng):
    # the itemgetter kernel against the plain definition, degree 1 included
    for deg in [1, 2] + [rng.randint(3, 300) for _ in range(40)]:
        p, q = list(range(deg)), list(range(deg))
        rng.shuffle(p)
        rng.shuffle(q)
        p, q = tuple(p), tuple(q)
        assert mul(p, q) == tuple(q[i] for i in p)
        assert type(mul(p, q)) is tuple


def bfs_closure(gens):
    """Reference closure: breadth-first search over the Cayley graph, with
    products taken from the definition x^(p*q) = (x^p)^q."""
    ident = identity_perm(len(gens[0]))
    elems, frontier = {ident}, [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = tuple(g[i] for i in x)
                if y not in elems:
                    elems.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(elems)


CATALOG_NAMES = ["1", "Z12", "S4", "A5", "D12", "Q8", "F21", "E(3,2)",
                 "Z2xZ4xZ8", "S3xZ4", "D8xQ8"]


def _random_symmetric_gens(rng):
    """1-3 random permutations of degree 5-7, the identity allowed."""
    deg = rng.randint(5, 7)
    gens = []
    for _ in range(rng.randint(1, 3)):
        pts = list(range(deg))
        rng.shuffle(pts)
        gens.append(tuple(pts))
    if rng.random() < 0.2:
        gens.insert(rng.randrange(len(gens) + 1), identity_perm(deg))
    return gens


def test_closure_matches_breadth_first_search(rng):
    from gcompat.catalog import named_group

    cases = [_random_symmetric_gens(rng) for _ in range(30)]
    for name in CATALOG_NAMES:
        g = named_group(name)
        gens = list(g.generators) or [g.identity]
        cases += [gens, gens[::-1] + gens]
    for gens in cases:
        assert closure(gens) == bfs_closure(gens)


def test_closure_bound_is_exact_and_never_partial(rng):
    from gcompat.bounds import UndecidedError
    from gcompat.catalog import named_group

    cases = [_random_symmetric_gens(rng) for _ in range(15)]
    cases += [list(named_group(n).generators) for n in CATALOG_NAMES[1:]]
    for gens in cases:
        group = bfs_closure(gens)
        assert closure(gens, bound=len(group)) == group
        assert closure(gens, bound=len(group) + 1) == group
        below = range(len(group)) if len(group) <= 64 else \
            [0, 1, len(group) // 2, len(group) - 1]
        for bound in below:
            with pytest.raises(UndecidedError, match="closure exceeded bound"):
                closure(gens, bound=bound)
    ident = identity_perm(4)
    assert closure([ident], bound=1) == {ident}


def test_dimino_extend_matches_closure(rng):
    from gcompat.sampling import medium_group_pool

    pool = medium_group_pool(60)
    cases = []
    for _ in range(40):
        g = rng.choice(pool)
        elems = g.sorted_elements()
        cases.append([g.identity] +
                     [rng.choice(elems) for _ in range(rng.randint(1, 3))])
    cases += [[identity_perm(len(gens[0]))] + gens
              for gens in (_random_symmetric_gens(rng) for _ in range(30))]
    for ident, *before, s in cases:
        closed = bfs_closure([ident] + before)
        grown = bfs_closure([ident] + before + [s])
        assert dimino_extend(closed, before, s) == grown
        # limit is at least |closed| in every use; None exactly past it
        for limit in {len(closed), (len(closed) + len(grown)) // 2,
                      len(grown) - 1, len(grown), len(grown) + 1}:
            if limit >= len(closed):
                result = dimino_extend(closed, before, s, limit=limit)
                assert result == (None if len(grown) > limit else grown)


def test_byte_and_tuple_encodings_agree(rng):
    """Dimino's method and the order sweep give the same groups and orders
    on the byte encoding (degree <= 256) as on the tuples, whose own
    encoding serves past degree 256; bytes sort as their tuples do."""
    from gcompat.sampling import medium_group_pool

    _, tuple_times, _ = encoding(257)
    assert tuple_times is mul
    cases = [list(g.generators) or [g.identity] for g in medium_group_pool()]
    cases += [_random_symmetric_gens(rng) for _ in range(30)]
    for gens in cases:
        n = len(gens[0])
        encode, times, ident = encoding(n)
        assert encode is bytes and ident == bytes(range(n))
        group = sorted(bfs_closure(gens))
        codes = [encode(p) for p in group]
        assert sorted(codes) == codes and [tuple(c) for c in codes] == group
        by_bytes = order_sweep(codes, times, ident)
        by_tuples = order_sweep(group, mul, identity_perm(n))
        assert [by_bytes[c] for c in codes] == [by_tuples[p] for p in group] \
            == [perm_order(p) for p in group]
        closed, enc_closed, before = frozenset([identity_perm(n)]), \
            frozenset([ident]), []
        for s in gens:
            grown = dimino_extend(closed, before, s)
            args = ([encode(g) for g in before], encode(s), times, ident)
            enc = dimino(enc_closed, *args)
            assert frozenset(map(tuple, enc)) == grown
            for limit in {len(closed), len(grown) - 1, len(grown)}:
                if limit >= len(closed):
                    assert dimino(enc_closed, *args, limit) == \
                        (None if len(grown) > limit else enc)
            closed, enc_closed = grown, enc
            before.append(s)
        assert sorted(closed) == group


def test_encoding_at_its_edges():
    """Degree 256 is the last byte-encoded degree (pad empty); from degree
    257 on the encoding is the tuples themselves."""
    encode, times, ident = encoding(256)
    cyc = tuple(range(1, 256)) + (0,)
    assert encode is bytes and times(encode(cyc), encode(cyc)) == \
        encode(mul(cyc, cyc))
    assert order_sweep([encode(cyc)], times, ident)[encode(cyc)] == 256
    encode, times, ident = encoding(259)
    p = perm_from_cycles(259, [tuple(range(257)), (257, 258)])
    assert (encode, times, ident) == (tuple, mul, identity_perm(259))
    assert order_sweep([p], times, ident)[p] == 514
    assert encoding(259) is encoding(259)  # one frame per degree


def test_chain_rejects_non_permutations():
    chain = StabilizerChain(3)
    with pytest.raises(ValueError):
        chain.add((0, 0, 1))
    with pytest.raises(ValueError):
        chain.add((1, 0))
    with pytest.raises(ValueError):
        StabilizerChain(3, [(2, 2, 2)])
    chain.add((1, 2, 0))
    assert chain.order == 3


def test_strip_matches_inverting_each_transversal_element(rng):
    from gcompat.sampling import medium_group_pool

    def strip_by_definition(chain, p, start):
        for i in range(start, len(chain.base)):
            t = chain.orbits[i].get(p[chain.base[i]])
            if t is None:
                return p, i
            p = mul(p, inv(t))
        return p, len(chain.base)

    for g in medium_group_pool(60):
        chain = StabilizerChain(g.degree, g.generators)
        assert chain.order == g.order()
        for level, tr in enumerate(chain.orbits):
            assert chain.inverses[level] == {x: inv(t) for x, t in tr.items()}
        for _ in range(20):
            p = list(range(g.degree))
            rng.shuffle(p)
            for q in (tuple(p), rng.choice(g.sorted_elements())):
                start = rng.randrange(len(chain.base) + 1)
                assert chain._strip(q, start) == strip_by_definition(chain, q, start)


def test_chain_built_one_generator_at_a_time_matches_one_construction(rng):
    from gcompat.sampling import medium_group_pool

    for g in medium_group_pool(60):
        whole = StabilizerChain(g.degree, g.generators)
        grown = StabilizerChain(g.degree)
        for s in g.generators:
            grown.add(s)
        assert grown.order == whole.order == g.order()
        probes = [tuple(rng.sample(range(g.degree), g.degree))
                  for _ in range(20)]
        probes += [rng.choice(g.sorted_elements()) for _ in range(20)]
        for p in probes:
            assert grown.contains(p) == whole.contains(p) == g.contains(p)


def test_chain_orders_of_products_and_wreaths():
    # S4 x S4 x S4: a transposition and a 4-cycle on each block of four
    s4_cubed = [perm_from_cycles(12, [cyc])
                for b in range(0, 12, 4)
                for cyc in ((b, b + 1), (b, b + 1, b + 2, b + 3))]
    assert StabilizerChain(12, s4_cubed).order == 24 ** 3 == 13824
    # Z2 wr S4: a swap inside the first pair, S4 permuting the four pairs
    z2_wr_s4 = [perm_from_cycles(8, [(0, 1)]),
                perm_from_cycles(8, [(0, 2), (1, 3)]),
                perm_from_cycles(8, [(0, 2, 4, 6), (1, 3, 5, 7)])]
    chain = StabilizerChain(8, z2_wr_s4)
    assert chain.order == 2 ** 4 * 24 == 384
    assert not chain.contains(perm_from_cycles(8, [(1, 2)]))


@pytest.mark.parametrize("n", [6, 7])
def test_alternating_chain_rejects_exactly_the_odd_permutations(n, rng):
    from gcompat.groups import alternating

    g = alternating(n)
    chain = StabilizerChain(n, g.generators)
    assert chain.order == math.factorial(n) // 2
    for _ in range(200):
        p = tuple(rng.sample(range(n), n))
        even = sum(len(c) - 1 for c in cycles(p)) % 2 == 0
        assert chain.contains(p) == even


def test_chain_closes_once_per_construction(monkeypatch):
    calls = []
    close = StabilizerChain._close

    def counted(self, level):
        calls.append(level)
        return close(self, level)

    monkeypatch.setattr(StabilizerChain, "_close", counted)
    # each generator grows the group: Z2 < S4 < S8
    gens = [perm_from_cycles(8, [(0, 1)]), perm_from_cycles(8, [(0, 1, 2, 3)]),
            perm_from_cycles(8, [tuple(range(8))])]
    chain = StabilizerChain(8, gens)
    assert chain.order == math.factorial(8)
    assert len(calls) == 1
    chain.add(perm_from_cycles(8, [(2, 5)]))
    assert len(calls) == 2 and chain.order == math.factorial(8)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_place_block_acts_on_its_block_alone(data):
    k = data.draw(st.integers(1, 6), label="k")
    a = tuple(data.draw(st.permutations(range(k)), label="a"))
    b = tuple(data.draw(st.permutations(range(k)), label="b"))
    off = data.draw(st.integers(0, 8), label="off")
    d = data.draw(st.integers(off + k, off + k + 8), label="degree")
    placed = place_block(a, off, d)
    assert is_perm(placed, d)
    assert decode_block(placed, off, k) == a
    assert all(placed[x] == x for x in range(d) if not off <= x < off + k)
    assert mul(placed, place_block(b, off, d)) == place_block(mul(a, b), off, d)


def test_every_placement_is_place_block_at_its_offset():
    from gcompat.groups import cyclic, pair_embeddings, symmetric
    from gcompat.homs import Homomorphism
    from gcompat.inverse_limits import (
        LimitGroupBuilder,
        star_limit,
        star_system,
    )
    from gcompat.witness import placed_evidence
    from gcompat.wreath import WreathProduct, natural_action

    # a two-branch star limit: Z4 and S3 over Z2
    z2, z4, s3 = cyclic(2), cyclic(4), symmetric(3)
    (a,), (t,) = z2.generators, z4.generators
    to_root = [Homomorphism.from_gen_images(z4, z2, {t: a}),
               Homomorphism.from_gen_images(
                   s3, z2, {g: a if perm_order(g) == 2 else z2.identity
                            for g in s3.generators})]
    system = star_system(z2, [z4, s3], to_root)
    lim = star_limit(system)
    builder = LimitGroupBuilder(system)
    degree = lim.group.degree
    assert degree == builder.degree == 2 + 4 + 3
    for n in lim.node_order:
        off = lim.offsets[n]
        for x in system.groups[n].elements():
            placed = place_block(x, off, degree)
            asg = {m: system.groups[m].identity for m in lim.node_order}
            asg[n] = x
            assert lim.place(n, x) == builder.place(n, x) == placed \
                == lim.encode(asg)
    for b, pi in enumerate(to_root):
        p = lim.projection(b)
        kernel = pi.kernel()
        ev = placed_evidence(p, kernel, "star-projection")
        assert ev.complement_for(kernel.members()) == frozenset(
            place_block(k, p.offset, degree) for k in kernel.members())

    # Z2 wr S3: a base value at point w, the identity elsewhere and on top
    w = WreathProduct(z2, natural_action(s3))
    ident_f = [z2.identity] * w.npoints
    for v in range(w.npoints):
        for g in z2.elements():
            f = list(ident_f)
            f[v] = g
            assert w.place(v, g) == place_block(g, 2 * v, 9) \
                == w.encode(tuple(f), s3.identity)

    # the direct product's injections
    lift_g, lift_h = pair_embeddings(z4, s3)
    assert all(lift_g(x) == place_block(x, 0, 7) for x in z4.elements())
    assert all(lift_h(x) == place_block(x, 4, 7) for x in s3.elements())
