import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcompat import descriptors
from gcompat.catalog import named_group
from gcompat.groups import cyclic
from gcompat.homs import Homomorphism
from gcompat.inverse_limits import star_system
from gcompat.posets import star_poset
from gcompat.witness import verify_witness, witness_nilpotent


def test_group_round_trip():
    g = named_group("Z4xZ2")
    d = descriptors.group_to_descriptor(g)
    back = descriptors.group_from_descriptor(d)
    assert back.order() == 8
    assert back.elements() == g.elements()


def test_group_kind_descriptors():
    d = {"kind": "cyclic", "params": [6]}
    assert descriptors.group_from_descriptor(d).order() == 6
    d = {"kind": "direct_product",
         "params": [{"kind": "cyclic", "params": [2]},
                    {"kind": "symmetric", "params": [3]}]}
    assert descriptors.group_from_descriptor(d).order() == 12
    d = {"kind": "named", "params": ["F21"]}
    assert descriptors.group_from_descriptor(d).order() == 21
    with pytest.raises(ValueError):
        descriptors.group_from_descriptor({"kind": "nonsense"})


@pytest.mark.parametrize("d", [
    3, ["kind"], {"kind": ["cyclic"]}, {"kind": "cyclic", "params": ["a"]},
    {"kind": "cyclic", "params": [True]}, {"kind": "cyclic", "params": []},
    {"kind": "named", "params": 5}, {"kind": "named", "params": []},
    {"kind": "direct_product", "params": [{"kind": "cyclic", "params": [2]}]},
    {"kind": "elementary_abelian", "params": [2, 1.5]},
    {"degree": "3", "generators": [[1, 0, 2]]},
    {"degree": 3, "generators": [[1, 0, None]]},
    {"degree": 3, "generators": [1, 0, 2]}])
def test_malformed_group_descriptors_raise_value_error(d):
    # the CLI maps ValueError to exit 3
    with pytest.raises(ValueError):
        descriptors.group_from_descriptor(d)


def test_descriptor_order_check():
    g = cyclic(4)
    d = descriptors.group_to_descriptor(g)
    d["order"] = 5
    with pytest.raises(ValueError):
        descriptors.group_from_descriptor(d)


def test_hom_round_trip():
    z4, z2 = cyclic(4), cyclic(2)
    f = Homomorphism.from_gen_images(z4, z2,
                                     {z4.generators[0]: z2.generators[0]})
    d = descriptors.hom_to_descriptor(f)
    back = descriptors.hom_from_descriptor(d)
    assert all(back(x) == f(x) for x in z4.elements())


def test_poset_round_trip():
    p = star_poset(3)
    d = descriptors.poset_to_descriptor(p)
    back = descriptors.poset_from_descriptor(d)
    assert set(back.nodes) == set(p.nodes)
    assert back.leq == p.leq


def test_system_round_trip():
    z4, z2 = cyclic(4), cyclic(2)
    pi = Homomorphism.from_gen_images(z4, z2,
                                      {z4.generators[0]: z2.generators[0]})
    system = star_system(z2, [z4, z4], [pi, pi])
    d = descriptors.system_to_descriptor(system)
    # shared node groups are referenced by id, not duplicated
    assert len(d["group_defs"]) == 2
    text = descriptors.dumps(d)
    back = descriptors.system_from_descriptor(json.loads(text))
    from gcompat.inverse_limits import limit

    assert limit(back).group.order() == 8


def test_certificate_round_trip_and_reverify():
    l1, l2 = named_group("Z8"), named_group("Z4xZ2")
    cert = witness_nilpotent(l1, l2)
    d = descriptors.certificate_to_descriptor(cert)
    text = descriptors.dumps(d)
    back = descriptors.certificate_from_descriptor(json.loads(text), l1, l2)
    rep = verify_witness(back, l1, l2)
    assert rep.passed


def test_certificate_tamper_detected_after_round_trip():
    l1, l2 = named_group("Z8"), named_group("Z4xZ2")
    cert = witness_nilpotent(l1, l2)
    d = descriptors.certificate_to_descriptor(cert)
    d2 = json.loads(descriptors.dumps(d))
    tab = d2["kernel_iso"]["table"]
    tab[1][1], tab[2][1] = tab[2][1], tab[1][1]
    back = descriptors.certificate_from_descriptor(d2, l1, l2)
    assert not verify_witness(back, l1, l2).passed


@pytest.mark.parametrize("series,a,b", [
    ("auto-central", "D8", "Q8"), ("auto-squarefree", "Z6", "S3"),
    ("auto-central", "Z4", "Z2xZ2")])
def test_loaded_certificate_writes_the_same_bytes(series, a, b):
    from gcompat.witness import witness_square_free

    l1, l2 = named_group(a), named_group(b)
    build = witness_nilpotent if series == "auto-central" \
        else witness_square_free
    d = descriptors.certificate_to_descriptor(build(l1, l2))
    back = descriptors.certificate_from_descriptor(d, l1, l2)
    again = descriptors.certificate_to_descriptor(back)
    assert [ev["kind"] for ev in again["evidence"]] == [
        ev["kind"] for ev in d["evidence"]]
    assert descriptors.dumps(again) == descriptors.dumps(d)


def test_a_doubled_coset_in_a_table_is_not_total():
    """A p1 table extended by a consistent second coset, x*g -> p1(g) for
    an x outside G, has 2|G| keys: it is not total, and only that check and
    the quotient derived from it fail."""
    from itertools import permutations

    from gcompat.perms import mul

    l1, l2 = named_group("Z4"), named_group("Z2xZ2")
    d = descriptors.certificate_to_descriptor(witness_nilpotent(l1, l2))
    g = descriptors.group_from_descriptor(d["witness"])
    assert g.order() == 8
    x = next(p for p in permutations(range(g.degree)) if not g.contains(p))
    d["p1"]["table"] += [[mul(x, k), v] for k, v in d["p1"]["table"]]
    back = descriptors.certificate_from_descriptor(
        json.loads(descriptors.dumps(d)), l1, l2)
    rep = verify_witness(back, l1, l2)
    assert [(c.name, c.detail) for c in rep.checks if not c.passed] == [
        ("p1-homomorphism", "p_0: table not total"),
        ("quotient-1-isomorphic", "failed: p1-homomorphism; absent: "
         "p1-surjective, ker-p1-matches")]


def test_dumps_is_deterministic():
    g = named_group("S3")
    a = descriptors.dumps(descriptors.group_to_descriptor(g))
    b = descriptors.dumps(descriptors.group_to_descriptor(named_group("S3")))
    assert a == b


def test_dumps_matches_json_dumps_on_a_certificate():
    cert = witness_nilpotent(named_group("Z8"), named_group("Z4xZ2"))
    d = descriptors.certificate_to_descriptor(cert)
    assert descriptors.dumps(d) == json.dumps(d, sort_keys=True, indent=1)


def _json(obj):
    return json.dumps(obj, sort_keys=True, indent=1)


_ints = st.integers(min_value=-2**70, max_value=2**70)
_int_tuples = st.lists(_ints, min_size=1, max_size=6).map(tuple)
# one int tuple at several depths, where the writer's memo must not mix
# up the indent of one depth with another's
_shared = _int_tuples.map(lambda t: [t, [t, (t,)], {"t": [t]}])
_leaves = (st.none() | st.booleans() | _ints | st.text(max_size=8)
           | _int_tuples | _shared
           | st.lists(_ints | st.booleans(), max_size=4).map(tuple))
_trees = st.recursive(
    _leaves,
    lambda kids: (st.lists(kids, max_size=4)
                  | st.lists(kids, max_size=4).map(tuple)
                  | st.dictionaries(st.text(max_size=6), kids, max_size=4)),
    max_leaves=30)


@settings(max_examples=200, deadline=None)
@given(_trees)
def test_dumps_writes_the_bytes_of_json_dumps(obj):
    assert descriptors.dumps(obj) == _json(obj)


def test_dumps_keys_the_tuple_memo_on_depth():
    t = (3, 1, 2)
    obj = {"a": t, "b": [t, [t]], "c": [[[t]]], "d": t}
    assert descriptors.dumps(obj) == _json(obj)


@pytest.mark.parametrize("obj", [
    [(1, 1), (1, True)],
    [(1, True), (1, 1)],
    [[0, False], (0, 0), (False,), (0,)],
])
def test_dumps_writes_bools_as_json_bools(obj):
    # (1, True) == (1, 1) with the same hash: a bool must not take the
    # int path, nor reuse the text of an equal int tuple
    assert descriptors.dumps(obj) == _json(obj)


@pytest.mark.parametrize("obj", [
    {1, 2}, 1.5, [1, 2.0], {"a": (1, {2})}, {1: "a"}, frozenset(),
])
def test_dumps_refuses_non_descriptor_types(obj):
    with pytest.raises(TypeError):
        descriptors.dumps(obj)


def _hybrid_carrier():
    from gcompat.catalog import frobenius21, surjection_onto_subgroup
    from gcompat.groups import Subgroup, symmetric
    from gcompat.hybrid import hybrid_wreath
    from gcompat.perms import perm_order

    g, h = frobenius21(), symmetric(3)
    a3 = Subgroup(h, members=[e for e in h.elements()
                              if perm_order(e) in (1, 3)])
    hw = hybrid_wreath(g, h, surjection_onto_subgroup(g, h, a3))
    return descriptors.group_to_descriptor(hw.group)


def _z4_to_z2():
    z4, z2 = cyclic(4), cyclic(2)
    return Homomorphism.from_gen_images(z4, z2,
                                        {z4.generators[0]: z2.generators[0]})


def _z4_system():
    pi = _z4_to_z2()
    system = star_system(pi.target, [pi.source, pi.source], [pi, pi])
    return descriptors.system_to_descriptor(system)


def _z6_s3_certificate_with_report():
    from gcompat.witness import witness_square_free

    l1, l2 = named_group("Z6"), named_group("S3")
    cert = witness_square_free(l1, l2)
    report = verify_witness(cert, l1, l2)
    return descriptors.certificate_to_descriptor(cert, report=report)


@pytest.mark.parametrize("produce", [
    lambda: descriptors.group_to_descriptor(named_group("D8")),
    lambda: descriptors.hom_to_descriptor(_z4_to_z2()),
    lambda: descriptors.hom_to_descriptor(_z4_to_z2(), with_table=True),
    _z4_system,
    _hybrid_carrier,
    _z6_s3_certificate_with_report,
], ids=["group", "hom", "hom-table", "system", "hybrid", "certificate"])
def test_dumps_matches_json_dumps_on_each_producer(produce):
    d = produce()
    assert descriptors.dumps(d) == _json(d)


def test_descriptors_hold_the_maps_own_permutations():
    # tables and generator images are the maps' tuples, not copies; json
    # writes them as it writes the lists they load back as
    l1, l2 = named_group("Z4"), named_group("Z2xZ2")
    cert = witness_nilpotent(l1, l2)
    report = verify_witness(cert, l1, l2)
    d = descriptors.certificate_to_descriptor(cert, report=report)
    text = descriptors.dumps(d)
    assert text == descriptors.dumps(json.loads(text))
    f = cert.p1
    table = f.tabulated()
    hd = descriptors.hom_to_descriptor(f, with_table=True)
    assert all(table[x] is y for x, y in hd["table"])
    back = descriptors.hom_from_descriptor(
        json.loads(descriptors.dumps(hd)))
    assert back.tabulated() == table


# sha256 of the canonical JSON of each certificate: a change in any
# generator choice, kernel or table shows here as a changed digest, which a
# speed-up must never cause. All ten pairs of the order-8 groups Z8, Z4xZ2,
# E(2,3), D8 and Q8 are pinned, so every recursion step they build is.
GOLDEN = [
    ("auto-central", "Z4", "Z2xZ2",
     "ec4ff14192ac59b51511cfb64334a48b17fc60f430ca588dd40b16ffd532b5bf"),
    ("auto-central", "Z8", "Z4xZ2",
     "dffb57d38a8e469172e55b5ee8d88bfa94a826e144c3177cf2f41cb84953820f"),
    ("auto-central", "Z8", "E(2,3)",
     "e8a061787c08305a38db1c08b79de59eb7f9b6a6a860bbefefe269a269c1f814"),
    ("auto-central", "Z8", "D8",
     "84f0af85989a2b4c8a954c1945a9d5333544149907339a4a4214cef582f229ca"),
    ("auto-central", "Z8", "Q8",
     "8990142066a3ec88cb667f5c15bff971624fd9c8b55b04011d0701b0a1aa4032"),
    ("auto-central", "Z4xZ2", "E(2,3)",
     "58bf288fab547186c55e9c5c60c5302ccd9d426e9e394b7af06fabb16299553b"),
    ("auto-central", "Z4xZ2", "D8",
     "42f6ec27f58ba788550c5b30a66edeeec4b46f2f3474c6649111eeea2ab8b843"),
    ("auto-central", "Z4xZ2", "Q8",
     "41da39861010948bd99362239f8e9eb8331cf265fd2624d6fe18988992d7f757"),
    ("auto-central", "E(2,3)", "D8",
     "5673b235969a254dc8b08e91e6dfcf8483d44d750f038e363025440c18737a17"),
    ("auto-central", "E(2,3)", "Q8",
     "da9afb7e81d1421888148f9ef8b12422423df94fcd9a13cd2848138b4ab8442c"),
    ("auto-central", "D8", "Q8",
     "d3f10c39b9ba4b772a8312b27c6d2a90f6471d2757aaf4643ec2e6658010fdc1"),
    ("auto-squarefree", "Z6", "S3",
     "707ac46baf3fa7a56661d71e54521f51649f12f77b6adfc1db4e8e59d7fbbd47"),
    ("auto-squarefree", "Z10", "D10",
     "58d4b057bb4aac44dfef63d307e98d4caca40452cd3fe7d72d8c5b2a88b66eff"),
    pytest.param(
        "stretch", "Z30", "Z5xS3",
        "f57c68209386e8d5c35d6162275fa927b5904344fc7a9532b08fed8e64f9b7ab",
        marks=pytest.mark.stretch),
]


@pytest.mark.parametrize("series,a,b,digest", GOLDEN)
def test_certificate_digest_is_pinned(series, a, b, digest):
    import hashlib

    from gcompat.witness import witness_square_free

    l1, l2 = named_group(a), named_group(b)
    if series == "auto-central":
        cert = witness_nilpotent(l1, l2)
    else:  # "stretch" marks a square-free witness past the enumeration bound
        cert = witness_square_free(l1, l2)
    text = descriptors.dumps(descriptors.certificate_to_descriptor(cert))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_cli_certificate_is_independent_of_the_hash_seed(tmp_path):
    """Byte strings hash by PYTHONHASHSEED, tuples of ints do not: a build
    run under two seeds writes the same file, and without the verification
    results the CLI adds to its manifest it is the pinned certificate."""
    import hashlib
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    digest = next(d for series, a, b, d in GOLDEN
                  if (series, a, b) == ("auto-squarefree", "Z6", "S3"))
    texts = []
    for seed in ("0", "1"):
        out = tmp_path / f"z6-s3-{seed}.json"
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        subprocess.run(
            [sys.executable, "-m", "gcompat.cli", "witness", "build",
             "--L1", "Z6", "--L2", "S3", "--series", "auto-squarefree",
             "--out", str(out)], env=env, check=True, capture_output=True)
        texts.append(out.read_bytes())
    assert texts[0] == texts[1]
    data = json.loads(texts[0])
    verified = [c for c in data["check_manifest"]
                if c[0].startswith("verify:")]
    assert verified and all(passed for _, passed, _ in verified)
    data["check_manifest"] = [c for c in data["check_manifest"]
                              if c not in verified]
    text = descriptors.dumps(data)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# the stretch certificates with their verification reports: every check
# verdict and detail of verify_witness is in the digest, so a change to the
# maps the checks evaluate shows here even when the certificate does not
GOLDEN_REPORTS = [
    ("Z30", "Z5xS3",
     "d22ba95932c5012df1686d0aa27a1512fe017433cd13d25b9ffbbe42b6e81289"),
    ("F21xZ2", "Z7xS3",
     "a92ad2e4a04cf65cf3fdb18b86a4d01b4db0800a574fbfad9da6091f68f7b65d"),
]


@pytest.mark.stretch
@pytest.mark.parametrize("a,b,digest", GOLDEN_REPORTS)
def test_stretch_report_digest_is_pinned(a, b, digest):
    import hashlib

    from gcompat.bounds import Bounds
    from gcompat.witness import witness_square_free

    bounds = Bounds()
    l1, l2 = named_group(a), named_group(b)
    cert = witness_square_free(l1, l2, bounds)
    report = verify_witness(cert, l1, l2, bounds)
    assert report.passed
    text = descriptors.dumps(
        descriptors.certificate_to_descriptor(cert, bounds, report))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
