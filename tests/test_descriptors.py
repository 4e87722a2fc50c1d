import json

import pytest

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


def test_dumps_is_deterministic():
    g = named_group("S3")
    a = descriptors.dumps(descriptors.group_to_descriptor(g))
    b = descriptors.dumps(descriptors.group_to_descriptor(named_group("S3")))
    assert a == b


def test_dumps_matches_json_dumps_on_a_certificate():
    cert = witness_nilpotent(named_group("Z8"), named_group("Z4xZ2"))
    d = descriptors.certificate_to_descriptor(cert)
    assert descriptors.dumps(d) == json.dumps(d, sort_keys=True, indent=1)
