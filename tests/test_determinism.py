import json

from gcompat import descriptors
from gcompat.catalog import named_group, quaternion
from gcompat.cli import run
from gcompat.groups import Subgroup
from gcompat.inverse_limits import limit, limit_of_morphism, projection_system
from gcompat.perms import closure
from gcompat.sampling import random_in_forest_poset, random_surjective_system
from gcompat.sequences import series_to_sequence
from gcompat.witness import (
    build_witness_length2,
    comp_membership,
    witness_nilpotent,
)


def _z4_v4_cert():
    z4 = named_group("Z4")
    v4 = named_group("Z2xZ2")
    two = Subgroup(z4, members=closure([z4.power(z4.generators[0], 2)]))
    s1 = series_to_sequence(z4, [z4.trivial_subgroup(), two,
                                 z4.full_subgroup()])
    half = Subgroup(v4, members=closure([v4.generators[0]]))
    s2 = series_to_sequence(v4, [v4.trivial_subgroup(), half,
                                 v4.full_subgroup()])
    return build_witness_length2(s1, s2, comp_membership(s1, s2))


def test_identical_builds_serialize_identically():
    a = descriptors.dumps(descriptors.certificate_to_descriptor(_z4_v4_cert()))
    b = descriptors.dumps(descriptors.certificate_to_descriptor(_z4_v4_cert()))
    assert a == b


def test_recursive_build_is_deterministic():
    one = witness_nilpotent(named_group("D8"), quaternion())
    two = witness_nilpotent(named_group("D8"), quaternion())
    assert one.witness.elements() == two.witness.elements()
    assert one.kernel_iso.tabulated() == two.kernel_iso.tabulated()


def test_certificate_targets_are_the_callers_groups():
    d8, q8 = named_group("D8"), quaternion()
    cert = witness_nilpotent(d8, q8)
    assert cert.p1.target is d8
    assert cert.p2.target is q8


def test_cli_series_file_path(tmp_path, capsys):
    z4 = named_group("Z4")
    two = Subgroup(z4, members=closure([z4.power(z4.generators[0], 2)]))
    v4 = named_group("Z2xZ2")
    half = Subgroup(v4, members=closure([v4.generators[0]]))
    series = {
        "chain1": [[list(g) for g in two.group.generators]],
        "chain2": [[list(g) for g in half.group.generators]],
    }
    path = tmp_path / "series.json"
    path.write_text(json.dumps(series))
    assert run(["witness", "build", "--L1", "Z4", "--L2", "Z2xZ2",
                "--series", str(path)]) == 0
    out = capsys.readouterr().out
    assert "witness order: 8" in out


def test_projection_identification_on_random_forests(rng):
    # the limit of the comparison morphism is the node projection
    for _ in range(20):
        poset = random_in_forest_poset(rng, 4)
        system = random_surjective_system(rng, poset)
        ls = limit(system)
        for i0 in poset.nodes:
            target, phi = projection_system(system, i0)
            hom, _, lt = limit_of_morphism(phi, source_limit=ls)
            p = ls.projection(i0)
            for w in ls.group.elements():
                assert lt.decode(hom(w), i0) == p(w)
