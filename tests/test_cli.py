import json

import pytest

from gcompat import descriptors
from gcompat.cli import run
from gcompat.homs import Homomorphism
from gcompat.groups import cyclic
from gcompat.inverse_limits import star_system


def test_group_command(capsys):
    assert run(["group", "Z6"]) == 0
    out = capsys.readouterr().out
    assert "order 6" in out


def test_group_command_reads_bound_enum(capsys):
    # A8 (order 20160) is past the default enumeration bound, within 20160
    assert run(["group", "A8"]) == 0
    assert "exponent" not in capsys.readouterr().out
    assert run(["--bound-enum", "20160", "group", "A8"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2:] == ["exponent: 420", "nilpotent: False",
                         "center order: 1"]


def test_group_file_argument_reads_the_descriptor(tmp_path, capsys):
    # `@file.json` names a file holding what the inline form spells out
    spec = '{"degree": 3, "generators": [[1, 2, 0], [1, 0, 2]]}'
    assert run(["group", spec]) == 0
    inline = capsys.readouterr().out
    path = tmp_path / "s3.json"
    path.write_text(spec)
    assert run(["group", f"@{path}"]) == 0
    assert capsys.readouterr().out == inline
    assert "order 6, degree 3" in inline


def test_group_bad_spec_exits_3(capsys):
    assert run(["group", "Zx--"]) == 3


def test_missing_subcommand_exits_3():
    assert run(["frobnicate"]) == 3


def test_hybrid_command_reproduces_headline(capsys):
    assert run(["hybrid", "--G", "F21", "--H", "S3", "--theta-image", "Z3"]) == 0
    out = capsys.readouterr().out
    assert "order 294" in out
    assert "ker(p_theta): order 49" in out
    assert "BW: order 147" in out


def test_hybrid_carrier_descriptor_digest_is_pinned(tmp_path):
    # the carrier's generators and order, as `hybrid --out` writes them
    import hashlib

    out = tmp_path / "hw.json"
    assert run(["hybrid", "--G", "F21", "--H", "S3", "--theta-image", "Z3",
                "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "1afebe2ace0954ff47f21aa08a09e69298e323c78b563bc77b102daafa437e88")


def test_witness_build_verify_cycle(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    assert run(["witness", "build", "--L1", "Z4", "--L2", "Z2xZ2",
                "--series", "auto-central", "--out", str(cert)]) == 0
    assert cert.exists()
    assert run(["witness", "verify", "--cert", str(cert),
                "--L1", "Z4", "--L2", "Z2xZ2"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out


@pytest.mark.parametrize("name, series, order, kernels", [
    ("Z1", "auto-central", 1, "1, 1"),
    ("Z2", "auto-central", 4, "2, 2"),
    ("Z3", "auto-squarefree", 9, "3, 3"),
    ("Z5", "auto-central", 25, "5, 5")])
def test_prime_order_pairs_round_trip(name, series, order, kernels, tmp_path,
                                      capsys):
    # a prime-order group's series has one factor and the trivial group's
    # none: `sequences_from_series` pads both sequences to length 2
    # (`pad_to_length`)
    cert = tmp_path / "cert.json"
    assert run(["witness", "build", "--L1", name, "--L2", name,
                "--series", series, "--out", str(cert)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"witness order: {order}", f"kernel orders: {kernels}",
        "mode: enumerated", f"wrote {cert} (all checks passed)"]
    assert run(["witness", "verify", "--cert", str(cert),
                "--L1", name, "--L2", name]) == 0
    assert capsys.readouterr().out.splitlines()[-1] \
        == "verdict: all checks passed"


def test_witness_build_writes_a_certificate_that_fails_its_checks(
        tmp_path, monkeypatch, capsys):
    # the build's own verification decides the exit code; the file is
    # written either way, with the failing check in its report
    import gcompat.cli
    from gcompat.witness import CheckResult, VerificationReport

    monkeypatch.setattr(gcompat.cli, "verify_witness", lambda *a: (
        VerificationReport([CheckResult("forced", False)])))
    cert = tmp_path / "cert.json"
    assert run(["witness", "build", "--L1", "Z4", "--L2", "Z2xZ2",
                "--out", str(cert)]) == 1
    assert capsys.readouterr().out.splitlines()[-1] \
        == f"wrote {cert} (CHECKS FAILED)"
    manifest = json.loads(cert.read_text())["check_manifest"]
    assert ["verify:forced", False, ""] in manifest


def test_witness_verify_tampered_exits_1(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    run(["witness", "build", "--L1", "Z4", "--L2", "Z2xZ2",
         "--series", "auto-central", "--out", str(cert)])
    data = json.loads(cert.read_text())
    tab = data["kernel_iso"]["table"]
    tab[0][1], tab[1][1] = tab[1][1], tab[0][1]
    cert.write_text(json.dumps(data))
    assert run(["witness", "verify", "--cert", str(cert),
                "--L1", "Z4", "--L2", "Z2xZ2"]) == 1


def test_witness_verify_tampered_p1_table_fails_its_check(tmp_path, capsys):
    # the loader takes the p1 table as given; the verifier's edge check is
    # its only proof, so the report is printed with that check failed
    cert = tmp_path / "cert.json"
    run(["witness", "build", "--L1", "Z4", "--L2", "Z2xZ2", "--out",
         str(cert)])
    data = json.loads(cert.read_text())
    tab = data["p1"]["table"]  # sorted: tab[0] is the identity's entry
    i = next(i for i, (_, y) in enumerate(tab) if y != tab[1][1])
    tab[1][1], tab[i][1] = tab[i][1], tab[1][1]
    cert.write_text(json.dumps(data))
    capsys.readouterr()
    assert run(["witness", "verify", "--cert", str(cert),
                "--L1", "Z4", "--L2", "Z2xZ2"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "[FAIL] p1-homomorphism  (p_0: not a homomorphism)" in lines
    assert lines[-1] == "verdict: FAILED"


def test_witness_verify_complement_outside_the_witness_fails(tmp_path,
                                                          capsys):
    # a complement element that is no element of the witness fails the
    # extendability check instead of reaching the map's table
    cert = tmp_path / "cert.json"
    run(["witness", "build", "--L1", "Z4", "--L2", "Z2xZ2", "--out",
         str(cert)])
    data = json.loads(cert.read_text())
    assert data["witness"]["degree"] == 10
    complement = data["evidence"][0]["complements"][-1][1]
    complement[-1] = [1, 0, 2, 3, 4, 5, 6, 7, 8, 9]
    cert.write_text(json.dumps(data))
    capsys.readouterr()
    assert run(["witness", "verify", "--cert", str(cert),
                "--L1", "Z4", "--L2", "Z2xZ2"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] good-at-1-extendable  (complement leaves the witness)" \
        in out.splitlines()


def test_witness_verify_reads_the_evidence_subgroup(tmp_path, capsys):
    # the loader reads evidence[0].n itself: Z4 in place of the designated
    # order-2 subgroup fails the designation check, and Z4's subgroups
    # outrun the recorded complements
    cert = tmp_path / "cert.json"
    run(["witness", "build", "--L1", "Z4", "--L2", "Z2xZ2", "--out",
         str(cert)])
    data = json.loads(cert.read_text())
    data["evidence"][0]["n"]["generators"] = [[1, 2, 3, 0]]
    cert.write_text(json.dumps(data))
    capsys.readouterr()
    assert run(["witness", "verify", "--cert", str(cert),
                "--L1", "Z4", "--L2", "Z2xZ2"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("[FAIL]")] == [
        "[FAIL] good-at-1-designated  (N_1 order 2)",
        "[FAIL] good-at-1-extendable  (missing complement: no complement "
        "recorded for this subgroup)"]
    assert lines[-1] == "verdict: FAILED"


def test_witness_verify_kernel_generator_outside_the_witness_fails(
        tmp_path, capsys):
    # containment in the witness is tested before the map is evaluated on
    # the kernel generator, so the check fails (exit 1) instead of the
    # map's table refusing the element as malformed input (exit 3)
    cert = tmp_path / "cert.json"
    run(["witness", "build", "--L1", "Z4", "--L2", "Z2xZ2", "--out",
         str(cert)])
    data = json.loads(cert.read_text())
    assert data["format"] == "witness-certificate-v1"
    swap = [1, 0, 2, 3, 4, 5, 6, 7, 8, 9]
    witness = descriptors.group_from_descriptor(data["witness"])
    assert not witness.contains(tuple(swap))
    data["kernel1"]["generators"] = [swap]
    cert.write_text(json.dumps(data))
    capsys.readouterr()
    assert run(["witness", "verify", "--cert", str(cert),
                "--L1", "Z4", "--L2", "Z2xZ2"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "[FAIL] ker-p1-matches  (a generator is not in G)" in lines
    # the kernel map's table misses the new generator: its homomorphism
    # check fails, its keys are not ker1's elements, and the checks on the
    # table stay in the report
    checks = [line for line in lines if line.startswith("[")]
    assert len(checks) == 18
    assert "[FAIL] kernel-iso-homomorphism  (kernel-iso: table not total)" \
        in checks
    assert "[FAIL] kernel-iso-bijective  (table not keyed by ker1)" in checks
    assert "[PASS] kernel-iso-lands-in-ker2" in checks


def test_witness_verify_kernel2_generator_outside_the_witness_fails(
        tmp_path, capsys):
    # the ker-p1-matches control above, on side 2: ker-p2-matches fails,
    # and with it the quotient check derived from it and the kernel map's
    # values, which no longer lie in ker2
    cert = tmp_path / "cert.json"
    run(["witness", "build", "--L1", "Z4", "--L2", "Z2xZ2", "--out",
         str(cert)])
    data = json.loads(cert.read_text())
    swap = [1, 0, 2, 3, 4, 5, 6, 7, 8, 9]
    witness = descriptors.group_from_descriptor(data["witness"])
    assert not witness.contains(tuple(swap))
    data["kernel2"]["generators"] = [swap]
    cert.write_text(json.dumps(data))
    capsys.readouterr()
    assert run(["witness", "verify", "--cert", str(cert),
                "--L1", "Z4", "--L2", "Z2xZ2"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len([line for line in lines if line.startswith("[")]) == 18
    assert [line for line in lines if line.startswith("[FAIL]")] == [
        "[FAIL] ker-p2-matches  (a generator is not in G)",
        "[FAIL] quotient-2-isomorphic  (failed: ker-p2-matches)",
        "[FAIL] kernel-iso-lands-in-ker2"]
    assert lines[-1] == "verdict: FAILED"


def test_one_parser_serves_every_call_in_a_process(tmp_path, monkeypatch,
                                                   capsys):
    # two commands, a malformed call and a valid one again, in this
    # process: each exit status, stdout, stderr and written file equals
    # what a fresh process gives for the same call
    import os
    import subprocess
    import sys
    from pathlib import Path

    import gcompat.cli as cli

    calls = [["witness", "build", "--L1", "Z4", "--L2", "Z2xZ2",
              "--out", "cert.json"],
             ["group", "S3"],
             ["witness", "verify", "--L1", "Z4"],
             ["witness", "verify", "--cert", "cert.json", "--L1", "Z4",
              "--L2", "Z2xZ2"]]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    fresh_dir, kept_dir = tmp_path / "fresh", tmp_path / "kept"
    fresh_dir.mkdir()
    kept_dir.mkdir()
    fresh = [subprocess.run([sys.executable, "-m", "gcompat.cli", *argv],
                            cwd=fresh_dir, env=env, capture_output=True,
                            text=True)
             for argv in calls]
    assert [r.returncode for r in fresh] == [0, 0, 3, 0]
    monkeypatch.chdir(kept_dir)
    capsys.readouterr()
    parsers = set()
    for argv, r in zip(calls, fresh):
        assert run(argv) == r.returncode
        assert capsys.readouterr() == (r.stdout, r.stderr)
        parsers.add(id(cli._PARSER))
    assert len(parsers) == 1
    assert (kept_dir / "cert.json").read_bytes() == \
        (fresh_dir / "cert.json").read_bytes()


def test_mode_flag_is_gone(capsys):
    assert run(["--mode", "stretch", "group", "Z2"]) == 3


def test_with_mode_is_a_no_op():
    from gcompat.bounds import Bounds

    assert Bounds().with_mode("stretch") == Bounds()
    assert Bounds(enum=7).with_mode("enumerated") == Bounds(enum=7)
    with pytest.raises(ValueError):
        Bounds().with_mode("fast")


def test_witness_build_hypothesis_refuted_exit_1(capsys):
    # non-square-free input to the square-free path
    assert run(["witness", "build", "--L1", "Z4", "--L2", "Z4",
                "--series", "auto-squarefree"]) == 1


def test_witness_build_refuses_a_series_term_outside_the_group(tmp_path,
                                                              capsys):
    # chain1 ends in the Klein group <(1,0,3,2), (2,3,0,1)>, of Z4's order
    # but not inside Z4
    series = tmp_path / "series.json"
    series.write_text(json.dumps({
        "chain1": [[[2, 3, 0, 1]], [[1, 0, 3, 2], [2, 3, 0, 1]]],
        "chain2": [[[1, 0, 2, 3]]]}))
    cert = tmp_path / "cert.json"
    assert run(["witness", "build", "--L1", "Z4", "--L2", "Z2xZ2",
                "--series", str(series), "--out", str(cert)]) == 1
    assert "series term 2 is not inside Z4" in capsys.readouterr().err
    assert not cert.exists()


def test_witness_build_undecided_exit_2(capsys):
    # the length-4 recursion's hybrid wreath product is past the bound
    assert run(["witness", "build", "--L1", "Z16", "--L2", "E(2,4)"]) == 2
    assert "exceeds bound 20000" in capsys.readouterr().err


@pytest.mark.parametrize("l1, l2, chains, message", [
    ("S3", "Z6", None, "S3 is not nilpotent"),
    ("D8", "S3xZ2", None, "groups have different orders"),
    ("Z2", "Z3", {"chain1": [[[1, 0]]], "chain2": [[[1, 2, 0]]]},
     "groups have different orders")],
    ids=["S3-Z6-S3 is not nilpotent", "D8-S3xZ2-groups have different orders",
         "Z2-Z3-series file-groups have different orders"])
def test_witness_build_and_comp_check_refuse_alike(l1, l2, chains, message,
                                                   tmp_path, capsys):
    # one route from a series name or file to sequences: the same refusal
    series = []
    if chains is not None:
        path = tmp_path / "series.json"
        path.write_text(json.dumps(chains))
        series = ["--series", str(path)]
    for command in (["witness", "build"], ["comp", "check"]):
        assert run(command + ["--L1", l1, "--L2", l2] + series) == 1
        assert capsys.readouterr().err == f"hypothesis refuted: {message}\n"


def test_comp_check_pads_a_prime_order_pair_as_the_build_does(capsys):
    assert run(["comp", "check", "--L1", "Z2", "--L2", "Z2"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "member of Comp_2", "kernel orders: (1, 2)"]


def test_series_central_refuses_a_non_nilpotent_group(capsys):
    assert run(["series", "central", "--L", "S3"]) == 1
    assert capsys.readouterr().err \
        == "hypothesis refuted: S3 is not nilpotent\n"


def test_comp_check_length2_member(capsys):
    assert run(["comp", "check", "--L1", "Z6", "--L2", "S3",
                "--series", "auto-squarefree"]) == 0
    out = capsys.readouterr().out
    assert "member of Comp_2" in out


def test_comp_check_auto_central_member(capsys):
    assert run(["comp", "check", "--L1", "D8", "--L2", "Q8"]) == 0
    assert "member of Comp_3" in capsys.readouterr().out


def test_series_central_command(capsys):
    assert run(["series", "central", "--L", "D8"]) == 0
    out = capsys.readouterr().out
    assert "1 <= 2 <= 4 <= 8" in out


def test_limit_command(tmp_path, monkeypatch, capsys):
    z4, z2 = cyclic(4), cyclic(2)
    pi = Homomorphism.from_gen_images(z4, z2,
                                      {z4.generators[0]: z2.generators[0]})
    system = star_system(z2, [z4, z4], [pi, pi])
    path = tmp_path / "system.json"
    path.write_text(descriptors.dumps(descriptors.system_to_descriptor(system)))
    images = []
    real = Homomorphism.image
    monkeypatch.setattr(Homomorphism, "image",
                        lambda self: images.append(1) or real(self))
    assert run(["limit", "--system", str(path)]) == 0
    out = capsys.readouterr().out
    assert "limit order: 8" in out
    assert "projection to 0: image order 4 (surjective: True)" in out
    # one image per projection, read for its order and surjectivity
    assert len(images) == 3


def test_limit_malformed_file_exits_3(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert run(["limit", "--system", str(path)]) == 3


# the Z4 star over Z2 with the image of Z4's generator given as [5, 0]
_BAD_IMAGE = ('{"poset": {"nodes": ["r", 0], "leq": [["r", 0]]}, '
              '"groups": [["r", {"kind": "cyclic", "params": [2]}], '
              '[0, {"kind": "cyclic", "params": [4]}]], '
              '"transitions": [["r", 0, [[[1, 2, 3, 0], [5, 0]]]]]}')


@pytest.mark.parametrize("text, message", [
    ('{"poset": 3}', "poset: expected a JSON object"),
    ("[1, 2]", "system: expected a JSON object"),
    (_BAD_IMAGE, "transition gen_images: expected permutations of degree 2")],
    ids=["poset-number", "array", "image-out-of-range"])
def test_limit_system_file_of_the_wrong_shape_exits_3(text, message, tmp_path,
                                                      capsys):
    path = tmp_path / "system.json"
    path.write_text(text)
    assert run(["limit", "--system", str(path)]) == 3
    assert capsys.readouterr().err == f"malformed input: {message}\n"


def test_certificate_type_mutants_exit_0_to_3(tmp_path, capsys):
    """Each of 200 seeded mutants of the Z4|Z2xZ2 certificate replaces one
    JSON value, anywhere in the tree, by a value of another JSON type; each
    is verified in-process, and none may raise out of `run`."""
    import random

    cert = tmp_path / "cert.json"
    assert run(["witness", "build", "--L1", "Z4", "--L2", "Z2xZ2", "--out",
                str(cert)]) == 0
    data = json.loads(cert.read_text())

    def sites(node, path=()):
        yield path
        items = node.items() if isinstance(node, dict) else \
            enumerate(node) if isinstance(node, list) else ()
        for key, child in items:
            yield from sites(child, path + (key,))

    def at(doc, path):
        for key in path:
            doc = doc[key]
        return doc

    paths = list(sites(data))
    assert len(paths) > 150
    rng, bad = random.Random(7), tmp_path / "mutant.json"
    codes = set()
    for _ in range(200):
        path = rng.choice(paths)
        old = at(data, path)
        new = rng.choice([v for v in ("x", 7, None, True, [], {})
                          if type(v) is not type(old)])
        doc = json.loads(cert.read_text())
        if path:
            at(doc, path[:-1])[path[-1]] = new
        else:
            doc = new
        bad.write_text(json.dumps(doc))
        code = run(["witness", "verify", "--cert", str(bad),
                    "--L1", "Z4", "--L2", "Z2xZ2"])
        assert code in (0, 1, 2, 3), (path, new)
        codes.add(code)
    assert {0, 3} <= codes
    data["provenance"] = "x"
    bad.write_text(json.dumps(data))
    capsys.readouterr()
    assert run(["witness", "verify", "--cert", str(bad),
                "--L1", "Z4", "--L2", "Z2xZ2"]) == 3
    assert capsys.readouterr().err == \
        "malformed input: provenance: expected a JSON object\n"


def test_group_descriptor_with_a_string_point_exits_3(tmp_path, monkeypatch,
                                                      capsys):
    monkeypatch.chdir(tmp_path)
    assert run(["group", '{"degree": 3, "generators": [["a",1,2]]}',
                "--out", "group.json"]) == 3
    assert capsys.readouterr().err.startswith("malformed input: generators:")
    assert list(tmp_path.iterdir()) == []


def test_series_file_with_a_number_for_a_chain_exits_3(tmp_path, monkeypatch,
                                                      capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "series.json").write_text('{"chain1": 3, "chain2": []}')
    assert run(["witness", "build", "--L1", "Z4", "--L2", "Z2xZ2",
                "--series", "series.json", "--out", "cert.json"]) == 3
    assert capsys.readouterr().err.startswith("malformed input: chain1:")
    assert [p.name for p in tmp_path.iterdir()] == ["series.json"]


def test_wreath_command(capsys):
    assert run(["wreath", "--base", "Z2", "--top", "Z2"]) == 0
    out = capsys.readouterr().out
    assert "order 8" in out


def test_examples_fast_subset(capsys):
    assert run(["examples", "--names", "z6s3"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] z6s3" in out


def test_examples_battery_passes_at_the_default_seed(capsys):
    assert run(["examples"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 7
    assert all(line.startswith("[PASS] ") for line in lines)


def test_an_example_stopped_by_a_bound_is_undecided(capsys):
    # seed 7's random quotient system has a limit of order 23040, past the
    # enumeration bound: undecided (exit 2), not refuted (exit 1)
    assert run(["--seed", "7", "examples", "--names", "limits"]) == 2
    assert capsys.readouterr().out == (
        "[UNDECIDED] limits  (limit enumeration exceeded bound 20000)\n")


@pytest.mark.parametrize("flag,value,argv", [
    ("--bound-enum", "-5", ["witness", "build", "--L1", "Z4", "--L2", "Z2xZ2"]),
    ("--bound-enum", "0", ["group", "Z2"]),
    ("--bound-iso", "-1", ["comp", "check", "--L1", "D8", "--L2", "Q8"]),
    ("--bound-aut", "0", ["comp", "check", "--L1", "D8", "--L2", "Q8"]),
    ("--bound-iso", "two", ["group", "Z2"])])
def test_a_bound_below_1_is_malformed_input(flag, value, argv, capsys):
    assert run([flag, value, *argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        f"error: argument {flag}: a bound must be an integer of at least 1, "
        f"not {value!r}")


def test_a_certificate_of_another_pair_is_refuted(tmp_path, capsys):
    # the Z6|S3 file checked as one for S3|Z6: its good_at[0] generator
    # moves 6 points, and S3 has 3, so the file does not certify this pair
    cert = tmp_path / "z6-s3.json"
    assert run(["witness", "build", "--L1", "Z6", "--L2", "S3", "--series",
                "auto-squarefree", "--out", str(cert)]) == 0
    capsys.readouterr()
    assert run(["witness", "verify", "--cert", str(cert),
                "--L1", "S3", "--L2", "Z6"]) == 1
    err = capsys.readouterr().err
    assert err == ("hypothesis refuted: good_at[0]: generator "
                   "[2, 3, 4, 5, 0, 1] is not a permutation of the 3 points "
                   "of S3\n")
    # the same off-degree generator in an evidence subgroup of L2
    data = json.loads(cert.read_text())
    data["evidence"][1]["n"]["generators"] = [[1, 0, 2, 3]]
    cert.write_text(json.dumps(data))
    assert run(["witness", "verify", "--cert", str(cert),
                "--L1", "Z6", "--L2", "S3"]) == 1
    assert capsys.readouterr().err == (
        "hypothesis refuted: evidence[1] n: generator [1, 0, 2, 3] is not a "
        "permutation of the 3 points of S3\n")


def test_byte_identical_output(capsys):
    run(["group", "Z6"])
    first = capsys.readouterr().out
    run(["group", "Z6"])
    second = capsys.readouterr().out
    assert first == second


@pytest.mark.parametrize("point", [300, 10, -3])
def test_witness_verify_points_off_the_degree_fail_their_checks(
        tmp_path, capsys, point):
    # a table point past the degree (10), past the byte range or below 0,
    # in a p1 value, a kernel-iso key or a kernel-iso value, fails the
    # checks that read it (exit 1) and raises nothing
    cert = tmp_path / "cert.json"
    run(["witness", "build", "--L1", "Z4", "--L2", "Z2xZ2", "--out",
         str(cert)])
    data = json.loads(cert.read_text())
    expected = {
        ("p1", 1): ["[FAIL] p1-homomorphism  (p_0: not a homomorphism)"],
        ("kernel_iso", 0): [
            "[FAIL] kernel-iso-homomorphism  (kernel-iso: table not total)",
            "[FAIL] kernel-iso-bijective  (table not keyed by ker1)"],
        ("kernel_iso", 1): [
            "[FAIL] kernel-iso-homomorphism  (kernel-iso: not a homomorphism)",
            "[FAIL] kernel-iso-lands-in-ker2"],
    }
    for (name, side), fails in expected.items():
        bad = json.loads(json.dumps(data))
        bad[name]["table"][1][side][1] = point  # not the identity's entry
        cert.write_text(json.dumps(bad))
        capsys.readouterr()
        assert run(["witness", "verify", "--cert", str(cert),
                    "--L1", "Z4", "--L2", "Z2xZ2"]) == 1
        lines = capsys.readouterr().out.splitlines()
        failed = [line for line in lines if line.startswith("[FAIL]")]
        assert [line for line in failed
                if "quotient-1-isomorphic" not in line] == fails
        assert lines[-1] == "verdict: FAILED"
