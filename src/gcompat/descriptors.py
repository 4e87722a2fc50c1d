"""JSON descriptors for groups, maps, posets, systems and certificates.

All dumps are canonical (sorted keys, deterministic ordering) so identical
objects serialize byte-identically. Certificates carry full map tables when
the witness is enumerable and generator images otherwise. Map tables and
generator images hold the maps' own permutation tuples, written exactly as
lists are, so no permutation is copied to serialize it.

`dumps` writes the same bytes as `json.dumps(obj, sort_keys=True,
indent=1)` for the types descriptors hold (dicts with str keys, lists,
tuples, str, int, bool, None) and raises TypeError on any other. It writes
each sequence of ints in one join and reuses, within a call, the text of
a sequence of ints it has already written at the same depth.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _encode_str

from .bounds import DEFAULT_BOUNDS
from .catalog import construct, named_group
from .groups import FiniteGroup, Subgroup
from .homs import Homomorphism
from .inverse_limits import InverseSystem
from .posets import Poset
from .witness import (
    ExtendEvidence,
    ProvenanceNode,
    WitnessCertificate,
    all_subgroups,
    certificate_mode,
)

_SIMPLE_KINDS = {"cyclic", "symmetric", "alternating", "dihedral",
                 "elementary_abelian"}


def group_to_descriptor(g: FiniteGroup) -> dict:
    return {
        "degree": g.degree,
        "generators": [list(p) for p in g.generators],
        "label": g.label,
        "order": g.order(),
    }


def group_from_descriptor(d: dict) -> FiniteGroup:
    if "kind" in d:
        kind = d["kind"]
        params = d.get("params", [])
        if kind == "named":
            return named_group(params[0])
        if kind == "direct_product":
            parts = [group_from_descriptor(p) for p in params]
            return construct("direct_product", *parts)
        if kind in _SIMPLE_KINDS:
            return construct(kind, *params)
        raise ValueError(f"unknown group kind {d['kind']!r}")
    if "generators" not in d or "degree" not in d:
        raise ValueError("group descriptor needs kind or generators/degree")
    g = FiniteGroup(d["degree"], [tuple(p) for p in d["generators"]],
                    d.get("label", "G"))
    if "order" in d and g.order() != d["order"]:
        raise ValueError("descriptor order does not match the generators")
    return g


def hom_to_descriptor(f: Homomorphism, *, with_table=False) -> dict:
    out = {
        "source": group_to_descriptor(f.source),
        "target": group_to_descriptor(f.target),
        "gen_images": [[g, f(g)] for g in f.source.generators],
        "label": f.label,
    }
    if with_table:
        out["table"] = sorted(f.tabulated().items())
    return out


def hom_from_descriptor(d: dict, source=None, target=None) -> Homomorphism:
    """A map from its table, loaded as given (`validate` proves it), or,
    when the table is absent or null, from its generator images, which
    must extend to a homomorphism."""
    src = source or group_from_descriptor(d["source"])
    tgt = target or group_from_descriptor(d["target"])
    if d.get("table") is not None:
        table = {tuple(x): tuple(y) for x, y in d["table"]}
        return Homomorphism(src, tgt, table=table, label=d.get("label", "f"),
                            check=False)
    images = {tuple(g): tuple(v) for g, v in d["gen_images"]}
    return Homomorphism.from_gen_images(src, tgt, images,
                                        label=d.get("label", "f"))


def poset_to_descriptor(p: Poset) -> dict:
    return {"nodes": list(p.nodes),
            "leq": sorted([list(pair) for pair in p.comparable_pairs()],
                          key=str)}


def poset_from_descriptor(d: dict) -> Poset:
    return Poset(tuple(d["nodes"]), [tuple(x) for x in d["leq"]])


def system_to_descriptor(s: InverseSystem) -> dict:
    """Groups are deduplicated into `group_defs` and referenced by id."""
    defs, ids = {}, {}
    for n in s.poset.nodes:
        g = s.groups[n]
        if id(g) not in ids:
            gid = f"g{len(defs)}"
            ids[id(g)] = gid
            defs[gid] = group_to_descriptor(g)
    return {
        "poset": poset_to_descriptor(s.poset),
        "group_defs": defs,
        "groups": [[n, ids[id(s.groups[n])]] for n in s.poset.nodes],
        "transitions": [[i, j, hom_to_descriptor(s.maps[(i, j)])["gen_images"]]
                        for (i, j) in s.poset.comparable_pairs()],
    }


def system_from_descriptor(d: dict) -> InverseSystem:
    poset = poset_from_descriptor(d["poset"])
    defs = {gid: group_from_descriptor(gd)
            for gid, gd in d.get("group_defs", {}).items()}
    groups = {}
    for n, ref in d["groups"]:
        n = _node_key(n, poset)
        if isinstance(ref, str):
            groups[n] = defs[ref]
        else:
            groups[n] = group_from_descriptor(ref)  # inline form
    maps = {}
    for i, j, gen_images in d["transitions"]:
        i, j = _node_key(i, poset), _node_key(j, poset)
        images = {tuple(g): tuple(v) for g, v in gen_images}
        maps[(i, j)] = Homomorphism.from_gen_images(groups[j], groups[i],
                                                    images)
    return InverseSystem(poset, groups, maps)


def _node_key(n, poset):
    if n in poset.nodes:
        return n
    for cand in poset.nodes:
        if cand == n or str(cand) == str(n):
            return cand
    raise ValueError(f"unknown node {n!r}")


def subgroup_to_descriptor(s: Subgroup) -> dict:
    return {"generators": [list(g) for g in s.group.generators],
            "order": s.order()}


def subgroup_from_descriptor(d: dict, parent: FiniteGroup) -> Subgroup:
    gens = [tuple(g) for g in d["generators"]]
    if not gens:
        return parent.trivial_subgroup()
    return Subgroup(parent, gens=gens)


def certificate_to_descriptor(cert: WitnessCertificate,
                              bounds=DEFAULT_BOUNDS, report=None) -> dict:
    """Serialize a certificate; evidence complements are materialized over
    every subgroup of the designated (small) subgroups.

    The check manifest flattens the construction-time assertions from the
    provenance tree; pass a VerificationReport to include its results too.
    """
    enumerable = cert.witness.is_enumerable(bounds.enum)
    manifest = _flatten_checks(cert.provenance)
    if report is not None:
        manifest += [["verify:" + c.name, c.passed, c.detail]
                     for c in report.checks]
    out = {
        "format": "witness-certificate-v1",
        "mode": certificate_mode(cert, bounds),
        "witness": group_to_descriptor(cert.witness),
        "p1": hom_to_descriptor(cert.p1, with_table=enumerable),
        "p2": hom_to_descriptor(cert.p2, with_table=enumerable),
        "kernel1": subgroup_to_descriptor(cert.ker1),
        "kernel2": subgroup_to_descriptor(cert.ker2),
        "kernel_iso": {
            "table": sorted(cert.kernel_iso.tabulated().items())
            if cert.ker1.group.is_enumerable(bounds.enum) else None,
            "gen_images": [[g, cert.kernel_iso(g)]
                           for g in cert.ker1.group.generators],
        },
        "good_at": [subgroup_to_descriptor(cert.good_at[0]),
                    subgroup_to_descriptor(cert.good_at[1])],
        "evidence": [_evidence_to_descriptor(ev, ker)
                     for ev, ker in zip(cert.evidence,
                                        (cert.ker1, cert.ker2))],
        "provenance": cert.provenance.to_dict(),
        "check_manifest": manifest,
    }
    return out


def _flatten_checks(node) -> list:
    out = [[f"{node.kind}:{c.name}", c.passed, c.detail]
           for c in node.checks]
    for child in node.children:
        out += _flatten_checks(child)
    return out


def _evidence_to_descriptor(ev, ker):
    """The evidence's complements over every subgroup of its n. The kernel
    generators written beside them are the certificate kernel's, which the
    extendability check reads."""
    complements = []
    for m_sub in all_subgroups(ev.n.group):
        comp = ev.complement_for(m_sub.members())
        complements.append([sorted(list(m) for m in m_sub.members()),
                            sorted(list(c) for c in comp)])
    return {
        "kind": ev.kind,
        "n": subgroup_to_descriptor(ev.n),
        "kernel_generators": [list(k) for k in ker.group.generators],
        "complements": complements,
    }


def certificate_from_descriptor(d: dict, l1: FiniteGroup,
                                l2: FiniteGroup) -> WitnessCertificate:
    """Rebuild an enumerable certificate for independent re-verification."""
    if d.get("format") != "witness-certificate-v1":
        raise ValueError("not a witness certificate")
    if d.get("mode") == "stretch" or "table" not in d.get("p1", {}):
        from .bounds import UndecidedError

        raise UndecidedError(
            "generator-based certificate: maps carry generator images only, "
            "re-verification runs in-process at build time")
    witness = group_from_descriptor(d["witness"])
    # the tables of p1, p2 and the kernel map are loaded as given:
    # verify_witness gives their only proof
    p1 = hom_from_descriptor(d["p1"], source=witness, target=l1)
    p2 = hom_from_descriptor(d["p2"], source=witness, target=l2)
    ker1 = subgroup_from_descriptor(d["kernel1"], witness)
    ker2 = subgroup_from_descriptor(d["kernel2"], witness)
    kernel_iso = hom_from_descriptor(dict(d["kernel_iso"], label="kernel-iso"),
                                     source=ker1.group, target=ker2.group)
    n1 = subgroup_from_descriptor(d["good_at"][0], l1)
    n2 = subgroup_from_descriptor(d["good_at"][1], l2)
    evidence = []
    for ev_d, n in zip(d["evidence"], (n1, n2)):
        comps = {frozenset(tuple(m) for m in ms):
                 frozenset(tuple(c) for c in cs)
                 for ms, cs in ev_d["complements"]}
        evidence.append(ExtendEvidence(n, "enumerated", comps))
    prov = _provenance_from_dict(d.get("provenance", {}))
    return WitnessCertificate(witness, p1, p2, ker1, ker2, kernel_iso,
                              (n1, n2), tuple(evidence), prov)


def _provenance_from_dict(d: dict) -> ProvenanceNode:
    from .witness import CheckResult

    if not d:
        return ProvenanceNode("imported")
    return ProvenanceNode(
        d.get("kind", "imported"),
        info=d.get("info", {}),
        checks=[CheckResult(n, p, det) for n, p, det in d.get("checks", [])],
        children=[_provenance_from_dict(c) for c in d.get("children", [])])


def dumps(obj) -> str:
    """The bytes of `json.dumps(obj, sort_keys=True, indent=1)` for the
    types descriptors hold: dicts with str keys, lists, tuples, str, int,
    bool and None. Any other type raises TypeError.

    Two mechanisms make it fast where the stdlib's indented encoder (pure
    Python, one generator frame per item) is slow. A list or tuple of
    ints only, such as every permutation, is written by one join. Its
    text is kept for the rest of the call, keyed by its depth and values:
    map tables send many keys onto few values, and evidence lists the
    same elements under many subgroups.
    """
    out = []
    _encode(obj, "\n", out.append, {})
    return "".join(out)


_INTS = {int}


def _encode(o, nl, emit, memo):
    """Emit the text of `o`, whose closing bracket goes after `nl`: a
    newline and the indent of `o`'s own depth."""
    if isinstance(o, (list, tuple)):
        if not o:
            emit("[]")
            return
        inner = nl + " "
        if set(map(type, o)) == _INTS:  # bool is not int here
            key = (nl, tuple(o))
            text = memo.get(key)
            if text is None:
                text = memo[key] = "".join((
                    "[", inner, ("," + inner).join(map(int.__repr__, o)),
                    nl, "]"))
            emit(text)
            return
        sep, comma = inner, "," + inner
        emit("[")
        for x in o:
            emit(sep)
            _encode(x, inner, emit, memo)
            sep = comma
        emit(nl + "]")
    elif isinstance(o, str):
        emit(_encode_str(o))
    elif isinstance(o, dict):
        if not o:
            emit("{}")
            return
        for k in o:
            if not isinstance(k, str):
                raise TypeError(
                    f"descriptor keys must be str, not {type(k).__name__}")
        inner = nl + " "
        sep, comma = inner, "," + inner
        emit("{")
        for k in sorted(o):
            emit(sep)
            emit(_encode_str(k))
            emit(": ")
            _encode(o[k], inner, emit, memo)
            sep = comma
        emit(nl + "}")
    elif o is None:
        emit("null")
    elif o is True:
        emit("true")
    elif o is False:
        emit("false")
    elif isinstance(o, int):
        emit(int.__repr__(o))
    else:
        raise TypeError(
            f"{type(o).__name__} is not a descriptor type")
