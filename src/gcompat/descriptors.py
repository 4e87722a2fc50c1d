"""JSON descriptors for groups, maps, posets, systems and certificates.

All dumps are canonical (sorted keys, deterministic ordering) so identical
objects serialize byte-identically. Certificates carry full map tables when
the witness is enumerable and generator images otherwise. Map tables and
generator images hold the maps' own permutation tuples, written exactly as
lists are, so no permutation is copied to serialize it. The loaders check
the JSON shape of every field they read and raise ValueError for a wrong one.

`dumps` writes the same bytes as `json.dumps(obj, sort_keys=True,
indent=1)` for the types descriptors hold (dicts with str keys, lists,
tuples, str, int, bool, None) and raises TypeError on any other. It writes
each sequence of ints in one join and reuses, within a call, the text of
a sequence of ints it has already written at the same depth.
"""

from __future__ import annotations

from itertools import chain
from json.encoder import encode_basestring_ascii as _encode_str

from .bounds import DEFAULT_BOUNDS, HypothesisError
from .catalog import construct, named_group
from .groups import FiniteGroup, Subgroup
from .homs import Homomorphism
from .inverse_limits import InverseSystem
from .perms import is_perm
from .posets import Poset
from .witness import (
    ExtendEvidence,
    ProvenanceNode,
    WitnessCertificate,
    all_subgroups,
    certificate_mode,
)

# group kind -> the JSON type and number of its parameters
_KINDS = {"named": (str, 1), "direct_product": (dict, 2), "cyclic": (int, 1),
          "symmetric": (int, 1), "alternating": (int, 1), "dihedral": (int, 1),
          "elementary_abelian": (int, 2)}


def group_to_descriptor(g: FiniteGroup) -> dict:
    return {
        "degree": g.degree,
        "generators": [list(p) for p in g.generators],
        "label": g.label,
        "order": g.order(),
    }


# a JSON array: a list once loaded, a list or a tuple in a descriptor
# built in memory (map tables hold the maps' own permutation tuples)
_ARRAY = (list, tuple)


def perm_list(obj, what) -> list:
    """`obj`, a JSON list of permutations, as a list of tuples;
    ValueError naming `what` unless it is a list of lists of integers.
    The points are checked by their sum, taken in C: a string, null, list
    or object point raises TypeError, and a float point makes the sum a
    float (a JSON true or false is the 1 or 0 that a Python bool is)."""
    try:
        ints = isinstance(obj, _ARRAY) and set(map(type, obj)) <= {*_ARRAY} \
            and type(sum(map(sum, obj))) is int
    except TypeError:
        ints = False
    if not ints:
        raise ValueError(f"{what}: expected a list of lists of integers")
    return [tuple(p) for p in obj]


def perm_pairs(obj, what) -> list:
    """`obj`, a JSON list of [perm, perm] pairs (a map table or generator
    images), as a list of tuple pairs; ValueError naming `what` unless
    every entry is a pair (`_entries`) of permutations (`perm_list`)."""
    flat = chain.from_iterable(_entries(obj, 2, what))
    flat = iter(perm_list(list(flat), what))
    return list(zip(flat, flat))


def _object(obj, what) -> dict:
    """`obj`; ValueError naming `what` unless it is a JSON object."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what}: expected a JSON object")
    return obj


def _items(obj, size, what) -> list:
    """`obj`; ValueError naming `what` unless it is a list of `size`
    items."""
    if not isinstance(obj, _ARRAY) or len(obj) != size:
        raise ValueError(f"{what}: expected a list of {size} items")
    return obj


def _entries(obj, size, what) -> list:
    """`obj`; ValueError naming `what` unless it is a list of lists of
    `size` items each."""
    if not isinstance(obj, _ARRAY) or not set(map(type, obj)) <= {*_ARRAY} \
            or not set(map(len, obj)) <= {size}:
        raise ValueError(f"{what}: expected a list of {size}-item lists")
    return obj


def group_from_descriptor(d: dict) -> FiniteGroup:
    if not isinstance(d, dict):
        raise ValueError("group descriptor must be a JSON object")
    if "kind" in d:
        kind, params = d["kind"], d.get("params", [])
        if not isinstance(kind, str) or kind not in _KINDS:
            raise ValueError(f"unknown group kind {kind!r}")
        typ, count = _KINDS[kind]
        if not isinstance(params, list) or len(params) != count \
                or any(type(p) is not typ for p in params):
            raise ValueError(f"{kind}: expected {count} parameter(s) of "
                             f"JSON type {typ.__name__}")
        if kind == "named":
            return named_group(params[0])
        if kind == "direct_product":
            params = [group_from_descriptor(p) for p in params]
        return construct(kind, *params)
    if "generators" not in d or "degree" not in d:
        raise ValueError("group descriptor needs kind or generators/degree")
    if type(d["degree"]) is not int:
        raise ValueError("group descriptor degree must be an integer")
    g = FiniteGroup(d["degree"], perm_list(d["generators"], "generators"),
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


def hom_from_descriptor(d: dict, source=None, target=None,
                        what="map") -> Homomorphism:
    """A map from its table, loaded as given (`validate` proves it), or,
    when the table is absent or null, from its generator images, which
    must extend to a homomorphism. ValueError naming `what` for a
    descriptor of the wrong shape."""
    _object(d, what)
    src = source or group_from_descriptor(d["source"])
    tgt = target or group_from_descriptor(d["target"])
    if d.get("table") is not None:
        table = dict(perm_pairs(d["table"], f"{what} table"))
        return Homomorphism(src, tgt, table=table, label=d.get("label", "f"),
                            check=False)
    images = _gen_images(d["gen_images"], tgt, f"{what} gen_images")
    return Homomorphism.from_gen_images(src, tgt, images,
                                        label=d.get("label", "f"))


def _gen_images(obj, target, what) -> dict:
    """Generator images from their [perm, perm] pairs (`perm_pairs`);
    ValueError naming `what` unless each image is a permutation of the
    target's degree."""
    images = dict(perm_pairs(obj, what))
    if not all(is_perm(v, target.degree) for v in images.values()):
        raise ValueError(f"{what}: expected permutations of degree "
                         f"{target.degree}")
    return images


def poset_to_descriptor(p: Poset) -> dict:
    return {"nodes": list(p.nodes),
            "leq": sorted([list(pair) for pair in p.comparable_pairs()],
                          key=str)}


def poset_from_descriptor(d: dict) -> Poset:
    """ValueError for a descriptor of the wrong shape: nodes must be JSON
    scalars and `leq` a list of pairs of them."""
    nodes, leq = _object(d, "poset").get("nodes"), d.get("leq")
    if not isinstance(nodes, _ARRAY) or any(
            isinstance(n, (*_ARRAY, dict)) for n in nodes):
        raise ValueError("poset nodes: expected a list of names")
    return Poset(tuple(nodes), [tuple(x) for x in _entries(leq, 2, "leq")])


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
    """ValueError for a descriptor of the wrong shape (`_entries`)."""
    poset = poset_from_descriptor(_object(d, "system").get("poset"))
    defs = {gid: group_from_descriptor(gd) for gid, gd in
            _object(d.get("group_defs", {}), "group_defs").items()}
    groups = {}
    for n, ref in _entries(d.get("groups"), 2, "groups"):
        n = _node_key(n, poset)
        if isinstance(ref, str):
            groups[n] = defs[ref]
        else:
            groups[n] = group_from_descriptor(ref)  # inline form
    maps = {}
    for i, j, gen_images in _entries(d.get("transitions"), 3, "transitions"):
        i, j = _node_key(i, poset), _node_key(j, poset)
        images = _gen_images(gen_images, groups[i], "transition gen_images")
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


def subgroup_from_descriptor(d: dict, parent: FiniteGroup,
                             what="subgroup") -> Subgroup:
    gens = perm_list(_object(d, what).get("generators"), f"{what} generators")
    if not gens:
        return parent.trivial_subgroup()
    return Subgroup(parent, gens=gens)


def _target_subgroup(d: dict, l_d: FiniteGroup, what) -> Subgroup:
    """A subgroup of the target L_d that the certificate names: a generator
    off L_d's points refutes the file as one for this pair."""
    gens = perm_list(_object(d, what).get("generators"), f"{what} generators")
    for g in gens:
        if not is_perm(g, l_d.degree):
            raise HypothesisError(
                f"{what}: generator {list(g)} is not a permutation of the "
                f"{l_d.degree} points of {l_d.label}")
    return subgroup_from_descriptor(d, l_d, what)


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
    """Rebuild an enumerable certificate for independent re-verification.
    Every field read has its JSON shape checked before it is used, and a
    field of the wrong shape raises ValueError naming it."""
    if _object(d, "certificate").get("format") != "witness-certificate-v1":
        raise ValueError("not a witness certificate")
    if d.get("mode") == "stretch" or "table" not in _object(
            d.get("p1", {}), "p1"):
        from .bounds import UndecidedError

        raise UndecidedError(
            "generator-based certificate: maps carry generator images only, "
            "re-verification runs in-process at build time")
    witness = group_from_descriptor(d["witness"])
    # the tables of p1, p2 and the kernel map are loaded as given:
    # verify_witness gives their only proof
    p1 = hom_from_descriptor(d["p1"], witness, l1, what="p1")
    p2 = hom_from_descriptor(d["p2"], witness, l2, what="p2")
    ker1 = subgroup_from_descriptor(d["kernel1"], witness, "kernel1")
    ker2 = subgroup_from_descriptor(d["kernel2"], witness, "kernel2")
    kernel_iso = hom_from_descriptor(
        dict(_object(d["kernel_iso"], "kernel_iso"), label="kernel-iso"),
        ker1.group, ker2.group, what="kernel_iso")
    good_at = _items(d["good_at"], 2, "good_at")
    n1 = _target_subgroup(good_at[0], l1, "good_at[0]")
    n2 = _target_subgroup(good_at[1], l2, "good_at[1]")
    evidence = []
    for i, (ev_d, l_d) in enumerate(zip(_items(d["evidence"], 2, "evidence"),
                                        (l1, l2))):
        what = f"evidence[{i}]"
        n = _target_subgroup(_object(ev_d, what).get("n"), l_d, f"{what} n")
        kind = ev_d.get("kind")
        if not isinstance(kind, str):
            raise ValueError(f"{what} kind: expected a string")
        comps = {frozenset(perm_list(ms, f"{what} complements")):
                 frozenset(perm_list(cs, f"{what} complements"))
                 for ms, cs in _entries(ev_d.get("complements"), 2,
                                        f"{what} complements")}
        evidence.append(ExtendEvidence(n, kind, comps))
    prov = _provenance_from_dict(d.get("provenance", {}))
    return WitnessCertificate(witness, p1, p2, ker1, ker2, kernel_iso,
                              (n1, n2), tuple(evidence), prov)


def _provenance_from_dict(d: dict) -> ProvenanceNode:
    """A provenance tree; ValueError unless each node is an object whose
    `kind` is a string, `info` an object, `checks` [str, bool, str]
    entries and `children` a list of such nodes."""
    from .witness import CheckResult

    if not _object(d, "provenance"):
        return ProvenanceNode("imported")
    kind, checks = d.get("kind", "imported"), d.get("checks", [])
    children = d.get("children", [])
    if not isinstance(kind, str):
        raise ValueError("provenance kind: expected a string")
    if not all(list(map(type, c)) == [str, bool, str]
               for c in _entries(checks, 3, "provenance checks")):
        raise ValueError("provenance checks: expected [str, bool, str] items")
    if not isinstance(children, _ARRAY):
        raise ValueError("provenance children: expected a list")
    return ProvenanceNode(
        kind, info=_object(d.get("info", {}), "provenance info"),
        checks=[CheckResult(*c) for c in checks],
        children=[_provenance_from_dict(c) for c in children])


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
