"""Construction and independent verification of compatibility witnesses.

A witness certificate is a group G with surjections p1, p2 onto the two
targets, an explicit isomorphism between their kernels, trivially-extendable
evidence at the designated normal subgroups, and a provenance tree. The
builders realize every kernel isomorphism as an explicit composite of maps
produced by the construction itself. They check no kernel map (one from
generator images is a homomorphism by its propagation): `verify_witness`
proves the certificate's kernel map at every size, like p1 and p2, by
`Homomorphism.validate`, which picks the proof by the map's form.

Extendability evidence has one type, `ExtendEvidence`: a complement table
or a block placement. A hand composition tabulates its lifted complements
once, when composed (`lifted_evidence`), so `verify_witness` checks data
the certificate carries and reads no map's preimages.

`verify_witness` proves each property once, on one path for enumerable and
generator-based witnesses alike. Three of its checks are derived from
proved checks: `ker-p{d}-matches` from `p{d}-homomorphism` (the kernel's
generators lie in G and go to the identity, and |ker_d| = |G|/|im p_d|),
and `quotient-{d}-isomorphic` from `p{d}-homomorphism`, `p{d}-surjective`,
`ker-p{d}-matches` and, when p_d's target is not L_d itself,
`p{d}-target-type`, by the first isomorphism theorem (no quotient is
built); and `kernel-iso-independent-search` from
`kernel-iso-homomorphism`, `kernel-iso-bijective` and
`kernel-iso-lands-in-ker2`: the certificate's map is an isomorphism from
ker1 onto ker2. The brute-force search runs only when one of them failed,
so that a failing certificate still reports whether its kernels are
isomorphic at all.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import partial

from .bounds import DEFAULT_BOUNDS, HypothesisError, UndecidedError
from .groups import (
    FiniteGroup,
    Subgroup,
    all_subgroups,
    central_subgroup_of_order_p,
    normal_sylow,
)
from .homs import Homomorphism, quotient
from .hybrid import hybrid_wreath
from .isos import automorphism_set, find_isomorphism, stabilized
from .perms import closure, inv, left_products, mul, place_block
from .sequences import (GroupSequence, concatenation, contraction,
                        pad_to_length, series_to_sequence, sharp, truncation)


# ---------------------------------------------------------------------------
# check bookkeeping


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    @property
    def skipped(self):
        """Passed only because a bound stopped the check; its detail says
        which bound."""
        return self.passed and self.detail.startswith("skipped")


@dataclass
class VerificationReport:
    checks: list = field(default_factory=list)

    def add(self, name, passed, detail=""):
        self.checks.append(CheckResult(name, bool(passed), str(detail)))

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def lines(self):
        out = []
        for c in self.checks:
            status = ("SKIP" if c.skipped else "PASS") if c.passed else "FAIL"
            tail = f"  ({c.detail})" if c.detail else ""
            out.append(f"[{status}] {c.name}{tail}")
        return out


@dataclass
class ProvenanceNode:
    kind: str
    info: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    children: list = field(default_factory=list)

    def to_dict(self):
        return {
            "kind": self.kind,
            "info": self.info,
            "checks": [[c.name, c.passed, c.detail] for c in self.checks],
            "children": [c.to_dict() for c in self.children],
        }


# ---------------------------------------------------------------------------
# trivially-extendable evidence


@dataclass
class ExtendEvidence:
    """Proof material that a surjection pulls subgroups of n back to direct
    products with its kernel: a complement for every subgroup below n.

    Either a `table` (a subgroup's member set -> its complement), found by
    search, loaded from a descriptor or lifted through a hand composition;
    or the `block` (offset, degree) of a block map p, whose complement of a
    subgroup of n is each member placed at p's block, with the identity at
    every other point of p's source. A star-limit branch projection has a
    block at its branch map's kernel, and so has any fused chain of such
    projections, because one placement lifted through another is the
    placement at the fused block. `check_extend_evidence` checks either
    against the certificate's own map and kernel, never against a map or
    kernel the evidence holds."""

    n: Subgroup
    kind: str
    table: dict | None = None
    block: tuple | None = None

    def complement_for(self, members) -> frozenset:
        if self.block is None:
            comp = self.table.get(frozenset(members))
            if comp is None:
                raise HypothesisError("no complement recorded for this subgroup")
            return comp
        if not all(map(self.n.contains, members)):
            raise HypothesisError("subgroup is not below the designated n")
        off, degree = self.block
        return frozenset(place_block(m, off, degree) for m in members)


def placed_evidence(p: Homomorphism, n: Subgroup, kind: str) -> ExtendEvidence:
    """Evidence at n for the block map p: each member placed at p's block."""
    if p.offset is None:
        raise HypothesisError(f"{p.label} is not a block map")
    return ExtendEvidence(n, kind, block=(p.offset, p.source.degree))


def lifted_evidence(ev_p: ExtendEvidence, ev_pi: ExtendEvidence,
                    p: Homomorphism, pi: Homomorphism) -> ExtendEvidence:
    """Evidence for pi o p from evidence for p (at a subgroup containing
    ker pi) and evidence for pi, tabulated once over every subgroup M of
    ev_pi.n: pi's complement of M lifted through p's complement of M's
    preimage under pi (`preimage_members`, at composition time). A
    subgroup whose complement has no lift is left out of the table, so
    `check_extend_evidence` reports it missing; it re-checks every
    complement in the table from scratch."""
    table = {}
    for m_sub in all_subgroups(ev_pi.n.group):
        members = m_sub.members()
        try:
            c_outer = ev_p.complement_for(pi.preimage_members(members))
            by_value = {p(c): c for c in c_outer}
            table[members] = frozenset(
                by_value[x] for x in ev_pi.complement_for(members))
        except (HypothesisError, KeyError):
            continue
    return ExtendEvidence(ev_pi.n, "composed", table=table)


@dataclass
class ExtendReport:
    ok: bool
    evidence: ExtendEvidence | None
    failing: Subgroup | None


COMPLEMENT_BUDGET = 200000  # section candidates tried per complement


def is_trivially_extendable(pi: Homomorphism, n: Subgroup,
                            bounds=DEFAULT_BOUNDS) -> ExtendReport:
    """Search for complements certifying pi trivially extendable at n.

    Complements are homomorphic sections landing in the centralizer of the
    kernel, found by backtracking over preimage candidates. Returns either
    evidence covering every subgroup of n, or the first failing subgroup.
    """
    if not pi.source.is_enumerable(bounds.enum):
        raise UndecidedError("extendability search needs an enumerable source")
    if not pi.is_surjective():
        raise HypothesisError("extendability is defined for surjections")
    kmembers = pi.kernel(bounds.enum).members()
    complements = {}
    for m_sub in all_subgroups(n.group):
        c = _find_complement(pi, m_sub, kmembers, COMPLEMENT_BUDGET)
        if c is None:
            return ExtendReport(False, None, m_sub)
        complements[m_sub.members()] = c
    return ExtendReport(True, ExtendEvidence(n, "enumerated", complements),
                        None)


def _find_complement(pi, m_sub, kmembers, budget):
    if m_sub.order() == 1:
        return frozenset([pi.source.identity])
    mgens = m_sub.group.generators
    cands = []
    for mg in mgens:
        pool = [x for x in sorted(pi.preimage_members([mg]))
                if all(mul(x, k) == mul(k, x) for k in kmembers)]
        if not pool:
            return None
        cands.append(pool)
    tried = 0
    for combo in itertools.product(*cands):
        tried += 1
        if tried > budget:
            raise UndecidedError("complement search budget exhausted")
        try:
            section = Homomorphism.from_gen_images(
                m_sub.group, pi.source, dict(zip(mgens, combo)),
                label="sect")
        except HypothesisError:
            continue
        table = section.tabulated()
        if all(pi(v) == m for m, v in table.items()):
            return frozenset(table.values())
    return None


def check_extend_evidence(ev: ExtendEvidence, p: Homomorphism, ker: Subgroup,
                          label="extendable") -> CheckResult:
    """Re-check evidence from scratch over every subgroup of its n, against
    the certificate's own map p and kernel ker, never against anything the
    evidence carries: each complement has the subgroup's size, lies in p's
    source, maps onto the subgroup under p, is a subgroup, and commutes
    with ker's generators."""
    try:
        subs = all_subgroups(ev.n.group)
    except UndecidedError as e:
        return CheckResult(label, False, f"cannot enumerate subgroups: {e}")
    for m_sub in subs:
        members = m_sub.members()
        try:
            comp = ev.complement_for(members)
        except HypothesisError as e:
            return CheckResult(label, False, f"missing complement: {e}")
        if len(comp) != len(members):
            return CheckResult(label, False, "complement has wrong size")
        if not all(p.source.contains(c) for c in comp):
            return CheckResult(label, False, "complement leaves the witness")
        if {p(c) for c in comp} != set(members):
            return CheckResult(label, False, "complement does not cover the subgroup")
        if closure(list(comp)) != comp:
            return CheckResult(label, False, "complement is not a subgroup")
        for c in comp:
            for k in ker.group.generators:
                if mul(c, k) != mul(k, c):
                    return CheckResult(label, False,
                                       "complement does not centralize the kernel")
    return CheckResult(label, True, f"{len(subs)} subgroups checked")


# ---------------------------------------------------------------------------
# Comp data


@dataclass
class CompData:
    """Kernel isomorphisms plus the restriction condition data.

    kernel_isos[i]: ker(pi_i;1) -> ker(pi_i;2) for 1 <= i <= l.
    alphas[(i, d)]: for the side d in {1,2}, a dict sending each element x of
    S_{i-1; 3-d} to an automorphism of S_{i; d} whose restriction to the
    kernel matches the transported inner twist. taus[(i, d)]: transversal of
    pi_{i; d} with tau(1) = 1.
    """

    length: int
    kernel_isos: dict
    alphas: dict = field(default_factory=dict)
    taus: dict = field(default_factory=dict)


def _condition_side(s_pair, i, delta, bounds):
    """What level i's condition reads on side delta, whatever sigma: the
    sorted elements of S_{i-1; delta}, the canonical transversal tau of
    pi_{i; delta} (its section, which fixes the identity), K_{i; dbar},
    and the automorphisms of S_{i; dbar} that stabilize K_{i; dbar}."""
    s_d, s_bar = s_pair[delta - 1], s_pair[2 - delta]
    tau = s_d.map(i).section()
    if tau[s_d.group(i - 1).identity] != s_d.group(i).identity:
        raise HypothesisError("canonical transversal must fix the identity")
    k_bar = s_bar.kernel(i)
    stab = stabilized(automorphism_set(s_bar.group(i), bounds), k_bar)
    return s_d.group(i - 1).sorted_elements(), tau, k_bar, stab


def _derive_alpha_tau(side, fwd, delta):
    """alpha and tau for one level on side delta, or None if the condition
    fails. `side` is the level's `_condition_side` for delta, and fwd[d] is
    the kernel isomorphism K_d -> K_dbar.

    For every x in S_{i-1; delta}, the inner twist by tau(x)^-1 on the
    kernel, transported through fwd[delta], must extend to an
    automorphism of the other side stabilizing its kernel.
    """
    xs, tau, k_bar, stab = side
    t, t_inv = fwd[delta], fwd[3 - delta]   # K_delta -> K_bar, and back
    alpha = {xs[0]: Homomorphism.identity(k_bar.parent)}  # 1 sorts first
    for x in xs[1:]:
        tx = tau[x]

        def transported(k, tx=tx):
            return t(mul(mul(inv(tx), t_inv(k)), tx))

        # a and transported are homomorphisms on K_bar
        alpha[x] = next((a for a in stab if all(
            a(k) == transported(k) for k in k_bar.group.generators)), None)
        if alpha[x] is None:
            return None
    return alpha, {x: tau[x] for x in xs}


def comp_membership(s1: GroupSequence, s2: GroupSequence,
                    bounds=DEFAULT_BOUNDS) -> CompData | None:
    """Search the restriction-condition data for a compatible pair.

    Returns None when no kernel isomorphism satisfies the condition at some
    level (certified non-membership for this series choice). Raises
    HypothesisError when the sequences are not even compatible.
    """
    if s1.length != s2.length:
        raise HypothesisError("sequences have different lengths")
    if not (s1.is_surjective() and s2.is_surjective()):
        raise HypothesisError("sequences must be surjective")
    ell = s1.length
    kernel_isos = {}
    for i in range(1, ell + 1):
        k1, k2 = s1.kernel(i), s2.kernel(i)
        iso = find_isomorphism(k1.group, k2.group, bounds)
        if iso is None:
            raise HypothesisError(
                f"kernels at level {i} are not isomorphic: not compatible")
        kernel_isos[i] = iso
    alphas, taus = {}, {}
    for i in range(2, ell):
        sides = {d: _condition_side((s1, s2), i, d, bounds) for d in (1, 2)}
        base = kernel_isos[i]
        found = None
        for aut in automorphism_set(s1.kernel(i).group, bounds):
            sigma = aut.then(base)
            fwd = {1: sigma, 2: sigma.inverse()}
            data1 = _derive_alpha_tau(sides[1], fwd, 1)
            if data1 is None:
                continue
            data2 = _derive_alpha_tau(sides[2], fwd, 2)
            if data2 is None:
                continue
            found = (sigma, data1, data2)
            break
        if found is None:
            return None
        sigma, (a1, t1), (a2, t2) = found
        kernel_isos[i] = sigma
        # the delta-side derivation yields automorphisms of the other side
        alphas[(i, 2)] = a1
        taus[(i, 1)] = t1
        alphas[(i, 1)] = a2
        taus[(i, 2)] = t2
    return CompData(ell, kernel_isos, alphas, taus)


# ---------------------------------------------------------------------------
# certificates


@dataclass
class WitnessCertificate:
    witness: FiniteGroup
    p1: Homomorphism
    p2: Homomorphism
    ker1: Subgroup
    ker2: Subgroup
    kernel_iso: Homomorphism
    good_at: tuple          # (Subgroup of target1, Subgroup of target2)
    evidence: tuple         # (ExtendEvidence, ExtendEvidence)
    provenance: ProvenanceNode

    def order_bookkeeping_ok(self):
        o = self.witness.order()
        return (o == self.p1.target.order() * self.ker1.order()
                == self.p2.target.order() * self.ker2.order())


def certificate_mode(cert: WitnessCertificate, bounds=DEFAULT_BOUNDS) -> str:
    """The size class a report names: "enumerated" if the witness's
    elements fit `bounds.enum`, else "stretch". Both are built alike,
    from generators; past the bound, maps carry generator images only."""
    return ("enumerated" if cert.witness.is_enumerable(bounds.enum)
            else "stretch")


def build_witness_length2(s1: GroupSequence, s2: GroupSequence,
                          comp: CompData | None,
                          bounds=DEFAULT_BOUNDS) -> WitnessCertificate:
    """Base case: the fiber of the two tops over the common bottom group,
    taken by `sharp`. Side 1's top is first put on s2 cut to length 1
    (`truncation`, `concatenation`) through the level-1 kernel isomorphism,
    so the star has root S_{1;2} with the side-1 branch twisted; kernels of
    the projections are the opposite branch kernels, bridged by the level-2
    kernel isomorphism z = place(1, y) -> place(0, kappa_2^-1(y)).

    That map is the rule z -> place(0, kappa_2^-1(decode(z, 1))) at every
    size, with no table and no check here: `compose_witness` reads it into
    the composed map, unchecked, and `verify_witness` proves the final
    kernel map by `Homomorphism.validate`, which picks the proof by the
    map's form. `decode` at branch 1 inverts place(1, .) on
    ker1 = <place(1, k)>, whose order is checked below, and place(0, .) is
    a homomorphism, so the rule is a homomorphism exactly when kappa_2 is.
    kappa_2^-1 is `inverse()`, which raises unless kappa_2 is bijective.
    `comp_membership`'s maps come from the isomorphism search, whose
    tables `Homomorphism.from_gen_images` proves, and are inverted by a
    flip of their tables. A contracted kernel map from
    `build_good_witness` is a rule, never tabulated: its inverse sifts
    through its graph chain, which proves it a bijective homomorphism
    first (`Homomorphism.inverse`).
    """
    if s1.length != 2 or s2.length != 2:
        raise HypothesisError("length-2 builder needs length-2 sequences")
    if comp is None:
        raise HypothesisError("pair fails the restriction condition")
    sigma1 = comp.kernel_isos[1]
    below = truncation(s2, 1)
    into_root = Homomorphism.of_rule(sigma1.source, below.top, sigma1,
                                     label="sigma1")
    twisted = concatenation(
        s1.top, s1.map(2).then(into_root, label="sigma*pi"), below)
    _, lim = sharp(twisted, s2, bounds=bounds)
    p1, p2 = lim.projection(0), lim.projection(1)

    k_pi21 = s1.kernel(2)
    k_pi22 = s2.kernel(2)
    embed0, embed1 = partial(lim.place, 0), partial(lim.place, 1)
    ker1 = _generated(lim.group, map(embed1, k_pi22.group.generators),
                      k_pi22.order(), "ker p1")
    ker2 = _generated(lim.group, map(embed0, k_pi21.group.generators),
                      k_pi21.order(), "ker p2")
    kappa2_inv = comp.kernel_isos[2].inverse()
    kernel_iso = Homomorphism.of_rule(
        ker1.group, ker2.group,
        lambda z: embed0(kappa2_inv(lim.decode(z, 1))), label="kernel-iso")

    ev1 = placed_evidence(p1, k_pi21, "star-projection")
    ev2 = placed_evidence(p2, k_pi22, "star-projection")

    prov = ProvenanceNode(
        "length2",
        info={"witness_order": lim.group.order(),
              "targets": [s1.top.order(), s2.top.order()],
              "kernel_orders": [ker1.order(), ker2.order()],
              "kernel_iso_gen_images": _gen_image_list(kernel_iso)},
        checks=[CheckResult("fiber-order", lim.group.order() * below.top.order()
                            == s1.top.order() * s2.top.order())])
    return WitnessCertificate(lim.group, p1, p2, ker1, ker2, kernel_iso,
                              (k_pi21, k_pi22), (ev1, ev2), prov)


def _generated(group, gens, order, label) -> Subgroup:
    """<gens> in group, refused unless it has the predicted order."""
    sub = Subgroup(group, gens=list(gens), label=label)
    if sub.order() != order:
        raise HypothesisError(f"{label}: generators have wrong order")
    return sub


def _gen_image_list(h: Homomorphism):
    return [[list(g), list(h(g))] for g in h.source.generators]


@dataclass
class RecursionStep:
    """The per-side objects of one unfolding of the recursion."""

    n: int
    g_lims: dict            # delta -> LimitGroup (star of twisted top copies)
    rho: dict               # delta -> Homomorphism G_delta -> S_{l;delta}
    hybrids: dict           # delta -> HybridWreath
    phis: dict              # delta -> standard maps
    eta: dict               # delta -> Homomorphism BW_delta -> limZ_{bar} <= G_bar
    checks: list = field(default_factory=list)


def build_recursion_step(s1: GroupSequence, s2: GroupSequence, comp: CompData,
                         bounds=DEFAULT_BOUNDS) -> RecursionStep:
    """The twisted-star and hybrid-wreath objects for the top level. The
    star G_d is the `sharp` of `concatenation(S_{l;d}, alpha[x]*pi_l,
    truncation(s_d, l-1))` over the n elements x of S_{l-2;bar}. The level's
    kernel isomorphism sigma is inverted once: fwd[d] is the map K_d ->
    K_bar, which eta_d and square d read, and theta_d reads fwd[bar].

    Asserts: the branch projections are surjective and trivially extendable
    at the top kernel, the base-subgroup identifications are bijective, and
    the two kernel squares commute. Each eta_d is
    `hybrids[d].onto_limit(G_bar, K_bar, fwd[d])`, the one identification
    of a hybrid's base with a star limit, which refuses it unless it is
    onto limZ_bar = p_r^-1(K_bar), never closed. Each value's root is
    fwd[d](phi_d(w)), which lies in K_bar without a test: phi_d(w) is in
    theta_d(T_bar) <= K_d, and fwd[d] is a proved map K_d -> K_bar.
    Squares of homomorphisms are compared at generators.
    """
    ell = s1.length
    if ell < 3:
        raise HypothesisError("recursion step needs length >= 3")
    seqs = {1: s1, 2: s2}
    checks = []
    x_lists = {d: seqs[d].group(ell - 2).sorted_elements() for d in (1, 2)}
    n = len(x_lists[1])
    if len(x_lists[2]) != n:
        raise HypothesisError("middle quotients have different orders")
    sigma = comp.kernel_isos[ell - 1]
    fwd = {1: sigma, 2: sigma.inverse()}   # K_d -> K_dbar
    kers = {d: seqs[d].kernel(ell - 1) for d in (1, 2)}   # K_d

    g_lims, rhos, t_subs, hybrids, phis = {}, {}, {}, {}, {}
    for d in (1, 2):
        seq = seqs[d]
        alpha = comp.alphas[(ell - 1, d)]
        cut = truncation(seq, ell - 1)
        _, g_lims[d] = sharp(*(concatenation(
            seq.top, seq.map(ell).then(alpha[x], label=f"alpha*pi@{x}"), cut)
            for x in x_lists[3 - d]), bounds=bounds)
        rhos[d] = g_lims[d].projection(0)
        t_subs[d] = contraction(seq).map(ell - 1).kernel(bounds.enum)

    for d in (1, 2):
        bar = 3 - d
        seq = seqs[d]
        t_bar = t_subs[bar]
        pi_bar_restr = seqs[bar].map(ell).restrict(t_bar, kers[bar])
        incl = Homomorphism.inclusion(kers[d])
        theta = pi_bar_restr.then(fwd[bar]).then(incl, label=f"theta_{d}")
        tau = comp.taus[(ell - 1, d)]
        reps = [tau[x] for x in x_lists[d]]
        hw = hybrid_wreath(t_bar.group, seq.group(ell - 1), theta,
                           transversal_elems=reps, bounds=bounds,
                           label=f"H_{d}")
        if hw.npoints != n:
            raise HypothesisError("hybrid coset count mismatch")
        if not hw.normal:
            raise HypothesisError("hybrid is not normal")
        hybrids[d] = hw
        phis[d] = hw.standard_map
        if not phis[d].is_surjective():
            raise HypothesisError("standard map is not surjective")
    checks.append(CheckResult(
        "orders", all(g_lims[d].group.order() == hybrids[d].order()
                      == seqs[d].group(ell - 1).order()
                      * seqs[d].kernel(ell).order() ** n for d in (1, 2)),
        f"|G_d| = |H_d| = {g_lims[1].group.order()}"))

    etas = {d: hybrids[d].onto_limit(g_lims[3 - d], kers[3 - d], fwd[d],
                                     f"eta_{d}") for d in (1, 2)}
    checks += [CheckResult(f"eta_{d}-bijective", True,
                           f"order {hybrids[d].base.order()}") for d in (1, 2)]

    # commuting squares: fwd[d] o phi_d = (pi_l o rho_bar) o eta_d
    for d in (1, 2):
        bar = 3 - d
        bottom = g_lims[bar].projection(0).then(seqs[bar].map(ell))
        ok = all(fwd[d](phis[d](w)) == bottom(etas[d](w))
                 for w in etas[d].source.generators)
        checks.append(CheckResult(f"square_{d}-commutes", ok))
        if not ok:
            raise HypothesisError(f"kernel square {d} does not commute")

    return RecursionStep(n, g_lims, rhos, hybrids, phis, etas, checks)


def compose_witness(cert: WitnessCertificate, pi1: Homomorphism,
                    pi2: Homomorphism, kappa_pi: Homomorphism,
                    pi_evidence: tuple, good_at: tuple,
                    bounds=DEFAULT_BOUNDS,
                    provenance_children=()) -> WitnessCertificate:
    """Quotient-composition: a good witness for the targets of (pi1, pi2).

    Preconditions (checked): the certificate is good at subgroups containing
    ker(pi_d); kappa_pi: ker(pi1) -> ker(pi2) is an isomorphism; pi_d is
    trivially extendable at the new designated subgroups (evidence given).
    """
    pis = {1: pi1, 2: pi2}
    certs = {1: (cert.p1, cert.ker1), 2: (cert.p2, cert.ker2)}
    kpi = {1: pi1.kernel(bounds.enum), 2: pi2.kernel(bounds.enum)}
    for d in (1, 2):
        if not all(map(cert.good_at[d - 1].contains, kpi[d].group.generators)):
            raise HypothesisError("certificate goodness does not cover ker(pi)")
    if kappa_pi.source.order() != kpi[1].order() \
            or not kappa_pi.is_bijective():
        raise HypothesisError("kappa_pi is not an isomorphism of the kernels")

    q = {d: certs[d][0].then(pis[d], label=f"q_{d}") for d in (1, 2)}

    lifts = {}
    for d in (1, 2):
        comp_members = cert.evidence[d - 1].complement_for(kpi[d].members())
        p = certs[d][0]
        lifts[d] = {p(c): c for c in comp_members}

    new_kers = {}
    for d in (1, 2):
        kerp = certs[d][1]
        gens = [*kerp.group.generators,
                *(lifts[d][m] for m in kpi[d].group.generators)]
        # <ker p, lifts> lies in ker q, so equal orders prove equality
        new_kers[d] = _generated(cert.witness, gens,
                                 kerp.order() * kpi[d].order(), f"ker q_{d}")

    kappa_g = cert.kernel_iso
    p1c, ker1c = certs[1]

    # each z in ker q_1 is lift_1(m)*k for exactly one m in ker pi_1 and
    # one k in ker p_1, and goes to lift_2(kappa_pi(m))*kappa_g(k)
    if new_kers[1].group.is_enumerable(bounds.enum):
        new_kers[1].members(bounds.enum)  # closed here: the verifier reads it
        ks = list(ker1c.members())
        values = list(map(kappa_g, ks))  # kappa_g read once per k
        table = {}
        for m in kpi[1].members():  # one coset of ker p_1 per m
            table.update(zip(left_products(lifts[1][m], ks),
                             left_products(lifts[2][kappa_pi(m)], values)))
        new_iso = Homomorphism(new_kers[1].group, new_kers[2].group,
                               table=table, label="kernel-iso", check=False)
    else:
        lift1_inv = {m: inv(c) for m, c in lifts[1].items()}  # inverted once

        def new_iso_rule(z):
            m = p1c(z)
            k = mul(lift1_inv[m], z)
            return mul(lifts[2][kappa_pi(m)], kappa_g(k))

        new_iso = Homomorphism.of_rule(new_kers[1].group, new_kers[2].group,
                                       new_iso_rule, label="kernel-iso")

    new_evidence = []
    for d in (1, 2):
        ev_p, ev_pi = cert.evidence[d - 1], pi_evidence[d - 1]
        if ev_p.block is not None and ev_pi.block is not None:
            # one placement lifted through another is the placement at
            # the fused block of q_d
            ev = placed_evidence(q[d], ev_pi.n, "composed")
        else:
            ev = lifted_evidence(ev_p, ev_pi, certs[d][0], pis[d])
        new_evidence.append(ev)

    prov = ProvenanceNode(
        "compose",
        info={"witness_order": cert.witness.order(),
              "new_targets": [pis[1].target.order(), pis[2].target.order()],
              "kernel_orders": [new_kers[1].order(), new_kers[2].order()],
              "pi_kernel_iso_gen_images": _gen_image_list(kappa_pi)},
        children=[cert.provenance, *provenance_children])
    return WitnessCertificate(cert.witness, q[1], q[2], new_kers[1],
                              new_kers[2], new_iso, good_at,
                              tuple(new_evidence), prov)


def build_good_witness(s1: GroupSequence, s2: GroupSequence,
                       comp: CompData | None = None,
                       bounds=DEFAULT_BOUNDS) -> WitnessCertificate:
    """The recursive construction on a pair of length at least 2 (as
    `sequences_from_series` pads it): base fiber at length 2, else one
    recursion step, a recursive call on the contracted pair, and the
    quotient composition. The step's star G_d and hybrid H_d, each put on
    s_d cut to length l-1 (`truncation`), fuse by `sharp` into W_d; the
    contracted pair is their `contraction`, with top maps Pi_d."""
    if s1.length != s2.length:
        raise HypothesisError("sequences have different lengths")
    if comp is None:
        comp = comp_membership(s1, s2, bounds)
        if comp is None:
            raise HypothesisError("pair fails the restriction condition")
    ell = s1.length
    if ell == 2:
        return build_witness_length2(s1, s2, comp, bounds)

    seqs = {1: s1, 2: s2}
    step = build_recursion_step(s1, s2, comp, bounds)
    lims_w, new_top_maps, new_seqs = {}, {}, {}
    for d in (1, 2):
        cut = truncation(seqs[d], ell - 1)
        g_lim, hw = step.g_lims[d], step.hybrids[d]
        fused, lims_w[d] = sharp(
            concatenation(g_lim.group, g_lim.projection("r"), cut),
            concatenation(hw.group, step.phis[d], cut), bounds=bounds)
        new_top_maps[d] = lims_w[d].projection(0).then(step.rho[d],
                                                       label=f"pi_next_{d}")
        new_seqs[d] = contraction(fused)
        new_seqs[d].map(ell - 1).label = f"Pi_{d}"

    # kernel of the new top map, as an internal direct product
    ker_next = {}
    for d in (1, 2):
        place = lims_w[d].place
        ker_rho = step.rho[d].kernel(bounds.enum)
        ker_phi = step.phis[d].kernel(bounds.enum)
        gens = [place(0, g) for g in ker_rho.group.generators] \
            + [place(1, h) for h in ker_phi.group.generators]
        ker_next[d] = _generated(lims_w[d].group, gens,
                                 ker_rho.order() * ker_phi.order(),
                                 f"ker pi_next_{d}")

    # the explicit kernel isomorphism chain for the new top maps
    sigma_l = comp.kernel_isos[ell]
    eta1, eta2 = step.eta[1], step.eta[2]
    eta2_inv_table = {v: k for k, v in eta2.tabulated().items()}
    rho2 = step.rho[2]
    kappa_l_inv = sigma_l.inverse()

    def kappa_next_rule(w):
        lw1, lw2 = lims_w[1], lims_w[2]
        g = lw1.decode(w, 0)
        h = lw1.decode(w, 1)
        z2 = eta1(h)
        m2 = rho2(z2)
        k2 = mul(inv(step.g_lims[2].place(0, m2)), z2)
        m1 = kappa_l_inv(m2)
        z1 = mul(step.g_lims[1].place(0, m1), g)
        h2 = eta2_inv_table[z1]
        return mul(lw2.place(0, k2), lw2.place(1, h2))

    # propagating its generator images tabulates and proves it;
    # compose_witness's is_bijective proves it one-to-one
    kappa_next = Homomorphism.from_gen_images(
        ker_next[1].group, ker_next[2].group,
        {w: kappa_next_rule(w) for w in ker_next[1].group.generators},
        label="kappa_next")

    ker_pi_big = {d: new_seqs[d].map(ell - 1).kernel(bounds.enum)
                  for d in (1, 2)}
    fwd_sigma = comp.kernel_isos[ell - 1]

    def kappa_big_rule(w):
        lw1, lw2 = lims_w[1], lims_w[2]
        s = lw1.decode(w, "r")
        g = lw1.decode(w, 0)
        h = lw1.decode(w, 1)
        asg = {"r": fwd_sigma(s), 0: eta1(h), 1: eta2_inv_table[g]}
        return lw2.encode(asg)

    # a rule, evaluated at generators only: the next level inverts it
    # through its graph chain, which first proves it a bijective
    # homomorphism; it reaches a certificate only through the final kernel
    # map, which verify_witness proves (on the inner ker1 that map is
    # place(0, kappa^-1(decode(z, 1))))
    kappa_big = Homomorphism.of_rule(ker_pi_big[1].group, ker_pi_big[2].group,
                                     kappa_big_rule, label="kappa_contracted")

    new_isos = {i: comp.kernel_isos[i] for i in range(1, ell - 2 + 1)}
    new_isos[ell - 1] = kappa_big
    new_alphas = {k: v for k, v in comp.alphas.items() if k[0] <= ell - 2}
    new_taus = {k: v for k, v in comp.taus.items() if k[0] <= ell - 2}
    new_comp = CompData(ell - 1, new_isos, new_alphas, new_taus)

    inner = build_good_witness(new_seqs[1], new_seqs[2], new_comp, bounds)

    # evidence that the new top maps are trivially extendable at ker(pi_l)
    pi_ev = [placed_evidence(new_top_maps[d], seqs[d].kernel(ell), "wrapped")
             for d in (1, 2)]

    good_at = (seqs[1].kernel(ell), seqs[2].kernel(ell))
    step_prov = ProvenanceNode(
        "recursion-step",
        info={"level": ell,
              "copies": step.n,
              "g_order": step.g_lims[1].group.order(),
              "h_order": step.hybrids[1].order(),
              "fiber_orders": [lims_w[d].group.order() for d in (1, 2)],
              "next_kernel_orders": [ker_next[1].order(), ker_next[2].order()],
              "contracted_kernel_iso_gen_images": _gen_image_list(kappa_big)},
        checks=list(step.checks))
    return compose_witness(inner, new_top_maps[1], new_top_maps[2],
                           kappa_next, tuple(pi_ev), good_at, bounds,
                           provenance_children=[step_prov])


# ---------------------------------------------------------------------------
# series builders and the top-level entry points


def normal_series(l_group: FiniteGroup, pick, bounds=DEFAULT_BOUNDS):
    """A normal series 1 = N_0 < N_1 < ... < N_l = L with prime factors,
    built bottom-up.

    N_1 = pick(L, bound=bounds.enum) is a normal subgroup of prime order;
    the terms above it are the preimages of the series of L/N_1 under the
    quotient map, built by the same pick.
    """
    chain = [l_group.trivial_subgroup()]
    if l_group.order() == 1:
        return chain
    n = pick(l_group, bound=bounds.enum)
    q, pi = quotient(l_group, n)
    upper = normal_series(q, pick, bounds)
    return chain + [n] + [pi.preimage(t.members()) for t in upper[1:]]


def compatible_central_series(l_group: FiniteGroup, bounds=DEFAULT_BOUNDS):
    """A central series with cyclic prime factors, smallest prime first
    (each pick is central of the smallest prime order in its quotient).
    A group that is not nilpotent is refused: "{label} is not nilpotent".

    Two groups of the same order get series with matching factor lists, so
    the derived sequences are compatible level by level.
    """
    if not l_group.is_nilpotent(bounds.enum):
        raise HypothesisError(f"{l_group.label} is not nilpotent")
    return normal_series(l_group, central_subgroup_of_order_p, bounds)


def square_free_series(l_group: FiniteGroup, bounds=DEFAULT_BOUNDS):
    """Normal series with cyclic factors of decreasing primes: each pick is
    the normal Sylow subgroup for the largest prime of its quotient. Two
    groups of the same square-free order get the same factor list."""
    return normal_series(l_group, normal_sylow, bounds)


def sequences_from_series(l1: FiniteGroup, l2: FiniteGroup, series,
                          bounds=DEFAULT_BOUNDS):
    """The one route from a series choice to the pair of sequences that
    `build_good_witness` and `comp_membership` take (the entry points below
    and the CLI). `series` is a `SERIES` function, run on each group, or the
    pair of chains of a series file. Unequal orders are refused first,
    before any series function runs; a group outside a series' class is
    refused by the series itself. A pair shorter than 2 (a group of prime
    order, or the trivial group) is padded to length 2."""
    if l1.order() != l2.order():
        raise HypothesisError("groups have different orders")
    chains = (series(l1, bounds), series(l2, bounds)) if callable(series) \
        else series
    s1, s2 = (series_to_sequence(l, c) for l, c in zip((l1, l2), chains))
    if s1.length == s2.length < 2:
        s1, s2 = pad_to_length(s1, 2), pad_to_length(s2, 2)
    return s1, s2


def witness_nilpotent(l1: FiniteGroup, l2: FiniteGroup,
                      bounds=DEFAULT_BOUNDS) -> WitnessCertificate:
    """Witness for two nilpotent groups of the same order, via compatible
    central series (the restriction condition is vacuous there), which
    refuse a group that is not nilpotent."""
    return build_good_witness(*sequences_from_series(
        l1, l2, compatible_central_series, bounds), None, bounds)


def witness_square_free(l1: FiniteGroup, l2: FiniteGroup,
                        bounds=DEFAULT_BOUNDS) -> WitnessCertificate:
    """Witness for two groups of the same square-free order."""
    return build_good_witness(*sequences_from_series(
        l1, l2, square_free_series, bounds), None, bounds)


# `--series` name -> the series of one group
SERIES = {"auto-central": compatible_central_series,
          "auto-squarefree": square_free_series}


def assemble_certificate(witness: FiniteGroup, p1: Homomorphism,
                         p2: Homomorphism, good_at,
                         bounds=DEFAULT_BOUNDS) -> WitnessCertificate:
    """Package explicitly given maps as a certificate.

    Kernels are computed, the kernel isomorphism is searched, and
    extendability evidence at the designated subgroups is found by the
    complement search. Intended for hand-built witnesses.
    """
    ker1, ker2 = p1.kernel(bounds.enum), p2.kernel(bounds.enum)
    kernel_iso = find_isomorphism(ker1.group, ker2.group, bounds)
    if kernel_iso is None:
        raise HypothesisError("kernels are not isomorphic")
    evidence = []
    for p, n in ((p1, good_at[0]), (p2, good_at[1])):
        report = is_trivially_extendable(p, n, bounds)
        if not report.ok:
            raise HypothesisError(
                f"{p.label} is not trivially extendable at the designated "
                f"subgroup (fails at order {report.failing.order()})")
        evidence.append(report.evidence)
    prov = ProvenanceNode("hand", info={
        "witness_order": witness.order(),
        "targets": [p1.target.order(), p2.target.order()]})
    return WitnessCertificate(witness, p1, p2, ker1, ker2, kernel_iso,
                              tuple(good_at), tuple(evidence), prov)


# ---------------------------------------------------------------------------
# independent verification


def verify_witness(cert: WitnessCertificate, l1: FiniteGroup,
                   l2: FiniteGroup, bounds=DEFAULT_BOUNDS,
                   rng=None) -> VerificationReport:
    """Re-check a certificate from scratch against the two target groups.

    Every check lands in the report; failures never raise. No check
    samples: p1, p2 and the kernel isomorphism (its table as it stands, or
    the map a rule gives on ker1) are proved by `Homomorphism.validate`,
    which picks the proof by the map's form, and |im f| of a kernel map
    proved by its graph chain is read off that chain. Three are derived:
    `ker-p{d}-matches` from p_d's proof, the kernel's generators and
    |ker_d| = |G|/|im p_d|; `quotient-{d}-isomorphic`, by the first
    isomorphism theorem, from the checks its detail names; and
    `kernel-iso-independent-search` from the three kernel-iso checks when
    all pass. When one fails, that check is a brute-force search of ker1
    against ker2; for a kernel past `bounds.iso` or `bounds.enum` it is
    skipped either way. `rng` is accepted for old callers and unused.
    """
    rep = VerificationReport()
    targets = {1: l1, 2: l2}
    sides = {1: (cert.p1, cert.ker1), 2: (cert.p2, cert.ker2)}
    g_order = cert.witness.order()
    rep.add("witness-order-known", g_order > 0, f"|G| = {g_order}")

    for d in (1, 2):
        p, ker = sides[d]
        try:
            checked = p.validate(bounds)
        except (HypothesisError, UndecidedError) as e:
            rep.add(f"p{d}-homomorphism", False, str(e))
            continue
        off = p.offset
        rep.add(f"p{d}-homomorphism", True,
                f"{checked} edges" if p.table is not None else
                f"generator graph of order {checked} = |G|" if off is None
                else f"block map: {checked} generators keep points "
                f"{off}..{off + p.target.degree - 1}, images in target")
        img = p.image()
        rep.add(f"p{d}-surjective",
                img <= p.target and img.order() == targets[d].order(),
                f"image order {img.order()}")
        if p.target is not targets[d]:
            try:
                rep.add(f"p{d}-target-type", find_isomorphism(
                    p.target, targets[d], bounds) is not None)
            except UndecidedError as e:
                rep.add(f"p{d}-target-type", True, f"skipped: {e}")
        # ker_d <= ker p_d, of the order |ker p_d| = |G|/|im p_d|: equal.
        # Containment is tested first: p_d may be a table on G alone.
        gens = ker.group.generators
        if not all(cert.witness.contains(k) for k in gens):
            rep.add(f"ker-p{d}-matches", False, "a generator is not in G")
        elif any(p(k) != p.target.identity for k in gens):
            rep.add(f"ker-p{d}-matches", False,
                    f"a generator is not in ker p{d}")
        else:
            ok = ker.order() * img.order() == g_order
            rep.add(f"ker-p{d}-matches", ok,
                    f"order {ker.order()} = |G|/|im p{d}|" if ok else
                    f"order {ker.order()}, but |G|/|im p{d}| = "
                    f"{g_order // img.order()}")

    rep.add("order-bookkeeping", cert.order_bookkeeping_ok(),
            f"|G| = {g_order}, "
            f"|ker| = {cert.ker1.order()}, {cert.ker2.order()}")

    # G/ker_d = im p_d = p_d's target, of L_d's type: derived, never rebuilt
    done = {c.name: c for c in rep.checks}
    for d in (1, 2):
        basis = [f"p{d}-homomorphism", f"p{d}-surjective", f"ker-p{d}-matches"]
        if sides[d][0].target is not targets[d]:
            basis.append(f"p{d}-target-type")
        failed = [n for n in basis if n in done and not done[n].passed]
        absent = [n for n in basis if n not in done]
        if failed or absent:
            rep.add(f"quotient-{d}-isomorphic", False, "; ".join(
                f"{what}: {', '.join(names)}"
                for what, names in (("failed", failed), ("absent", absent))
                if names))
        else:
            rep.add(f"quotient-{d}-isomorphic", True, "from " + ", ".join(
                n + " (skipped)" if done[n].skipped else n for n in basis))

    # kernel isomorphism (each check fails on its own, with the error, if
    # evaluating the map raises)
    ki, ker1, ker2 = cert.kernel_iso, cert.ker1, cert.ker2
    if ki.table is None:
        ki = Homomorphism.of_rule(ker1.group, ker2.group, ki, label=ki.label)
    try:
        checked = ki.validate(bounds)
        rep.add("kernel-iso-homomorphism", True,
                "complete edge check" if ki.table is not None else
                f"generator graph of order {checked} = |ker1|")
    except (ValueError, UndecidedError) as e:
        rep.add("kernel-iso-homomorphism", False, str(e))
    # a table keyed by ker1's elements, or |im f| off the graph chain
    keyed = ki.table
    try:
        if keyed is None:
            size = ki.graph_orders()[0]
            detail = "image generates the full kernel (chain orders)"
        elif len(keyed) != ker1.order() or not all(map(ker1.contains, keyed)):
            size, detail = -1, "table not keyed by ker1"
        else:
            size, detail = len(set(keyed.values())), ""
        rep.add("kernel-iso-bijective", size == ker1.order() == ker2.order(),
                detail)
    except ValueError as e:
        rep.add("kernel-iso-bijective", False, str(e))
    try:
        # ker2 within the bound is closed here, so values are set lookups
        if keyed is None:
            values = map(ki, ker1.group.generators)
        else:
            values = keyed.values()
            if ker2.group.is_enumerable(bounds.enum):
                ker2.members(bounds.enum)
        rep.add("kernel-iso-lands-in-ker2", all(map(ker2.contains, values)))
    except ValueError as e:
        rep.add("kernel-iso-lands-in-ker2", False, str(e))

    # ker1 ~ ker2: derived when the three checks above prove the map an
    # isomorphism; searched for when they do not, so a failing certificate
    # still reports whether its kernels are isomorphic at all
    k_order = ker1.order()
    basis = ["kernel-iso-homomorphism", "kernel-iso-bijective",
             "kernel-iso-lands-in-ker2"]
    if k_order > bounds.iso:
        rep.add("kernel-iso-independent-search", True,
                f"skipped: kernel order {k_order} past the isomorphism "
                f"bound {bounds.iso}")
    elif not ker1.group.is_enumerable(bounds.enum):
        rep.add("kernel-iso-independent-search", True,
                f"skipped: kernel order {k_order} past the enumeration "
                f"bound {bounds.enum}")
    elif all(c.passed for c in rep.checks if c.name in basis):
        rep.add("kernel-iso-independent-search", True,
                "from " + ", ".join(basis))
    else:
        found = find_isomorphism(ker1.group, ker2.group, bounds)
        rep.add("kernel-iso-independent-search", found is not None,
                f"brute force at order {k_order}")

    # goodness evidence
    for d in (1, 2):
        n_d = cert.good_at[d - 1]
        ev = cert.evidence[d - 1]
        same = n_d.same_as(ev.n)
        rep.add(f"good-at-{d}-designated", same,
                f"N_{d} order {n_d.order()}")
        p, ker = sides[d]
        result = check_extend_evidence(ev, p, ker,
                                       label=f"good-at-{d}-extendable")
        rep.checks.append(result)
    return rep
