"""Construction and independent verification of compatibility witnesses.

A witness certificate is a group G with surjections p1, p2 onto the two
targets, an explicit isomorphism between their kernels, trivially-extendable
evidence at the designated normal subgroups, and a provenance tree. The
builders realize every kernel isomorphism as an explicit composite of maps
produced by the construction itself; brute-force isomorphism search is kept
for independent cross-checking only.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from .bounds import DEFAULT_BOUNDS, HypothesisError, UndecidedError
from .groups import (
    FiniteGroup,
    Subgroup,
    all_subgroups,
    central_subgroup_of_order_p,
    normal_sylow_and_complement,
)
from .homs import Homomorphism, quotient
from .hybrid import hybrid_wreath
from .inverse_limits import LimitGroup, star_limit, star_system
from .isos import automorphism_set, enumerate_isomorphisms, find_isomorphism
from .perms import closure, inv, mul
from .sequences import GroupSequence, pad_to_length, series_to_sequence


# ---------------------------------------------------------------------------
# check bookkeeping


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


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
            status = "PASS" if c.passed else "FAIL"
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


class ExtendEvidence:
    """Proof material that a surjection pulls subgroups of n back to direct
    products with its kernel: a complement for every subgroup below n."""

    kind = "abstract"

    def __init__(self, pi: Homomorphism, n: Subgroup, kernel_gens):
        self.pi = pi
        self.n = n
        self.kernel_gens = tuple(kernel_gens)

    def complement_for(self, members) -> frozenset:
        raise NotImplementedError

    def _require_below(self, members):
        for m in members:
            if not self.n.contains(m):
                raise HypothesisError("subgroup is not below the designated n")

    def info(self):
        return {"kind": self.kind, "n_order": self.n.order()}


class EnumeratedExtendEvidence(ExtendEvidence):
    """Explicit complement table, e.g. found by search."""

    kind = "enumerated"

    def __init__(self, pi, n, complements, kernel_gens):
        super().__init__(pi, n, kernel_gens)
        self.complements = {frozenset(k): frozenset(v)
                            for k, v in complements.items()}

    def complement_for(self, members):
        key = frozenset(members)
        if key not in self.complements:
            raise HypothesisError("no complement recorded for this subgroup")
        return self.complements[key]


class StarExtendEvidence(ExtendEvidence):
    """For a star-limit branch projection: the complement of a subgroup of
    the branch-map kernel sits at the branch coordinate, identity elsewhere."""

    kind = "star-projection"

    def __init__(self, lim: LimitGroup, branch, n: Subgroup):
        self.lim = lim
        self.branch = branch
        sysm = lim.system
        kernel_gens = []
        ident = {node: sysm.groups[node].identity for node in lim.node_order}
        root = sysm.poset.minimal_nodes()[0]
        for b in lim.node_order:
            if b in (root, branch):
                continue
            for k in sysm.maps[(root, b)].kernel().group.generators:
                asg = dict(ident)
                asg[b] = k
                kernel_gens.append(lim.encode(asg))
        self._ident = ident
        super().__init__(lim.projection(branch), n, kernel_gens)

    def complement_for(self, members):
        self._require_below(members)
        return frozenset(self.place(m) for m in members)

    def place(self, m):
        """The complement element carrying a single kernel value."""
        asg = dict(self._ident)
        asg[self.branch] = m
        return self.lim.encode(asg)


class WrappedExtendEvidence(ExtendEvidence):
    """Transport complements through an injective coordinate placement."""

    kind = "wrapped"

    def __init__(self, inner: ExtendEvidence, wrap, pi, kernel_gens):
        super().__init__(pi, inner.n, kernel_gens)
        self.inner = inner
        self.wrap = wrap

    def complement_for(self, members):
        return frozenset(self.wrap(c) for c in self.inner.complement_for(members))


class ComposedExtendEvidence(ExtendEvidence):
    """Evidence for pi o p from evidence for p (at a larger subgroup) and
    evidence for pi: lift pi's complement through p's complement."""

    kind = "composed"

    def __init__(self, ev_p: ExtendEvidence, ev_pi: ExtendEvidence,
                 p: Homomorphism, pi: Homomorphism, kernel_gens):
        super().__init__(p.then(pi), ev_pi.n, kernel_gens)
        self.ev_p = ev_p
        self.ev_pi = ev_pi
        self.p = p
        self.inner_pi = pi

    def complement_for(self, members):
        self._require_below(members)
        pre = frozenset(self.inner_pi.preimage(members).members())
        c_outer = self.ev_p.complement_for(pre)
        by_value = {self.p(c): c for c in c_outer}
        c_inner = self.ev_pi.complement_for(members)
        return frozenset(by_value[x] for x in c_inner)


@dataclass
class ExtendReport:
    ok: bool
    evidence: ExtendEvidence | None
    failing: Subgroup | None


def is_trivially_extendable(pi: Homomorphism, n: Subgroup,
                            bounds=DEFAULT_BOUNDS) -> ExtendReport:
    """Search for complements certifying pi trivially extendable at n.

    Complements are homomorphic sections landing in the centralizer of the
    kernel, found by backtracking over fiber candidates. Returns either
    evidence covering every subgroup of n, or the first failing subgroup.
    """
    if not pi.source.is_enumerable(bounds.enum):
        raise UndecidedError("extendability search needs an enumerable source")
    if not pi.is_surjective():
        raise HypothesisError("extendability is defined for surjections")
    kernel = pi.kernel()
    kmembers = kernel.members()
    fibers = pi.fibers()
    complements = {}
    budget = 200000
    for m_sub in all_subgroups(n.group, bounds):
        c = _find_complement(pi, m_sub, kmembers, fibers, budget)
        if c is None:
            return ExtendReport(False, None, m_sub)
        complements[m_sub.members()] = c
    ev = EnumeratedExtendEvidence(pi, n, complements,
                                  kernel.group.generators)
    return ExtendReport(True, ev, None)


def _find_complement(pi, m_sub, kmembers, fibers, budget):
    if m_sub.order() == 1:
        return frozenset([pi.source.identity])
    mgens = m_sub.group.generators
    cands = []
    for mg in mgens:
        pool = [x for x in fibers.get(mg, [])
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


def check_extend_evidence(ev: ExtendEvidence, bounds=DEFAULT_BOUNDS,
                          label="extendable") -> CheckResult:
    """Re-check evidence from scratch over every subgroup of its n."""
    try:
        subs = all_subgroups(ev.n.group, bounds)
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
        if {ev.pi(c) for c in comp} != set(members):
            return CheckResult(label, False, "complement does not cover the subgroup")
        if closure(list(comp)) != comp:
            return CheckResult(label, False, "complement is not a subgroup")
        for c in comp:
            for k in ev.kernel_gens:
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

    def sigma(self, i) -> Homomorphism:
        return self.kernel_isos[i]


def _sigma_power(comp_sigma: Homomorphism, delta: int, forward: bool):
    """sigma^(dbar-delta) when forward else sigma^(delta-dbar)."""
    if forward:
        return comp_sigma if delta == 1 else comp_sigma.inverse()
    return comp_sigma.inverse() if delta == 1 else comp_sigma


def _derive_alpha_tau(s_pair, i, sigma, delta, bounds):
    """alpha and tau for level i on side delta, or None if the condition fails.

    For every x in S_{i-1; delta}, the inner twist by tau(x)^-1 on the
    kernel, transported through sigma^(dbar-delta), must extend to an
    automorphism of the other side stabilizing its kernel.
    """
    s_d = s_pair[delta - 1]
    s_bar = s_pair[2 - delta]
    k_d = s_d.kernel(i)
    k_bar = s_bar.kernel(i)
    t = _sigma_power(sigma, delta, forward=True)   # K_delta -> K_bar
    t_inv = t.inverse()
    tau = s_d.map(i).section()
    if tau[s_d.group(i - 1).identity] != s_d.group(i).identity:
        raise HypothesisError("canonical transversal must fix the identity")
    auts = automorphism_set(s_bar.group(i), bounds)
    stab = [a for a in auts
            if all(k_bar.contains(a(k)) for k in k_bar.members())]
    identity_auto = Homomorphism.identity(s_bar.group(i))
    alpha = {}
    for x in s_d.group(i - 1).sorted_elements():
        tx = tau[x]
        if x == s_d.group(i - 1).identity:
            alpha[x] = identity_auto
            continue

        def transported(k, tx=tx):
            return t(mul(mul(inv(tx), t_inv(k)), tx))

        found = None
        for a in stab:
            if all(a(k) == transported(k) for k in k_bar.members()):
                found = a
                break
        if found is None:
            return None
        alpha[x] = found
    return alpha, {x: tau[x] for x in s_d.group(i - 1).sorted_elements()}


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
        k1 = s1.kernel(i)
        base = kernel_isos[i]
        found = None
        for aut in enumerate_isomorphisms(k1.group, k1.group, bounds):
            sigma = aut.then(base)
            data1 = _derive_alpha_tau((s1, s2), i, sigma, 1, bounds)
            if data1 is None:
                continue
            data2 = _derive_alpha_tau((s1, s2), i, sigma, 2, bounds)
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
    mode: str = "enumerated"

    @property
    def targets(self):
        return (self.p1.target, self.p2.target)

    def order_bookkeeping_ok(self):
        o = self.witness.order()
        return (o == self.p1.target.order() * self.ker1.order()
                == self.p2.target.order() * self.ker2.order())


def build_witness_length2(s1: GroupSequence, s2: GroupSequence,
                          comp: CompData | None = None,
                          bounds=DEFAULT_BOUNDS) -> WitnessCertificate:
    """Base case: the fiber of the two tops over the common bottom group.

    The star has root S_{1;2} with the side-1 branch twisted through the
    level-1 kernel isomorphism; kernels of the projections are the opposite
    branch kernels, bridged by the level-2 kernel isomorphism.
    """
    if s1.length != 2 or s2.length != 2:
        raise HypothesisError("length-2 builder needs length-2 sequences")
    comp = comp or comp_membership(s1, s2, bounds)
    if comp is None:
        raise HypothesisError("pair fails the restriction condition")
    sigma1 = comp.kernel_isos[1]
    root = s2.group(1)
    into_root = Homomorphism.of_rule(sigma1.source, root, sigma1,
                                     label="sigma1")
    branch1 = s1.map(2).then(into_root, label="sigma*pi")
    branch2 = s2.map(2)
    system = star_system(root, [s1.top, s2.top], [branch1, branch2])
    lim = star_limit(system, bounds)
    p1, p2 = lim.projection(0), lim.projection(1)

    k_pi21 = s1.kernel(2)
    k_pi22 = s2.kernel(2)
    ident_asg = {n: lim.system.groups[n].identity for n in lim.node_order}

    def embed1(y):
        asg = dict(ident_asg)
        asg[1] = y
        return lim.encode(asg)

    def embed0(x):
        asg = dict(ident_asg)
        asg[0] = x
        return lim.encode(asg)

    ker1 = Subgroup(lim.group,
                    gens=[embed1(k) for k in k_pi22.group.generators] or None,
                    members=frozenset(embed1(y) for y in k_pi22.members()),
                    label="ker p1")
    ker2 = Subgroup(lim.group,
                    gens=[embed0(k) for k in k_pi21.group.generators] or None,
                    members=frozenset(embed0(x) for x in k_pi21.members()),
                    label="ker p2")
    kappa2_inv = comp.kernel_isos[2].inverse()
    kernel_iso = Homomorphism(
        ker1.group, ker2.group, label="kernel-iso",
        table={embed1(y): embed0(kappa2_inv(y)) for y in k_pi22.members()})
    if len(set(kernel_iso.tabulated().values())) != k_pi22.order():
        raise HypothesisError("length-2 kernel identification not injective")

    n1 = k_pi21
    n2 = k_pi22
    ev1 = StarExtendEvidence(lim, 0, n1)
    ev2 = StarExtendEvidence(lim, 1, n2)

    prov = ProvenanceNode(
        "length2",
        info={"witness_order": lim.group.order(),
              "targets": [s1.top.order(), s2.top.order()],
              "kernel_orders": [ker1.order(), ker2.order()],
              "kernel_iso_gen_images": _gen_image_list(kernel_iso)},
        checks=[CheckResult("fiber-order", lim.group.order()
                            * root.order() == s1.top.order() * s2.top.order())])
    mode = "enumerated" if lim.group.is_enumerable(bounds.enum) else "stretch"
    return WitnessCertificate(lim.group, p1, p2, ker1, ker2, kernel_iso,
                              (n1, n2), (ev1, ev2), prov, mode)


def _gen_image_list(h: Homomorphism):
    return [[list(g), list(h(g))] for g in h.source.generators]


@dataclass
class RecursionStep:
    """The per-side objects of one unfolding of the recursion."""

    n: int
    x_lists: dict           # delta -> canonical elements of S_{l-2;delta}
    g_lims: dict            # delta -> LimitGroup (star of twisted top copies)
    rho: dict               # delta -> Homomorphism G_delta -> S_{l;delta}
    t_subs: dict            # delta -> Subgroup of S_{l;delta}
    thetas: dict            # delta -> Homomorphism
    hybrids: dict           # delta -> HybridWreath
    phis: dict              # delta -> standard maps
    eta: dict               # delta -> Homomorphism BW_delta -> limZ_{bar} <= G_bar
    lim_z_members: dict     # delta -> frozenset inside G_delta
    checks: list = field(default_factory=list)


def build_recursion_step(s1: GroupSequence, s2: GroupSequence, comp: CompData,
                         bounds=DEFAULT_BOUNDS) -> RecursionStep:
    """The twisted-star and hybrid-wreath objects for the top level.

    Asserts: the branch projections are surjective and trivially extendable
    at the top kernel, the base-subgroup identifications are bijective, and
    the two kernel squares commute.
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

    g_lims, rhos, t_subs, thetas, hybrids, phis = {}, {}, {}, {}, {}, {}
    for d in (1, 2):
        bar = 3 - d
        seq = seqs[d]
        alpha = comp.alphas[(ell - 1, d)]
        branch_maps = []
        for x in x_lists[bar]:
            branch_maps.append(seq.map(ell).then(alpha[x],
                                                 label=f"alpha*pi@{x}"))
        system = star_system(seq.group(ell - 1), [seq.top] * n, branch_maps)
        lim = star_limit(system, bounds)
        g_lims[d] = lim
        rhos[d] = lim.projection(0)
        comp_map = seq.map(ell).then(seq.map(ell - 1))
        t_subs[d] = comp_map.kernel()

    for d in (1, 2):
        bar = 3 - d
        seq = seqs[d]
        k_d = seq.kernel(ell - 1)
        k_bar = seqs[bar].kernel(ell - 1)
        t_bar = t_subs[bar]
        pi_bar_restr = seqs[bar].map(ell).restrict(t_bar, k_bar)
        back = _sigma_power(sigma, d, forward=False)  # K_bar -> K_d
        incl = Homomorphism.inclusion(k_d)
        thetas[d] = pi_bar_restr.then(back).then(incl, label=f"theta_{d}")
        tau = comp.taus[(ell - 1, d)]
        reps = [tau[x] for x in x_lists[d]]
        hw = hybrid_wreath(t_bar.group, seq.group(ell - 1), thetas[d],
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

    lim_z_members = {}
    for d in (1, 2):
        k_d = seqs[d].kernel(ell - 1)
        root_proj = g_lims[d].projection("r")
        lim_z_members[d] = frozenset(
            w for w in g_lims[d].group.elements()
            if k_d.contains(root_proj(w)))

    etas = {}
    for d in (1, 2):
        bar = 3 - d
        hw = hybrids[d]
        fwd = _sigma_power(sigma, d, forward=True)    # K_d -> K_bar
        lim_bar = g_lims[bar]
        table = {}
        for w in hw.base.members():
            base, _ = hw.decode(w)
            asg = {"r": fwd(phis[d](w))}
            for k in range(n):
                asg[k] = base[k]
            table[w] = lim_bar.encode(asg)
        eta = Homomorphism(hw.base.group, lim_bar.group, table=table,
                           label=f"eta_{d}")
        image = set(table.values())
        if len(image) != len(table) or image != lim_z_members[bar]:
            raise HypothesisError("eta is not a bijection onto the kernel system")
        etas[d] = eta
        checks.append(CheckResult(f"eta_{d}-bijective", True,
                                  f"order {len(table)}"))

    # commuting squares: sigma^(bar-d) o phi_d = (pi_l o rho_bar) o eta_d
    for d in (1, 2):
        bar = 3 - d
        fwd = _sigma_power(sigma, d, forward=True)
        hw = hybrids[d]
        bottom = g_lims[bar].projection(0).then(seqs[bar].map(ell))
        ok = all(fwd(phis[d](w)) == bottom(etas[d](w))
                 for w in hw.base.members())
        checks.append(CheckResult(f"square_{d}-commutes", ok))
        if not ok:
            raise HypothesisError(f"kernel square {d} does not commute")

    return RecursionStep(n, x_lists, g_lims, rhos, t_subs, thetas, hybrids,
                         phis, etas, lim_z_members, checks)


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
    kpi = {1: pi1.kernel(), 2: pi2.kernel()}
    for d in (1, 2):
        p, _ = certs[d]
        n_d = cert.good_at[d - 1]
        for k in kpi[d].group.generators:
            if not n_d.contains(k):
                raise HypothesisError(
                    "certificate goodness does not cover ker(pi)")
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
        p, kerp = certs[d]
        gens = list(kerp.group.generators)
        gens += [lifts[d][m] for m in kpi[d].group.generators]
        total = kerp.order() * kpi[d].order()
        members = None
        if total <= bounds.enum and kerp.group.is_enumerable(bounds.enum):
            members = frozenset(mul(lifts[d][m], k)
                                for m in kpi[d].members()
                                for k in kerp.members())
            if len(members) != total:
                raise HypothesisError("kernel decomposition is not direct")
        sub = Subgroup(cert.witness, gens=gens, members=members,
                       label=f"ker q_{d}")
        if members is None and sub.group.order() != total:
            raise HypothesisError("kernel generators have wrong order")
        new_kers[d] = sub

    kappa_g = cert.kernel_iso
    p1c, ker1c = certs[1]
    p2c, ker2c = certs[2]

    lift1_inv = {m: inv(c) for m, c in lifts[1].items()}  # inverted once

    def new_iso_rule(z):
        m = p1c(z)
        k = mul(lift1_inv[m], z)
        return mul(lifts[2][kappa_pi(m)], kappa_g(k))

    if new_kers[1].group.is_enumerable(bounds.enum):
        table = {z: new_iso_rule(z) for z in new_kers[1].members()}
        new_iso = Homomorphism(new_kers[1].group, new_kers[2].group,
                               table=table, label="kernel-iso")
        if len(set(table.values())) != len(table):
            raise HypothesisError("composed kernel map is not injective")
    else:
        new_iso = Homomorphism.of_rule(new_kers[1].group, new_kers[2].group,
                                       new_iso_rule, label="kernel-iso")

    new_evidence = []
    for d in (1, 2):
        ev = ComposedExtendEvidence(
            cert.evidence[d - 1], pi_evidence[d - 1], certs[d][0], pis[d],
            kernel_gens=new_kers[d].group.generators)
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
                              tuple(new_evidence), prov, cert.mode)


def build_good_witness(s1: GroupSequence, s2: GroupSequence,
                       comp: CompData | None = None,
                       bounds=DEFAULT_BOUNDS) -> WitnessCertificate:
    """The recursive construction: base fiber at length 2, else one
    recursion step, a recursive call on the contracted pair, and the
    quotient composition."""
    if s1.length != s2.length:
        raise HypothesisError("sequences have different lengths")
    if s1.length < 2:
        s1, s2 = pad_to_length(s1, 2), pad_to_length(s2, 2)
        comp = None
    if comp is None:
        comp = comp_membership(s1, s2, bounds)
        if comp is None:
            raise HypothesisError("pair fails the restriction condition")
    ell = s1.length
    if ell == 2:
        return build_witness_length2(s1, s2, comp, bounds)

    seqs = {1: s1, 2: s2}
    step = build_recursion_step(s1, s2, comp, bounds)
    new_tops, new_top_maps, contracted_maps = {}, {}, {}
    lims_w = {}
    for d in (1, 2):
        seq = seqs[d]
        root = seq.group(ell - 1)
        g_part = step.g_lims[d].projection("r")
        system = star_system(root, [step.g_lims[d].group, step.hybrids[d].group],
                             [g_part, step.phis[d]])
        lw = star_limit(system, bounds)
        lims_w[d] = lw
        new_tops[d] = lw.group
        new_top_maps[d] = lw.projection(0).then(step.rho[d],
                                                label=f"pi_next_{d}")
        contracted_maps[d] = lw.projection("r").then(seq.map(ell - 1),
                                                     label=f"Pi_{d}")

    # kernel of the new top map, as an internal direct product
    ker_next, a_parts, b_parts = {}, {}, {}
    for d in (1, 2):
        lw = lims_w[d]
        ident_asg = {n: lw.system.groups[n].identity for n in lw.node_order}
        ker_rho = step.rho[d].kernel()
        ker_phi = step.phis[d].kernel()

        def wrap_g(g, lw=lw, ident_asg=ident_asg):
            asg = dict(ident_asg)
            asg[0] = g
            return lw.encode(asg)

        def wrap_h(h, lw=lw, ident_asg=ident_asg):
            asg = dict(ident_asg)
            asg[1] = h
            return lw.encode(asg)

        members = frozenset(mul(wrap_g(g), wrap_h(h))
                            for g in ker_rho.members()
                            for h in ker_phi.members())
        gens = [wrap_g(g) for g in ker_rho.group.generators] \
            + [wrap_h(h) for h in ker_phi.group.generators]
        ker_next[d] = Subgroup(new_tops[d], gens=gens or None, members=members,
                               label=f"ker pi_next_{d}")
        a_parts[d] = (wrap_g, ker_rho)
        b_parts[d] = (wrap_h, ker_phi)

    # the explicit kernel isomorphism chain for the new top maps
    sigma_l = comp.kernel_isos[ell]
    star_ev = {d: StarExtendEvidence(step.g_lims[d], 0, seqs[d].kernel(ell))
               for d in (1, 2)}

    def c_of(d, m):
        return star_ev[d].place(m)

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
        k2 = mul(inv(c_of(2, m2)), z2)
        m1 = kappa_l_inv(m2)
        z1 = mul(c_of(1, m1), g)
        h2 = eta2_inv_table[z1]
        asg = {n: lw2.system.groups[n].identity for n in lw2.node_order}
        asg[0] = k2
        asg[1] = h2
        return lw2.encode(asg)

    kappa_next_table = {w: kappa_next_rule(w) for w in ker_next[1].members()}
    kappa_next = Homomorphism(ker_next[1].group, ker_next[2].group,
                              table=kappa_next_table, label="kappa_next")
    if len(set(kappa_next_table.values())) != len(kappa_next_table):
        raise HypothesisError("new top kernel map is not injective")

    # contracted pair for the recursive call
    new_seqs, kappa_contracted = {}, None
    for d in (1, 2):
        seq = seqs[d]
        groups = seq.groups[:ell - 1] + [new_tops[d]]
        maps = seq.maps[:ell - 2] + [contracted_maps[d]]
        new_seqs[d] = GroupSequence(groups, maps)

    ker_pi_big = {d: contracted_maps[d].kernel() for d in (1, 2)}
    fwd_sigma = comp.kernel_isos[ell - 1]

    def kappa_big_rule(w):
        lw1, lw2 = lims_w[1], lims_w[2]
        s = lw1.decode(w, "r")
        g = lw1.decode(w, 0)
        h = lw1.decode(w, 1)
        asg = {"r": fwd_sigma(s), 0: eta1(h), 1: eta2_inv_table[g]}
        return lw2.encode(asg)

    kappa_big_table = {w: kappa_big_rule(w) for w in ker_pi_big[1].members()}
    kappa_big = Homomorphism(ker_pi_big[1].group, ker_pi_big[2].group,
                             table=kappa_big_table, label="kappa_contracted")
    if len(set(kappa_big_table.values())) != len(kappa_big_table):
        raise HypothesisError("contracted kernel map is not injective")

    new_isos = {i: comp.kernel_isos[i] for i in range(1, ell - 2 + 1)}
    new_isos[ell - 1] = kappa_big
    new_alphas = {k: v for k, v in comp.alphas.items() if k[0] <= ell - 2}
    new_taus = {k: v for k, v in comp.taus.items() if k[0] <= ell - 2}
    new_comp = CompData(ell - 1, new_isos, new_alphas, new_taus)

    inner = build_good_witness(new_seqs[1], new_seqs[2], new_comp, bounds)

    # evidence that the new top maps are trivially extendable at ker(pi_l)
    pi_ev = []
    for d in (1, 2):
        lw = lims_w[d]
        ident_asg = {n: lw.system.groups[n].identity for n in lw.node_order}

        def wrap(c, lw=lw, ident_asg=ident_asg):
            asg = dict(ident_asg)
            asg[0] = c
            return lw.encode(asg)

        pi_ev.append(WrappedExtendEvidence(
            star_ev[d], wrap, new_top_maps[d],
            kernel_gens=ker_next[d].group.generators))

    good_at = (seqs[1].kernel(ell), seqs[2].kernel(ell))
    step_prov = ProvenanceNode(
        "recursion-step",
        info={"level": ell,
              "copies": step.n,
              "g_order": step.g_lims[1].group.order(),
              "h_order": step.hybrids[1].order(),
              "fiber_orders": [new_tops[1].order(), new_tops[2].order()],
              "next_kernel_orders": [ker_next[1].order(), ker_next[2].order()],
              "contracted_kernel_iso_gen_images": _gen_image_list(kappa_big)},
        checks=list(step.checks))
    return compose_witness(inner, new_top_maps[1], new_top_maps[2],
                           kappa_next, tuple(pi_ev), good_at, bounds,
                           provenance_children=[step_prov])


# ---------------------------------------------------------------------------
# series builders and the top-level entry points


def compatible_central_series(l_group: FiniteGroup, bounds=DEFAULT_BOUNDS):
    """A central series with cyclic prime factors, smallest prime first.

    Two groups of the same order get series with matching factor lists, so
    the derived sequences are compatible level by level.
    """
    chain = [l_group.trivial_subgroup()]
    if l_group.order() == 1:
        return chain
    p = _smallest_prime(l_group.order())
    c = central_subgroup_of_order_p(l_group, p, bounds.enum)
    q, pi = quotient(l_group, c)
    upper = compatible_central_series(q, bounds)
    chain.append(c)
    for term in upper[1:]:
        chain.append(pi.preimage(term.members()))
    return chain


def _smallest_prime(n):
    d = 2
    while n % d:
        d += 1
    return d


def square_free_series(l_group: FiniteGroup, bounds=DEFAULT_BOUNDS):
    """Normal series with cyclic factors of decreasing primes, via the
    normal Sylow subgroup for the largest prime at each stage."""
    chain = [l_group.trivial_subgroup()]
    if l_group.order() == 1:
        return chain
    sylow, _comp = normal_sylow_and_complement(l_group, bounds.enum)
    q, pi = quotient(l_group, sylow)
    upper = square_free_series(q, bounds)
    chain.append(sylow)
    for term in upper[1:]:
        chain.append(pi.preimage(term.members()))
    return chain


def witness_nilpotent(l1: FiniteGroup, l2: FiniteGroup,
                      bounds=DEFAULT_BOUNDS) -> WitnessCertificate:
    """Witness for two nilpotent groups of the same order, via compatible
    central series (the restriction condition is vacuous there)."""
    if l1.order() != l2.order():
        raise HypothesisError("groups have different orders")
    for g in (l1, l2):
        if not g.is_nilpotent(bounds.enum):
            raise HypothesisError(f"{g.label} is not nilpotent")
    s1 = series_to_sequence(l1, compatible_central_series(l1, bounds))
    s2 = series_to_sequence(l2, compatible_central_series(l2, bounds))
    return build_good_witness(s1, s2, None, bounds)


def witness_square_free(l1: FiniteGroup, l2: FiniteGroup,
                        bounds=DEFAULT_BOUNDS) -> WitnessCertificate:
    """Witness for two groups of the same square-free order."""
    if l1.order() != l2.order():
        raise HypothesisError("groups have different orders")
    s1 = series_to_sequence(l1, square_free_series(l1, bounds))
    s2 = series_to_sequence(l2, square_free_series(l2, bounds))
    return build_good_witness(s1, s2, None, bounds)


def assemble_certificate(witness: FiniteGroup, p1: Homomorphism,
                         p2: Homomorphism, good_at, kernel_iso=None,
                         bounds=DEFAULT_BOUNDS,
                         kind="hand") -> WitnessCertificate:
    """Package explicitly given maps as a certificate.

    Kernels are computed, the kernel isomorphism is searched when not given,
    and extendability evidence at the designated subgroups is found by the
    complement search. Intended for hand-built witnesses and imports.
    """
    ker1, ker2 = p1.kernel(), p2.kernel()
    if kernel_iso is None:
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
    prov = ProvenanceNode(kind, info={
        "witness_order": witness.order(),
        "targets": [p1.target.order(), p2.target.order()]})
    return WitnessCertificate(witness, p1, p2, ker1, ker2, kernel_iso,
                              tuple(good_at), tuple(evidence), prov,
                              "enumerated")


# ---------------------------------------------------------------------------
# independent verification


def verify_witness(cert: WitnessCertificate, l1: FiniteGroup,
                   l2: FiniteGroup, bounds=DEFAULT_BOUNDS,
                   rng=None) -> VerificationReport:
    """Re-check a certificate from scratch against the two target groups.

    Every check lands in the report; failures never raise. Enumerable
    witnesses get complete checks; generator-based ones get the
    generator-plus-samples regime with order arithmetic from stabilizer
    chains.
    """
    rng = rng or random.Random(20240801)
    rep = VerificationReport()
    targets = {1: l1, 2: l2}
    sides = {1: (cert.p1, cert.ker1), 2: (cert.p2, cert.ker2)}
    enumerable = cert.witness.is_enumerable(bounds.enum)
    rep.add("witness-order-known", cert.witness.order() > 0,
            f"|G| = {cert.witness.order()}")

    for d in (1, 2):
        p, ker = sides[d]
        try:
            n_pairs = p.validate(bounds, rng)
            rep.add(f"p{d}-homomorphism", True, f"{n_pairs} pairs/edges")
        except HypothesisError as e:
            rep.add(f"p{d}-homomorphism", False, str(e))
            continue
        img = p.image()
        rep.add(f"p{d}-surjective",
                img <= p.target and img.order() == targets[d].order(),
                f"image order {img.order()}")
        iso_t = None
        if p.target is not targets[d]:
            try:
                iso_t = find_isomorphism(p.target, targets[d], bounds)
                rep.add(f"p{d}-target-type", iso_t is not None)
            except UndecidedError as e:
                rep.add(f"p{d}-target-type", True, f"skipped: {e}")
        # kernel recomputed independently where possible
        if enumerable:
            ker_indep = frozenset(x for x in cert.witness.elements(bounds.enum)
                                  if p(x) == p.target.identity)
            rep.add(f"ker-p{d}-matches", ker_indep == ker.members(),
                    f"order {len(ker_indep)}")
        else:
            ok = all(p(k) == p.target.identity
                     for k in ker.group.generators)
            expected = cert.witness.order() // targets[d].order()
            rep.add(f"ker-p{d}-matches",
                    ok and ker.order() == expected,
                    f"order {ker.order()} (stretch: generators + chain order)")

    rep.add("order-bookkeeping", cert.order_bookkeeping_ok(),
            f"|G| = {cert.witness.order()}, "
            f"|ker| = {cert.ker1.order()}, {cert.ker2.order()}")

    # quotient isomorphism type, re-derived when sizes permit
    for d in (1, 2):
        p, ker = sides[d]
        if enumerable and cert.witness.order() // ker.order() <= bounds.iso:
            try:
                q, _ = quotient(cert.witness, ker)
                found = find_isomorphism(q, targets[d], bounds)
                rep.add(f"quotient-{d}-isomorphic", found is not None,
                        f"independent coset-action quotient, order {q.order()}")
            except (UndecidedError, HypothesisError) as e:
                rep.add(f"quotient-{d}-isomorphic", False, str(e))
        else:
            rep.add(f"quotient-{d}-isomorphic", True,
                    "stretch: certified-map regime (surjectivity + orders)")

    # kernel isomorphism: the certificate's map, then an independent search
    ki = cert.kernel_iso
    try:
        if cert.ker1.group.is_enumerable(bounds.enum):
            injective = len(set(ki.tabulated().values())) == cert.ker1.order()
            ki.check_table_edges()
            rep.add("kernel-iso-homomorphism", True, "complete edge check")
            rep.add("kernel-iso-bijective",
                    injective and cert.ker1.order() == cert.ker2.order())
            covered = all(cert.ker2.contains(v)
                          for v in ki.tabulated().values())
            rep.add("kernel-iso-lands-in-ker2", covered)
        else:
            for a in cert.ker1.group.generators:
                for b in cert.ker1.group.generators:
                    if ki(mul(a, b)) != mul(ki(a), ki(b)):
                        raise HypothesisError("kernel map breaks on generators")
            for _ in range(bounds.sample):
                a = cert.ker1.group.random_element(rng)
                b = cert.ker1.group.random_element(rng)
                if ki(mul(a, b)) != mul(ki(a), ki(b)):
                    raise HypothesisError("kernel map breaks on a sample")
            rep.add("kernel-iso-homomorphism", True,
                    f"generators + {bounds.sample} samples")
            image_gens = [ki(g) for g in cert.ker1.group.generators]
            img_group = FiniteGroup(cert.ker2.group.degree, image_gens, "im")
            rep.add("kernel-iso-bijective",
                    img_group.order() == cert.ker2.order()
                    == cert.ker1.order(),
                    "image generates the full kernel (chain orders)")
            rep.add("kernel-iso-lands-in-ker2",
                    all(cert.ker2.contains(v) for v in image_gens))
    except HypothesisError as e:
        rep.add("kernel-iso-homomorphism", False, str(e))

    if cert.ker1.order() <= bounds.iso \
            and cert.ker1.group.is_enumerable(bounds.enum):
        found = find_isomorphism(cert.ker1.group, cert.ker2.group, bounds)
        rep.add("kernel-iso-independent-search", found is not None,
                f"brute force at order {cert.ker1.order()}")
    else:
        rep.add("kernel-iso-independent-search", True,
                f"skipped: kernel order {cert.ker1.order()} past bound")

    # goodness evidence
    for d in (1, 2):
        n_d = cert.good_at[d - 1]
        ev = cert.evidence[d - 1]
        same = n_d.same_as(ev.n)
        rep.add(f"good-at-{d}-designated", same,
                f"N_{d} order {n_d.order()}")
        result = check_extend_evidence(ev, bounds,
                                       label=f"good-at-{d}-extendable")
        rep.checks.append(result)
    return rep
