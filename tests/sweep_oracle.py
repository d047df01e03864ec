"""Reference implementation of the sublevel-set queries: an ascending sweep
that keeps a full component snapshot after every level cluster.

This is the decomposition as it stood before ``metastab.topology`` read
everything off one merge tree. The functions below are kept verbatim as a
differential oracle, with components as frozensets of minimum ids; the
data types of that time and ``_build_class`` are copied here as well, so
the oracle imports nothing from ``metastab.topology``. ``Levels`` rebuilds
the level clusters from the critical values, so the oracle shares no
cluster lookup with the package.
"""

import math
from bisect import bisect_left, bisect_right
from typing import NamedTuple

import numpy as np

from metastab.errors import InputDataError, InvariantViolation

INF = math.inf


class Levels:
    """The level clusters of a structure: sorted critical values chained by
    gaps of at most the level tolerance, numbered from the lowest, each
    represented by the NumPy mean of its values, replaced by the nearer
    end of the span when it rounds outside."""

    def __init__(self, cs):
        vals = sorted([m.phi for m in cs.minima] + [s.phi for s in cs.saddles])
        self.eps = cs.level_tolerance
        self.spans, self.reps = [], []
        start = 0
        for i in range(1, len(vals) + 1):
            if i == len(vals) or vals[i] - vals[i - 1] > self.eps:
                self.spans.append((vals[start], vals[i - 1]))
                mean = float(np.mean(vals[start:i]))
                lo, hi = self.spans[-1]
                self.reps.append(lo if mean < lo else hi if mean > hi else mean)
                start = i
        self.lows = [lo for lo, _ in self.spans]
        self.tops = [hi for _, hi in self.spans]

    def of(self, value):
        """The cluster whose span holds the critical value ``value``."""
        k = bisect_right(self.lows, value) - 1
        lo, hi = self.spans[k]
        assert lo <= value <= hi, (value, self.spans[k])
        return k

    def below(self, level):
        """The number of clusters that lie wholly below ``level`` by more
        than the tolerance."""
        return bisect_left(self.tops, level - self.eps)

    def rep(self, k):
        return self.reps[k]

    def __len__(self):
        return len(self.reps)


def levels(cs):
    lv = getattr(cs, "_oracle_levels", None)
    if lv is None:
        lv = cs._oracle_levels = Levels(cs)
    return lv


class Labelling(NamedTuple):
    mbar: str
    sigma: dict            # minimum id -> representative ssv value (inf for mbar)
    sigma_cluster: dict    # minimum id -> level cluster of sigma (None for mbar)
    S: dict                # minimum id -> barrier sigma(m) - phi(m)
    E: dict                # minimum id -> component of {phi < sigma(m)} holding m
    index: dict            # minimum id -> (i, j) assignment order
    prev_cluster: dict     # minimum id -> cluster of the next ssv above (None = inf)
    ssv_clusters: tuple    # ssv level clusters, descending


class Maps(NamedTuple):
    Eminus: dict   # id -> component of {phi < previous ssv} holding m
    mhat: dict     # id -> the reference minimum of the enclosing component
    Ehat: dict     # id -> component of {phi < sigma(m)} holding mhat
    H: dict        # id -> minima of E(m) at the level of m
    type2: dict    # id -> True iff phi(mhat(m)) equals phi(m)


class SaddleRow(NamedTuple):
    sid: str
    m1: str        # the member-side endpoint, phi(m1) >= phi(m2)
    m2: str        # other endpoint; equals the class reference minimum on
                   # boundary rows
    boundary: bool


class EquivClass:
    """One equivalence class of minima sharing a saddle value.

    ``uhat_blocks`` partitions the extended set (members plus, for type II,
    the reference minimum) by barrier height, smallest barrier first;
    ``member_blocks`` is the same partition without the reference minimum.
    ``saddles`` is populated by partition_saddles.
    """

    def __init__(self, members, sigma, sigma_cluster, mhat, Ehat, type2,
                 member_blocks, uhat_blocks, block_S, ground=False):
        self.members = tuple(members)
        self.sigma = sigma
        self.sigma_cluster = sigma_cluster
        self.mhat = mhat
        self.Ehat = Ehat
        self.type2 = type2
        self.member_blocks = tuple(tuple(b) for b in member_blocks)
        self.uhat_blocks = tuple(tuple(b) for b in uhat_blocks)
        self.block_S = tuple(block_S)
        self.ground = ground
        self.saddles = ()

    @property
    def q(self):
        return len(self.members)

    @property
    def p(self):
        return len(self.member_blocks)

    @property
    def member_order(self):
        return tuple(x for b in self.member_blocks for x in b)

    @property
    def uhat(self):
        return tuple(x for b in self.uhat_blocks for x in b)

    def __repr__(self):
        kind = "ground" if self.ground else ("II" if self.type2 else "I")
        return f"EquivClass({','.join(self.members)}; {kind})"


class ClassDecomposition(NamedTuple):
    classes: tuple
    labelling: Labelling
    maps: Maps

    @property
    def ground(self):
        return self.classes[0]


def _build_class(cs, lab, maps, members, k):
    L = levels(cs)
    hats = {maps.mhat[m] for m in members}
    if len(hats) != 1:
        raise InvariantViolation(
            f"reference minimum not constant on class {members}: {sorted(hats)}")
    mhat = hats.pop()
    ehats = {maps.Ehat[m] for m in members}
    if len(ehats) != 1:
        raise InvariantViolation(
            f"enclosing component not constant on class {members}")
    type2 = any(maps.type2[m] for m in members)
    hat_cluster = L.of(cs.minimum(mhat).phi)
    for m in members:
        expect = L.of(cs.minimum(m).phi) == hat_cluster
        if maps.type2[m] != expect:
            raise InvariantViolation(f"type of {m} inconsistent with its level")
    # blocks by barrier height, smallest barrier (= highest member) first
    clusters = sorted({L.of(cs.minimum(m).phi) for m in members}, reverse=True)
    member_blocks = [
        tuple(sorted(m for m in members if L.of(cs.minimum(m).phi) == c))
        for c in clusters
    ]
    uhat_blocks = [list(b) for b in member_blocks]
    if type2:
        if clusters[-1] != hat_cluster:
            raise InvariantViolation(
                f"type II class {members} lowest block is not at the "
                "reference level")
        uhat_blocks[-1].append(mhat)
    sigma = L.rep(k)
    block_S = [sigma - L.rep(c) for c in clusters]
    if any(b2 <= b1 for b1, b2 in zip(block_S, block_S[1:])):
        raise InvariantViolation("barriers not strictly increasing over blocks")
    return EquivClass(members, sigma, k, mhat, maps.Ehat[members[0]],
                      type2, member_blocks, uhat_blocks, block_S)


class _DSU:
    """Union-find keeping the lexicographically smallest id as the root."""

    def __init__(self):
        self.parent = {}

    def add(self, x):
        if x not in self.parent:
            self.parent[x] = x

    def find(self, x):
        r = x
        while self.parent[r] != r:
            r = self.parent[r]
        while self.parent[x] != r:
            self.parent[x], x = r, self.parent[x]
        return r

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra


class Sweep:
    """Ascending merge sweep with a component snapshot after every level.

    ``after[k]`` maps each minimum of cluster <= k to the root (smallest id)
    of its component in the sublevel set just above cluster k. The state
    strictly below cluster k is therefore ``after[k-1]``.
    """

    def __init__(self, cs):
        self.cs = cs
        L = levels(cs)
        n = len(L)
        self.minima_at = [[] for _ in range(n)]
        self.saddles_at = [[] for _ in range(n)]
        for m in cs.minima:
            self.minima_at[L.of(m.phi)].append(m.id)
        for s in cs.saddles:
            self.saddles_at[L.of(s.phi)].append(s.id)
        dsu = _DSU()
        self.after = []
        self.nonseparating = []
        for k in range(n):
            below = self.after[k - 1] if k else {}
            for mid in self.minima_at[k]:
                dsu.add(mid)
            for sid in self.saddles_at[k]:
                a, b = cs.saddle(sid).joins
                if below.get(a) is not None and below.get(a) == below.get(b):
                    self.nonseparating.append(sid)
                dsu.union(a, b)
            self.after.append({mid: dsu.find(mid) for mid in dsu.parent})

    def state_below(self, k):
        return self.after[k - 1] if k > 0 else {}

    def root_below(self, k, mid):
        return self.state_below(k)[mid]

    def comp_below(self, k, mid):
        state = self.state_below(k)
        r = state[mid]
        return frozenset(x for x, rx in state.items() if rx == r)

    def components_below(self, k):
        comps = {}
        for mid, r in self.state_below(k).items():
            comps.setdefault(r, set()).add(mid)
        return {r: frozenset(v) for r, v in comps.items()}


def _sweep(cs):
    sw = getattr(cs, "_sweep_cache", None)
    if sw is None:
        sw = Sweep(cs)
        cs._sweep_cache = sw
    return sw


def verify_separating(cs):
    """Reject saddles whose two sides are already connected strictly below.

    Such a point does not separate its sublevel component, so listing it as a
    separating saddle is an input error. Also rejects a landscape whose
    minima do not end up in a single component, since the labelling needs a
    connected space.
    """
    sw = _sweep(cs)
    if sw.nonseparating:
        raise InputDataError(
            f"saddle {sw.nonseparating[0]} joins minima already connected "
            "below its level")
    final = sw.after[-1] if sw.after else {}
    if len(set(final.values())) > 1:
        raise InputDataError("landscape is not connected")


def sublevel_components(cs, level):
    """Partition of {m : phi(m) < level} into sublevel-set components.

    Returns a list of frozensets of minimum ids, sorted by smallest member.
    ``level`` may be +inf.
    """
    cut = levels(cs).below(level)
    sw = _sweep(cs)
    state = sw.after[cut - 1] if cut > 0 else {}
    comps = {}
    for mid, r in state.items():
        comps.setdefault(r, set()).add(mid)
    return [frozenset(comps[r]) for r in sorted(comps)]


def label_minima(cs):
    """Assign every minimum its separating saddle value.

    Descends through the distinct saddle levels; at each one, any component of
    the open sublevel set that does not yet hold a labelled minimum gets
    labelled by its deepest minimum (ties by id).
    """
    sw = _sweep(cs)
    L = levels(cs)
    ssv = tuple(sorted({L.of(s.phi) for s in cs.saddles}, reverse=True))
    mbar = min(cs.minima, key=lambda m: (L.of(m.phi), m.id)).id
    allm = frozenset(m.id for m in cs.minima)
    sigma = {mbar: INF}
    sigma_cluster = {mbar: None}
    S = {mbar: INF}
    E = {mbar: allm}
    index = {mbar: (1, 1)}
    prev_cluster = {mbar: None}
    for step, k in enumerate(ssv, start=2):
        prev = ssv[step - 3] if step > 2 else None
        comps = sw.components_below(k)
        fresh = [c for c in comps.values() if not any(x in sigma for x in c)]
        for j, comp in enumerate(sorted(fresh, key=min), start=1):
            lead = min(comp, key=lambda x: (L.of(cs.minimum(x).phi), x))
            sigma[lead] = L.rep(k)
            sigma_cluster[lead] = k
            S[lead] = L.rep(k) - L.rep(L.of(cs.minimum(lead).phi))
            E[lead] = comp
            index[lead] = (step, j)
            prev_cluster[lead] = prev
    if len(sigma) != len(cs.minima):
        raise InvariantViolation("labelling left minima unassigned")
    return Labelling(mbar, sigma, sigma_cluster, S, E, index, prev_cluster, ssv)


def derive_maps(cs, lab):
    """Per-minimum derived objects: enclosing component, reference minimum,
    its component, the equal-level set H, and the type decision."""
    sw = _sweep(cs)
    L = levels(cs)
    allm = frozenset(m.id for m in cs.minima)
    H = {}
    for mid, comp in lab.E.items():
        c = L.of(cs.minimum(mid).phi)
        H[mid] = frozenset(x for x in comp if L.of(cs.minimum(x).phi) == c)

    def sig_key(mid):
        k = lab.sigma_cluster[mid]
        return INF if k is None else k

    Eminus, mhat, Ehat, type2 = {}, {}, {}, {}
    for m in cs.minima:
        mid = m.id
        if mid == lab.mbar:
            continue
        prev = lab.prev_cluster[mid]
        Eminus[mid] = allm if prev is None else sw.comp_below(prev, mid)
        cands = [x for x in Eminus[mid] if sig_key(x) > sig_key(mid)]
        if len(cands) != 1:
            raise InvariantViolation(
                f"reference minimum not unique for {mid}: {sorted(cands)}")
        mhat[mid] = cands[0]
        Ehat[mid] = sw.comp_below(lab.sigma_cluster[mid], mhat[mid])
        cm = L.of(cs.minimum(mid).phi)
        ch = L.of(cs.minimum(mhat[mid]).phi)
        if ch > cm:
            raise InvariantViolation(
                f"reference minimum of {mid} lies above it")
        type2[mid] = ch == cm
    return Maps(Eminus, mhat, Ehat, H, type2)


def equivalence_classes(cs, lab, maps):
    """Group the minima labelled at each saddle level into classes.

    Two members are equivalent when their components are linked by a chain of
    components (members' own, plus the reference minimum's component for
    type II members) whose closures share saddles at that level.
    """
    sw = _sweep(cs)
    L = levels(cs)
    ground = EquivClass((lab.mbar,), INF, None, None, None, False,
                        ((lab.mbar,),), ((lab.mbar,),), (INF,), ground=True)
    classes = [ground]
    for k in lab.ssv_clusters:
        members_k = sorted(m for m, c in lab.sigma_cluster.items() if c == k)
        if not members_k:
            continue
        node = {m: sw.root_below(k, m) for m in members_k}
        nodes = set(node.values())
        for m in members_k:
            if maps.type2[m]:
                nodes.add(sw.root_below(k, maps.mhat[m]))
        dsu = _DSU()
        for r in nodes:
            dsu.add(r)
        for sid in sw.saddles_at[k]:
            a, b = cs.saddle(sid).joins
            ra, rb = sw.root_below(k, a), sw.root_below(k, b)
            if ra in nodes and rb in nodes:
                dsu.union(ra, rb)
        groups = {}
        for m in members_k:
            groups.setdefault(dsu.find(node[m]), []).append(m)
        for root in sorted(groups):
            classes.append(_build_class(cs, lab, maps, sorted(groups[root]), k))
    classes[1:] = sorted(
        classes[1:], key=lambda c: (-c.sigma_cluster, c.members[0]))
    return ClassDecomposition(tuple(classes), lab, maps)


def partition_saddles(cs, cd):
    """Assign every saddle to its class with ordered endpoints.

    The member-side endpoint comes first; the other endpoint is either a
    fellow member (interior row) or the class reference minimum (boundary
    row). Returns the decomposition with per-class saddles filled in.
    """
    sw = _sweep(cs)
    L = levels(cs)
    by_cluster = {}
    for c in cd.classes[1:]:
        by_cluster.setdefault(c.sigma_cluster, []).append(c)
    assigned = {c: [] for c in cd.classes}
    for s in cs.saddles:
        k = L.of(s.phi)
        a, b = s.joins
        ra, rb = sw.root_below(k, a), sw.root_below(k, b)
        hit = None
        for c in by_cluster.get(k, ()):
            eroot = {sw.root_below(k, m): m for m in c.members}
            in_a, in_b = ra in eroot, rb in eroot
            if not (in_a or in_b):
                continue
            if hit is not None:
                raise InvariantViolation(f"saddle {s.id} fits two classes")
            hit = c
            if in_a and in_b:
                u, v = eroot[ra], eroot[rb]
                cu, cv = L.of(cs.minimum(u).phi), L.of(cs.minimum(v).phi)
                # member-side endpoint is the higher minimum, ties by id
                if cu < cv or (cu == cv and u > v):
                    u, v = v, u
                assigned[c].append(SaddleRow(s.id, u, v, False))
            else:
                member = eroot[ra] if in_a else eroot[rb]
                other = rb if in_a else ra
                if other != sw.root_below(k, c.mhat):
                    raise InvariantViolation(
                        f"saddle {s.id}: far side is not the enclosing "
                        "component")
                assigned[c].append(SaddleRow(s.id, member, c.mhat, True))
        if hit is None:
            raise InvariantViolation(
                f"saddle {s.id} lies on no class boundary")
    for c in cd.classes:
        c.saddles = tuple(sorted(assigned[c]))
        if not c.ground and len(c.saddles) < len(c.members):
            raise InvariantViolation(
                f"class {c.members} has fewer saddles than members")
    return cd


def decompose(cs):
    """Full pipeline: labelling, maps, classes, saddle partition."""
    verify_separating(cs)
    lab = label_minima(cs)
    maps = derive_maps(cs, lab)
    return partition_saddles(cs, equivalence_classes(cs, lab, maps))


def check_generic_assumption(cs, lab=None):
    """Check the two genericity conditions.

    Returns (True, None) when every labelled component has a unique deepest
    minimum and, at each saddle level, no component of the open sublevel set
    touches two saddles of that level. On success every equivalence class is
    a singleton (asserted). On failure returns (False, witness).
    """
    if lab is None:
        lab = label_minima(cs)
    sw = _sweep(cs)
    L = levels(cs)
    for mid in sorted(lab.E):
        comp = lab.E[mid]
        bottom = min(L.of(cs.minimum(x).phi) for x in comp)
        ties = sorted(x for x in comp if L.of(cs.minimum(x).phi) == bottom)
        if len(ties) > 1:
            return False, {
                "condition": "unique-minimum",
                "component": sorted(comp),
                "tied_minima": ties,
            }
    for k in lab.ssv_clusters:
        incident = {}
        for sid in sw.saddles_at[k]:
            a, b = cs.saddle(sid).joins
            for r in {sw.root_below(k, a), sw.root_below(k, b)}:
                incident.setdefault(r, []).append(sid)
        for r in sorted(incident):
            if len(incident[r]) > 1:
                return False, {
                    "condition": "unique-maximal-saddle",
                    "component": sorted(sw.comp_below(k, r)),
                    "saddles": sorted(incident[r]),
                }
    maps = derive_maps(cs, lab)
    cd = equivalence_classes(cs, lab, maps)
    for c in cd.classes:
        if len(c.members) > 1:
            raise InvariantViolation(
                f"genericity held but class {c.members} is not a singleton")
    return True, None
