"""Sublevel-set combinatorics: labelling of minima, equivalence classes, and
the saddle partition.

Everything works on a quotient picture. A connected component of an open
sublevel set {phi < level} is a node of one merge tree, built in a single
ascending pass: the node knows its birth cluster, its parent and children,
its deepest minimum and the minima tied with it, and nothing else. Two
components touch at a level exactly when some listed saddle at that level
joins them. Potential values are never compared directly; every decision
goes through the level clusters of the structure, which keeps equality
transitive.
"""

import math
from typing import NamedTuple

from .errors import InputDataError, InvariantViolation

INF = math.inf


class _DSU:
    """Union-find keeping the lexicographically smallest id as the root."""

    def __init__(self, items):
        self.parent = {x: x for x in items}

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


class _Node:
    """One component of a sublevel set, alive from its birth cluster until
    its parent is born."""

    __slots__ = ("born", "ties", "deepest", "low", "children", "parent")

    def __init__(self, born, ties, deepest, low, children=()):
        self.born = born            # level cluster the component appears at
        self.ties = ties            # ids of the minima at its deepest cluster
        self.deepest = deepest      # (cluster, id) of its deepest minimum
        self.low = low              # smallest minimum id
        self.children = children    # components it was formed from, the one
                                    # holding its deepest minimum first
        self.parent = None


class MergeTree:
    """Merge tree of the sublevel sets {phi < level}.

    One leaf per minimum, born at the minimum's cluster; one node per
    component that the saddles of a cluster form from the components just
    below it. ``ends[sid]`` holds the two components saddle ``sid`` joins,
    as they stand just below its cluster, in ascending cluster and then id
    order. ``born[k]`` lists the nodes born at saddle cluster k and
    ``saddles_at[k]`` the saddles of that cluster. ``nodes`` lists every
    node by birth cluster, leaves first, then smallest id, so children
    precede their parents and the order depends on the input data alone.
    ``highest[m]`` is the highest node whose deepest minimum is m: the
    component E(m) of the labelling.
    """

    def __init__(self, cs):
        L = cs.levels
        self.leaf = {}
        for m in cs.minima:
            k = L.of(m.phi)
            self.leaf[m.id] = _Node(k, (m.id,), (k, m.id), m.id)
        dsu = _DSU(self.leaf)
        top = dict(self.leaf)       # union-find root -> its current node
        self.saddles_at = {}
        for s in cs.saddles:
            self.saddles_at.setdefault(L.of(s.phi), []).append(s.id)
        self.ends = {}
        self.born = {}
        for k in sorted(self.saddles_at):
            sids = self.saddles_at[k]
            for sid in sids:
                a, b = cs.saddle(sid).joins
                self.ends[sid] = (top[dsu.find(a)], top[dsu.find(b)])
            for sid in sids:
                dsu.union(*cs.saddle(sid).joins)
            groups = {}
            for sid in sids:
                for node in self.ends[sid]:
                    groups.setdefault(dsu.find(node.low), {})[node] = None
            self.born[k] = []
            for r, kids in groups.items():
                kids = sorted(kids, key=lambda c: c.deepest)
                tied = [c for c in kids if c.deepest[0] == kids[0].deepest[0]]
                ties = tied[0].ties if len(tied) == 1 else tuple(
                    x for c in tied for x in c.ties)
                node = _Node(k, ties, kids[0].deepest, r, tuple(kids))
                for c in kids:
                    c.parent = node
                top[r] = node
                self.born[k].append(node)
        self.roots = {top[dsu.find(mid)] for mid in self.leaf}
        self.nodes = sorted(
            [*self.leaf.values(), *(n for ns in self.born.values() for n in ns)],
            key=lambda n: (n.born, bool(n.children), n.low))
        self.highest = {n.deepest[1]: n for n in self.nodes}


def merge_tree(cs):
    """The merge tree of a structure, built on first use and cached on it."""
    tree = getattr(cs, "_merge_tree", None)
    if tree is None:
        tree = cs._merge_tree = MergeTree(cs)
    return tree


def verify_separating(cs):
    """Reject saddles whose two sides are already connected strictly below.

    Such a point does not separate its sublevel component, so listing it as a
    separating saddle is an input error. Also rejects a landscape whose
    minima do not end up in a single component, since the labelling needs a
    connected space.
    """
    tree = merge_tree(cs)
    for sid, (a, b) in tree.ends.items():
        if a is b:
            raise InputDataError(
                f"saddle {sid} joins minima already connected "
                "below its level")
    if len(tree.roots) > 1:
        raise InputDataError("landscape is not connected")


class Labelling(NamedTuple):
    mbar: str
    sigma: dict            # minimum id -> representative ssv value (inf for mbar)
    sigma_cluster: dict    # minimum id -> level cluster of sigma (None for mbar)
    S: dict                # minimum id -> barrier sigma(m) - phi(m)
    E: dict                # minimum id -> merge-tree node of the component
                           # of {phi < sigma(m)} holding m (the root for mbar)
    index: dict            # minimum id -> (i, j) assignment order
    ssv_clusters: tuple    # ssv level clusters, descending


def label_minima(cs):
    """Assign every minimum its separating saddle value.

    Descends through the distinct saddle levels; at each one, any component of
    the open sublevel set that does not yet hold a labelled minimum gets
    labelled by its deepest minimum (ties by id): on the merge tree, every
    child of a node born there except the one holding the node's deepest.
    """
    tree = merge_tree(cs)
    L = cs.levels
    ssv = tuple(sorted({L.of(s.phi) for s in cs.saddles}, reverse=True))
    mbar = min(cs.minima, key=lambda m: (L.of(m.phi), m.id)).id
    sigma = {mbar: INF}
    sigma_cluster = {mbar: None}
    S = {mbar: INF}
    index = {mbar: (1, 1)}
    for step, k in enumerate(ssv, start=2):
        fresh = [c for node in tree.born[k] for c in node.children[1:]]
        for j, comp in enumerate(sorted(fresh, key=lambda c: c.low), start=1):
            cluster, lead = comp.deepest
            sigma[lead] = L.rep(k)
            sigma_cluster[lead] = k
            S[lead] = L.rep(k) - L.rep(cluster)
            index[lead] = (step, j)
    if len(sigma) != len(cs.minima):
        raise InvariantViolation("labelling left minima unassigned")
    return Labelling(mbar, sigma, sigma_cluster, S, tree.highest, index, ssv)


class Maps(NamedTuple):
    mhat: dict     # id -> the reference minimum of the enclosing component
    Ehat: dict     # id -> component of {phi < sigma(m)} holding mhat
    type2: dict    # id -> True iff phi(mhat(m)) equals phi(m)


def derive_maps(cs, lab):
    """Per-minimum reference minimum, its component, and the type decision.

    All three are read off the parent of E(m), the component that holds m
    up to the next saddle value above sigma(m): mhat(m) is its deepest
    minimum, Ehat(m) its child holding mhat(m). The components come from
    the merge tree; ``lab`` supplies the global minimum and the saddle
    value clusters, which must agree with the tree.
    """
    E = merge_tree(cs).highest
    mhat, Ehat, type2 = {}, {}, {}
    for m in cs.minima:
        mid = m.id
        if mid == lab.mbar:
            continue
        up = E[mid].parent
        mhat[mid] = up.deepest[1]
        # when each minimum is labelled at the birth of its E(m).parent, the
        # deepest minimum of that parent is the only one in it labelled
        # above m, so these two checks stand for a scan of its minima
        if (lab.sigma_cluster[mid] != up.born
                or _sig_key(lab, mhat[mid]) <= _sig_key(lab, mid)):
            raise _ambiguous_reference(cs, lab, mid)
        Ehat[mid] = up.children[0]
        cm, ch = E[mid].deepest[0], up.deepest[0]
        if ch > cm:
            raise InvariantViolation(
                f"reference minimum of {mid} lies above it")
        type2[mid] = ch == cm
    return Maps(mhat, Ehat, type2)


def _sig_key(lab, mid):
    k = lab.sigma_cluster[mid]
    return INF if k is None else k


def _leaves(node):
    """Ids of the minima below a node."""
    out, stack = [], [node]
    while stack:
        node = stack.pop()
        stack.extend(node.children)
        if not node.children:
            out.append(node.low)
    return out


def _ambiguous_reference(cs, lab, mid):
    """The error for a labelling that disagrees with the merge tree at
    ``mid``: the first minimum whose E(m).parent does not hold exactly one
    minimum labelled above m, as a scan of its leaves finds it."""
    E = merge_tree(cs).highest
    for m in cs.minima:
        if m.id != lab.mbar:
            key = _sig_key(lab, m.id)
            cands = sorted(x for x in _leaves(E[m.id].parent)
                           if _sig_key(lab, x) > key)
            if len(cands) != 1:
                return InvariantViolation(
                    f"reference minimum not unique for {m.id}: {cands}")
    return InvariantViolation(
        f"labelling of {mid} disagrees with the merge tree")


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


def equivalence_classes(cs, lab, maps):
    """Group the minima labelled at each saddle level into classes.

    Two members are equivalent when their components are linked by a chain of
    components (members' own, plus the reference minimum's component for
    type II members) whose closures share saddles at that level.
    """
    tree = merge_tree(cs)
    E = lab.E
    ground = EquivClass((lab.mbar,), INF, None, None, None, False,
                        ((lab.mbar,),), ((lab.mbar,),), (INF,), ground=True)
    classes = [ground]
    labelled_at = {}
    for m in sorted(lab.sigma_cluster):
        labelled_at.setdefault(lab.sigma_cluster[m], []).append(m)
    for k in lab.ssv_clusters:
        members_k = labelled_at.get(k)
        if not members_k:
            continue
        nodes = {E[m] for m in members_k}
        nodes.update(maps.Ehat[m] for m in members_k if maps.type2[m])
        dsu = _DSU(n.low for n in nodes)
        for sid in tree.saddles_at[k]:
            a, b = tree.ends[sid]
            if a in nodes and b in nodes:
                dsu.union(a.low, b.low)
        groups = {}
        for m in members_k:
            groups.setdefault(dsu.find(E[m].low), []).append(m)
        for root in sorted(groups):
            classes.append(_build_class(cs, lab, maps, sorted(groups[root]), k))
    classes[1:] = sorted(
        classes[1:], key=lambda c: (-c.sigma_cluster, c.members[0]))
    return ClassDecomposition(tuple(classes), lab, maps)


def _build_class(cs, lab, maps, members, k):
    L = cs.levels
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


def partition_saddles(cs, cd):
    """Assign every saddle to its class with ordered endpoints.

    The member-side endpoint comes first; the other endpoint is either a
    fellow member (interior row) or the class reference minimum (boundary
    row). Returns the decomposition with per-class saddles filled in.
    """
    tree = merge_tree(cs)
    L = cs.levels
    by_cluster = {}
    eroots = {}                 # class -> {member's component: member}
    for c in cd.classes[1:]:
        by_cluster.setdefault(c.sigma_cluster, []).append(c)
        eroots[c] = {cd.labelling.E[m]: m for m in c.members}
    assigned = {c: [] for c in cd.classes}
    for s in cs.saddles:
        k = L.of(s.phi)
        ra, rb = tree.ends[s.id]
        hit = None
        for c in by_cluster.get(k, ()):
            eroot = eroots[c]
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
                if other is not c.Ehat:
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
