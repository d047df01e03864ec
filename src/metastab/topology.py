"""Sublevel-set combinatorics: labelling of minima, equivalence classes, and
the saddle partition.

Everything works on a quotient picture. A connected component of an open
sublevel set {phi < level} is a node of one merge tree, built in a single
ascending pass: the node knows its birth cluster, its parent and children,
its deepest minimum, the minima tied with it and the saddles that formed
it, and nothing else. Two components touch at a level exactly when some
listed saddle at that level joins them. Potential values are never compared
directly; every decision goes through the level clusters of the structure,
which keeps equality transitive.
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

    __slots__ = ("born", "ties", "deepest", "low", "children", "saddles",
                 "parent")

    def __init__(self, born, ties, deepest, low, children=(), saddles=()):
        self.born = born            # level cluster the component appears at
        self.ties = ties            # ids of the minima at its deepest cluster
        self.deepest = deepest      # (cluster, id) of its deepest minimum
        self.low = low              # smallest minimum id
        self.children = children    # components it was formed from, the one
                                    # holding its deepest minimum first
        self.saddles = saddles      # ids of the saddles that joined them
        self.parent = None


class MergeTree:
    """Merge tree of the sublevel sets {phi < level}.

    One leaf per minimum, born at the minimum's cluster; one node per
    component that the saddles of a cluster form from the components just
    below it, listing those saddles. ``ends[sid]`` holds the two components
    saddle ``sid`` joins, as they stand just below its cluster: children of
    the node the saddle forms. ``born[k]`` lists the nodes born at saddle
    cluster k. ``nodes`` lists every node by birth cluster, leaves first,
    then smallest id, so children precede their parents and the order
    depends on the input data alone.
    """

    def __init__(self, cs):
        cluster = cs.cluster
        leaf = {}
        for m in cs.minima:
            k = cluster[m.id]
            leaf[m.id] = _Node(k, (m.id,), (k, m.id), m.id)
        dsu = _DSU(leaf)
        top = dict(leaf)            # union-find root -> its current node
        by_cluster = {}
        for s in cs.saddles:
            by_cluster.setdefault(cluster[s.id], []).append(s)
        self.ends = {}
        self.born = {}
        for k in sorted(by_cluster):
            for s in by_cluster[k]:
                a, b = s.joins
                self.ends[s.id] = (top[dsu.find(a)], top[dsu.find(b)])
            for s in by_cluster[k]:
                dsu.union(*s.joins)
            groups = {}
            for s in by_cluster[k]:
                ends = self.ends[s.id]
                kids, sids = groups.setdefault(dsu.find(ends[0].low), ({}, []))
                kids.update(dict.fromkeys(ends))
                sids.append(s.id)
            self.born[k] = []
            for r, (kids, sids) in groups.items():
                kids = sorted(kids, key=lambda c: c.deepest)
                tied = [c for c in kids if c.deepest[0] == kids[0].deepest[0]]
                ties = tied[0].ties if len(tied) == 1 else tuple(
                    x for c in tied for x in c.ties)
                node = _Node(k, ties, kids[0].deepest, r, tuple(kids),
                             tuple(sids))
                for c in kids:
                    c.parent = node
                top[r] = node
                self.born[k].append(node)
        self.roots = {top[dsu.find(mid)] for mid in leaf}
        self.nodes = sorted(
            [*leaf.values(), *(n for ns in self.born.values() for n in ns)],
            key=lambda n: (n.born, bool(n.children), n.low))


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
    S: dict                # minimum id -> barrier sigma(m) - phi(m)
    E: dict                # minimum id -> merge-tree node of the component
                           # of {phi < sigma(m)} holding m (the root for mbar)
    index: dict            # minimum id -> (i, j) assignment order
    mhat: dict             # minimum id -> reference minimum (not for mbar)
    type2: dict            # minimum id -> True iff phi(mhat(m)) equals phi(m)


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
    ``Ehat`` is the merge-tree node of the reference minimum just below
    ``sigma``, and ``saddles`` the class's SaddleRows, sorted by id.
    """

    def __init__(self, members, sigma, sigma_cluster, mhat, Ehat, type2,
                 member_blocks, uhat_blocks, block_S, saddles, ground=False):
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
        self.saddles = tuple(saddles)

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

    @property
    def ground(self):
        return self.classes[0]


def _node_classes(tree, node, reps):
    """The classes of the minima labelled at the birth of ``node``.

    Every child but the first is E(m) of its deepest minimum m. Two such
    members are equivalent when a chain of the node's saddles links their
    components, through the first child only when some member is tied with
    it (type II). Each saddle is a row of the class it touches: interior
    between two members, boundary to the first child.
    """
    first, kids = node.children[0], node.children[1:]
    hat_k, hat = node.deepest
    find = str      # a lone member is its own class; str keeps its id
    if len(kids) > 1:
        tied = any(c.deepest[0] == hat_k for c in kids)
        dsu = _DSU(c.low for c in (node.children if tied else kids))
        for sid in node.saddles:
            a, b = tree.ends[sid]
            if tied or first not in (a, b):
                dsu.union(a.low, b.low)
        find = dsu.find
    groups = {find(c.low): ([], []) for c in kids}
    for c in kids:
        groups[find(c.low)][0].append(c.deepest)
    for sid in node.saddles:
        a, b = tree.ends[sid]
        if b is first:
            a, b = b, a
        if a is first:
            row = SaddleRow(sid, b.deepest[1], hat, True)
        else:
            # member-side endpoint is the higher minimum, ties by id
            (cu, u), (cv, v) = a.deepest, b.deepest
            if cu < cv or (cu == cv and u > v):
                u, v = v, u
            row = SaddleRow(sid, u, v, False)
        groups[find(b.low)][1].append(row)
    k = node.born
    sigma = reps[k]
    for deepest, rows in groups.values():
        by_level = {}
        for ck, m in deepest:
            by_level.setdefault(ck, []).append(m)
        # blocks by barrier height, smallest barrier (= highest member) first
        clusters = sorted(by_level, reverse=True)
        member_blocks = [tuple(sorted(by_level[c])) for c in clusters]
        type2 = clusters[-1] == hat_k
        uhat_blocks = member_blocks[:-1] + [
            member_blocks[-1] + (hat,) if type2 else member_blocks[-1]]
        block_S = [sigma - reps[c] for c in clusters]
        if any(b2 <= b1 for b1, b2 in zip(block_S, block_S[1:])):
            # distinct levels so close below a high saddle that sigma - level
            # rounds to one float leave the blocks no order to go by
            if len({reps[c] for c in clusters}) == len(clusters):
                raise InputDataError(
                    f"barriers of class {tuple(sorted(m for _, m in deepest))} "
                    f"below saddle value {sigma} coincide in double precision")
            raise InvariantViolation(
                "barriers not strictly increasing over blocks")
        yield EquivClass(sorted(m for _, m in deepest), sigma, k, hat, first,
                         type2, member_blocks, uhat_blocks, block_S,
                         sorted(rows))


def decompose(cs):
    """Labelling, classes and saddle rows in one descent over the merge tree.

    At each saddle value, from the highest, every node born there labels
    its children but the first: the deepest minimum m of such a child gets
    sigma(m), the child as E(m), the node's deepest minimum as mhat(m), and
    type II when that sits at the level of m.
    """
    verify_separating(cs)
    tree = merge_tree(cs)
    reps = cs.levels.reps
    (root,) = tree.roots
    mbar = root.deepest[1]
    sigma, S, E, index = {mbar: INF}, {mbar: INF}, {mbar: root}, {mbar: (1, 1)}
    mhat, type2 = {}, {}
    ground = EquivClass((mbar,), INF, None, None, None, False, ((mbar,),),
                        ((mbar,),), (INF,), (), ground=True)
    classes = []
    for step, k in enumerate(sorted(tree.born, reverse=True), start=2):
        fresh = []
        for node in tree.born[k]:
            hat_k, hat = node.deepest
            for c in node.children[1:]:
                ck, m = c.deepest
                sigma[m] = reps[k]
                S[m] = reps[k] - reps[ck]
                E[m] = c
                mhat[m] = hat
                type2[m] = ck == hat_k
                fresh.append(c)
            classes.extend(_node_classes(tree, node, reps))
        fresh.sort(key=lambda c: c.low)
        for j, c in enumerate(fresh, start=1):
            index[c.deepest[1]] = (step, j)
    classes.sort(key=lambda c: (-c.sigma_cluster, c.members[0]))
    return ClassDecomposition(
        (ground, *classes), Labelling(mbar, sigma, S, E, index, mhat, type2))
