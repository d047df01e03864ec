"""Sublevel-set combinatorics: labelling of minima, equivalence classes, and
the saddle partition.

Everything works on a quotient picture. A connected component of an open
sublevel set {phi < level} is a node of one merge tree, built in a single
ascending union-find pass over integer indices: minima and saddles are
numbered in id order by the structure (see ``landscape``), and nodes are
numbered from the leaves up. A node knows its birth cluster, its parent and
children, its deepest minimum, the saddles that formed it and the exact sum
of det_hess^-1/2 over the minima tied with it, and nothing else. Two
components touch at a level exactly when some listed saddle at that level
joins them. Potential values are never compared directly; every decision
goes through the level clusters of the structure, which keeps equality
transitive.

Ids come back only where a class or a report block names a point: the
labelling is keyed by minimum id, and a class lists its members, blocks and
reference minimum by id, while its saddle rows (``EquivClass.cells``, whose
ids the report forms), ``Labelling.E`` and ``EquivClass.Ehat`` are indices.
Each block's size and barrier S are held by the class alone.
"""

import math
from itertools import groupby
from typing import NamedTuple

from .errors import InputDataError, InvariantViolation

INF = math.inf


def _find(up, x):
    """Root of ``x`` in the union-find forest ``up`` (a list or a dict),
    halving the path on the way."""
    while up[x] != x:
        up[x] = x = up[up[x]]
    return x


def _add(partials, x):
    """Add ``x`` to the exact sum held as Shewchuk's non-overlapping
    partials, in place; ``math.fsum(partials)`` is then the correctly
    rounded sum of every value added."""
    i = 0
    for y in partials:
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        lo = y - (hi - x)
        if lo:
            partials[i] = lo
            i += 1
        x = hi
    partials[i:] = [x]


class MergeTree:
    """Merge tree of the sublevel sets {phi < level}, as parallel lists.

    Nodes are integers. Node i < n is the leaf of minimum i, born at the
    minimum's cluster; the nodes after them are the components that the
    saddles of a cluster form from the components just below it, numbered
    by birth cluster and then smallest minimum, so children precede their
    parents. Per node v: ``born[v]``, ``parent[v]`` (-1 at a root),
    ``deepest[v]`` (its deepest minimum, the smaller index among tied ones)
    and ``low[v]`` (its smallest minimum index). Its children are
    ``kids[kid_at[v]:kid_at[v + 1]]``, the one holding its deepest minimum
    first, and the saddles that formed it ``sads[sad_at[v]:sad_at[v + 1]]``.
    ``ends[s]`` holds the two nodes saddle s joins, as they stand just below
    its cluster: children of the node the saddle forms. ``redundant`` lists
    the saddles whose two ends are already one node, by cluster, and
    ``roots`` the nodes without a parent.

    ``partials[v]`` holds the exact Shewchuk partials of the sum of
    det_hess^-1/2 over the minima of v at its deepest cluster.
    """

    def __init__(self, cs):
        n, n_sad = len(cs.min_ids), len(cs.sad_ids)
        mc = cs.min_cluster
        rank = [k * n + i for i, k in enumerate(mc)]   # (cluster, index)
        # at most one node per saddle; the lists are cut to size at the end
        size = n + n_sad
        born = mc + [0] * n_sad
        parent = [-1] * size
        deepest = list(range(n)) + [0] * n_sad
        low = list(range(n)) + [0] * n_sad
        kids, kid_at = [], [0] * (size + 1)
        sads, sad_at = [], [0] * (size + 1)
        # a leaf's partials are a 1-tuple, which the cyclic collector stops
        # tracking; a list starts where ties first merge
        partials = [(d ** -0.5,) for d in cs.min_det_hess] + [None] * n_sad
        joins = cs.sad_joins
        ends = [None] * n_sad
        redundant = []
        up = list(range(n))     # union-find over minima; a root is the
        top = list(range(n))    # smallest index, top[root] its node
        v = n                   # the next node

        def node(k, r, ks, ss):
            """Add node v, born at cluster k with root r, from children ks
            (sorted by deepest minimum) and saddles ss."""
            first = ks[0]
            sums = partials[first]
            dk = mc[deepest[first]]
            # ks is sorted by the (cluster, index) of its deepest minima, so
            # the tied children come first; the fsum of exact partials does
            # not depend on the order they are added in
            if len(ks) > 1 and mc[deepest[ks[1]]] == dk:
                sums = list(sums)
                for c in ks[1:]:
                    if mc[deepest[c]] != dk:
                        break
                    for x in partials[c]:
                        _add(sums, x)
            for c in ks:
                parent[c] = v
            born[v] = k
            deepest[v] = deepest[first]
            low[v] = r
            kids.extend(ks)
            kid_at[v + 1] = len(kids)
            sads.extend(ss)
            sad_at[v + 1] = len(sads)
            partials[v] = sums
            top[r] = v

        order = sorted(range(n_sad), key=cs.sad_cluster.__getitem__)
        for k, batch in groupby(order, key=cs.sad_cluster.__getitem__):
            batch = list(batch)
            if len(batch) == 1:
                # one saddle: its two ends form the node
                a, b = joins[batch[0]]
                a, b = _find(up, a), _find(up, b)
                ea, eb = ends[batch[0]] = top[a], top[b]
                r = up[max(a, b)] = min(a, b)
                if a == b:
                    redundant.append(batch[0])
                    node(k, r, [ea], batch)
                elif rank[deepest[eb]] < rank[deepest[ea]]:
                    node(k, r, [eb, ea], batch)
                else:
                    node(k, r, [ea, eb], batch)
                v += 1
                continue
            for s in batch:
                a, b = joins[s]
                e = ends[s] = (top[_find(up, a)], top[_find(up, b)])
                if e[0] == e[1]:
                    redundant.append(s)
            for s in batch:
                a, b = joins[s]
                a, b = _find(up, a), _find(up, b)
                up[max(a, b)] = min(a, b)
            groups = {}
            for s in batch:
                group = groups.setdefault(_find(up, joins[s][0]), ({}, []))
                group[0].update(dict.fromkeys(ends[s]))
                group[1].append(s)
            for r in sorted(groups):
                ks, ss = groups[r]
                node(k, r, sorted(ks, key=lambda c: rank[deepest[c]]), ss)
                v += 1
        for col in (born, parent, deepest, low, partials):
            del col[v:]
        del kid_at[v + 1:], sad_at[v + 1:]
        self.ids = cs.min_ids
        self.born, self.parent = born, parent
        self.deepest, self.low = deepest, low
        self.kids, self.kid_at = kids, kid_at
        self.sads, self.sad_at = sads, sad_at
        self.partials = partials
        self.ends, self.redundant = ends, redundant
        self.roots = [v for v, p in enumerate(parent) if p < 0]


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
    if tree.redundant:
        raise InputDataError(
            f"saddle {cs.sad_ids[tree.redundant[0]]} joins minima already "
            "connected below its level")
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


class EquivClass:
    """One equivalence class of minima sharing a saddle value.

    ``member_blocks`` partitions the members by barrier height, smallest
    barrier first, and ``member_order`` runs through the blocks in turn.
    ``uhat``, the extended set, is ``member_order`` followed, for type II,
    by the reference minimum ``mhat``.
    ``block_S`` holds each block's barrier, strictly increasing; the
    spectrum reads each level's size and barrier from the class.
    ``Ehat`` is the merge-tree node of the reference minimum just below
    ``sigma``. ``cells`` lists the class's saddle rows, sorted by saddle,
    each a plain tuple of ints (s, j1, j2): the saddle's index and the
    columns in ``uhat`` of m1, the member-side endpoint, phi(m1) >= phi(m2),
    and of m2, the other one, or -1 when m2 is the reference minimum outside
    ``uhat``. The row is interior iff 0 <= j2 < q, else a boundary row to
    the reference minimum; ``cli`` forms its ids. Plain tuples of ints are
    left untracked by the cyclic collector, so the classes of a large
    landscape do not make it rescan the heap ever more often.
    """

    __slots__ = ("members", "sigma", "mhat", "Ehat", "type2",
                 "member_blocks", "block_S", "ground",
                 "cells", "member_order", "uhat")

    def __init__(self, members, sigma, mhat, Ehat, type2, member_blocks,
                 block_S, cells, ground=False):
        self.members = members
        self.sigma = sigma
        self.mhat = mhat
        self.Ehat = Ehat
        self.type2 = type2
        self.member_blocks = member_blocks
        self.block_S = block_S
        self.ground = ground
        self.cells = cells
        self.member_order = (member_blocks[0] if len(member_blocks) == 1
                             else tuple(x for b in member_blocks for x in b))
        self.uhat = (*self.member_order, mhat) if type2 else self.member_order

    @property
    def q(self):
        return len(self.members)

    @property
    def p(self):
        return len(self.member_blocks)

    def __repr__(self):
        kind = "ground" if self.ground else ("II" if self.type2 else "I")
        return f"EquivClass({','.join(self.members)}; {kind})"


class ClassDecomposition(NamedTuple):
    classes: tuple
    labelling: Labelling

    @property
    def ground(self):
        return self.classes[0]


def _node_classes(cs, tree, v):
    """The classes of the minima labelled at the birth of node ``v``, which
    has two or more members.

    Every child but the first is E(m) of its deepest minimum m. Two such
    members are equivalent when a chain of the node's saddles links their
    components, through the first child only when some member is tied with
    it (type II). Each saddle is a row of the class it touches: interior
    between two members, boundary to the first child.
    """
    ids, mc, reps = cs.min_ids, cs.min_cluster, cs.level_reps
    deepest, ends = tree.deepest, tree.ends
    ks = tree.kids[tree.kid_at[v]:tree.kid_at[v + 1]]
    first, others = ks[0], ks[1:]
    sads = tree.sads[tree.sad_at[v]:tree.sad_at[v + 1]]
    hat = deepest[v]
    hat_k = mc[hat]
    k = tree.born[v]
    sigma = reps[k]
    tied = any(mc[deepest[c]] == hat_k for c in others)
    up = {c: c for c in (ks if tied else others)}
    for s in sads:
        a, b = ends[s]
        if tied or first != a and first != b:
            ra, rb = _find(up, a), _find(up, b)
            if ra != rb:
                up[max(ra, rb)] = min(ra, rb)
    groups = {}
    for c in others:
        groups.setdefault(_find(up, c), ([], []))[0].append(deepest[c])
    for s in sads:
        a, b = ends[s]
        if b == first:
            a, b = b, a
        if a == first:
            row = (s, deepest[b], hat)
        else:
            # member-side endpoint is the higher minimum, ties by id
            u, w = deepest[a], deepest[b]
            if mc[u] < mc[w] or (mc[u] == mc[w] and u > w):
                u, w = w, u
            row = (s, u, w)
        groups[_find(up, b)][1].append(row)
    classes = []
    for ms, rows in groups.values():
        by_level = {}
        for m in ms:
            by_level.setdefault(mc[m], []).append(m)
        # blocks by barrier height, smallest barrier (= highest member) first
        clusters = sorted(by_level, reverse=True)
        blocks = [sorted(by_level[c]) for c in clusters]
        members = tuple(ids[m] for m in sorted(ms))
        type2 = clusters[-1] == hat_k
        block_S = tuple(sigma - reps[c] for c in clusters)
        if any(b2 <= b1 for b1, b2 in zip(block_S, block_S[1:])):
            # distinct levels so close below a high saddle that sigma - level
            # rounds to one float leave the blocks no order to go by
            if len({reps[c] for c in clusters}) == len(clusters):
                raise InputDataError(
                    f"barriers of class {members} below saddle value "
                    f"{sigma} coincide in double precision")
            raise InvariantViolation(
                "barriers not strictly increasing over blocks")
        member_blocks = tuple(tuple(ids[m] for m in b) for b in blocks)
        col = {m: j for j, m in enumerate(m for b in blocks for m in b)}
        if type2:
            col[hat] = len(col)
        rows.sort()
        classes.append(EquivClass(
            members, sigma, ids[hat], first, type2, member_blocks, block_S,
            tuple([(s, col[m1], col.get(m2, -1)) for s, m1, m2 in rows])))
    return classes


def decompose(cs):
    """Labelling, classes and saddle rows in one descent over the merge tree.

    At each saddle value, from the highest, every node born there labels
    its children but the first: the deepest minimum m of such a child gets
    sigma(m), the child as E(m), the node's deepest minimum as mhat(m), and
    type II when that sits at the level of m.
    """
    verify_separating(cs)
    tree = merge_tree(cs)
    ids, mc, reps = cs.min_ids, cs.min_cluster, cs.level_reps
    born, deepest, low = tree.born, tree.deepest, tree.low
    kids, kid_at, sads, sad_at = tree.kids, tree.kid_at, tree.sads, tree.sad_at
    (root,) = tree.roots
    mbar = ids[deepest[root]]
    sigma, S, E, index = {mbar: INF}, {mbar: INF}, {mbar: root}, {mbar: (1, 1)}
    mhat, type2 = {}, {}
    ground = EquivClass((mbar,), INF, None, None, False, ((mbar,),), (INF,),
                        (), ground=True)
    classes = []
    n = len(ids)
    step, top = 1, len(born)
    while top > n:
        # the nodes born at one saddle cluster k, from the highest cluster
        k = born[top - 1]
        bottom = top - 1
        while bottom > n and born[bottom - 1] == k:
            bottom -= 1
        step += 1
        sig = reps[k]
        fresh, found = [], []
        for v in range(bottom, top):
            hat = deepest[v]
            hat_k = mc[hat]
            members = kids[kid_at[v] + 1:kid_at[v + 1]]
            fresh += members
            for c in members:
                m = deepest[c]
                mid = ids[m]
                sigma[mid] = sig
                S[mid] = sig - reps[mc[m]]
                E[mid] = c
                mhat[mid] = ids[hat]
                type2[mid] = mc[m] == hat_k
            if len(members) > 1:
                found += _node_classes(cs, tree, v)
                continue
            # a lone member: each saddle is a boundary row to the first child
            block = (mid,)
            t2 = type2[mid]
            ss = sads[sad_at[v]:sad_at[v + 1]]
            found.append(EquivClass(
                block, sig, ids[hat], kids[kid_at[v]], t2, (block,), (S[mid],),
                tuple([(s, 0, 1 if t2 else -1) for s in ss])))
        if len(fresh) > 1:
            fresh.sort(key=low.__getitem__)
            found.sort(key=lambda c: c.members[0])
        for j, c in enumerate(fresh, start=1):
            index[ids[deepest[c]]] = (step, j)
        classes += found
        top = bottom
    return ClassDecomposition(
        (ground, *classes), Labelling(mbar, sigma, S, E, index, mhat, type2))
