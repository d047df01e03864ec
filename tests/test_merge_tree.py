"""The merge tree in ``metastab.topology`` against the per-level sweep kept in
``sweep_oracle``: same labelling, maps, classes and saddle rows, and the
same error type and message on bad input.

The package keeps each component as a merge-tree node index; the oracle
keeps it as a frozenset of minima. The comparison expands every node into
the minima below it, and reads the oracle's Eminus(m) and H(m) off the
parent and the ties of E(m). The oracle reads points by id, through a
``ById`` view of the structure."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import sweep_oracle as oracle
from conftest import (ById, Minimum, Saddle, _chain, funnel, members,
                      minima, random_tree_structure, saddle_rows, saddles,
                      shuffled_chain, staircase, tied_structure, ties,
                      type1_gadget, type2_gadget, uhat_blocks)
from schema_v1 import components
from metastab import cli, topology
from metastab.errors import InputDataError, InvariantViolation
from metastab.examples import (build_example, chain_sampled, ex_b, ex_c,
                               example_names)
from metastab.landscape import CriticalStructure, extract_critical_structure

seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)


def _outcome(fn, *args):
    """The value of ``fn(*args)``, or the type and message of the error."""
    try:
        return "ok", fn(*args)
    except (InputDataError, InvariantViolation) as exc:
        return type(exc).__name__, str(exc)


def _ties(cs, L, node):
    """The tie tuple of a node, checked to list each minimum of the node at
    its deepest cluster (of the oracle's level clusters ``L``) exactly
    once."""
    tree = topology.merge_tree(cs)
    phi = dict(zip(cs.min_ids, cs.min_phi))
    got = ties(cs, node)
    assert len(set(got)) == len(got)
    assert set(got) == {x for x in members(cs, node)
                        if L.of(phi[x]) == cs.min_cluster[tree.deepest[node]]}
    return frozenset(got)


def _as_sets(cs, cd):
    """A decomposition of the package in the oracle's terms; the saddle
    value clusters, which neither the labelling nor a class carries, come
    off the tree, a class's ``uhat_blocks`` is derived from its member
    blocks and its saddle rows from its cells as the report forms them
    (``saddle_rows``), and its stored orders and cells, which the oracle
    derives or lacks, are left out."""
    lab = cd.labelling
    L = oracle.levels(ById(cs))
    tree = topology.merge_tree(cs)
    parent = tree.parent
    Ehat = {m: tree.kids[tree.kid_at[parent[lab.E[m]]]] for m in lab.mhat}
    for m, node in Ehat.items():
        assert cs.min_ids[tree.deepest[node]] == lab.mhat[m]
        _ties(cs, L, node)      # the equal-level set prefactors reads
    labelling = {**lab._asdict(),
                 "sigma_cluster": {m: None if parent[n] < 0
                                   else tree.born[parent[n]]
                                   for m, n in lab.E.items()},
                 "E": {m: members(cs, n) for m, n in lab.E.items()},
                 "ssv_clusters": tuple(sorted(set(tree.born[len(cs.min_ids):]),
                                              reverse=True))}
    del labelling["mhat"], labelling["type2"]
    maps = oracle.Maps({m: members(cs, parent[lab.E[m]]) for m in lab.mhat},
                       lab.mhat,
                       {m: members(cs, n) for m, n in Ehat.items()},
                       {m: _ties(cs, L, n) for m, n in lab.E.items()},
                       lab.type2)
    classes = []
    for c in cd.classes:
        row = {k: getattr(c, k) for k in c.__slots__}
        row["Ehat"] = None if c.Ehat is None else members(cs, c.Ehat)
        row["sigma_cluster"] = (None if c.Ehat is None
                                else tree.born[parent[c.Ehat]])
        row["uhat_blocks"] = uhat_blocks(c)
        row["saddles"] = saddle_rows(cs, c)
        del row["uhat"], row["member_order"], row["cells"]
        classes.append(row)
    return labelling, maps, classes


def _decomposition(mod, cs):
    if mod is not topology:
        cs = ById(cs)
    kind, cd = _outcome(mod.decompose, cs)
    if kind != "ok":
        return kind, cd
    if mod is topology:
        return kind, _as_sets(cs, cd)
    labelling = cd.labelling._asdict()
    del labelling["prev_cluster"]   # read into Eminus, compared there
    return kind, (labelling, cd.maps, [vars(c) for c in cd.classes])


def assert_same(cs):
    want = _decomposition(oracle, cs)
    assert _decomposition(topology, cs) == want
    return want[0]


def _thinned(cs, rng):
    """The structure with a random subset of its saddles dropped; what is
    left still separates but may leave the landscape disconnected."""
    keep = [s for s in saddles(cs) if rng.random() < 0.8]
    return CriticalStructure(minima(cs), keep, cs.level_tolerance)


@pytest.mark.parametrize("name", example_names())
def test_bundled_examples(name):
    b = build_example(name)
    cs = b.structure or extract_critical_structure(b.potential)
    assert assert_same(cs) == "ok"


def test_bundled_variants():
    for cs in (ex_b(2.0).structure, ex_c(7).structure,
               extract_critical_structure(chain_sampled())):
        assert assert_same(cs) == "ok"


@given(seeds)
def test_random_trees(seed):
    rng = np.random.default_rng(seed)
    assert assert_same(random_tree_structure(rng, n_max=14)) == "ok"
    assert_same(_thinned(random_tree_structure(rng), rng))


@given(seeds, st.booleans())
def test_gadgets(seed, flat):
    rng = np.random.default_rng(seed)
    assert assert_same(type1_gadget(rng)) == "ok"
    assert assert_same(type2_gadget(rng, flat=flat)) == "ok"


@given(st.sampled_from([funnel, staircase]),
       st.integers(min_value=2, max_value=60))
def test_funnels_and_staircases(shape, n):
    assert assert_same(shape(n)) == "ok"


@given(seeds, st.integers(min_value=2, max_value=60))
def test_shuffled_chains(seed, n):
    rng = np.random.default_rng(seed)
    assert assert_same(shuffled_chain(rng, n)) == "ok"


@given(seeds, st.integers(min_value=1, max_value=3),
       st.integers(min_value=2, max_value=30))
def test_chains_k_ulps_apart(seed, k, n):
    """Chains on a grid k ulps wide near phi = 1e8, at the default level
    tolerance, which is below one ulp there: equal grid values are ties,
    and neighboring ones are distinct levels, as is a saddle one step above
    its higher minimum.

    The NumPy mean of three or more tied values may round out of the tie,
    onto the next grid value; two barriers of a class can then come out
    equal, and both sides raise InvariantViolation. Every other draw must
    decompose."""
    rng = np.random.default_rng(seed)
    step = k * math.ulp(1e8)
    j = rng.integers(0, 4, size=n)
    rise = rng.integers(1, 4, size=n - 1)
    cs = _chain(1e8 + step * j,
                1e8 + step * (np.maximum(j[:-1], j[1:]) + rise))
    L = oracle.levels(ById(cs))
    drifted = any(not lo <= r <= hi for (lo, hi), r in zip(L.spans, L.reps))
    assert assert_same(cs) == "ok" or drifted


@given(seeds, st.booleans())
def test_report_components_are_labelled_components(seed, flat):
    """The merge-tree table of the report and each minimum's node id in it
    give back E(m) of the labelling."""
    rng = np.random.default_rng(seed)
    for cs in (tied_structure(rng, n_max=16), type2_gadget(rng, flat=flat),
               random_tree_structure(rng, n_max=14)):
        lab = topology.decompose(cs).labelling
        table, num = cli._merge_tree_block(topology.merge_tree(cs))
        rows = components(table)
        assert {m: rows[num[lab.E[m]]] for m in lab.E} == {
            m: sorted(E)
            for m, E in oracle.label_minima(ById(cs)).E.items()}


@given(seeds, st.integers(min_value=0, max_value=3))
def test_tie_heavy(seed, stray):
    rng = np.random.default_rng(seed)
    cs = tied_structure(rng, n_max=16, stray=stray)
    kind = assert_same(cs)
    assert stray or kind == "ok"
    assert_same(_thinned(cs, rng))


def test_errors_are_exercised():
    # the draws above must reach both rejections of verify_separating
    messages = []
    for seed in range(40):
        rng = np.random.default_rng(seed)
        for cs in (tied_structure(rng, stray=2),
                   _thinned(tied_structure(rng), rng)):
            kind, value = _decomposition(oracle, cs)
            if kind != "ok":
                messages.append(value)
    assert "landscape is not connected" in messages
    assert any("already connected below" in m for m in messages)


def test_disconnected_landscape_is_not_labelled():
    # outside the separating check, the sweep labels a piece no saddle links
    # to the global minimum with the top saddle value; decompose refuses it
    cs = CriticalStructure(
        [Minimum("m1", 0.0, 1.0), Minimum("m2", 0.1, 1.0),
         Minimum("m3", 0.2, 1.0), Minimum("m4", 0.3, 1.0)],
        [Saddle("s1", 1.0, 1.0, 1.0, ("m1", "m2")),
         Saddle("s2", 2.0, 1.0, 1.0, ("m3", "m4"))])
    assert oracle.label_minima(ById(cs)).sigma["m3"] == 2.0
    with pytest.raises(InputDataError, match="not connected"):
        topology.decompose(cs)
