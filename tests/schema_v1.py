"""Rebuild a ``metastab/1`` report from its ``metastab/2`` form.

Schema 2 leaves out what schema 1 printed in full and a reader can derive:

* each class's dense ``matrices`` (Upsilon, T and the graded core) become
  the ``upsilon`` coefficients of its saddle rows plus, for a type II class,
  ``theta0`` over the last block of the extended set;
* each minimum's ``component`` id list becomes the id of a ``merge_tree``
  node, whose members are the leaves below it.

``expand_v1`` undoes both, with the NumPy expressions of
``metastab.prefactors``, so ``cli.dumps(expand_v1(json.loads(v2)))`` gives
the schema 1 bytes of the same run.
"""

import numpy as np


def components(tree):
    """Sorted member ids of every merge-tree node, by node id.

    A node no row names as its parent is a leaf holding its deepest
    minimum; children precede their parents, so one pass collects them.
    """
    rows = tree["nodes"]
    parents = {parent for _, parent, _ in rows}
    members = [[deepest] if i not in parents else []
               for i, (_, _, deepest) in enumerate(rows)]
    for i, (_, parent, _) in enumerate(rows):
        if parent is not None:
            members[parent].extend(members[i])
    return [sorted(m) for m in members]


def class_matrices(c):
    """Upsilon, T and the graded core of a non-ground class block."""
    uhat, order = c["uhat_order"], c["member_order"]
    col = {mid: i for i, mid in enumerate(uhat)}
    U = np.zeros((len(c["saddle_rows"]), len(uhat)))
    for i, r in enumerate(c["saddle_rows"]):
        for mid, x in zip((r["m1"], r["m2"]), r["upsilon"]):
            U[i, col[mid]] = x
    if c["type"] == "II":
        blk_members = c["blocks"][-1]["members"]
        blk = blk_members + [c["ref_min"]]
    else:
        blk_members = blk = []
    T = np.zeros((len(uhat), len(order)))
    for j, mid in enumerate(order):
        if mid not in blk:
            T[col[mid], j] = 1.0
    if blk:
        # Householder reflection sending e_1 to theta0, first column dropped
        theta0 = np.array(c["theta0"])
        b = len(blk)
        v = -theta0.copy()
        v[0] += 1.0
        nv2 = v @ v
        if nv2 < 1e-26:
            comp = np.eye(b)[:, 1:]
        else:
            comp = (np.eye(b) - np.outer(2.0 * v / nv2, v))[:, 1:]
        T[np.ix_([col[m] for m in blk],
                 [order.index(m) for m in blk_members])] = comp
    A = U @ T
    core = A.T @ A
    core = 0.5 * (core + core.T)
    return U, T, core


def _class_v1(c):
    if c["ground"]:
        return c
    U, T, core = class_matrices(c)
    out = {}
    for key, value in c.items():
        if key == "saddle_rows":
            value = [{k: v for k, v in r.items() if k != "upsilon"}
                     for r in value]
        elif key == "theta0":
            continue
        elif key == "levels":
            out["matrices"] = {"upsilon": U, "T": T, "core": core}
        out[key] = value
    return out


def expand_v1(doc):
    """The schema 1 document of a schema 2 report (analyze, example,
    validate or error)."""
    comps = components(doc["merge_tree"]) if "merge_tree" in doc else None
    out = {}
    for key, value in doc.items():
        if key == "schema":
            value = "metastab/1"
        elif key == "merge_tree":
            continue
        elif key == "labelling":
            value = {**value, "minima": {
                mid: {**row, "component": comps[row["component"]]}
                for mid, row in value["minima"].items()}}
        elif key == "classes":
            value = [_class_v1(c) for c in value]
        elif key == "validation":
            value = expand_v1(value)
        out[key] = value
    return out
