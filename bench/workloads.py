"""The benchmark's three workloads: seeded inputs, the in-process operation,
the matching CLI command, and output checks made apart from the program.

Every operation calls the program through module attributes
(``landscape.load_structure``, not a name imported from it), so the traced
run can wrap those attributes and see each call.
"""

import hashlib
import json
import math
import random
from typing import Callable, NamedTuple

import numpy as np

from metastab import cli, examples, landscape, spectra, topology, validator

CHAIN_N = 300                 # minima in the generic chain
CHAIN_H = 0.1
RING_N = 200                  # minima (and saddles) in the ex-c ring
RING_H = 0.1
VALIDATE_H = (0.3, 0.2, 0.15)  # largest first, as the CLI expects


class CheckFailed(Exception):
    """An output of the program disagrees with the independent check."""


class Case(NamedTuple):
    op: Callable[[], str]             # the in-process operation; returns the report text
    check_op: Callable[[str], None]   # raises CheckFailed on a wrong report
    cli_args: list                    # arguments after ``python -m metastab.cli``
    cli_out: str                      # the file the CLI writes its report to
    check_cli: Callable[[str, str], None]  # (cli text, checked op text)
    make_up: dict                     # sizes of the input, for the result file


class Workload(NamedTuple):
    name: str
    ops_per_round: int    # in-process repetitions per CLI launch
    prepare: Callable     # (seed, workdir: Path, rel: str) -> Case


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def _close(a, b, rtol, what):
    _require(a is not None and math.isfinite(a) and abs(a - b) <= rtol * abs(b),
             f"{what}: program {a!r}, expected {b!r} (rtol {rtol:g})")


# ------------------------------------------------------------ generic chain

def chain_document(seed, n=CHAIN_N):
    """A 1D chain m0 - s0 - m1 - ... with pairwise distinct minimum values
    and pairwise distinct saddle values, every saddle above both of its
    minima. Draws are repeated until all 2n-1 values sit at least 1e-7
    apart, far outside the 1e-9 level tolerance, so S_1 < ... < S_n."""
    rng = random.Random(seed)
    while True:
        mphi = [rng.random() for _ in range(n)]
        sphi = [max(mphi[i], mphi[i + 1]) + 0.25 + rng.random()
                for i in range(n - 1)]
        vals = sorted(mphi + sphi)
        if min(b - a for a, b in zip(vals, vals[1:])) > 1e-7:
            break
    width = len(str(n))
    mids = [f"m{i:0{width}d}" for i in range(n)]
    minima = [{"id": mids[i], "phi": mphi[i],
               "det_hess": 0.5 + 1.5 * rng.random()} for i in range(n)]
    saddles = [{"id": f"s{i:0{width}d}", "phi": sphi[i],
                "det_hess": 0.5 + 1.5 * rng.random(),
                "neg_eig": 0.5 + 1.5 * rng.random(),
                "joins": [mids[i], mids[i + 1]]} for i in range(n - 1)]
    return {"minima": minima, "saddles": saddles, "level_tolerance": 1e-9}


def eyring_kramers(doc):
    """Barrier and prefactor of every non-global minimum of a generic
    structure, by an ascending union-find over the saddles.

    When a saddle s merges two components, the one whose deepest minimum m
    is higher is absorbed: m gets S = phi(s) - phi(m) and the generic
    Eyring-Kramers prefactor
    zeta^2 = |lambda_1(s)| sqrt(det Hess(m)) / (pi sqrt|det Hess(s)|).
    Returns (global minimum id, {id: (S, zeta2)}).
    """
    mins = {m["id"]: m for m in doc["minima"]}
    parent = {mid: mid for mid in mins}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    deepest = {mid: mid for mid in mins}
    out = {}
    for s in sorted(doc["saddles"], key=lambda s: s["phi"]):
        ra, rb = (find(j) for j in s["joins"])
        da, db = deepest[ra], deepest[rb]
        hi, lo = (da, db) if mins[da]["phi"] > mins[db]["phi"] else (db, da)
        m = mins[hi]
        out[hi] = (s["phi"] - m["phi"],
                   s["neg_eig"] * math.sqrt(m["det_hess"])
                   / (math.pi * math.sqrt(s["det_hess"])))
        parent[rb] = ra
        deepest[ra] = lo
    roots = {find(x) for x in mins}
    if len(roots) != 1:
        raise ValueError("chain is not connected")
    return deepest[roots.pop()], out


def prepare_chain(seed, workdir, rel):
    doc = chain_document(seed)
    text = json.dumps(doc)
    (workdir / "chain.json").write_text(text)
    mbar, expect = eyring_kramers(doc)
    n = len(doc["minima"])

    def op():
        cs = landscape.load_structure(text)
        report, _ = cli.analyze_document(cs, (CHAIN_H,))
        return cli.dumps(report)

    def check_op(out):
        rep = json.loads(out)
        _require(len(rep["structure"]["level_clusters"]) == 2 * n - 1,
                 "level cluster count is not 2N-1")
        _require(rep["labelling"]["global_min"] == mbar, "wrong global minimum")
        classes = rep["classes"]
        _require(len(classes) == n, f"{len(classes)} classes for {n} minima")
        _require(classes[0]["members"] == [mbar] and classes[0]["ground"],
                 "ground class")
        seen = set()
        for c in classes[1:]:
            _require(len(c["members"]) == 1, f"class {c['members']} is not a singleton")
            mid = c["members"][0]
            seen.add(mid)
            S, z = expect[mid]
            lv, = c["levels"]
            _close(lv["S"], S, 1e-12, f"S of {mid}")
            _close(lv["zeta2"][0], z, 1e-12, f"zeta2 of {mid}")
        _require(seen == set(expect), "classes do not cover the minima")
        ev, = rep["evaluated"]
        by_class = {tuple(e["class"]): e for e in ev["eigenvalues"]}
        for mid, (S, z) in expect.items():
            want = math.log(CHAIN_H * z) - 2.0 * S / CHAIN_H
            _close(by_class[(mid,)]["log_lambda"], want, 1e-12,
                   f"log_lambda of {mid}")

    def check_cli(cli_text, op_text):
        _require(cli_text == op_text + "\n",
                 "CLI report differs from the in-process report")
        json.loads(cli_text)

    return Case(op, check_op,
                ["analyze", f"{rel}/chain.json", "--h", repr(CHAIN_H),
                 "--out", f"{rel}/chain.report.json"],
                str(workdir / "chain.report.json"), check_cli,
                {"N": n, "h": [CHAIN_H], "level_clusters": 2 * n - 1,
                 "classes": n, "nonground_classes": n - 1})


# --------------------------------------------------------- degenerate ring

def prepare_ring(seed, workdir, rel):
    # ex-c is fully fixed by n; the seed selects nothing here.
    n = RING_N
    want = sorted(2.0 - 2.0 * math.cos(2.0 * math.pi * k / n)
                  for k in range(1, n))

    def op():
        bundle = examples.build_example("ex-c", n=n)
        report, _ = cli.analyze_document(bundle.structure, (RING_H,))
        return cli.dumps(report)

    def check_op(out):
        rep = json.loads(out)
        _require(len(rep["structure"]["level_clusters"]) == 2,
                 "ring should have two level clusters")
        ground, ring = rep["classes"]
        _require(ground["ground"] and len(ground["members"]) == 1, "ground class")
        _require(len(ring["members"]) == n - 1 and ring["type"] == "II",
                 "ring class is not one (n-1)-member type II class")
        lv, = ring["levels"]
        _require(lv["S"] == 1.0, f"ring barrier {lv['S']} != 1")
        got = sorted(lv["pi_zeta2"])
        _require(len(got) == len(want), "ring spectrum size")
        worst = max(abs(a - b) for a, b in zip(got, want))
        _require(worst <= 1e-11, f"ring pi*zeta2 off by {worst:.3g}")
        ev, = rep["evaluated"]
        _require(len(ev["eigenvalues"]) == n, "evaluated count")

    def check_cli(cli_text, op_text):
        got, ref = json.loads(cli_text), json.loads(op_text)
        for key in ("structure", "labelling", "classes"):
            _require(got[key] == ref[key], f"CLI {key} block differs from the op")
        _require(got["example"]["realization"]["n"] == n, "CLI ring size")

    return Case(op, check_op,
                ["example", "ex-c", "--n", str(n),
                 "--out", f"{rel}/ring.report.json"],
                str(workdir / "ring.report.json"), check_cli,
                {"n": n, "h": [RING_H], "level_clusters": 2, "classes": 2,
                 "ring_class_members": n - 1})


# -------------------------------------------------------- validate sampled

def prepare_validate(seed, workdir, rel):
    # chain_sampled() has no free parameters; the seed selects nothing here.
    p = examples.chain_sampled()
    np.savetxt(workdir / "chain.csv", np.column_stack([p.xs, p.phis]),
               delimiter=",", fmt="%.17g", header="x,phi", comments="")
    path = f"{rel}/chain.csv"
    golden = math.sqrt(5.0) / 2.0
    levels = [(1.5, 1.5 - golden), (1.5, 1.5 + golden), (1.0, 1.0)]

    def op():
        q = landscape.load_samples(path)
        cs = landscape.extract_critical_structure(q)
        cd = topology.decompose(cs)
        rep = spectra.full_spectrum(cs, cd)
        vrep = validator.compare(rep, q, VALIDATE_H)
        return cli.dumps(cli.validation_document(vrep, path, list(VALIDATE_H)))

    def check_op(out):
        rep = json.loads(out)
        _require(rep["verdicts"] == ["PASS"] * 3 and rep["overall"] == "PASS",
                 f"verdicts {rep['verdicts']}")
        _require([s["h"] for s in rep["steps"]] == list(VALIDATE_H), "h schedule")
        for step in rep["steps"]:
            h = step["h"]
            want = sorted(h * pz / math.pi * math.exp(-2.0 * S / h)
                          for S, pz in levels)
            got = [e["predicted"] for e in step["eigenvalues"]]
            _require(len(got) == 3, "three nonzero eigenvalues")
            for i, (a, b) in enumerate(zip(got, want)):
                _close(a, b, 1e-6, f"prediction {i + 1} at h={h}")
        last = rep["steps"][-1]
        for e in last["eigenvalues"]:
            _require(e["deviation"] <= 3.0 * last["h"],
                     f"deviation {e['deviation']} above 3h at h={last['h']}")

    def check_cli(cli_text, op_text):
        _require(cli_text == op_text + "\n",
                 "CLI report differs from the in-process report")
        json.loads(cli_text)

    h_text = ",".join(repr(h) for h in VALIDATE_H)
    return Case(op, check_op,
                ["validate", path, "--h", h_text,
                 "--out", f"{rel}/chain.report.json"],
                str(workdir / "chain.report.json"), check_cli,
                {"samples": int(p.xs.size), "h": list(VALIDATE_H),
                 "minima": 4, "saddles": 3, "nonzero_eigenvalues": 3})


WORKLOADS = {w.name: w for w in (
    Workload("generic-chain", 3, prepare_chain),
    Workload("degenerate-ring", 2, prepare_ring),
    Workload("validate-sampled", 2, prepare_validate),
)}
