"""Golden bytes: the exact stdout of ``metastab example`` for the bundled
examples, and of ``metastab analyze --h 0.1`` on two seeded structures with
many levels, pinned by sha256 and length.

A refactor of the report path must leave these bytes unchanged; a change
that alters them on purpose bumps the schema and updates the table.

The examples run in one child interpreter with single-threaded BLAS. The
dense ring spectrum (``ex-c --n 200``) depends in its last bits on the BLAS
thread count, so the digests are pinned for one thread; they do not depend
on ``PYTHONHASHSEED``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import metastab
from conftest import tied_structure
from metastab.landscape import (CriticalStructure, Minimum, Saddle,
                                structure_to_dict)
from metastab.topology import decompose

GOLDEN = {
    "ex-a": (
        "be606e6bd11163a25fbcc431a58949c78793e6de043e6e37f0735f2ac594da34",
        4295),
    "ex-b": (
        "f9190ca3fde595a233f142911d06274f0ce924a75612a9c37bbb8bd559f450a2",
        4089),
    "ex-b --theta 2": (
        "f48fe4b2ffd3dab02322e41d3e18716b2858fe7626d5c016176b3fd8cc431cae",
        4086),
    "nine-wells": (
        "d89162bfd60baadf3af8ced4530d09965191a96128e18926d1918eded42b187e",
        10883),
    "double-well": (
        "2500725fb43bb3576083238bc1749a390854546b1661188aab3219aec9751fc7",
        5374),
    "ex-c --n 4": (
        "d1df88c5484b706382cf7b5f6f8e80690bf80e627666d6d5c8c674cb351f786e",
        3908),
    "ex-c --n 200": (
        "70e43c64bde20b4e5b37aaac148375bc97caf31e29ad2c8080c8717ba251ac86",
        3577303),
}

# ``metastab analyze --h 0.1`` on the structures built by _STRUCTURES
GOLDEN_ANALYZE = {
    "chain-40": (
        "62a671dc56b1eff08d97fd45e2cfe8b0a14be2086a52fe2d6e5eb71031321562",
        64390),
    "tied-7": (
        "308d361a7a2b327a08abdc32ecfa8ed0381cb4a88498191c5e2db5009555e97f",
        34134),
}


def _chain(seed, n=40):
    """Strict chain: n minima and n - 1 saddles, all values distinct."""
    rng = np.random.default_rng(seed)
    depth = rng.uniform(0.0, 1.0, n)
    ids = [f"m{j + 1:02d}" for j in range(n)]
    minima = [Minimum(mid, float(d), float(rng.uniform(0.5, 5.0)))
              for mid, d in zip(ids, depth)]
    saddles = [Saddle(f"s{j + 1:02d}",
                      float(max(depth[j], depth[j + 1])
                            + rng.uniform(0.2, 1.5)),
                      float(rng.uniform(0.5, 5.0)),
                      float(rng.uniform(0.5, 5.0)), (ids[j], ids[j + 1]))
                 for j in range(n - 1)]
    return CriticalStructure(minima, saddles)


_STRUCTURES = {
    "chain-40": lambda: _chain(seed=40),
    "tied-7": lambda: tied_structure(np.random.default_rng(7), n_max=24),
}

_CHILD = """
import hashlib, json, sys
from click.testing import CliRunner
from metastab.cli import main
out = {}
for case, args in json.loads(sys.argv[1]).items():
    res = CliRunner().invoke(main, args)
    out[case] = [res.exit_code, hashlib.sha256(res.stdout_bytes).hexdigest(),
                 len(res.stdout_bytes)]
print(json.dumps(out))
"""


def _run_cases(cases):
    """Run each case's argument list; returns [exit code, sha256, length]."""
    env = dict(os.environ)
    src = str(Path(metastab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    res = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(cases)],
                         env=env, capture_output=True, text=True, check=True)
    return json.loads(res.stdout)


def test_example_stdout_matches_golden_bytes():
    got = _run_cases({case: ["example", *case.split()] for case in GOLDEN})
    for case, (digest, size) in GOLDEN.items():
        code, got_digest, got_size = got[case]
        assert code == 0, case
        assert (got_digest, got_size) == (digest, size), case


def test_many_level_structures():
    chain = _STRUCTURES["chain-40"]()
    assert len(chain.levels) == 79
    tied = _STRUCTURES["tied-7"]()
    pairs = [frozenset(s.joins) for s in tied.saddles]
    assert len(set(pairs)) < len(pairs)          # parallel saddles
    cd = decompose(tied)
    assert len({c.sigma_cluster for c in cd.classes[1:] if c.type2}) >= 3


def test_analyze_stdout_matches_golden_bytes(tmp_path):
    cases = {}
    for case, build in _STRUCTURES.items():
        path = tmp_path / f"{case}.json"
        path.write_text(json.dumps(structure_to_dict(build())))
        cases[case] = ["analyze", str(path), "--h", "0.1"]
    got = _run_cases(cases)
    for case, (digest, size) in GOLDEN_ANALYZE.items():
        code, got_digest, got_size = got[case]
        assert code == 0, case
        assert (got_digest, got_size) == (digest, size), case
