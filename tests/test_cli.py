"""End-to-end checks of the command-line surface: document shape, byte
determinism, error exit codes, and the plot-table side channel."""

import gc
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import metastab.cli as cli
from conftest import run_cli, run_python, tied_structure
from metastab import landscape
from metastab.errors import InvariantViolation
from metastab.examples import build_example, example_names
from metastab.landscape import structure_to_dict
from test_golden import _STRUCTURES
from test_spectrum_oracle import _degenerate

RPI = 1.0 / math.sqrt(math.pi)


def run_json(args):
    res = run_cli(args)
    assert res.exit_code == 0, res
    return json.loads(res.stdout)


def all_text(res):
    return res.stdout + res.stderr


def write_structure(path, name, **kw):
    cs = build_example(name, **kw).structure
    path.write_text(json.dumps(structure_to_dict(cs)))


def test_version():
    res = run_cli(["--version"])
    assert res.exit_code == 0
    assert res.stdout == "metastab, version 0.1.0\n"


def test_example_document_shape():
    doc = run_json(["example", "ex-a"])
    assert doc["schema"] == "metastab/2"
    assert doc["command"] == "example"
    assert doc["block_order"] == "ascending-S"
    assert doc["example"]["name"] == "ex-a"
    assert list(doc) == ["schema", "command", "block_order", "structure",
                         "labelling", "merge_tree", "classes", "example"]
    assert doc["labelling"]["global_min"] == "m11"

    # components are merge-tree nodes: m21 and m22 are leaves, the root
    # holds every minimum
    tree = doc["merge_tree"]
    assert tree["columns"] == ["born", "parent", "deepest"]
    nodes = tree["nodes"]
    minima = doc["labelling"]["minima"]
    root = minima["m11"]["component"]
    assert nodes[root][1] is None and nodes[root][2] == "m11"
    for mid in ("m21", "m22", "m23"):
        born, parent, deepest = nodes[minima[mid]["component"]]
        assert (parent, deepest) == (root, mid)

    ground, pair, single = doc["classes"]
    assert ground == {"members": ["m11"], "ground": True,
                      "levels": [{"S": None, "zeta2": [0.0],
                                  "pi_zeta2": [0.0]}]}

    assert pair["members"] == ["m21", "m22"]
    assert (pair["type"], pair["q"], pair["p"]) == ("I", 2, 1)
    lv, = pair["levels"]
    assert lv["S"] == 1.5
    want = [(3 - math.sqrt(5)) / 2, (3 + math.sqrt(5)) / 2]
    assert np.allclose(lv["pi_zeta2"], want, rtol=1e-12)
    assert "matrices" not in pair and "theta0" not in pair
    rows = [(r["saddle"], r["m1"], r["m2"], r["kind"])
            for r in pair["saddle_rows"]]
    assert rows == [("s1", "m21", "m22", "interior"),
                    ("s2", "m22", "m11", "boundary")]
    s1, s2 = pair["saddle_rows"]
    assert np.allclose(s1["upsilon"], [RPI, -RPI], rtol=1e-12)
    assert np.allclose(s2["upsilon"], [RPI], rtol=1e-12)

    assert single["members"] == ["m23"]
    assert single["levels"][0]["S"] == 1.0
    assert np.allclose(single["levels"][0]["pi_zeta2"], [1.0], rtol=1e-12)


def test_example_output_is_deterministic():
    a = run_cli(["example", "ex-b", "--theta", "2"])
    b = run_cli(["example", "ex-b", "--theta", "2"])
    assert a.exit_code == 0 and a.stdout == b.stdout


def test_example_theta_parameter():
    """Two-level class: leading block (1+theta^2)/pi, then the Schur
    complement [[1,-1],[-1,2-nu]]/pi with nu = 1/(1+theta^2)."""
    doc = run_json(["example", "ex-b", "--theta", "2"])
    cls = next(c for c in doc["classes"] if not c["ground"])
    lv1, lv2 = cls["levels"]
    assert (lv1["S"], lv2["S"]) == (1.0, 1.5)
    assert np.allclose(lv1["pi_zeta2"], [5.0], rtol=1e-12)
    want = np.linalg.eigvalsh([[1.0, -1.0], [-1.0, 2.0 - 0.2]])
    assert np.allclose(lv2["pi_zeta2"], want, rtol=1e-12)
    assert doc["example"]["reference"]["nu"] == pytest.approx(0.2)


def test_example_ring_degenerate_pair():
    doc = run_json(["example", "ex-c", "--n", "3"])
    cls = next(c for c in doc["classes"] if not c["ground"])
    lv, = cls["levels"]
    assert np.allclose(lv["pi_zeta2"], [3.0, 3.0], rtol=1e-10)
    ref = doc["example"]["reference"]
    assert np.allclose(ref["pi_zeta2"], lv["pi_zeta2"], rtol=1e-10)
    assert ref["S"] == 1.0


def test_example_errors():
    res = run_cli(["example", "nope"])
    assert res.exit_code == 2
    doc = json.loads(res.stdout)
    assert doc["schema"] == "metastab/2"
    assert doc["error"]["type"] == "InputDataError"
    assert "unknown example" in doc["error"]["message"]

    res = run_cli(["example", "ex-a", "--n", "3"])
    assert res.exit_code == 2
    assert "takes no parameters" in json.loads(res.stdout)["error"]["message"]


def test_analyze_structure_json(tmp_path):
    src = tmp_path / "s.json"
    write_structure(src, "ex-a")
    doc = run_json(["analyze", str(src), "--h", "0.1,0.05"])
    assert doc["command"] == "analyze"
    assert [b["h"] for b in doc["evaluated"]] == [0.1, 0.05]
    for block in doc["evaluated"]:
        entries = block["eigenvalues"]
        assert len(entries) == 4
        assert entries[0]["lambda"] == 0.0
        assert entries[0]["log_lambda"] is None
        assert entries[0]["class"] == ["m11"]
        lams = [e["lambda"] for e in entries[1:]]
        assert lams == sorted(lams)
        for e in entries[1:]:
            pred = block["h"] * e["zeta2"] * math.exp(-2 * e["S"] / block["h"])
            assert e["lambda"] == pytest.approx(pred, rel=1e-12)
            assert e["pi_zeta2"] == pytest.approx(math.pi * e["zeta2"])


def test_analyze_out_file_and_plot_table(tmp_path):
    src = tmp_path / "s.json"
    write_structure(src, "ex-a")
    out = tmp_path / "rep.json"
    res = run_cli(["analyze", str(src), "--h", "0.1",
                   "--out", str(out), "--emit-plots"])
    assert res.exit_code == 0
    assert res.stdout == ""
    doc = json.loads(out.read_text())

    table = tmp_path / "rep.levels.csv"
    lines = table.read_text().splitlines()
    assert lines[0] == "h,index,predicted,numeric"
    assert len(lines) == 5
    entries = doc["evaluated"][0]["eigenvalues"]
    for i, line in enumerate(lines[1:]):
        h, idx, pred, num = line.split(",")
        assert (float(h), int(idx), num) == (0.1, i, "")
        assert float(pred) == entries[i]["lambda"]


def test_out_file_is_utf8_under_the_c_locale(tmp_path):
    """Input is read as UTF-8 and report strings are not ASCII-escaped, so
    the report file is written as UTF-8 whatever the locale: under the C
    locale, without UTF-8 mode, ``--out`` holds the bytes stdout gets."""
    text = json.dumps(structure_to_dict(build_example("ex-a").structure))
    src = tmp_path / "u.json"
    src.write_text(text.replace('"m23"', '"m\u00e9"'), encoding="utf-8")
    out = tmp_path / "r.json"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
    env.update(LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
               PYTHONPATH=os.pathsep.join(
                   [str(Path(cli.__file__).resolve().parents[1])]
                   + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])))
    args = [sys.executable, "-m", "metastab.cli", "analyze", str(src),
            "--h", "0.1", "--emit-plots"]
    to_file = subprocess.run(args + ["--out", str(out)], env=env,
                             capture_output=True)
    assert to_file.returncode == 0, to_file.stdout + to_file.stderr
    to_stdout = subprocess.run(args, env=env, capture_output=True,
                               cwd=tmp_path)
    assert to_stdout.returncode == 0, to_stdout.stdout + to_stdout.stderr
    assert '"m\u00e9"'.encode() in to_stdout.stdout
    assert out.read_bytes() == to_stdout.stdout


_LOADED = """
import sys
start = set(sys.modules)     # what the interpreter loaded before the program
import metastab.cli
if sys.argv[1:]:
    metastab.cli.main(sys.argv[1:])
print(" ".join(sorted({m.split(".")[0] for m in set(sys.modules) - start}
                      - set(sys.stdlib_module_names))))
print("numpy.polynomial" in sys.modules)
"""


@pytest.mark.parametrize("command", [[],
                                     ["analyze", "chain-40.json", "--h", "0.1"],
                                     ["analyze", "dw.csv", "--h", "0.1"],
                                     ["validate", "dw.csv", "--h", "0.15,0.1"]])
def test_launch_loads_numpy_and_metastab_alone(tmp_path, command):
    """Importing the CLI, analyzing the 40-minimum chain of ``test_golden``,
    and analyzing and validating a sampled double well load no package
    outside the standard library but NumPy and metastab itself. Extraction
    fits in closed form: no run loads ``numpy.polynomial``."""
    (tmp_path / "chain-40.json").write_text(json.dumps(structure_to_dict(
        _STRUCTURES["chain-40"]())))
    xs = np.linspace(-2.0, 2.0, 2001)
    _write_csv(tmp_path / "dw.csv", xs, (xs * xs - 1.0) ** 2)
    args = []
    if command:
        args = [command[0], str(tmp_path / command[1]), *command[2:],
                "--out", str(tmp_path / "r.json")]
    res = run_python(_LOADED, *args)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split("\n")[:2] == ["metastab numpy", "False"]


def test_analyze_plot_table_default_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_structure(Path("s.json"), "ex-a")
    res = run_cli(["analyze", "s.json", "--h", "0.1", "--emit-plots"])
    assert res.exit_code == 0
    assert Path("s.json.levels.csv").exists()


def test_emit_plots_requires_h(tmp_path):
    src = tmp_path / "s.json"
    write_structure(src, "ex-a")
    res = run_cli(["analyze", str(src), "--emit-plots"])
    assert res.exit_code == 2
    assert "--emit-plots needs --h" in all_text(res)


def test_analyze_sniffs_json_without_extension(tmp_path):
    src = tmp_path / "landscape.txt"
    write_structure(src, "ex-a")
    doc = run_json(["analyze", str(src)])
    assert doc["command"] == "analyze"
    assert "evaluated" not in doc


def test_analyze_sniffs_the_head_only(tmp_path, monkeypatch):
    # the format is told from the first bytes; the loader reads the file
    # once, so reading all of it to sniff would read it twice
    structure = tmp_path / "landscape.txt"
    write_structure(structure, "ex-a")
    samples = tmp_path / "dw.txt"
    p = build_example("double-well").potential
    samples.write_text("".join(
        f"{x!r},{y!r}\n" for x, y in zip(p.xs.tolist(), p.phis.tolist())))

    def whole(self):
        raise AssertionError(f"{self} read whole")

    monkeypatch.setattr(Path, "read_bytes", whole)
    assert run_json(["analyze", str(structure)])["command"] == (
        "analyze")
    assert len(run_json(["analyze", str(samples)])["classes"]) == 2


def test_analyze_rejects_bad_input(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("hello world\nnot a table\n")
    res = run_cli(["analyze", str(bad)])
    assert res.exit_code == 2
    doc = json.loads(res.stdout)
    assert doc["schema"] == "metastab/2"
    assert doc["error"]["type"] == "InputDataError"
    assert "two comma-separated columns" in doc["error"]["message"]

    bad = tmp_path / "bad.json"
    bad.write_text("{ nope")
    res = run_cli(["analyze", str(bad)])
    assert res.exit_code == 2
    assert "invalid JSON" in json.loads(res.stdout)["error"]["message"]


@pytest.mark.parametrize("mid, field, value", [
    ("m23", "phi", math.nan),         # used to exit 0 with log_lambda null
    ("m23", "det_hess", math.inf),    # used to end in a ZeroDivisionError
])
def test_analyze_rejects_non_finite_input(tmp_path, mid, field, value):
    doc = structure_to_dict(build_example("ex-a").structure)
    next(m for m in doc["minima"] if m["id"] == mid)[field] = value
    src = tmp_path / "s.json"
    src.write_text(json.dumps(doc))
    res = run_cli(["analyze", str(src), "--h", "0.1"])
    assert res.exit_code == 2
    err = json.loads(res.stdout)["error"]
    assert err == {"type": "InputDataError",
                   "message": f"minimum {mid}: phi and det_hess must be finite"}


@pytest.mark.parametrize("kind, field, value, message", [
    ("minima", "det_hess", True, "minimum: field 'det_hess' has wrong type"),
    ("minima", "phi", False, "minimum: field 'phi' has wrong type"),
    ("saddles", "neg_eig", True, "saddle: field 'neg_eig' has wrong type"),
    ("minima", "phi", 10 ** 400,
     "minimum: field 'phi' is beyond float range"),
], ids=["true-det_hess", "false-phi", "true-neg_eig", "huge-int-phi"])
def test_analyze_rejects_non_numbers(tmp_path, kind, field, value,
                                     message):
    doc = structure_to_dict(build_example("ex-a").structure)
    doc[kind][-1][field] = value
    src = tmp_path / "s.json"
    src.write_text(json.dumps(doc))
    res = run_cli(["analyze", str(src)])
    assert res.exit_code == 2, res
    err = json.loads(res.stdout)["error"]
    assert err == {"type": "InputDataError", "message": message}


@pytest.mark.parametrize("saddles", [5, None, True, 0.5, {"id": "s1"}],
                         ids=["int", "null", "true", "float", "object"])
def test_analyze_rejects_non_list_saddles(tmp_path, saddles):
    src = tmp_path / "s.json"
    src.write_text(json.dumps({
        "minima": [{"id": "m1", "phi": 0.0, "det_hess": 1.0}],
        "saddles": saddles}))
    res = run_cli(["analyze", str(src)])
    assert res.exit_code == 2, res
    assert json.loads(res.stdout)["error"] == {
        "type": "InputDataError",
        "message": "document: field 'saddles' has wrong type"}


def test_analyze_rejects_deep_nesting(tmp_path):
    src = tmp_path / "deep.json"
    src.write_text("[" * 200_000)
    res = run_cli(["analyze", str(src)])
    assert res.exit_code == 2, res
    assert json.loads(res.stdout)["error"] == {
        "type": "InputDataError", "message": "invalid JSON: nested too deeply"}


def test_analyze_rejects_h_beyond_float_range(tmp_path):
    csv = tmp_path / "dw.csv"
    p = build_example("double-well").potential
    _write_csv(csv, p.xs, p.phis)
    res = run_cli(["analyze", str(csv), "--h", "0.1,1e-320"])
    assert res.exit_code == 2, res
    err = json.loads(res.stdout)["error"]
    assert err == {"type": "InputDataError",
                   "message": "log lambda at h = 1e-320 is out of range"}


@pytest.mark.parametrize("command", ["analyze", "validate"])
@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_extreme_sample_spacing_exits_2(tmp_path, command, scale):
    # unchecked, the quartic fit of an extremum overflows (exit 3)
    csv = tmp_path / "dw.csv"
    p = build_example("double-well").potential
    _write_csv(csv, scale * p.xs, p.phis)
    res = run_cli([command, str(csv), "--h", "0.2"])
    assert res.exit_code == 2, res
    assert res.stderr == ""
    err = json.loads(res.stdout)["error"]
    assert err["type"] == "InputDataError"
    assert err["message"].startswith("sample spacing out of range")


@pytest.mark.parametrize("name, data", [
    ("s.json", b'{"minima": [{"id": "m\xff1", "phi": 0, "det_hess": 1}]}'),
    ("p.csv", b"x,phi\n0,0\n1,1\n2,4\n3,\xe99\n4,16\n"),
], ids=["json", "csv"])
def test_analyze_rejects_invalid_utf8(tmp_path, name, data):
    src = tmp_path / name
    src.write_bytes(data)
    res = run_cli(["analyze", str(src)])
    assert res.exit_code == 2, res
    err = json.loads(res.stdout)["error"]
    assert err["type"] == "InputDataError"
    assert "not UTF-8" in err["message"]


def _analyze_doc(tmp_path, minima, saddles, *args, **kw):
    """Run ``analyze`` on a structure given as (id, phi, det_hess) minima
    and (id, phi, joins, neg_eig) saddles with det_hess 1."""
    src = tmp_path / "s.json"
    src.write_text(json.dumps({
        **kw,
        "minima": [{"id": i, "phi": phi, "det_hess": d}
                   for i, phi, d in minima],
        "saddles": [{"id": i, "phi": phi, "det_hess": 1.0, "neg_eig": neg,
                     "joins": list(j)} for i, phi, j, neg in saddles]}))
    return run_cli(["analyze", str(src), *args])


@pytest.mark.parametrize("m, s, tol", [
    (100000000.00000001, 100000000.00000003, {}),
    (0.9999999999999999, 1.0, {"level_tolerance": 0}),
], ids=["default-tolerance", "zero-tolerance"])
def test_analyze_saddle_one_ulp_above_its_minimum(tmp_path, m, s, tol):
    # the halfway point between the two values rounds onto the saddle's, so
    # a nearest-cluster lookup put the saddle at the minimum's level
    assert math.nextafter(m, math.inf) == s
    res = _analyze_doc(tmp_path, [("m0", m, 1.0), ("m1", 0.0, 1.0)],
                       [("s0", s, ("m0", "m1"), 1.0)], **tol)
    assert res.exit_code == 0, res
    doc = json.loads(res.stdout)
    assert doc["structure"]["level_clusters"] == [0.0, m, s]
    assert doc["labelling"]["minima"]["m0"]["S"] == s - m


def test_analyze_levels_one_ulp_apart(tmp_path):
    # m1 and m2 sit one ulp apart: two levels, so m2 is type I and m1 and m2
    # get the same prefactor
    a = 100000000.00000001
    b = math.nextafter(a, math.inf)
    res = _analyze_doc(
        tmp_path,
        [("m0", 0.0, 1.0), ("m1", a, 1.0), ("m2", b, 1.0)],
        [("s1", a + 10, ("m1", "m2"), 1.0),
         ("s2", a + 20, ("m0", "m1"), 1.0)])
    assert res.exit_code == 0, res
    doc = json.loads(res.stdout)
    assert doc["structure"]["level_clusters"][1:3] == [a, b]
    classes = {c["members"][0]: c for c in doc["classes"]}
    assert classes["m2"]["type"] == "I"
    assert classes["m2"]["levels"][0]["S"] == 9.999999985098839
    for mid in ("m1", "m2"):
        assert classes[mid]["levels"][0]["zeta2"] == [0.31830988618379064]


@pytest.mark.parametrize("args", [(), ("--h", "0.1")], ids=["bare", "h"])
def test_analyze_rejects_pi_zeta2_beyond_float_range(tmp_path, args):
    # zeta2 itself is finite, but pi * zeta2 would print as null
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = _analyze_doc(tmp_path,
                           [("m0", 0.0, 1.0), ("m1", 1.0, 4.0)],
                           [("s0", 2.0, ("m0", "m1"), 1e308)], *args)
    assert res.exit_code == 2, res
    assert json.loads(res.stdout) == {
        "schema": "metastab/2",
        "error": {"type": "InputDataError",
                  "message": "pi * zeta2 at S = 1.0 is beyond float range"}}
    assert "Warning" not in res.stderr
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_analyze_rejects_core_beyond_float_range(tmp_path):
    # Upsilon of m2 is about 8e230, so its 1x1 core overflows: that is bad
    # input, found before any LAPACK call and without a NumPy warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = _analyze_doc(
            tmp_path,
            [("m0", 0.0, 1.7e308), ("m1", 0.5, 1.0), ("m2", 0.2, 1.7e308)],
            [("s0", 2.0, ("m0", "m1"), 1.7e308),
             ("s1", 1.5, ("m1", "m2"), 1.0)])
    assert res.exit_code == 2, res
    assert json.loads(res.stdout) == {
        "schema": "metastab/2",
        "error": {"type": "InputDataError",
                  "message": "core of class ('m2',) is beyond float range "
                             "(Hessian data)"}}
    assert res.stderr == ""
    assert not caught


def test_analyze_rejects_core_that_underflows(tmp_path):
    # the saddle between g0m1 and g0m2 has an Upsilon entry near 1e-239,
    # whose square underflows, so the core is singular: bad input
    src = tmp_path / "s.json"
    src.write_text(json.dumps(structure_to_dict(_degenerate(0))))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = run_cli(["analyze", str(src)])
    assert res.exit_code == 2, res
    assert json.loads(res.stdout) == {
        "schema": "metastab/2",
        "error": {"type": "InputDataError",
                  "message": "core of class ('g0m1', 'g0m2') underflows "
                             "double precision (Hessian data)"}}
    assert res.stderr == ""
    assert not caught


def test_analyze_rejects_barriers_equal_in_double_precision(tmp_path):
    # m1 and m2 are distinct levels, but 1e8 - 0 and 1e8 - 5e-9 are one float
    res = _analyze_doc(
        tmp_path,
        [("m0", -1.0, 1.0), ("m1", 0.0, 1.0), ("m2", 5e-9, 1.0)],
        [("s0", 1e8, ("m1", "m2"), 1.0), ("s1", 1e8, ("m0", "m1"), 1.0)])
    assert res.exit_code == 2, res
    assert json.loads(res.stdout) == {
        "schema": "metastab/2",
        "error": {"type": "InputDataError",
                  "message": "barriers of class ('m1', 'm2') below saddle "
                             "value 100000000.0 coincide in double "
                             "precision"}}


def test_analyze_file_name_starting_with_brace(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name in ("{run}.json", "{run}"):
        write_structure(Path(name), "ex-a")
        doc = run_json(["analyze", name])
        assert doc["labelling"]["global_min"] == "m11"


def test_internal_error_exit_code(tmp_path, monkeypatch):
    src = tmp_path / "s.json"
    write_structure(src, "ex-a")

    def boom(cs):
        raise InvariantViolation("sweep out of order")

    monkeypatch.setattr(cli, "decompose", boom)
    res = run_cli(["analyze", str(src)])
    assert res.exit_code == 3
    assert json.loads(res.stdout) == {
        "schema": "metastab/2",
        "error": {"type": "InvariantViolation",
                  "message": "sweep out of order"}}


def test_unexpected_error_exit_code(monkeypatch):
    def boom(cs):
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setattr(cli, "decompose", boom)
    res = run_cli(["example", "ex-a"])
    assert res.exit_code == 3
    assert json.loads(res.stdout) == {
        "schema": "metastab/2",
        "error": {"type": "ZeroDivisionError",
                  "message": "float division by zero"}}


def _write_csv(path, xs, phis):
    with open(path, "w") as fh:
        fh.write("x,phi\n")
        for x, p in zip(xs, phis):
            fh.write(f"{x:.17g},{p:.17g}\n")


def test_validate_writes_the_schedule_it_ran(tmp_path):
    # a repeated or unordered h is run once, largest first, and the report
    # names the steps it holds
    csv = tmp_path / "dw.csv"
    xs = np.linspace(-2.0, 2.0, 4001)
    _write_csv(csv, xs, (xs ** 2 - 1.0) ** 2)
    doc = run_json(["validate", str(csv), "--h", "0.1,0.15,0.15"])
    assert doc["h"] == [0.15, 0.1]
    assert [s["h"] for s in doc["steps"]] == doc["h"]


def test_validate_single_well_is_vacuous(tmp_path):
    csv = tmp_path / "well.csv"
    xs = np.linspace(-6.0, 6.0, 2001)
    _write_csv(csv, xs, xs * xs)
    doc = run_json(["validate", str(csv), "--h", "0.5"])
    assert doc["command"] == "validate"
    assert doc["overall"] == "PASS"
    assert doc["verdicts"] == []
    assert doc["nonzero_count"] == 0
    step, = doc["steps"]
    assert step["grid"] == 4000 and step["eigenvalues"] == []


def test_validate_double_well(tmp_path):
    csv = tmp_path / "dw.csv"
    xs = np.linspace(-2.0, 2.0, 4001)
    _write_csv(csv, xs, (xs ** 2 - 1.0) ** 2)
    out = tmp_path / "v.json"
    res = run_cli(["validate", str(csv), "--h", "0.15,0.1",
                   "--out", str(out), "--emit-plots"])
    assert res.exit_code == 0, res
    doc = json.loads(out.read_text())
    assert doc["h"] == [0.15, 0.1]
    assert doc["overall"] == "PASS"
    assert doc["verdicts"] == ["PASS"]
    assert doc["nonzero_count"] == 1
    devs = [s["eigenvalues"][0]["deviation"] for s in doc["steps"]]
    assert devs[1] <= devs[0] <= 0.1
    for s in doc["steps"]:
        row, = s["eigenvalues"]
        assert row["index"] == 1
        assert row["ratio"] == pytest.approx(1.0, abs=0.05)
        assert row["grid_drift"] < 1e-8

    lines = (tmp_path / "v.levels.csv").read_text().splitlines()
    assert lines[0] == "h,index,predicted,numeric"
    assert len(lines) == 3
    for line, s in zip(lines[1:], doc["steps"]):
        h, idx, pred, num = line.split(",")
        assert float(h) == s["h"] and int(idx) == 1
        assert float(pred) == s["eigenvalues"][0]["predicted"]
        assert float(num) == s["eigenvalues"][0]["numeric"]


def test_validation_extracts_the_structure_once(tmp_path,
                                                monkeypatch):
    # every module attribute bound to the extraction is wrapped, whichever
    # name a caller reaches it through, as the benchmark's tracer does
    extract = landscape.extract_critical_structure
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return extract(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "metastab" or name.startswith("metastab."):
            for attr, val in list(vars(mod).items()):
                if val is extract:
                    monkeypatch.setattr(mod, attr, counted)

    csv = tmp_path / "dw.csv"
    xs = np.linspace(-2.0, 2.0, 4001)
    _write_csv(csv, xs, (xs ** 2 - 1.0) ** 2)
    run_json(["validate", str(csv), "--h", "0.15"])
    assert len(calls) == 1

    calls.clear()
    doc = run_json(["example", "double-well"])
    assert doc["validation"]["overall"] == "PASS"
    assert len(calls) == 1


def _leaf_types(doc):
    """The type of every key and every value of a document below its
    dicts, lists and tuples."""
    t = type(doc)
    if t is dict:
        for k, v in doc.items():
            yield type(k)
            yield from _leaf_types(v)
    elif t is list or t is tuple:
        for v in doc:
            yield from _leaf_types(v)
    else:
        yield t


def test_reports_hold_plain_values():
    """A report is made of plain Python values, so ``dumps`` never meets a
    NumPy scalar or array: the validation of the sampled chain, whose
    eigenvalues come out of LAPACK, and the dense spectrum of a large
    ring."""
    from metastab import validator
    from metastab.examples import chain_sampled
    from metastab.spectra import full_spectrum
    from metastab.topology import decompose

    hs = (0.3, 0.2, 0.15)
    p = chain_sampled()
    cs = landscape.extract_critical_structure(p)
    vrep = validator.compare(full_spectrum(cs, decompose(cs)), p, hs)
    ring, _ = cli.analyze_document(build_example("ex-c", n=200).structure,
                                   (0.1,))
    for doc in (cli.validation_document(vrep, "chain", list(hs)), ring):
        assert set(_leaf_types(doc)) <= {float, int, str, bool, type(None)}
        assert float in set(_leaf_types(doc))


def test_validate_usage_errors(tmp_path):
    csv = tmp_path / "well.csv"
    xs = np.linspace(-6.0, 6.0, 2001)
    _write_csv(csv, xs, xs * xs)

    res = run_cli(["validate", str(csv), "--h", "0.5", "--grid", "50"])
    assert res.exit_code == 2
    assert "--grid must be at least 100" in all_text(res)

    res = run_cli(["validate", str(csv), "--h", "0.1,abc"])
    assert res.exit_code == 2
    assert "cannot parse h list" in all_text(res)

    res = run_cli(["validate", str(csv), "--h", "-1"])
    assert res.exit_code == 2
    assert "positive finite reals" in all_text(res)

    res = run_cli(["validate", str(csv)])
    assert res.exit_code == 2  # --h is required

    src = tmp_path / "s.json"
    write_structure(src, "ex-a")
    for args in ([], ["nope"], ["analyze", str(src), "--bogus"],
                 ["analyze", str(src), "--eps", "1e-9"],
                 ["analyze"], ["analyze", str(tmp_path / "missing.json")],
                 ["analyze", str(tmp_path)], ["validate", str(tmp_path),
                                              "--h", "0.5"],
                 ["example", "ex-c", "--n", "abc"],
                 ["validate", str(csv), "--h", "0.5", "--grid", "12.5"],
                 ["validate", str(csv), "--h", "0.5", "--grid", "50"],
                 ["validate", str(csv)],
                 ["validate", str(csv), "--emit-plots"],
                 ["analyze", str(src), "--emit-plots"],
                 ["validate", str(csv), "--h", "0.1,abc"],
                 ["analyze", str(src), "--h", "-1"]):
        res = run_cli(args)
        assert res.exit_code == 2, (args, res)
        assert res.stdout == "", (args, res)
        assert "Traceback" not in res.stderr and "usage:" in res.stderr
    for args in (["--version"], ["--help"], ["analyze", "--help"],
                 ["validate", "--help"], ["example", "--help"]):
        res = run_cli(args)
        assert res.exit_code == 0, (args, res)
        assert res.stdout and res.stderr == "", (args, res)


def test_commands_leave_no_cyclic_garbage(tmp_path, monkeypatch):
    """The commands run with the cyclic collector off and restore it on
    return. Whatever cycles they made would wait for a later collection,
    so they must make none: under ``DEBUG_SAVEALL``, a collection after each
    command finds nothing. The runs cover the bundled examples, ``analyze``
    of a ``tied_structure`` draw and ``validate`` of a double well. The
    command functions are called directly, because the parser that
    ``main`` builds holds reference cycles of its own."""
    states = []
    real = cli.full_spectrum

    def spy(*args):
        states.append(gc.isenabled())
        return real(*args)
    monkeypatch.setattr(cli, "full_spectrum", spy)
    doc = tmp_path / "tied.json"
    doc.write_text(json.dumps(structure_to_dict(
        tied_structure(np.random.default_rng(7), n_max=24))))
    csv = tmp_path / "dw.csv"
    xs = np.linspace(-2.0, 2.0, 2001)
    csv.write_text("x,phi\n" + "".join(
        f"{x!r},{(x * x - 1.0) ** 2!r}\n" for x in xs.tolist()))
    out = str(tmp_path / "out.json")
    runs = [lambda name=name: cli.example(name, None, None, out)
            for name in example_names()]
    runs.append(lambda: cli.analyze(str(doc), "0.1", None, out, False))
    runs.append(lambda: cli.validate(str(csv), "0.15,0.1", None, None, out,
                                     False))
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for run in runs:
            run()
            assert gc.isenabled()
            gc.collect()
            assert gc.garbage == []
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert states == [False] * len(runs)


def test_collector_stays_off_when_the_caller_turned_it_off(tmp_path):
    out = str(tmp_path / "out.json")
    gc.disable()
    try:
        cli.example("ex-a", None, None, out)
        assert not gc.isenabled()
    finally:
        gc.enable()
