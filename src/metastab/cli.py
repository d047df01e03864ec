"""Command-line surface: analyze landscapes, validate predictions, run the
bundled examples. All output is versioned JSON with fixed float formatting,
so identical invocations produce identical bytes."""

import math
import re
import sys
from pathlib import Path

import click
import numpy as np

from . import __version__
from .errors import InputDataError, InvariantViolation
from .examples import build_example
from .landscape import (extract_critical_structure, load_samples,
                        load_structure, structure_to_dict)
from .prefactors import build_class_matrices, build_graded_core
from .spectra import full_spectrum
from .topology import decompose
from .validator import compare

SCHEMA = "metastab/1"


# ---------------------------------------------------------------- formatting

_ESCAPE = re.compile(r'["\\\x00-\x1f]')

# Float arrays at least this large are formatted by distinct value; smaller
# ones (the 1x1 and 1x2 class matrices of a strict chain) go element-wise.
_BULK_MIN = 16


def _escape(m):
    ch = m.group()
    return "\\" + ch if ch in '"\\' else f"\\u{ord(ch):04x}"


def _float(v):
    return f"{v:.17g}" if math.isfinite(v) else "null"


def _scalar(x):
    if x is None:
        return "null"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return _float(float(x))
    raise TypeError(f"cannot serialize {type(x).__name__}")


def _layout(parts, pad):
    """A list is inline iff every part is under 24 characters, none spans
    lines, and the parts total under 72 characters."""
    if sum(map(len, parts)) < 72 and all(
            len(p) < 24 and "\n" not in p for p in parts):
        return f"[{', '.join(parts)}]"
    inner = pad + "  "
    body = (",\n" + inner).join(parts)
    return f"[\n{inner}{body}\n{pad}]"


class _Encoder:
    """One encoding call; escaped strings are shared across the document."""

    def __init__(self):
        self.strings = {}

    def string(self, s):
        out = self.strings.get(s)
        if out is None:
            out = self.strings[s] = '"' + _ESCAPE.sub(_escape, s) + '"'
        return out

    def encode(self, obj, indent):
        if type(obj) is float:
            return _float(obj)
        if isinstance(obj, str):
            return self.string(obj)
        if isinstance(obj, np.ndarray):
            if (obj.dtype.kind == "f" and obj.dtype.itemsize <= 8
                    and obj.ndim and obj.size >= _BULK_MIN):
                return self.float_array(obj, indent)
            obj = obj.tolist()
        if isinstance(obj, dict):
            if not obj:
                return "{}"
            pad = "  " * indent
            inner = pad + "  "
            body = ",\n".join(
                f"{inner}{self.string(str(k))}: {self.encode(v, indent + 1)}"
                for k, v in obj.items())
            return f"{{\n{body}\n{pad}}}"
        if isinstance(obj, (list, tuple)):
            if not obj:
                return "[]"
            # id lists dominate the report, so strings skip the dispatch
            string, encode = self.string, self.encode
            return _layout([string(v) if type(v) is str
                            else encode(v, indent + 1) for v in obj],
                           "  " * indent)
        return _scalar(obj)

    def float_array(self, a, indent):
        """Format each distinct bit pattern once, then lay out the rows of
        the last axis and nest them outward."""
        a = np.ascontiguousarray(a, dtype=np.float64)
        uniq, inv = np.unique(a.view(np.int64).ravel(), return_inverse=True)
        text = [_float(v) for v in uniq.view(np.float64).tolist()]
        parts = [text[i] for i in inv.tolist()]
        for depth in range(a.ndim - 1, -1, -1):
            k = a.shape[depth]
            pad = "  " * (indent + depth)
            parts = [_layout(parts[j:j + k], pad)
                     for j in range(0, len(parts), k)]
        return parts[0]


def dumps(obj, indent=0):
    """Deterministic JSON: insertion-ordered keys, 17 significant digits,
    -0 kept, non-finite floats rendered as null."""
    return _Encoder().encode(obj, indent)


# ------------------------------------------------------------ report pieces

def _structure_block(cs):
    doc = structure_to_dict(cs)
    doc["level_clusters"] = [cs.levels.rep(k) for k in range(len(cs.levels))]
    return doc


def _labelling_block(cd):
    lab = cd.labelling
    minima = {}
    for mid in sorted(lab.index):
        i, j = lab.index[mid]
        row = {"index": [i, j],
               "sigma": lab.sigma[mid],
               "S": lab.S[mid],
               "component": sorted(lab.E[mid])}
        if mid != lab.mbar:
            row["type"] = "II" if cd.maps.type2[mid] else "I"
            row["ref_min"] = cd.maps.mhat[mid]
        minima[mid] = row
    return {"global_min": lab.mbar, "minima": minima}


def _class_block(alpha, mats, core, spectrum):
    if alpha.ground:
        return {"members": list(alpha.members), "ground": True,
                "levels": [{"S": None, "zeta2": [0.0], "pi_zeta2": [0.0]}]}
    out = {"members": list(alpha.members),
           "ground": False,
           "type": "II" if alpha.type2 else "I",
           "q": alpha.q,
           "p": alpha.p,
           "sigma": alpha.sigma,
           "ref_min": alpha.mhat,
           "blocks": [{"members": list(b), "S": s}
                      for b, s in zip(alpha.member_blocks, alpha.block_S)],
           "member_order": list(alpha.member_order),
           "uhat_order": list(alpha.uhat),
           "saddle_rows": [
               {"saddle": r.sid, "m1": r.m1, "m2": r.m2,
                "kind": "boundary" if r.boundary else "interior"}
               for r in alpha.saddles],
           "matrices": {"upsilon": mats.upsilon,
                        "T": mats.T,
                        "core": core.core},
           "levels": [{"S": lv.S,
                       "zeta2": list(lv.zeta2),
                       "pi_zeta2": [math.pi * z for z in lv.zeta2]}
                      for lv in spectrum.levels]}
    return out


def _evaluated_block(report, h_list):
    out = []
    for h in h_list:
        entries = [{"lambda": e.lam,
                    "log_lambda": e.log_lam,
                    "S": e.S,
                    "zeta2": e.zeta2,
                    "pi_zeta2": math.pi * e.zeta2,
                    "class": list(e.members)}
                   for e in report.evaluate(h)]
        out.append({"h": h, "eigenvalues": entries})
    return out


def analyze_document(cs, h_list=()):
    cd = decompose(cs)
    mats, cores = {}, {}
    for alpha in cd.classes:
        if alpha.ground:
            continue
        m = build_class_matrices(cs, cd, alpha)
        mats[alpha] = m
        cores[alpha] = build_graded_core(cs, cd, alpha, m)
    report = full_spectrum(cs, cd, cores)
    by_class = {c.cls: c for c in report.classes}
    doc = {"schema": SCHEMA,
           "command": "analyze",
           "block_order": "ascending-S",
           "structure": _structure_block(cs),
           "labelling": _labelling_block(cd),
           "classes": [_class_block(a, mats.get(a), cores.get(a), by_class[a])
                       for a in cd.classes]}
    if h_list:
        doc["evaluated"] = _evaluated_block(report, h_list)
    return doc, report


def validation_document(vrep, source, h_list):
    steps = []
    for s in vrep.steps:
        rows = [{"index": i + 1,
                 "numeric": s.numeric[i],
                 "predicted": s.predicted[i],
                 "ratio": s.ratios[i],
                 "deviation": s.deviations[i],
                 "grid_drift": s.richardson[i]}
                for i in range(len(s.numeric))]
        steps.append({"h": s.h, "grid": s.n, "eigenvalues": rows})
    if any(v == "FAIL" for v in vrep.verdicts):
        overall = "FAIL"
    elif any(v == "INCONCLUSIVE" for v in vrep.verdicts):
        overall = "INCONCLUSIVE"
    else:
        overall = "PASS"
    return {"schema": SCHEMA,
            "command": "validate",
            "input": source,
            "h": list(h_list),
            "c_tol": vrep.c_tol,
            "nonzero_count": vrep.n0 - 1,
            "steps": steps,
            "verdicts": list(vrep.verdicts),
            "overall": overall}


# ------------------------------------------------------------------- helpers

def _parse_h(text):
    try:
        hs = tuple(float(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise click.UsageError(f"cannot parse h list {text!r}")
    if not hs or any(not (h > 0 and math.isfinite(h)) for h in hs):
        raise click.UsageError("h values must be positive finite reals")
    return hs


def _emit(doc, out):
    text = dumps(doc) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        click.echo(text, nl=False)


def _plot_table(path, rows):
    lines = ["h,index,predicted,numeric"]
    for h, idx, pred, num in rows:
        lines.append(f"{h:.17g},{idx},{pred:.17g}," +
                     (f"{num:.17g}" if num is not None else ""))
    Path(path).write_text("\n".join(lines) + "\n")


def _plot_path(out, fallback):
    return (Path(out).with_suffix(".levels.csv") if out
            else Path(fallback).name + ".levels.csv")


def _fail(code, exc):
    doc = {"schema": SCHEMA,
           "error": {"type": type(exc).__name__, "message": str(exc)}}
    click.echo(dumps(doc))
    sys.exit(code)


def _guard(fn):
    try:
        return fn()
    except click.ClickException:
        raise
    except (InputDataError, OSError) as e:
        _fail(2, e)
    except Exception as e:  # InvariantViolation, or a fault of the program
        _fail(3, e)


def _load_input(path, eps_level):
    text_head = Path(path).read_bytes()[:64].lstrip()
    if path.endswith(".json") or text_head.startswith(b"{"):
        # a Path, so that a file name starting with "{" is not read as JSON
        return load_structure(Path(path)), None
    p = load_samples(path)
    return extract_critical_structure(p, eps_level=eps_level), p


# ------------------------------------------------------------------ commands

@click.group()
@click.version_option(__version__, prog_name="metastab")
def main():
    """Small-eigenvalue asymptotics for Morse landscapes.

    Computes, for each equivalence class of local minima, the barrier
    heights and prefactors of the exponentially small spectrum, and can
    check the predictions against a direct 1D discretization.
    """


@main.command()
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@click.option("--h", "h_text", default=None,
              help="Comma-separated h values to evaluate, e.g. 0.15,0.1.")
@click.option("--eps-level", type=float, default=None,
              help="Level-clustering tolerance for sampled input.")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write the report here instead of stdout.")
@click.option("--emit-plots", is_flag=True,
              help="Also write an (h, index, predicted, numeric) CSV table.")
def analyze(path, h_text, eps_level, out, emit_plots):
    """Report labelling, classes, matrices, and predicted eigenvalues."""
    h_list = _parse_h(h_text) if h_text else ()
    if emit_plots and not h_list:
        raise click.UsageError("--emit-plots needs --h")

    def run():
        cs, _ = _load_input(path, eps_level)
        doc, report = analyze_document(cs, h_list)
        _emit(doc, out)
        if emit_plots:
            rows = []
            for h in h_list:
                for i, e in enumerate(report.evaluate(h)):
                    rows.append((h, i, e.lam, None))
            _plot_table(_plot_path(out, path), rows)

    _guard(run)


@main.command()
@click.argument("csv", type=click.Path(exists=True, dir_okay=False))
@click.option("--h", "h_text", required=True,
              help="Comma-separated h schedule, largest first.")
@click.option("--grid", type=int, default=None,
              help="Interior grid size for the direct solve.")
@click.option("--eps-level", type=float, default=None,
              help="Level-clustering tolerance for the extraction.")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write the report here instead of stdout.")
@click.option("--emit-plots", is_flag=True,
              help="Also write an (h, index, predicted, numeric) CSV table.")
def validate(csv, h_text, grid, eps_level, out, emit_plots):
    """Check predictions against a direct solve of the sampled potential."""
    h_list = _parse_h(h_text)
    if grid is not None and grid < 100:
        raise click.UsageError("--grid must be at least 100")

    def run():
        p = load_samples(csv)
        cs = extract_critical_structure(p, eps_level=eps_level)
        cd = decompose(cs)
        report = full_spectrum(cs, cd)
        vrep = compare(report, p, h_list, grid=grid)
        _emit(validation_document(vrep, csv, sorted(h_list, reverse=True)),
              out)
        if emit_plots:
            rows = []
            for s in vrep.steps:
                for i in range(len(s.numeric)):
                    rows.append((s.h, i + 1, s.predicted[i], s.numeric[i]))
            _plot_table(_plot_path(out, csv), rows)

    _guard(run)


@main.command()
@click.argument("name")
@click.option("--n", type=int, default=None, help="Ring size for ex-c.")
@click.option("--theta", type=float, default=None,
              help="Exit-saddle parameter for ex-b.")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write the report here instead of stdout.")
def example(name, n, theta, out):
    """Run a bundled example and print reference values alongside."""

    def run():
        bundle = build_example(name, n=n, theta=theta)
        if bundle.kind == "structure":
            cs = bundle.structure
            p = None
        else:
            p = bundle.potential
            cs = extract_critical_structure(p)
        doc, report = analyze_document(cs, bundle.validate_h)
        doc["command"] = "example"
        doc["example"] = {"name": bundle.name,
                          "realization": bundle.realization,
                          "reference": bundle.reference}
        if p is not None and bundle.validate_h:
            vrep = compare(report, p, bundle.validate_h)
            doc["validation"] = validation_document(
                vrep, bundle.name, bundle.validate_h)
        _emit(doc, out)

    _guard(run)


if __name__ == "__main__":
    main()
