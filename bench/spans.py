"""Per-module spans for the traced run, recorded from outside the program.

The tracer wraps public functions of the ``metastab`` modules and patches
every module attribute that refers to them, so a call made through
``cli.decompose`` or ``topology.decompose`` is recorded once, whichever
name it went through. Spans stay in memory; the caller writes them out.
"""

import functools
from contextlib import contextmanager
from time import perf_counter

from metastab import (cli, examples, landscape, prefactors, spectra, topology,
                      validator)

_MODULES = (cli, examples, landscape, prefactors, spectra, topology, validator)

# (owner, attribute, span name). The sweep is built and cached inside
# verify_separating, so its span charges the sweep to topology even when
# landscape.load_structure is the caller.
TARGETS = (
    (landscape, "load_structure", "landscape.load_structure"),
    (landscape, "load_samples", "landscape.load_samples"),
    (landscape, "extract_critical_structure", "landscape.extract"),
    (topology, "verify_separating", "topology.sweep"),
    (topology, "decompose", "topology.decompose"),
    (prefactors, "build_class_matrices", "prefactors.matrices"),
    (prefactors, "build_graded_core", "prefactors.core"),
    (spectra, "full_spectrum", "spectra.full_spectrum"),
    (spectra.SpectrumReport, "evaluate", "spectra.evaluate"),
    (examples, "build_example", "examples.build_example"),
    (cli, "analyze_document", "cli.analyze_document"),
    (validator, "compare", "validator.compare"),
    (validator, "discretize", "validator.discretize"),
    (validator, "small_eigenvalues", "validator.qr"),
    (validator, "eigh_tridiagonal", "validator.bisection"),
)

SPAN_NAMES = tuple(name for _, _, name in TARGETS) + ("cli.dumps",)


class Tracer:
    """Records spans as [name, parent index, start, end] in call order."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.grid_points = 0

    def _open(self, name):
        rec = [name, self._stack[-1] if self._stack else None,
               perf_counter(), None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec[3] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if name == "validator.discretize":
                self.grid_points += out.n
            return out
        return traced

    def _wrap_dumps(self, fn):
        # dumps recurses through the module attribute; the original stays in
        # place during the outer call so only that call is a span.
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open("cli.dumps")
            cli.dumps = fn
            try:
                return fn(*args, **kwargs)
            finally:
                cli.dumps = traced
                self._close(rec)
        return traced

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself."""
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    @contextmanager
    def installed(self):
        """Patch every reference to the traced functions; restore on exit."""
        saved = []
        wrapped = {}
        for owner, attr, name in TARGETS:
            fn = getattr(owner, attr)
            wrapped[id(fn)] = (fn, self._wrap(fn, name))
        wrapped[id(cli.dumps)] = (cli.dumps, self._wrap_dumps(cli.dumps))
        owners = _MODULES + (spectra.SpectrumReport,)
        for owner in owners:
            for attr, val in list(vars(owner).items()):
                hit = wrapped.get(id(val))
                if hit is not None and hit[0] is val:
                    saved.append((owner, attr, val))
                    setattr(owner, attr, hit[1])
        try:
            yield self
        finally:
            for owner, attr, val in saved:
                setattr(owner, attr, val)


def self_times(spans):
    """Sum of self time (span minus its direct children) per span name."""
    child = [0.0] * len(spans)
    for name, parent, t0, t1 in spans:
        if parent is not None:
            child[parent] += t1 - t0
    out = {}
    for i, (name, _, t0, t1) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (t1 - t0) - child[i]
    return out


def count(spans, name):
    return sum(1 for s in spans if s[0] == name)


IMPORT_GROUPS = ("metastab", "numpy", "scipy", "click")


def import_split(stderr_text):
    """Self import time per top-level package from ``python -X importtime``.

    Self times partition the import, so each package's figure is the sum of
    its modules' own work, excluding packages it pulled in.
    """
    out = {g: 0.0 for g in IMPORT_GROUPS}
    for line in stderr_text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        try:
            self_us = int(parts[0])
        except ValueError:
            continue  # the header line
        top = parts[2].strip().split(".")[0]
        if top in out:
            out[top] += self_us * 1e-6
    return out
