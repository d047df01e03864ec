"""No library code that only tests call.

Every top-level function and class of ``metastab`` and every method other
than a dunder must be named somewhere in the package or in ``bench/``
outside its own definition. A top-level name counts when it occurs as an
identifier, an attribute or an imported name, or as a string in
``bench/spans.py``, which lists the functions it traces by name. A method
counts only when it is read as an attribute ``.name``, so a local variable
or a report key of the same name is no caller. A name found only inside
its own body, such as a recursive call, does not count.

Every field of a ``NamedTuple`` of ``metastab`` must likewise be read as an
attribute ``.field`` somewhere in the package or in ``bench/``, and so must
every instance attribute a class of ``metastab`` stores: an entry of its
``__slots__`` or the target ``self.x`` of an assignment in one of its
methods. The match is by name alone, so a read of any attribute of that
name counts.

Every name that an import binds in a module of ``metastab`` or ``tests/``
must be read in that module.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "metastab").glob("*.py"))
CALLERS = SOURCES + sorted((ROOT / "bench").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


# the one file whose string constants name functions
TRACED = "bench/spans.py"


def _definitions(tree):
    """(name, first line, last line, is a method) of the top-level functions
    and classes, and of the non-dunder methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            yield node.name, node.lineno, node.end_lineno, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("__")):
                    yield item.name, item.lineno, item.end_lineno, True


def _references(tree, strings):
    """(name, line, is an attribute read) of every identifier, attribute,
    imported name and, if ``strings``, identifier-like string constant."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, isinstance(node.ctx, ast.Load)
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno, False
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str) and node.value.isidentifier()):
            yield node.value, node.lineno, False


def unreferenced(sources, callers):
    """``file:line name`` of each definition in ``sources`` that no file of
    ``callers`` names outside that definition; both map file names to
    source text."""
    refs = {}
    for fname, text in callers.items():
        for name, line, read in _references(ast.parse(text),
                                            fname == TRACED):
            refs.setdefault(name, []).append((fname, line, read))
    missing = []
    for fname, text in sources.items():
        for name, first, last, method in _definitions(ast.parse(text)):
            if not any((read or not method)
                       and (f != fname or not first <= line <= last)
                       for f, line, read in refs.get(name, ())):
                missing.append(f"{fname}:{first} {name}")
    return missing


def _namedtuple_fields(tree):
    """(class, field, line) of each field of the top-level NamedTuples."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
                isinstance(b, ast.Name) and b.id == "NamedTuple"
                for b in node.bases):
            for item in node.body:
                if (isinstance(item, ast.AnnAssign)
                        and isinstance(item.target, ast.Name)):
                    yield node.name, item.target.id, item.lineno


def _attribute_reads(callers):
    """The names read as an attribute ``.name`` anywhere in ``callers``."""
    return {node.attr for text in callers.values()
            for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def unread_fields(sources, callers):
    """``file:line Class.field`` of each NamedTuple field in ``sources``
    that no file of ``callers`` reads as an attribute."""
    read = _attribute_reads(callers)
    return [f"{fname}:{line} {cls}.{field}"
            for fname, text in sources.items()
            for cls, field, line in _namedtuple_fields(ast.parse(text))
            if field not in read]


def _stored_attributes(tree):
    """(class, attribute, line) of each ``__slots__`` entry of the top-level
    classes and each ``self.x`` their methods assign, ``self`` being a
    method's first parameter."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__slots__"
                    for t in item.targets):
                for elt in item.value.elts:
                    yield node.name, elt.value, elt.lineno
            elif isinstance(item, ast.FunctionDef) and item.args.args:
                me = item.args.args[0].arg
                for sub in ast.walk(item):
                    if (isinstance(sub, ast.Attribute)
                            and isinstance(sub.ctx, ast.Store)
                            and isinstance(sub.value, ast.Name)
                            and sub.value.id == me):
                        yield node.name, sub.attr, sub.lineno


def unread_attributes(sources, callers):
    """``file:line Class.attribute`` of each instance attribute a class in
    ``sources`` stores and no file of ``callers`` reads, at its first
    mention."""
    read = _attribute_reads(callers)
    missing = {}
    for fname, text in sources.items():
        for cls, attr, line in _stored_attributes(ast.parse(text)):
            if attr not in read:
                missing.setdefault((fname, cls, attr), line)
    return [f"{fname}:{line} {cls}.{attr}"
            for (fname, cls, attr), line in missing.items()]


def unused_imports(modules):
    """``file:line name`` of each name an import binds in a module of
    ``modules`` that the module never reads."""
    missing = []
    for fname, text in modules.items():
        tree = ast.parse(text)
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [a.asname or a.name.split(".")[0] for a in node.names]
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            missing += [f"{fname}:{node.lineno} {name}"
                        for name in bound if name not in read]
    return missing


def _texts(paths):
    return {str(p.relative_to(ROOT)): p.read_text() for p in paths}


def test_every_definition_has_a_caller_outside_tests():
    assert unreferenced(_texts(SOURCES), _texts(CALLERS)) == []


def test_every_namedtuple_field_is_read_outside_tests():
    assert unread_fields(_texts(SOURCES), _texts(CALLERS)) == []


def test_every_stored_attribute_is_read_outside_tests():
    assert unread_attributes(_texts(SOURCES), _texts(CALLERS)) == []


def test_every_import_is_read():
    assert unused_imports(_texts(SOURCES + TESTS)) == []


def test_an_unread_field_is_reported():
    lib = ("class P(NamedTuple):\n"
           "    x: float\n"
           "    y: float\n"
           "    z: float\n")
    app = "p = P(1, 2, 3)\nprint(p.x)\nq.z = 0\n"
    # a store is no read, nor is the field's own declaration
    assert unread_fields({"lib.py": lib}, {"lib.py": lib, "app.py": app}) == [
        "lib.py:3 P.y", "lib.py:4 P.z"]


def test_a_self_reference_is_no_caller():
    lib = ("class A:\n"
           "    def used(self):\n"
           "        return 1\n"
           "    def dead(self):\n"
           "        return self.dead()\n")
    callers = {"lib.py": lib, "app.py": "print(A().used())\n"}
    assert unreferenced({"lib.py": lib}, callers) == ["lib.py:4 dead"]


def test_a_same_named_local_or_report_key_is_no_caller():
    lib = ("class S:\n"
           "    def minima(self):\n"
           "        return 1\n"
           "def build():\n"
           "    return 2\n"
           "def traced():\n"
           "    return 3\n"
           "@register\n"
           "def command():\n"
           "    return 4\n")
    app = ("def block():\n"
           "    minima = S()\n"
           "    return {'minima': minima, 'build': build, 'traced': 1}\n")
    spans = "TARGETS = (('lib', 'traced'),)\n"
    callers = {"lib.py": lib, "app.py": app}
    # the method is only a local's name and a report key, a string names a
    # function only in the list of traced names, and a decorator registers
    # no caller
    assert unreferenced({"lib.py": lib}, callers) == [
        "lib.py:2 minima", "lib.py:6 traced", "lib.py:9 command"]
    callers[TRACED] = spans + "x = S().minima\ncommand()\n"
    assert unreferenced({"lib.py": lib}, callers) == []


def test_an_unread_attribute_is_reported():
    lib = ("class A:\n"
           "    __slots__ = ('kept', 'slot')\n"
           "    def __init__(this, x):\n"
           "        this.kept = x\n"
           "        this.slot = this.own = x\n"
           "        this.pair, other.b = x, x\n"
           "    def grow(self):\n"
           "        self.late = self.own\n")
    app = "a = A(1)\nprint(a.kept)\na.pair = 2\n"
    # a store is no read, another object's attribute is not the class's,
    # and a slot counts once, at its entry
    callers = {"lib.py": lib, "app.py": app}
    assert unread_attributes({"lib.py": lib}, callers) == [
        "lib.py:2 A.slot", "lib.py:6 A.pair", "lib.py:8 A.late"]


def test_an_unused_import_is_reported():
    mod = ("from __future__ import annotations\n"
           "import os.path\n"
           "import numpy as np\n"
           "from math import inf, pi as PI\n"
           "from typing import NamedTuple\n"
           "def f(x):\n"
           "    import json\n"
           "    NamedTuple = 1\n"
           "    return os.path.join(x, str(inf)), np\n")
    # a name only stored to is not read, and a future import binds nothing
    assert unused_imports({"mod.py": mod}) == [
        "mod.py:4 PI", "mod.py:5 NamedTuple", "mod.py:7 json"]
