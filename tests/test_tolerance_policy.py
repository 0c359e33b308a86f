"""The package decides near-degenerate cases through `Scalars` (one
`eps` in float mode, exact in exact mode).  A small float literal written
inline would be a private tolerance of its own; one that must stay is a
named module-level constant, where a reader finds it, and is listed in
NAMED below."""

import ast
import importlib
import pkgutil

import pytest

import smfgeo

SMALL = 1e-3

# The named small constants each module keeps: the default run tolerance
# and the whole-degree slack of exact directions (numbers), an arc length
# below which a return is no closure (engine), the centroid tie of the
# fixture placement (builders), and the overlap slack and polyline join
# of the nets (netdraw).
NAMED = {
    "smfgeo": set(),
    "smfgeo.builders": {"CENTROID_TIE"},
    "smfgeo.chart": set(),
    "smfgeo.classify": set(),
    "smfgeo.cli": set(),
    "smfgeo.engine": {"MIN_PERIOD"},
    "smfgeo.farfield": set(),
    "smfgeo.netdraw": {"OVERLAP_SLACK", "JOIN_GAP"},
    "smfgeo.numbers": {"DEFAULT_EPS", "WHOLE_DEGREE_SLACK"},
    "smfgeo.smf": set(),
    "smfgeo.surface": set(),
}
MODULES = ["smfgeo"] + [f"smfgeo.{m.name}"
                        for m in pkgutil.iter_modules(smfgeo.__path__)]


def is_small(node):
    return (isinstance(node, ast.Constant) and isinstance(node.value, float)
            and 0 < abs(node.value) < SMALL)


def named_constants(tree):
    """{name: value node} of the module-level `NAME = literal` lines."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            if all(isinstance(t, ast.Name) for t in targets):
                out.update((t.id, node.value) for t in targets)
    return out


def small_literals(source):
    """(line, value) of each float literal with 0 < |x| < SMALL that is
    not the value of a named module-level constant, and the names of the
    named constants that hold one."""
    tree = ast.parse(source)
    named = named_constants(tree)
    spared = {id(v) for v in named.values()}
    inline = [(node.lineno, node.value) for node in ast.walk(tree)
              if is_small(node) and id(node) not in spared]
    return inline, {k for k, v in named.items() if is_small(v)}


def test_every_module_is_listed():
    assert sorted(MODULES) == sorted(NAMED)


@pytest.mark.parametrize("name", sorted(NAMED),
                         ids=lambda name: name.rpartition(".")[2])
def test_no_inline_tolerances(name):
    module = importlib.import_module(name)
    with open(module.__file__, encoding="utf-8") as f:
        inline, named = small_literals(f.read())
    assert inline == [], f"{name}: inline tolerances {inline}"
    assert named == NAMED[name]


def test_checker_flags_inline_and_spares_named():
    source = ("GAP = 1e-7\n"
              "ONE = 1.0\n"
              "def f(x):\n"
              "    return abs(x) < 1e-12 or x > -2e-6 or x == 0.5\n")
    assert small_literals(source) == ([(4, 1e-12), (4, 2e-6)], {"GAP"})


# Each budget default is written once, as a named constant that every
# other default reads: the growth budget in surface, the arc budget in
# engine.
BUDGETS = {1_000_000: ("smfgeo.surface", "GROWTH_BUDGET"),
           200.0: ("smfgeo.engine", "ARC_BUDGET")}


def budget_literals(name, source):
    """(value, module, constant name or None) of each numeric literal in
    `source` equal to a budget default; None for one written inline."""
    tree = ast.parse(source)
    named = {id(v): k for k, v in named_constants(tree).items()}
    return [(node.value, name, named.get(id(node)))
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant)
            and type(node.value) in (int, float) and node.value in BUDGETS]


def test_each_budget_default_is_written_once():
    found = []
    for name in sorted(MODULES):
        module = importlib.import_module(name)
        with open(module.__file__, encoding="utf-8") as f:
            found += budget_literals(name, f.read())
    assert sorted(found, key=repr) == sorted(
        ((value, *where) for value, where in BUDGETS.items()), key=repr)


def test_budget_checker_tells_named_from_inline():
    source = ("GROWTH_BUDGET = 1_000_000\n"
              "def f(arc=200.0, n=200, cap=1000000):\n"
              "    return arc, n, cap\n")
    assert budget_literals("m", source) == [
        (1_000_000, "m", "GROWTH_BUDGET"), (200.0, "m", None),
        (200, "m", None), (1_000_000, "m", None)]


# `round` makes a private tolerance of its own: two values within eps of
# each other that straddle a rounding boundary round apart.  The package
# rounds only where it formats output (the report and trace writers),
# where `BandFrame.carry` takes a whole count of strip periods and where
# `Scalars.direction` parses a whole number of degrees.
ROUNDS = {
    ("smfgeo.cli", "_dispatch"),
    ("smfgeo.cli", "_event_summary"),
    ("smfgeo.smf", "classification_report"),
    ("smfgeo.farfield", "BandFrame.carry"),
    ("smfgeo.numbers", "Scalars.direction"),
}


def round_sites(name, source):
    """(module, qualified name of the innermost def or class, or '') of
    each `round(...)` call in `source`."""
    sites = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            where = f"{where}.{node.name}" if where else node.name
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "round":
            sites.add((name, where))
        for child in ast.iter_child_nodes(node):
            visit(child, where)
    visit(ast.parse(source), "")
    return sites


def test_round_only_where_named():
    found = set()
    for name in sorted(MODULES):
        module = importlib.import_module(name)
        with open(module.__file__, encoding="utf-8") as f:
            found |= round_sites(name, f.read())
    assert found == ROUNDS


def test_round_checker_names_the_enclosing_def():
    source = ("X = round(0.5)\n"
              "class A:\n"
              "    def f(self, x):\n"
              "        return [round(v, 3) for v in x]\n"
              "def g(x):\n"
              "    return x.round(2)\n")
    assert round_sites("m", source) == {("m", ""), ("m", "A.f")}
