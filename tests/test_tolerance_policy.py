"""The classifier and the engine decide near-degenerate cases through
`Scalars` (one `eps` in float mode, exact in exact mode).  A small float
literal written inline would be a private tolerance of its own; one that
must stay is a named module-level constant, where a reader finds it, and
is listed in NAMED below."""

import ast

import pytest

from smfgeo import classify, engine

SMALL = 1e-3

# The named small constants each module keeps: an arc length below which
# a return is no closure, and the float fan-sector slack of cross_vertex.
NAMED = {
    "smfgeo.classify": set(),
    "smfgeo.engine": {"MIN_PERIOD", "FAN_DIRT"},
}


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


@pytest.mark.parametrize("module", [classify, engine],
                         ids=["classify", "engine"])
def test_no_inline_tolerances(module):
    with open(module.__file__, encoding="utf-8") as f:
        inline, named = small_literals(f.read())
    assert inline == [], f"{module.__name__}: inline tolerances {inline}"
    assert named == NAMED[module.__name__]


def test_checker_flags_inline_and_spares_named():
    source = ("GAP = 1e-7\n"
              "ONE = 1.0\n"
              "def f(x):\n"
              "    return abs(x) < 1e-12 or x > -2e-6 or x == 0.5\n")
    assert small_literals(source) == ([(4, 1e-12), (4, 2e-6)], {"GAP"})
