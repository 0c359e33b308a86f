import random

import pytest
from hypothesis import given, settings, strategies as st

from smfgeo import smf, surface

GOOD_SILO = "smf 1\nmodel silo rings=3\n"
GOOD_EXPLICIT = """smf 1
t 0 1 2
t 1 0 3
point M 0 1/3 1/3 1/3
line  m 0 1/2 1/2 0 30
"""


class TestParseManifold:
    def test_model_file(self):
        doc, diags = smf.parse_manifold(GOOD_SILO)
        assert doc is not None and not diags
        surf, diags = smf.to_triangulation(doc)
        assert not diags
        assert surf.n_triangles() > 0
        from smfgeo.surface import validate
        assert validate(surf).ok()

    def test_explicit_triangles(self):
        doc, diags = smf.parse_manifold(GOOD_EXPLICIT)
        assert doc is not None and not diags
        assert len(doc.triangles) == 2
        assert "M" in doc.points and "m" in doc.lines

    def test_missing_header(self):
        doc, diags = smf.parse_manifold("model silo rings=1\n")
        assert doc is None
        assert any(d.code == "MissingHeader" for d in diags)

    def test_duplicate_triangle_diagnostic(self):
        text = "smf 1\nt 0 1 2\nt 0 1 2\n"
        doc, diags = smf.parse_manifold(text)
        assert doc is not None
        surf, diags = smf.to_triangulation(doc)
        assert surf is None
        assert any(d.code == "EdgeShared3" for d in diags)
        assert any(d.line == 3 for d in diags)

    def test_edge_shared_by_three(self):
        text = "smf 1\nt 0 1 2\nt 1 0 3\nt 0 1 4\n"
        doc, _ = smf.parse_manifold(text)
        surf, diags = smf.to_triangulation(doc)
        assert surf is None
        assert any(d.code == "EdgeShared3" and d.line == 4 for d in diags)

    def test_non_manifold_boundary_diagnostic(self):
        # Two triangles meeting only at vertex 0.
        doc, _ = smf.parse_manifold("smf 1\nt 0 1 2\nt 0 3 4\n")
        surf, diags = smf.to_triangulation(doc)
        assert surf is None
        assert [d.code for d in diags] == ["BadTriangulation"]

    def test_triangle_list_over_growth_budget(self, monkeypatch):
        # The list is refused whole, naming its length and the budget;
        # one at the budget is built.
        doc, _ = smf.parse_manifold(GOOD_EXPLICIT)
        monkeypatch.setattr(smf, "GROWTH_BUDGET", 1)
        surf, diags = smf.to_triangulation(doc)
        assert surf is None
        assert [(d.code, d.message) for d in diags] == [
            ("BadTriangulation", "2 triangles, over the growth budget of 1")]
        monkeypatch.setattr(smf, "GROWTH_BUDGET", 2)
        surf, diags = smf.to_triangulation(doc)
        assert not diags and surf.n_triangles() == 2

    @pytest.mark.parametrize("tris,diagnostic", [
        ("0 1 2|0 1 3", "3:1: EdgeShared3: duplicate directed edge (0,1)"),
        ("0 1 2|1 0 3|0 1 4",
         "4:1: EdgeShared3: edge (0,1) already shared by two triangles"),
        ("0 1 2|0 3 4",
         "1:1: BadTriangulation: non-manifold boundary at vertex 0"),
        ("0 1 2|3 4 5", "1:1: BadTriangulation: boundary is not a single cycle"),
    ], ids=["duplicate", "three", "bow-tie", "two-cycles"])
    def test_triangle_list_diagnostics(self, tris, diagnostic):
        text = "smf 1\n" + "".join(f"t {t}\n" for t in tris.split("|"))
        doc, _ = smf.parse_manifold(text)
        surf, diags = smf.to_triangulation(doc)
        assert surf is None and [str(d) for d in diags] == [diagnostic]

    @pytest.mark.parametrize("entry,diagnostic", [
        ("point P 5 1/3 1/3 1/3",
         "5:1: UnknownTriangle: point P: triangle 5"),
        ("  line m 7 1/2 1/2 0 30",
         "5:3: UnknownTriangle: line m: triangle 7"),
    ], ids=["point", "line"])
    def test_unknown_triangle_is_reported_at_its_entry(self, entry,
                                                       diagnostic):
        text = "smf 1\nt 0 1 2\nt 1 0 3\n# a fixture off the surface\n" \
            + entry + "\n"
        doc, _ = smf.parse_manifold(text)
        surf, diags = smf.to_triangulation(doc)
        assert surf is None and [str(d) for d in diags] == [diagnostic]

    @pytest.mark.parametrize("entry,diagnostic", [
        ("point P 0 1/2 -1/2 1", "3:1: BadPoint: barycentrics must not be "
         "negative"),
        ("  point P 0 0 0.0 0", "3:3: BadPoint: barycentrics must not all be "
         "zero"),
        ("line m 0 1 1e999 0 30", "3:1: BadLine: barycentrics must be "
         "finite"),
        ("line m 0 1/3 1/3 1/3 -inf", "3:1: BadLine: angle -inf is not "
         "finite"),
    ], ids=["negative", "all-zero", "infinite", "infinite-angle"])
    def test_fixture_naming_no_point_is_reported_at_its_entry(
            self, entry, diagnostic):
        doc, diags = smf.parse_manifold(f"smf 1\nmodel silo\n{entry}\n")
        assert doc is None and [str(d) for d in diags] == [diagnostic]

    @pytest.mark.parametrize("method", ["add_triangle", "boundary_cycle"])
    def test_builder_bug_propagates(self, method, monkeypatch):
        # A bug inside from_triangles, while it reads the triangles or
        # once it has chained the boundary cycle, is no diagnostic.
        def broken(*args, **kwargs):
            raise RuntimeError(f"bug in {method}")
        if method == "add_triangle":
            real = smf.from_triangles
            monkeypatch.setattr(smf, "from_triangles", lambda tris: real(
                map(lambda t: map(broken, t), tris)))
        else:
            monkeypatch.setattr(surface, "Triangulation", broken)
        doc, _ = smf.parse_manifold(GOOD_EXPLICIT)
        with pytest.raises(RuntimeError, match=f"bug in {method}"):
            smf.to_triangulation(doc)

    def test_round_trip_is_identity(self):
        for text in (GOOD_SILO, GOOD_EXPLICIT):
            doc, _ = smf.parse_manifold(text)
            printed = smf.print_manifold(doc)
            doc2, diags = smf.parse_manifold(printed)
            assert not diags
            assert smf.print_manifold(doc2) == printed

    def test_parser_totality_random_mutations(self):
        rng = random.Random(42)
        base = GOOD_EXPLICIT.encode()
        for _ in range(10000):
            data = bytearray(base)
            for _ in range(rng.randint(1, 6)):
                pos = rng.randrange(len(data))
                data[pos] = rng.randrange(256)
            text = data.decode("utf-8", errors="replace")
            doc, diags = smf.parse_manifold(text)  # must never raise
            if doc is not None:
                smf.to_triangulation(doc)

    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=300))
    def test_parser_totality_hypothesis(self, text):
        doc, diags = smf.parse_manifold(text)
        assert doc is not None or diags


class TestParseScene:
    LABELS = {"P", "R", "l", "E"}

    def test_classify_query(self):
        qs, diags = smf.parse_scene("classify P l arc=200\n", self.LABELS)
        assert not diags
        assert qs == [smf.ClassifyQuery("P", "l", arc=200.0, growth=None)]

    def test_unknown_label(self):
        qs, diags = smf.parse_scene("classify X l\n", self.LABELS)
        assert any(d.code == "UnknownLabel" for d in diags)

    def test_empty_file(self):
        qs, diags = smf.parse_scene("", self.LABELS)
        assert qs == [] and diags == []

    def test_render_audit_search(self):
        text = "render fan E paths=l out=x.svg\n"
        qs, diags = smf.parse_scene(text, self.LABELS)
        assert not diags
        assert isinstance(qs[0], smf.RenderQuery)
        assert qs[0].region == ("fan", "E") and qs[0].paths == ("l",)

    def test_bad_query_diagnostic(self):
        qs, diags = smf.parse_scene("trace\nfrobnicate x\n", self.LABELS)
        codes = {d.code for d in diags}
        assert "BadQuery" in codes and "UnknownQuery" in codes

    @pytest.mark.parametrize("line", [
        "classify P l bogus=3",
        "classify P l paths=l",
        "trace l out=x.svg",
        "render fan E arc=3",
        "classify P l arc=3 arc=4",
        "trace l two_sided=no",
        "trace l two_sided=False",
        "render tris 0,1 junk",
        "render fan E R",
        "classify P l R",
    ])
    def test_input_a_query_does_not_take_is_a_bad_query(self, line):
        qs, diags = smf.parse_scene(line + "\n", self.LABELS)
        assert qs == []
        assert [(d.line, d.column, d.code) for d in diags] == \
            [(1, 1, "BadQuery")]

    def test_each_query_takes_its_options(self):
        text = ("trace l arc=5 growth=9 two_sided=false\n"
                "trace l two_sided=true\n"
                "classify P l arc=2 growth=7\n"
                "render tris 0,1 paths=l out=n.svg\n")
        qs, diags = smf.parse_scene(text, self.LABELS)
        assert not diags
        assert qs == [smf.TraceQuery("l", 5.0, 9, False),
                      smf.TraceQuery("l", None, None, True),
                      smf.ClassifyQuery("P", "l", 2.0, 7),
                      smf.RenderQuery(("tris", (0, 1)), ("l",), "n.svg")]
        assert set(smf.QUERY_OPTIONS) == {"trace", "classify", "render"}


class TestReports:
    def test_classification_report_shape(self):
        from smfgeo.builders import build_silo
        from smfgeo.classify import Budgets, classify_labeled
        from smfgeo.numbers import Scalars
        ctx = Scalars("float")
        surf = build_silo(6)
        b = Budgets()
        cls, surf, _, _ = classify_labeled(surf, ctx, "P", "l", b)
        rep = smf.classification_report("silo", "classify P l", cls, b,
                                        "float", surf.content_hash())
        assert rep["result"]["kind"] == "euclidean"
        assert rep["evidence"]["intervals"]
        assert {"lo", "hi", "status", "witness"} <= set(
            rep["evidence"]["intervals"][0])
        assert rep["budgets"] == {"arc": 200.0, "growth": 1_000_000}
        text = smf.dumps_report(rep)
        import json
        assert json.loads(text) == rep
