import pytest

from dualgraph.cli import _graph_payload
from dualgraph.dsl import GraphDocument, dot_graph, format_document, parse_document
from dualgraph.errors import (
    DuplicateId,
    GraphSyntaxError,
    SelfLoop,
    UnknownEndpoint,
    UnknownVertex,
)
from dualgraph.graph import build_graph
from dualgraph.lattice import discriminant


class TestParse:
    def test_two_zero_chain(self):
        g = parse_document("v 1 0\nv 2 0\ne 1 2").graph
        assert g.weight(1) == 0 and g.weight(2) == 0
        assert g.edges == ((1, 2),)
        assert discriminant(g) == -1

    def test_self_loop_reports_its_line(self):
        with pytest.raises(SelfLoop, match="line 2"):
            parse_document("v 1 -1\ne 1 1")

    def test_comments_blank_lines_and_header(self):
        doc = parse_document(
            "# dualgraph 1\n\n# a remark\nv 4 -2  # trailing note\n\nv 9 3\n"
        )
        assert doc.graph.vertices == (4, 9)
        assert doc.graph.weight(9) == 3
        assert format_document(doc).startswith("# dualgraph 1\n")

    @pytest.mark.parametrize("text,lineno", [
        ("# dualgraph 2\nv 1 0\n", 1),
        ("v 1 0\n#dualgraph 1.0\n", 2),
        ("# dualgraph 1\nv 1 0\n\n  # dualgraph banana\n", 4),
    ])
    def test_header_naming_another_version_is_rejected(self, text, lineno):
        with pytest.raises(GraphSyntaxError) as err:
            parse_document(text)
        assert err.value.line_number == lineno
        assert "format version" in str(err.value)

    def test_file_order_is_vertex_order(self):
        g = parse_document("v 7 0\nv 2 -1\nv 5 -2").graph
        assert g.vertices == (7, 2, 5)

    def test_forward_edge_reference(self):
        g = parse_document("v 1 0\ne 1 2\nv 2 -3").graph
        assert g.has_edge(1, 2)

    def test_roles(self):
        doc = parse_document("v 1 0\nv 2 0\ne 1 2\nrole left 1\nrole all 1 2\n")
        assert doc.roles == {"left": (1,), "all": (1, 2)}

    @pytest.mark.parametrize("text,lineno", [
        ("v 1", 1),
        ("v 1 0\ne 1", 2),
        ("w 1 0", 1),
        ("v 1 0\nrole x", 2),
        ("v one 0", 1),
        ("v 1 0\nrole 9bad 1", 2),
    ])
    def test_syntax_errors_carry_line_numbers(self, text, lineno):
        with pytest.raises(GraphSyntaxError) as err:
            parse_document(text)
        assert err.value.line_number == lineno

    @pytest.mark.parametrize("text,what,token", [
        ("v 1_0 -2", "vertex id", "1_0"),
        ("v \u0661 -1", "vertex id", "\u0661"),
        ("v 1 -\u0662", "weight", "-\u0662"),
        ("v 1 0\nv 2 0\ne 1 \u0662", "endpoint", "\u0662"),
        ("v 1 0\nv 2 0\nrole r 1 \u0661", "role member", "\u0661"),
    ])
    def test_integers_are_a_sign_and_ascii_digits(self, text, what, token):
        with pytest.raises(GraphSyntaxError, match=f"{what} must be an integer") as err:
            parse_document(text)
        assert err.value.line_number == text.count("\n") + 1
        assert repr(token) in str(err.value)

    def test_a_token_past_the_int_digit_limit_is_a_syntax_error(self):
        big = "9" * 5000
        try:
            g = parse_document(f"v 1 {big}").graph
        except GraphSyntaxError as err:
            assert err.line_number == 1 and "weight must be an integer" in str(err)
        else:  # an interpreter with no digit limit reads it
            assert g.weight(1) == int(big)

    def test_a_plus_sign_still_parses(self):
        g = parse_document("v +3 -2\nv 4 +0\ne +3 4").graph
        assert g.vertices == (3, 4) and g.weight(4) == 0 and g.has_edge(3, 4)

    def test_semantic_errors(self):
        with pytest.raises(DuplicateId, match="line 2"):
            parse_document("v 1 0\nv 1 -1")
        with pytest.raises(UnknownEndpoint, match="line 2"):
            parse_document("v 1 0\ne 1 3")
        with pytest.raises(UnknownVertex, match="line 3"):
            parse_document("v 1 0\nv 2 0\nrole part 1 5")
        with pytest.raises(GraphSyntaxError, match="already declared"):
            parse_document("v 1 0\nrole a 1\nrole a 1")

    def test_parallel_edges_survive(self):
        g = parse_document("v 1 -2\nv 2 -2\ne 1 2\ne 1 2").graph
        assert g.edge_multiplicity(1, 2) == 2


class TestFormat:
    def test_print_parse_is_identity_on_canonical_text(self):
        g = build_graph([(3, -2), (1, 0), (2, -1)], [(1, 2), (3, 1)])
        doc = GraphDocument(g, {"mid": (1,), "tips": (3, 2)})
        text = format_document(doc)
        assert parse_document(text) == doc
        assert format_document(parse_document(text)) == text

    def test_format_is_canonicalizing(self):
        messy = "v 2 0\nv 1 0\ne 2 1   # reversed\nrole b 2\nrole a 1\n"
        text = format_document(parse_document(messy))
        again = format_document(parse_document(text))
        assert text == again
        assert "e 1 2" in text
        assert text.index("role a") < text.index("role b")

    def test_a_role_with_no_members_is_dropped_from_every_rendering(self):
        g = build_graph([(1, -2), (2, -1)], [(1, 2)])
        doc = GraphDocument(g, {"a": (), "b": [1]})
        assert doc.roles == {"b": (1,)}
        json_roles = {k: tuple(v) for k, v in _graph_payload(doc)["roles"].items()}
        assert json_roles == parse_document(format_document(doc)).roles == doc.roles

    def test_a_document_without_roles_prints_header_and_vertices(self):
        g = build_graph([(0, -1)])
        assert format_document(GraphDocument(g)) == "# dualgraph 1\nv 0 -1\n"


class TestDot:
    def test_labels_carry_weight_multiplicity_and_roles(self):
        g = build_graph([(0, -2), (1, -1)], [(0, 1)])
        out = dot_graph(g, {"tip": (0,)}, {0: 1, 1: 2}, label="demo")
        assert 'n0 [label="0\\nw -2\\nm 1\\ntip"];' in out
        assert 'n1 [label="1\\nw -1\\nm 2"];' in out
        assert "n0 -- n1;" in out
        assert 'label="demo";' in out

    def test_parallel_edges_render_twice(self):
        g = build_graph([(0, 0), (1, 0)], [(0, 1), (0, 1)])
        assert dot_graph(g).count("n0 -- n1;") == 2
