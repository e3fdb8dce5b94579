"""Tests for the directed-hypergraph data model, bipartite mapping, and joint tensor."""

import random
from collections import Counter
from dataclasses import fields
from itertools import groupby

import pytest

from helpers import random_hypergraph, recount_degrees, recount_joint, validate
from hypernull import core
from hypernull.core import (
    BipartiteDigraph,
    DirectedHypergraph,
    Hyperedge,
    ParseError,
    compute_joint,
    degree_profile,
    format_hypergraph,
    joint_marginals,
    merge_to_undirected,
    parse_hypergraph,
    parse_undirected,
    positive_histograms,
    read_labels,
    to_bipartite,
    to_hypergraph,
    undirected_to_directed,
)

# Six nodes, three hyperedges; used as a hand-checkable fixture throughout.
TOY = """\
# toy hypergraph
1|2,6
3|4
6|3,5
"""


def toy():
    return parse_hypergraph(TOY)


class TestParsing:
    def test_single_line(self):
        H = parse_hypergraph("1,2|3")
        assert H.num_nodes == 3
        (e,) = H.edges
        assert to_bipartite(H).right_count == 1
        assert sorted(H.label_of(v) for v in e.head) == [1, 2]
        assert sorted(H.label_of(v) for v in e.tail) == [3]

    def test_repeated_line_is_multiplicity(self):
        H = parse_hypergraph("1,2|3\n1,2|3\n")
        assert len(H.edges) == 2
        assert H.edges[0] == H.edges[1]

    def test_comments_and_blank_lines_ignored(self):
        H = parse_hypergraph("# comment\n\n1|2\n")
        assert len(H.edges) == 1

    def test_empty_sides(self):
        H = parse_hypergraph("1,2|\n|3\n")
        heads = sorted(tuple(sorted(e.head)) for e in H.edges)
        assert heads == [(), (0, 1)]

    def test_head_tail_overlap_allowed(self):
        H = parse_hypergraph("7|7")
        G = to_bipartite(H)
        assert sorted(G.edges()) == [(0, 0, -1), (0, 0, 1)]

    @pytest.mark.parametrize(
        "text",
        ["1,2 3", "1|2|3", "1,x|3", "1,1|3", "2|3,3", "|", "1,-2|3"],
    )
    def test_malformed_lines_rejected(self, text):
        with pytest.raises(ParseError) as err:
            parse_hypergraph(text)
        assert "line 1" in str(err.value)

    @pytest.mark.parametrize("text, message", [
        ("1,x|3", "bad node id 'x'"),
        (" 1 , +x |3", "bad node id '+x'"),
        ("1,,2|3", "bad node id ''"),
        ("1,-2|3", "negative node id -2"),
        ("-1,x|3", "negative node id -1"),
        ("x,-1|3", "bad node id 'x'"),
        ("1,1,x|3", "bad node id 'x'"),
        ("1,1,-1|3", "negative node id -1"),
        ("1,1|3", "duplicate node within head"),
        ("2|3, 3", "duplicate node within tail"),
        (" | ", "head and tail are both empty"),
        ("1|2|3", "expected exactly one '|'"),
    ])
    def test_malformed_line_messages(self, text, message):
        # The first fault of the line, in token order, as the per-token
        # checks name it.
        with pytest.raises(ParseError) as err:
            parse_hypergraph("0|1\n" + text)
        assert str(err.value) == f"line 2: {message}"

    def test_padded_and_signed_ids_parse_as_the_per_token_path(self, monkeypatch):
        rng = random.Random(16)

        def padded(side):
            return ",".join(
                rng.choice(["", " ", "\t"]) + rng.choice(["", "+"]) + str(v)
                + rng.choice(["", " ", "  "])
                for v in sorted(side)
            ) or rng.choice(["", " "])

        for _ in range(200):
            H = random_hypergraph(rng, max_nodes=12, max_edges=8, max_side=5)
            text = "\n".join(f"{padded(e.head)}|{padded(e.tail)}" for e in H.edges)
            fast = parse_hypergraph(text)
            with monkeypatch.context() as patched:
                patched.setattr(core, "_parse_side", core._parse_side_checked)
                assert parse_hypergraph(text) == fast
            assert fast == parse_hypergraph(format_hypergraph(H))

    @pytest.mark.parametrize("text, head", [
        (" 1 , 2 |0", {1, 2}),
        ("+1,2|0", {1, 2}),
        ("2|0", {2}),
    ])
    def test_padded_sides_parse_on_the_fast_path(self, text, head):
        H = parse_hypergraph(text)
        assert {H.labels[v] for v in H.edges[0].head} == head

    @pytest.mark.parametrize("text, message", [
        ("1,1|0", "duplicate node within head"),
        ("0|2,3,2", "duplicate node within tail"),
        ("-1|0", "negative node id -1"),
        ("0|-1", "negative node id -1"),
    ])
    def test_fast_path_misses_fall_back_to_the_checked_messages(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_hypergraph(text)
        assert str(err.value) == f"line 1: {message}"

    def test_dense_and_sparse_labels(self):
        dense = parse_hypergraph("0,2|1\n1|0\n")
        assert dense.labels == [0, 1, 2]
        assert [e.key for e in dense.edges] == [((0, 2), (1,)), ((1,), (0,))]
        sparse = parse_hypergraph("5,9|7\n7|5\n")
        assert sparse.labels == [5, 7, 9]
        assert [e.key for e in sparse.edges] == [((0, 2), (1,)), ((1,), (0,))]
        assert format_hypergraph(sparse) == "5,9|7\n7|5\n"
        shifted = parse_hypergraph("1,3|2\n")  # labels 1..3: not 0..n-1
        assert shifted.labels == [1, 2, 3]
        assert shifted.edges[0].key == ((0, 2), (1,))

    def test_error_reports_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_hypergraph("1|2\n#ok\n3|3|3\n")
        assert "line 3" in str(err.value)

    def test_round_trip_through_text(self):
        H = toy()
        assert parse_hypergraph(format_hypergraph(H)) == H

    def test_external_ids_retained(self):
        H = parse_hypergraph("10|30\n20|10\n")
        assert H.labels == [10, 20, 30]
        assert parse_hypergraph(format_hypergraph(H)) == H


class TestBipartite:
    def test_toy_shape(self):
        G = to_bipartite(toy())
        assert G.left_count == 6
        assert G.right_count == 3
        assert G.plus_edges() == 3  # total head memberships
        assert G.minus_edges() == 5  # total tail memberships

    def test_toy_left_degree_anchor(self):
        # Exactly three left vertices have in-degree 1 and out-degree 0: the
        # external nodes 2, 4, and 5.
        H = toy()
        G = to_bipartite(H)
        picked = [
            H.label_of(v)
            for v in range(G.left_count)
            if len(G.left_in[v]) == 1 and len(G.left_out[v]) == 0
        ]
        assert sorted(picked) == [2, 4, 5]

    def test_toy_tail_sizes(self):
        G = to_bipartite(toy())
        assert sorted(len(t) for t in G.right_out) == [1, 2, 2]
        assert [len(h) for h in G.right_in] == [1, 1, 1]

    def test_multiplicity_duplicates_right_vertices(self):
        H = parse_hypergraph("1|2\n1|2\n")
        G = to_bipartite(H)
        assert G.right_count == 2
        assert G.right_in[0] == G.right_in[1]

    def test_empty_hypergraph(self):
        G = to_bipartite(DirectedHypergraph([], 4))
        assert G.right_count == 0
        assert G.plus_edges() == 0 and G.minus_edges() == 0

    def test_validator_catches_inconsistency(self):
        G = to_bipartite(toy())
        validate(G)
        G.right_in[0].add(3)  # break the cross-index invariant
        with pytest.raises(ValueError):
            validate(G)

    def test_round_trip_fixed(self):
        H = toy()
        assert to_hypergraph(to_bipartite(H)) == H

    def test_round_trip_random(self):
        rng = random.Random(99)
        for _ in range(1000):
            H = random_hypergraph(rng)
            assert to_hypergraph(to_bipartite(H)) == H
            # The same hyperedges drawn one to three times each, shuffled.
            copies = [Hyperedge(e.head, e.tail)
                      for e in H.edges for _ in range(rng.randint(1, 3))]
            rng.shuffle(copies)
            R = DirectedHypergraph(copies, H.num_nodes)
            G = to_bipartite(R)
            assert G.right_count == len(copies)
            assert Counter(map(Hyperedge, G.right_in, G.right_out)) == Counter(copies)
            assert to_hypergraph(G) == R
            # One line per copy, the copies of a hyperedge adjacent.
            lines = format_hypergraph(R).splitlines()
            assert len(lines) == len(copies)
            assert len([line for line, _ in groupby(lines)]) == len(set(lines))

    def test_identical_right_vertices_fold_back(self):
        H = parse_hypergraph("1|2")
        G = to_bipartite(H)
        a = len(G.right_in)
        G.right_in.append(set(G.right_in[0]))
        G.right_out.append(set(G.right_out[0]))
        for v in G.right_in[a]:
            G.left_out[v].add(a)
        for v in G.right_out[a]:
            G.left_in[v].add(a)
        H2 = to_hypergraph(G)
        assert len(H2.edges) == 2
        assert H2 == parse_hypergraph("1|2\n1|2\n")

    def test_isolated_right_vertex_rejected(self):
        G = BipartiteDigraph([set()], [set()], [set()], [set()])
        with pytest.raises(ValueError):
            to_hypergraph(G)


class TestDegrees:
    def test_handshake_random(self):
        rng = random.Random(7)
        for _ in range(200):
            G = to_bipartite(random_hypergraph(rng))
            p = degree_profile(G)
            assert sum(p.left_out) == sum(p.right_in)
            assert sum(p.left_in) == sum(p.right_out)

    def test_profile_matches_recount(self):
        rng = random.Random(13)
        for _ in range(200):
            G = to_bipartite(random_hypergraph(rng))
            p = degree_profile(G)
            assert (p.left_in, p.left_out, p.right_in, p.right_out) == recount_degrees(G)

    def test_empty_graph_profile(self):
        G = to_bipartite(DirectedHypergraph([], 3))
        p = degree_profile(G)
        assert p.left_in == [0, 0, 0]
        assert p.right_in == []


class TestJointTensor:
    def test_toy_anchor_cells(self):
        J = compute_joint(to_bipartite(toy()))
        # Tail memberships of nodes with (in=1, out=0), grouped by head size 1:
        # three such memberships in the toy.
        assert sum(c for (i, j, k, l, d), c in J.counts.items()
                   if d == -1 and (i, j) == (1, 0) and k == 1) == 3
        # Tail memberships of nodes with (in=1, out=1) inside tails of size 2.
        assert sum(c for (i, j, k, l, d), c in J.counts.items()
                   if d == -1 and (i, j) == (1, 1) and l == 2) == 2

    def test_single_edge_graph(self):
        J = compute_joint(to_bipartite(parse_hypergraph("1|")))
        assert J.counts == {(0, 1, 1, 0, 1): 1}

    def test_totals_match_edge_counts(self):
        rng = random.Random(5)
        for _ in range(100):
            G = to_bipartite(random_hypergraph(rng))
            J = compute_joint(G)
            assert sum(c for (*_, d), c in J.counts.items() if d == 1) == G.plus_edges()
            assert sum(c for (*_, d), c in J.counts.items() if d == -1) == G.minus_edges()

    def test_matches_recount_oracle(self):
        rng = random.Random(11)
        for _ in range(200):
            G = to_bipartite(random_hypergraph(rng))
            assert compute_joint(G).counts == recount_joint(G)

    def test_toy_marginal_histograms(self):
        G = to_bipartite(toy())
        hists = joint_marginals(compute_joint(G))
        assert hists.right_in == {1: 3}  # all heads are singletons
        assert hists.right_out == {1: 1, 2: 2}
        assert hists.left_in == {1: 5}
        assert hists.left_out == {1: 3}

    def test_empty_tensor_marginals(self):
        from hypernull.core import JointTensor

        hists = joint_marginals(JointTensor({}))
        assert hists.left_in == {} and hists.right_out == {}

    def test_marginals_match_profile_random(self):
        rng = random.Random(23)
        for _ in range(300):
            G = to_bipartite(random_hypergraph(rng))
            hists = joint_marginals(compute_joint(G))
            assert hists == positive_histograms(degree_profile(G))


class TestUndirected:
    def test_lift_single_edge(self):
        U = parse_undirected("4,5")
        H = undirected_to_directed(U)
        (e,) = H.edges
        assert e.head == e.tail
        assert len(e.head) == 2

    def test_lift_degrees_coincide(self):
        rng = random.Random(3)
        for _ in range(100):
            U = merge_to_undirected(random_hypergraph(rng))
            G = to_bipartite(undirected_to_directed(U))
            p = degree_profile(G)
            assert p.left_in == p.left_out
            assert p.right_in == p.right_out

    def test_merge_toy(self):
        U = merge_to_undirected(toy())
        assert sorted(len(e) for e in U.edges) == [2, 3, 3]

    def test_merge_then_lift_is_identity_on_undirected(self):
        U = parse_undirected("1,2\n2,3,4\n")
        again = merge_to_undirected(undirected_to_directed(U))
        assert Counter(U.edges) == Counter(again.edges)

    def test_merge_keeps_multiplicity(self):
        H = parse_hypergraph("1|2\n1|2\n")
        U = merge_to_undirected(H)
        assert len(U.edges) == 2

    def test_undirected_round_trip_text(self):
        from hypernull.core import format_undirected

        U = parse_undirected("10,20\n20,30,40\n")
        again = parse_undirected(format_undirected(U))
        assert Counter(U.edges) == Counter(again.edges)
        assert U.labels == again.labels


class TestLabels:
    def test_read_labels_basic(self):
        cats = read_labels("1,red\n2,blue\n")
        assert cats == {1: "red", 2: "blue"}

    def test_read_labels_header_skipped(self):
        cats = read_labels("node_id,category\n5,core\n")
        assert cats == {5: "core"}

    def test_read_labels_header_after_comment_or_blank_line(self):
        assert read_labels("# categories\nnode_id,category\n0,a\n") == {0: "a"}
        assert read_labels("\nnode_id,category\n0,a\n") == {0: "a"}

    def test_read_labels_header_only_before_the_first_row(self):
        with pytest.raises(ParseError, match="line 3: bad node id 'node_id'"):
            read_labels("# categories\n0,a\nnode_id,category\n")

    def test_read_labels_rejects_a_repeated_node_id(self):
        with pytest.raises(ParseError, match="^line 4: node id 0 repeats line 2$"):
            read_labels("node_id,category\n0,a\n1,b\n0,c\n")

    def test_read_labels_rejects_a_row_without_a_category(self):
        # Such a row would put its node in a category named ''.
        with pytest.raises(ParseError, match="^line 1: expected node_id,category, got '0'$"):
            read_labels("0\n1,a\n")
        with pytest.raises(ParseError, match="^line 3: expected node_id,category, got '1,'$"):
            read_labels("node_id,category\n0,a\n1,\n")

    def test_read_labels_rejects_a_row_with_an_extra_comma(self):
        with pytest.raises(ParseError, match="^line 2: expected node_id,category, got '0,a,b'$"):
            read_labels("# categories\n0,a,b\n")


class TestHyperedgeInvariants:
    def test_empty_edge_rejected(self):
        with pytest.raises(ValueError):
            Hyperedge(frozenset(), frozenset())

    def test_fields_are_head_and_tail(self):
        assert [f.name for f in fields(Hyperedge)] == ["head", "tail"]

    def test_size(self):
        assert Hyperedge(frozenset({1, 2}), frozenset({2})).size == 3

    def test_canonical_fold_and_order(self):
        e1 = Hyperedge(frozenset({1}), frozenset({2}))
        e2 = Hyperedge(frozenset({0}), frozenset({2}))
        H = DirectedHypergraph([e1, e2, e1], 3)
        assert H.edges == [e2, e1, e1]
        assert H.edges[0].head == frozenset({0})

    def test_out_of_range_node_rejected(self):
        with pytest.raises(ValueError):
            DirectedHypergraph([Hyperedge(frozenset({5}), frozenset())], 3)
