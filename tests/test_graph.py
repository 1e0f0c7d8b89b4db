"""Graph construction and exact invariants, cross-checked by brute force."""

import math
import random

import pytest

from zdg import (
    DisconnectedError,
    EnumerationOptions,
    Graph,
    bridges,
    builtin_example,
    center,
    chromatic_number,
    clique_number,
    complete_multipartite_partition,
    cut_vertices,
    enumerate_semigroups,
    gamma,
    gamma_bar,
    girth,
    group_with_zero,
    has_clique_of_size,
    median,
    metrics,
    minimal_edge_cutsets,
    minimal_vertex_cutsets,
    null_semigroup,
    orthogonal_union,
    powerset_semigroup,
    to_dot,
)
from oracles import (
    brute_chromatic_number,
    brute_clique_number,
    brute_girth,
    naive_gamma_bar_edges,
    naive_gamma_edges,
    naive_multipartite_parts,
    naive_nilpotents,
    naive_zero_divisors,
    random_graph,
)

INF = math.inf


def path4():
    return Graph(range(4), [(0, 1), (1, 2), (2, 3)])


def cycle(n):
    return Graph(range(n), [(i, (i + 1) % n) for i in range(n)])


# -- construction ----------------------------------------------------------------


def small_corpus():
    """Every raw table of order 2 to 4, then every order-5 isomorphism class."""
    for order in (2, 3, 4):
        yield from enumerate_semigroups(EnumerationOptions(order))
    yield from enumerate_semigroups(EnumerationOptions(5, up_to_iso=True))


def test_gamma_construction_matches_naive_definitions():
    count = 0
    for s in small_corpus():
        count += 1
        rows = s.table.entries
        zstar, nil = naive_zero_divisors(rows), naive_nilpotents(rows)
        assert s.nonzero_zero_divisors() == zstar
        assert s.nilpotents() == nil
        assert s.is_reduced() == (nil == {0})
        g, bar = gamma(s), gamma_bar(s)
        assert g.vertices == bar.vertices == tuple(sorted(zstar))
        assert set(g.edges()) == naive_gamma_edges(rows)
        assert set(bar.edges()) == naive_gamma_bar_edges(rows)
        assert complete_multipartite_partition(g) == naive_multipartite_parts(g)
    assert count == 436


def test_multipartite_partition_matches_oracle_on_random_graphs():
    # the 200 random graphs of the acceptance oracle test
    rng = random.Random(20260819)
    for _ in range(200):
        g = random_graph(rng, max_n=8)
        assert complete_multipartite_partition(g) == naive_multipartite_parts(g)



def test_gamma_of_ex34_is_the_path():
    g = gamma(builtin_example("ex3.4"))
    assert g.vertices == (1, 2, 3, 4)
    assert g.edges() == ((1, 2), (2, 3), (3, 4))
    assert [g.label_of(v) for v in g.vertices] == ["a", "b", "c", "d"]


def test_gamma_of_ex45_is_the_wheel():
    g = gamma(builtin_example("ex4.5"))
    assert g.n == 6
    assert g.edge_count == 10
    assert g.degree(6) == 5  # f is adjacent to everything


def test_gamma_bar_contains_gamma():
    for ex in ("ex3.4", "ex3.5", "ex3.8", "ex4.5"):
        s = builtin_example(ex)
        assert set(gamma(s).edges()) <= set(gamma_bar(s).edges())


def test_gamma_bar_of_ex45_is_complete():
    g = gamma_bar(builtin_example("ex4.5"))
    assert g.edge_count == 15


def test_gamma_equals_gamma_bar_on_ex35():
    s = builtin_example("ex3.5")
    assert gamma(s).edges() == gamma_bar(s).edges()


def test_loops_are_rejected():
    with pytest.raises(ValueError):
        Graph(range(2), [(0, 0)])


def test_square_zero_element_is_a_vertex():
    s = builtin_example("ex3.5")  # z^2 = 0 makes z a zero divisor
    assert 3 in gamma(s).vertices


# -- metrics ----------------------------------------------------------------------


def test_path_metrics():
    g = path4()
    m = metrics(g)
    assert m.radius == 2
    assert m.diameter == 3
    assert girth(g) == INF
    assert g.is_connected()


def test_cycle_metrics():
    g = cycle(5)
    m = metrics(g)
    assert m.radius == m.diameter == 2
    assert girth(g) == 5


def test_disconnected_metrics_use_infinity():
    g = Graph(range(4), [(0, 1), (2, 3)])
    m = metrics(g)
    assert not g.is_connected()
    assert m.diameter == INF
    assert len(g.components()) == 2


def test_radius_diameter_inequality_on_corpus():
    for s in enumerate_semigroups(EnumerationOptions(order=5, up_to_iso=True)):
        g = gamma(s)
        if g.n == 0:
            continue
        m = metrics(g)
        assert m.radius <= m.diameter <= 2 * m.radius


def test_distance_one_iff_edge():
    g = gamma(builtin_example("ex4.5"))
    m = metrics(g)
    for i, u in enumerate(g.vertices):
        for j, v in enumerate(g.vertices):
            if i != j:
                assert (m.dist[i][j] == 1) == g.has_edge(u, v)


# -- center, median, separators ----------------------------------------------------


def test_center_and_median_of_path():
    g = path4()
    assert center(g) == frozenset({1, 2})
    assert median(g) == frozenset({1, 2})


def test_center_requires_connected():
    g = Graph(range(4), [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedError):
        center(g)
    with pytest.raises(DisconnectedError):
        median(g)


def test_cut_vertices_and_bridges_of_path():
    g = path4()
    assert cut_vertices(g) == frozenset({1, 2})
    assert bridges(g) == ((0, 1), (1, 2), (2, 3))


def test_cycle_has_no_cut_structure():
    g = cycle(4)
    assert cut_vertices(g) == frozenset()
    assert bridges(g) == ()


def test_minimal_vertex_cutsets_of_path():
    g = path4()
    assert minimal_vertex_cutsets(g) == (frozenset({1}), frozenset({2}))


def test_minimal_vertex_cutsets_of_cycle():
    cuts = minimal_vertex_cutsets(cycle(4))
    # opposite vertex pairs
    assert set(cuts) == {frozenset({0, 2}), frozenset({1, 3})}


def test_minimal_vertex_cutsets_respect_cap():
    g = gamma(builtin_example("ex4.5"))
    for t in minimal_vertex_cutsets(g, size_cap=3):
        assert len(t) <= 3


def test_minimal_vertex_cutsets_need_three_vertices():
    assert minimal_vertex_cutsets(Graph(range(2), [(0, 1)])) == ()


def test_minimal_edge_cutsets_of_path():
    assert minimal_edge_cutsets(path4()) == (
        ((0, 1),),
        ((1, 2),),
        ((2, 3),),
    )


def test_minimal_edge_cutsets_of_cycle():
    cuts = minimal_edge_cutsets(cycle(4))
    assert all(len(c) == 2 for c in cuts)
    assert len(cuts) == 6  # any two edges of C4 disconnect it


def test_single_edge_graph_cutset():
    g = Graph(range(2), [(0, 1)])
    assert minimal_edge_cutsets(g) == (((0, 1),),)


# -- clique and coloring -------------------------------------------------------------


def test_ex45_clique_and_chromatic():
    g = gamma(builtin_example("ex4.5"))
    omega, witness = clique_number(g)
    chi, coloring = chromatic_number(g)
    assert (omega, chi) == (3, 4)
    assert len(witness) == 3
    assert all(g.has_edge(u, v) for u in witness for v in witness if u != v)
    # the returned coloring is proper and uses exactly chi colors
    pos = {v: i for i, v in enumerate(g.vertices)}
    for u, v in g.edges():
        assert coloring[pos[u]] != coloring[pos[v]]
    assert len(set(coloring)) == chi


def grotzsch():
    """The Mycielskian of C5: 11 vertices, 20 edges, triangle-free, χ = 4."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, j) for i in range(5) for j in ((i + 1) % 5, (i - 1) % 5)]
    edges += [(5 + i, 10) for i in range(5)]
    return Graph(range(11), edges)


def test_grotzsch_graph_needs_two_colours_above_omega():
    # ω = 2 and χ = 4: the searches for k = 2 and k = 3 both have to fail
    g = grotzsch()
    assert (g.n, g.edge_count) == (11, 20)
    assert clique_number(g)[0] == 2
    chi, coloring = chromatic_number(g)
    assert chi == 4
    assert all(coloring[u] != coloring[v] for u, v in g.edges())
    assert len(set(coloring)) == 4


def assert_witness_contract(g):
    """The witnesses of clique_number and chromatic_number, by position."""
    omega, clique = clique_number(g)
    assert len(clique) == omega == len(set(clique))
    assert all(g.has_edge(u, v) for u in clique for v in clique if u != v)
    chi, coloring = chromatic_number(g)
    assert len(coloring) == g.n
    pos = {v: i for i, v in enumerate(g.vertices)}
    assert all(coloring[pos[u]] != coloring[pos[v]] for u, v in g.edges())
    assert len(set(coloring)) == chi
    # colours are numbered by least vertex: c first appears before c + 1
    first = [coloring.index(c) for c in range(chi)]
    assert first == sorted(first)


def test_witness_contract_on_the_oracle_graphs():
    # the graphs test_07 checks against brute force, built the same way
    rng = random.Random(20260819)
    graphs = [random_graph(rng, max_n=8) for _ in range(200)]
    for n in (2, 3, 4):
        graphs.extend(
            gamma(s) for s in enumerate_semigroups(EnumerationOptions(order=n))
        )
    graphs.append(grotzsch())
    for g in graphs:
        assert_witness_contract(g)


def test_has_clique_of_size():
    g = gamma(powerset_semigroup(3))
    assert has_clique_of_size(g, 3)
    assert not has_clique_of_size(g, 4)
    with pytest.raises(ValueError):
        has_clique_of_size(g, 0)


def test_exact_invariants_match_brute_force_on_random_graphs():
    rng = random.Random(1793)
    for _ in range(60):
        g = random_graph(rng, max_n=7)
        assert clique_number(g)[0] == brute_clique_number(g)
        assert chromatic_number(g)[0] == brute_chromatic_number(g)
        assert girth(g) == brute_girth(g)


def test_empty_and_single_vertex_graphs():
    empty = Graph((), ())
    single = Graph((5,), ())
    assert clique_number(empty) == (0, ())
    assert chromatic_number(empty) == (0, ())
    assert complete_multipartite_partition(empty) == ()
    assert clique_number(single)[0] == 1
    assert chromatic_number(single)[0] == 1
    assert girth(single) == INF


# -- complete multipartite recognition ------------------------------------------------


def test_complete_bipartite_recognition():
    g = gamma(orthogonal_union([group_with_zero(3), group_with_zero(3)]))
    parts = complete_multipartite_partition(g)
    assert parts is not None
    assert sorted(sorted(p) for p in parts) == [[1, 2], [3, 4]]


def test_complete_multipartite_of_null_semigroup():
    g = gamma(null_semigroup(5))  # K4
    parts = complete_multipartite_partition(g)
    assert parts is not None and len(parts) == 4


def test_path_is_not_complete_multipartite():
    assert complete_multipartite_partition(path4()) is None


def test_star_is_complete_bipartite():
    g = gamma(builtin_example("ex3.8"))
    parts = complete_multipartite_partition(g)
    assert parts is not None
    assert sorted(len(p) for p in parts) == [1, 2]


# -- dot and induced -------------------------------------------------------------------


def test_dot_output_mentions_every_vertex_and_edge():
    s = builtin_example("ex3.4")
    out = to_dot(gamma(s))
    for name in ("a", "b", "c", "d"):
        assert '"%s"' % name in out
    assert '"a" -- "b";' in out
    assert out.startswith("graph gamma {")


def test_bipartiteness_reads_the_cached_layers(monkeypatch):
    g = gamma(powerset_semigroup(5))
    expected = Graph(g.vertices, g.edges()).is_bipartite()
    metrics(g)

    def refuse(self, *args):
        raise AssertionError("a second BFS")

    monkeypatch.setattr(Graph, "_reach", refuse)
    assert g.is_bipartite() is expected is False


def test_induced_subgraph_of_ex34():
    g = gamma(builtin_example("ex3.4"))
    sub = g.induced([1, 2, 3])  # a, b, c
    assert sub.edges() == ((1, 2), (2, 3))
    assert sub.label_of(1) == "a"


def test_induced_on_all_vertices_is_identity():
    g = gamma(builtin_example("ex4.5"))
    sub = g.induced(g.vertices)
    assert sub.edges() == g.edges()
