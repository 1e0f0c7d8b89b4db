"""Separator searches against the brute-force oracles, plus large pins."""

import hashlib
import itertools
import random
import time

import pytest

from zdg import (
    CayleyTable,
    DisconnectedError,
    EnumerationOptions,
    Graph,
    bonds,
    bridges,
    builtin_example,
    cut_vertices,
    enumerate_semigroups,
    gamma,
    gamma_bar,
    minimal_edge_cutsets,
    minimal_vertex_cutsets,
    validate,
)
from zdg.cli import main
from oracles import (
    brute_minimal_edge_cutsets,
    brute_minimal_vertex_cutsets,
    naive_components,
    random_graph,
)

CAPS = (1, 2, 3, 4)

# builtin examples small enough for the oracles; null:10 and up and
# powerset:5 would take them minutes
SMALL_EXAMPLES = (
    "ex3.4", "ex3.5", "ex3.8", "ex4.3", "ex4.5", "zg:6", "null:5", "null:8",
    "powerset:2", "powerset:4", "ortho:zg3+zg3", "ortho:null3+null4",
    "ortho:powerset2+powerset2", "ortho:powerset2+powerset3",
    "ortho:null4+powerset3", "ortho:null4+null4+zg3",
)


def corpus_graphs():
    for order in range(2, 6):
        for s in enumerate_semigroups(EnumerationOptions(order, up_to_iso=True)):
            yield gamma(s)
            yield gamma_bar(s)


def example_graphs():
    for eid in SMALL_EXAMPLES:
        s = builtin_example(eid)
        yield gamma(s)
        yield gamma_bar(s)


def connected_random_graphs(count):
    rng = random.Random(2207)
    out = {}
    while len(out) < count:
        g = random_graph(rng, max_n=7)
        if g.n >= 2 and g.is_connected():
            out[g.edges()] = g
    return list(out.values())


def assert_matches_oracles(graphs):
    """Compare both searches with the oracles at every cap, the bridges
    with the one-edge cuts, the cut vertices with the one-vertex cuts and
    the sides of every bond with the components left by its cut; returns
    the number of distinct graphs compared."""
    seen = set()
    for g in graphs:
        key = (g.vertices, g.edges())
        if g.n < 2 or key in seen:
            continue
        seen.add(key)
        # the oracles grow cutsets by size, so their answer at a smaller
        # cap is their answer at the largest one cut down to that size
        edge_cuts = brute_minimal_edge_cutsets(g, max(CAPS))
        vertex_cuts = brute_minimal_vertex_cutsets(g, max(CAPS)) if g.n >= 3 else ()
        for cap in CAPS:
            assert minimal_edge_cutsets(g, cap) == tuple(
                u for u in edge_cuts if len(u) <= cap)
            if g.n >= 3:
                assert minimal_vertex_cutsets(g, cap) == tuple(
                    t for t in vertex_cuts if len(t) <= cap)
        assert bridges(g) == tuple(u[0] for u in edge_cuts if len(u) == 1)
        assert cut_vertices(g) == frozenset(
            v for t in vertex_cuts if len(t) == 1 for v in t)
        for cut, sides in bonds(g, max(CAPS)):
            assert [
                frozenset(g.position(v) for v in side) for side in sides
            ] == naive_components(g, cut)
    return len(seen)


def test_cutsets_match_oracles_on_order5_corpus():
    # the order <= 5 corpus realizes 16 distinct graphs on two or more vertices
    assert assert_matches_oracles(corpus_graphs()) == 16


def test_cutsets_match_oracles_on_small_examples():
    assert assert_matches_oracles(example_graphs()) == 17


def test_cutsets_match_oracles_on_random_graphs():
    assert assert_matches_oracles(connected_random_graphs(200)) == 200


def grid(rows, cols):
    """The rows x cols grid graph; 2 x k is the ladder."""
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return Graph(range(rows * cols), edges)


def tied_component_graphs():
    """Graphs of at most 10 vertices with cutsets whose full components
    tie in size, so the least one is told apart by its least vertex."""
    for k in range(4, 11):
        yield Graph(range(k), [(i, (i + 1) % k) for i in range(k)])
    for k in range(2, 5):
        yield Graph(range(2 * k), [(i, k + j) for i in range(k) for j in range(k)])
    for k in range(2, 6):
        yield grid(2, k)
    yield grid(3, 3)
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    yield Graph(range(10), outer + inner + [(i, 5 + i) for i in range(5)])
    yield Graph(range(6), [(i, i + 1) for i in range(5)])
    yield Graph(range(7), [(0, i) for i in range(1, 7)])
    yield Graph(range(8), [(0, 1)] + [(0, i) for i in (2, 3, 4)] + [(1, i) for i in (5, 6, 7)])


def test_vertex_cutsets_match_oracle_at_caps_5_and_6():
    # the edge oracle is too slow at these caps, so this compares the
    # vertex search alone at every cap up to 6; caps above n - 2 leave
    # no room for a cutset
    seen = set()
    graphs = itertools.chain(
        corpus_graphs(), example_graphs(), connected_random_graphs(200),
        tied_component_graphs())
    for g in graphs:
        key = (g.vertices, g.edges())
        if g.n < 3 or key in seen:
            continue
        seen.add(key)
        brute = brute_minimal_vertex_cutsets(g, 6)
        for cap in range(1, 7):
            assert minimal_vertex_cutsets(g, cap) == tuple(t for t in brute if len(t) <= cap)
    # 15 corpus, 16 example and 199 random graphs of 3 or more vertices,
    # 3 of them found twice, and 19 graphs with tied components, 3 of
    # them 4-cycles found before
    assert len(seen) == 243


def test_edge_cutsets_leave_two_connected_sides():
    g = gamma(builtin_example("powerset:4"))
    for cut in minimal_edge_cutsets(g):
        kept = [e for e in g.edges() if e not in cut]
        sides = Graph(g.vertices, kept).components()
        assert len(sides) == 2
        assert all((u in sides[0]) != (v in sides[0]) for u, v in cut)


def test_cutsets_need_a_connected_graph():
    g = Graph(range(4), [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedError):
        minimal_edge_cutsets(g)
    with pytest.raises(DisconnectedError):
        minimal_vertex_cutsets(g)


def test_separators_of_tiny_graphs_are_empty_answers():
    # too few vertices to split is an empty answer, not an error; the
    # one-edge graph keeps its bond and bridge
    empty, point, edge = Graph((), ()), Graph([0], ()), Graph([0, 1], [(0, 1)])
    for g in (empty, point, edge):
        assert minimal_vertex_cutsets(g) == ()
        assert cut_vertices(g) == frozenset()
        for cap in CAPS:
            assert minimal_vertex_cutsets(g, cap) == brute_minimal_vertex_cutsets(g, cap)
            assert minimal_edge_cutsets(g, cap) == brute_minimal_edge_cutsets(g, cap)
    for g in (empty, point):
        assert bonds(g) == ()
        assert minimal_edge_cutsets(g) == ()
        assert bridges(g) == ()
    assert bonds(edge) == ((((0, 1),), (frozenset({0}), frozenset({1}))),)
    assert minimal_edge_cutsets(edge) == (((0, 1),),)
    assert bridges(edge) == ((0, 1),)


# -- pins beyond brute-force reach ----------------------------------------------


def test_complete_k23_cutsets():
    g = gamma(builtin_example("null:24"))
    assert (g.n, g.edge_count) == (23, 253)
    assert minimal_vertex_cutsets(g, 4) == ()
    assert minimal_edge_cutsets(g, 4) == ()
    # the smallest bonds of K23 isolate one vertex: 22 edges each
    stars = minimal_edge_cutsets(g, 22)
    assert len(stars) == 23
    for v, cut in zip(g.vertices, stars):
        assert cut == tuple(sorted(
            (min(u, v), max(u, v)) for u in g.vertices if u != v
        ))


def test_vertex_cutsets_of_k15_16_need_few_searches(monkeypatch):
    # Γ(ortho:zg16+zg17) is K15,16, whose least vertex cut has 15
    # vertices: a search over vertex subsets visits all C(31, <=6) of
    # them at cap 6, while a component grown from one vertex has more
    # than 6 neighbours at once and is given up before a leaf, so the
    # only BFS left is the one that finds the graph connected
    g = gamma(builtin_example("ortho:zg16+zg17"))
    assert (g.n, g.edge_count) == (31, 240)
    calls = 0
    reach = Graph._reach

    def counted(self, *args):
        nonlocal calls
        calls += 1
        return reach(self, *args)

    monkeypatch.setattr(Graph, "_reach", counted)
    assert minimal_vertex_cutsets(g, 6) == ()
    assert 0 < calls < 2000


def hub_paths_with_apex():
    """A commutative table whose Γ is two hubs joined by 9 paths of 4
    edges, plus an apex b joined to every other vertex.

    Elements 1..29 are the graph's vertices, 0 the zero and 30 is b:
    xy = 0 on the edges and xy = b otherwise, while 0 and b annihilate
    everything, so every product of three elements is 0. The 3^9 ways
    to cut each path once at an inner vertex, with b, are minimal
    separators of 10 vertices, so a search that lists every minimal
    separator and keeps the small ones has 19,683 and more to list
    whatever the cap.
    """
    edges = []
    for p in range(9):
        inner = [2 + 3 * p + k for k in range(3)]
        chain = [0, *inner, 1]
        edges += zip(chain, chain[1:])
    adjacent = {frozenset((u + 1, v + 1)) for u, v in edges}
    rows = [[0] * 31 for _ in range(31)]
    for x in range(1, 30):
        for y in range(1, 30):
            rows[x][y] = 0 if frozenset((x, y)) in adjacent else 30
    return validate(CayleyTable.from_rows(rows))


# Graph._reach calls of a search over the vertex subsets within the cap
# on the graph above, as measured when the package had one: at cap 1 and
# at cap 4
SUBSET_SEARCH_REACH_CALLS = {1: 31, 4: 33_324}


@pytest.mark.parametrize("cap", [1, 4])
def test_vertex_cutsets_of_many_separators_cost_no_more_than_subsets(monkeypatch, cap):
    # the search never passes through the separators above the cap, and
    # it runs a BFS only where a component's neighbourhood is settled,
    # so it stays far under what the subset search did; the time bounds
    # below measure the rest of its work
    g = gamma(hub_paths_with_apex())
    assert (g.n, g.edge_count) == (30, 65)
    want = brute_minimal_vertex_cutsets(g, cap)
    assert len(want) == {1: 0, 4: 46}[cap]
    calls = 0
    reach = Graph._reach

    def counted(self, *args):
        nonlocal calls
        calls += 1
        return reach(self, *args)

    monkeypatch.setattr(Graph, "_reach", counted)
    assert minimal_vertex_cutsets(g, cap) == want
    assert calls <= SUBSET_SEARCH_REACH_CALLS[cap] * 9 // 8 + g.n


def connected_random_graph(seed, n, m):
    """The first connected graph of n vertices and m edges drawn from a
    random.Random(seed)."""
    rng = random.Random(seed)
    pairs = list(itertools.combinations(range(n), 2))
    while True:
        g = Graph(range(n), rng.sample(pairs, m))
        if g.is_connected():
            return g


# (graph, cap, cutsets within the cap). Each count was confirmed once
# against the earlier closure and subset searches, which took 2.6 s,
# 4 ms and 0.6 s on these; the random graph's 10 also against
# brute_minimal_vertex_cutsets, in about 2 s
TIMED_CUTSETS = {
    "hub-paths": (lambda: gamma(hub_paths_with_apex()), 6, 46),
    "powerset:5": (lambda: gamma(builtin_example("powerset:5")), 6, 5),
    "random-40": (lambda: connected_random_graph(2207, 40, 114), 4, 10),
}


@pytest.mark.parametrize("name", sorted(TIMED_CUTSETS))
def test_vertex_cutsets_within_a_second(name):
    # the counts of BFS calls above no longer bound the search's work,
    # so these bound its time on the graphs that were hardest for the
    # earlier searches
    build, cap, count = TIMED_CUTSETS[name]
    g = build()
    t0 = time.monotonic()
    found = minimal_vertex_cutsets(g, cap)
    elapsed = time.monotonic() - t0
    assert len(found) == count
    assert elapsed < 1.0


# confirmed once against brute_minimal_edge_cutsets and
# brute_minimal_vertex_cutsets patched into the checkers (about a minute)
POWERSET5_REPORT_SHA256 = (
    "a35fc428f4609def65fa628b38c89ab1616d483c35143e2c6a82fd1024e5537a"
)


def test_powerset5_cutset_counts_and_report(capsys):
    g = gamma(builtin_example("powerset:5"))
    assert (g.n, g.edge_count) == (30, 90)
    assert len(minimal_vertex_cutsets(g)) == 5
    assert len(minimal_edge_cutsets(g)) == 15
    assert main(["check", "powerset:5", "--format", "report"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == POWERSET5_REPORT_SHA256
