"""Acceptance gate: ten end-to-end criteria with runtime budgets.

Each test covers one numbered criterion and finishes by printing a
single PASS line (visible with pytest -s; pytest -v shows the same
pass/fail status per test either way). Budgets are asserted with a
monotonic clock around the complete piece of work.
"""

import math
import random
import time

from zdg import (
    EnumerationOptions,
    audit,
    builtin_example,
    center,
    chromatic_number,
    clique_number,
    enumerate_semigroups,
    gamma,
    girth,
    group_with_zero,
    has_clique_of_size,
    matches_selector,
    median,
    metrics,
    orthogonal_union,
    powerset_semigroup,
    run_all,
    validate,
)
from zdg.graph import components_without_edges
from children import run_python
from oracles import (
    brute_chromatic_number,
    brute_clique_number,
    brute_girth,
    naive_components,
    naive_distances,
    naive_is_bipartite,
    naive_zero_tables,
    random_graph,
)

INF = math.inf


def test_01_wheel_fixture_reproduction():
    t0 = time.monotonic()
    s = builtin_example("ex4.5")
    validate(s.table)
    g = gamma(s)
    assert g.n == 6
    assert g.edge_count == 10
    assert chromatic_number(g)[0] == 4
    assert clique_number(g)[0] == 3
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print("ACCEPTANCE 01 PASS: ex4.5 has 6 vertices, 10 edges, chi=4, "
          "omega=3 in %.3fs" % elapsed)


def test_02_path_fixture_and_its_checkers():
    t0 = time.monotonic()
    s = builtin_example("ex3.4")
    g = gamma(s)
    assert g.edges() == ((1, 2), (2, 3), (3, 4))  # the path a-b-c-d
    assert [g.label_of(v) for v in g.vertices] == ["a", "b", "c", "d"]
    assert not s.is_ideal({0, 1, 3})  # {0, a, c}
    clauses = [c for cs in run_all(s).values() for c in cs]
    for selector in ("2.2", "2.5", "2.3"):
        matched = [c for c in clauses if matches_selector(c.theorem_id, selector)]
        assert matched
        assert any(c.applicable for c in matched)
        assert all(c.holds for c in matched)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print("ACCEPTANCE 02 PASS: ex3.4 path graph, {0,a,c} not an ideal, "
          "median/cutset/bridge/cut-vertex checks hold in %.3fs" % elapsed)


def test_03_star_fixture_ideal_but_not_prime():
    s = builtin_example("ex3.5")
    assert s.is_ideal({0, 1, 2})          # {0, x, y}
    assert not s.is_prime_ideal({0, 1, 2})
    print("ACCEPTANCE 03 PASS: ex3.5 {0,x,y} is an ideal and not prime")


def test_04_powerset_chromatic_equals_prime_count():
    timings = {}
    for n in (2, 3, 4):
        t0 = time.monotonic()
        s = powerset_semigroup(n)
        g = gamma(s)
        assert chromatic_number(g)[0] == n
        assert clique_number(g)[0] == n
        dec = s.zero_prime_decomposition()
        assert dec is not None and len(dec) == n
        for x in range(n):
            complement_of_x = frozenset(
                m for m in range(1 << n) if not m & (1 << x)
            )
            assert s.is_prime_ideal(complement_of_x)
        timings[n] = time.monotonic() - t0
    assert timings[4] < 5.0
    print("ACCEPTANCE 04 PASS: powerset n=2,3,4 give chi=omega=n with n "
          "primes; n=4 took %.3fs" % timings[4])


def test_05_associated_prime_forcing():
    s3 = powerset_semigroup(3)
    assert girth(gamma(s3)) == 3
    assert len(s3.associated_primes()) == 3
    s5 = powerset_semigroup(5)  # order 32: graph work only
    assert has_clique_of_size(gamma(s5), 5)
    print("ACCEPTANCE 05 PASS: powerset:3 girth 3 with 3 associated "
          "primes; powerset:5 contains a 5-clique")


def test_06_two_group_union_is_k22_of_girth_4():
    parts = [group_with_zero(3), group_with_zero(3)]
    for p in parts:
        assert p.nonzero_zero_divisors() == set()
    s = orthogonal_union(parts)
    g = gamma(s)
    assert g.n == 4 and g.edge_count == 4
    assert set(g.edges()) == {(1, 3), (1, 4), (2, 3), (2, 4)}
    assert girth(g) == 4
    print("ACCEPTANCE 06 PASS: union of two zero-divisor-free order-3 "
          "parts gives K(2,2) with girth 4")


def _check_distances_against_oracle(g):
    d = naive_distances(g)
    comps = naive_components(g)
    m = metrics(g)
    assert m.dist == tuple(map(tuple, d))
    assert g.components() == tuple(
        frozenset(g.vertices[i] for i in c) for c in comps
    )
    assert g.is_connected() == (len(comps) <= 1)
    if not g.is_connected():
        assert m.radius == m.diameter == INF
        assert set(m.ecc) <= {INF}
        return
    ecc = [max(row) for row in d]
    assert list(m.ecc) == ecc
    assert (m.radius, m.diameter) == (min(ecc, default=0), max(ecc, default=0))
    sums = [sum(row) for row in d]
    assert center(g) == {v for v, e in zip(g.vertices, ecc) if e == m.radius}
    assert median(g) == {
        v for v, t in zip(g.vertices, sums) if t == min(sums)
    }


def test_07_oracle_equivalence_for_graph_invariants():
    rng = random.Random(20260819)
    graphs = [random_graph(rng, max_n=8) for _ in range(200)]
    for n in (2, 3, 4):
        graphs.extend(
            gamma(s) for s in enumerate_semigroups(EnumerationOptions(order=n))
        )
    pick = random.Random(7)
    for g in graphs:
        assert chromatic_number(g)[0] == brute_chromatic_number(g)
        assert clique_number(g)[0] == brute_clique_number(g)
        assert girth(g) == brute_girth(g)
        assert g.is_bipartite() == naive_is_bipartite(g)
        _check_distances_against_oracle(g)
        edges = g.edges()
        removals = [[e] for e in edges] + [
            pick.sample(edges, pick.randint(0, len(edges))) for _ in range(2)
        ]
        for removed in removals:
            assert components_without_edges(g, removed) == naive_components(g, removed)
    print("ACCEPTANCE 07 PASS: chi, omega, girth, distances, components and "
          "2-colourability match brute force on %d graphs" % len(graphs))


def test_08_corpus_audit_is_clean_through_order_five():
    t0 = time.monotonic()
    totals = {}
    for n in (2, 3, 4, 5):
        rep = audit(EnumerationOptions(order=n, up_to_iso=True))
        assert rep.counterexamples == ()
        facts = rep.tallies["dms-gamma-facts"]
        assert facts.failed == 0 and facts.applicable == facts.held
        totals[n] = rep.total
    # belt and braces: re-verify the background facts instance by instance
    for n in (2, 3, 4, 5):
        for s in enumerate_semigroups(EnumerationOptions(order=n, up_to_iso=True)):
            g = gamma(s)
            if g.n == 0:
                continue
            m = metrics(g)
            assert g.is_connected() and m.diameter <= 3
            assert girth(g) in (3, 4) or girth(g) == float("inf")
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    print("ACCEPTANCE 08 PASS: audits of %s semigroups (orders 2-5, up to "
          "iso) report zero failing clauses in %.1fs" %
          (sum(totals.values()), elapsed))


def test_09_enumeration_counts_match_naive_oracle():
    for n in (2, 3, 4):
        ours = [s.table.entries for s in enumerate_semigroups(EnumerationOptions(order=n))]
        oracle = sorted(naive_zero_tables(n))
        assert sorted(ours) == oracle
    print("ACCEPTANCE 09 PASS: raw enumeration equals the naive filter "
          "oracle for orders 2-4")


def test_10_command_output_is_deterministic():
    commands = [
        ("example", "ex4.5"),
        ("invariants", "ex4.5"),
        ("invariants", "powerset:3", "--format", "report"),
        ("check", "ex3.4", "--theorem", "all"),
        ("check", "ortho:zg3+zg3", "--format", "report"),
        ("graph", "ex4.5", "--format", "dot"),
        ("enumerate", "--order", "4", "--up-to-iso"),
        ("search", "--order", "4", "--predicate", "girth:3"),
    ]
    for argv in commands:
        runs = [run_python("-m", "zdg", *argv) for _ in range(2)]
        assert runs[0].returncode == runs[1].returncode == 0
        assert runs[0].stdout == runs[1].stdout
    print("ACCEPTANCE 10 PASS: %d commands byte-identical across "
          "consecutive runs" % len(commands))
