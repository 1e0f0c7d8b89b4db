"""Derived data is computed once per object and shared, never mutated."""

import dataclasses

import pytest

import zdg.semigroup
from zdg import (
    CayleyTable,
    builtin_example,
    clique_number,
    gamma,
    gamma_bar,
    metrics,
    report,
    run_all,
    validate,
)


def test_gamma_and_its_invariants_are_computed_once():
    s = builtin_example("ex4.5")
    g = gamma(s)
    assert gamma(s) is g
    assert gamma_bar(s) is gamma_bar(s)
    assert metrics(g) is metrics(g)
    assert clique_number(g) is clique_number(g)
    assert s.associated_primes() is s.associated_primes()
    assert s.maximal_annihilators() is s.maximal_annihilators()


def test_run_all_builds_gamma_once(monkeypatch):
    built = []
    real = zdg.semigroup.Graph

    def counting_graph(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(zdg.semigroup, "Graph", counting_graph)
    # the path a-b-c-d: nilpotents, cut vertices, cutsets and bridges
    # send every checker to the graph
    s = builtin_example("ex3.4")
    assert built == []
    run_all(s)
    run_all(s)
    report.invariants_block(s)
    assert len(built) == 1


def test_cached_values_are_immutable():
    s = builtin_example("ex3.4")
    g = gamma(s)
    m = metrics(g)
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.radius = 0
    tuples = (
        m.dist, m.ecc, m.distance_sum, clique_number(g),
        clique_number(g)[1], g.components(), s.associated_primes(),
        s.maximal_annihilators(),
    )
    assert all(isinstance(t, tuple) for t in tuples)
    assert all(isinstance(row, tuple) for row in m.dist)
    assert all(isinstance(c, frozenset) for c in g.components())
    for _, prime in s.associated_primes() + s.maximal_annihilators():
        assert isinstance(prime, frozenset)


def test_equal_tables_with_other_names_keep_their_own_labels():
    rows = builtin_example("ex3.5").table.entries
    a = validate(CayleyTable.from_rows(rows, names=["0", "x", "y", "z"]))
    b = validate(CayleyTable.from_rows(rows, names=["0", "p", "q", "r"]))
    assert a == b
    assert gamma(a).labels == ("x", "y", "z")
    assert gamma(b).labels == ("p", "q", "r")
    assert gamma_bar(a).labels == ("x", "y", "z")
    assert gamma_bar(b).labels == ("p", "q", "r")
