"""Derived data is computed once per object and shared, never mutated."""

import dataclasses
import pickle

import pytest

import zdg.semigroup
from zdg import (
    CayleyTable,
    EnumerationOptions,
    Semigroup,
    audit,
    bonds,
    builtin_example,
    center,
    chromatic_number,
    clique_number,
    complete_multipartite_partition,
    enumerate_semigroups,
    gamma,
    gamma_bar,
    median,
    metrics,
    minimal_vertex_cutsets,
    report,
    run_all,
    search,
    theorems,
    validate,
)
from zdg.cli import main


def test_gamma_and_its_invariants_are_computed_once():
    s = builtin_example("ex4.5")
    g = gamma(s)
    assert gamma(s) is g
    assert gamma_bar(s) is gamma_bar(s)
    assert metrics(g) is metrics(g)
    assert clique_number(g) is clique_number(g)
    assert s.associated_primes() is s.associated_primes()
    assert s.maximal_annihilators() is s.maximal_annihilators()


def _count_graphs(monkeypatch) -> list:
    built = []
    real = zdg.semigroup.Graph

    def counting_graph(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(zdg.semigroup, "Graph", counting_graph)
    return built


def test_run_all_builds_gamma_once(monkeypatch):
    built = _count_graphs(monkeypatch)
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


def test_audit_builds_one_graph_per_labelled_gamma(monkeypatch):
    built = _count_graphs(monkeypatch)
    rep = audit(EnumerationOptions(4))
    assert rep.total == 194
    # a raw audit runs the 39 classes; the arguments are the labelled
    # graph, and their Γ and Γ̄ are six distinct ones
    assert len(built) == len(set(built)) == 6


def test_a_second_audit_starts_its_own_pool(monkeypatch):
    built = _count_graphs(monkeypatch)
    audit(EnumerationOptions(4))
    audit(EnumerationOptions(4))
    assert len(built) == 12


def test_one_enumeration_hands_equal_labelled_gammas_one_graph():
    by_key = {}
    for s in enumerate_semigroups(EnumerationOptions(4)):
        g = gamma(s)
        by_key.setdefault((g.vertices, g.edges(), g.labels), []).append(g)
    for graphs in by_key.values():
        assert all(g is graphs[0] for g in graphs)
    assert max(len(graphs) for graphs in by_key.values()) > 1


def test_two_enumerations_share_no_graph():
    opts = EnumerationOptions(4)
    first = {id(gamma(s)): gamma(s) for s in enumerate_semigroups(opts)}
    second = {id(gamma(s)): gamma(s) for s in enumerate_semigroups(opts)}
    assert len(first) == len(second)
    assert first.keys().isdisjoint(second)


def test_a_search_builds_gamma_only_for_a_predicate_that_reads_it(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("reduced reads no graph")

    monkeypatch.setattr(zdg.semigroup, "Graph", refuse)
    assert sum(1 for _ in search(EnumerationOptions(5), "reduced")) == 1709
    monkeypatch.undo()
    built = _count_graphs(monkeypatch)
    assert list(search(EnumerationOptions(4), "has-bridge"))
    # one graph per distinct labelled Γ of the 194 raw tables
    assert len(built) == len(set(built)) == 11


def test_graph_answers_are_computed_once_per_argument():
    g = gamma(builtin_example("ex4.5"))
    for answer in (chromatic_number, complete_multipartite_partition, median, center):
        assert answer(g) is answer(g)
    for answer in (bonds, minimal_vertex_cutsets):
        assert answer(g, 4) is answer(g, 4)
        assert answer(g, 1) is answer(g, 1)
        assert answer(g, 1) != answer(g, 4)
    sub = g.induced([1, 2, 3])
    assert g.induced([3, 2, 1]) is sub
    assert g.induced([1, 2]) is not sub


def _frozen(value) -> bool:
    if isinstance(value, (tuple, frozenset)):
        return all(_frozen(v) for v in value)
    return value is None or isinstance(value, (int, float, str))


@pytest.mark.parametrize("name", ["ex4.5", "ortho:zg3+zg3", "ex3.4"])
def test_shared_graph_answers_are_frozen_all_the_way_down(name):
    # a graph and its answers are shared by every semigroup with that Γ,
    # so no answer may be a container one caller could change
    g = gamma(builtin_example(name))
    answers = [
        chromatic_number(g), complete_multipartite_partition(g), median(g),
        center(g), bonds(g, 1), bonds(g, 4), minimal_vertex_cutsets(g, 1),
        minimal_vertex_cutsets(g, 4),
    ]
    assert all(_frozen(a) for a in answers)


def _count_witness_builds(monkeypatch) -> list:
    """Wrap every witness builder the checkers hand to theorems._v; the
    list gets the clause id each time one runs."""
    built = []
    real = theorems._v

    def counting_v(theorem_id, applicable, holds, witness=dict, notes=""):
        def build():
            built.append(theorem_id)
            return witness()

        return real(theorem_id, applicable, holds, build, notes)

    monkeypatch.setattr(theorems, "_v", counting_v)
    return built


def test_an_audit_decides_every_clause_without_building_a_witness(monkeypatch):
    built = _count_witness_builds(monkeypatch)

    def refuse(*args, **kwargs):
        raise AssertionError("a decision listed or sorted what only a witness reads")

    monkeypatch.setattr(theorems, "_listed", refuse)
    monkeypatch.setattr(theorems, "sorted", refuse, raising=False)
    monkeypatch.setattr(Semigroup, "minimal_ideals", refuse)
    rep = audit(EnumerationOptions(4))
    assert (rep.total, rep.clean) == (194, True)
    assert built == []


def test_check_builds_the_witnesses_it_prints_and_no_other(monkeypatch, capsys):
    built = _count_witness_builds(monkeypatch)
    assert main(["check", "ex3.4", "--theorem", "chromatic", "--format", "report"]) == 0
    assert '"witness"' in capsys.readouterr().out
    assert built == [
        "fact-chi-ge-omega", "thm-4.1-decomposition-exists", "thm-4.1-coloring-bound",
        "cor-4.2-chi-omega-count", "thm-4.4-chi-omega-small",
    ]


def test_audit_counterexamples_keep_plain_witnesses(monkeypatch):
    # a checker that fails every applicable clause it has, keeping the
    # real witness builders, which hold the semigroup and its graph
    real = theorems.check_median_center_ideals

    def failing(s):
        return tuple(
            theorems._v(c.theorem_id, c.applicable, False, lambda c=c: c.witness, c.notes)
            for c in real(s)
        )

    monkeypatch.setattr(theorems, "check_median_center_ideals", failing)
    rep = audit(EnumerationOptions(3))
    # one counterexample per failing class and clause, standing for its
    # orbit of raw tables
    failed = rep.tallies["thm-2.2-median"].failed
    assert sum(weight for _, _, weight in rep.counterexamples) == 2 * failed > 0
    assert len(rep.counterexamples) < 2 * failed
    # a builder left in the report could not be pickled
    copy = pickle.loads(pickle.dumps(rep))
    assert copy == rep
    lazy = report.render(report.audit_block(copy))
    assert lazy.count('"orbit_size"') == len(rep.counterexamples)
    iso = audit(EnumerationOptions(3, up_to_iso=True))
    assert iso.counterexamples and '"orbit_size"' not in report.render(report.audit_block(iso))

    build_now = theorems._v
    monkeypatch.setattr(
        theorems, "_v",
        lambda tid, applicable, holds, witness=dict, notes="":
            build_now(tid, applicable, holds, witness(), notes),
    )
    assert report.render(report.audit_block(audit(EnumerationOptions(3)))) == lazy
