"""Structure checks: verdict mechanics and expected outcomes on fixtures."""

import functools
import itertools
import math
from dataclasses import replace

import pytest

from zdg import (
    CayleyTable,
    EnumerationOptions,
    Graph,
    Semigroup,
    builtin_example,
    check_ass_properties,
    check_bridge,
    check_chromatic,
    check_cut_structures,
    check_gamma_facts,
    check_median_center_ideals,
    check_nilpotent_subgraph,
    check_rpartite,
    enumerate_semigroups,
    failures,
    group_with_zero,
    matches_selector,
    null_semigroup,
    orthogonal_union,
    powerset_semigroup,
    run_all,
    theorems,
    validate,
)
from zdg.graph import DEFAULT_CUTSET_CAP
from oracles import (
    naive_all_parts_large_clause,
    naive_bridge_leaf_clause,
    naive_bridge_two_sided_clause,
    naive_center_clause,
    naive_clique5_clause,
    naive_colouring_clauses,
    naive_complete_bipartite_clause,
    naive_cut_vertex_clause,
    naive_edge_cutset_clause,
    naive_gamma_facts_clause,
    naive_girth_3_clause,
    naive_girth_4_clause,
    naive_maximal_annihilator_clause,
    naive_median_clause,
    naive_nilpotent_subgraph_clause,
    naive_pairwise_products_clause,
    naive_parts_ideals_primes_clause,
    naive_vertex_cutset_clause,
    naive_weakened_hypothesis_clause,
)


def flat(checks):
    """The clauses of a run_all dict, or a clause tuple as it is."""
    return [c for cs in checks.values() for c in cs] if isinstance(checks, dict) else checks


def clause(checks, theorem_id):
    for c in flat(checks):
        if c.theorem_id == theorem_id:
            return c
    raise AssertionError("no clause %s" % theorem_id)


def two_orthogonal_groups():
    return orthogonal_union([group_with_zero(3), group_with_zero(3)])


def non_reduced_bipartite():
    """Complete bipartite graph with both parts of size two, yet one
    nilpotent element: x^2 = 0, xw = x, w^2 = w in one wing, u, v
    idempotent in the other, all cross products 0."""
    rows = [
        [0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0],
        [0, 1, 2, 0, 0],
        [0, 0, 0, 3, 3],
        [0, 0, 0, 3, 4],
    ]
    return validate(CayleyTable.from_rows(rows, names=("0", "x", "w", "u", "v")))


# -- no fixture may fail any applicable clause -------------------------------------


def test_no_failures_on_any_builtin_or_builder():
    subjects = [
        builtin_example("ex3.4"),
        builtin_example("ex3.5"),
        builtin_example("ex3.8"),
        builtin_example("ex4.5"),
        powerset_semigroup(2),
        powerset_semigroup(3),
        null_semigroup(2),
        null_semigroup(5),
        group_with_zero(4),
        two_orthogonal_groups(),
        orthogonal_union([null_semigroup(3), group_with_zero(3)]),
        non_reduced_bipartite(),
    ]
    for s in subjects:
        assert failures(run_all(s)) == ()


# -- verdict mechanics ---------------------------------------------------------------


def test_vacuous_verdicts_never_fail():
    checks = run_all(group_with_zero(3))  # empty graph: almost nothing applies
    for c in flat(checks):
        if not c.applicable:
            assert c.holds and not c.failed


def test_selector_matching():
    assert matches_selector("thm-2.2-median", "2.2")
    assert matches_selector("thm-2.2-median", "all")
    assert matches_selector("thm-2.2-median", "thm-2.2-median")
    assert matches_selector("prop-2.9a-pairwise-products", "2.9")
    assert matches_selector("prop-2.9a-pairwise-products", "2.9a")
    assert not matches_selector("thm-2.2-median", "2.4")
    assert not matches_selector("fact-chi-ge-omega", "4.2")


# -- nilpotent subgraph ----------------------------------------------------------------


def test_nilpotent_subgraph_on_ex45():
    v = check_nilpotent_subgraph(builtin_example("ex4.5"))
    c = v[0]
    assert c.applicable and c.holds
    assert c.witness["nilpotents"] == [1, 2, 3, 4, 5, 6]
    assert c.witness["diameter"] <= 2


def test_nilpotent_subgraph_vacuous_when_reduced():
    v = check_nilpotent_subgraph(powerset_semigroup(3))
    assert not v[0].applicable


# -- median, center, cut structures ------------------------------------------------------


def test_median_and_center_of_ex34_form_ideals():
    vs = check_median_center_ideals(builtin_example("ex3.4"))
    med = clause(vs, "thm-2.2-median")
    cen = clause(vs, "thm-2.4-center")
    assert med.applicable and med.holds
    assert med.witness["median"] == [2, 3]
    assert cen.applicable and cen.holds
    assert cen.witness["center"] == [2, 3]


def test_cut_structures_of_ex34():
    vs = check_cut_structures(builtin_example("ex3.4"))
    cv = clause(vs, "cor-2.3-cut-vertices")
    assert cv.applicable and cv.holds
    assert [r["vertex"] for r in cv.witness["cut_vertices"]] == [2, 3]
    vc = clause(vs, "thm-2.2-minimal-vertex-cutsets")
    assert vc.applicable and vc.holds
    ec = clause(vs, "cor-2.6-minimal-edge-cutsets")
    assert ec.applicable and ec.holds
    # each minimal edge cutset separates along part boundaries: every
    # cutset is a single path edge here
    assert all(len(r["cutset"]) == 1 for r in ec.witness["cutsets"])


def test_edge_cutset_literal_side_ideals_can_fail_without_failing_the_clause():
    # K(2,2) between two groups-with-zero: removing two edges meeting one
    # side leaves sides whose endpoint sets are not ideals; the clause
    # verifies the provable containments instead and records the rest.
    v = check_cut_structures(two_orthogonal_groups())
    ec = clause(v, "cor-2.6-minimal-edge-cutsets")
    assert ec.applicable and ec.holds
    literal = [
        side.get("literal_side_ideal")
        for rec in ec.witness["cutsets"]
        for side in rec["sides"]
        if "literal_side_ideal" in side
    ]
    assert False in literal  # the classical per-side claim really fails here


# -- bridges ------------------------------------------------------------------------------


def test_bridge_two_sided_on_ex34():
    v = check_bridge(builtin_example("ex3.4"))
    two = clause(v, "thm-2.5-bridge-two-sided")
    assert two.applicable and two.holds
    assert two.witness["bridges"][0]["bridge"] == [2, 3]
    assert two.witness["bridges"][0]["Sx"] == [0, 2]
    assert two.witness["bridges"][0]["minimal_ideals"] == [True, True]


def test_bridge_leaf_clause_on_ex34():
    v = check_bridge(builtin_example("ex3.4"))
    leaf = clause(v, "thm-2.5-bridge-leaf")
    assert leaf.applicable and leaf.holds
    leaves = {r["leaf"] for r in leaf.witness["bridges"]}
    assert leaves == {1, 4}
    # {0, x, y} need not be an ideal at a leaf bridge: a*a = c escapes
    literals = [r["literal_triple_ideal"] for r in leaf.witness["bridges"]]
    assert False in literals


def test_bridge_on_two_vertex_graph_requires_triple_ideal():
    s = null_semigroup(3)  # gamma = K2
    v = check_bridge(s)
    leaf = clause(v, "thm-2.5-bridge-leaf")
    assert leaf.applicable and leaf.holds
    assert all(r["literal_triple_ideal"] for r in leaf.witness["bridges"])


# -- associated primes ---------------------------------------------------------------------


def test_ass_properties_on_powerset3():
    v = check_ass_properties(powerset_semigroup(3))
    lem = clause(v, "lem-2.8-maximal-annihilators")
    assert lem.applicable and lem.holds
    pairs = clause(v, "prop-2.9a-pairwise-products")
    assert pairs.applicable and pairs.holds and not pairs.witness["violations"]
    g3 = clause(v, "prop-2.9b-girth-3")
    assert g3.applicable and g3.holds
    assert len(pairs.witness["associated_primes"]) == 3


def test_clique5_clause_applies_to_powerset5():
    v = check_ass_properties(powerset_semigroup(5))
    c5 = clause(v, "prop-2.9c-clique-5")
    assert c5.applicable and c5.holds
    assert c5.witness["count"] == 5


@pytest.mark.parametrize("name", ["powerset:4", "ex3.4"])
def test_maximal_annihilators_reuse_the_associated_prime_tests(name, monkeypatch):
    expected = check_ass_properties(builtin_example(name))
    s = builtin_example(name)
    s.associated_primes()

    def refuse(self, members):
        raise AssertionError("prime test run again on %r" % sorted(members))

    monkeypatch.setattr(Semigroup, "_is_prime_ideal", refuse)
    assert check_ass_properties(s) == expected


# -- clause oracles ------------------------------------------------------------------------


def small_table_corpus():
    """Raw tables of orders 2-4 and the order-5 classes."""
    for order in (2, 3, 4):
        yield from enumerate_semigroups(EnumerationOptions(order))
    yield from enumerate_semigroups(EnumerationOptions(5, up_to_iso=True))


def clause_oracle_corpus():
    """small_table_corpus() and the builtins where prop-2.9c (the two
    unions) and thm-2.5's two-sided case (ex3.4) apply."""
    yield from small_table_corpus()
    for name in ("ortho:powerset2+powerset3", "ortho:powerset2+powerset2+powerset2", "ex3.4"):
        yield builtin_example(name)


RARE_CLAUSES = {
    "prop-2.9c-clique-5": naive_clique5_clause,
    "thm-2.5-bridge-two-sided": naive_bridge_two_sided_clause,
}


def test_rarely_applicable_clauses_match_their_row_oracles():
    applied = dict.fromkeys(RARE_CLAUSES, 0)
    for s in clause_oracle_corpus():
        checks = run_all(s)
        for theorem_id, oracle in RARE_CLAUSES.items():
            c = clause(checks, theorem_id)
            assert (c.applicable, c.holds) == oracle(s.table.entries), (theorem_id, s.table)
            applied[theorem_id] += c.applicable
    # each applies twice: the two unions, and ex3.4 with its order-5 class
    assert applied == dict.fromkeys(RARE_CLAUSES, 2)


# the clauses whose conclusion is an ideal test on a vertex set with 0
IDEAL_CLAUSES = {
    "cor-2.3-cut-vertices": naive_cut_vertex_clause,
    "thm-2.2-minimal-vertex-cutsets":
        functools.partial(naive_vertex_cutset_clause, size_cap=DEFAULT_CUTSET_CAP),
    "cor-2.6-minimal-edge-cutsets":
        functools.partial(naive_edge_cutset_clause, size_cap=DEFAULT_CUTSET_CAP),
    "thm-2.2-median": naive_median_clause,
    "thm-2.4-center": naive_center_clause,
}

# how often each applies over ideal_clause_corpus(); every one holds
IDEAL_CLAUSE_APPLIED = {
    "cor-2.3-cut-vertices": 146,
    "thm-2.2-minimal-vertex-cutsets": 192,
    "cor-2.6-minimal-edge-cutsets": 286,
    "thm-2.2-median": 322,
    "thm-2.4-center": 322,
}


def ideal_clause_corpus():
    """clause_oracle_corpus() and the builtins small enough for the
    brute-force cutset oracles."""
    yield from clause_oracle_corpus()
    for name in ("ex3.5", "ex3.8", "ex4.3", "ex4.5", "zg:6", "null:8", "powerset:4",
                 "ortho:zg3+zg3", "ortho:null3+null4", "ortho:powerset2+powerset2",
                 "ortho:null4+powerset3", "ortho:null4+null4+zg3"):
        yield builtin_example(name)


def test_ideal_clauses_match_their_row_oracles():
    applied = dict.fromkeys(IDEAL_CLAUSES, 0)
    for s in ideal_clause_corpus():
        checks = run_all(s)
        for theorem_id, oracle in IDEAL_CLAUSES.items():
            c = clause(checks, theorem_id)
            assert (c.applicable, c.holds) == oracle(s.table.entries), (theorem_id, s.table)
            applied[theorem_id] += c.applicable
    assert applied == IDEAL_CLAUSE_APPLIED


# the clauses whose decision no longer walks the loop that builds its
# witness, each against an oracle on the rows
STRUCTURE_CLAUSES = {
    "thm-2.5-bridge-leaf": naive_bridge_leaf_clause,
    "lem-2.8-maximal-annihilators": naive_maximal_annihilator_clause,
    "prop-2.9a-pairwise-products": naive_pairwise_products_clause,
    "thm-3.1-parts-ideals-primes": naive_parts_ideals_primes_clause,
    "rem-3.2a-weakened-hypothesis": naive_weakened_hypothesis_clause,
    "thm-3.6-reduced": naive_all_parts_large_clause,
}

# how often each applies over ideal_clause_corpus(); every one holds
STRUCTURE_CLAUSE_APPLIED = {
    "thm-2.5-bridge-leaf": 193,
    "lem-2.8-maximal-annihilators": 451,
    "prop-2.9a-pairwise-products": 187,
    "thm-3.1-parts-ideals-primes": 55,
    "rem-3.2a-weakened-hypothesis": 55,
    "thm-3.6-reduced": 11,
}


def test_structure_clauses_match_their_row_oracles():
    applied = dict.fromkeys(STRUCTURE_CLAUSES, 0)
    for s in ideal_clause_corpus():
        checks = run_all(s)
        for theorem_id, oracle in STRUCTURE_CLAUSES.items():
            c = clause(checks, theorem_id)
            assert (c.applicable, c.holds) == oracle(s.table.entries), (theorem_id, s.table)
            applied[theorem_id] += c.applicable
    assert applied == STRUCTURE_CLAUSE_APPLIED


# the clauses whose conclusion is a shape of Γ: a diameter, a girth or
# a partition
SHAPE_CLAUSES = {
    "prop-2.1-nilpotent-subgraph": naive_nilpotent_subgraph_clause,
    "prop-2.9b-girth-3": naive_girth_3_clause,
    "cor-3.3-girth-4": naive_girth_4_clause,
    "rem-3.2b-complete-bipartite": naive_complete_bipartite_clause,
    "dms-gamma-facts": naive_gamma_facts_clause,
}

# how often each applies over ideal_clause_corpus(); every one holds
SHAPE_CLAUSE_APPLIED = {
    "prop-2.1-nilpotent-subgraph": 261,
    "prop-2.9b-girth-3": 28,
    "cor-3.3-girth-4": 7,
    "rem-3.2b-complete-bipartite": 49,
    "dms-gamma-facts": 322,
}


def test_shape_clauses_match_their_row_oracles():
    applied = dict.fromkeys(SHAPE_CLAUSES, 0)
    for s in ideal_clause_corpus():
        checks = flat(run_all(s)) + list(check_gamma_facts(s))
        for theorem_id, oracle in SHAPE_CLAUSES.items():
            c = clause(checks, theorem_id)
            assert (c.applicable, c.holds) == oracle(s.table.entries), (theorem_id, s.table)
            applied[theorem_id] += c.applicable
    assert applied == SHAPE_CLAUSE_APPLIED


# every table satisfies the shape clauses, so only a false diameter,
# girth or partition handed to checker and oracle alike shows each
# conclusion evaluated. null:3 has Γ = K2, its two vertices nilpotent.
@pytest.mark.parametrize("diameter, nilpotent_holds, facts_hold", [
    (2, True, True), (3, False, True), (4, False, False),
])
def test_shape_conclusions_read_the_diameter(diameter, nilpotent_holds, facts_hold, monkeypatch):
    s = builtin_example("null:3")
    metrics = theorems.metrics
    monkeypatch.setattr(theorems, "metrics", lambda g: replace(metrics(g), diameter=diameter))
    rows = s.table.entries
    c = clause(check_nilpotent_subgraph(s), "prop-2.1-nilpotent-subgraph")
    assert (c.applicable, c.holds) == naive_nilpotent_subgraph_clause(rows, diameter) == (
        True, nilpotent_holds)
    (c,) = check_gamma_facts(s)
    assert (c.applicable, c.holds) == naive_gamma_facts_clause(rows, diameter=diameter) == (
        True, facts_hold)


# powerset:3 has three associated primes, the two orthogonal groups two
# of three elements each, meeting in 0
@pytest.mark.parametrize("girth", [3, 4, 5, math.inf])
def test_shape_conclusions_read_the_girth(girth, monkeypatch):
    monkeypatch.setattr(theorems, "girth", lambda g: girth)
    s = builtin_example("powerset:3")
    rows = s.table.entries
    c = clause(check_ass_properties(s), "prop-2.9b-girth-3")
    assert (c.applicable, c.holds) == naive_girth_3_clause(rows, girth) == (True, girth == 3)
    (c,) = check_gamma_facts(s)
    assert (c.applicable, c.holds) == naive_gamma_facts_clause(rows, girth=girth) == (
        True, girth in (3, 4, math.inf))
    s = two_orthogonal_groups()
    rows = s.table.entries
    c = clause(check_rpartite(s), "cor-3.3-girth-4")
    assert (c.applicable, c.holds) == naive_girth_4_clause(rows, girth) == (True, girth == 4)


@pytest.mark.parametrize("parts, holds", [
    ((frozenset({1, 2}), frozenset({3, 4})), True),
    ((frozenset({1, 2, 3, 4}),), False),
    ((frozenset({1}), frozenset({2}), frozenset({3, 4})), False),
    ((), False),  # Γ not complete multipartite
])
def test_complete_bipartite_conclusion_reads_the_partition(parts, holds, monkeypatch):
    # the two orthogonal groups are reduced with Γ = K2,2 on {1, 2} and
    # {3, 4}; the checker reads an empty partition as None
    s = two_orthogonal_groups()
    monkeypatch.setattr(theorems, "complete_multipartite_partition", lambda g: parts)
    c = clause(check_rpartite(s), "rem-3.2b-complete-bipartite")
    assert (c.applicable, c.holds) == naive_complete_bipartite_clause(
        s.table.entries, parts or None) == (True, holds)


def test_clique5_clause_reads_its_conclusion_from_gamma(monkeypatch):
    # no commutative table can fail prop-2.9c. Let Ann(x) and Ann(y) be
    # prime with xy != 0. A z in Ann(y) has zsy = 0 for every s, so
    # primeness puts z in Ann(x); the other way round too, so the two are
    # equal. Witnesses of distinct associated primes thus form a clique.
    # Only a graph without a 5-clique, given to checker and oracle alike,
    # shows the conclusion evaluated.
    s = builtin_example("ortho:powerset2+powerset3")
    k4 = Graph(range(1, 5), itertools.combinations(range(1, 5), 2))
    monkeypatch.setattr(theorems, "gamma", lambda _: k4)
    c = clause(check_ass_properties(s), "prop-2.9c-clique-5")
    assert (c.applicable, c.holds) == naive_clique5_clause(s.table.entries, k4) == (True, False)


def test_pairwise_products_conclusion_reads_the_realizers():
    # no commutative table can fail prop-2.9a either: by the argument
    # above, x and y realizing distinct associated primes have xy = 0.
    # Only false realizers, handed to checker and oracle alike, show the
    # conclusion evaluated. In powerset:3, {1}·{1,2} = {1} is nonzero
    s = builtin_example("powerset:3")
    realizers = ((1,), (3,))
    s._associated = ((1, s.annihilator(1)), (3, s.annihilator(3))), realizers
    c = clause(check_ass_properties(s), "prop-2.9a-pairwise-products")
    assert (c.applicable, c.holds) == naive_pairwise_products_clause(
        s.table.entries, realizers) == (True, False)
    assert c.witness["violations"] == [[1, 3]]


def test_maximal_annihilator_clause_is_vacuous_without_nonzero_elements():
    s = null_semigroup(1)
    c = clause(check_ass_properties(s), "lem-2.8-maximal-annihilators")
    assert (c.applicable, c.holds) == naive_maximal_annihilator_clause(s.table.entries) == (
        False, True)
    assert "no nonzero elements" in c.notes


# how often each applies over small_table_corpus(); every one holds
COLOURING_CLAUSE_APPLIED = {
    "fact-chi-ge-omega": 436,
    "thm-4.1-decomposition-exists": 183,
    "thm-4.1-coloring-bound": 183,
    "cor-4.2-chi-omega-count": 55,
    "thm-4.4-chi-omega-small": 337,
}


def colouring_outcomes(s) -> dict:
    """Each colouring clause of s mapped to its (applicable, holds)."""
    return {c.theorem_id: (c.applicable, c.holds) for c in check_chromatic(s)}


def test_colouring_clauses_match_their_row_oracle():
    # the builtins of clause_oracle_corpus() are left out: their Γ are
    # too large for the brute-force chromatic number
    applied = dict.fromkeys(COLOURING_CLAUSE_APPLIED, 0)
    for s in small_table_corpus():
        outcomes = colouring_outcomes(s)
        assert outcomes == naive_colouring_clauses(s.table.entries), s.table
        for theorem_id, (applicable, _) in outcomes.items():
            applied[theorem_id] += applicable
    assert applied == COLOURING_CLAUSE_APPLIED


# every table satisfies the colouring clauses, so only a false χ handed
# to checker and oracle alike shows each conclusion evaluated; on
# powerset:2, ω = k = 2, so χ = 1 breaks χ >= ω and χ = 3 breaks χ <= k
@pytest.mark.parametrize("chi, at_least_omega, at_most_k", [(1, False, True), (3, True, False)])
def test_colouring_conclusions_read_chi(chi, at_least_omega, at_most_k, monkeypatch):
    s = builtin_example("powerset:2")
    monkeypatch.setattr(theorems, "chromatic_number", lambda _: (chi, ()))
    assert colouring_outcomes(s) == naive_colouring_clauses(s.table.entries, chi) == {
        "fact-chi-ge-omega": (True, at_least_omega),
        "thm-4.1-decomposition-exists": (True, True),
        "thm-4.1-coloring-bound": (True, at_most_k),
        "cor-4.2-chi-omega-count": (True, False),
        "thm-4.4-chi-omega-small": (True, False),
    }


def test_colouring_clauses_read_the_decomposition(monkeypatch):
    # a reduced semigroup always decomposes zero and one that is not
    # never does, so only a decomposition handed to the checker shows
    # thm-4.1's conclusion evaluated and cor-4.2 asking for reduced
    monkeypatch.setattr(Semigroup, "zero_prime_decomposition", lambda self: None)
    assert colouring_outcomes(builtin_example("powerset:2")) == {
        "fact-chi-ge-omega": (True, True),
        "thm-4.1-decomposition-exists": (True, False),
        "thm-4.1-coloring-bound": (False, True),
        "cor-4.2-chi-omega-count": (False, True),
        "thm-4.4-chi-omega-small": (True, True),
    }
    primes = (frozenset({0, 1}), frozenset({0, 2}))
    monkeypatch.setattr(Semigroup, "zero_prime_decomposition", lambda self: primes)
    assert colouring_outcomes(builtin_example("null:3")) == {
        "fact-chi-ge-omega": (True, True),
        "thm-4.1-decomposition-exists": (False, True),
        "thm-4.1-coloring-bound": (True, True),
        "cor-4.2-chi-omega-count": (False, True),
        "thm-4.4-chi-omega-small": (True, True),
    }


# -- complete multipartite structure ----------------------------------------------------------


def test_rpartite_conclusions_on_two_orthogonal_groups():
    v = check_rpartite(two_orthogonal_groups())
    t31 = clause(v, "thm-3.1-parts-ideals-primes")
    assert t31.applicable and t31.holds
    assert all(r["part_ideal"] and r["complement_prime"]
               for r in t31.witness["parts"])
    b = clause(v, "rem-3.2b-complete-bipartite")
    assert b.applicable and b.holds
    g4 = clause(v, "cor-3.3-girth-4")
    assert g4.applicable and g4.holds and g4.witness["girth"] == 4
    t36 = clause(v, "thm-3.6-reduced")
    assert t36.applicable and t36.holds
    assert t36.witness["literal_reduced"] is True


def test_rpartite_not_applicable_on_non_reduced_star():
    # the intended counterexample: K(1,2) with a nilpotent vertex, so the
    # reduced hypothesis fails and the partition clauses stay vacuous
    v = check_rpartite(builtin_example("ex3.5"))
    t31 = clause(v, "thm-3.1-parts-ideals-primes")
    assert not t31.applicable
    assert t31.witness.get("reduced") is False
    a = clause(v, "rem-3.2a-weakened-hypothesis")
    assert not a.applicable  # z^2 = 0 breaks the weaker hypothesis too


def test_all_parts_large_clause_survives_non_reduced_witness():
    # both parts of size two, one nilpotent: the provable conclusions
    # hold while literal reducedness fails and is recorded as witness
    v = check_rpartite(non_reduced_bipartite())
    t36 = clause(v, "thm-3.6-reduced")
    assert t36.applicable and t36.holds
    assert t36.witness["literal_reduced"] is False
    assert t36.witness["nilpotents_per_part"] == [1, 0]


def test_obstruction_to_orthogonal_union_on_star_fixture():
    # the star semigroup's graph partition {a} vs {b, c} cannot come from
    # a 0-orthogonal union: b*c = a escapes {0, b, c}
    s = builtin_example("ex3.8")
    assert s.product(2, 3) == 1
    assert not s.is_ideal({0, 2, 3})


# -- chromatic ----------------------------------------------------------------------------------


def test_chromatic_clauses_on_powerset3():
    v = check_chromatic(powerset_semigroup(3))
    assert clause(v, "thm-4.1-decomposition-exists").holds
    bound = clause(v, "thm-4.1-coloring-bound")
    assert bound.applicable and bound.holds
    count = clause(v, "cor-4.2-chi-omega-count")
    assert count.applicable and count.holds
    assert count.witness == {"chi": 3, "omega": 3, "prime_count": 3}


def test_chromatic_single_prime_decomposition_is_excluded():
    # the whole semigroup is the only prime here; chi = omega = 0 would
    # contradict a literal count clause, so it must stay vacuous
    v = check_chromatic(group_with_zero(3))
    count = clause(v, "cor-4.2-chi-omega-count")
    assert not count.applicable
    assert clause(v, "fact-chi-ge-omega").holds


def test_chromatic_gap_fixture_keeps_small_value_equivalence():
    v = check_chromatic(builtin_example("ex4.5"))
    small = clause(v, "thm-4.4-chi-omega-small")
    assert not small.applicable  # chi = 4 and omega = 3 are both above 2
    assert clause(v, "fact-chi-ge-omega").witness == {"chi": 4, "omega": 3}
    assert clause(v, "thm-4.1-coloring-bound").witness == {"chi": 4, "prime_count": None}


def test_run_all_order_is_stable():
    ids = list(run_all(builtin_example("ex3.4")))
    assert ids == [
        "nilpotent-subgraph",
        "median-center",
        "cut-structures",
        "bridges",
        "associated-primes",
        "rpartite",
        "chromatic",
    ]


def test_cutset_cap_is_honored():
    s = two_orthogonal_groups()
    capped = check_cut_structures(s, size_cap=1)
    ec = clause(capped, "cor-2.6-minimal-edge-cutsets")
    assert not ec.applicable  # the smallest edge cutset has two edges


def test_cutset_cap_below_one_is_rejected():
    # the cut vertices are the one-vertex cutsets, so cap 0 would hide them
    with pytest.raises(ValueError):
        check_cut_structures(builtin_example("ex3.4"), size_cap=0)
