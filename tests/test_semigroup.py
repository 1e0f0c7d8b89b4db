"""Semigroup validation, ideals, annihilators and builders."""

import itertools
import random

import pytest

from zdg import (
    CayleyTable,
    EmptyPartListError,
    EmptySetError,
    EnumerationOptions,
    MalformedTableError,
    Semigroup,
    ValidationError,
    builtin_example,
    enumerate_semigroups,
    group_with_zero,
    null_semigroup,
    orthogonal_union,
    powerset_semigroup,
    sgt,
    validate,
)
from oracles import (
    brute_prime_ideals,
    brute_smallest_decomposition,
    naive_associated_primes,
    naive_is_ideal,
    naive_is_prime_ideal,
    naive_maximal_annihilators,
    naive_minimal_ideals,
    naive_violations,
    subsets_with_zero,
)


# -- validation ----------------------------------------------------------------


def test_null_semigroup_table_is_valid():
    s = validate(CayleyTable.from_rows([[0, 0], [0, 0]]))
    assert s.n == 2


def test_ex34_table_is_valid():
    s = builtin_example("ex3.4")
    assert s.n == 5
    assert validate(s.table).table == s.table


def test_zero_not_absorbing_is_reported():
    t = CayleyTable.from_rows([[0, 1], [1, 1]])
    with pytest.raises(ValidationError) as info:
        validate(t)
    kinds = {kind for kind, _, _ in info.value.violations}
    assert "zero-not-absorbing" in kinds


def test_non_commutative_is_reported():
    t = CayleyTable.from_rows([[0, 0, 0], [0, 0, 1], [0, 2, 0]])
    with pytest.raises(ValidationError) as info:
        validate(t)
    kinds = {kind for kind, _, _ in info.value.violations}
    assert "not-commutative" in kinds


def test_non_associative_is_reported_with_triple():
    t = CayleyTable.from_rows([[0, 0, 0], [0, 2, 0], [0, 0, 1]])
    with pytest.raises(ValidationError) as info:
        validate(t)
    triples = [args for kind, args, _ in info.value.violations
               if kind == "not-associative"]
    assert (1, 1, 2) in triples


def test_violation_report_is_capped():
    n = 6
    rows = [[0] * n] + [[0] + [1] * (n - 1) for _ in range(n - 1)]
    rows[1][1] = 2  # breaks associativity in many triples
    with pytest.raises(ValidationError) as info:
        validate(CayleyTable.from_rows(rows), max_violations=5)
    assert len(info.value.violations) == 5
    assert info.value.truncated


@pytest.mark.parametrize("max_violations", [0, -3])
def test_violation_cap_below_one_is_refused(max_violations):
    # a cap with no room records no violation, so an invalid table would
    # pass as a semigroup; the cap is refused before any check, on a
    # valid table as on an invalid one
    for rows in ([[0, 1], [1, 1]], [[0, 0], [0, 0]]):
        with pytest.raises(ValueError, match="max_violations"):
            validate(CayleyTable.from_rows(rows), max_violations=max_violations)


# valid tables of every order from 1 to 8, the seeds of the corrupted ones
VALIDATION_BASES = (
    "null:1", "null:2", "zg:3", "ex3.5", "ex3.8", "powerset:2", "ex3.4",
    "ortho:zg3+zg3", "ortho:null3+null4", "ex4.5", "null:8", "zg:8",
    "powerset:3",
)


def corrupted_tables(rng, count):
    """The order-1 table, whose rows are single entries that the
    whole-row associativity comparison sees as bare values; then tables
    with a few entries changed, some in symmetric pairs so that only
    associativity breaks, plus some with every entry random; half of
    them keep their names."""
    bases = [builtin_example(eid).table for eid in VALIDATION_BASES]
    assert sorted({t.order for t in bases}) == list(range(1, 9))
    yield CayleyTable.from_rows([[0]])
    for _ in range(count):
        base = rng.choice(bases)
        n = base.order
        if rng.random() < 0.1:
            rows = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
        else:
            rows = [list(r) for r in base.entries]
            for _ in range(rng.randint(0, 4)):
                i, j, v = rng.randrange(n), rng.randrange(n), rng.randrange(n)
                rows[i][j] = v
                if rng.random() < 0.5:
                    rows[j][i] = v
        yield CayleyTable.from_rows(rows, names=base.names if rng.random() < 0.5 else None)


@pytest.mark.parametrize("max_violations", [1, 5, 20, 10_000])
def test_violations_match_naive_triple_loop(max_violations):
    invalid = 0
    for table in corrupted_tables(random.Random(1729), 400):
        want, truncated = naive_violations(table.entries, table.names, max_violations)
        if not want:
            assert validate(table, max_violations).table == table
            continue
        invalid += 1
        with pytest.raises(ValidationError) as info:
            validate(table, max_violations)
        assert list(info.value.violations) == want
        assert info.value.truncated == truncated
    assert invalid > 200


def test_malformed_rejects_out_of_range_entries():
    with pytest.raises(MalformedTableError):
        validate(CayleyTable.from_rows([[0, 0], [0, 9]]))


def test_malformed_rejects_ragged_table():
    with pytest.raises(MalformedTableError):
        validate(CayleyTable.from_rows([[0, 0], [0]]))


# -- zero divisors, nilpotents, reducedness --------------------------------------


def test_ex45_zero_divisors_include_square_zero_elements():
    s = builtin_example("ex4.5")
    # every nonzero element squares to 0, so all six are zero divisors
    assert s.nonzero_zero_divisors() == set(range(1, 7))
    assert not s.is_reduced()


def test_group_with_zero_has_no_nonzero_zero_divisors():
    s = group_with_zero(3)
    assert s.nonzero_zero_divisors() == set()
    assert s.is_reduced()


def test_nilpotents_of_ex35():
    s = builtin_example("ex3.5")  # z^2 = 0, x and y idempotent
    assert s.nilpotents() == {0, 3}


def test_zero_divisor_set_is_an_ideal_small_corpus():
    # Z(S) is an ideal and its complement with 0 is a subsemigroup
    for s in enumerate_semigroups(EnumerationOptions(order=4, up_to_iso=True)):
        z = s.zero_divisors()
        assert s.is_ideal(z)
        rest = (set(s.elements) - z) | {0}
        for x in rest:
            for y in rest:
                assert s.product(x, y) in rest


# -- ideals and prime ideals -----------------------------------------------------


def test_ex34_0ac_is_not_an_ideal():
    s = builtin_example("ex3.4")  # a=1, c=3; a*a = c but a*d = b escapes
    assert not s.is_ideal({0, 1, 3})


def test_ex35_0xy_is_ideal_but_not_prime():
    s = builtin_example("ex3.5")  # x=1, y=2
    assert s.is_ideal({0, 1, 2})
    assert not s.is_prime_ideal({0, 1, 2})


def test_whole_semigroup_is_vacuously_prime():
    s = null_semigroup(3)
    assert s.is_prime_ideal(set(s.elements))


def test_empty_set_is_rejected():
    s = null_semigroup(3)
    with pytest.raises(EmptySetError):
        s.is_ideal(set())


def test_nonideal_is_never_prime():
    s = builtin_example("ex3.4")
    assert not s.is_prime_ideal({0, 1, 3})  # not even an ideal


def test_principal_ideal_of_ex34():
    s = builtin_example("ex3.4")
    assert s.principal_ideal(2) == {0, 2}      # Sb + b
    assert s.principal_ideal(1) == {0, 1, 2, 3}  # Sa + a


def test_minimal_ideals_of_ex34():
    s = builtin_example("ex3.4")
    assert set(s.minimal_ideals()) == {
        frozenset({0, 2}),
        frozenset({0, 3}),
    }


# -- annihilators and associated primes ------------------------------------------


def test_annihilator_contains_zero_and_may_contain_x():
    s = builtin_example("ex4.5")
    for x in range(1, s.n):
        ann = s.annihilator(x)
        assert 0 in ann
    assert 1 in s.annihilator(1)  # a^2 = 0


def test_powerset3_associated_primes_are_the_three_point_complements():
    s = powerset_semigroup(3)
    primes = {p for _, p in s.associated_primes()}
    expected = {
        frozenset(m for m in range(8) if not m & (1 << x)) for x in range(3)
    }
    assert primes == expected
    for p in primes:
        assert s.is_prime_ideal(p)


def test_null_semigroup_has_single_associated_prime_s_itself():
    s = null_semigroup(4)
    primes = [p for _, p in s.associated_primes()]
    assert primes == [frozenset(s.elements)]


def test_group_with_zero_associated_primes():
    s = group_with_zero(3)
    # Ann(x) = {0} for x != 0, and {0} is prime here
    primes = [p for _, p in s.associated_primes()]
    assert primes == [frozenset({0})]


def test_maximal_annihilators_are_prime_on_fixtures():
    for ex in ("ex3.4", "ex3.5", "ex3.8", "ex4.5"):
        s = builtin_example(ex)
        for _, ann in s.maximal_annihilators():
            assert s.is_prime_ideal(ann)


def test_ass_of_ex34():
    s = builtin_example("ex3.4")
    primes = {p for _, p in s.associated_primes()}
    assert primes == {frozenset({0, 1, 2, 3}), frozenset({0, 2, 4})}


# -- the ideal layer against the naive definitions ----------------------------------


def iso_corpus():
    """Every semigroup of order 2 to 5, up to isomorphism (275 in all)."""
    for order in range(2, 6):
        yield from enumerate_semigroups(EnumerationOptions(order, up_to_iso=True))


def test_ideal_predicates_match_naive_definitions():
    count = 0
    for s in iso_corpus():
        count += 1
        rows = s.table.entries
        for t in subsets_with_zero(s.n):
            assert s.is_ideal(t) == naive_is_ideal(rows, t)
            assert s.is_prime_ideal(t) == naive_is_prime_ideal(rows, t)
    assert count == 275


def _shapes(t):
    """t in each shape the checkers hand to the unchecked ideal tests: a
    list and a tuple repeating a member (0 wherever t holds it, as in
    the checkers), a set and a frozenset."""
    first = min(t)
    return [sorted(t) + [first], (first, *t), set(t), frozenset(t)]


def test_unchecked_ideal_tests_match_naive_definitions_on_every_shape():
    for s in iso_corpus():
        rows = s.table.entries
        for t in subsets_with_zero(s.n):
            ideal, prime = naive_is_ideal(rows, t), naive_is_prime_ideal(rows, t)
            for members in _shapes(t):
                assert s._is_ideal(members) == ideal, (rows, members)
                assert s._is_prime_ideal(members) == prime, (rows, members)


def test_unchecked_ideal_tests_on_masks_wider_than_31_bits():
    # powerset:5 has 32 elements, so the row of the full set has bit 31
    s = powerset_semigroup(5)
    rows = s.table.entries
    assert s._row_masks[31] == (1 << 32) - 1
    counts = [0, 0]
    for k in range(1, 4):
        for combo in itertools.combinations(range(32), k):
            t = frozenset(combo)
            ideal, prime = naive_is_ideal(rows, t), naive_is_prime_ideal(rows, t)
            counts[0] += ideal
            counts[1] += prime
            for members in _shapes(t):
                assert s._is_ideal(members) == ideal, members
                assert s._is_prime_ideal(members) == prime, members
    # an ideal is closed under subsets, so those of at most three elements
    # are {0}, {0, a} and {0, a, b} for one-point sets a and b; the prime
    # ideals, the sets missing one fixed point, have 16 elements
    assert counts == [1 + 5 + 10, 0]


def test_annihilators_and_minimal_ideals_match_naive_definitions():
    for s in iso_corpus():
        rows = s.table.entries
        assert list(s.maximal_annihilators()) == naive_maximal_annihilators(rows)
        assert list(s.associated_primes()) == naive_associated_primes(rows)
        assert list(s.minimal_ideals()) == naive_minimal_ideals(rows)


# -- prime decompositions of zero -------------------------------------------------


def test_powerset_decomposition_has_n_primes():
    for n in (2, 3):
        s = powerset_semigroup(n)
        dec = s.zero_prime_decomposition()
        assert dec is not None and len(dec) == n


def test_decomposition_matches_exhaustive_oracle_on_raw_tables():
    # the oracle tries every family of prime ideals found by testing
    # every subset, so it also confirms that the greedy family is smallest
    count = 0
    for order in range(2, 6):
        for s in enumerate_semigroups(EnumerationOptions(order)):
            count += 1
            rows = s.table.entries
            smallest = brute_smallest_decomposition(rows)
            dec = s.zero_prime_decomposition()
            assert (dec is None) == (smallest is None)
            if dec is None:
                continue
            primes = list(dec)
            assert set(primes) <= set(brute_prime_ideals(rows))
            assert frozenset.intersection(*primes) == {0}
            for i in range(len(primes)):
                rest = primes[:i] + primes[i + 1:]
                assert not rest or frozenset.intersection(*rest) != {0}
            assert len(primes) == len(smallest)
    assert count == 4494


def test_non_reduced_fixture_has_no_decomposition():
    s = builtin_example("ex4.5")
    assert s.zero_prime_decomposition() is None
    assert brute_smallest_decomposition(s.table.entries) is None


def test_decomposition_of_trivial_semigroup():
    s = validate(CayleyTable.from_rows([[0]]))
    dec = s.zero_prime_decomposition()
    assert dec is not None
    assert dec == (frozenset({0}),)


# -- builders ---------------------------------------------------------------------


def test_null_semigroup_products():
    s = null_semigroup(4)
    assert all(s.product(x, y) == 0 for x in s.elements for y in s.elements)


def test_powerset_semigroup_is_intersection():
    s = powerset_semigroup(3)
    assert s.n == 8
    assert s.product(0b011, 0b110) == 0b010
    assert s.label(0) == "0"
    assert s.label(0b011) == "{1,2}"


def test_group_with_zero_multiplication():
    s = group_with_zero(4)  # cyclic group of order 3 plus zero
    assert s.n == 4
    assert s.product(2, 3) == 1  # g * g^2 = e
    assert s.product(0, 2) == 0


def test_orthogonal_union_cross_products_vanish():
    a = null_semigroup(3)
    b = group_with_zero(3)
    u = orthogonal_union([a, b])
    assert u.n == 5
    for x in (1, 2):       # images of a's nonzero elements
        for y in (3, 4):   # images of b's
            assert u.product(x, y) == 0
    # within-part products are preserved
    assert u.product(1, 2) == 0
    assert u.product(3, 4) == 4


def test_orthogonal_union_needs_two_parts():
    with pytest.raises(EmptyPartListError):
        orthogonal_union([null_semigroup(3)])


def test_orthogonal_union_labels_are_suffixed():
    u = orthogonal_union([group_with_zero(3), group_with_zero(3)])
    assert u.label(1) != u.label(3)


# -- .sgt round-trip ---------------------------------------------------------------


def test_sgt_round_trip_preserves_table():
    for ex in ("ex3.4", "ex3.5", "ex4.5"):
        t = builtin_example(ex).table
        assert sgt.loads(sgt.dumps(t)) == t


def test_sgt_parses_comments_and_blank_lines():
    text = "# a null semigroup\n2\n\nnames: 0 a\n0 0\n0 0\n"
    t = sgt.loads(text)
    assert t.order == 2
    assert t.names == ("0", "a")


def test_names_with_a_comment_sign_are_rejected():
    # .sgt drops everything after '#', so such a name could not be read back
    t = CayleyTable.from_rows([[0, 0, 0], [0, 0, 0], [0, 0, 0]])
    t = CayleyTable(order=3, entries=t.entries, names=("0", "a#1", "b"))
    with pytest.raises(MalformedTableError, match="'#'"):
        validate(t)
