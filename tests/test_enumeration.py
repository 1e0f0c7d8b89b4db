"""Exhaustive enumeration, canonical forms, audits and searches."""

import collections
import copy
import hashlib
import itertools
import math
import random
from dataclasses import replace

import pytest

from zdg import (
    AuditReport,
    CayleyTable,
    ClauseTally,
    EnumerationOptions,
    MalformedTableError,
    OrderTooLargeError,
    UnknownPredicateError,
    audit,
    available_predicates,
    builtin_example,
    canonical_form,
    check_gamma_facts,
    complete_multipartite_partition,
    enumerate_semigroups,
    gamma,
    girth,
    null_semigroup,
    report,
    run_all,
    search,
    validate,
)
from zdg import enumeration
from oracles import (
    automorphism_count,
    brute_canonical_form,
    burnside_class_count,
    naive_zero_tables,
)

# raw counts pinned from the naive generate-and-filter oracle
RAW_COUNTS = {2: 2, 3: 14, 4: 194}
# class counts confirmed by the Burnside oracle, which counts automorphisms
# of the raw corpus without canonical forms; order 6 has 1,538 classes, a
# count checked the same way outside this suite and pinned below
ISO_COUNTS = {2: 2, 3: 8, 4: 39, 5: 226}
ORDER_6_CLASSES = 1538
ORDER_6_DIGEST = "2848b35768a20ec8d4fb4116cc1c96b4bf679207d8d936491d45da5aa08c274b"
# the raw and reduced raw order-5 streams of the raw search, which tests
# no canonicity: (count, sha256 of the repr of the entries), by reduced
RAW_5_STREAMS = {
    False: (4284, "2f3b5006f839ae187c1b04b5cf2250b87d4f452ef33d61862e36a21f82df6584"),
    True: (1709, "3d6e960fbf7dda1731f3589993cfdc2b306f13b238c3c1c67bcc5e21213128e9"),
}

# builtin examples of order <= 7, small enough for the brute-force oracle
SMALL_EXAMPLES = (
    "ex3.4", "ex3.5", "ex3.8", "ex4.5", "zg:4", "zg:6", "zg:7", "null:2",
    "null:7", "powerset:2", "ortho:zg3+zg3", "ortho:null3+null4",
    "ortho:powerset2+powerset2", "ortho:zg2+zg2+zg2",
)


def tables(opts, **kw):
    return [s.table for s in enumerate_semigroups(opts, **kw)]


def test_raw_counts_match_naive_oracle():
    for n, count in RAW_COUNTS.items():
        got = [t.entries for t in tables(EnumerationOptions(order=n))]
        assert len(got) == count
        assert sorted(got) == sorted(naive_zero_tables(n))


def test_iso_class_counts_are_stable():
    for n, count in ISO_COUNTS.items():
        assert len(tables(EnumerationOptions(order=n, up_to_iso=True))) == count


def test_iso_class_counts_match_burnside_oracle():
    for n, count in ISO_COUNTS.items():
        raw = [t.entries for t in tables(EnumerationOptions(order=n))]
        assert burnside_class_count(raw, n) == count


def test_order_two_tables_are_the_two_known_ones():
    got = [t.entries for t in tables(EnumerationOptions(order=2))]
    assert got == [((0, 0), (0, 0)), ((0, 0), (0, 1))]


def test_every_emitted_table_validates():
    for s in enumerate_semigroups(EnumerationOptions(order=4)):
        validate(s.table)  # raises on any law violation


def test_emission_is_sorted_and_deterministic():
    a = [t.entries for t in tables(EnumerationOptions(order=4))]
    b = [t.entries for t in tables(EnumerationOptions(order=4))]
    assert a == b == sorted(a)


def test_limit_truncates_the_stream():
    full = tables(EnumerationOptions(order=4))
    head = tables(EnumerationOptions(order=4, limit=9))
    assert [t.entries for t in head] == [t.entries for t in full[:9]]


def test_require_reduced_postcondition():
    seen = 0
    for s in enumerate_semigroups(EnumerationOptions(order=4, require_reduced=True)):
        assert s.is_reduced()
        seen += 1
    assert seen == 85


def test_reduced_means_no_nonzero_square_is_zero():
    # if x^k = 0 with k >= 2 least, x^(k-1) is nonzero and squares to 0: so
    # rem-3.2a's hypothesis is reducedness, and require_reduced, which
    # prunes on zero squares, keeps exactly the reduced raw tables
    for order, count in ((2, 1), (3, 7), (4, 85), (5, 1709)):
        reduced = []
        for s in enumerate_semigroups(EnumerationOptions(order=order)):
            rows = s.table.entries
            squares_nonzero = all(rows[x][x] != 0 for x in range(1, order))
            assert s.is_reduced() == squares_nonzero
            if squares_nonzero:
                reduced.append(rows)
        assert len(reduced) == count
        opts = EnumerationOptions(order=order, require_reduced=True)
        assert [t.entries for t in tables(opts)] == reduced


def test_workers_preserve_serial_order():
    serial = [t.entries for t in tables(EnumerationOptions(order=4))]
    parallel = [
        t.entries for t in tables(EnumerationOptions(order=4), workers=3)
    ]
    assert serial == parallel


@pytest.mark.parametrize("flags, count", [
    ({"up_to_iso": True}, 226),
    ({"require_reduced": True}, 1709),
    ({"up_to_iso": True, "require_reduced": True}, 90),
])
def test_workers_preserve_serial_order_at_order_5(flags, count):
    opts = EnumerationOptions(order=5, **flags)
    serial = [t.entries for t in tables(opts)]
    assert len(serial) == count
    assert [t.entries for t in tables(opts, workers=2)] == serial


class InProcessPool:
    """Stands in for ProcessPoolExecutor: records its size and the units
    mapped, and runs each unit in this process."""

    runs = []

    def __init__(self, max_workers):
        self.max_workers = max_workers
        self.runs.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, opts, units):
        self.units = list(units)
        return [fn(o, unit) for o, unit in zip(opts, self.units)]


@pytest.mark.parametrize("flags", [
    {},
    {"up_to_iso": True},
    {"require_reduced": True},
    {"up_to_iso": True, "require_reduced": True},
])
def test_worker_units_pin_each_value_of_the_first_domain(monkeypatch, flags):
    # a unit is the tuple of cell domains with the first cell pinned to
    # one value; a reduced run has no 1·1 = 0 unit, which yields nothing.
    # Up to iso, 1·1 is 0 or 1 and 1·1 = 1 leaves 0 off the diagonal
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(InProcessPool, "runs", [])
    opts = EnumerationOptions(order=4, **flags)
    units = enumeration._units(opts)
    merged = [tb.entries for tb, _ in enumeration._parallel_tables(opts, units, workers=8)]
    (pool,) = InProcessPool.runs
    n, low = 4, int(opts.require_reduced)
    cells = [(i, j) for i in range(1, n) for j in range(i, n)]

    def rest(square):
        return tuple(tuple(range(square if i == j else 0, n)) for i, j in cells[1:])

    if opts.up_to_iso:
        expected = [((v,),) + rest(v) for v in range(low, 2)]
    else:
        expected = [((v,),) + rest(low) for v in range(low, n)]
    assert pool.units == expected
    assert pool.max_workers == len(pool.units) == (2 - low if opts.up_to_iso else n - low)
    if opts.require_reduced:
        assert all(unit[0] != (0,) for unit in pool.units)
    assert merged == [t.entries for t in tables(opts)]


def test_a_run_with_one_unit_starts_no_pool(monkeypatch):
    # reduced up to iso has the one unit 1·1 = 1: a worker process would
    # run it while this process waits
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(InProcessPool, "runs", [])
    opts = EnumerationOptions(order=5, up_to_iso=True, require_reduced=True)
    assert len(enumeration._units(opts)) == 1
    serial = [t.entries for t in tables(opts)]
    assert [t.entries for t in tables(opts, workers=2)] == serial
    assert InProcessPool.runs == []
    # a run with two units does start one
    assert tables(replace(opts, require_reduced=False), workers=2)
    assert len(InProcessPool.runs) == 1


def test_order_6_classes_are_pinned_serially_and_with_workers():
    opts = EnumerationOptions(order=6, up_to_iso=True)
    serial = [t.entries for t in tables(opts)]
    assert len(serial) == ORDER_6_CLASSES
    assert hashlib.sha256(repr(serial).encode()).hexdigest() == ORDER_6_DIGEST
    assert [t.entries for t in tables(opts, workers=2)] == serial


@pytest.mark.parametrize("reduced", (False, True))
@pytest.mark.parametrize("workers", (1, 2))
def test_raw_order_5_streams_are_pinned_serially_and_with_workers(reduced, workers):
    stream = tables(EnumerationOptions(order=5, require_reduced=reduced), workers=workers)
    entries = [t.entries for t in stream]
    digest = hashlib.sha256(repr(entries).encode()).hexdigest()
    assert (len(entries), digest) == RAW_5_STREAMS[reduced]


def test_order_bounds_are_enforced():
    with pytest.raises(OrderTooLargeError):
        EnumerationOptions(order=7)
    with pytest.raises(OrderTooLargeError):
        EnumerationOptions(order=1)


@pytest.mark.parametrize("fields", [
    {"order": 3.0}, {"order": True}, {"order": "3"}, {"order": None},
    {"order": 3, "limit": 2.5}, {"order": 3, "limit": True},
    {"order": 3, "limit": False}, {"order": 3, "limit": 0.0},
])
def test_order_and_limit_must_be_ints(fields):
    # a float order got as far as the generator's cell list, a float
    # limit as far as islice, and a bool limit read as 0 or 1; bools are
    # refused as table entries are
    with pytest.raises(TypeError):
        EnumerationOptions(**fields)


# -- canonical forms -----------------------------------------------------------


def test_canonical_form_is_idempotent():
    for s in enumerate_semigroups(EnumerationOptions(order=4, limit=40)):
        c = canonical_form(s.table)
        assert canonical_form(c).entries == c.entries


def test_canonical_form_is_relabeling_invariant():
    s = builtin_example("ex3.5")
    base = canonical_form(s.table).entries
    for p in itertools.permutations(range(1, s.n)):
        relabeled = s.table.relabeled((0,) + p)
        assert canonical_form(relabeled).entries == base


def random_bare_table(rng, framed):
    """A random table that need not be a semigroup; unframed ones are
    forced to be non-commutative as well. Entries come from a few
    elements and are often 0, so relabelings tie often."""
    n = rng.randint(2, 6)
    values = rng.sample(range(n), rng.randint(1, n))
    zeros = rng.random()
    rows = [
        [0 if rng.random() < zeros else rng.choice(values) for _ in range(n)]
        for _ in range(n)
    ]
    if framed:
        for i in range(n):
            rows[0][i] = rows[i][0] = 0
    else:
        rows[0][0] = rng.randrange(1, n)
        rows[n - 1][0] = (rows[0][n - 1] + 1) % n
    return CayleyTable.from_rows(rows)


def test_canonical_form_matches_brute_force_oracle():
    inputs = []
    for n in (2, 3, 4, 5):
        inputs += tables(EnumerationOptions(order=n))
    inputs += tables(EnumerationOptions(order=6, limit=2000))
    rng = random.Random(2007)
    for eid in SMALL_EXAMPLES:
        table = builtin_example(eid).table
        for _ in range(3):
            perm = [0] + rng.sample(range(1, table.order), table.order - 1)
            inputs.append(table.relabeled(tuple(perm)))
    inputs += [random_bare_table(rng, framed=k % 2 == 0) for k in range(240)]
    assert sum(t.order == 7 for t in inputs) >= 6
    assert sum(t.entries[0][0] != 0 for t in inputs) >= 120
    for table in inputs:
        assert canonical_form(table) == brute_canonical_form(table), table


def test_canonical_form_rejects_out_of_range_entries():
    with pytest.raises(MalformedTableError):
        canonical_form(CayleyTable.from_rows([[0, 0], [0, 2]]))
    with pytest.raises(MalformedTableError):
        canonical_form(CayleyTable.from_rows([[0, 0], [0, -1]]))
    # too few rows, and too many: neither may be read as its n x n corner
    with pytest.raises(MalformedTableError):
        canonical_form(CayleyTable(order=3, entries=((0, 0), (0, 0))))
    with pytest.raises(MalformedTableError):
        canonical_form(CayleyTable(order=3, entries=((0, 0, 0),) * 4))


def test_null_semigroups_share_canonical_form():
    c = canonical_form(null_semigroup(4).table)
    assert all(v == 0 for row in c.entries for v in row)


def test_iso_classes_partition_with_sizes_dividing_factorial():
    n = 4
    by_class = {}
    for s in enumerate_semigroups(EnumerationOptions(order=n)):
        by_class.setdefault(canonical_form(s.table).entries, []).append(s)
    assert len(by_class) == ISO_COUNTS[n]
    fact = math.factorial(n - 1)
    for size in map(len, by_class.values()):
        assert fact % size == 0


def test_up_to_iso_emits_canonical_representatives_only():
    for s in enumerate_semigroups(EnumerationOptions(order=4, up_to_iso=True)):
        assert canonical_form(s.table).entries == s.table.entries


def test_canonical_forms_have_1_1_in_0_1_and_no_zero_square_when_it_is_1():
    # the two facts behind the up-to-iso units, read off brute-force
    # canonical forms: orders 2-4 from the naive oracle, order 5 from the
    # raw stream (the naive oracle takes about 40 s there)
    corpora = {n: naive_zero_tables(n) for n in (2, 3, 4)}
    corpora[5] = (t.entries for t in tables(EnumerationOptions(5)))
    for n, corpus in corpora.items():
        forms = {brute_canonical_form(CayleyTable(n, rows)).entries for rows in corpus}
        assert len(forms) == ISO_COUNTS[n]
        for rows in forms:
            assert rows[1][1] in (0, 1)
            if rows[1][1] == 1:
                assert all(rows[x][x] for x in range(1, n))


def brute_filtered(opts):
    """The raw stream for opts, kept where brute_canonical_form fixes the
    table, up to opts.limit."""
    raw = enumerate_semigroups(replace(opts, up_to_iso=False, limit=None))
    kept = (
        s.table.entries
        for s in raw
        if brute_canonical_form(s.table).entries == s.table.entries
    )
    return list(itertools.islice(kept, opts.limit))


@pytest.fixture
def canonicity_tests(monkeypatch):
    """Canonicity tests run, by the row of the cell just filled and
    whether a smaller relabeling was found."""
    runs = collections.Counter()
    test = enumeration._resume

    def counted(t, n, cells, rank, before, k):
        after = test(t, n, cells, rank, before, k)
        runs[cells[-1][0], after is None] += 1
        return after

    monkeypatch.setattr(enumeration, "_resume", counted)
    return runs


@pytest.fixture
def walked_tests(monkeypatch):
    """Calls of the partition walker _least made by canonicity tests,
    which pass a bound; canonical_form passes none."""
    calls = []
    least = enumeration._least

    def counted(t, n, cells, bound=None, starts=None):
        if bound is not None:
            calls.append(cells[-1])
        return least(t, n, cells, bound, starts)

    monkeypatch.setattr(enumeration, "_least", counted)
    return calls


@pytest.mark.parametrize("reduced", (False, True))
@pytest.mark.parametrize("order", (2, 3, 4, 5))
def test_up_to_iso_stream_is_the_brute_filtered_raw_stream(
    order, reduced, canonicity_tests, walked_tests
):
    opts = EnumerationOptions(order, up_to_iso=True, require_reduced=reduced)
    assert [t.entries for t in tables(opts)] == brute_filtered(opts)
    if order == 5:
        # the tests after cells of rows 1 and 2 dropped branches
        assert canonicity_tests[1, True] > 0
        assert canonicity_tests[2, True] > 0
    if order == 5 and not reduced:
        # prefix tests over labels 1..r alone, from r = 2, ran 7,385 tests;
        # 1·1 free in 0..4 with every square free, 2,372; tests at the ends
        # of rows 1 and 2 and at the leaf, 1,219 (474 + 745): now a test
        # after every filled cell, the last one included, before the leaf's
        # check of every triple, 485 of them on the last cell
        assert sum(canonicity_tests.values()) == 1865
        assert sum(v for (row, _), v in canonicity_tests.items() if row == 4) == 485
        # a test whose records are all permutations looks them up and
        # calls no walker: 782 of the 1,865 tests walk a partition
        assert len(walked_tests) == 782


@pytest.mark.parametrize("reduced", (False, True))
def test_up_to_iso_head_of_order_6_is_the_brute_filtered_raw_head(
    reduced, canonicity_tests
):
    # the first 150 classes reach past the rows-1..3 prefix test's first prunes
    opts = EnumerationOptions(6, up_to_iso=True, require_reduced=reduced, limit=150)
    assert [t.entries for t in tables(opts)] == brute_filtered(opts)
    assert canonicity_tests[3, True] > 0


def partial_table(n, cells):
    """A flat n*n table with the given upper-triangle cells filled (and
    their mirrors), row and column 0 at 0, and n in every other cell."""
    t = [n if i and j else 0 for i in range(n) for j in range(n)]
    for (i, j), v in cells.items():
        t[i * n + j] = t[j * n + i] = v
    return t


def test_the_leaf_watch_list_accepts_exactly_the_associative_tables():
    # every zero-framed commutative table of order 4, 4**6 of them
    n = 4
    cells = enumeration._cells(n)
    _, watch = enumeration._prepare(n, cells)
    accepted = []
    for values in itertools.product(range(n), repeat=len(cells)):
        t = partial_table(n, dict(zip(cells, values)))
        if enumeration._watch_ok(n, t, watch[len(cells)]):
            accepted.append(tuple(tuple(t[r * n:(r + 1) * n]) for r in range(n)))
    assert len(accepted) == RAW_COUNTS[n]
    assert sorted(accepted) == sorted(naive_zero_tables(n))


@pytest.mark.parametrize("filled, ok", [
    # 1·1 = 1, 1·2 = 3: (1·1)·2 = 3 is set and 1·(1·2) = 1·3 holds n
    ({(1, 1): 1, (1, 2): 3}, True),
    # 1·3 = 1 set: (1·1)·2 = 3 but 1·(1·2) = 1
    ({(1, 1): 1, (1, 2): 3, (1, 3): 1}, False),
    # 1·1 = 0, 1·2 = 2: (1·1)·2 = 0 but 1·(1·2) = 2
    ({(1, 1): 0, (1, 2): 2}, False),
    # 1·1 = 0, 1·2 = 1: (1·1)·2 = 0 = 1·(1·2)
    ({(1, 1): 0, (1, 2): 1}, True),
])
def test_a_watched_triple_is_checked_once_both_outer_products_are_set(filled, ok):
    n = 4
    _, watch = enumeration._prepare(n, enumeration._cells(n))
    # 1·2 is cell 1 of the fill order, where (1, 1, 2) is watched
    assert (1, 1, 2) in watch[1]
    assert enumeration._watch_ok(n, partial_table(n, filled), watch[1]) is ok


def compared(n, k):
    """The cells the canonicity test after cell k of the fill order
    compares: rows 1..n-1 in row-major order, through that cell."""
    whole = [(a, b) for a in range(1, n) for b in range(1, n)]
    return whole[:whole.index(enumeration._cells(n)[k]) + 1]


def fresh_test(t, n, k):
    """The test after cell k started from the identity partition on the
    partial table t: None when beaten."""
    return enumeration._least(t, n, compared(n, k), t)


def fill_path(n, values, last):
    """Fill cells 0..last of the fill order from values, a flat n*n
    table, one at a time, and after each run the test resumed from the
    one before. Yields (k, t, test): t is the partial table, filled on in
    place, and test is None when beaten, where the path stops."""
    cells = enumeration._cells(n)
    rank, _ = enumeration._prepare(n, cells)
    t = partial_table(n, {})
    test = [enumeration._unsplit(n)], [None] * len(cells)
    for k, (i, j) in enumerate(cells[:last + 1]):
        t[i * n + j] = t[j * n + i] = values[i * n + j]
        test = enumeration._resume(t, n, compared(n, k), rank, test, k)
        yield k, t, test
        if test is None:
            return


def test_prefix_test_stops_at_an_unfilled_cell():
    # rows 1..2 are (1, 1, 1, 1) and (1, 3, 3, 2), cells 0..6 of the fill
    # order. Under some completion only sigma = (0, 1, 3, 2, 4) beats them:
    # it keeps row 1, and its row 2 reads the unfilled 3*3 at cell (2, 2)
    # before it gives 2 < 3 at cell (2, 3)
    rows = {(1, 1): 1, (1, 2): 1, (1, 3): 1, (1, 4): 1,
            (2, 2): 3, (2, 3): 3, (2, 4): 2}
    path = fill_path(5, partial_table(5, {**rows, (3, 3): 2}), 7)
    for k, t, test in path:
        if k == 6:
            # 3*3 unfilled: not beaten, and records wait on 3*3, cell 7
            assert test is not None and fresh_test(t, 5, 6) is not None
            done, waiting = test
            assert waiting[7]
    # 3*3 = 2 makes cell (2, 2) a tie, so sigma beats the filled table
    assert k == 7 and test is None
    assert fresh_test(t, 5, 6) is None
    # the beat is among the records that waited on 3*3, not the done ones
    rank, _ = enumeration._prepare(5, enumeration._cells(5))
    assert enumeration._resume(t, 5, compared(5, 7), rank, ([], waiting), 7) is None
    nothing_waiting = [None] * len(waiting)
    assert enumeration._resume(t, 5, compared(5, 7), rank, (done, nothing_waiting), 7) is not None


def test_prefix_test_moves_labels_past_the_prefix():
    # row 1 is (0, 1, 0): no relabeling of label 1 alone changes it, and
    # sigma(1) in {2, 3} reads an unfilled square; swapping labels 2 and 3
    # gives (0, 0, 1) once 1*3 = 0 is filled, cell 2 of the fill order
    path = fill_path(4, partial_table(4, {(1, 1): 0, (1, 2): 1, (1, 3): 0}), 2)
    verdicts = [(test is None, fresh_test(t, 4, k) is None) for k, t, test in path]
    assert verdicts == [(False, False), (False, False), (True, True)]


def permutation_record(c, *images):
    """The permutation record that walks on from compared cell c with
    sigma = (0, *images), as _resume keeps it: (c, sigma, pos)."""
    sigma = [0, *images]
    pos = [0] * len(sigma)
    for label, element in enumerate(sigma):
        pos[element] = label
    return c, sigma, pos


def nothing_waiting(n):
    return [None] * len(enumeration._cells(n))


def resume(t, n, test, k):
    rank, _ = enumeration._prepare(n, enumeration._cells(n))
    return enumeration._resume(t, n, compared(n, k), rank, test, k)


def test_a_permutation_record_that_beats_the_bound_gives_none():
    # row 1 is (1, 2, 1); swapping 2 and 3 reads 1*3 = 1 for cell (1, 2)
    t = partial_table(4, {(1, 1): 1, (1, 2): 2, (1, 3): 1})
    swap = permutation_record(0, 1, 3, 2)
    assert resume(t, 4, ([swap], nothing_waiting(4)), 2) is None


def test_a_permutation_record_that_loses_is_dropped():
    # row 1 is (1, 1, 2); the swap gives 1*3 = 2 the label 3 > 1 at (1, 2)
    t = partial_table(4, {(1, 1): 1, (1, 2): 1, (1, 3): 2})
    swap = permutation_record(0, 1, 3, 2)
    assert resume(t, 4, ([swap], nothing_waiting(4)), 2) == ([], nothing_waiting(4))


def test_a_permutation_record_that_reads_an_unfilled_cell_waits_on_its_rank():
    # cells (1, 1) and (1, 2) are filled; the swap reads 1*3 for (1, 2),
    # the unfilled cell 2 of the fill order, while tied at (1, 1)
    t = partial_table(4, {(1, 1): 1, (1, 2): 1})
    swap = permutation_record(0, 1, 3, 2)
    done, waiting = resume(t, 4, ([swap], nothing_waiting(4)), 1)
    assert done == []
    assert waiting == [None, None, (permutation_record(1, 1, 3, 2), None), None, None, None]
    # once 1*3 is filled, the waiting record is looked up from cell (1, 2)
    # on: it beats the bound, loses, or ties through cell (1, 3)
    t[1 * 4 + 3] = t[3 * 4 + 1] = 0
    assert resume(t, 4, (done, waiting), 2) is None
    t[1 * 4 + 3] = t[3 * 4 + 1] = 2
    assert resume(t, 4, (done, waiting), 2)[0] == []
    t[1 * 4 + 3] = t[3 * 4 + 1] = 1
    assert resume(t, 4, (done, waiting), 2)[0] == [permutation_record(3, 1, 3, 2)]


def test_resuming_a_test_changes_none_of_its_records():
    # the siblings of a cell resume one test each: none may change it
    t = partial_table(4, {(1, 1): 1, (1, 2): 1})
    test = [enumeration._unsplit(4), permutation_record(0, 1, 3, 2)], nothing_waiting(4)
    test = resume(t, 4, test, 1)
    before = copy.deepcopy(test)
    for value in range(4):
        t[1 * 4 + 3] = t[3 * 4 + 1] = value
        resume(t, 4, test, 2)
        assert test == before


@pytest.mark.parametrize("name", ("null:4", "zg:4", "ex3.4", "powerset:2", "null:5"))
def test_the_identity_is_carried_unwalked_and_counted_in_aut(name):
    # the identity is kept in no record, done or waiting, at any test: it
    # is counted once in |Aut| beside the done records of the last test
    table = canonical_form(builtin_example(name))
    n = table.order
    values = [v for row in table.entries for v in row]
    records = 0
    for _, _, test in fill_path(n, values, len(enumeration._cells(n)) - 1):
        done, waiting = test
        for record in done + [r for chain in waiting for r in chain_records(chain)]:
            records += 1
            # a permutation record (c, sigma, pos) is never the identity; a
            # partition record may hold sigma = identity with a block left
            assert len(record) == 5 or record[1] != list(range(n))
    assert records > 0
    assert len(done) + 1 == automorphism_count(table.entries)


def chain_records(chain):
    """The records of one waiting chain (record, rest)."""
    while chain:
        record, chain = chain
        yield record


@pytest.mark.parametrize("order", (3, 4, 5))
def test_resumed_tests_agree_with_fresh_ones_along_every_fill_path(order):
    # every raw table filled cell by cell in the generator's order: the
    # test resumed from the one before gives the verdict of a test started
    # from the identity on the same partial table, and the tables that no
    # test beats, one per class, complete their |Aut| relabelings
    n = order
    last = len(enumeration._cells(n)) - 1
    kept = 0
    for table in tables(EnumerationOptions(n)):
        values = [v for row in table.entries for v in row]
        for k, t, test in fill_path(n, values, last):
            assert (test is None) == (fresh_test(t, n, k) is None), (table, k)
        if test is not None:
            kept += 1
            assert len(test[0]) + 1 == automorphism_count(table.entries), table
    assert kept == ISO_COUNTS[n]


# -- audit ----------------------------------------------------------------------


def test_audit_is_clean_through_order_four():
    for n in (2, 3, 4):
        rep = audit(EnumerationOptions(order=n, up_to_iso=True))
        assert rep.clean
        assert rep.total == ISO_COUNTS[n]
        for t in rep.tallies.values():
            assert t.applicable == t.held + t.failed
            assert t.failed == 0


def test_audit_covers_background_graph_facts():
    rep = audit(EnumerationOptions(order=4, up_to_iso=True))
    t = rep.tallies["dms-gamma-facts"]
    assert t.failed == 0
    assert t.applicable > 0


def test_audit_order_two_is_mostly_vacuous():
    rep = audit(EnumerationOptions(order=2, up_to_iso=True))
    # one vertex at most: median and center apply, partitions do not
    assert rep.tallies["thm-3.1-parts-ideals-primes"].applicable == 0
    assert rep.tallies["thm-2.2-median"].applicable == 1


def _audit_without_sharing(opts) -> AuditReport:
    """audit's report from a fresh semigroup per table, so that no graph
    or answer is shared between tables, and on raw options from every raw
    table rather than from the classes weighted by orbit size."""
    tallies = {}
    counterexamples = []
    total = 0
    for table in tables(opts):
        s = validate(table)
        total += 1
        for c in itertools.chain(*run_all(s).values(), check_gamma_facts(s)):
            row = tallies.setdefault(c.theorem_id, [0, 0, 0])
            if c.applicable:
                row[0] += 1
                row[1 if c.holds else 2] += 1
                if not c.holds:
                    counterexamples.append((s.table, c, 1))
    return AuditReport(
        order=opts.order,
        up_to_iso=opts.up_to_iso,
        total=total,
        tallies={k: ClauseTally(*v) for k, v in sorted(tallies.items())},
        counterexamples=tuple(counterexamples),
    )


@pytest.mark.parametrize(
    "opts",
    [EnumerationOptions(n) for n in (2, 3, 4, 5)]
    + [EnumerationOptions(n, require_reduced=True) for n in (4, 5)]
    + [EnumerationOptions(5, up_to_iso=True)],
    ids=["raw2", "raw3", "raw4", "raw5", "reduced4", "reduced5", "iso5"],
)
def test_audit_sharing_graphs_equals_audit_of_fresh_semigroups(opts):
    assert audit(opts) == _audit_without_sharing(opts)


# the raw counts, orders 5 and 6 counted from the raw stream
RAW_TOTALS = {**RAW_COUNTS, 5: 4284, 6: 142627}


def test_automorphisms_of_every_class_match_the_oracle():
    # |Aut| as the leaf test counts it and each class carries it
    for n, raw in RAW_TOTALS.items():
        opts = EnumerationOptions(n, up_to_iso=True)
        classes, counts = zip(*((s.table, aut) for s, aut in enumeration._semigroups(opts, 1)))
        assert list(counts) == [automorphism_count(tb.entries) for tb in classes]
        # the orbits of the classes partition the raw tables
        assert sum(math.factorial(n - 1) // a for a in counts) == raw


def test_a_raw_audit_takes_no_limit():
    with pytest.raises(ValueError):
        audit(EnumerationOptions(4, limit=10))
    assert audit(EnumerationOptions(4, up_to_iso=True, limit=10)).total == 10


def test_parallel_audit_renders_the_serial_bytes():
    opts = EnumerationOptions(5)

    def rendered(rep):
        return report.render(report.audit_block(rep))

    assert rendered(audit(opts, workers=2)) == rendered(audit(opts))


# -- search -------------------------------------------------------------------


# one valid argument for each predicate that takes one
PREDICATE_ARGS = {"complete-rpartite": "2", "girth": "3"}


def _predicate_specs() -> list[str]:
    # every predicate bare, except girth, which needs its argument, and
    # every argument-taking one with its test argument
    bare = [name for name in available_predicates() if name != "girth"]
    return bare + ["%s:%s" % item for item in sorted(PREDICATE_ARGS.items())]


def test_every_argument_taking_predicate_has_a_test_argument():
    takes = {name for name, (_, least) in enumeration._PREDICATES.items() if least is not None}
    assert takes == set(PREDICATE_ARGS)


@pytest.mark.parametrize("spec", _predicate_specs())
def test_search_sharing_graphs_equals_a_filter_over_fresh_semigroups(spec):
    opts = EnumerationOptions(4)
    fn, arg = enumeration._parse_predicate(spec)

    def holds(table):
        s = validate(table)
        return s.is_reduced() if spec == "reduced" else fn(s, arg)

    fresh = [table for table in tables(opts) if holds(table)]
    assert fresh or spec == "chi-omega-gap"  # no χ > ω gap below order 7
    assert [s.table for s in search(opts, spec)] == fresh


def test_parallel_search_yields_the_serial_tables_in_order():
    opts = EnumerationOptions(5)
    serial = [s.table for s in search(opts, "has-bridge")]
    assert serial
    assert [s.table for s in search(opts, "has-bridge", workers=2)] == serial


def test_a_limited_search_runs_serially(monkeypatch):
    # the first match can come at once; worker processes would run every
    # first-cell branch to its end before the limit is reached
    opts = EnumerationOptions(5, limit=1)
    serial = [s.table for s in search(opts, "has-bridge")]
    assert len(serial) == 1

    def refuse(*args, **kwargs):
        raise AssertionError("a limited search went to the workers")

    monkeypatch.setattr(enumeration, "_parallel_tables", refuse)
    assert [s.table for s in search(opts, "has-bridge", workers=2)] == serial


def test_search_girth_4_finds_the_two_group_union():
    target = canonical_form(
        builtin_example("ortho:zg3+zg3").table
    ).entries
    found = [
        s.table.entries
        for s in search(
            EnumerationOptions(order=5, up_to_iso=True), "girth:4"
        )
    ]
    assert target in found
    for entries in found:
        s = validate(CayleyTable(order=5, entries=entries))
        assert girth(gamma(s)) == 4


def test_search_complete_rpartite_2_includes_the_star_pattern():
    target = canonical_form(builtin_example("ex3.8").table).entries
    found = [
        s.table.entries
        for s in search(
            EnumerationOptions(order=4, up_to_iso=True), "complete-rpartite:2"
        )
    ]
    assert target in found
    for entries in found:
        s = validate(CayleyTable(order=4, entries=entries))
        parts = complete_multipartite_partition(gamma(s))
        assert parts is not None and len(parts) == 2


def test_search_reduced_matches_is_reduced():
    out = list(search(EnumerationOptions(order=4), "reduced"))
    assert len(out) == 85
    assert all(s.is_reduced() for s in out)


@pytest.mark.parametrize(
    "opts",
    [EnumerationOptions(n) for n in (2, 3, 4, 5)]
    + [EnumerationOptions(n, up_to_iso=True) for n in (2, 3, 4, 5, 6)],
    ids=["raw2", "raw3", "raw4", "raw5", "iso2", "iso3", "iso4", "iso5", "iso6"],
)
def test_search_reduced_equals_an_is_reduced_filter(opts):
    # search prunes zero squares in the generator; the filter tests each
    # enumerated table for nilpotents
    filtered = [s.table for s in enumerate_semigroups(opts) if s.is_reduced()]
    assert [s.table for s in search(opts, "reduced")] == filtered
    if opts.order == 5:
        assert [s.table for s in search(opts, "reduced", workers=2)] == filtered
        assert [s.table for s in search(replace(opts, limit=10), "reduced")] == filtered[:10]


def test_search_has_bridge_and_cut_vertex():
    bridged = list(search(EnumerationOptions(order=5, up_to_iso=True), "has-bridge"))
    cut = list(search(EnumerationOptions(order=5, up_to_iso=True), "has-cut-vertex"))
    assert bridged and cut
    # a cut vertex needs at least three vertices, a bridge only two
    assert len(bridged) >= len(cut)


def test_search_limit_caps_matches_not_candidates():
    hits = list(
        search(EnumerationOptions(order=5, up_to_iso=True, limit=2), "girth:4")
    )
    assert len(hits) == 2


def test_search_chi_omega_gap_is_empty_at_small_orders():
    # no chi > omega case exists below the order-7 wheel fixture
    for n in (4, 5, 6):
        assert not list(
            search(EnumerationOptions(order=n, up_to_iso=True), "chi-omega-gap")
        )


class Enumerated(Exception):
    pass


@pytest.mark.parametrize(
    "spec, enumerates",
    [
        ("girth:4", True),
        ("girth:inf", True),
        ("complete-rpartite:4", True),
        ("girth:5", False),
        ("girth:9", False),
        ("complete-rpartite:5", False),
        ("complete-rpartite:9", False),
    ],
)
def test_search_answers_at_once_when_no_graph_of_the_order_can_match(
    spec, enumerates, monkeypatch
):
    # Γ of an order-5 semigroup has at most 4 vertices
    def refuse(*args, **kwargs):
        raise Enumerated(spec)

    monkeypatch.setattr(enumeration, "enumerate_semigroups", refuse)
    if enumerates:
        with pytest.raises(Enumerated):
            list(search(EnumerationOptions(order=5), spec))
    else:
        assert list(search(EnumerationOptions(order=5), spec)) == []


def test_unknown_predicate_is_rejected():
    with pytest.raises(UnknownPredicateError):
        list(search(EnumerationOptions(order=3), "no-such-thing"))
    with pytest.raises(UnknownPredicateError):
        list(search(EnumerationOptions(order=3), "girth"))
    with pytest.raises(UnknownPredicateError):
        list(search(EnumerationOptions(order=3), "girth:x"))
    with pytest.raises(UnknownPredicateError):
        list(search(EnumerationOptions(order=3), "reduced:1"))
