"""Exhaustive generation of small commutative semigroups with zero.

Tables are generated by backtracking over the upper triangle of the
multiplication table (row and column 0 are pinned to 0); a cell not
yet filled holds the value n. One check, _watch_ok, tests associativity,
and pruning is incomplete: a triple is checked at the cell that
completes its inner products xy and yz, and only if neither outer
product (xy)z nor x(yz) reads n by then. A triple whose outer product
lands on a later cell is never looked at again during the descent, so
the leaf runs the same check over every triple. On a raw run it rejects
most complete tables (order 5 reaches 25,673 leaves and keeps 4,284);
up to iso the canonicity tests have pruned nearly all the rest (order 6
reaches 1,550 leaves and keeps 1,538). Emission order is ascending in
the flat row-major table, so repeated runs produce byte-identical output.

Commutativity lets the associativity check range over triples (x, y, z)
with x <= z only: the remaining instances follow by swapping factors.

Up to isomorphism, a table is kept only when it is canonical: no
relabeling fixing 0 makes it lex-smaller (it equals its canonical_form).
The search tests this as it goes, in the manner of Read's orderly
generation (Read 1978), with canonical_form's own search (_least)
stopped at the first relabeling that beats the table; raw enumeration
runs no test:

- After every filled cell (i, j), the branch is dropped when some
  relabeling fixing 0 makes the cells of the fill order through (i, j)
  smaller, read in that order: the upper triangle of the row-major
  prefix, which decides as the whole prefix would (see _generate). That
  prefix is all filled, and every cell the beating relabeling read is
  fixed in every completion, so every completion is beaten too.
- A relabeling still tied when it reads an unfilled cell is suspended,
  not dropped. At a branch only the members that read one wait; the
  others go on at once. The labels of the compared cell are fixed by
  then, so the value the unfilled cell takes decides the state at once:
  it beats the table, drops the state or ties. So a state waits on a
  (fill rank, value): the entry of a fill rank holds a mask of the
  values some waiting state beats, and the waiting states indexed by the
  values they tie on (see _resume).
- The generator skips the masked values of a cell before it checks
  associativity: each of them is beaten.
- Each test resumes the previous one (_resume): it walks on only the
  states that completed the previous prefix and those that tie on the
  value just filled, and carries every other state down. So no test
  walks again what the test before it passed. Order 7 runs 172,932
  tests and 741,982 associativity checks, the leaf's included; with
  states waiting on a fill rank alone it ran 267,153 and 1,020,547.
- _resume looks a state's cells up itself, with no copy, while the
  labels of a cell and of its product are fixed; only a state that must
  split a block or branch goes through _least, from copies. The identity
  reads only filled cells and ties each one, so it can never beat the
  table, lose or wait: _resume drops it wherever it completes with every
  label given out, and it is counted instead.
- The last cell is tested like every other, and that test compares the
  upper triangle, which decides the whole table. A leaf is kept when it
  passed and the associativity check passes the whole table; only the
  tables kept become CayleyTables.

Each cell takes the values of its domain, which up to iso must hold
every canonical table. require_reduced drops 0 from the diagonal,
leaving exactly the reduced tables: x² = 0 makes x nilpotent, and a
nonzero nilpotent has a nonzero power squaring to 0. The domains come
in work units (_units), one per value of the first cell, 1·1: n raw,
n-1 reduced. Up to iso there are two, 1·1 = 0 with the full domains and
1·1 = 1 with 0 left out of every diagonal domain (reduced: the second
alone). If some x ≠ 0 has x² = 0, relabeling x as 1 puts 0 in the first
compared cell, which beats any table with 1·1 >= 1. If no such x
exists, no nonzero element is nilpotent, so the idempotent power e of 1
is nonzero, and relabeling e as 1 gives 1·1 = 1. So 1·1 >= 2 is never
canonical, and 1·1 = 1 forces every square to be nonzero. The stream
runs the units in turn.

_semigroups, the stream behind enumerate_semigroups and audit, holds
the Γ pool: for the length of one call every semigroup it yields takes
Γ and Γ̄ from one pool, so the tables with one labelled Γ share one
Graph and every answer it derives.

audit runs the up-to-isomorphism stream for every corpus. The paper's
clauses are stated up to isomorphism, so a raw audit counts each class
once for each of the (n-1)!/|Aut| raw tables in its orbit. |Aut| is the
number of relabelings that tie the whole of a canonical table, its own
bound (see _least): the done records of the test of the last cell, and
the identity. Each kept table carries it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

from .errors import OrderTooLargeError, UnknownPredicateError
from .graph import (
    bridges,
    chromatic_number,
    clique_number,
    complete_multipartite_partition,
    gamma,
    girth,
    minimal_vertex_cutsets,
)
from .semigroup import CayleyTable, Semigroup, _check_shape
from .theorems import check_gamma_facts, run_all

MIN_ORDER = 2
MAX_ORDER = 6


@dataclass(frozen=True)
class EnumerationOptions:
    """Which tables a run enumerates: their order, whether one per
    isomorphism class, whether reduced only, and at most how many.

    order, and limit unless it is None, must be ints and not bools
    (TypeError otherwise), order within MIN_ORDER..MAX_ORDER
    (OrderTooLargeError) and limit nonnegative (ValueError).
    """

    order: int
    up_to_iso: bool = False
    require_reduced: bool = False
    limit: int | None = None

    def __post_init__(self):
        limit = 0 if self.limit is None else self.limit  # None: no limit
        for field, value in (("order", self.order), ("limit", limit)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError("%s must be an int, got %r" % (field, value))
        if not MIN_ORDER <= self.order <= MAX_ORDER:
            raise OrderTooLargeError(
                "enumeration supports orders %d through %d, got %d"
                % (MIN_ORDER, MAX_ORDER, self.order)
            )
        if self.limit is not None and self.limit < 0:
            raise ValueError("limit must be nonnegative")


def _cells(n: int) -> list[tuple[int, int]]:
    """Free table cells in fill order: upper triangle, row-major."""
    return [(i, j) for i in range(1, n) for j in range(i, n)]


def _prepare(n, cells):
    """Fill ranks and per-cell watch lists of associativity triples.

    rank[a*n+b] is the fill index of the cell holding a*b. Only the watch
    lists here and the waiting entries of _resume read it, at nonzero a
    and b, so the -1 of a product involving 0 is never read. A triple
    (x, y, z) lands on the watch list of the later of its two
    inner-product cells, the first moment both xy and yz are known. One
    more list, watch[len(cells)], holds every triple, for the leaf.
    """
    rank = [-1] * (n * n)
    for k, (i, j) in enumerate(cells):
        rank[i * n + j] = k
        rank[j * n + i] = k
    watch = [[] for _ in range(len(cells) + 1)]
    for x in range(1, n):
        for z in range(x, n):
            for y in range(1, n):
                k = max(rank[x * n + y], rank[y * n + z])
                watch[k].append((x, y, z))
                watch[-1].append((x, y, z))
    return rank, watch


def _watch_ok(n, t, triples) -> bool:
    """Check the triples whose outer products (xy)z and x(yz) are both
    set; an unfilled cell of t holds n."""
    for x, y, z in triples:
        u = t[t[x * n + y] * n + z]
        v = t[x * n + t[y * n + z]]
        if u != v and u != n and v != n:
            return False
    return True


def _to_front(sigma, pos, cs, ce, x) -> int:
    """Give x the first label of its block and split it off; return it."""
    p = pos[x]
    first, e = cs[p], ce[p]
    if e - first > 1:
        y = sigma[first]
        sigma[first], sigma[p] = x, y
        pos[x], pos[y] = first, p
        cs[first + 1:e] = [first + 1] * (e - first - 1)
        ce[first] = first + 1
    return first


class _Beaten(Exception):
    """A candidate cell went below the bound."""


def _unsplit(n):
    """The record a search starts from: cell 0, the identity labelling,
    and labels 1..n-1 in one block (see _least)."""
    identity = list(range(n))
    return 0, identity, identity[:], [0] + [1] * (n - 1), [1] + [n] * (n - 1)


def _least(t, n, cells, bound=None, starts=None):
    """Least cell values over the relabelings fixing 0.

    t is the flat n*n table and cells the (row, column) label pairs to
    compare, in row-major order: whole rows, or the upper triangle of a
    symmetric t (see _generate), or a prefix of either. Returns the least
    values of the cells, as a flat n*n table with 0 elsewhere. See
    canonical_form for the search.

    The search drops a relabeling only where it makes some cell larger
    than another relabeling does, and gives each branch its own element
    for the label, so when the cells cover the whole table it completes
    every relabeling that gives the least table, each once.

    With a bound, a flat n*n table (t itself for a canonicity test), the
    search is a resumable test of whether the bound is least. It returns
    None at the first candidate cell below the bound (the bound is
    beaten). Otherwise it returns the records that completed the cells
    and, for each record that stopped, the flat index of the cell of t
    it waits on. A record is a cell index and a state (sigma, pos, cs,
    ce) to walk on from there, tied with the bound; starts are the
    records to walk, each from a copy (default: _unsplit). Here t may be
    partial: the value n marks an unfilled cell. A relabeling that reads
    one stops there, not beaten, and at a branch only the members that
    read one stop; each stops with its element moved to the front, so
    that the record walks on as the branch would have. Either way a
    record stops with the row and column labels of its cell blocks of
    their own, so the value the unfilled cell takes decides its next
    cell, which _resume reads off at once.

    _resume looks up the cells of its records itself and walks a record
    here only from a cell where a block must split or the search must
    branch.
    """
    ncells = len(cells)
    cand = [0] * (n * n)
    best = bound
    done = []
    stopped = []

    # sigma[label] = element and pos[element] = label; labels cs[i] up to
    # ce[i] (exclusive) form the block holding label i. A state belongs to
    # one call of walk, which may change it in place, and is not changed
    # once that call has kept it as a record.
    def walk(c, tied, sigma, pos, cs, ce):
        """Fill cells from c on; True when a completion tied or replaced best."""
        nonlocal best
        while c < ncells:
            a, b = cells[c]
            if ce[a] - cs[a] > 1:
                return branch(c, tied, sigma, pos, cs, ce, a)
            ra = sigma[a] * n
            e = ce[b]
            if e - b == 1:
                x = t[ra + sigma[b]]
                if x == n:
                    stopped.append((ra + sigma[b], (c, sigma, pos, cs, ce)))
                    return False
                v = pos[x]
                if ce[v] - cs[v] > 1:
                    v = _to_front(sigma, pos, cs, ce, x)
                at = a * n + b
                if tied and v != best[at]:
                    if v > best[at]:
                        return False
                    if bound is not None:
                        raise _Beaten
                    tied = False
                cand[at] = v
                c += 1
            else:
                # columns b..e-1 form one block: sort it by product label
                keyed = []
                for i in range(b, e):
                    z = sigma[i]
                    x = t[ra + z]
                    if x == n or ce[pos[x]] - cs[pos[x]] > 1:
                        return branch(c, tied, sigma, pos, cs, ce, b)
                    keyed.append((pos[x], z))
                keyed.sort()
                values = [v for v, _ in keyed]
                first = b
                for i, (v, z) in enumerate(keyed, b):
                    sigma[i] = z
                    pos[z] = i
                    if i > b and v != values[i - b - 1]:
                        ce[first:i] = [i] * (i - first)
                        first = i
                    cs[i] = first
                ce[first:e] = [e] * (e - first)
                for at, v in enumerate(values, a * n + b):
                    if tied and v != best[at]:
                        if v > best[at]:
                            return False
                        if bound is not None:
                            raise _Beaten
                        tied = False
                    cand[at] = v
                c += e - b
        if not tied:
            best = cand[:]
        if bound is not None:
            done.append((c, sigma, pos, cs, ce))
        return True

    def branch(c, tied, sigma, pos, cs, ce, lab):
        """Try the members of the block starting at lab as sigma(lab)."""
        a, b = cells[c]
        group = []
        vmin = n
        for i in range(lab, ce[lab]):
            y = sigma[i]
            at = (y if a == lab else sigma[a]) * n + (y if b == lab else sigma[b])
            x = t[at]
            # the label x would get if y took label lab
            if x == n:
                state = sigma[:], pos[:], cs[:], ce[:]
                _to_front(*state, y)
                stopped.append((at, (c, *state)))
                continue
            if x == y:
                v = lab
            else:
                v = pos[x]
                if ce[v] - cs[v] > 1:
                    v = lab + 1 if cs[v] == lab else cs[v]
            if v < vmin:
                vmin = v
                group = [y]
            elif v == vmin:
                group.append(y)
        if not group or tied and vmin > best[a * n + b]:
            return False
        updated = False
        for y in group:
            if y == group[-1]:
                state = sigma, pos, cs, ce
            else:
                state = sigma[:], pos[:], cs[:], ce[:]
            _to_front(*state, y)
            if walk(c, tied, *state):
                tied = updated = True
        return updated

    try:
        for c, sigma, pos, cs, ce in starts or [_unsplit(n)]:
            walk(c, bound is not None, sigma[:], pos[:], cs[:], ce[:])
    except _Beaten:
        return None
    return (done, stopped) if bound is not None else best


def _resume(t, n, cells, rank, test, k):
    """The canonicity test once cell k of the fill order is filled.

    cells are the compared cells, the fill order through cell k, and t
    is the bound (see _least). test is the test before cell k: (done,
    waiting), the records that completed the previous prefix and, by
    fill rank, the records waiting on that cell: None, or an entry
    (beaten, split, ties). A waiting record compares a cell (a, b) whose
    labels are blocks of their own, and its next lookup reads the cell
    it waits on, so the value x that cell takes decides it. With w =
    t[a*n + b], x beats the bound when the block of x's label starts
    below w, drops the record when it starts above w, and ties when it
    starts at w. beaten is the bitmask of the values some waiting record
    beats. ties[x] chains the records whose block at w is x alone, and
    split chains those whose block at w has more members: these tie on
    each member and must split the block. A chain is (record, rest).

    The value x of cell k is read at the last compared cell, which is
    cell k of the fill order. Only the records that can move are walked
    on: for a masked x none is, as the test is beaten; otherwise the
    done records, the split chain and ties[x]. Every other record
    waiting on cell k is dropped, and every other entry is carried down
    as it is. Returns None when beaten, else the test after cell k.
    After the last cell the cells are the upper triangle, which decides
    the whole table, and the done records are its |Aut| - 1
    automorphisms other than the identity.

    A record (c, sigma, pos, cs, ce) is a state of _least tied with the
    bound through cell c. It is walked on here by lookup, without
    copies, while compared cell (a, b) has one value: labels a and b
    are blocks of their own, as _least's walk requires, so the cell
    reads x = t[sigma[a]*n + sigma[b]]. An unfilled x makes the record
    wait on its fill rank, entered for each value as above. Otherwise x
    takes the first label of its block, cs[pos[x]], as _to_front would
    give it; that label beats the bound when lower and drops the record
    when higher, and a tie goes on to the next cell when x's block has
    one element. A record goes to _least from cell c only where a block
    must split or the search must branch.

    The identity is dropped wherever it completes with every label a
    block of its own (at order 2 it starts so): it reads only filled
    cells and ties each one, so it can never beat the bound, lose or
    wait.
    """
    done, waiting = test
    records = list(done)
    if waiting[k]:
        beaten, split, ties = waiting[k]
        i, j = cells[-1]
        x = t[i * n + j]
        if beaten >> x & 1:
            return None
        for chain in split, ties[x]:
            while chain:
                record, chain = chain
                records.append(record)
    ncells = len(cells)
    kept = []
    stopped = []
    starts = []
    for c, sigma, pos, cs, ce in records:
        while c < ncells:
            a, b = cells[c]
            if ce[a] - cs[a] > 1 or ce[b] - b > 1:
                starts.append((c, sigma, pos, cs, ce))
                break
            at = sigma[a] * n + sigma[b]
            x = t[at]
            if x == n:
                stopped.append((at, (c, sigma, pos, cs, ce)))
                break
            p = pos[x]
            v, w = cs[p], t[a * n + b]
            if v != w:
                if v < w:
                    return None
                break
            if ce[p] - v > 1:
                starts.append((c, sigma, pos, cs, ce))
                break
            c += 1
        else:
            kept.append((c, sigma, pos, cs, ce))
    if starts:
        found = _least(t, n, cells, t, starts)
        if found is None:
            return None
        kept += found[0]
        stopped += found[1]
    identity = list(range(n))
    kept = [r for r in kept if r[1] != identity or r[3] != identity]
    if stopped:
        waiting = list(waiting)
        for at, record in stopped:
            r = rank[at]
            beaten, split, ties = waiting[r] or (0, None, (None,) * n)
            c, sigma, _, cs, ce = record
            a, b = cells[c]
            w = t[a * n + b]
            # labels below first beat the bound, first..end-1 tie it
            end = ce[w]
            first = w if cs[w] == w else end
            for y in sigma[:first]:
                beaten |= 1 << y
            if end - first > 1:
                split = record, split
            elif end > first:
                y = sigma[first]
                ties = (*ties[:y], (record, ties[y]), *ties[y + 1:])
            waiting[r] = beaten, split, ties
    return kept, waiting


def canonical_form(s) -> CayleyTable:
    """Least relabeling of the table among all permutations fixing 0.

    Accepts a Semigroup or a bare CayleyTable, zero-framed or not and
    commutative or not; two semigroups are isomorphic exactly when their
    canonical forms are equal. The result is the lex-least row-major
    table over all (n-1)! relabelings fixing 0, with names dropped, but
    the relabelings are not tried one by one:

    - A relabeling is built label by label (sigma: new label -> old
      element). The candidate's cells are produced lazily in row-major
      order and compared with the best table so far; a branch stops at
      the first cell that is larger, so a full table is only copied out
      when it is no larger. Row 0 and column 0 are skipped when they are
      all 0, since they then stay 0 under every sigma.
    - Labels not yet given out form an ordered partition: each block of
      old elements owns a run of consecutive labels. A cell whose product
      lands in a block takes that block's first label, since any other
      member of the block would make the cell larger. A row segment over
      one block whose products all have fixed labels is sorted, which
      splits the block by product; any other order makes the segment
      larger.
    - Only where neither rule decides does the search branch, and then
      only over the block members that give the cell its least value.
      For sigma(1) this keeps the elements whose square is 0, else the
      idempotents, else the rest.

    The table must have the shape validate checks: n rows of n entries,
    each an element 0..n-1 (MalformedTableError otherwise). Cost: at
    least one leaf per automorphism, as they all tie: (n-1)! for null:n,
    4 s at n = 10 on a 2-core host. A row tied under every relabeling
    prunes nothing either: zg:n's row 1 is the identity, so about (n-2)!
    branches run before row 2 splits any, and zg:12 takes about 15 s with
    |Aut| = 10. Pruning at automorphism ties alone will not bound this.
    """
    table = s.table if isinstance(s, Semigroup) else s
    _check_shape(table)
    n = table.order
    t = [v for row in table.entries for v in row]
    lo = 0 if any(t[:n]) or any(t[i * n] for i in range(n)) else 1
    cells = [(a, b) for a in range(lo, n) for b in range(lo, n)]
    flat = _least(t, n, cells)
    entries = tuple(tuple(flat[r * n:(r + 1) * n]) for r in range(n))
    return CayleyTable(order=n, entries=entries, names=None)


def _units(opts: EnumerationOptions):
    """The work units: for each value of 1·1, the values of each free
    cell in fill order (see the module docstring)."""
    n, low = opts.order, int(opts.require_reduced)
    # (1·1, least square) of each unit; up to iso 1·1 = 1 leaves no zero square
    firsts = [(v, v) for v in range(low, 2)] if opts.up_to_iso else [(v, low) for v in range(low, n)]
    return [
        ((v,), *(tuple(range(square if i == j else 0, n)) for i, j in _cells(n)[1:]))
        for v, square in firsts
    ]


def _generate(opts: EnumerationOptions, domains):
    """The tables for opts whose free cells take values from domains, as
    (CayleyTable, |Aut|) pairs; |Aut| is 0 on a raw run, which tests nothing.

    After every filled cell _watch_ok checks its watch list, and up to
    iso _resume then tests canonicity; up to iso, the values of a cell
    that a record waiting on it beats are skipped before either. A leaf
    is kept when _watch_ok passes every triple, watch[len(cells)]. A
    cell of the flat table t not yet filled holds n.

    The test after cell k compares the fill order through it, the
    upper-triangle cells of the row-major prefix, and that decides as
    the whole prefix would. In row-major order the first difference
    between two symmetric tables lies in the upper triangle: a cell
    (i, j) with j < i that differs has its mirror (j, i) differing
    earlier. So a relabeling tied through row i - 1 also ties the
    mirror cells (i, 1..i-1), and walking them would only cost time.
    """
    n = opts.order
    cells = _cells(n)
    rank, watch = _prepare(n, cells)
    t = [n if i and j else 0 for i in range(n) for j in range(n)]
    prefixes = [cells[:k + 1] for k in range(len(cells))]

    def descend(k, before):
        """Complete tables from cell k on; before is the canonicity test
        before cell k, None on a raw run."""
        if k == len(cells):
            if _watch_ok(n, t, watch[k]):
                # the identity is not among the done records of the last test
                aut = 0 if before is None else len(before[0]) + 1
                yield CayleyTable(order=n, entries=[t[r * n:(r + 1) * n] for r in range(n)]), aut
            return
        i, j = cells[k]
        ij, ji = i * n + j, j * n + i
        values = domains[k]
        if before is not None and before[1][k]:
            beaten = before[1][k][0]
            values = [v for v in values if not beaten >> v & 1]
        for v in values:
            t[ij] = t[ji] = v
            if not _watch_ok(n, t, watch[k]):
                continue
            if before is None:
                yield from descend(k + 1, before)
            elif (after := _resume(t, n, prefixes[k], rank, before, k)) is not None:
                yield from descend(k + 1, after)
        t[ij] = t[ji] = n

    yield from descend(0, ([_unsplit(n)], [None] * len(cells)) if opts.up_to_iso else None)


def _semigroups(opts: EnumerationOptions):
    """(Semigroup, |Aut|) for every table of opts; see enumerate_semigroups.
    This generator holds the Γ pool (see the module docstring)."""
    found = itertools.chain.from_iterable(_generate(opts, u) for u in _units(opts))
    graphs: dict = {}
    for tb, aut in itertools.islice(found, opts.limit):
        s = Semigroup(tb)
        s._graphs = graphs
        yield s, aut


def enumerate_semigroups(opts: EnumerationOptions):
    """Yield every valid semigroup for the options, in ascending table order.

    The call holds one Γ pool for all it yields (see the module
    docstring), dropped with it.
    """
    yield from (s for s, _ in _semigroups(opts))


# -- corpus audit --------------------------------------------------------------


@dataclass(frozen=True)
class ClauseTally:
    applicable: int = 0
    held: int = 0
    failed: int = 0


@dataclass(frozen=True)
class AuditReport:
    """Checker tallies over one enumerated corpus.

    counterexamples holds a (table, clause verdict, weight) triple for
    every applicable clause that failed, each witness already built as a
    plain dict; an empty tuple is the expected outcome. The table is a
    class's canonical table and the weight the number of tables of the
    corpus it stands for: its orbit size in a raw audit, 1 up to
    isomorphism. The tallies and total count the same way.
    """

    order: int
    up_to_iso: bool
    total: int
    tallies: dict
    counterexamples: tuple

    @property
    def clean(self) -> bool:
        return not self.counterexamples


def audit(opts: EnumerationOptions) -> AuditReport:
    """Run every structure check (default cutset cap) and the background facts over a corpus.

    Every corpus is audited from its isomorphism classes. Whether a clause
    applies and whether it holds do not depend on how the table is
    labelled, so on raw options each class counts once for every raw
    table in its orbit, (n-1)!/|Aut| of them. A raw limit would cut an
    orbit, so it is refused with ValueError.
    """
    raw = not opts.up_to_iso
    if raw and opts.limit is not None:
        raise ValueError("a raw audit counts whole orbits of tables and takes no limit")
    relabelings = math.factorial(opts.order - 1)
    tallies: dict[str, list[int]] = {}
    counterexamples = []
    total = 0
    for s, aut in _semigroups(replace(opts, up_to_iso=True)):
        weight = relabelings // aut if raw else 1
        total += weight
        for c in itertools.chain(*run_all(s).values(), check_gamma_facts(s)):
            row = tallies.setdefault(c.theorem_id, [0, 0, 0])
            if not c.applicable:
                continue
            row[0] += weight
            if c.holds:
                row[1] += weight
            else:
                row[2] += weight
                # build the witness now: the report keeps a dict, not a
                # builder holding s and the call's Γ pool
                c.witness
                counterexamples.append((s.table, c, weight))
    return AuditReport(
        order=opts.order,
        up_to_iso=opts.up_to_iso,
        total=total,
        tallies={k: ClauseTally(*v) for k, v in sorted(tallies.items())},
        counterexamples=tuple(counterexamples),
    )


# -- predicate search ----------------------------------------------------------


def _pred_complete_rpartite(s, arg):
    parts = complete_multipartite_partition(gamma(s))
    return bool(parts) and (arg is None or len(parts) == arg)


def _pred_has_bridge(s, arg):
    return bool(bridges(gamma(s)))


def _pred_has_cut_vertex(s, arg):
    # the cut vertices are the one-vertex cutsets, as cor-2.3 reads them
    return bool(minimal_vertex_cutsets(gamma(s), 1))


def _pred_girth(s, arg):
    return girth(gamma(s)) == arg


def _pred_chi_omega_gap(s, arg):
    g = gamma(s)
    return chromatic_number(g)[0] > clique_number(g)[0]


# Each predicate with the least integer argument some graph can meet, or
# None when it takes no argument; girth also takes "inf". reduced has no
# filter: search runs it as the generator's own pruning of zero squares.
_PREDICATES = {
    "complete-rpartite": (_pred_complete_rpartite, 1),
    "has-bridge": (_pred_has_bridge, None),
    "has-cut-vertex": (_pred_has_cut_vertex, None),
    "girth": (_pred_girth, 3),
    "chi-omega-gap": (_pred_chi_omega_gap, None),
    "reduced": (None, None),
}


def available_predicates() -> tuple[str, ...]:
    return tuple(sorted(_PREDICATES))


def _parse_predicate(spec: str):
    name, sep, raw = spec.partition(":")
    if name not in _PREDICATES:
        raise UnknownPredicateError(
            "unknown predicate %r; available: %s"
            % (name, ", ".join(available_predicates()))
        )
    fn, least = _PREDICATES[name]
    arg = None
    if sep:
        if least is None:
            raise UnknownPredicateError("predicate %r takes no argument" % name)
        if name == "girth" and raw == "inf":
            arg = math.inf
        else:
            try:
                arg = int(raw)
            except ValueError:
                raise UnknownPredicateError(
                    "predicate %r needs an integer argument, got %r" % (name, raw)
                ) from None
            if arg < least:
                raise UnknownPredicateError(
                    "predicate %r can match no graph with argument %d; it "
                    "must be at least %d" % (name, arg, least)
                )
    elif name == "girth":
        raise UnknownPredicateError(
            "predicate 'girth' needs an argument, e.g. girth:4 or girth:inf"
        )
    return fn, arg


def search(opts: EnumerationOptions, predicate: str):
    """Yield the enumerated semigroups that satisfy the predicate.

    The predicate is a name with an optional colon argument, for
    example "girth:4" or "complete-rpartite:3"; girth also accepts
    "girth:inf" for acyclic graphs. Every predicate but reduced tests Γ;
    reduced is the generator's pruning of zero squares (require_reduced),
    so it filters nothing and builds no Γ.
    """
    fn, arg = _parse_predicate(predicate)
    if arg is not None and arg != math.inf and arg > opts.order - 1:
        return  # Γ has at most order-1 vertices: no cycle or part count that large
    reduced = opts.require_reduced or fn is None
    # the limit caps matches, not the enumerated universe
    matches = enumerate_semigroups(replace(opts, require_reduced=reduced, limit=None))
    if fn is not None:
        matches = (s for s in matches if fn(s, arg))
    yield from itertools.islice(matches, opts.limit)
