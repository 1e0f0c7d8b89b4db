"""Finite commutative semigroups with an absorbing zero.

Elements are the integers 0..n-1 and index 0 is always the zero element.
The multiplication table is the single source of truth; everything else
(ideals, annihilators, decompositions, Γ and Γ̄) is a pure, immutable
view on it. A semigroup takes Γ and Γ̄ from a pool of graphs keyed by
the labelled graph: its own, or the one enumerate_semigroups holds for
every semigroup of one call.

Each row also exists as one int, the row mask: bit v of mask x is set
iff v = xs for some s, so mask x is the set Sx. The unchecked ideal and
prime tests, Γ̄ and the checkers' orbit tests run on these masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

from .errors import (
    EmptyPartListError,
    EmptySetError,
    MalformedTableError,
    OrderTooLargeError,
    ValidationError,
)
from .graph import Graph

POWERSET_GROUND_CAP = 5


@dataclass(frozen=True)
class CayleyTable:
    """Square multiplication table with optional display names.

    Immutable value object; equality and hashing go by entries and names.
    Index 0 is the zero element by convention (enforced by validate, not
    by the constructor).
    """

    order: int
    entries: tuple[tuple[int, ...], ...]
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(tuple(row) for row in self.entries))
        if self.names is not None:
            object.__setattr__(self, "names", tuple(str(x) for x in self.names))

    @classmethod
    def from_rows(cls, rows, names=None) -> "CayleyTable":
        rows = tuple(tuple(r) for r in rows)
        return cls(order=len(rows), entries=rows, names=tuple(names) if names else None)

    def relabeled(self, perm: tuple[int, ...]) -> "CayleyTable":
        """Apply a relabeling (perm[old] = new, perm[0] must be 0)."""
        n = self.order
        new = [[0] * n for _ in range(n)]
        for i in range(n):
            row = self.entries[i]
            pi = perm[i]
            for j in range(n):
                new[pi][perm[j]] = perm[row[j]]
        names = None
        if self.names is not None:
            names = [""] * n
            for i in range(n):
                names[perm[i]] = self.names[i]
        return CayleyTable(order=n, entries=tuple(map(tuple, new)), names=names)


def _check_shape(table: CayleyTable) -> None:
    n = table.order
    if n < 1:
        raise MalformedTableError("order must be at least 1, got %r" % (n,))
    if len(table.entries) != n:
        raise MalformedTableError("expected %d rows, got %d" % (n, len(table.entries)))
    for i, row in enumerate(table.entries):
        if len(row) != n:
            raise MalformedTableError("row %d has length %d, expected %d" % (i, len(row), n))
        for j, v in enumerate(row):
            if not isinstance(v, int) or isinstance(v, bool) or not (0 <= v < n):
                raise MalformedTableError(
                    "entry at (%d, %d) is %r, expected an integer in 0..%d" % (i, j, v, n - 1)
                )
    if table.names is not None:
        if len(table.names) != n:
            raise MalformedTableError(
                "expected %d names, got %d" % (n, len(table.names))
            )
        if len(set(table.names)) != n:
            raise MalformedTableError("names must be distinct")
        for nm in table.names:
            # .sgt splits names at whitespace and drops what follows '#'
            if not nm or "#" in nm or any(c.isspace() for c in nm):
                raise MalformedTableError("name %r is empty or contains whitespace or '#'" % (nm,))


def validate(table: CayleyTable, max_violations: int = 20) -> "Semigroup":
    """Check the semigroup laws and wrap the table on success.

    Verifies that 0 is absorbing, the table is commutative and the
    operation is associative, reporting every violated pair/triple up to
    ``max_violations``, which must be at least 1 (ValueError otherwise,
    before any check). Raises MalformedTableError for shape problems and
    ValidationError for law violations.
    """
    if max_violations < 1:
        raise ValueError("max_violations must be at least 1, got %r" % (max_violations,))
    _check_shape(table)
    n = table.order
    t = table.entries

    def name(x):
        return table.names[x] if table.names else str(x)

    violations = []
    truncated = False

    def add(kind, args, text):
        nonlocal truncated
        if len(violations) < max_violations:
            violations.append((kind, args, text))
        else:
            truncated = True

    for x in range(n):
        if t[0][x] != 0 or t[x][0] != 0:
            add("zero-not-absorbing", (x,), "0*%s or %s*0 is not 0" % (name(x), name(x)))
    for x in range(n):
        for y in range(x + 1, n):
            if t[x][y] != t[y][x]:
                add(
                    "not-commutative",
                    (x, y),
                    "%s*%s = %s but %s*%s = %s"
                    % (name(x), name(y), name(t[x][y]), name(y), name(x), name(t[y][x])),
                )
    # times[y](t[x]) is the row z -> x(yz), compared whole against the
    # row z -> (xy)z; only a pair whose rows differ is checked per z. At
    # order 1 itemgetter returns a bare entry, never equal to a row, so
    # the one pair goes through the per-z check.
    times = [itemgetter(*row) for row in t]
    for x in range(n):
        row_x = t[x]
        for y in range(n):
            xy = row_x[y]
            if t[xy] == times[y](row_x):
                continue
            for z in range(n):
                left = t[xy][z]
                right = t[x][t[y][z]]
                if left != right:
                    add(
                        "not-associative",
                        (x, y, z),
                        "(%s*%s)*%s = %s but %s*(%s*%s) = %s"
                        % (name(x), name(y), name(z), name(left),
                           name(x), name(y), name(z), name(right)),
                    )
    if violations:
        head = "; ".join(v[2] for v in violations[:3])
        more = len(violations) - 3
        if more > 0 or truncated:
            head += "; ... and further violations"
        raise ValidationError(head, violations, truncated)
    return Semigroup(table)


class Semigroup:
    """A validated commutative semigroup with absorbing zero.

    Construct through validate() unless the table is known to be valid.
    Instances are immutable and safe to share; derived data (Γ, Γ̄, the
    annihilator classes and the associated primes) is computed once, on
    first use, and kept on the instance.

    The public methods check their arguments. Private twins such as
    _is_ideal skip that for elements the package chose itself, given in
    any iterable (a repeated element counts once), and internal loops
    read the rows of the table or their masks directly.
    """

    def __init__(self, table: CayleyTable):
        self.table = table
        self.n = table.order
        self._rows = table.entries
        # the pool Γ and Γ̄ are taken from; enumerate_semigroups replaces
        # it with one pool for the whole call
        self._graphs: dict[tuple, Graph] = {}

    # -- basics ---------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Semigroup) and self.table.entries == other.table.entries

    def __hash__(self):
        return hash(self.table.entries)

    def __repr__(self):
        return "Semigroup(order=%d)" % self.n

    @property
    def elements(self) -> range:
        return range(self.n)

    @cached_property
    def labels(self) -> tuple[str, ...]:
        if self.table.names is not None:
            return self.table.names
        return _default_names(self.n)

    def label(self, x: int) -> str:
        return self.labels[x]

    def _check_element(self, x) -> None:
        if not isinstance(x, int) or isinstance(x, bool) or not (0 <= x < self.n):
            raise MalformedTableError("element %r is not an index in 0..%d" % (x, self.n - 1))

    def product(self, x: int, y: int) -> int:
        self._check_element(x)
        self._check_element(y)
        return self._rows[x][y]

    @cached_property
    def _row_masks(self) -> tuple[int, ...]:
        """Row x as a bitmask: bit v is set iff v = xs for some s, so
        mask x is the set Sx."""
        return tuple(map(_bits, self._rows))

    # -- the zero-divisor graphs -----------------------------------------

    def _graph_on_zero_divisors(self, adjacent) -> Graph:
        verts = self._zero_divisor_tuple
        edges = tuple(
            (x, y) for a, x in enumerate(verts) for y in verts[a + 1:] if adjacent(x, y)
        )
        # the labelled graph itself: equal keys give every answer alike
        key = (verts, edges, self.labels)
        g = self._graphs.get(key)
        if g is None:
            g = self._graphs[key] = Graph(verts, edges, self.labels)
        return g

    @cached_property
    def _gamma(self) -> Graph:
        """Γ(S): edge {x,y} iff xy = 0; graph.gamma returns this object."""
        rows = self._rows
        return self._graph_on_zero_divisors(lambda x, y: rows[x][y] == 0)

    @cached_property
    def _gamma_bar(self) -> Graph:
        """Γ̄(S): edge {x,y} iff (xs)y = 0 for every s. As (xs)y = (xy)s,
        that is the row of xy being all 0, its mask being bit 0 alone."""
        rows, rm = self._rows, self._row_masks
        return self._graph_on_zero_divisors(lambda x, y: rm[rows[x][y]] == 1)

    # -- zero divisors and nilpotents -----------------------------------

    @cached_property
    def _zero_divisor_tuple(self) -> tuple[int, ...]:
        # x is a zero divisor iff Ann(x) holds more than 0
        return tuple(sorted(
            x for ann, xs in self._annihilator_classes if len(ann) > 1 for x in xs
        ))

    def zero_divisors(self) -> frozenset[int]:
        """Z(S): elements with a nonzero annihilating partner, plus 0."""
        return frozenset((0,) + self._zero_divisor_tuple)

    def nonzero_zero_divisors(self) -> frozenset[int]:
        """Z(S)*, the vertex set of the zero-divisor graph."""
        return frozenset(self._zero_divisor_tuple)

    @cached_property
    def _nilpotent_tuple(self) -> tuple[int, ...]:
        out = [0]
        for x in range(1, self.n):
            p = x
            for _ in range(self.n):  # x^k = 0 forces k <= n in a finite semigroup
                p = self._rows[p][x]
                if p == 0:
                    out.append(x)
                    break
        return tuple(out)

    def nilpotents(self) -> frozenset[int]:
        """N(S) = {x : x^k = 0 for some k}; always contains 0."""
        return frozenset(self._nilpotent_tuple)

    def is_reduced(self) -> bool:
        """True iff 0 is the only nilpotent element."""
        return self._nilpotent_tuple == (0,)

    # -- ideals ----------------------------------------------------------

    def annihilator(self, x: int) -> frozenset[int]:
        """Ann(x) = {y : xy = 0}; always contains 0."""
        self._check_element(x)
        row = self._rows[x]
        return frozenset(y for y in range(self.n) if row[y] == 0)

    def _members(self, t) -> frozenset[int]:
        members = frozenset(t)
        if not members:
            raise EmptySetError("element set must be non-empty")
        for x in members:
            self._check_element(x)
        return members

    def is_ideal(self, t) -> bool:
        """True iff xS is contained in t for every x in t."""
        return self._is_ideal(self._members(t))

    def _is_ideal(self, members) -> bool:
        # xS is row x of the table: the union of the members' rows must
        # lie within the members
        rm = self._row_masks
        inside = reach = 0
        for x in members:
            inside |= 1 << x
            reach |= rm[x]
        return reach | inside == inside

    def is_prime_ideal(self, p) -> bool:
        """True iff p is an ideal and xSy in p forces x in p or y in p.

        A non-ideal input simply returns False. The quantifier runs over
        all of S, not only over zero divisors.
        """
        return self._is_prime_ideal(self._members(p))

    def _is_prime_ideal(self, members) -> bool:
        if not self._is_ideal(members):
            return False
        inside = _bits(members)
        rows, rm = self._rows, self._row_masks
        outside = [x for x in range(self.n) if not inside >> x & 1]
        for i, x in enumerate(outside):
            row = rows[x]
            for y in outside[i:]:
                # prime demands some s with xsy outside p; xsy = (xy)s,
                # so xSy is the row of xy
                if rm[row[y]] | inside == inside:
                    return False
        return True

    def principal_ideal(self, x: int) -> frozenset[int]:
        """Smallest ideal containing x, i.e. Sx together with x itself."""
        self._check_element(x)
        return frozenset(self._rows[x]) | {x}

    def minimal_ideals(self) -> tuple[frozenset[int], ...]:
        """All nonzero ideals containing no strictly smaller nonzero ideal.

        Every minimal nonzero ideal is principal, so inclusion-minimal
        principal ideals of nonzero elements are exactly the answer.
        """
        principals = {frozenset(self._rows[x]) | {x} for x in range(1, self.n)}
        minimal = [
            p for p in principals
            if not any(q < p for q in principals)
        ]
        minimal.sort(key=sorted)
        return tuple(minimal)

    # -- associated primes ------------------------------------------------

    @cached_property
    def _annihilator_classes(self) -> tuple[tuple[frozenset[int], tuple[int, ...]], ...]:
        """Each distinct Ann(x) of a nonzero x with every x realizing it,
        ordered by least realizing element."""
        classes: dict[frozenset[int], list[int]] = {}
        for x in range(1, self.n):
            ann = frozenset(y for y, xy in enumerate(self._rows[x]) if xy == 0)
            classes.setdefault(ann, []).append(x)
        return tuple((ann, tuple(xs)) for ann, xs in classes.items())

    @cached_property
    def _associated(self) -> tuple[tuple[tuple[int, frozenset[int]], ...], tuple[tuple[int, ...], ...]]:
        """associated_primes(), and the nonzero elements realizing each."""
        found = [
            (xs, ann) for ann, xs in self._annihilator_classes
            if self._is_prime_ideal(ann)
        ]
        return (
            tuple((xs[0], ann) for xs, ann in found),
            tuple(xs for xs, _ in found),
        )

    def associated_primes(self) -> tuple[tuple[int, frozenset[int]], ...]:
        """All pairs (x, Ann(x)) with x nonzero and Ann(x) a prime ideal.

        Deduplicated by set equality; the least witness is retained and
        the result is ordered by witness.
        """
        return self._associated[0]

    @cached_property
    def _maximal_annihilators(self) -> tuple[tuple[int, frozenset[int]], ...]:
        classes = self._annihilator_classes
        return tuple(
            (xs[0], ann)
            for ann, xs in classes
            if not any(ann < other for other, _ in classes)
        )

    def maximal_annihilators(self) -> tuple[tuple[int, frozenset[int]], ...]:
        """Inclusion-maximal annihilators of nonzero elements.

        These are always prime ideals; the lem-2.8 checker looks each one
        up among the associated primes rather than assuming it.
        """
        return self._maximal_annihilators

    # -- zero as an intersection of primes ---------------------------------

    def zero_prime_decomposition(self) -> tuple[frozenset[int], ...] | None:
        """Express {0} as an irredundant intersection of prime ideals.

        The answer is the maximal annihilators, which are prime, sorted
        by their members, or None when they do not meet in {0}. Then no
        family of primes does: a nilpotent lies in every prime ideal, and
        if S is reduced, a nonzero x in every maximal annihilator lies in
        a maximal Ann(w) containing Ann(x), which puts w in Ann(x), inside
        Ann(w), so w*w = 0. The family is irredundant: for distinct
        maximal Ann(v) and Ann(w), vw != 0 would make Ann(vw) contain
        both, so w lies in every other one but not in Ann(w). The
        exhaustive oracle in tests/oracles.py confirms this, and that no
        smaller family of primes meets in {0}, on every table of order
        <= 5.
        """
        if self.n == 1:
            return (frozenset({0}),)  # {0} = S is itself a (vacuous) prime ideal
        primes = sorted((ann for _, ann in self.maximal_annihilators()), key=sorted)
        if frozenset.intersection(*primes) != {0}:
            return None
        return tuple(primes)


def _bits(elements) -> int:
    """The bitmask with bit v set for each v in elements."""
    m = 0
    for v in elements:
        m |= 1 << v
    return m


# -- builders -------------------------------------------------------------


def _default_names(n: int) -> tuple[str, ...]:
    return ("0",) + tuple("x%d" % i for i in range(1, n))


def null_semigroup(n: int) -> Semigroup:
    """Order-n semigroup where every product is 0."""
    if n < 1:
        raise ValueError("order must be at least 1, got %r" % (n,))
    entries = tuple(tuple(0 for _ in range(n)) for _ in range(n))
    return validate(CayleyTable(order=n, entries=entries, names=_default_names(n)))


def powerset_semigroup(n: int) -> Semigroup:
    """Subsets of an n-element set under intersection; empty set is zero.

    Elements are indexed by bitmask, so the product is bitwise AND.
    """
    if not (1 <= n <= POWERSET_GROUND_CAP):
        raise OrderTooLargeError(
            "ground set size must be in 1..%d, got %r" % (POWERSET_GROUND_CAP, n)
        )
    order = 1 << n
    entries = tuple(tuple(i & j for j in range(order)) for i in range(order))
    names = ["0"]
    for mask in range(1, order):
        names.append("{%s}" % ",".join(str(b + 1) for b in range(n) if mask >> b & 1))
    return validate(CayleyTable(order=order, entries=entries, names=names))


def group_with_zero(n: int) -> Semigroup:
    """Cyclic group of order n-1 with a zero adjoined; no zero divisors."""
    if n < 2:
        raise ValueError("order must be at least 2, got %r" % (n,))
    m = n - 1
    entries = [[0] * n for _ in range(n)]
    for i in range(m):
        for j in range(m):
            entries[1 + i][1 + j] = 1 + (i + j) % m
    names = ["0", "e"] + ["g" if k == 1 else "g%d" % k for k in range(1, m)]
    return validate(CayleyTable(order=n, entries=tuple(map(tuple, entries)), names=names))


def orthogonal_union(parts) -> Semigroup:
    """0-orthogonal union: shared zero, cross products all zero.

    Element indexing is 0, then the nonzero elements of each part in
    order. Part labels get a ".k" suffix, which keeps names distinct.
    The parts are validated semigroups, so the union is one by
    construction and is not validated again: within a part the laws
    hold, and any product across parts is 0.
    """
    parts = list(parts)
    if len(parts) < 2:
        raise EmptyPartListError("a 0-orthogonal union needs at least two parts")
    total = 1 + sum(p.n - 1 for p in parts)
    entries = [[0] * total for _ in range(total)]
    names = ["0"]
    off = 0  # part element x >= 1 lands at off + x
    for k, p in enumerate(parts, start=1):
        names += ["%s.%d" % (label, k) for label in p.labels[1:]]
        for x in range(1, p.n):
            entries[off + x][off + 1:off + p.n] = [
                0 if v == 0 else off + v for v in p._rows[x][1:]
            ]
        off += p.n - 1
    return Semigroup(CayleyTable(order=total, entries=tuple(map(tuple, entries)), names=names))
