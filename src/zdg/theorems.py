"""Structure checks tying graph shape to ideal structure.

Every check inspects one concrete semigroup and returns a tuple of
clause verdicts. Clause ids such as "thm-2.2-median" and check names
such as "chromatic" are stable interface strings used by the command
line, reports and the corpus audit.

A check decides each clause, applicable and holds, from the row masks
and the answers cached on Γ, and counts and compares rather than lists.
The witness, enough data to re-verify the clause with the primitive
operations alone, is a builder over the semigroup and its graph: it
runs when the verdict's witness is first read. A report reads every
witness it prints; audit reads only those of failed clauses. Where a
decision and its witness walk the same structure (the bonds of a cut,
the bridges, the associated primes, the nilpotents) both read one helper
or one list of per-item outcomes, so the two cannot drift apart.

Three clauses verify a weakened form of the classical statement because
the literal form fails on small valid tables (a witness is recorded for
the literal outcome in each case): the edge-cutset clause, the leaf
side of the bridge clause, and the all-parts-at-least-two clause.
"""

from __future__ import annotations

import math

from .graph import (
    DEFAULT_CUTSET_CAP,
    _positions,
    bonds,
    center,
    chromatic_number,
    clique_number,
    complete_multipartite_partition,
    gamma,
    girth,
    has_clique_of_size,
    median,
    metrics,
    minimal_vertex_cutsets,
)
from .semigroup import _bits


class Verdict:
    """Outcome of one clause of a structure check, built only by _v.

    holds is forced to True whenever the clause is not applicable, so a
    vacuous verdict can never read as a failure; failed is the one flag
    audits need. witness is a dict, or a function of no arguments that
    builds it: the first read calls the function and keeps its dict, so
    a verdict nobody reads the witness of never builds one. Verdicts
    compare by their five fields, witness contents included.
    """

    __slots__ = ("theorem_id", "applicable", "holds", "notes", "_witness")

    def __init__(self, theorem_id, applicable, holds, witness, notes=""):
        self.theorem_id = theorem_id
        self.applicable = applicable
        self.holds = holds
        self._witness = witness
        self.notes = notes

    @property
    def witness(self) -> dict:
        w = self._witness
        if callable(w):
            w = self._witness = w()
        return w

    @property
    def failed(self) -> bool:
        return self.applicable and not self.holds

    def _values(self) -> tuple:
        return self.theorem_id, self.applicable, self.holds, self.witness, self.notes

    def __eq__(self, other):
        if not isinstance(other, Verdict):
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        return "Verdict(theorem_id=%r, applicable=%r, holds=%r, witness=%r, notes=%r)" % (
            self._values()
        )


def _v(theorem_id, applicable, holds, witness=dict, notes=""):
    """A clause verdict; witness is a builder (the default builds {}) or a dict."""
    return Verdict(theorem_id, applicable, bool(holds) if applicable else True, witness, notes)


def _listed(mask) -> list[int]:
    """The bits of mask in ascending order; Sx as a sorted list when mask
    is row x's mask."""
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


# -- nilpotent subgraph -------------------------------------------------------


def check_nilpotent_subgraph(s) -> tuple[Verdict, ...]:
    """Nonzero nilpotents must induce a connected subgraph of diameter <= 2."""
    nil = s._nilpotent_tuple[1:]
    if not nil:
        return (_v(
            "prop-2.1-nilpotent-subgraph", False, True,
            lambda: {"nilpotents": []}, "no nonzero nilpotent elements",
        ),)
    sub = gamma(s).induced(nil)
    # a disconnected graph has diameter inf; connected is for the witness
    connected, diameter = sub.is_connected(), metrics(sub).diameter
    return (_v(
        "prop-2.1-nilpotent-subgraph", True, diameter <= 2,
        lambda: {"nilpotents": list(nil), "connected": connected, "diameter": diameter},
        "induced subgraph on nonzero nilpotents is connected with diameter <= 2",
    ),)


# -- median and center --------------------------------------------------------


def check_median_center_ideals(s) -> tuple[Verdict, ...]:
    """Median and center vertex sets, each joined with 0, must be ideals."""
    g = gamma(s)
    if g.n == 0:
        return (
            _v("thm-2.2-median", False, True, lambda: {"vertices": []}, "graph has no vertices"),
            _v("thm-2.4-center", False, True, lambda: {"vertices": []}, "graph has no vertices"),
        )
    med, cen = median(g), center(g)
    return (
        _v(
            "thm-2.2-median", True, s._is_ideal((0, *med)),
            lambda: {"median": sorted(med)},
            "median vertices with 0 form an ideal",
        ),
        _v(
            "thm-2.4-center", True, s._is_ideal((0, *cen)),
            lambda: {"center": sorted(cen)},
            "center vertices with 0 form an ideal",
        ),
    )


# -- cut vertices and cutsets -------------------------------------------------


def _escapes(rm, ends) -> dict[int, int]:
    """Each endpoint x of a cut whose Sx leaves V(T) with 0, ascending,
    mapped to the mask of Sx outside V(T) and 0; ends is V(T) as a mask.
    V(T) with 0 is an ideal exactly when there are none (S0 = {0})."""
    outside = ~(ends | 1)
    return {x: escape for x in _positions(ends) if (escape := rm[x] & outside)}


def _bond_holds(escapes, sides) -> bool:
    """cor-2.6 on one bond, given its _escapes: no escaping endpoint on a
    side of >= 2 vertices, and none at all when both sides are that
    large."""
    if not escapes:
        return True
    large = [side for side in sides if len(side) >= 2]
    return len(large) < 2 and not any(x in side for side in large for x in escapes)


def check_cut_structures(s, size_cap: int = DEFAULT_CUTSET_CAP) -> tuple[Verdict, ...]:
    """Separator structure: cut vertices, vertex cutsets, edge cutsets.

    The cut vertices are read off the one-vertex cutsets of the one
    vertex-cutset search, so size_cap must be at least 1.
    """
    if size_cap < 1:
        raise ValueError("size_cap must be at least 1, got %r" % (size_cap,))
    g = gamma(s)
    rm = s._row_masks
    clauses = []
    vcs = minimal_vertex_cutsets(g, size_cap)

    cvs = [x for t in vcs if len(t) == 1 for x in t]
    if not cvs:
        clauses.append(_v("cor-2.3-cut-vertices", False, True, notes="no cut vertices"))
    else:
        # per cut vertex x: {0,x} is an ideal, x is adjacent to every other
        # vertex, x lies in Sx
        facts = [
            (s._is_ideal((0, x)), g.degree(x) == g.n - 1, rm[x] >> x & 1 == 1) for x in cvs
        ]
        clauses.append(_v(
            "cor-2.3-cut-vertices", True,
            all(ideal_ok and (adj_all or in_sx) for ideal_ok, adj_all, in_sx in facts),
            lambda: {"cut_vertices": [
                {"vertex": x, "pair_ideal": ideal_ok, "adjacent_to_all": adj_all,
                 "in_own_orbit": in_sx}
                for x, (ideal_ok, adj_all, in_sx) in zip(cvs, facts)
            ]},
            "{0,x} is an ideal and x is adjacent to every vertex or x in Sx",
        ))

    if not vcs:
        clauses.append(_v(
            "thm-2.2-minimal-vertex-cutsets", False, True,
            lambda: {"size_cap": size_cap}, "no minimal vertex cutsets within the cap",
        ))
    else:
        cutset_ideal = [s._is_ideal((0, *t)) for t in vcs]
        clauses.append(_v(
            "thm-2.2-minimal-vertex-cutsets", True, all(cutset_ideal),
            lambda: {"size_cap": size_cap, "cutsets": [
                {"cutset": sorted(t), "ideal": ideal} for t, ideal in zip(vcs, cutset_ideal)
            ]},
            "every minimal vertex cutset with 0 forms an ideal",
        ))

    ecs = bonds(g, size_cap)
    if not ecs:
        clauses.append(_v(
            "cor-2.6-minimal-edge-cutsets", False, True,
            lambda: {"size_cap": size_cap}, "no minimal edge cutsets within the cap",
        ))
    else:
        # V(T) as a mask per bond: the endpoints of the edges of its cut T
        ends_per_bond = [_bits(v for edge in cut for v in edge) for cut, _ in ecs]
        escapes_per_bond = [_escapes(rm, ends) for ends in ends_per_bond]

        def bond_records():
            recs = []
            for (cut, sides), ends, escapes in zip(ecs, ends_per_bond, escapes_per_bond):
                vt = _listed(ends)
                side_recs = []
                for side in sides:
                    crossing = [x for x in vt if x in side]
                    rec = {"side": sorted(side), "endpoints": crossing}
                    if len(side) >= 2:
                        rec["orbit_escapes"] = {
                            x: _listed(escape) for x, escape in escapes.items() if x in side
                        }
                        rec["literal_side_ideal"] = s._is_ideal(crossing + [0])
                    side_recs.append(rec)
                recs.append({
                    "cutset": [list(e) for e in cut],
                    "sides": side_recs,
                    "both_sides_large": all(len(side) >= 2 for side in sides),
                    "endpoint_union_ideal": not escapes,
                })
            return {"size_cap": size_cap, "cutsets": recs}

        clauses.append(_v(
            "cor-2.6-minimal-edge-cutsets", True,
            all(_bond_holds(escapes, sides)
                for escapes, (_, sides) in zip(escapes_per_bond, ecs)),
            bond_records,
            "endpoints on a side with >= 2 vertices satisfy Sx within "
            "V(T)+{0}; with both sides that large V(T)+{0} is an ideal "
            "(per-side literal ideal outcomes are witness data only)",
        ))

    return tuple(clauses)


# -- bridges ------------------------------------------------------------------


def _bridge_kinds(g) -> tuple[list, list]:
    """Γ's bridges by their sides: (x, y) for each bridge with >= 2
    vertices on both sides, and (x, y, w, z) for each endpoint w alone on
    its side, z being the other endpoint."""
    two_sided, leaves = [], []
    for ((x, y),), (a, b) in bonds(g, 1):
        # a bridge's endpoints lie on opposite sides
        nx, ny = (len(a), len(b)) if x in a else (len(b), len(a))
        if nx >= 2 and ny >= 2:
            two_sided.append((x, y))
            continue
        if nx == 1:
            leaves.append((x, y, x, y))
        if ny == 1:
            leaves.append((x, y, y, x))
    return two_sided, leaves


def check_bridge(s) -> tuple[Verdict, ...]:
    """Bridge edges force tiny ideals around their endpoints."""
    g = gamma(s)
    rm = s._row_masks
    two_sided, leaves = _bridge_kinds(g)
    # both sides of a bridge hold one vertex only when Γ is that edge
    one_edge = g.n == 2

    def two_sided_records():
        minimal_members = set(s.minimal_ideals()) if two_sided else ()
        return {"bridges": [
            {
                "bridge": [x, y],
                "Sx": _listed(rm[x]),
                "Sy": _listed(rm[y]),
                "minimal_ideals": [frozenset({0, v}) in minimal_members for v in (x, y)],
            }
            for x, y in two_sided
        ]}

    def leaf_records():
        return {"bridges": [
            {
                "bridge": [x, y],
                "leaf": w,
                "neighbor": z,
                "S_neighbor": _listed(rm[z]),
                "literal_triple_ideal": s._is_ideal((0, x, y)),
            }
            for x, y, w, z in leaves
        ]}

    return (
        _v(
            "thm-2.5-bridge-two-sided", bool(two_sided),
            all(rm[x] == 1 | 1 << x and rm[y] == 1 | 1 << y for x, y in two_sided),
            two_sided_records,
            "with >= 2 vertices on both sides, Sx = {0,x} and Sy = {0,y} "
            "are minimal ideals",
        ),
        _v(
            "thm-2.5-bridge-leaf", bool(leaves),
            all(
                rm[z] & ~(1 | 1 << w | 1 << z) == 0 and (not one_edge or s._is_ideal((0, x, y)))
                for x, y, w, z in leaves
            ),
            leaf_records,
            "a degree-1 endpoint w with neighbor z forces Sz within {0,w,z}; "
            "{0,w,z} being an ideal is required only when the graph is that "
            "single edge (otherwise recorded as witness data)",
        ),
    )


# -- annihilators and associated primes ----------------------------------------


def _violations(rows, realizers):
    """Pairs x, y realizing distinct associated primes with xy != 0, in
    the order of the primes, then of x, then of y."""
    for i, xs in enumerate(realizers):
        for ys in realizers[i + 1:]:
            for x in xs:
                row = rows[x]
                for y in ys:
                    if row[y] != 0:
                        yield x, y


def check_ass_properties(s) -> tuple[Verdict, ...]:
    """Maximal annihilators are prime; associated primes shape the graph."""
    clauses = []

    maxanns = s.maximal_annihilators()
    if not maxanns:
        clauses.append(_v(
            "lem-2.8-maximal-annihilators", False, True,
            notes="no nonzero elements, hence no annihilators to inspect",
        ))
    else:
        # _associated tested every annihilator class, the maximal ones too
        primes = {p for _, p in s.associated_primes()}
        clauses.append(_v(
            "lem-2.8-maximal-annihilators", True,
            all(a in primes for _, a in maxanns),
            lambda: {"maximal_annihilators": [
                {"witness": w, "annihilator": sorted(a), "prime": a in primes}
                for w, a in maxanns
            ]},
            "every inclusion-maximal annihilator of a nonzero element is prime",
        ))

    pairs, realizers = s._associated
    k = len(pairs)

    def ass_witness():
        return {
            "associated_primes": [sorted(p) for _, p in pairs],
            "realizing_elements": [list(xs) for xs in realizers],
        }

    if k < 2:
        clauses.append(_v(
            "prop-2.9a-pairwise-products", False, True, ass_witness,
            "fewer than two associated primes",
        ))
    else:
        clauses.append(_v(
            "prop-2.9a-pairwise-products", True,
            next(_violations(s._rows, realizers), None) is None,
            lambda: dict(ass_witness(), violations=[
                [x, y] for x, y in _violations(s._rows, realizers)
            ]),
            "elements realizing distinct associated primes multiply to 0",
        ))

    if k < 3:
        clauses.append(_v(
            "prop-2.9b-girth-3", False, True, lambda: {"count": k},
            "fewer than three associated primes",
        ))
    else:
        gi = girth(gamma(s))
        clauses.append(_v(
            "prop-2.9b-girth-3", True, gi == 3, lambda: {"count": k, "girth": gi},
            "three or more associated primes force girth 3",
        ))

    if k < 5:
        clauses.append(_v(
            "prop-2.9c-clique-5", False, True, lambda: {"count": k},
            "fewer than five associated primes",
        ))
    else:
        clauses.append(_v(
            "prop-2.9c-clique-5", True, has_clique_of_size(gamma(s), 5), lambda: {"count": k},
            "five or more associated primes force a 5-clique "
            "(a non-planarity witness)",
        ))

    return tuple(clauses)


# -- complete multipartite structure -------------------------------------------


def check_rpartite(s) -> tuple[Verdict, ...]:
    """Complete multipartite graphs reflect into ideal structure. rem-3.2a's
    hypothesis, no nonzero square is 0, is reducedness: if x^k = 0 with
    k >= 2 least, x^(k-1) is nonzero and squares to 0."""
    g = gamma(s)
    parts = complete_multipartite_partition(g) or None
    reduced = s.is_reduced()
    smallest = min(len(p) for p in parts) if parts else None
    # thm-3.1 (reduced) and thm-3.6 (all parts >= 2) share one test per part
    tested = parts if parts is not None and (reduced or smallest >= 2) else ()
    part_ideal = {p: s._is_ideal((0, *p)) for p in tested}
    clauses = []

    def partition():
        return [sorted(p) for p in parts] if parts else None

    if parts is None:
        clauses.append(_v(
            "thm-3.1-parts-ideals-primes", False, True, lambda: {"partition": None},
            "graph is empty or not complete multipartite",
        ))
        clauses.append(_v(
            "rem-3.2a-weakened-hypothesis", False, True, lambda: {"partition": None},
            "graph is empty or not complete multipartite",
        ))
    elif not reduced:
        clauses.append(_v(
            "thm-3.1-parts-ideals-primes", False, True,
            lambda: {"partition": partition(), "reduced": False},
            "semigroup is not reduced",
        ))
        clauses.append(_v(
            "rem-3.2a-weakened-hypothesis", False, True,
            lambda: {"partition": partition(), "squares_nonzero": False},
            "some nonzero element squares to zero",
        ))
    else:
        zstar = frozenset(g.vertices)
        complement_prime = [s._is_prime_ideal((zstar - p) | {0}) for p in parts]

        def part_records():
            return {"parts": [
                {"part": sorted(p), "part_ideal": part_ideal[p], "complement_prime": prime}
                for p, prime in zip(parts, complement_prime)
            ]}

        ok = all(part_ideal.values()) and all(complement_prime)
        clauses.append(_v(
            "thm-3.1-parts-ideals-primes", True, ok, part_records,
            "reduced and complete multipartite: each part with 0 is an "
            "ideal and each complement is a prime ideal",
        ))
        clauses.append(_v(
            "rem-3.2a-weakened-hypothesis", True, ok, part_records,
            "nonzero squares stay nonzero: the partition conclusions "
            "follow as under reducedness",
        ))

    if reduced and g.n >= 1 and g.is_bipartite():
        clauses.append(_v(
            "rem-3.2b-complete-bipartite", True,
            parts is not None and len(parts) == 2,
            lambda: {"partition": partition()},
            "a reduced semigroup with bipartite graph has a complete "
            "bipartite graph",
        ))
    else:
        clauses.append(_v(
            "rem-3.2b-complete-bipartite", False, True,
            notes="inapplicable unless reduced with a nonempty bipartite graph",
        ))

    ass = s.associated_primes()
    if len(ass) == 2:
        (_, p1), (_, p2) = ass
        hyp = len(p1) >= 3 and len(p2) >= 3 and (p1 & p2) == {0}
    else:
        hyp = False
    if hyp:
        gi = girth(g)
        clauses.append(_v(
            "cor-3.3-girth-4", True, gi == 4,
            lambda: {"primes": [sorted(p1), sorted(p2)], "girth": gi},
            "two associated primes of size >= 3 meeting only in 0 force "
            "girth 4",
        ))
    else:
        clauses.append(_v(
            "cor-3.3-girth-4", False, True, lambda: {"ass_count": len(ass)},
            "needs exactly two associated primes of size >= 3 meeting "
            "only in 0",
        ))

    if parts is not None and smallest >= 2:
        nil = s._nilpotent_tuple[1:]
        rm = s._row_masks
        square_zero = [s._rows[x][x] == 0 for x in nil]
        per_part_nil = [sum(1 for x in nil if x in p) for p in parts]

        def all_parts_large_records():
            return {
                "part_ideals": [
                    {"part": sorted(p), "ideal": part_ideal[p]} for p in sorted(parts, key=sorted)
                ],
                "nilpotents": [
                    {"square_zero": zero, "orbit": _listed(rm[x]), "element": x}
                    for x, zero in zip(nil, square_zero)
                ],
                "nilpotents_per_part": per_part_nil,
                "literal_reduced": reduced,
            }

        clauses.append(_v(
            "thm-3.6-reduced", True,
            all(part_ideal.values())
            and all(square_zero)
            and all(rm[x] & ~(1 | 1 << x) == 0 for x in nil)
            and all(c <= 1 for c in per_part_nil),
            all_parts_large_records,
            "all parts of size >= 2: each part with 0 is an ideal, nonzero "
            "nilpotents square to zero with Sx = {0,x}, and no part holds "
            "two of them; reducedness itself can fail and is recorded as "
            "witness data only",
        ))
    else:
        clauses.append(_v(
            "thm-3.6-reduced", False, True,
            lambda: {"part_sizes": sorted(len(p) for p in parts) if parts else None},
            "needs a complete multipartite graph with every part of size >= 2",
        ))

    return tuple(clauses)


# -- chromatic and clique numbers ----------------------------------------------


def check_chromatic(s) -> tuple[Verdict, ...]:
    """Coloring facts, tied to prime decompositions of zero."""
    g = gamma(s)
    chi = chromatic_number(g)[0]
    omega = clique_number(g)[0]
    dec = s.zero_prime_decomposition()
    k = len(dec) if dec is not None else None
    reduced = s.is_reduced()

    return (
        _v(
            "fact-chi-ge-omega", True, omega <= chi,
            lambda: {"chi": chi, "omega": omega},
            "chromatic number is at least the clique number",
        ),
        _v(
            "thm-4.1-decomposition-exists", reduced, dec is not None,
            lambda: {"reduced": reduced, "prime_count": k},
            "a reduced semigroup decomposes zero as an intersection of primes",
        ),
        _v(
            "thm-4.1-coloring-bound", dec is not None,
            chi <= k if dec is not None else True,
            lambda: {"chi": chi, "prime_count": k},
            "a k-prime decomposition of zero yields a proper k-coloring",
        ),
        _v(
            "cor-4.2-chi-omega-count",
            reduced and dec is not None and k >= 2,
            chi == omega == k,
            lambda: {"chi": chi, "omega": omega, "prime_count": k},
            "reduced with a minimal decomposition into n >= 2 primes: "
            "chi = omega = n (a single prime allows an empty graph where "
            "both numbers are 0)",
        ),
        _v(
            "thm-4.4-chi-omega-small", chi <= 2 or omega <= 2,
            all((chi == n) == (omega == n) for n in (1, 2)),
            lambda: {"chi": chi, "omega": omega},
            "for n <= 2, chi = n exactly when omega = n",
        ),
    )


# -- background facts -----------------------------------------------------------


def check_gamma_facts(s) -> tuple[Verdict, ...]:
    """Background facts every zero-divisor graph satisfies.

    Connectedness with diameter <= 3 and girth in {3, 4, infinity} are
    classical; auditing them guards the graph layer itself. The corpus
    audit runs this check; run_all leaves it out.
    """
    g = gamma(s)
    if g.n == 0:
        return (_v("dms-gamma-facts", False, True, notes="graph has no vertices"),)
    # a disconnected graph has diameter inf, so diameter <= 3 reads connectedness
    diameter, gi = metrics(g).diameter, girth(g)
    return (_v(
        "dms-gamma-facts", True,
        diameter <= 3 and (gi == 3 or gi == 4 or gi == math.inf),
        lambda: {"vertices": g.n, "diameter": diameter, "girth": gi},
        "connected, diameter <= 3, girth 3, 4 or infinite",
    ),)


# -- aggregation ---------------------------------------------------------------


def run_all(s, size_cap: int = DEFAULT_CUTSET_CAP) -> dict[str, tuple[Verdict, ...]]:
    """Each check name mapped to its clause verdicts, in a fixed order."""
    return {
        "nilpotent-subgraph": check_nilpotent_subgraph(s),
        "median-center": check_median_center_ideals(s),
        "cut-structures": check_cut_structures(s, size_cap),
        "bridges": check_bridge(s),
        "associated-primes": check_ass_properties(s),
        "rpartite": check_rpartite(s),
        "chromatic": check_chromatic(s),
    }


def failures(checks) -> tuple[Verdict, ...]:
    """Applicable-and-failing clauses of a run_all result; counterexample
    candidates."""
    return tuple(c for clauses in checks.values() for c in clauses if c.failed)


def matches_selector(theorem_id: str, selector: str) -> bool:
    """True if an id matches a selector like "2.2", "2.9", "cut" or "all".

    The id is a clause id or a check name. Number tokens may carry a
    letter suffix ("2.9a"), which a bare numeric selector also matches.
    Full ids match themselves.
    """
    if selector in (None, "", "all", theorem_id):
        return True
    for tok in theorem_id.split("-"):
        if tok == selector or tok.rstrip("abcdefghijklmnopqrstuvwxyz") == selector:
            return True
    return False
