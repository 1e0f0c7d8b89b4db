"""Structure checks tying graph shape to ideal structure.

Every check inspects one concrete semigroup and returns a tuple of
clause verdicts, each with a witness holding enough data to re-verify
the clause with the primitive operations alone. Clause ids such as
"thm-2.2-median" and check names such as "chromatic" are stable
interface strings used by the command line, reports and the corpus
audit.

Three clauses verify a weakened form of the classical statement because
the literal form fails on small valid tables (a witness is recorded for
the literal outcome in each case): the edge-cutset clause, the leaf
side of the bridge clause, and the all-parts-at-least-two clause.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .graph import (
    DEFAULT_CUTSET_CAP,
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


class Verdict(NamedTuple):
    """Outcome of one clause of a structure check, built only by _v.

    holds is forced to True whenever the clause is not applicable, so a
    vacuous verdict can never read as a failure; failed is the one flag
    audits need. witness has no default: a class-level {} would be one
    dict shared by every verdict.
    """

    theorem_id: str
    applicable: bool
    holds: bool
    witness: dict
    notes: str = ""

    @property
    def failed(self) -> bool:
        return self.applicable and not self.holds


def _v(theorem_id, applicable, holds, witness=None, notes=""):
    return Verdict(
        theorem_id, applicable, bool(holds) if applicable else True, witness or {}, notes,
    )


def _listed(mask) -> list[int]:
    """The bits of mask in ascending order; Sx as a sorted list when mask
    is row x's mask."""
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


# -- nilpotent subgraph -------------------------------------------------------


def check_nilpotent_subgraph(s) -> tuple[Verdict, ...]:
    """Nonzero nilpotents must induce a connected subgraph of diameter <= 2."""
    nstar = list(s._nilpotent_tuple[1:])
    if not nstar:
        clause = _v(
            "prop-2.1-nilpotent-subgraph", False, True,
            {"nilpotents": []}, "no nonzero nilpotent elements",
        )
    else:
        sub = gamma(s).induced(nstar)
        connected, diameter = sub.is_connected(), metrics(sub).diameter
        clause = _v(
            "prop-2.1-nilpotent-subgraph", True, connected and diameter <= 2,
            {"nilpotents": nstar, "connected": connected, "diameter": diameter},
            "induced subgraph on nonzero nilpotents is connected with diameter <= 2",
        )
    return (clause,)


# -- median and center --------------------------------------------------------


def check_median_center_ideals(s) -> tuple[Verdict, ...]:
    """Median and center vertex sets, each joined with 0, must be ideals."""
    g = gamma(s)
    if g.n == 0:
        empty = {"vertices": []}
        return (
            _v("thm-2.2-median", False, True, empty, "graph has no vertices"),
            _v("thm-2.4-center", False, True, empty, "graph has no vertices"),
        )
    med = sorted(median(g))
    cen = sorted(center(g))
    return (
        _v(
            "thm-2.2-median", True, s._is_ideal(med + [0]),
            {"median": med},
            "median vertices with 0 form an ideal",
        ),
        _v(
            "thm-2.4-center", True, s._is_ideal(cen + [0]),
            {"center": cen},
            "center vertices with 0 form an ideal",
        ),
    )


# -- cut vertices and cutsets -------------------------------------------------


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
        clauses.append(_v("cor-2.3-cut-vertices", False, True, {}, "no cut vertices"))
    else:
        recs = []
        ok = True
        for x in cvs:
            ideal_ok = s._is_ideal((0, x))
            adj_all = g.degree(x) == g.n - 1
            in_sx = rm[x] >> x & 1 == 1
            recs.append({
                "vertex": x,
                "pair_ideal": ideal_ok,
                "adjacent_to_all": adj_all,
                "in_own_orbit": in_sx,
            })
            ok = ok and ideal_ok and (adj_all or in_sx)
        clauses.append(_v(
            "cor-2.3-cut-vertices", True, ok, {"cut_vertices": recs},
            "{0,x} is an ideal and x is adjacent to every vertex or x in Sx",
        ))

    if not vcs:
        clauses.append(_v(
            "thm-2.2-minimal-vertex-cutsets", False, True,
            {"size_cap": size_cap}, "no minimal vertex cutsets within the cap",
        ))
    else:
        recs = []
        ok = True
        for t in vcs:
            ideal_ok = s._is_ideal((0, *t))
            recs.append({"cutset": sorted(t), "ideal": ideal_ok})
            ok = ok and ideal_ok
        clauses.append(_v(
            "thm-2.2-minimal-vertex-cutsets", True, ok,
            {"size_cap": size_cap, "cutsets": recs},
            "every minimal vertex cutset with 0 forms an ideal",
        ))

    ecs = bonds(g, size_cap)
    if not ecs:
        clauses.append(_v(
            "cor-2.6-minimal-edge-cutsets", False, True,
            {"size_cap": size_cap}, "no minimal edge cutsets within the cap",
        ))
    else:
        recs = []
        ok = True
        for cut, sides in ecs:
            ends = 0
            for x, y in cut:
                ends |= 1 << x | 1 << y
            vt = _listed(ends)
            # the endpoints whose Sx leaves V(T) with 0; that set is an
            # ideal exactly when there are none (S0 = {0})
            outside_vt = ~(ends | 1)
            escaping = [x for x in vt if rm[x] & outside_vt]
            full_ideal = not escaping
            side_recs = []
            cut_ok = True
            for side in sides:
                crossing = [x for x in vt if x in side]
                rec = {"side": sorted(side), "endpoints": crossing}
                if len(side) >= 2:
                    bad = {x: _listed(rm[x] & outside_vt) for x in escaping if x in side}
                    rec["orbit_escapes"] = bad
                    rec["literal_side_ideal"] = s._is_ideal(crossing + [0])
                    cut_ok = cut_ok and not bad
                side_recs.append(rec)
            both_big = all(len(side) >= 2 for side in sides)
            if both_big:
                cut_ok = cut_ok and full_ideal
            recs.append({
                "cutset": [list(e) for e in cut],
                "sides": side_recs,
                "both_sides_large": both_big,
                "endpoint_union_ideal": full_ideal,
            })
            ok = ok and cut_ok
        clauses.append(_v(
            "cor-2.6-minimal-edge-cutsets", True, ok,
            {"size_cap": size_cap, "cutsets": recs},
            "endpoints on a side with >= 2 vertices satisfy Sx within "
            "V(T)+{0}; with both sides that large V(T)+{0} is an ideal "
            "(per-side literal ideal outcomes are witness data only)",
        ))

    return tuple(clauses)


# -- bridges ------------------------------------------------------------------


def check_bridge(s) -> tuple[Verdict, ...]:
    """Bridge edges force tiny ideals around their endpoints."""
    g = gamma(s)
    rm = s._row_masks
    two_recs = []
    leaf_recs = []
    two_ok = True
    leaf_ok = True
    minimal_members = None
    for ((x, y),), (a, b) in bonds(g, 1):
        # a bridge's endpoints lie on opposite sides
        nx, ny = (len(a), len(b)) if x in a else (len(b), len(a))
        if nx >= 2 and ny >= 2:
            if minimal_members is None:
                minimal_members = set(s.minimal_ideals())
            ok = rm[x] == 1 | 1 << x and rm[y] == 1 | 1 << y
            two_recs.append({
                "bridge": [x, y],
                "Sx": _listed(rm[x]),
                "Sy": _listed(rm[y]),
                "minimal_ideals": [
                    frozenset({0, v}) in minimal_members for v in (x, y)
                ],
            })
            two_ok = two_ok and ok
        else:
            literal = s._is_ideal((0, x, y))
            for w, z, nw in ((x, y, nx), (y, x, ny)):
                if nw != 1:
                    continue
                ok = rm[z] & ~(1 | 1 << w | 1 << z) == 0
                if nx == ny == 1:  # graph is one edge
                    ok = ok and literal
                leaf_recs.append({
                    "bridge": [x, y],
                    "leaf": w,
                    "neighbor": z,
                    "S_neighbor": _listed(rm[z]),
                    "literal_triple_ideal": literal,
                })
                leaf_ok = leaf_ok and ok
    return (
        _v(
            "thm-2.5-bridge-two-sided", bool(two_recs), two_ok,
            {"bridges": two_recs},
            "with >= 2 vertices on both sides, Sx = {0,x} and Sy = {0,y} "
            "are minimal ideals",
        ),
        _v(
            "thm-2.5-bridge-leaf", bool(leaf_recs), leaf_ok,
            {"bridges": leaf_recs},
            "a degree-1 endpoint w with neighbor z forces Sz within {0,w,z}; "
            "{0,w,z} being an ideal is required only when the graph is that "
            "single edge (otherwise recorded as witness data)",
        ),
    )


# -- annihilators and associated primes ----------------------------------------


def check_ass_properties(s) -> tuple[Verdict, ...]:
    """Maximal annihilators are prime; associated primes shape the graph."""
    clauses = []

    maxanns = s.maximal_annihilators()
    if not maxanns:
        clauses.append(_v(
            "lem-2.8-maximal-annihilators", False, True, {},
            "no nonzero elements, hence no annihilators to inspect",
        ))
    else:
        # _associated tested every annihilator class, the maximal ones too
        primes = {p for _, p in s.associated_primes()}
        recs = [
            {"witness": w, "annihilator": sorted(a), "prime": a in primes}
            for w, a in maxanns
        ]
        clauses.append(_v(
            "lem-2.8-maximal-annihilators", True,
            all(r["prime"] for r in recs),
            {"maximal_annihilators": recs},
            "every inclusion-maximal annihilator of a nonzero element is prime",
        ))

    pairs, witnesses = s._associated
    k = len(pairs)
    ass_witness = {
        "associated_primes": [sorted(p) for _, p in pairs],
        "realizing_elements": [list(xs) for xs in witnesses],
    }

    if k < 2:
        clauses.append(_v(
            "prop-2.9a-pairwise-products", False, True, ass_witness,
            "fewer than two associated primes",
        ))
    else:
        violations = []
        for i in range(k):
            for j in range(i + 1, k):
                for x in witnesses[i]:
                    for y in witnesses[j]:
                        if s._rows[x][y] != 0:
                            violations.append([x, y])
        clauses.append(_v(
            "prop-2.9a-pairwise-products", True, not violations,
            dict(ass_witness, violations=violations),
            "elements realizing distinct associated primes multiply to 0",
        ))

    if k < 3:
        clauses.append(_v(
            "prop-2.9b-girth-3", False, True, {"count": k},
            "fewer than three associated primes",
        ))
    else:
        gi = girth(gamma(s))
        clauses.append(_v(
            "prop-2.9b-girth-3", True, gi == 3, {"count": k, "girth": gi},
            "three or more associated primes force girth 3",
        ))

    if k < 5:
        clauses.append(_v(
            "prop-2.9c-clique-5", False, True, {"count": k},
            "fewer than five associated primes",
        ))
    else:
        present = has_clique_of_size(gamma(s), 5)
        clauses.append(_v(
            "prop-2.9c-clique-5", True, present, {"count": k},
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
    partition = [sorted(p) for p in parts] if parts else None
    reduced = s.is_reduced()
    part_sizes = sorted(len(p) for p in parts) if parts else None
    # thm-3.1 (reduced) and thm-3.6 (all parts >= 2) share one test per part
    tested = parts if parts is not None and (reduced or part_sizes[0] >= 2) else ()
    part_ideal = {p: s._is_ideal((0, *p)) for p in tested}
    clauses = []

    if parts is None:
        na = {"partition": None}
        clauses.append(_v(
            "thm-3.1-parts-ideals-primes", False, True, na,
            "graph is empty or not complete multipartite",
        ))
        clauses.append(_v(
            "rem-3.2a-weakened-hypothesis", False, True, na,
            "graph is empty or not complete multipartite",
        ))
    elif not reduced:
        clauses.append(_v(
            "thm-3.1-parts-ideals-primes", False, True,
            {"partition": partition, "reduced": False},
            "semigroup is not reduced",
        ))
        clauses.append(_v(
            "rem-3.2a-weakened-hypothesis", False, True,
            {"partition": partition, "squares_nonzero": False},
            "some nonzero element squares to zero",
        ))
    else:
        zstar = frozenset(g.vertices)
        recs = [
            {"part": sorted(p), "part_ideal": part_ideal[p],
             "complement_prime": s._is_prime_ideal((zstar - p) | {0})}
            for p in parts
        ]
        ok = all(r["part_ideal"] and r["complement_prime"] for r in recs)
        clauses.append(_v(
            "thm-3.1-parts-ideals-primes", True, ok, {"parts": recs},
            "reduced and complete multipartite: each part with 0 is an "
            "ideal and each complement is a prime ideal",
        ))
        clauses.append(_v(
            "rem-3.2a-weakened-hypothesis", True, ok, {"parts": recs},
            "nonzero squares stay nonzero: the partition conclusions "
            "follow as under reducedness",
        ))

    if reduced and g.n >= 1 and g.is_bipartite():
        clauses.append(_v(
            "rem-3.2b-complete-bipartite", True,
            parts is not None and len(parts) == 2,
            {"partition": partition},
            "a reduced semigroup with bipartite graph has a complete "
            "bipartite graph",
        ))
    else:
        clauses.append(_v(
            "rem-3.2b-complete-bipartite", False, True, {},
            "inapplicable unless reduced with a nonempty bipartite graph",
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
            {"primes": [sorted(p1), sorted(p2)], "girth": gi},
            "two associated primes of size >= 3 meeting only in 0 force "
            "girth 4",
        ))
    else:
        clauses.append(_v(
            "cor-3.3-girth-4", False, True, {"ass_count": len(ass)},
            "needs exactly two associated primes of size >= 3 meeting "
            "only in 0",
        ))

    if parts is not None and all(sz >= 2 for sz in part_sizes):
        nil = s._nilpotent_tuple[1:]
        rm = s._row_masks
        nil_recs = {
            x: {"square_zero": s._rows[x][x] == 0, "orbit": _listed(rm[x])}
            for x in nil
        }
        per_part_nil = [sum(1 for x in nil if x in p) for p in parts]
        ok = (
            all(part_ideal.values())
            and all(r["square_zero"] and rm[x] & ~(1 | 1 << x) == 0
                    for x, r in nil_recs.items())
            and all(c <= 1 for c in per_part_nil)
        )
        clauses.append(_v(
            "thm-3.6-reduced", True, ok,
            {
                "part_ideals": [
                    {"part": sorted(p), "ideal": part_ideal[p]} for p in sorted(parts, key=sorted)
                ],
                "nilpotents": [dict(r, element=x) for x, r in sorted(nil_recs.items())],
                "nilpotents_per_part": per_part_nil,
                "literal_reduced": reduced,
            },
            "all parts of size >= 2: each part with 0 is an ideal, nonzero "
            "nilpotents square to zero with Sx = {0,x}, and no part holds "
            "two of them; reducedness itself can fail and is recorded as "
            "witness data only",
        ))
    else:
        clauses.append(_v(
            "thm-3.6-reduced", False, True,
            {"part_sizes": part_sizes},
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
            {"chi": chi, "omega": omega},
            "chromatic number is at least the clique number",
        ),
        _v(
            "thm-4.1-decomposition-exists", reduced, dec is not None,
            {"reduced": reduced, "prime_count": k},
            "a reduced semigroup decomposes zero as an intersection of primes",
        ),
        _v(
            "thm-4.1-coloring-bound", dec is not None,
            chi <= k if dec is not None else True,
            {"chi": chi, "prime_count": k},
            "a k-prime decomposition of zero yields a proper k-coloring",
        ),
        _v(
            "cor-4.2-chi-omega-count",
            reduced and dec is not None and k >= 2,
            chi == omega == k,
            {"chi": chi, "omega": omega, "prime_count": k},
            "reduced with a minimal decomposition into n >= 2 primes: "
            "chi = omega = n (a single prime allows an empty graph where "
            "both numbers are 0)",
        ),
        _v(
            "thm-4.4-chi-omega-small", chi <= 2 or omega <= 2,
            all((chi == n) == (omega == n) for n in (1, 2)),
            {"chi": chi, "omega": omega},
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
    diameter, gi = metrics(g).diameter, girth(g)
    return (_v(
        "dms-gamma-facts", True,
        g.is_connected() and diameter <= 3 and (gi == 3 or gi == 4 or gi == math.inf),
        {"vertices": g.n, "diameter": diameter, "girth": gi},
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
