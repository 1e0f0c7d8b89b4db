"""Independent brute-force oracles for pinning expected values.

Everything here is deliberately naive: straight enumeration over all
candidates with no pruning, and no shared logic with the library beyond
the Graph and CayleyTable containers and the error classes
(tests/test_lint.py enforces that). Slow but obviously correct at the
sizes the tests use.
"""

import itertools
import json
import math
import random
from collections import deque

from zdg import CayleyTable, DisconnectedError, Graph


def brute_chromatic_number(g) -> int:
    """Smallest k admitting a proper coloring, by trying every assignment."""
    n = g.n
    if n == 0:
        return 0
    pos_edges = [
        (g.position(u), g.position(v)) for u, v in g.edges()
    ]
    for k in range(1, n + 1):
        for colors in itertools.product(range(k), repeat=n):
            if all(colors[a] != colors[b] for a, b in pos_edges):
                return k
    raise AssertionError("n colors always suffice")


def brute_clique_number(g) -> int:
    """Largest all-adjacent vertex subset, by checking every subset."""
    verts = list(g.vertices)
    for k in range(g.n, 1, -1):
        for comb in itertools.combinations(verts, k):
            if all(
                g.has_edge(u, v) for u, v in itertools.combinations(comb, 2)
            ):
                return k
    return 1 if verts else 0


def brute_girth(g):
    """Shortest cycle length by checking every cyclic vertex arrangement."""
    verts = list(g.vertices)
    for k in range(3, g.n + 1):
        for comb in itertools.combinations(verts, k):
            first, rest = comb[0], comb[1:]
            for perm in itertools.permutations(rest):
                if perm[0] > perm[-1]:
                    continue  # each cycle read in one direction only
                cyc = (first,) + perm
                if all(g.has_edge(cyc[i], cyc[(i + 1) % k]) for i in range(k)):
                    return k
    return float("inf")


def naive_distances(g, removed_edges=()):
    """All-pairs distances by position (Floyd-Warshall), math.inf when
    unreachable, in g minus the given edges."""
    n = g.n
    vs = g.vertices
    gone = {frozenset(e) for e in removed_edges}
    d = [
        [
            0 if i == j
            else 1 if g.has_edge(vs[i], vs[j]) and frozenset((vs[i], vs[j])) not in gone
            else math.inf
            for j in range(n)
        ]
        for i in range(n)
    ]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[i][k] + d[k][j]
    return d


def naive_components(g, removed_edges=()):
    """Components of g minus the given edges, as position sets ordered by
    least position: the classes of finite distance."""
    d = naive_distances(g, removed_edges)
    comps = {frozenset(j for j in range(g.n) if d[i][j] < math.inf) for i in range(g.n)}
    return sorted(comps, key=min)


def naive_is_bipartite(g) -> bool:
    """True iff some assignment of two colours to the vertices is proper."""
    edges = [(g.position(u), g.position(v)) for u, v in g.edges()]
    return any(
        all(colors[a] != colors[b] for a, b in edges)
        for colors in itertools.product((0, 1), repeat=g.n)
    )


def naive_multipartite_parts(g):
    """The parts of a complete multipartite graph as vertex sets ordered
    by size, then least vertex; None for any other graph.

    The parts are the components of the complement graph, provided each
    of them is independent in g: the complement is then a disjoint union
    of cliques.
    """
    vs = g.vertices
    complement = Graph(vs, [
        (u, v) for i, u in enumerate(vs) for v in vs[i + 1:] if not g.has_edge(u, v)
    ])
    parts = [frozenset(vs[i] for i in c) for c in naive_components(complement)]
    if any(g.has_edge(u, v) for p in parts for u in p for v in p):
        return None
    return tuple(sorted(parts, key=lambda p: (len(p), min(p))))


def random_graph(rng: random.Random, max_n: int = 8) -> Graph:
    n = rng.randint(0, max_n)
    p = rng.random()
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return Graph(range(n), edges)


def naive_zero_tables(n):
    """Every commutative zero-absorbing associative table of order n.

    Generate-and-filter with an inline associativity loop, kept free of
    the library's validation code on purpose.
    """
    cells = [(i, j) for i in range(1, n) for j in range(i, n)]
    for vals in itertools.product(range(n), repeat=len(cells)):
        t = [[0] * n for _ in range(n)]
        for (i, j), v in zip(cells, vals):
            t[i][j] = v
            t[j][i] = v
        ok = True
        for x in range(1, n):
            for y in range(1, n):
                row = t[x][y]
                for z in range(1, n):
                    if t[row][z] != t[x][t[y][z]]:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            yield tuple(tuple(r) for r in t)


def _neighbor_lists(g):
    """For each position, the positions of its neighbours."""
    return [[g.position(w) for w in g.neighbors(v)] for v in g.vertices]


def _disconnected_without(nbrs, removed_positions) -> bool:
    remaining = [i for i in range(len(nbrs)) if i not in removed_positions]
    if len(remaining) < 2:
        return False
    removed = set(removed_positions)
    seen = {remaining[0]}
    queue = deque([remaining[0]])
    while queue:
        u = queue.popleft()
        for w in nbrs[u]:
            if w not in removed and w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) < len(remaining)


def brute_minimal_vertex_cutsets(g, size_cap):
    """Inclusion-minimal vertex sets T with G-T disconnected, |T| <= cap.

    Tries every vertex subset by increasing size, so minimality only
    needs a containment check against smaller cutsets already found.
    """
    if not g.is_connected():
        raise DisconnectedError("operation needs a connected graph")
    nbrs = _neighbor_lists(g)
    found = []
    for size in range(1, min(size_cap, g.n - 2) + 1):
        for combo in itertools.combinations(range(g.n), size):
            cand = frozenset(combo)
            if any(prev <= cand for prev in found):
                continue
            if _disconnected_without(nbrs, cand):
                found.append(cand)
    out = [frozenset(g.vertices[i] for i in c) for c in found]
    out.sort(key=lambda c: (len(c), sorted(c)))
    return tuple(out)


def _components_without_edges(g, nbrs, removed_edges):
    removed = set()
    for (u, v) in removed_edges:
        i, j = g.position(u), g.position(v)
        removed.add((i, j))
        removed.add((j, i))
    todo = set(range(g.n))
    comps = []
    while todo:
        start = min(todo)
        seen = {start}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in nbrs[u]:
                if w not in seen and (u, w) not in removed:
                    seen.add(w)
                    queue.append(w)
        todo -= seen
        comps.append(frozenset(seen))
    comps.sort(key=min)
    return comps


def brute_minimal_edge_cutsets(g, size_cap):
    """Inclusion-minimal edge sets whose removal disconnects g, |U| <= cap.

    Tries every edge subset by increasing size and keeps those that
    disconnect g and contain no smaller cutset already found.
    """
    if not g.is_connected():
        raise DisconnectedError("operation needs a connected graph")
    all_edges = g.edges()
    nbrs = _neighbor_lists(g)
    found = []
    found_sets = []
    for size in range(1, min(size_cap, len(all_edges)) + 1):
        for combo in itertools.combinations(all_edges, size):
            cand = frozenset(combo)
            if any(prev <= cand for prev in found_sets):
                continue
            comps = _components_without_edges(g, nbrs, combo)
            if len(comps) > 1:
                found.append(tuple(sorted(combo)))
                found_sets.append(cand)
    found.sort(key=lambda u: (len(u), u))
    return tuple(found)


def brute_canonical_form(table) -> CayleyTable:
    """Least relabeling of the table among all permutations fixing 0.

    Builds every relabeled table in full (perm[old] = new, so cell
    (perm[i], perm[j]) holds perm[T[i][j]]) and keeps the least.
    """
    n = table.order
    rows = table.entries
    best = rows
    for p in itertools.permutations(range(1, n)):
        perm = (0,) + p
        new = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                new[perm[i]][perm[j]] = perm[rows[i][j]]
        cand = tuple(map(tuple, new))
        if cand < best:
            best = cand
    return CayleyTable(order=n, entries=best, names=None)


def automorphism_count(rows) -> int:
    """Permutations phi fixing 0 with phi(xy) = phi(x)phi(y) for all x, y."""
    n = len(rows)
    count = 0
    for p in itertools.permutations(range(1, n)):
        phi = (0,) + p
        if all(
            phi[rows[x][y]] == rows[phi[x]][phi[y]]
            for x in range(n)
            for y in range(n)
        ):
            count += 1
    return count


def burnside_class_count(tables, n: int) -> int:
    """Isomorphism classes among a relabeling-closed set of order-n tables.

    Burnside's lemma: the number of orbits of the relabelings fixing 0
    is the sum of |Aut(T)| over the tables, divided by (n-1)!.
    """
    total = sum(automorphism_count(rows) for rows in tables)
    classes, rest = divmod(total, math.factorial(n - 1))
    if rest:
        raise AssertionError("orbit sizes do not add up: %d / %d!" % (total, n - 1))
    return classes


# -- the ideal layer, on table rows ---------------------------------------------
#
# S is the rows of a table of order n with 0 absorbing; every function
# below reads products straight from them and shares no code with
# Semigroup.


def subsets_with_zero(n):
    """Every subset of 0..n-1 that contains 0, by increasing size."""
    for k in range(n):
        for combo in itertools.combinations(range(1, n), k):
            yield frozenset((0,) + combo)


def naive_is_ideal(rows, members) -> bool:
    """xs lies in the set for every x in it and every s in S."""
    return all(rows[x][s] in members for x in members for s in range(len(rows)))


def naive_is_prime_ideal(rows, members) -> bool:
    """An ideal P such that xSy inside P forces x or y into P."""
    n = len(rows)
    if not naive_is_ideal(rows, members):
        return False
    for x in range(n):
        for y in range(n):
            if x in members or y in members:
                continue
            if all(rows[rows[x][s]][y] in members for s in range(n)):
                return False
    return True


def brute_prime_ideals(rows):
    """Every prime ideal, by testing every subset that contains 0."""
    return [p for p in subsets_with_zero(len(rows)) if naive_is_prime_ideal(rows, p)]


def brute_smallest_decomposition(rows):
    """A smallest family of prime ideals meeting in {0}, or None.

    Tries every family of k primes for k = 1, 2, ...; None when even all
    of them together meet in more than {0}.
    """
    primes = brute_prime_ideals(rows)
    if not primes or frozenset.intersection(*primes) != {0}:
        return None
    for k in range(1, len(primes) + 1):
        for family in itertools.combinations(primes, k):
            if frozenset.intersection(*family) == {0}:
                return family
    raise AssertionError("all primes together meet in {0}")


def _annihilators(rows):
    """(x, Ann(x)) for every nonzero x, in increasing x."""
    n = len(rows)
    return [(x, frozenset(y for y in range(n) if rows[x][y] == 0)) for x in range(1, n)]


def _least_witness(pairs):
    """pairs with a repeated set dropped, keeping its least x."""
    out = []
    for x, ann in pairs:
        if all(ann != other for _, other in out):
            out.append((x, ann))
    return out


def naive_maximal_annihilators(rows):
    """(least x, Ann(x)) for each inclusion-maximal Ann(x), x nonzero,
    ordered by x."""
    anns = _annihilators(rows)
    return _least_witness(
        (x, ann) for x, ann in anns if not any(ann < other for _, other in anns)
    )


def naive_associated_primes(rows):
    """(least x, Ann(x)) for each Ann(x), x nonzero, that is a prime ideal,
    ordered by x."""
    return _least_witness(
        (x, ann) for x, ann in _annihilators(rows) if naive_is_prime_ideal(rows, ann)
    )


def naive_minimal_ideals(rows):
    """The inclusion-minimal ideals other than {0}, from all subsets,
    sorted by their sorted members."""
    ideals = [
        t for t in subsets_with_zero(len(rows))
        if len(t) > 1 and naive_is_ideal(rows, t)
    ]
    return sorted((t for t in ideals if not any(u < t for u in ideals)), key=sorted)


# -- the zero-divisor graphs, on table rows ---------------------------------------


def naive_zero_divisors(rows):
    """Z(S)*: the nonzero x with xy = 0 for some nonzero y."""
    n = len(rows)
    return frozenset(
        x for x in range(1, n) if any(rows[x][y] == 0 for y in range(1, n))
    )


def naive_nilpotents(rows):
    """N(S): the x whose powers x, x^2, x^3, ... reach 0, followed until a
    power repeats."""
    out = set()
    for x in range(len(rows)):
        powers = []
        p = x
        while p not in powers:
            powers.append(p)
            p = rows[p][x]
        if 0 in powers:
            out.add(x)
    return frozenset(out)


def naive_gamma_edges(rows):
    """Edges {x, y} of Γ as pairs x < y of nonzero elements with xy = 0."""
    n = len(rows)
    return {(x, y) for x in range(1, n) for y in range(x + 1, n) if rows[x][y] == 0}


def naive_gamma_bar_edges(rows):
    """Edges {x, y} of Γ̄ as pairs x < y of nonzero elements with
    x(sy) = 0 for every s."""
    n = len(rows)
    return {
        (x, y) for x in range(1, n) for y in range(x + 1, n)
        if all(rows[x][rows[s][y]] == 0 for s in range(n))
    }


def naive_gamma(rows) -> Graph:
    """Γ on Z(S)*, from the row-only vertex and edge oracles."""
    return Graph(naive_zero_divisors(rows), naive_gamma_edges(rows))


def naive_has_clique(g, k) -> bool:
    """Some k vertices of g are pairwise adjacent, by checking every
    k-subset."""
    return any(
        all(g.has_edge(u, v) for u, v in itertools.combinations(comb, 2))
        for comb in itertools.combinations(g.vertices, k)
    )


# -- clause oracles, on table rows ---------------------------------------------------
#
# Each gives a clause's (applicable, holds) as run_all reports it, holds
# being True wherever the clause does not apply.


def naive_clique5_clause(rows, g=None):
    """prop-2.9c: five or more associated primes force a 5-clique in Γ,
    or in the graph g when one is given."""
    if len(naive_associated_primes(rows)) < 5:
        return False, True
    return True, naive_has_clique(naive_gamma(rows) if g is None else g, 5)


def naive_bridge_two_sided_clause(rows):
    """thm-2.5, two-sided: an edge xy of Γ whose removal leaves two
    components of at least two vertices each has Sx = {0, x} and
    Sy = {0, y}, both minimal ideals."""
    g = naive_gamma(rows)
    ends = []
    for e in g.edges():
        comps = naive_components(g, [e])
        if len(comps) == 2 and min(len(c) for c in comps) >= 2:
            ends += e
    if not ends:
        return False, True
    minimal = naive_minimal_ideals(rows)
    # Sv is column v, which is row v in a commutative table
    return True, all(
        frozenset(rows[v]) == {0, v} and frozenset(rows[v]) in minimal for v in ends
    )


def naive_cut_vertex_clause(rows):
    """cor-2.3: every cut vertex x of Γ has {0, x} an ideal, and x is
    adjacent to every other vertex or x lies in Sx."""
    g = naive_gamma(rows)
    cut = [x for (x,) in brute_minimal_vertex_cutsets(g, 1)]
    if not cut:
        return False, True
    return True, all(
        naive_is_ideal(rows, {0, x})
        and (all(rows[x][v] == 0 for v in g.vertices if v != x) or x in rows[x])
        for x in cut
    )


def naive_vertex_cutset_clause(rows, size_cap):
    """thm-2.2, cutsets: every minimal vertex cutset of Γ of at most
    size_cap vertices forms an ideal with 0."""
    cutsets = brute_minimal_vertex_cutsets(naive_gamma(rows), size_cap)
    if not cutsets:
        return False, True
    return True, all(naive_is_ideal(rows, t | {0}) for t in cutsets)


def naive_edge_cutset_clause(rows, size_cap):
    """cor-2.6, as weakened: for each minimal edge cutset T of Γ of at most
    size_cap edges, an endpoint x on a side of two or more vertices has Sx
    inside V(T) with 0, and with both sides that large V(T) with 0 is an
    ideal."""
    g = naive_gamma(rows)
    cuts = brute_minimal_edge_cutsets(g, size_cap)
    if not cuts:
        return False, True
    holds = True
    for cut in cuts:
        ends = {v for e in cut for v in e}
        with_zero = ends | {0}
        sides = [{g.vertices[i] for i in c} for c in naive_components(g, cut)]
        for side in sides:
            if len(side) >= 2:
                holds = holds and all(set(rows[x]) <= with_zero for x in ends & side)
        if all(len(side) >= 2 for side in sides):
            holds = holds and naive_is_ideal(rows, with_zero)
    return True, holds


def _least_by(rows, score):
    """Γ and the vertices at which score, over their row of distances,
    is least."""
    g = naive_gamma(rows)
    scores = [score(d) for d in naive_distances(g)]
    return g, {v for v, x in zip(g.vertices, scores) if x == min(scores)}


def naive_median_clause(rows):
    """thm-2.2, median: the vertices of least total distance form an ideal
    with 0."""
    g, med = _least_by(rows, sum)
    return (True, naive_is_ideal(rows, med | {0})) if g.n else (False, True)


def naive_center_clause(rows):
    """thm-2.4: the vertices of least eccentricity form an ideal with 0."""
    g, cen = _least_by(rows, max)
    return (True, naive_is_ideal(rows, cen | {0})) if g.n else (False, True)



def naive_bridge_leaf_clause(rows):
    """thm-2.5, leaf side as weakened: for an edge wz of Γ whose removal
    leaves w alone, Sz lies within {0, w, z}; when Γ is that one edge,
    {0, w, z} must also be an ideal."""
    g = naive_gamma(rows)
    leaves = []
    for e in g.edges():
        comps = naive_components(g, [e])
        if len(comps) != 2:
            continue
        for w, z in (e, e[::-1]):
            if {g.position(w)} in comps:
                leaves.append((w, z))
    if not leaves:
        return False, True
    return True, all(
        set(rows[z]) <= {0, w, z} and (g.n > 2 or naive_is_ideal(rows, {0, w, z}))
        for w, z in leaves
    )


def naive_maximal_annihilator_clause(rows):
    """lem-2.8: every inclusion-maximal Ann(x), x nonzero, is a prime
    ideal."""
    maximal = naive_maximal_annihilators(rows)
    if not maximal:
        return False, True
    return True, all(naive_is_prime_ideal(rows, ann) for _, ann in maximal)


def naive_pairwise_products_clause(rows):
    """prop-2.9a: with two or more associated primes, x and y whose
    annihilators are distinct associated primes multiply to 0."""
    primes = [ann for _, ann in naive_associated_primes(rows)]
    if len(primes) < 2:
        return False, True
    realizing = [(x, ann) for x, ann in _annihilators(rows) if ann in primes]
    return True, all(rows[x][y] == 0 for x, a in realizing for y, b in realizing if a != b)


def _parts_and_primes(rows):
    """The parts of a complete multipartite Γ (None for any other, or an
    empty Γ), and whether each part with 0 is an ideal and each
    complement in Z(S) a prime ideal."""
    g = naive_gamma(rows)
    parts = naive_multipartite_parts(g) or None
    if parts is None:
        return None, True
    zstar = set(g.vertices)
    return parts, all(
        naive_is_ideal(rows, p | {0}) and naive_is_prime_ideal(rows, (zstar - p) | {0})
        for p in parts
    )


def naive_parts_ideals_primes_clause(rows):
    """thm-3.1: S reduced and Γ complete multipartite: each part with 0 is
    an ideal, and each complement with 0 a prime ideal."""
    parts, holds = _parts_and_primes(rows)
    if parts is None or naive_nilpotents(rows) != {0}:
        return False, True
    return True, holds


def naive_weakened_hypothesis_clause(rows):
    """rem-3.2a: thm-3.1's conclusion where no nonzero element squares to 0
    and Γ is complete multipartite."""
    parts, holds = _parts_and_primes(rows)
    if parts is None or any(rows[x][x] == 0 for x in range(1, len(rows))):
        return False, True
    return True, holds


def naive_all_parts_large_clause(rows):
    """thm-3.6 as weakened: Γ complete multipartite with every part of two
    or more vertices: each part with 0 is an ideal, each nonzero
    nilpotent x has x^2 = 0 and Sx within {0, x}, and no part holds two
    of them."""
    parts = naive_multipartite_parts(naive_gamma(rows))
    if not parts or any(len(p) < 2 for p in parts):
        return False, True
    nil = naive_nilpotents(rows) - {0}
    return True, (
        all(naive_is_ideal(rows, p | {0}) for p in parts)
        and all(rows[x][x] == 0 and set(rows[x]) <= {0, x} for x in nil)
        and all(len(p & nil) <= 1 for p in parts)
    )


def naive_colouring_clauses(rows, chi=None):
    """The five colouring clauses of Section 4, each id mapped to its
    (applicable, holds). χ and ω of Γ come by brute force, χ unless it
    is given, and k counts a smallest family of prime ideals meeting in
    {0}, None when no family does."""
    g = naive_gamma(rows)
    chi = brute_chromatic_number(g) if chi is None else chi
    omega = brute_clique_number(g)
    dec = brute_smallest_decomposition(rows)
    k = None if dec is None else len(dec)
    reduced = naive_nilpotents(rows) == {0}
    verdicts = {
        "fact-chi-ge-omega": (True, omega <= chi),
        "thm-4.1-decomposition-exists": (reduced, dec is not None),
        "thm-4.1-coloring-bound": (k is not None, k is not None and chi <= k),
        "cor-4.2-chi-omega-count": (reduced and k is not None and k >= 2, chi == omega == k),
        "thm-4.4-chi-omega-small": (
            chi <= 2 or omega <= 2,
            all((chi == n) == (omega == n) for n in (1, 2)),
        ),
    }
    return {tid: (app, holds or not app) for tid, (app, holds) in verdicts.items()}


def _diameter(g):
    """The greatest distance between two vertices of g, math.inf when g is
    disconnected and 0 when it has at most one vertex."""
    return max((max(row) for row in naive_distances(g)), default=0)


def naive_nilpotent_subgraph_clause(rows, diameter=None):
    """prop-2.1: the nonzero nilpotents induce a connected subgraph of Γ of
    diameter at most 2, or at most the given diameter's outcome."""
    nil = naive_nilpotents(rows) - {0}
    if not nil:
        return False, True
    sub = Graph(nil, [(x, y) for x, y in naive_gamma_edges(rows) if x in nil and y in nil])
    diameter = _diameter(sub) if diameter is None else diameter
    return True, len(naive_components(sub)) == 1 and diameter <= 2


def naive_girth_3_clause(rows, girth=None):
    """prop-2.9b: three or more associated primes force Γ to have girth 3
    (of the given girth, when one is given)."""
    if len(naive_associated_primes(rows)) < 3:
        return False, True
    return True, (brute_girth(naive_gamma(rows)) if girth is None else girth) == 3


def naive_girth_4_clause(rows, girth=None):
    """cor-3.3: exactly two associated primes, each of three or more
    elements, meeting only in 0, force Γ to have girth 4."""
    primes = [ann for _, ann in naive_associated_primes(rows)]
    if len(primes) != 2 or min(map(len, primes)) < 3 or primes[0] & primes[1] != {0}:
        return False, True
    return True, (brute_girth(naive_gamma(rows)) if girth is None else girth) == 4


def naive_complete_bipartite_clause(rows, parts=False):
    """rem-3.2b: S reduced with Γ nonempty and bipartite: Γ is complete
    bipartite, its multipartite parts two. parts, when not False, stands
    for the parts of Γ (None for a graph that is not complete
    multipartite)."""
    g = naive_gamma(rows)
    if naive_nilpotents(rows) != {0} or not g.n or not naive_is_bipartite(g):
        return False, True
    parts = naive_multipartite_parts(g) if parts is False else parts
    return True, parts is not None and len(parts) == 2


def naive_gamma_facts_clause(rows, diameter=None, girth=None):
    """dms-gamma-facts: a nonempty Γ is connected, of diameter at most 3 and
    girth 3, 4 or infinite; diameter and girth, when given, stand for
    Γ's."""
    g = naive_gamma(rows)
    if not g.n:
        return False, True
    diameter = _diameter(g) if diameter is None else diameter
    girth = brute_girth(g) if girth is None else girth
    return True, len(naive_components(g)) == 1 and diameter <= 3 and girth in (3, 4, math.inf)


# -- report text and table validation ----------------------------------------


def _jsonable(x):
    """The value tree as json.dumps takes it: sets as sorted lists, keys
    as strings, either infinity as the string "inf"."""
    if isinstance(x, bool) or x is None or isinstance(x, (str, int)):
        return x
    if isinstance(x, float):
        return "inf" if math.isinf(x) else x
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (set, frozenset)):
        return [_jsonable(v) for v in sorted(x)]
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    raise TypeError("cannot serialize %r" % type(x).__name__)


def naive_render(block) -> str:
    """A report through the json module: indented, keys sorted."""
    return json.dumps(_jsonable(block), indent=2, sort_keys=True) + "\n"


def naive_witness_text(witness) -> str:
    """A witness on one line through the json module, keys sorted."""
    return json.dumps(_jsonable(witness), sort_keys=True)


def naive_violations(rows, names=None, max_violations=20):
    """(violations, truncated) as validation reports them: every
    violated zero, commutativity and associativity law in that order,
    cut to the first max_violations."""
    n = len(rows)

    def nm(x):
        return names[x] if names else str(x)

    found = []
    for x in range(n):
        if rows[0][x] != 0 or rows[x][0] != 0:
            found.append(("zero-not-absorbing", (x,), "0*%s or %s*0 is not 0" % (nm(x), nm(x))))
    for x in range(n):
        for y in range(x + 1, n):
            if rows[x][y] != rows[y][x]:
                found.append((
                    "not-commutative", (x, y),
                    "%s*%s = %s but %s*%s = %s" % (
                        nm(x), nm(y), nm(rows[x][y]), nm(y), nm(x), nm(rows[y][x])),
                ))
    for x in range(n):
        for y in range(n):
            for z in range(n):
                left = rows[rows[x][y]][z]
                right = rows[x][rows[y][z]]
                if left != right:
                    found.append((
                        "not-associative", (x, y, z),
                        "(%s*%s)*%s = %s but %s*(%s*%s) = %s" % (
                            nm(x), nm(y), nm(z), nm(left), nm(x), nm(y), nm(z), nm(right)),
                    ))
    return found[:max_violations], len(found) > max_violations
