"""Undirected simple graphs over semigroup elements, with exact invariants.

Everything here is deterministic: witnesses are canonicalized (sorted,
lexicographically least) and iteration orders are fixed. Instances stay
small (a few dozen vertices), so the solvers favour clarity plus simple
pruning over asymptotic tricks.

A graph stores its adjacency once, as one bitmask of neighbour positions
per vertex, and every traversal is the layered bitmask BFS of
``Graph._reach``, the one reader of the per-byte neighbourhood tables:
components, distances, girth and the separator searches. A graph is
immutable, so what it derives is computed at most once and kept on it:
components, the BFS layers from every vertex, the distances and
eccentricities of ``metrics``, girth, the clique and chromatic numbers,
the complete multipartite partition, median and center, and per cap the
bonds and the minimal vertex cutsets, and per vertex set the induced
subgraph; 2-colourability reads the cached layers. Each search is
written once, in the definition that keeps its answer: a cached
property, or a cutset function that reads its per-cap dict first.
Every answer is immutable (tuples and frozensets all the way down, a
frozen GraphMetrics, a Graph), since one graph may serve many
semigroups.

A semigroup builds Γ and Γ̄ once (see ``Semigroup._gamma``), so every
checker of one semigroup shares one graph and one metrics object.

The separator searches avoid trying every edge subset up to the cap,
which costs E^cap. ``bonds`` is the one edge-separator search: a DFS
over the two-sided splits a BFS spanning tree allows, pruned by the
number of crossing edges and by whether both sides can still be
connected, so its cost follows the cuts found. Each cut comes with its
two sides; ``minimal_edge_cutsets`` is its cuts and ``bridges`` its
one-edge cuts. The minimal vertex cutsets are the minimal separators
whose components are all full, each component adjacent to every cutset
vertex. One search finds them: from each root it grows a connected
set C, the least full component of the cutset to be, together with the
cutset T = N(C), placing each neighbour of C into one or the other and
stopping once C outgrows half of what T leaves or T the cap. Each cutset
is reached on one path, and a BFS runs only where N(C) is settled, so
the cost follows the connected sets with few neighbours (Fomin and
Villanger, 2012) rather than C(n, <=cap). The cut vertices are the
one-vertex cutsets. A graph too small to split has empty answers, not
errors.

Colourings are colour classes as position masks: first-fit classes bound
the clique search, and χ is the least k from ω up with a k-colouring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .errors import DisconnectedError, UnknownVertexError

INF = math.inf

DEFAULT_CUTSET_CAP = 4


def _positions(mask: int):
    """The positions whose bits are set in mask, ascending."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


class Graph:
    """Immutable undirected simple graph on semigroup element ids.

    ``vertices`` is the sorted tuple of element ids. Algorithms work on
    positions 0..n-1 into ``vertices``; bit j of ``_mask[i]`` is set iff
    positions i and j are adjacent (no loops).
    """

    def __init__(self, vertices, edges, labels=None):
        self.vertices = vs = tuple(sorted(set(vertices)))
        self._pos = pos = {v: i for i, v in enumerate(vs)}
        masks = [0] * len(vs)
        for (u, v) in edges:
            if u == v:
                raise ValueError("loops are not allowed: %r" % ((u, v),))
            if u not in pos or v not in pos:
                raise UnknownVertexError("edge %r leaves the vertex set" % ((u, v),))
            i, j = pos[u], pos[v]
            masks[i] |= 1 << j
            masks[j] |= 1 << i
        self._mask = tuple(masks)
        self.labels = tuple(str(v if labels is None else labels[v]) for v in vs)
        # the answers that take an argument, one per argument asked for
        self._bonds: dict[int, tuple] = {}
        self._vertex_cutsets: dict[int, tuple] = {}
        self._induced: dict[tuple[int, ...], Graph] = {}

    # -- structure ---------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.vertices)

    def position(self, v: int) -> int:
        if v not in self._pos:
            raise UnknownVertexError("%r is not a vertex" % (v,))
        return self._pos[v]

    def label_of(self, v: int) -> str:
        return self.labels[self.position(v)]

    def edges(self) -> tuple[tuple[int, int], ...]:
        """Edges as sorted (u, v) element pairs, lexicographically ordered."""
        vs = self.vertices
        return tuple(
            (vs[i], vs[j])
            for i, m in enumerate(self._mask)
            for j in _positions(m >> i + 1 << i + 1)
        )

    @property
    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self._mask) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._mask[self.position(u)] >> self.position(v) & 1)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(self.vertices[j] for j in _positions(self._mask[self.position(v)]))

    def degree(self, v: int) -> int:
        return self._mask[self.position(v)].bit_count()

    def induced(self, t) -> "Graph":
        """Induced subgraph on the element subset t, mapping inherited;
        built once per graph and subset."""
        keep = tuple(sorted(set(t)))
        sub = self._induced.get(keep)
        if sub is None:
            label_map = {v: self.labels[self.position(v)] for v in keep}
            keep_set = set(keep)
            es = [(u, v) for (u, v) in self.edges() if u in keep_set and v in keep_set]
            sub = self._induced[keep] = Graph(keep, es, label_map)
        return sub

    # -- the BFS core --------------------------------------------------------

    @cached_property
    def _union_tables(self) -> tuple[tuple[int, ...], ...]:
        # one table per byte of positions: entry m is the union of the
        # neighbour masks of the positions whose bits are set in m
        tables = []
        for base in range(0, self.n, 8):
            tab = [0]
            for mask in self._mask[base:base + 8]:
                tab += [t | mask for t in tab]
            tables.append(tuple(tab))
        return tuple(tables)

    def _reach(self, seeds: int, allowed: int, layers: list | None = None) -> int:
        """Positions reachable from the mask seeds inside the mask allowed.

        BFS a whole layer at a time: the neighbours of the frontier come
        from one lookup in ``_union_tables`` per byte of it, the one place
        that reads those tables. If layers is a list, the mask of each
        layer (distance 0, 1, ... from the seeds) is appended to it.
        """
        tables = self._union_tables
        seen = frontier = seeds & allowed
        while frontier:
            if layers is not None:
                layers.append(frontier)
            nbrs = 0
            for tab in tables:
                nbrs |= tab[frontier & 255]
                frontier >>= 8
            frontier = nbrs & allowed & ~seen
            seen |= frontier
        return seen

    def _split(self, allowed: int) -> list[int]:
        """Connected components inside the position mask allowed, as
        masks ordered by least position."""
        comps = []
        while allowed:
            comp = self._reach(allowed & -allowed, allowed)
            comps.append(comp)
            allowed &= ~comp
        return comps

    @cached_property
    def _components(self) -> tuple[int, ...]:
        return tuple(self._split((1 << self.n) - 1))

    @cached_property
    def _bfs_layers(self) -> tuple[tuple[int, ...], ...]:
        """For each position i, the masks of the positions at distance
        0, 1, 2, ... from i."""
        full = (1 << self.n) - 1
        out = []
        for i in range(self.n):
            layers: list[int] = []
            self._reach(1 << i, full, layers)
            out.append(tuple(layers))
        return tuple(out)

    # -- connectivity --------------------------------------------------------

    def components(self) -> tuple[frozenset[int], ...]:
        """Connected components, as element sets sorted by least element."""
        vs = self.vertices
        return tuple(frozenset(vs[i] for i in _positions(c)) for c in self._components)

    def is_connected(self) -> bool:
        return len(self._components) <= 1

    def is_bipartite(self) -> bool:
        """True iff there is no odd cycle: no edge inside a BFS layer from
        the least position of any component."""
        masks = self._mask
        return not any(
            masks[v] & layer
            for comp in self._components
            for layer in self._bfs_layers[(comp & -comp).bit_length() - 1]
            for v in _positions(layer)
        )

    # -- derived values, each computed once ------------------------------------

    @cached_property
    def _girth(self) -> float:
        """Length of a shortest cycle, or INF for a forest.

        From a root, an edge inside BFS layer d closes an odd walk of
        length 2d+1, and a vertex of layer d+1 with two neighbours in
        layer d closes a walk of length 2d+2; each walk contains a cycle
        no longer than itself. From a root on a shortest cycle the first
        such witness has exactly the cycle's length, so the minimum over
        all roots is exact.
        """
        masks = self._mask
        best = INF
        for layers in self._bfs_layers:
            for d, layer in enumerate(layers):
                if 2 * d + 1 >= best:
                    break
                if any(masks[v] & layer for v in _positions(layer)):
                    best = 2 * d + 1
                    break
                if d + 1 < len(layers) and any(
                    (masks[v] & layer).bit_count() > 1
                    for v in _positions(layers[d + 1])
                ):
                    best = 2 * d + 2
                    break
        return best

    @cached_property
    def _metrics(self) -> "GraphMetrics":
        n = self.n
        dist = []
        for layers in self._bfs_layers:
            row = [INF] * n
            for d, layer in enumerate(layers):
                for j in _positions(layer):
                    row[j] = d
            dist.append(tuple(row))
        if not self.is_connected():
            ecc = (INF,) * n
            radius = diameter = INF
            dsum = (INF,) * n
        else:
            # BFS from i reaches the whole graph, so the layer count gives
            # i's eccentricity
            ecc = tuple(len(layers) - 1 for layers in self._bfs_layers)
            radius = min(ecc, default=0)
            diameter = max(ecc, default=0)
            dsum = tuple(sum(row) for row in dist)
        return GraphMetrics(
            dist=tuple(dist),
            ecc=ecc,
            radius=radius,
            diameter=diameter,
            distance_sum=dsum,
        )

    @cached_property
    def _clique(self) -> tuple[int, tuple[int, ...]]:
        """Exact maximum clique by branch and bound. A clique meets each
        first-fit class of the candidates at most once, so a candidate of
        class c (from 1) adds at most c; candidates go from the last class
        back, each class from its highest position down."""
        masks = self._mask
        best: list[int] = []

        def expand(current: list[int], cand: int):
            nonlocal best
            if not cand:
                if len(current) > len(best):
                    best = list(current)
                return
            classes = _first_fit(self, _positions(cand))
            for c in range(len(classes), 0, -1):
                cls = classes[c - 1]
                while cls:
                    if len(current) + c <= len(best):
                        return
                    v = cls.bit_length() - 1
                    cls ^= 1 << v
                    current.append(v)
                    expand(current, cand & masks[v])
                    current.pop()
                    cand &= ~(1 << v)

        if self.n:
            expand([], (1 << self.n) - 1)
        return len(best), tuple(sorted(self.vertices[i] for i in best))

    @cached_property
    def _chromatic(self) -> tuple[int, tuple[int, ...]]:
        order = sorted(range(self.n), key=lambda v: (-self._mask[v].bit_count(), v))
        k = clique_number(self)[0]
        while (classes := _k_coloring(self, k, order)) is None:
            k += 1
        colors = [0] * self.n
        for c, cls in enumerate(sorted(classes, key=lambda m: m & -m)):
            for v in _positions(cls):
                colors[v] = c
        return k, tuple(colors)

    @cached_property
    def _multipartite(self) -> tuple[frozenset[int], ...] | None:
        full = (1 << self.n) - 1
        closed = [full & ~m for m in self._mask]
        if any(closed[j] != part for part in closed for j in _positions(part)):
            return None  # an edge inside a would-be part
        parts = [frozenset(self.vertices[i] for i in _positions(p)) for p in set(closed)]
        parts.sort(key=lambda p: (len(p), min(p)))
        return tuple(parts)

    @cached_property
    def _center(self) -> frozenset[int]:
        m = self._metrics
        return frozenset(self.vertices[i] for i in range(self.n) if m.ecc[i] == m.radius)

    @cached_property
    def _median(self) -> frozenset[int]:
        m = self._metrics
        best = min(m.distance_sum, default=0)
        return frozenset(
            self.vertices[i] for i in range(self.n) if m.distance_sum[i] == best
        )


# -- construction from a semigroup -----------------------------------------


def gamma(s) -> Graph:
    """Zero-divisor graph: vertices Z(S)*, edge {x,y} iff xy = 0.

    Built once per semigroup; every call returns the same Graph.
    """
    return s._gamma


def gamma_bar(s) -> Graph:
    """Extended graph: edge {x,y} iff xsy = 0 for every s in S.

    Contains gamma(S): xy = 0 forces xsy = (xy)s = 0 for all s. Built
    once per semigroup, like gamma.
    """
    return s._gamma_bar


# -- metrics -----------------------------------------------------------------


@dataclass(frozen=True)
class GraphMetrics:
    """All-pairs distances and the derived eccentricity data.

    Distances are by position into graph.vertices; unreachable pairs and
    the derived values on a disconnected graph are math.inf.
    """

    dist: tuple
    ecc: tuple
    radius: float
    diameter: float
    distance_sum: tuple


def girth(g: Graph) -> float:
    """Length of a shortest cycle, or math.inf for a forest."""
    return g._girth


def metrics(g: Graph) -> GraphMetrics:
    """Distances and eccentricities, computed once per graph."""
    return g._metrics


def _require_connected(g: Graph) -> None:
    if not g.is_connected():
        raise DisconnectedError("operation needs a connected graph")


def center(g: Graph) -> frozenset[int]:
    """Vertices of minimum eccentricity (connected graphs only), computed
    once per graph."""
    _require_connected(g)
    return g._center


def median(g: Graph) -> frozenset[int]:
    """Vertices minimizing the total distance d(v) (connected graphs
    only), computed once per graph."""
    _require_connected(g)
    return g._median


# -- cut structure ------------------------------------------------------------


def cut_vertices(g: Graph) -> frozenset[int]:
    """Articulation points of a connected graph, v with G-v disconnected:
    the members of its one-vertex cutsets."""
    return frozenset(v for t in minimal_vertex_cutsets(g, 1) for v in t)


def minimal_vertex_cutsets(g: Graph, size_cap: int = DEFAULT_CUTSET_CAP) -> tuple[frozenset[int], ...]:
    """Inclusion-minimal vertex sets T with G-T disconnected, |T| <= cap.

    These are the minimal separators all of whose components are full: a
    component C of G-T is full when its neighbourhood N(C) is all of T.
    A T with a component C that misses some t in T is no minimal cutset,
    since T-t still cuts C off; a T whose components are all full is
    one, since any t put back joins them all. Cutsets come ordered by
    size, then sorted elements. A complete graph, and so any graph of
    fewer than 3 vertices, has no vertex cutsets at all. Computed once
    per graph and cap.

    A minimal cutset T leaves two or more components, all full, so its
    least full component C, by size and then least position r, has at
    most (n - |T|)/2 vertices. From each root r the search grows C and
    T together: it starts from C = {r} and T empty, keeps F = N(C) - T,
    the neighbours of C not yet placed, and places the least v in F
    either into C, if v > r, or into T, if |T| < cap and v has a
    neighbour outside C, T and F, where the other components must lie.
    Every vertex of F ends in C or T, and all but cap - |T| of them in
    C, so with b = |N(C)| = |T| + |F| a branch ends once
    2|C| + b + max(0, b - cap) > n, and once no vertex lies outside C,
    T and F. When F is empty, N(C) = T, and T is kept if G-C-T is
    nonempty and each of its components D is full and comes after C:
    (|D|, least(D)) > (|C|, r). The least full component and the order
    of placements fix the path to each cutset, so each is reached once
    and no set of the ones seen is kept.

    Each path makes at most cap moves into T and at most n/2 into C,
    and a BFS runs only at its leaf. Fomin and Villanger (2012) bound
    the connected sets of a + 1 vertices with b neighbours that contain
    a given vertex by C(a + b, b), so the leaves stay few when the cap
    is small.
    """
    known = g._vertex_cutsets.get(size_cap)
    if known is not None:
        return known
    _require_connected(g)
    n = g.n
    cap = min(size_cap, n - 2)
    if cap < 1 or g.edge_count == n * (n - 1) // 2:
        return ()
    masks = g._mask
    full = (1 << n) - 1
    found = []
    for r in range(n):
        # (C, T, F) as position masks
        stack = [(1 << r, 0, masks[r])]
        while stack:
            c, t, f = stack.pop()
            rest = full & ~(c | t | f)
            b = (t | f).bit_count()
            if not rest or 2 * c.bit_count() + b + max(0, b - cap) > n:
                continue
            if not f:
                least = (c.bit_count(), 1 << r)
                if all(
                    all(masks[i] & d for i in _positions(t))
                    and (d.bit_count(), d & -d) > least
                    for d in g._split(rest)
                ):
                    found.append(t)
                continue
            v = f & -f
            f ^= v
            around = masks[v.bit_length() - 1] & rest
            if around and t.bit_count() < cap:
                stack.append((c, t | v, f))
            if v >> r > 1:
                stack.append((c | v, t, f | around))
    out = [frozenset(g.vertices[i] for i in _positions(t)) for t in found]
    out.sort(key=lambda c: (len(c), sorted(c)))
    known = g._vertex_cutsets[size_cap] = tuple(out)
    return known


def components_without_edges(g: Graph, removed_edges) -> list[frozenset[int]]:
    """Components of g minus the given edges, as position sets ordered by
    least position. The package itself reads the sides of a cut from bonds."""
    gone = {frozenset((g.position(u), g.position(v))) for u, v in removed_edges}
    kept = [(u, v) for u, v in g.edges() if frozenset((g.position(u), g.position(v))) not in gone]
    return [frozenset(_positions(c)) for c in Graph(g.vertices, kept)._components]


def bonds(g: Graph, size_cap: int = DEFAULT_CUTSET_CAP):
    """(cut, sides) for each minimal edge cutset of at most size_cap edges.

    In a connected graph these are exactly the bonds: the edge sets
    delta(A) running between a vertex set A and its complement, where
    both sides induce connected subgraphs, so removing one leaves exactly
    two components. cut is the sorted tuple of sorted element pairs,
    sides the two element sets ordered by least element; pairs come
    ordered by cut size, then cut. A graph of fewer than 2 vertices has
    no bonds. Computed once per graph and cap.

    Fix a BFS spanning tree rooted at position 0. A 2-colouring with the
    root on the near side is determined by which tree edges it cuts, so a
    DFS that places the vertices in BFS order, on the side of their tree
    parent or across, meets every colouring once. A branch is pruned as
    soon as the edges crossing between placed vertices exceed the cap, or
    as soon as either side can no longer be joined up through the
    vertices not yet placed. Every leaf reached is a bond, so the cost
    follows the number of cuts within the cap rather than E^cap.
    """
    known = g._bonds.get(size_cap)
    if known is not None:
        return known
    _require_connected(g)
    n = g.n
    if n < 2:
        return ()
    masks = g._mask
    order = [v for layer in g._bfs_layers[0] for v in _positions(layer)]
    # placed[k]: the first k vertices of order; earlier[k]: the
    # neighbours of order[k] among them
    placed = [0]
    earlier = []
    for v in order:
        earlier.append(masks[v] & placed[-1])
        placed.append(placed[-1] | 1 << v)
    full = placed[n]
    vs = g.vertices
    found = []
    # (vertices placed, far-side mask, edges crossing between them)
    stack = [(1, 0, 0)]
    while stack:
        k, far, crossing = stack.pop()
        near = placed[k] & ~far
        if g._reach(1, full & ~far) & near != near:
            continue
        if far and g._reach(far & -far, full & ~near) & far != far:
            continue
        if k == n:
            if far:
                cut = sorted(
                    (vs[i], vs[j]) if i < j else (vs[j], vs[i])
                    for i in _positions(far)
                    for j in _positions(masks[i] & near)
                )
                # near holds the root, position 0, and so the least element
                sides = tuple(frozenset(vs[i] for i in _positions(m)) for m in (near, far))
                found.append((tuple(cut), sides))
            continue
        v = order[k]
        if_near = crossing + (earlier[k] & far).bit_count()
        if_far = crossing + (earlier[k] & near).bit_count()
        if if_near <= size_cap:
            stack.append((k + 1, far, if_near))
        if if_far <= size_cap:
            stack.append((k + 1, far | 1 << v, if_far))
    found.sort(key=lambda bond: (len(bond[0]), bond[0]))
    known = g._bonds[size_cap] = tuple(found)
    return known


def minimal_edge_cutsets(g: Graph, size_cap: int = DEFAULT_CUTSET_CAP) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Inclusion-minimal edge sets whose removal disconnects g, |U| <= cap:
    the cuts of bonds(g, size_cap)."""
    return tuple(cut for cut, _ in bonds(g, size_cap))


def bridges(g: Graph) -> tuple[tuple[int, int], ...]:
    """Bridge edges of a connected graph, as sorted element pairs: the
    edges of its one-edge bonds."""
    return tuple(cut[0] for cut, _ in bonds(g, 1))


# -- cliques and coloring -----------------------------------------------------


def _first_fit(g: Graph, order) -> list[int]:
    """First-fit colour classes as position masks: each position of order
    joins the first class with none of its neighbours, or opens one."""
    classes: list[int] = []
    for v in order:
        for c, cls in enumerate(classes):
            if not cls & g._mask[v]:
                classes[c] = cls | 1 << v
                break
        else:
            classes.append(1 << v)
    return classes


def clique_number(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Exact clique number with a sorted witness clique, computed once per graph."""
    return g._clique


def has_clique_of_size(g: Graph, k: int) -> bool:
    """True iff the graph contains a clique on k vertices (k >= 1)."""
    if k < 1:
        raise ValueError("k must be at least 1, got %r" % (k,))
    return clique_number(g)[0] >= k


def _k_coloring(g: Graph, k: int, order: list[int]) -> list[int] | None:
    """Colour classes, as position masks, of a proper colouring with at
    most k colours, or None. Each position of order tries the open
    classes in turn, then one new class if fewer than k are open, so no
    two branches differ by a renaming of colours. The first path tried
    is first-fit, taken without backtracking if it needs at most k."""
    classes: list[int] = []

    def place(idx: int) -> bool:
        if idx == len(order):
            return True
        v = order[idx]
        for c, cls in enumerate(classes):
            if not cls & g._mask[v]:
                classes[c] = cls | 1 << v
                if place(idx + 1):
                    return True
                classes[c] = cls
        if len(classes) < k:
            classes.append(1 << v)
            if place(idx + 1):
                return True
            classes.pop()
        return False

    return classes if place(0) else None


def chromatic_number(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Exact chromatic number with a canonical witness colouring: the
    least k from the clique number up with a k-colouring, searched in
    descending degree order. The witness gives each position its colour,
    classes numbered in the order of their least positions. Computed once
    per graph."""
    return g._chromatic


# -- complete multipartite recognition ---------------------------------------


def complete_multipartite_partition(g: Graph) -> tuple[frozenset[int], ...] | None:
    """The parts of a complete multipartite graph, or None for any other.

    G is complete multipartite iff "equal or non-adjacent" is an
    equivalence relation; its classes, each vertex with its
    non-neighbours, are then the parts. Parts come back sorted by size,
    then least vertex; the graph with no vertices has no parts, ().
    Computed once per graph.
    """
    return g._multipartite


# -- export -------------------------------------------------------------------


def _dot_id(label: str) -> str:
    """label as a quoted DOT identifier."""
    return '"%s"' % label.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(g: Graph, name: str = "gamma") -> str:
    """Graph in dot notation; vertex labels are the element names, quoted
    with their backslashes and double quotes escaped."""
    lines = ["graph %s {" % name]
    for lab in g.labels:
        lines.append("  %s;" % _dot_id(lab))
    for (u, v) in g.edges():
        lines.append("  %s -- %s;" % (_dot_id(g.label_of(u)), _dot_id(g.label_of(v))))
    lines.append("}")
    return "\n".join(lines) + "\n"


def adjacency_listing(g: Graph) -> str:
    """One line per vertex: label followed by sorted neighbor labels."""
    lines = []
    for i, v in enumerate(g.vertices):
        nbrs = " ".join(g.labels[j] for j in _positions(g._mask[i]))
        lines.append("%s: %s" % (g.labels[i], nbrs))
    return "\n".join(lines) + ("\n" if lines else "")
