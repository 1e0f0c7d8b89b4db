"""Undirected simple graphs over semigroup elements, with exact invariants.

Everything here is deterministic: witnesses are canonicalized (sorted,
lexicographically least) and iteration orders are fixed. Instances stay
small (a few dozen vertices), so the solvers favour clarity plus simple
pruning over asymptotic tricks.

The separator searches are the exception, because trying every edge
subset up to the cap costs E^cap. Minimal edge cutsets are the bonds of
the graph, enumerated by a DFS over the two-sided splits a BFS spanning
tree allows, pruned by the number of crossing edges and by whether both
sides can still be connected. Minimal vertex cutsets are grown vertex by
vertex and accepted by a local test: every cutset vertex has a neighbour
in every component left; no set containing a cutset is grown further.
Both run on bitmask adjacency. The edge search only visits partial
splits within the cap whose sides can still be joined up, so its cost
follows the cuts found rather than E^cap.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .errors import DisconnectedError, TooFewVerticesError, UnknownVertexError

INF = math.inf

VERTEX_CUTSET_CAP = 4
EDGE_CUTSET_CAP = 4


class Graph:
    """Immutable undirected simple graph on semigroup element ids.

    ``vertices`` is the sorted tuple of element ids; ``adjacency`` is the
    symmetric boolean matrix in vertex order (no loops). Algorithms work
    on positions 0..n-1 into ``vertices``.
    """

    def __init__(self, vertices, edges, labels=None):
        vs = tuple(sorted(set(vertices)))
        self.vertices = vs
        self._pos = {v: i for i, v in enumerate(vs)}
        n = len(vs)
        if labels is None:
            self.labels = tuple(str(v) for v in vs)
        else:
            self.labels = tuple(str(labels[v]) for v in vs)
        adj = [[False] * n for _ in range(n)]
        for (u, v) in edges:
            if u == v:
                raise ValueError("loops are not allowed: %r" % ((u, v),))
            if u not in self._pos or v not in self._pos:
                raise UnknownVertexError("edge %r leaves the vertex set" % ((u, v),))
            i, j = self._pos[u], self._pos[v]
            adj[i][j] = adj[j][i] = True
        self.adjacency = tuple(tuple(row) for row in adj)
        self._nbr = tuple(
            frozenset(j for j in range(n) if adj[i][j]) for i in range(n)
        )
        self._mask = tuple(
            sum(1 << j for j in range(n) if adj[i][j]) for i in range(n)
        )

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
        out = []
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if self.adjacency[i][j]:
                    out.append((self.vertices[i], self.vertices[j]))
        return tuple(out)

    @property
    def edge_count(self) -> int:
        return sum(len(s) for s in self._nbr) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return self.position(v) in self._nbr[self.position(u)]

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(self.vertices[j] for j in sorted(self._nbr[self.position(v)]))

    def degree(self, v: int) -> int:
        return len(self._nbr[self.position(v)])

    def induced(self, t) -> "Graph":
        """Induced subgraph on the element subset t, mapping inherited."""
        keep = sorted(set(t))
        for v in keep:
            if v not in self._pos:
                raise UnknownVertexError("%r is not a vertex" % (v,))
        label_map = {v: self.labels[self._pos[v]] for v in keep}
        keep_set = set(keep)
        es = [(u, v) for (u, v) in self.edges() if u in keep_set and v in keep_set]
        return Graph(keep, es, label_map)

    def complement(self) -> "Graph":
        label_map = {v: self.labels[i] for i, v in enumerate(self.vertices)}
        es = []
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if not self.adjacency[i][j]:
                    es.append((self.vertices[i], self.vertices[j]))
        return Graph(self.vertices, es, label_map)

    # -- connectivity --------------------------------------------------------

    def _components_positions(self, removed=frozenset()) -> list[frozenset[int]]:
        todo = set(range(self.n)) - set(removed)
        comps = []
        while todo:
            start = min(todo)
            seen = {start}
            queue = deque([start])
            while queue:
                u = queue.popleft()
                for w in self._nbr[u]:
                    if w in todo and w not in seen:
                        seen.add(w)
                        queue.append(w)
            todo -= seen
            comps.append(frozenset(seen))
        comps.sort(key=min)
        return comps

    def components(self) -> tuple[frozenset[int], ...]:
        """Connected components, as element sets sorted by least element."""
        return tuple(
            frozenset(self.vertices[i] for i in comp)
            for comp in self._components_positions()
        )

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self._components_positions()) == 1

    @cached_property
    def _union_tables(self) -> tuple[tuple[int, ...], ...]:
        # one table per byte of positions: entry m is the union of the
        # neighbour masks of the positions whose bits are set in m
        tables = []
        for base in range(0, self.n, 8):
            tab = [0] * (1 << min(8, self.n - base))
            for m in range(1, len(tab)):
                low = m & -m
                tab[m] = tab[m ^ low] | self._mask[base + low.bit_length() - 1]
            tables.append(tuple(tab))
        return tuple(tables)

    def _reach(self, seeds: int, allowed: int) -> int:
        """Positions reachable from the mask seeds inside the mask allowed.

        BFS a whole layer at a time: the neighbours of the frontier come
        from one table lookup per byte of it.
        """
        tables = self._union_tables
        seen = frontier = seeds & allowed
        while frontier:
            nbrs = 0
            for tab in tables:
                nbrs |= tab[frontier & 255]
                frontier >>= 8
            frontier = nbrs & allowed & ~seen
            seen |= frontier
        return seen

    def is_bipartite(self) -> bool:
        """True iff there is no odd cycle (BFS 2-coloring)."""
        color = [-1] * self.n
        for start in range(self.n):
            if color[start] >= 0:
                continue
            color[start] = 0
            queue = deque([start])
            while queue:
                u = queue.popleft()
                for w in self._nbr[u]:
                    if color[w] < 0:
                        color[w] = color[u] ^ 1
                        queue.append(w)
                    elif color[w] == color[u]:
                        return False
        return True


# -- construction from a semigroup -----------------------------------------


def gamma(s) -> Graph:
    """Zero-divisor graph: vertices Z(S)*, edge {x,y} iff xy = 0."""
    verts = s.nonzero_zero_divisors().sorted_members
    labels = {v: s.label(v) for v in verts}
    edges = []
    for a in range(len(verts)):
        x = verts[a]
        for b in range(a + 1, len(verts)):
            y = verts[b]
            if s.product(x, y) == 0:
                edges.append((x, y))
    return Graph(verts, edges, labels)


def gamma_bar(s) -> Graph:
    """Extended graph: edge {x,y} iff xsy = 0 for every s in S.

    Contains gamma(S): xy = 0 forces xsy = (xy)s = 0 for all s.
    """
    verts = s.nonzero_zero_divisors().sorted_members
    labels = {v: s.label(v) for v in verts}
    edges = []
    for a in range(len(verts)):
        x = verts[a]
        for b in range(a + 1, len(verts)):
            y = verts[b]
            if all(s.product(s.product(x, r), y) == 0 for r in s.elements):
                edges.append((x, y))
    return Graph(verts, edges, labels)


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
    girth: float
    distance_sum: tuple
    components: tuple
    component_radii: tuple
    component_diameters: tuple

    @property
    def connected(self) -> bool:
        return len(self.components) <= 1


def _bfs_dist(g: Graph, start: int) -> list:
    dist = [INF] * g.n
    dist[start] = 0
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for w in g._nbr[u]:
            if dist[w] == INF:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def girth(g: Graph) -> float:
    """Length of a shortest cycle, or math.inf for a forest.

    BFS from every root; a non-tree edge at (u, w) witnesses a closed
    walk of length d(u)+d(w)+1, and the minimum over all roots is exact.
    """
    best = INF
    for root in range(g.n):
        dist = [-1] * g.n
        parent = [-1] * g.n
        dist[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in g._nbr[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif parent[u] != w:
                    cand = dist[u] + dist[w] + 1
                    if cand < best:
                        best = cand
    return best


def metrics(g: Graph) -> GraphMetrics:
    comps_pos = g._components_positions()
    dist = tuple(tuple(_bfs_dist(g, i)) for i in range(g.n))
    ecc = tuple(max(row) if row else 0 for row in dist)
    if g.n == 0:
        radius = diameter = 0
    elif len(comps_pos) > 1:
        radius = diameter = INF
    else:
        radius = min(ecc)
        diameter = max(ecc)
    dsum = tuple(sum(row) for row in dist)
    comp_r = []
    comp_d = []
    for comp in comps_pos:
        eccs = [max(dist[i][j] for j in comp) for i in comp]
        comp_r.append(min(eccs))
        comp_d.append(max(eccs))
    return GraphMetrics(
        dist=dist,
        ecc=ecc,
        radius=radius,
        diameter=diameter,
        girth=girth(g),
        distance_sum=dsum,
        components=tuple(
            frozenset(g.vertices[i] for i in comp) for comp in comps_pos
        ),
        component_radii=tuple(comp_r),
        component_diameters=tuple(comp_d),
    )


def _require_connected(g: Graph) -> None:
    if not g.is_connected():
        raise DisconnectedError("operation needs a connected graph")


def center(g: Graph) -> frozenset[int]:
    """Vertices of minimum eccentricity (connected graphs only)."""
    _require_connected(g)
    if g.n == 0:
        return frozenset()
    m = metrics(g)
    return frozenset(
        g.vertices[i] for i in range(g.n) if m.ecc[i] == m.radius
    )


def median(g: Graph) -> frozenset[int]:
    """Vertices minimizing the total distance d(v) (connected graphs only)."""
    _require_connected(g)
    if g.n == 0:
        return frozenset()
    m = metrics(g)
    best = min(m.distance_sum)
    return frozenset(
        g.vertices[i] for i in range(g.n) if m.distance_sum[i] == best
    )


# -- cut structure ------------------------------------------------------------


def cut_vertices(g: Graph) -> frozenset[int]:
    """Articulation points of a connected graph (DFS lowpoints)."""
    _require_connected(g)
    n = g.n
    if n < 3:
        return frozenset()
    disc = [-1] * n
    low = [0] * n
    out = set()
    timer = itertools.count()

    def dfs(u, parent):
        disc[u] = low[u] = next(timer)
        children = 0
        for w in sorted(g._nbr[u]):
            if disc[w] < 0:
                children += 1
                dfs(w, u)
                low[u] = min(low[u], low[w])
                if parent >= 0 and low[w] >= disc[u]:
                    out.add(u)
            elif w != parent:
                low[u] = min(low[u], disc[w])
        if parent < 0 and children > 1:
            out.add(u)

    dfs(0, -1)
    return frozenset(g.vertices[i] for i in out)


def bridges(g: Graph) -> tuple[tuple[int, int], ...]:
    """Bridge edges of a connected graph, as sorted element pairs."""
    _require_connected(g)
    n = g.n
    disc = [-1] * n
    low = [0] * n
    out = []
    timer = itertools.count()

    def dfs(u, parent):
        disc[u] = low[u] = next(timer)
        for w in sorted(g._nbr[u]):
            if disc[w] < 0:
                dfs(w, u)
                low[u] = min(low[u], low[w])
                if low[w] > disc[u]:
                    a, b = g.vertices[u], g.vertices[w]
                    out.append((a, b) if a < b else (b, a))
            elif w != parent:
                low[u] = min(low[u], disc[w])

    if n:
        dfs(0, -1)
    return tuple(sorted(out))


def _positions(mask: int):
    """The positions whose bits are set in mask, ascending."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


def _components_within(g: Graph, allowed: int) -> list[int]:
    """Connected components of g restricted to the position mask allowed."""
    comps = []
    while allowed:
        comp = g._reach(allowed & -allowed, allowed)
        comps.append(comp)
        allowed &= ~comp
    return comps


def minimal_vertex_cutsets(g: Graph, size_cap: int = VERTEX_CUTSET_CAP) -> tuple[frozenset[int], ...]:
    """Inclusion-minimal vertex sets T with G-T disconnected, |T| <= cap.

    Grows T one vertex at a time in increasing position order. A T with
    G-T disconnected is kept when every t in T has a neighbour in each
    component of G-T, and is never grown further, since no superset of a
    cutset is minimal. That local test is exact: such a t put back joins
    all the components, and a t missing some component C leaves C cut
    off by T-t. A complete graph has no vertex cutsets at all.
    """
    _require_connected(g)
    n = g.n
    if n < 3:
        raise TooFewVerticesError("vertex cutsets need at least 3 vertices")
    cap = min(size_cap, n - 2)
    if cap < 1 or g.edge_count == n * (n - 1) // 2:
        return ()
    masks = g._mask
    found: list[tuple[int, ...]] = []
    # (T, the positions not in T, the least position T may grow by)
    stack = [((), (1 << n) - 1, 0)]
    while stack:
        t, rest, nxt = stack.pop()
        for v in range(nxt, n):
            cand = t + (v,)
            left = rest & ~(1 << v)
            comps = _components_within(g, left)
            if len(comps) > 1:
                if all(masks[i] & comp for i in cand for comp in comps):
                    found.append(cand)
            elif len(cand) < cap:
                stack.append((cand, left, v + 1))
    out = [frozenset(g.vertices[i] for i in c) for c in found]
    out.sort(key=lambda c: (len(c), sorted(c)))
    return tuple(out)


def components_without_edges(g: Graph, removed_edges) -> list[frozenset[int]]:
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
            for w in g._nbr[u]:
                if w not in seen and (u, w) not in removed:
                    seen.add(w)
                    queue.append(w)
        todo -= seen
        comps.append(frozenset(seen))
    comps.sort(key=min)
    return comps


def minimal_edge_cutsets(g: Graph, size_cap: int = EDGE_CUTSET_CAP) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Inclusion-minimal edge sets whose removal disconnects g, |U| <= cap.

    In a connected graph these are exactly the bonds: the edge sets
    delta(A) running between a vertex set A and its complement, where
    both sides induce connected subgraphs. Removing one therefore leaves
    exactly two components.

    Fix a BFS spanning tree rooted at position 0. A 2-colouring with the
    root on the near side is determined by which tree edges it cuts, so a
    DFS that places the vertices in BFS order, on the side of their tree
    parent or across, meets every colouring once. A branch is pruned as
    soon as the edges crossing between placed vertices exceed the cap, or
    as soon as either side can no longer be joined up through the
    vertices not yet placed. Every leaf reached is a bond, so the cost
    follows the number of cuts within the cap rather than E^cap.
    """
    _require_connected(g)
    n = g.n
    if n < 2:
        raise TooFewVerticesError("edge cutsets need at least 2 vertices")
    masks = g._mask
    order = [0]
    reached = 1
    for u in order:
        fresh = masks[u] & ~reached
        reached |= fresh
        order.extend(_positions(fresh))
    # placed[k]: the first k vertices of order; earlier[k]: the
    # neighbours of order[k] among them
    placed = [0]
    earlier = []
    for v in order:
        earlier.append(masks[v] & placed[-1])
        placed.append(placed[-1] | 1 << v)
    full = placed[n]
    found_masks: list[int] = []
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
                found_masks.append(far)
            continue
        v = order[k]
        if_near = crossing + (earlier[k] & far).bit_count()
        if_far = crossing + (earlier[k] & near).bit_count()
        if if_near <= size_cap:
            stack.append((k + 1, far, if_near))
        if if_far <= size_cap:
            stack.append((k + 1, far | 1 << v, if_far))
    vs = g.vertices
    found = []
    for far in found_masks:
        cut = [
            (vs[i], vs[j]) if i < j else (vs[j], vs[i])
            for i in _positions(far)
            for j in _positions(masks[i] & ~far)
        ]
        found.append(tuple(sorted(cut)))
    found.sort(key=lambda u: (len(u), u))
    return tuple(found)


# -- cliques and coloring -----------------------------------------------------


def _greedy_color_order(g: Graph, cand_mask: int) -> tuple[list[int], list[int]]:
    """Greedy color classes over the candidate set, ascending position.

    Returns vertices sorted by color along with their 1-based color
    numbers; used as the bound inside the clique search.
    """
    order: list[int] = []
    colors: list[int] = []
    color_masks: list[int] = []
    v = 0
    m = cand_mask
    while m:
        v = (m & -m).bit_length() - 1
        m &= m - 1
        for c, cm in enumerate(color_masks):
            if not (cm & g._mask[v]):
                color_masks[c] = cm | (1 << v)
                break
        else:
            color_masks.append(1 << v)
    for c, cm in enumerate(color_masks, start=1):
        mm = cm
        while mm:
            v = (mm & -mm).bit_length() - 1
            mm &= mm - 1
            order.append(v)
            colors.append(c)
    return order, colors


def _max_clique_positions(g: Graph, stop_at: int | None = None) -> list[int]:
    """Exact maximum clique by branch and bound with a coloring bound."""
    best: list[int] = []

    def expand(current: list[int], cand_mask: int):
        nonlocal best
        if stop_at is not None and len(best) >= stop_at:
            return
        if not cand_mask:
            if len(current) > len(best):
                best = list(current)
            return
        order, colors = _greedy_color_order(g, cand_mask)
        for idx in range(len(order) - 1, -1, -1):
            if len(current) + colors[idx] <= len(best):
                return
            v = order[idx]
            current.append(v)
            expand(current, cand_mask & g._mask[v])
            current.pop()
            cand_mask &= ~(1 << v)
            if stop_at is not None and len(best) >= stop_at:
                return

    if g.n:
        expand([], (1 << g.n) - 1)
    return best


def clique_number(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Exact clique number with a sorted witness clique."""
    if g.n == 0:
        return 0, ()
    best = _max_clique_positions(g)
    return len(best), tuple(sorted(g.vertices[i] for i in best))


def has_clique_of_size(g: Graph, k: int) -> bool:
    """True iff the graph contains a clique on k vertices (k >= 1)."""
    if k < 1:
        raise ValueError("k must be at least 1, got %r" % (k,))
    if k > g.n:
        return False
    return len(_max_clique_positions(g, stop_at=k)) >= k


def _normalize_coloring(colors: list[int]) -> tuple[int, ...]:
    # relabel color classes by first occurrence so output is canonical
    remap: dict[int, int] = {}
    out = []
    for c in colors:
        if c not in remap:
            remap[c] = len(remap)
        out.append(remap[c])
    return tuple(out)


def _greedy_coloring(g: Graph, order: list[int]) -> list[int]:
    colors = [-1] * g.n
    for v in order:
        used = {colors[w] for w in g._nbr[v] if colors[w] >= 0}
        c = 0
        while c in used:
            c += 1
        colors[v] = c
    return colors


def _try_k_coloring(g: Graph, k: int, order: list[int]) -> list[int] | None:
    colors = [-1] * g.n

    def place(idx: int, used: int) -> bool:
        if idx == len(order):
            return True
        v = order[idx]
        banned = {colors[w] for w in g._nbr[v] if colors[w] >= 0}
        # allowing at most one fresh color kills color-permutation symmetry
        for c in range(min(used + 1, k)):
            if c in banned:
                continue
            colors[v] = c
            if place(idx + 1, max(used, c + 1)):
                return True
            colors[v] = -1
        return False

    return colors if place(0, 0) else None


def chromatic_number(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Exact chromatic number with a canonical witness coloring.

    Iterative deepening from the clique lower bound up to the greedy
    upper bound; vertices are tried in descending degree order.
    """
    if g.n == 0:
        return 0, ()
    order = sorted(range(g.n), key=lambda v: (-len(g._nbr[v]), v))
    lower = clique_number(g)[0]
    greedy = _greedy_coloring(g, order)
    upper = max(greedy) + 1
    if lower < upper:
        for k in range(max(lower, 1), upper):
            attempt = _try_k_coloring(g, k, order)
            if attempt is not None:
                return k, _normalize_coloring(attempt)
    return upper, _normalize_coloring(greedy)


# -- complete multipartite recognition ---------------------------------------


@dataclass(frozen=True)
class Partition:
    """Vertex parts of a complete multipartite graph, as element sets."""

    parts: tuple[frozenset[int], ...]

    @property
    def r(self) -> int:
        return len(self.parts)


def complete_multipartite_partition(g: Graph) -> Partition | None:
    """Recognize complete multipartite graphs.

    G is complete multipartite iff its complement is a disjoint union of
    cliques; the complement components are then the parts. Parts come
    back sorted by size, then least vertex.
    """
    comp = g.complement()
    comps_pos = comp._components_positions()
    for cp in comps_pos:
        for i in cp:
            for j in cp:
                if i < j and g.adjacency[i][j]:
                    return None  # an edge inside a would-be part
    parts = [frozenset(g.vertices[i] for i in cp) for cp in comps_pos]
    parts.sort(key=lambda p: (len(p), min(p)))
    return Partition(parts=tuple(parts))


# -- export -------------------------------------------------------------------


def to_dot(g: Graph, name: str = "gamma") -> str:
    """Graph in dot notation; vertex labels are the element names."""
    lines = ["graph %s {" % name]
    for lab in g.labels:
        lines.append('  "%s";' % lab)
    for (u, v) in g.edges():
        lines.append('  "%s" -- "%s";' % (g.label_of(u), g.label_of(v)))
    lines.append("}")
    return "\n".join(lines) + "\n"


def adjacency_listing(g: Graph) -> str:
    """One line per vertex: label followed by sorted neighbor labels."""
    lines = []
    for i, v in enumerate(g.vertices):
        nbrs = " ".join(g.labels[j] for j in sorted(g._nbr[i]))
        lines.append("%s: %s" % (g.labels[i], nbrs))
    return "\n".join(lines) + ("\n" if lines else "")
