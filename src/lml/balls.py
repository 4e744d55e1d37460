"""Finite graphs, rooted balls, and metric balls in Cayley graphs.

Vertices of a Cayley ball are identified by engine keys (canonical forms),
never by spellings.  Construction order is deterministic: breadth-first,
ties broken by generating-set index and then discovery order.  Resource
caps raise ResourceLimitError; nothing is ever silently truncated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .words import ParseError, ResourceLimitError, word

DEFAULT_MAX_VERTICES = 5_000_000


def _check_edges(vertex_count, edges):
    """The edges, sorted; each must be a (u, v), 0 <= u < v < n, once."""
    edges = tuple(sorted(tuple(e) for e in edges))
    # Sorted, a repeat sits right after its first copy.
    last = (-1, -1)
    for e in edges:
        u, v = e
        if not (0 <= u < v < vertex_count):
            raise ValueError(f"bad edge ({u}, {v}) for {vertex_count} vertices")
        if e <= last:
            raise ValueError(f"parallel edge ({u}, {v})")
        last = e
    return edges


def _adjacency(vertex_count, edges):
    adj = [[] for _ in range(vertex_count)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return tuple(tuple(sorted(nbrs)) for nbrs in adj)


class _Graph:
    """Adjacency lists, made on first read, for the two graph types."""

    @cached_property
    def adjacency(self):
        return _adjacency(self.vertex_count, self.edges)

    def degree(self, v):
        return len(self.adjacency[v])


@dataclass(frozen=True)
class FiniteGraph(_Graph):
    """Simple undirected graph on {0..n-1}; edges are (u, v) with u < v."""

    vertex_count: int
    edges: tuple

    def __post_init__(self):
        edges = _check_edges(self.vertex_count, self.edges)
        object.__setattr__(self, "edges", edges)


@dataclass(frozen=True)
class RootedBall(_Graph):
    """Rooted graph with per-vertex distance from the root (vertex 0).

    radius is the requested construction radius; spheres beyond the last
    populated distance are genuinely empty (saturated group), never cut.
    A Cayley ball keeps the engine keys of its vertices; element_labels,
    their pairwise distinct canonical forms, are made on first read.
    """

    vertex_count: int
    radius: int
    dist: tuple
    edges: tuple
    keys: tuple = None
    engine: object = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "dist", tuple(self.dist))
        edges = _check_edges(self.vertex_count, self.edges)
        object.__setattr__(self, "edges", edges)
        if len(self.dist) != self.vertex_count:
            raise ValueError("dist length differs from vertex count")
        if self.vertex_count and self.dist[0] != 0:
            raise ValueError("root must be at distance 0")

    @property
    def root(self):
        return 0

    @cached_property
    def element_labels(self):
        if self.keys is not None:
            return tuple(self.engine.label(k) for k in self.keys)


def sphere_sizes(ball):
    """Vertex counts by distance 0..radius (zeros once the group saturates)."""
    out = [0] * (ball.radius + 1)
    for d in ball.dist:
        out[d] += 1
    return tuple(out)


def _grow(root, neighbours, radius, max_vertices):
    """Breadth-first ball of the given radius around root.

    Returns (order, dist, nbrs): the vertices in discovery order (ties
    broken by the order neighbours(x) lists them), their distances from
    root, and nbrs[i], the ball indices of i's neighbours in the ball, in
    the order neighbours(x) lists them; neighbours must be symmetric.
    Vertices at the radius add no new vertices but still give edges.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    index = {root: 0}
    order = [root]
    dist = [0]
    nbrs = []
    for i, x in enumerate(order):
        d = dist[i]
        nbrs.append(here := [])
        for y in neighbours(x):
            j = index.get(y)
            if j is None:
                if d == radius:
                    continue
                if len(order) >= max_vertices:
                    raise ResourceLimitError(
                        f"ball exceeds max_vertices={max_vertices}"
                    )
                j = index[y] = len(order)
                order.append(y)
                dist.append(d + 1)
            here.append(j)
    return order, dist, nbrs


def _edges(nbrs):
    return [(i, j) for i, ws in enumerate(nbrs) for j in ws if i < j]


def cayley_ball(engine, genset, radius, max_vertices=DEFAULT_MAX_VERTICES):
    """Ball of the given radius around the identity in Cay(engine, genset).

    Vertices are numbered in BFS order (ties: genset index, then discovery
    order); vertex 0 is the identity, so for a validated S and radius >= 1
    vertex i + 1 is S-letter i.  Edges are all pairs {u, u*s} with
    both endpoints inside the ball, including sphere-to-sphere edges.
    The search runs on engine keys, one call of engine.neighbours(S)
    per vertex; labels are made only if read.
    """
    keys, dist, nbrs = _grow(
        engine.key(word()), engine.neighbours(genset.words), radius, max_vertices
    )
    return RootedBall(len(keys), radius, dist, _edges(nbrs), tuple(keys), engine)


def finite_ball_with_order(graph, v, radius):
    """Induced ball around v in BFS order, and order[ball vertex] = graph vertex."""
    if not (0 <= v < graph.vertex_count):
        raise ValueError(f"vertex {v} out of range")
    order, dist, nbrs = _grow(
        v, graph.adjacency.__getitem__, radius, graph.vertex_count
    )
    return RootedBall(len(order), radius, dist, _edges(nbrs)), tuple(order)


class NotReachableError(ValueError):
    """The (finite) Cayley graph was exhausted without reaching the element."""


def distance(engine, genset, g, max_explored=DEFAULT_MAX_VERTICES):
    """Exact d(identity, g) in Cay(engine, genset) by meeting in the middle.

    Both searches run on engine keys, one whole level at a time, and the
    first element found by both sides ends the search.  That is exact:
    with no meeting yet the visited sets are disjoint, so the distance is
    at least d + depth[other] while level d of one side is expanded, and a
    meeting there costs d + visited depth <= d + depth[other].  Raises
    ResourceLimitError past max_explored visited elements, and
    NotReachableError if the (finite) graph is exhausted without reaching g.
    """
    ke = engine.key(word())
    kg = engine.key(g)
    if ke == kg:
        return 0
    neighbours = engine.neighbours(genset.words)
    visited = ({ke: 0}, {kg: 0})
    frontiers = ([ke], [kg])
    depth = [0, 0]
    while True:
        side = 0 if len(frontiers[0]) <= len(frontiers[1]) else 1
        if not frontiers[side]:
            raise NotReachableError(
                "element not reachable from the identity over S"
            )
        here, there = visited[side], visited[1 - side]
        nxt = []
        d = depth[side] + 1
        for u in frontiers[side]:
            for k in neighbours(u):
                if k in here:
                    continue
                if len(visited[0]) + len(visited[1]) >= max_explored:
                    raise ResourceLimitError(
                        f"distance search exceeds max_explored={max_explored}"
                    )
                here[k] = d
                nxt.append(k)
                if k in there:
                    return d + there[k]
        frontiers[side][:] = nxt
        depth[side] = d


def is_connected(graph):
    """Is the graph connected?  Reads an adjacency made on it; caches none."""
    n = graph.vertex_count
    adjacency = vars(graph).get("adjacency") or _adjacency(n, graph.edges)
    return n == 0 or len(_grow(0, adjacency.__getitem__, n, n)[0]) == n


# ---------------------------------------------------------------------------
# text format: `n m` header, one `u v` line per edge (0 <= u < v < n);
# rooted balls are written with `root`, `radius` and `dist` lines too


def render_graph(graph):
    lines = [f"{graph.vertex_count} {len(graph.edges)}"]
    lines.extend(f"{u} {v}" for u, v in graph.edges)
    return "\n".join(lines) + "\n"


def render_rooted_ball(ball):
    dist = " ".join(str(d) for d in ball.dist)
    return render_graph(ball) + f"root {ball.root}\nradius {ball.radius}\ndist {dist}\n"


def parse_graph(text):
    """A FiniteGraph from an `n m` header line and m `u v` edge lines."""
    header = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if len(parts) != 2 or not all(p.isdigit() for p in parts):
            expected = "`n m` header" if header is None else "`u v` edge line"
            raise ParseError(f"expected {expected}", line=lineno)
        if header is None:
            header = (int(parts[0]), int(parts[1]))
        else:
            edges.append((int(parts[0]), int(parts[1])))
    if header is None:
        raise ParseError("empty graph file")
    n, m = header
    if len(edges) != m:
        raise ParseError(f"header promises {m} edges, file has {len(edges)}")
    try:
        return FiniteGraph(n, edges)
    except ValueError as err:
        raise ParseError(str(err))
