"""Rooted-graph isomorphism: enumeration, automorphisms, canonical keys.

Rooted isomorphisms preserve the root and therefore distance from it, so
the search only ever matches vertices of equal refined color, where colors
start at (distance, degree) and are refined by neighbor color multisets.
Each ball is refined on its own, once, by prepare().  The isomorphism
searches and canonical_key accept a ball or its PreparedBall, so a caller
matching many balls against one target refines the target once.  The
searches keep their frames on explicit stacks, so ball size is bounded by
memory, not by the recursion limit.

A first-only automorphism search stops at identity completion: once the
images of 0..j-1 are exactly {0..j-1} and each moved u < j (image not u)
has its image adjacent to every neighbor w >= j of u, the identity on
j..n-1 completes an automorphism.  It is the lex-first completion: then
j is the least unused candidate for j and passes the neighbor test, and
so on up.  So an automorphism_scan probe costs about the vertices it moves.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RootedIso:
    """mapping[v] is the image in target of source vertex v; root to root."""

    source: object
    target: object
    mapping: tuple

    def validate(self):
        b1, b2 = self.source, self.target
        if b1.vertex_count != b2.vertex_count:
            raise ValueError("vertex counts differ")
        if sorted(self.mapping) != list(range(b2.vertex_count)):
            raise ValueError("mapping is not a bijection")
        if b1.vertex_count and self.mapping[0] != 0:
            raise ValueError("root not preserved")
        for v in range(b1.vertex_count):
            if b1.dist[v] != b2.dist[self.mapping[v]]:
                raise ValueError(f"distance not preserved at {v}")
        image = {
            tuple(sorted((self.mapping[u], self.mapping[v])))
            for u, v in b1.edges
        }
        if image != set(b2.edges):
            raise ValueError("adjacency not exactly preserved")
        return self


@dataclass(frozen=True, eq=False)
class PreparedBall:
    """A ball with the per-ball data every search reads, computed once.

    colors are the refined color codes, cells[c] lists the vertices of
    color c in ascending order, masks[v] is the neighbor bitmask of v, and
    earlier[v] lists the neighbors u < v.  profile holds the signature set
    of every refinement round plus the cell sizes: it is equal for
    isomorphic balls, so a mismatch rejects a pair without searching.
    """

    ball: object
    colors: list
    cells: list
    masks: list
    earlier: list
    profile: tuple


def prepare(ball):
    """Refine one ball and index it for the searches; idempotent.

    Color codes are ranked by sorted signature each round, so they are
    invariant across relabelings and isomorphic balls get identical codes
    without being refined together.  A round that splits no color ends the
    refinement: ranking keeps the old color as the leading key, so the
    codes would not change either.
    """
    if isinstance(ball, PreparedBall):
        return ball
    n = ball.vertex_count
    adj = ball.adjacency
    sigs = [(ball.dist[v], len(adj[v])) for v in range(n)]
    rounds = []
    while True:
        rounds.append(tuple(sorted(set(sigs))))
        if len(rounds) > 1 and len(rounds[-1]) == len(rounds[-2]):
            break
        code = {s: i for i, s in enumerate(rounds[-1])}
        colors = [code[s] for s in sigs]
        sigs = [
            (colors[v], tuple(sorted([colors[w] for w in adj[v]])))
            for v in range(n)
        ]
    cells = [[] for _ in rounds[-1]]
    for v in range(n):
        cells[colors[v]].append(v)
    return PreparedBall(
        ball=ball,
        colors=colors,
        cells=cells,
        masks=[sum(1 << w for w in adj[v]) for v in range(n)],
        earlier=[[u for u in adj[v] if u < v] for v in range(n)],
        profile=(tuple(rounds), tuple(len(c) for c in cells)),
    )


def _search(p1, p2, first_only, probe=None):
    """Rooted isomorphisms between two prepared balls, in lex order.

    Source vertices are matched in stored (BFS) order, so every vertex
    after the root already has a mapped neighbor constraining it.  A probe
    (i, t) of an automorphism search starts at i, with 0..i-1 fixed and t
    the one candidate for i.  The frames (candidates left, targets used,
    required neighbor images, reach: one past the highest neighbor of a
    moved vertex that misses its image) sit on an explicit stack, so depth
    is not bounded by the recursion limit.
    """
    if p1 is not p2 and p1.profile != p2.profile:
        return []
    n = p1.ball.vertex_count
    if n == 0:
        return [()]
    c1, c2, cells2 = p1.colors, p2.colors, p2.cells
    adj1, adj2, earlier = p1.masks, p2.masks, p1.earlier
    base, only = probe or (0, None)
    complete = p1 is p2 and first_only
    mapping = list(range(n))
    found = []

    def frame(v, used, reach, cands=None):
        required = 0
        for u in earlier[v]:
            required |= 1 << mapping[u]
        return iter(cands or cells2[c1[v]]), used, required, reach

    stack = [frame(base, (1 << base) - 1, 0, probe and (only,))]
    while stack:
        v = base + len(stack) - 1
        cands, used, required, reach = stack[-1]
        for t in cands:
            if (
                not (used >> t) & 1
                and c2[t] == c1[v]
                and adj2[t] & used == required
            ):
                break
        else:
            stack.pop()
            continue
        mapping[v] = t
        used |= 1 << t
        j = v + 1
        if complete and t != v:
            reach = max(reach, (adj1[v] & ~adj2[t]).bit_length())
        if j == n or (complete and used.bit_length() == j and reach <= j):
            found.append(tuple(mapping[:j]) + tuple(range(j, n)))
            if first_only:
                break
        else:
            stack.append(frame(j, used, reach))
    return found


def rooted_isomorphisms(b1, b2):
    """All rooted isomorphisms b1 -> b2, in deterministic (lex) order."""
    p1, p2 = prepare(b1), prepare(b2)
    out = [RootedIso(p1.ball, p2.ball, m) for m in _search(p1, p2, False)]
    if out:
        out[0].validate()
    return out


def first_rooted_isomorphism(b1, b2):
    """One witness isomorphism, or None; early-exits the search."""
    p1, p2 = prepare(b1), prepare(b2)
    res = _search(p1, p2, first_only=True)
    return RootedIso(p1.ball, p2.ball, res[0]).validate() if res else None


def automorphism_scan(ball, inner_radius):
    """Exact rooted-automorphism count, without enumerating the group.

    Takes a ball or its PreparedBall.  Returns (count, witness) where
    witness is a RootedIso moving some vertex at distance <= inner_radius,
    or None if every automorphism fixes that inner ball pointwise.

    Walks the stabilizer chain along the stored vertex order: the count
    is the product of the orbit sizes.  The orbit of i is probed with one
    search per same-color t > i for the lex-first automorphism fixing
    0..i-1 and sending i to t; it starts at i and ends at identity
    completion (module docstring), so it never re-matches the fixed
    prefix or the fixed rest of the ball.  Balls with huge
    automorphism groups (many interchangeable leaves) stay cheap because
    the count is never materialized as a list of maps.
    """
    p = prepare(ball)
    ball = p.ball
    n = ball.vertex_count
    if n == 0:
        return 1, None
    dist = ball.dist
    if any(dist[v] > dist[v + 1] for v in range(n - 1)):
        # The chain argument below needs the inner ball to be a prefix.
        raise ValueError("vertex order must be nondecreasing in distance")
    count = 1
    witness = None
    for i in range(n):
        orbit = 1
        for t in p.cells[p.colors[i]]:
            if t <= i:
                # t < i is already pointwise-fixed at this link, so it
                # cannot also receive i; t == i is the identity branch.
                continue
            res = _search(p, p, True, probe=(i, t))
            if res:
                orbit += 1
                if witness is None and dist[i] <= inner_radius:
                    witness = RootedIso(ball, ball, res[0]).validate()
        count *= orbit
    return count, witness


def canonical_key(ball):
    """Exact canonical form of a rooted ball as bytes.

    Equal keys hold exactly for rooted-isomorphic balls.  The key is the
    lexicographically least row encoding over all orderings that list the
    refined color cells in invariant-code order; ties branch, with twin
    vertices (equal neighborhoods) collapsed, and a branch whose rows
    already exceed the best complete encoding is cut.  Row pos has bit
    pos-1-i set when the vertex is adjacent to the one placed at i.
    """
    p = prepare(ball)
    ball = p.ball
    n = ball.vertex_count
    if n == 0:
        return b"n=0"
    cell_seq = [c for c, cell in enumerate(p.cells) for _ in cell]
    adj, nbrs = p.masks, ball.adjacency
    position = [0] * n
    order, rows = [], []
    best_rows = best_order = None
    # Frame pos: (vertices placed before pos, their row at pos, the
    # least-row candidates not yet tried, the ones already taken).
    stack = []

    def open_frame(pos, used):
        scored = []
        for v in p.cells[cell_seq[pos]]:
            if not (used >> v) & 1:
                row = 0
                for u in nbrs[v]:
                    if (used >> u) & 1:
                        row |= 1 << (pos - 1 - position[u])
                scored.append((row, v))
        least = min(row for row, _ in scored)
        if best_rows is None or rows + [least] <= best_rows[: pos + 1]:
            choices = iter([v for r, v in scored if r == least])
            stack.append((used, least, choices, []))

    open_frame(0, 0)
    while stack:
        pos = len(stack) - 1
        used, row, choices, taken = stack[-1]
        del order[pos:], rows[pos:]
        for v in choices:
            if all((adj[v] ^ adj[u]) & ~((1 << v) | (1 << u)) for u in taken):
                break
        else:
            stack.pop()
            continue
        taken.append(v)
        position[v] = pos
        order.append(v)
        rows.append(row)
        if pos + 1 < n:
            open_frame(pos + 1, used | (1 << v))
        elif best_rows is None or rows < best_rows:
            best_rows, best_order = rows[:], order[:]
    dist_seq = ",".join(str(ball.dist[v]) for v in best_order)
    row_seq = ",".join(str(r) for r in best_rows)
    return f"n={n};dist={dist_seq};rows={row_seq}".encode()
