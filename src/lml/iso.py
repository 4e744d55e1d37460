"""Rooted-graph isomorphism: enumeration, automorphisms, canonical keys.

Rooted isomorphisms preserve the root and therefore distance from it, so
the search only ever matches vertices of equal refined color, where colors
start at (distance, degree) and are refined by neighbor color multisets
until a round splits no color or leaves every color a single vertex.
The searches and canonical_key take a ball or its PreparedBall.  A search
refines its source in prepare's like mode, by lookups in the prepared
target's code tables: that gives the source's own colors exactly, or
rejects the pair before any search.  Like mode keys a neighbor multiset
by the sum of base**code over it, base one more than the target's top
degree: exact, as round 0 has found every degree in the target, so every
multiplicity is below base.  The vertex walk of localmodel runs _refine,
_search and _check_iso on each ball's plain distance and neighbor lists,
with no ball object.  _search walks the search tree of McKay and Piperno
(2014) lazily: k sent after a yield cuts its stack to k frames, so the
next yield is the lex-first map differing from the last on their vertices.

An automorphism probe stops at identity completion: once the images of
0..j-1 are exactly {0..j-1} and each moved u < j (image not u) has its
image adjacent to every neighbor w >= j of u, the identity on j..n-1
completes an automorphism.  It is the lex-first completion: then
j is the least unused candidate for j and passes the neighbor test, and
so on up.  So an automorphism_scan probe costs about the vertices it moves,
and a twin swap, once the scan wants no witness there, is counted with no
probe; a witness still comes from a probe, so it is the lex-first one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import count, repeat

from .words import ResourceLimitError

DEFAULT_MAX_FRAMES = 200_000  # canonical_key's cap; the Z^3 9-ball opens ~80,000


@dataclass(frozen=True)
class RootedIso:
    """mapping[v] is the image in target of source vertex v; root to root."""

    source: object
    target: object
    mapping: tuple

    def validate(self):
        _check_iso(self.source.dist, self.source.adjacency, self.target, self.mapping)
        return self


def _check_iso(dist, nbrs, target, m):
    """Raise ValueError unless m is a rooted isomorphism (dist, nbrs) -> target."""
    if len(dist) != target.vertex_count:
        raise ValueError("vertex counts differ")
    if sorted(m) != list(range(len(dist))):
        raise ValueError("mapping is not a bijection")
    if dist and m[0] != 0:
        raise ValueError("root not preserved")
    dist2, adj2 = target.dist, target.adjacency  # adj2 lists are sorted
    for v, d in enumerate(dist):
        if d != dist2[m[v]]:
            raise ValueError(f"distance not preserved at {v}")
    for u, ws in enumerate(nbrs):
        if tuple(sorted(map(m.__getitem__, ws))) != adj2[m[u]]:
            raise ValueError("adjacency not exactly preserved")


@dataclass(frozen=True, eq=False)
class PreparedBall:
    """A ball, its refined color codes, and its profile: the signature set
    of each refinement round plus the cell sizes, equal for isomorphic
    balls.  Made on first read: cells[c] lists the vertices of color c in
    ascending order, masks[v] is the neighbor bitmask of v, and tables[i]
    pairs the codes of round i's like-mode keys with base**code per code.
    """

    ball: object
    colors: list
    profile: tuple

    @cached_property
    def cells(self):
        cells = [[] for _ in self.profile[1]]
        for v, c in enumerate(self.colors):
            cells[c].append(v)
        return cells

    @cached_property
    def masks(self):
        return [sum(1 << w for w in nbrs) for nbrs in self.ball.adjacency]

    @cached_property
    def tables(self):
        rounds = self.profile[0]
        base = max((deg for _, deg in rounds[0]), default=0) + 1
        powers = [[base**c for c in range(len(sigs))] for sigs in rounds]
        keys = [rounds[0]] + [
            [(s[0], sum(map(pw.__getitem__, s[1]))) for s in sigs]
            for sigs, pw in zip(rounds[1:], powers)
        ]
        return [({k: c for c, k in enumerate(ks)}, pw) for ks, pw in zip(keys, powers)]


def _refine(dist, nbrs, like=None):
    """prepare's (colors, profile), or None, for a ball given as lists."""
    sigs = list(zip(dist, map(len, nbrs)))
    rounds = like.profile[0] if like else []
    for i in count():
        if like:
            (code, powers), last = like.tables[i], i + 1 == len(rounds)
        else:
            rounds.append(tuple(sorted(set(sigs))))
            last = len(rounds[i]) == len(sigs) or (
                i > 0 and len(rounds[i]) == len(rounds[i - 1]))
            code = {s: c for c, s in enumerate(rounds[i])}
        try:
            colors = list(map(code.__getitem__, sigs))
        except KeyError:  # like mode only: like's round lacks a signature
            return None
        if last:
            break
        keys = list(map(powers.__getitem__, colors)) if like else colors
        codes = map(map, repeat(keys.__getitem__), nbrs)
        sigs = list(zip(colors, map(sum, codes) if like else map(tuple, map(sorted, codes))))
    sizes = [0] * len(rounds[-1])
    for c in colors:
        sizes[c] += 1
    profile = (tuple(rounds), tuple(sizes))
    return None if like and profile != like.profile else (colors, profile)


def prepare(ball, like=None):
    """Refine one ball for the searches; a PreparedBall is returned as is,
    or None if like is given and its profile is not like's.

    Codes are ranked by sorted signature each round, so isomorphic balls
    get identical codes without being refined together; a round that
    splits no color (its codes are the old colors), or that leaves every
    color a single vertex, ends the refinement.
    With like, a PreparedBall, each of like's rounds, the last included,
    looks the signatures up in like's table instead: None if one is
    missing or the final cell sizes differ, else prepare(ball) exactly.
    A code's signature leads with the previous code, so all rounds' colors
    follow from the final ones: equal final cell sizes use every code of
    every round of like, so the ball's own signature sets are like's.
    """
    if isinstance(ball, PreparedBall):
        return ball if like is None or ball.profile == like.profile else None
    refined = _refine(ball.dist, ball.adjacency, like)
    return refined and PreparedBall(ball, *refined)


def _search(colors, nbrs, p2, probe=None):
    """Rooted isomorphisms onto p2, lazily in lex order, from source colors and nbrs.

    Source vertices are matched in stored (BFS) order, so every vertex
    after the root already has a mapped neighbor constraining it.  A probe
    (i, t) of an automorphism search of p2 starts at i, 0..i-1 fixed and t,
    of i's color, the one candidate for i, and is read for its first yield
    only.  A frame holds the candidates left, targets used, required
    neighbor images, and reach: one past the highest neighbor of a moved
    vertex that misses its image.  send(k) after a yield keeps k frames.
    """
    n = len(colors)
    if n == 0:
        yield ()
        return
    cells2, adj2 = p2.cells, p2.masks
    base, only = probe or (0, None)
    mapping = list(range(n))
    required = sum([1 << u for u in nbrs[base] if u < base])
    cands = (only,) if probe else cells2[colors[base]]
    stack = [(iter(cands), (1 << base) - 1, required, 0)]
    while stack:
        v = base + len(stack) - 1
        cands, used, required, reach = stack[-1]
        for t in cands:
            if not (used >> t) & 1 and adj2[t] & used == required:
                break
        else:
            stack.pop()
            continue
        mapping[v] = t
        used |= 1 << t
        j = v + 1
        if probe and t != v:
            reach = max(reach, (adj2[v] & ~adj2[t]).bit_length())
        if j == n or (probe and used.bit_length() == j and reach <= j):
            cut = yield tuple(mapping[:j]) + tuple(range(j, n))
            if cut is not None:
                del stack[cut:]
        else:
            required = 0
            for u in nbrs[j]:
                if u < j:
                    required |= 1 << mapping[u]
            stack.append((iter(cells2[colors[j]]), used, required, reach))


def rooted_isomorphisms(b1, b2):
    """All rooted isomorphisms b1 -> b2, in deterministic (lex) order."""
    p2 = prepare(b2)
    p1 = prepare(b1, like=p2)
    found = _search(p1.colors, p1.ball.adjacency, p2) if p1 else ()
    out = [RootedIso(p1.ball, p2.ball, m) for m in found]
    if out:
        out[0].validate()
    return out


def first_rooted_isomorphism(b1, b2):
    """One witness isomorphism, or None; early-exits the search."""
    p2 = prepare(b2)
    p1 = prepare(b1, like=p2)
    res = next(_search(p1.colors, p1.ball.adjacency, p2), None) if p1 else None
    return None if res is None else RootedIso(p1.ball, p2.ball, res).validate()


def _twins(masks, u, v):
    """Do u and v have the same neighbors, apart from each other?"""
    return not (masks[u] ^ masks[v]) & ~((1 << u) | (1 << v))


def automorphism_scan(ball, inner_radius):
    """Exact rooted-automorphism count, without enumerating the group.

    Takes a ball or its PreparedBall.  Returns (count, witness) where
    witness is a RootedIso moving some vertex at distance <= inner_radius,
    or None if every automorphism fixes that inner ball pointwise.

    Walks the stabilizer chain along the stored vertex order: the count is
    the product of the orbit sizes.  The orbit of i is probed with one
    search per same-color t > i for the lex-first automorphism fixing
    0..i-1 and sending i to t, from i to identity completion (module
    docstring); a twin t needs none once no witness is wanted at i, as
    (i t) fixes 0..i-1.  The count is never materialized as a list of maps.
    """
    p = prepare(ball)
    ball = p.ball
    n = ball.vertex_count
    dist = ball.dist
    if any(dist[v] > dist[v + 1] for v in range(n - 1)):
        # The chain argument below needs the inner ball to be a prefix.
        raise ValueError("vertex order must be nondecreasing in distance")
    count, witness, masks = 1, None, p.masks
    for i in range(n):
        orbit = 1
        for t in p.cells[p.colors[i]]:
            if t <= i:
                # t < i is already pointwise-fixed at this link, so it
                # cannot also receive i; t == i is the identity branch.
                continue
            if (witness or dist[i] > inner_radius) and _twins(masks, i, t):
                orbit += 1
                continue
            res = next(_search(p.colors, ball.adjacency, p, probe=(i, t)), None)
            if res is not None:
                orbit += 1
                if witness is None and dist[i] <= inner_radius:
                    witness = RootedIso(ball, ball, res).validate()
        count *= orbit
    return count, witness


def canonical_key(ball):
    """Exact canonical form of a rooted ball as bytes.

    Equal keys hold exactly for rooted-isomorphic balls.  The key is the
    lexicographically least row encoding over all orderings that list the
    refined color cells in invariant-code order; ties branch, with twin
    vertices (equal neighborhoods) collapsed, and a branch whose rows
    already exceed the best complete encoding is cut.  Row pos has bit
    pos-1-i set when the vertex is adjacent to the one placed at i.  The
    search opens at most DEFAULT_MAX_FRAMES frames, one per position
    placed on a branch, and raises ResourceLimitError past that.
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
    frames = 0

    def open_frame(pos, used):
        nonlocal frames
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
            if frames >= DEFAULT_MAX_FRAMES:
                raise ResourceLimitError(
                    f"canonical-key search of a {n}-vertex ball reached "
                    f"max_frames={DEFAULT_MAX_FRAMES} frames opened; "
                    f"positions placed: {pos} of {n}"
                )
            frames += 1
            choices = iter([v for r, v in scored if r == least])
            stack.append((used, least, choices, []))

    open_frame(0, 0)
    while stack:
        pos = len(stack) - 1
        used, row, choices, taken = stack[-1]
        del order[pos:], rows[pos:]
        for v in choices:
            if not any(_twins(adj, v, u) for u in taken):
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
