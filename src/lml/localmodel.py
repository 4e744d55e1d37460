"""Perfect finite local models and the fixing radius of a Cayley graph.

verify_model checks that every vertex of a finite graph sees, at the given
radius, exactly the ball around the identity in Cay(engine, S), with one
isomorphism search per vertex against the identity ball (vertex_witnesses,
shared with edge labeling).  fixing_radius scans outward for the radius at
which every rooted ball automorphism pins the inner ball pointwise.
"""

from __future__ import annotations

from dataclasses import dataclass

from .balls import (
    DEFAULT_MAX_VERTICES, FiniteGraph, RootedBall, _edges, _grow, cayley_ball, is_connected,
)
from .iso import (
    RootedIso, _check_iso, _refine, _search, automorphism_scan, canonical_key, prepare,
)
from .words import LmlError


class NotAModelError(LmlError):
    """A vertex ball does not match; rejection is (vertex, reason)."""

    def __init__(self, rejection):
        self.rejection = rejection
        super().__init__(rejection[1])


@dataclass(frozen=True)
class ModelClass:
    """One isomorphism class of vertex balls: key, representative, witness."""

    key: bytes
    representative: int
    witness: object  # RootedIso onto the Cayley ball


@dataclass(frozen=True)
class ModelVerdict:
    accepted: bool
    radius: int
    connected: bool
    vertex_count: int
    classes: tuple
    rejection: tuple = None  # (vertex, reason) when not accepted

    def to_jsonable(self):
        return {
            "schema": 1,
            "accepted": self.accepted,
            "radius": self.radius,
            "connected": self.connected,
            "vertex_count": self.vertex_count,
            "classes": [
                {
                    "key": c.key.decode(),
                    "representative": c.representative,
                    "witness": list(c.witness.mapping) if c.witness else None,
                }
                for c in self.classes
            ],
            "rejection": (
                None
                if self.rejection is None
                else {"vertex": self.rejection[0], "reason": self.rejection[1]}
            ),
        }


def vertex_witnesses(graph, target, radius):
    """Match each vertex ball against the prepared target, in vertex order.

    Yields (vertex, order, dist, nbrs, colors, mapping): order[ball vertex]
    is the graph vertex, dist, nbrs and colors the ball's distances,
    neighbour lists and refined colors, and mapping the lex-first rooted
    isomorphism from the ball onto the target.  Raises NotAModelError at
    the first vertex whose ball does not match.  A ball stays the lists of
    one breadth-first search over graph.adjacency (cached on graph, so
    pass a private copy): it is refined like the target, searched and
    checked with no ball object.
    When every color of the target is a single vertex, the witness is read
    off the ball's colors, color c to c's vertex, with no search: it is the
    only candidate, and _check_iso decides whether it is an isomorphism.
    """
    adjacency, n = graph.adjacency.__getitem__, graph.vertex_count
    cells = target.cells
    single = [cell[0] for cell in cells] if all(len(c) == 1 for c in cells) else None
    for v in range(n):
        order, dist, nbrs = _grow(v, adjacency, radius, n)
        refined = _refine(dist, nbrs, like=target)
        if refined and single:
            found = tuple(map(single.__getitem__, refined[0]))
            try:
                _check_iso(dist, nbrs, target.ball, found)
            except ValueError:
                found = None
        else:
            found = refined and next(_search(refined[0], nbrs, target), None)
            if found:
                _check_iso(dist, nbrs, target.ball, found)
        if not found:
            raise NotAModelError((
                v,
                f"ball at vertex {v} is not rooted-isomorphic to the "
                f"radius-{radius} ball at the identity",
            ))
        yield v, order, dist, nbrs, refined[0], found


def verify_model(graph, engine, genset, radius, max_vertices=DEFAULT_MAX_VERTICES):
    """Is the graph a perfect radius-r local model of Cay(engine, S)?

    Accepts iff the ball at every vertex is rooted-isomorphic to the ball
    around the identity.  Connectivity is reported, never required.  The
    identity ball is refined once and every vertex ball is searched
    against it in vertex order, stopping at the first that fails, so the
    only class ever reported is the target's: its canonical key, vertex 0
    as representative, and the lex-first isomorphism as witness.  The walk
    and the connectivity test share one private copy of the graph.
    """
    target = prepare(cayley_ball(engine, genset, radius, max_vertices))
    graph = FiniteGraph(graph.vertex_count, graph.edges)
    classes = ()
    rejection = None
    try:
        for v, order, dist, nbrs, _, mapping in vertex_witnesses(graph, target, radius):
            if v == 0:
                ball = RootedBall(len(order), radius, dist, _edges(nbrs))
                witness = RootedIso(ball, target.ball, mapping)
                classes = (ModelClass(canonical_key(target), 0, witness),)
    except NotAModelError as err:
        rejection = err.rejection
    return ModelVerdict(
        accepted=rejection is None,
        radius=radius,
        connected=is_connected(graph),
        vertex_count=graph.vertex_count,
        classes=classes,
        rejection=rejection,
    )


@dataclass(frozen=True)
class FixingRadiusReport:
    """Scan result: automorphism counts by radius and moving witnesses.

    r0 is None when no radius up to the bound works (an honest
    non-refutation: the scanned prefix says nothing beyond the bound).
    moving_witnesses maps each failed radius to one automorphism mapping
    that moves a vertex of the inner radius-r ball.
    """

    r: int
    bound: int
    r0: int = None
    automorphism_counts: tuple = ()
    moving_witnesses: tuple = ()  # ((radius, mapping), ...)

    @property
    def found(self):
        return self.r0 is not None

    def to_jsonable(self):
        return {
            "schema": 1,
            "r": self.r,
            "bound": self.bound,
            "r0": self.r0,
            "automorphism_counts": [
                {"radius": rad, "count": count}
                for rad, count in self.automorphism_counts
            ],
            "moving_witnesses": [
                {"radius": rad, "mapping": list(mapping)}
                for rad, mapping in self.moving_witnesses
            ],
        }


def fixing_radius(engine, genset, r, bound, max_vertices=DEFAULT_MAX_VERTICES):
    """Least r0 in [r, bound] such that every rooted automorphism of the
    radius-r0 ball fixes the radius-r ball pointwise; scans upward."""
    if bound < r:
        raise ValueError("bound must be at least r")
    counts = []
    witnesses = []
    r0 = None
    for rho in range(r, bound + 1):
        ball = cayley_ball(engine, genset, rho, max_vertices)
        # Orbit-stabilizer count: the group is never listed out, so balls
        # whose leaves contribute factorially many automorphisms stay cheap.
        count, moving = automorphism_scan(ball, r)
        counts.append((rho, count))
        if moving is None:
            r0 = rho
            break
        witnesses.append((rho, moving.mapping))
    return FixingRadiusReport(
        r=r,
        bound=bound,
        r0=r0,
        automorphism_counts=tuple(counts),
        moving_witnesses=tuple(witnesses),
    )
