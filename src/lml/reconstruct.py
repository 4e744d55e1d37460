"""Recovering subgroup structure from a verified local model.

A connected graph whose radius-r balls all match the identity ball of
Cay(engine, S) carries a canonical S-labeling of its directed edges when
the matching isomorphisms are unique near each vertex.  The labels define
a right action of the free group on S; once the action satisfies a
presentation of the group on S, the graph is the Schreier graph of the
stabilizer of any base vertex, and that stabilizer is returned by
Schreier generators.  Every hypothesis failure on the way is reported as
a value (ambiguity, pairing clash, relator violation, disconnection,
non-model), never hidden behind an accepting answer.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .balls import (
    DEFAULT_MAX_VERTICES, FiniteGraph, RootedBall, _edges, _grow, cayley_ball, distance,
    is_connected,
)
from .cosets import SchreierGraph
from .iso import RootedIso, prepare
from .localmodel import NotAModelError, vertex_witnesses
from .words import LmlError, Word, _word_permutation, concat, free_reduce, invert, word

# Two isomorphisms onto the identity ball that differ within this distance
# make the labeling ambiguous.  Labels come off the 1-sphere; 2 also pins
# each neighbour's edges and is the paper's inner fixing radius, so a ball
# radius of at least r0 for r = 2 (3 for BS(9, 10), s10) is unambiguous.
LABEL_RADIUS = 2


class NotRegularError(LmlError):
    """A vertex lacks a full set of S-labels, so no action exists."""

    def __init__(self, vertex):
        self.vertex = vertex
        super().__init__(f"vertex {vertex} lacks a full set of S-labels")


class BaseLettersMissingError(LmlError):
    """S does not contain some original generator as an element."""

    def __init__(self, name):
        self.name = name
        super().__init__(f"generator {name!r} is not an element of S")


# ---------------------------------------------------------------------------
# edge labelings and the induced action


@dataclass(frozen=True)
class EdgeLabeling:
    """S-index labels on directed edges.

    directed holds (v, w, s_index) triples, sorted; the label of (w, v) is
    the inverse pairing of the label of (v, w), and the out-labels at any
    vertex are pairwise distinct (both checked by the producer, the second
    re-checked here).
    """

    vertex_count: int
    genset_size: int
    directed: tuple

    def __post_init__(self):
        object.__setattr__(self, "directed", tuple(sorted(self.directed)))
        per_vertex = defaultdict(set)
        for v, w, i in self.directed:
            if not (0 <= i < self.genset_size):
                raise ValueError(f"label {i} out of range")
            if i in per_vertex[v]:
                raise ValueError(f"vertex {v} repeats out-label {i}")
            per_vertex[v].add(i)

    def to_jsonable(self):
        return {
            "vertex_count": self.vertex_count,
            "genset_size": self.genset_size,
            "labels": [list(t) for t in self.directed],
        }


@dataclass(frozen=True)
class AmbiguousLabeling:
    """Two ball isomorphisms at `vertex` that differ within LABEL_RADIUS."""

    vertex: int
    first: object
    second: object

    def disagreement(self):
        """A ball vertex within LABEL_RADIUS where the two maps differ."""
        ball = self.first.source
        for x in range(ball.vertex_count):
            if ball.dist[x] <= LABEL_RADIUS and self.first.mapping[x] != self.second.mapping[x]:
                return x
        return None

    def to_jsonable(self):
        return {
            "vertex": self.vertex,
            "first": list(self.first.mapping),
            "second": list(self.second.mapping),
            "disagreement": self.disagreement(),
        }


@dataclass(frozen=True)
class LabelInconsistency:
    """A directed edge whose reverse label is not the inverse pairing."""

    edge: tuple
    detail: str

    def to_jsonable(self):
        return {"edge": list(self.edge), "detail": self.detail}


def label_edges(graph, engine, genset, radius,
                max_vertices=DEFAULT_MAX_VERTICES):
    """Label each directed edge of a verified model by its S-letter.

    One walk over the vertex balls verifies the model (NotAModelError at
    the first ball that does not match) and labels edge (v, w) by the s
    with phi_v(w) = s, phi_v being the lex-first isomorphism onto the
    identity ball.  Two such isomorphisms differ by an automorphism of the
    identity ball, so one matcher decides for every vertex whether they
    agree within LABEL_RADIUS: vertex 0's, the walk's own, cut after its
    first map to the LABEL_RADIUS prefix.  A second map, the next in lex
    order that moves that ball, is reported as AmbiguousLabeling.  The
    reverse edge must carry the paired inverse letter (LabelInconsistency
    otherwise).  The walk caches an adjacency on graph; reconstruct hands
    it a private copy.
    """
    if radius < 1:
        raise ValueError("edge labeling needs radius >= 1")
    if graph.vertex_count == 0:
        raise ValueError("graph has no vertices")
    target = prepare(cayley_ball(engine, genset, radius, max_vertices))
    labels = {}
    for v, order, dist, nbrs, isos, mapping in vertex_witnesses(graph, target, radius):
        if v == 0:
            root = dist, nbrs, isos, mapping
        # The root's neighbours are ball vertices 1..deg(v), and the
        # identity ball numbers S-letter i as vertex i + 1.
        for x in range(1, graph.degree(v) + 1):
            labels[(v, order[x])] = mapping[x] - 1
    dist, nbrs, isos, first = root
    try:
        second = isos.send(sum(d <= LABEL_RADIUS for d in dist))
    except StopIteration:  # every map agrees within LABEL_RADIUS
        pass
    else:
        ball = RootedBall(len(dist), radius, dist, _edges(nbrs))
        return AmbiguousLabeling(0, RootedIso(ball, target.ball, first),
                                 RootedIso(ball, target.ball, second))
    for (v, w), i in labels.items():
        back = labels[(w, v)]
        if back != genset.inverse_pairing[i]:
            return LabelInconsistency(
                (v, w),
                f"forward label {i} pairs with {genset.inverse_pairing[i]}, "
                f"reverse edge carries {back}",
            )
    return EdgeLabeling(
        vertex_count=graph.vertex_count,
        genset_size=len(genset),
        directed=tuple(sorted((v, w, i) for (v, w), i in labels.items())),
    )


def build_action(graph, labeling, genset):
    """Turn a complete inverse-consistent labeling into sigma maps.

    Every vertex must carry all |S| out-labels (a model of an |S|-regular
    graph is |S|-regular); bijectivity of each sigma is re-verified.
    """
    n = graph.vertex_count
    k = len(genset)
    out = defaultdict(dict)
    for v, w, i in labeling.directed:
        out[v][i] = w
    sigma = [[None] * n for _ in range(k)]
    for v in range(n):
        if len(out.get(v, ())) != k:
            raise NotRegularError(v)
        for i, w in out[v].items():
            sigma[i][v] = w
    for i in range(k):
        if sorted(sigma[i]) != list(range(n)):
            raise ValueError(f"sigma for letter {i} is not a bijection")
    return SchreierGraph(n, tuple([tuple(col) for col in sigma]))


# ---------------------------------------------------------------------------
# presenting the group on S and checking the action factors through it


def present_on_S(presentation, genset, engine,
                 max_vertices=DEFAULT_MAX_VERTICES):
    """Relators over the abstract alphabet S, plus the radius they need.

    Output relators use S indices as letters, always with positive
    exponents (inverses go through the pairing).  They comprise a
    definition relator s * (spelling of s over base letters)^-1 for every
    s that is not itself a base generator or its inverse, plus every
    presentation relator rewritten over the base letters.  Also returns
    r' = the largest distance from the identity reached by any prefix of
    any relator, evaluated in Cay(engine, S) with one distance search per
    distinct prefix element, each capped at max_vertices explored elements.
    """
    at, base = {}, {}  # at: key -> first index in S
    for i, s in enumerate(genset.words):
        at.setdefault(engine.key(s), i)
    for g, name in enumerate(presentation.generators):
        base[g] = at.get(engine.key(word(((g, 1),))))
        if base[g] is None:
            raise BaseLettersMissingError(name)
    pairing = genset.inverse_pairing
    base_like = set(base.values()) | {pairing[i] for i in base.values()}

    def over_base(w):
        out = []
        for g, e in w.letters:
            idx = base[g] if e > 0 else pairing[base[g]]
            out.extend([(idx, 1)] * abs(e))
        return out

    relators = []
    for i, s in enumerate(genset.words):
        if i in base_like:
            continue
        relators.append(word([(i, 1)] + over_base(invert(s))))
    for rel in presentation.relators:
        relators.append(word(over_base(rel)))

    r_prime, seen = 0, set()
    for rel in relators:
        acc = word()
        for i, e in rel.letters:
            for _ in range(e):
                acc = concat(acc, genset.words[i])
                k = engine.key(acc)
                if k not in seen:
                    seen.add(k)
                    r_prime = max(r_prime, distance(engine, genset, acc, max_vertices))
    return relators, r_prime


@dataclass(frozen=True)
class RelatorViolation:
    """A relator over S that moves some vertex of the action."""

    relator: Word
    vertex: int

    def to_jsonable(self):
        return {"relator": [list(t) for t in self.relator.letters],
                "vertex": self.vertex}


def check_factors(action, relators, pairing):
    """True iff every relator acts as the identity on every vertex.

    Returns the first RelatorViolation otherwise (relator order, then
    vertex order).  A negative exponent acts by the paired inverse letter.
    """
    n, sigma = action.vertex_count, action.sigma
    inverses = [sigma[j] for j in pairing]
    for rel in relators:
        perm = _word_permutation(rel, n, sigma, inverses)
        for v, x in enumerate(perm):
            if x != v:
                return RelatorViolation(rel, v)
    return True


def stabilizer(action, genset):
    """Schreier generators of vertex 0's stabilizer, over the original alphabet.

    The spanning tree is the balls' breadth-first search over the action,
    rooted at 0 with edges tried in S order; each non-tree pair (u, s)
    contributes p_u * s * p_{sigma_s(u)}^-1, freely reduced, with empties
    and exact duplicates dropped.
    """
    n, sigma = action.vertex_count, action.sigma
    _, _, nbrs = _grow(0, lambda u: [col[u] for col in sigma], n, n)
    letters = [s.letters for s in genset.words]
    path, back = [()], [()]  # by BFS index: reduced letter tuples, inverses
    gens, seen = [], set()
    for u, targets in enumerate(nbrs):
        for s, t in zip(letters, targets):
            if t == len(path):  # _grow numbers t on this, its first arc
                path.append(free_reduce(path[u] + s).letters)
                back.append(invert(Word(path[t])).letters)
                continue
            g = free_reduce(path[u] + s + back[t])
            if g.letters and g.letters not in seen:
                seen.add(g.letters)
                gens.append(g)
    return gens


# ---------------------------------------------------------------------------
# the pipeline


@dataclass(frozen=True)
class ReconstructionResult:
    """Outcome of the full pipeline; exactly one failure payload is set.

    outcome is one of success, not_a_model, disconnected,
    ambiguous_labeling, label_inconsistency, relator_violation.
    """

    outcome: str
    labeling: EdgeLabeling = None
    action: SchreierGraph = None
    stabilizer_words: tuple = None
    r_prime: int = None
    ambiguity: AmbiguousLabeling = None
    inconsistency: LabelInconsistency = None
    violation: RelatorViolation = None
    rejection: tuple = None

    @property
    def succeeded(self):
        return self.outcome == "success"

    def to_jsonable(self, alphabet=None):
        out = {"schema": 1, "outcome": self.outcome}
        for name in ("labeling", "action", "ambiguity", "inconsistency", "violation"):
            if (part := getattr(self, name)) is not None:
                out[name] = part.to_jsonable()
        if self.stabilizer_words is not None:
            if alphabet is not None:
                out["stabilizer"] = [
                    w.render(alphabet) for w in self.stabilizer_words
                ]
            else:
                out["stabilizer"] = [
                    [list(t) for t in w.letters] for w in self.stabilizer_words
                ]
        if self.r_prime is not None:
            out["r_prime"] = self.r_prime
        if self.rejection is not None:
            out["rejection"] = {
                "vertex": self.rejection[0],
                "reason": self.rejection[1],
            }
        return out


def reconstruct(graph, engine, genset, presentation, radius,
                max_vertices=DEFAULT_MAX_VERTICES):
    """Full pipeline: verify and label, build the action, check, stabilize.

    Outcomes take precedence in the order not_a_model, disconnected,
    ambiguous_labeling, label_inconsistency, relator_violation.  On
    success the action's underlying simple graph equals the input
    edge-for-edge and the stabilizer has index |V| (the action is
    transitive because the graph is connected).  Labeling and the
    connectivity test share one private copy of the graph.
    """
    graph = FiniteGraph(graph.vertex_count, graph.edges)
    try:
        labeled = label_edges(graph, engine, genset, radius, max_vertices)
    except NotAModelError as err:
        return ReconstructionResult("not_a_model", rejection=err.rejection)
    if not is_connected(graph):
        return ReconstructionResult("disconnected")
    if isinstance(labeled, AmbiguousLabeling):
        return ReconstructionResult("ambiguous_labeling", ambiguity=labeled)
    if isinstance(labeled, LabelInconsistency):
        return ReconstructionResult("label_inconsistency", inconsistency=labeled)
    action = build_action(graph, labeled, genset)
    relators, r_prime = present_on_S(presentation, genset, engine, max_vertices)
    ok = check_factors(action, relators, genset.inverse_pairing)
    if ok is not True:
        return ReconstructionResult(
            "relator_violation",
            labeling=labeled,
            action=action,
            r_prime=r_prime,
            violation=ok,
        )
    stab = stabilizer(action, genset)
    assert action.underlying_graph().edges == graph.edges
    return ReconstructionResult(
        "success",
        labeling=labeled,
        action=action,
        stabilizer_words=tuple(stab),
        r_prime=r_prime,
    )
