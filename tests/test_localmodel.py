"""Perfect local model verification and the fixing-radius scan."""

import json
import random

import pytest
from conftest import COLOR_BLIND_SWAPS, ROUND_TRIP_FIXTURES, swapped
from oracles import (
    classify_verify_model,
    finite_ball,
    layered_rooted_isomorphisms,
    per_vertex_witnesses,
)

from lml import balls, iso, localmodel
from lml.balls import FiniteGraph, RootedBall, cayley_ball, distance
from lml.cosets import default_witness
from lml.fixtures import cycle_graph, fixture_klein, torus_grid
from lml.iso import PreparedBall, RootedIso, canonical_key, prepare
from lml.localmodel import (
    NotAModelError,
    fixing_radius,
    vertex_witnesses,
    verify_model,
)
from lml.reconstruct import present_on_S
from lml.words import ResourceLimitError, bs_s10_setup


def two_hexagons():
    ring = cycle_graph(6).edges
    shifted = tuple((u + 6, v + 6) for u, v in ring)
    return FiniteGraph(12, ring + shifted)


def disjoint_union(g, h):
    n = g.vertex_count
    shifted = tuple((u + n, v + n) for u, v in h.edges)
    return FiniteGraph(n + h.vertex_count, g.edges + shifted)


def relabeled(graph, rng):
    perm = list(range(graph.vertex_count))
    rng.shuffle(perm)
    return FiniteGraph(
        graph.vertex_count,
        tuple(tuple(sorted((perm[u], perm[v]))) for u, v in graph.edges),
    )


# ---------------------------------------------------------------------------
# verify_model


def test_cycle_accepted_iff_long_enough(z_setup):
    engine, genset = z_setup
    for r, n, ok in ((1, 3, False), (1, 4, True), (2, 5, False), (2, 6, True)):
        verdict = verify_model(cycle_graph(n), engine, genset, r)
        assert verdict.accepted == ok, (r, n)
        assert verdict.radius == r
        assert verdict.vertex_count == n
        assert verdict.connected


def test_rejection_names_vertex_and_radius(z_setup):
    engine, genset = z_setup
    verdict = verify_model(cycle_graph(5), engine, genset, 2)
    assert not verdict.accepted
    vertex, reason = verdict.rejection
    assert vertex == 0
    assert "radius-2" in reason and "vertex 0" in reason
    assert verdict.classes == ()


def test_accepted_verdict_carries_validated_witnesses(z_setup):
    engine, genset = z_setup
    verdict = verify_model(cycle_graph(8), engine, genset, 2)
    assert verdict.accepted and verdict.rejection is None
    target = cayley_ball(engine, genset, 2)
    assert len(verdict.classes) == 1
    cls = verdict.classes[0]
    assert cls.key == canonical_key(target)
    assert cls.representative == 0
    cls.witness.validate()
    assert cls.witness.target.vertex_count == target.vertex_count


def test_lattice_quotients_are_models(z2_setup):
    engine, genset, _ = z2_setup
    for graph in (torus_grid(6, 6), fixture_klein(6, 6)):
        verdict = verify_model(graph, engine, genset, 2)
        assert verdict.accepted
        assert verdict.connected
        assert verdict.vertex_count == 36


def test_short_torus_direction_is_rejected(z2_setup):
    engine, genset, _ = z2_setup
    verdict = verify_model(torus_grid(8, 3), engine, genset, 2)
    assert not verdict.accepted


def test_disconnected_model_is_accepted_but_flagged(z_setup):
    engine, genset = z_setup
    verdict = verify_model(two_hexagons(), engine, genset, 2)
    assert verdict.accepted
    assert not verdict.connected
    assert verdict.vertex_count == 12


def test_empty_graph_is_a_model_of_nothing(z_setup):
    engine, genset = z_setup
    verdict = verify_model(FiniteGraph(0, ()), engine, genset, 1)
    assert verdict.accepted and verdict.classes == ()


def test_verdict_jsonable_shape_and_determinism(z_setup):
    engine, genset = z_setup
    blobs = []
    for _ in range(2):
        verdict = verify_model(cycle_graph(8), engine, genset, 2)
        blobs.append(json.dumps(verdict.to_jsonable(), sort_keys=True))
    assert blobs[0] == blobs[1]
    doc = json.loads(blobs[0])
    assert doc["schema"] == 1
    assert doc["accepted"] is True and doc["rejection"] is None
    assert doc["classes"][0]["representative"] == 0
    assert isinstance(doc["classes"][0]["witness"], list)

    rej = verify_model(cycle_graph(5), engine, genset, 2).to_jsonable()
    assert rej["rejection"]["vertex"] == 0
    assert "not rooted-isomorphic" in rej["rejection"]["reason"]


def assert_same_verdict(graph, engine, genset, radius):
    got = verify_model(graph, engine, genset, radius)
    want = classify_verify_model(graph, engine, genset, radius)
    assert json.dumps(got.to_jsonable(), sort_keys=True) == json.dumps(
        want.to_jsonable(), sort_keys=True
    )
    return got


def test_verdicts_match_classifying_oracle_on_cycles(z_setup):
    engine, genset = z_setup
    seen = set()
    for n in range(3, 10):
        for r in (1, 2, 3):
            verdict = assert_same_verdict(cycle_graph(n), engine, genset, r)
            seen.add(verdict.accepted)
    assert seen == {True, False}


def test_verdicts_match_classifying_oracle_on_lattice_quotients(z2_setup):
    engine, genset, _ = z2_setup
    rng = random.Random(60606)
    seen = set()
    for w, h in ((4, 6), (6, 6), (6, 7), (8, 5), (3, 8)):
        for r in (1, 2):
            graphs = [torus_grid(w, h)]
            if w % 2 == 0:
                graphs.append(fixture_klein(w, h))
            for graph in graphs:
                verdict = assert_same_verdict(
                    relabeled(graph, rng), engine, genset, r
                )
                seen.add(verdict.accepted)
    assert seen == {True, False}


def test_rejection_past_vertex_zero_keeps_the_target_class(z_setup, z2_setup):
    engine, genset = z_setup
    graph = disjoint_union(cycle_graph(8), cycle_graph(5))
    verdict = assert_same_verdict(graph, engine, genset, 2)
    assert verdict.rejection[0] == 8
    (cls,) = verdict.classes
    assert cls.representative == 0
    cls.witness.validate()

    # A torus with one edge cut, relabelled so the first bad ball lands
    # somewhere past vertex 0.
    engine, genset, _ = z2_setup
    rng = random.Random(7)
    torus = torus_grid(8, 8)
    cut = FiniteGraph(torus.vertex_count, torus.edges[1:])
    checked = 0
    for _ in range(10):
        verdict = assert_same_verdict(relabeled(cut, rng), engine, genset, 2)
        assert not verdict.accepted
        if verdict.rejection[0] > 0:
            assert len(verdict.classes) == 1
            checked += 1
    assert checked


def test_verify_model_respects_vertex_cap(bs_setup):
    engine, genset, _ = bs_setup
    with pytest.raises(ResourceLimitError):
        verify_model(cycle_graph(8), engine, genset, 2, max_vertices=5)


# ---------------------------------------------------------------------------
# the vertex walk against the walk with a ball object per vertex


def assert_walk_matches_oracle(graph, target, radius):
    """Same (vertex, order, mapping) triples and the same rejection as the
    per-vertex oracle; each matched ball's yielded lists are its ball
    object's, and its map and the next one its live matcher yields are the
    ball's first two isomorphisms in lex order; and at every vertex, the
    integer-keyed refinement against the target agrees with the ball's own
    tuple-keyed one."""
    walked, lists, rejection = [], {}, None
    private = FiniteGraph(graph.vertex_count, graph.edges)
    try:
        for v, order, dist, nbrs, isos, mapping in vertex_witnesses(
            private, target, radius
        ):
            walked.append((v, tuple(order), mapping))
            lists[v] = dist, nbrs, [mapping, next(isos, None)]
    except NotAModelError as err:
        rejection = err.rejection
    assert (walked, rejection) == per_vertex_witnesses(graph, target, radius)
    for v in range(graph.vertex_count):
        ball = finite_ball(graph, v, radius)
        own, like = prepare(ball), iso._refine(ball.dist, ball.adjacency, like=target)
        assert (like is None) == (own.profile != target.profile)
        if like is not None:
            assert like == (own.colors, own.profile)
        if v in lists:
            dist, nbrs, maps = lists[v]
            assert tuple(dist) == ball.dist
            assert tuple(tuple(sorted(ws)) for ws in nbrs) == ball.adjacency
            assert maps == (layered_rooted_isomorphisms(ball, target.ball) + [None])[:2]
    return rejection is None


def is_discrete(target):
    return all(len(cell) == 1 for cell in target.cells)


def test_walk_matches_oracle_on_random_graphs():
    rng = random.Random(31337)
    seen, discrete = set(), []
    for _ in range(40):
        n = rng.randrange(4, 13)
        p = rng.choice((0.2, 0.35, 0.5))
        graph = FiniteGraph(n, tuple(
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
        ))
        radius = rng.randrange(1, 4)
        # The ball at vertex 0 matches itself, so both verdicts show up.
        target = prepare(finite_ball(graph, rng.choice((0, n - 1)), radius))
        seen.add(verdict := assert_walk_matches_oracle(graph, target, radius))
        if is_discrete(target):
            discrete.append(verdict)
    assert seen == {True, False}
    # Random graphs almost never accept a discrete target.  The rigid
    # group balls are discrete, and accept on their relabelled Cayley
    # graphs; half the time two random edges are swapped first.
    for _ in range(12):
        fx = rng.choice(ROUND_TRIP_FIXTURES)
        engine, genset = fx.engine(), fx.genset()
        whole = cayley_ball(engine, genset, 10)
        graph = FiniteGraph(whole.vertex_count, whole.edges)
        (a, b), (c, d) = rng.sample(graph.edges, 2)
        new = (tuple(sorted((a, d))), tuple(sorted((b, c))))
        if rng.random() < 0.5 and len({a, b, c, d}) == 4 and not set(new) & set(graph.edges):
            graph = swapped(graph, ((a, b), (c, d)), new)
        radius = rng.choice((2, 3))
        target = prepare(cayley_ball(engine, genset, radius))
        assert is_discrete(target)
        discrete.append(assert_walk_matches_oracle(relabeled(graph, rng), target, radius))
    assert set(discrete) == {True, False}


def test_walk_rejects_a_degree_the_target_lacks():
    # In the ball at vertex 4, vertex 12 gives vertex 5 three neighbors,
    # where the target path has degree at most two, so base is 3.  Three
    # neighbors of one color c would sum to base**(c + 1), the key of one
    # neighbor of color c + 1: the round-0 lookup must reject the degree.
    target = prepare(finite_ball(cycle_graph(9), 0, 2))
    graph = FiniteGraph(13, cycle_graph(12).edges + ((5, 12), (6, 12), (7, 12)))
    assert not assert_walk_matches_oracle(graph, target, 2)
    assert per_vertex_witnesses(graph, target, 2)[1][0] == 4
    ball = finite_ball(graph, 4, 2)
    assert iso._refine(ball.dist, ball.adjacency, like=target) is None


def test_walk_matches_oracle_on_lattice_quotients(z2_setup):
    engine, genset, _ = z2_setup
    rng = random.Random(4242)
    seen = set()
    for radius in (1, 2, 3):
        target = prepare(cayley_ball(engine, genset, radius))
        for graph in (torus_grid(7, 6), torus_grid(8, 8), fixture_klein(8, 5),
                      fixture_klein(6, 7)):
            graph = relabeled(graph, rng)
            seen.add(assert_walk_matches_oracle(graph, target, radius))
    assert seen == {True, False}


@pytest.mark.parametrize("fx", ROUND_TRIP_FIXTURES, ids=lambda fx: fx.name)
def test_walk_rejects_a_ball_the_discrete_colors_pass(fx):
    ball = cayley_ball(fx.engine(), fx.genset(), 2)
    target = prepare(ball)
    graph = swapped(ball, *COLOR_BLIND_SWAPS[fx.name, 2])
    assert is_discrete(target)
    near = finite_ball(graph, 0, 2)
    assert iso._refine(near.dist, near.adjacency, like=target) is not None
    assert not assert_walk_matches_oracle(graph, target, 2)
    assert per_vertex_witnesses(graph, target, 2)[1][0] == 0


@pytest.mark.parametrize("fx", ROUND_TRIP_FIXTURES, ids=lambda fx: fx.name)
def test_walk_matches_oracle_on_group_cayley_graphs(fx):
    engine, genset = fx.engine(), fx.genset()
    whole = cayley_ball(engine, genset, 10)
    graph = relabeled(FiniteGraph(whole.vertex_count, whole.edges), random.Random(5))
    target = prepare(cayley_ball(engine, genset, 2))
    assert assert_walk_matches_oracle(graph, target, 2)


def count_inits(monkeypatch, cls):
    made = []
    init = cls.__init__

    def counted(self, *args, **kwargs):
        made.append(cls.__name__)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counted)
    return made


def test_walk_builds_no_ball_object_per_vertex(z2_setup, monkeypatch):
    engine, genset, _ = z2_setup
    graph = torus_grid(9, 9)
    made = [
        count_inits(monkeypatch, cls) for cls in (RootedBall, PreparedBall, RootedIso)
    ]
    target = prepare(cayley_ball(engine, genset, 3))
    private = FiniteGraph(graph.vertex_count, graph.edges)
    assert len(list(vertex_witnesses(private, target, 3))) == 81
    assert [len(m) for m in made] == [1, 1, 0]
    # verify_model adds its own target, and vertex 0's ball and witness
    # for the artifact; its private copy keeps the adjacency off graph.
    assert verify_model(graph, engine, genset, 3).accepted
    assert [len(m) for m in made] == [3, 2, 1]
    assert "adjacency" not in vars(graph)


# ---------------------------------------------------------------------------
# fixing_radius


def test_verify_model_grows_each_ball_once(z2_setup, monkeypatch):
    engine, genset, _ = z2_setup
    grow, grown = balls._grow, []

    def counted(root, neighbours, radius, max_vertices):
        grown.append(radius)
        return grow(root, neighbours, radius, max_vertices)

    for module in (balls, localmodel):
        monkeypatch.setattr(module, "_grow", counted)
    assert verify_model(torus_grid(9, 9), engine, genset, 3).accepted
    # The target, one ball per vertex (vertex 0's also makes the witness's
    # ball), and the connectivity search over all 81 vertices.
    assert sorted(grown) == [3] * 82 + [81]


def test_fixing_radius_line_never_pins(z_setup):
    engine, genset = z_setup
    report = fixing_radius(engine, genset, 2, 6)
    assert not report.found and report.r0 is None
    assert report.automorphism_counts == tuple((rho, 2) for rho in range(2, 7))
    assert len(report.moving_witnesses) == 5
    for rho, mapping in report.moving_witnesses:
        ball = cayley_ball(engine, genset, rho)
        RootedIso(ball, ball, mapping).validate()
        assert any(mapping[v] != v for v, d in enumerate(ball.dist) if d <= 2)


def test_fixing_radius_zero_is_immediate(z_setup):
    engine, genset = z_setup
    report = fixing_radius(engine, genset, 0, 3)
    assert report.r0 == 0
    assert report.automorphism_counts == ((0, 1),)
    assert report.moving_witnesses == ()


def test_fixing_radius_requires_sane_bound(z_setup):
    engine, genset = z_setup
    with pytest.raises(ValueError, match="bound"):
        fixing_radius(engine, genset, 3, 2)


def test_fixing_radius_finite_group(group_fixture):
    report = fixing_radius(
        group_fixture.engine(), group_fixture.genset(), 1, group_fixture.rigid_radius
    )
    assert report.found and report.r0 <= group_fixture.rigid_radius
    final_rho, final_count = report.automorphism_counts[-1]
    assert final_rho == report.r0


def test_fixing_radius_bs_concrete(bs_setup):
    engine, genset, _ = bs_setup
    report = fixing_radius(engine, genset, 2, 3)
    assert report.r0 == 3
    assert report.automorphism_counts == ((2, 2**20), (3, 2**132))
    ((rho, mapping),) = report.moving_witnesses
    assert rho == 2
    ball = cayley_ball(engine, genset, 2)
    RootedIso(ball, ball, mapping).validate()
    assert any(mapping[v] != v for v, d in enumerate(ball.dist) if d <= 2)


# The r0 column over small (m, n): the s10 3-ball's size, and the
# log2 automorphism counts of the s10 3- and 4-balls.
BS_FROM_RADIUS_THREE = (
    (2, 3, 457, 30, 133),
    (3, 4, 421, 33, 169),
    (3, 5, 487, 55, 324),
    (4, 5, 477, 35, 195),
    (5, 6, 517, 101, 562),
    (9, 10, 527, 132, 843),
)


@pytest.mark.parametrize("m, n, size, log3, log4", BS_FROM_RADIUS_THREE)
def test_fixing_radius_bs_from_radius_three(m, n, size, log3, log4):
    # The 3-ball needs the 4-ball to pin it: r0(r=3) = 4 on the s10 set.
    engine, genset, _ = bs_s10_setup(m, n)
    ball = cayley_ball(engine, genset, 3)
    assert ball.vertex_count == size
    report = fixing_radius(engine, genset, 3, 4)
    assert report.r0 == 4
    assert report.automorphism_counts == ((3, 2**log3), (4, 2**log4))
    ((rho, mapping),) = report.moving_witnesses
    assert rho == 3
    RootedIso(ball, ball, mapping).validate()
    assert any(mapping[v] != v for v, d in enumerate(ball.dist) if d <= 3)


# The rest of the s10 table: r', the radius the BS relator needs over S,
# and the s10 length of the default witness [a b a^-1, b].
@pytest.mark.parametrize("m, n, r_prime", [
    (2, 3, 2), (3, 4, 2), (3, 5, 3), (4, 5, 3), (5, 6, 3), (9, 10, 4),
])
def test_bs_relator_radius_and_witness_length(m, n, r_prime):
    engine, genset, presentation = bs_s10_setup(m, n)
    assert present_on_S(presentation, genset, engine)[1] == r_prime
    assert distance(engine, genset, default_witness(m, n)) == 6


def test_fixing_radius_jsonable(z_setup):
    engine, genset = z_setup
    doc = fixing_radius(engine, genset, 1, 2).to_jsonable()
    assert doc["schema"] == 1
    assert doc["r0"] is None
    assert doc["automorphism_counts"] == [
        {"radius": 1, "count": 2},
        {"radius": 2, "count": 2},
    ]
    assert [w["radius"] for w in doc["moving_witnesses"]] == [1, 2]
    assert all(isinstance(w["mapping"], list) for w in doc["moving_witnesses"])
