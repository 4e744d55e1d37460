"""Rooted isomorphism search, automorphism scan, and canonical keys,
cross-checked against brute-force enumeration on a seeded corpus."""

import hashlib
import math
import random

import pytest
from conftest import COLOR_BLIND_SWAPS, ROUND_TRIP_FIXTURES, swapped
from oracles import (
    brute_rooted_isomorphisms,
    forced_prefix_automorphism_scan,
    layered_rooted_isomorphisms,
    second_by_enumeration,
)

from lml import iso
from lml.balls import FiniteGraph, RootedBall, cayley_ball, finite_ball
from lml.fixtures import cycle_graph, fixture_klein, torus_grid
from lml.iso import (
    RootedIso,
    automorphism_scan,
    canonical_key,
    first_rooted_isomorphism,
    prepare,
    rooted_isomorphisms,
)
from lml.words import (
    S10_TEXTS,
    BaumslagSolitarEngine,
    FreeAbelianEngine,
    FreeEngine,
    ResourceLimitError,
    bs_s10_setup,
    parse_word,
    validate_genset,
)


def random_ball(rng, n, radius=2):
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < 0.45
    ]
    return finite_ball(FiniteGraph(n, tuple(edges)), 0, radius)


def relabeled_copy(ball, rng):
    """Same rooted graph with non-root vertices shuffled (distances kept)."""
    n = ball.vertex_count
    perm = list(range(n))
    rng.shuffle(tail := perm[1:])
    perm[1:] = tail
    dist = [0] * n
    for old, new in enumerate(perm):
        dist[new] = ball.dist[old]
    edges = tuple(
        (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in ball.edges
    )
    return RootedBall(
        vertex_count=n, radius=ball.radius, dist=tuple(dist), edges=edges
    )


def path_ball(r):
    """The radius-r ball in Cay(Z, {+1, -1}): a path with the root midpoint."""
    eng = FreeAbelianEngine(("x",))
    gs = validate_genset(
        eng,
        [parse_word("x", eng.alphabet), parse_word("x^-1", eng.alphabet)],
    )
    return cayley_ball(eng, gs, r)


def z2_ball(r):
    eng = FreeAbelianEngine(("x", "y"))
    gs = validate_genset(
        eng,
        [
            parse_word(t, eng.alphabet)
            for t in ("x", "x^-1", "y", "y^-1")
        ],
    )
    return cayley_ball(eng, gs, r)


# ---------------------------------------------------------------------------
# RootedIso validation


def test_validate_identity_roundtrip():
    b = path_ball(2)
    phi = RootedIso(b, b, tuple(range(b.vertex_count)))
    assert phi.validate() is phi


def test_validate_rejects_defects():
    b2, b3 = path_ball(1), path_ball(2)
    with pytest.raises(ValueError, match="vertex counts"):
        RootedIso(b2, b3, (0, 1, 2)).validate()
    with pytest.raises(ValueError, match="bijection"):
        RootedIso(b2, b2, (0, 1, 1)).validate()
    with pytest.raises(ValueError, match="root"):
        RootedIso(b2, b2, (1, 0, 2)).validate()
    chain = RootedBall(3, 2, (0, 1, 2), ((0, 1), (1, 2)))
    with pytest.raises(ValueError, match="distance"):
        RootedIso(chain, chain, (0, 2, 1)).validate()
    fork = RootedBall(4, 2, (0, 1, 1, 2), ((0, 1), (0, 2), (1, 3)))
    with pytest.raises(ValueError, match="adjacency"):
        RootedIso(fork, fork, (0, 2, 1, 3)).validate()
    # Every source edge lands on a target edge, but the target has more.
    closed = RootedBall(4, 2, (0, 1, 1, 2), fork.edges + ((1, 2),))
    with pytest.raises(ValueError, match="adjacency"):
        RootedIso(fork, closed, (0, 1, 2, 3)).validate()
    with pytest.raises(ValueError, match="adjacency"):
        RootedIso(closed, fork, (0, 1, 2, 3)).validate()


# ---------------------------------------------------------------------------
# enumeration against brute force


def test_enumeration_matches_brute_force_on_corpus():
    rng = random.Random(20260818)
    for _ in range(120):
        n = rng.randrange(3, 8)
        b1 = random_ball(rng, n)
        got = sorted(phi.mapping for phi in rooted_isomorphisms(b1, b1))
        assert got == brute_rooted_isomorphisms(b1, b1)
        b2 = relabeled_copy(b1, rng)
        got = sorted(phi.mapping for phi in rooted_isomorphisms(b1, b2))
        want = brute_rooted_isomorphisms(b1, b2)
        assert got == want
        assert want, "a relabeled copy is always isomorphic"
        other = random_ball(rng, rng.randrange(3, 8))
        got = sorted(phi.mapping for phi in rooted_isomorphisms(b1, other))
        assert got == brute_rooted_isomorphisms(b1, other)


def test_every_reported_iso_validates():
    rng = random.Random(7)
    for _ in range(40):
        b = random_ball(rng, 6)
        for phi in rooted_isomorphisms(b, relabeled_copy(b, rng)):
            phi.validate()


def test_first_is_consistent_with_enumeration():
    rng = random.Random(99)
    for _ in range(60):
        b1 = random_ball(rng, rng.randrange(3, 8))
        b2 = rng.choice(
            (b1, relabeled_copy(b1, rng), random_ball(rng, rng.randrange(3, 8)))
        )
        allof = rooted_isomorphisms(b1, b2)
        one = first_rooted_isomorphism(b1, b2)
        if allof:
            assert one is not None and one.mapping == allof[0].mapping
        else:
            assert one is None


def test_layered_oracle_agrees_on_lattice_balls():
    b = z2_ball(2)
    got = sorted(phi.mapping for phi in rooted_isomorphisms(b, b))
    assert got == layered_rooted_isomorphisms(b, b)
    # Rooted automorphisms of the r=2 diamond: the dihedral symmetries.
    assert len(got) == 8


@pytest.mark.parametrize("radius", (2, 3))
def test_discrete_targets_read_the_map_off_the_colors(group_fixture, radius, monkeypatch):
    ball = cayley_ball(group_fixture.engine(), group_fixture.genset(), radius)
    target = prepare(ball)
    assert target.discrete
    rng = random.Random(radius)
    swap = COLOR_BLIND_SWAPS[group_fixture.name, radius]
    blind = finite_ball(swapped(ball, *swap), 0, radius)
    assert iso._refine(blind.dist, blind.adjacency, like=target) is not None
    sources = [ball, relabeled_copy(ball, rng), blind, relabeled_copy(blind, rng)]
    while len(sources) < 24:
        (a, b), (c, d) = rng.sample(ball.edges, 2)
        new = ((min(a, d), max(a, d)), (min(b, c), max(b, c)))
        if len({a, b, c, d}) == 4 and not set(new) & set(ball.edges):
            near = finite_ball(swapped(ball, ((a, b), (c, d)), new), 0, radius)
            if near.vertex_count == ball.vertex_count:
                sources.append(near)

    def no_search(*args, **kwargs):
        raise AssertionError("searched a discrete target")

    monkeypatch.setattr(iso, "_search", no_search)
    matched = []
    for source in sources:
        # The balls have 14 to 41 vertices, too many to try every bijection.
        want = layered_rooted_isomorphisms(source, ball)
        assert [phi.mapping for phi in rooted_isomorphisms(source, target)] == want
        one = first_rooted_isomorphism(source, target)
        assert (one and one.mapping) == (want[0] if want else None)
        matched.append(bool(want))
    assert matched[:4] == [True, True, False, False]


def test_a_searched_map_that_fails_the_check_raises(monkeypatch):
    # Only a faulty search yields a map that is no isomorphism.  The
    # matcher checks a searched first map and raises rather than report it;
    # a read-off map that fails is no match instead (test above).
    ball = z2_ball(2)
    n = ball.vertex_count
    wrong = (0, n - 1) + tuple(range(2, n - 1)) + (1,)
    monkeypatch.setattr(iso, "_search", lambda *args: iter([wrong]))
    with pytest.raises(ValueError, match="distance not preserved"):
        first_rooted_isomorphism(ball, ball)


# ---------------------------------------------------------------------------
# automorphism scan


def test_scan_count_matches_enumeration_on_corpus():
    rng = random.Random(31337)
    for _ in range(100):
        b = random_ball(rng, rng.randrange(2, 8))
        count, witness = automorphism_scan(b, b.radius)
        autos = rooted_isomorphisms(b, b)
        assert count == len(autos)
        assert automorphism_scan(b, -1)[0] == count
        inner = [
            phi
            for phi in autos
            if any(phi.mapping[v] != v for v, d in enumerate(b.dist) if d <= b.radius)
        ]
        if inner:
            assert witness is not None
            witness.validate()
            assert any(
                witness.mapping[v] != v for v, d in enumerate(b.dist) if d <= b.radius
            )
        else:
            assert witness is None


def test_scan_witness_respects_inner_radius():
    b = path_ball(3)
    count, witness = automorphism_scan(b, 0)
    assert count == 2 and witness is None
    count, witness = automorphism_scan(b, 1)
    assert count == 2 and witness is not None
    assert any(witness.mapping[v] != v for v, d in enumerate(b.dist) if d <= 1)
    assert witness.mapping == tuple(
        v + 1 if v % 2 else max(v - 1, 0) for v in range(b.vertex_count)
    )


def test_scan_rejects_unsorted_vertex_order():
    bad = RootedBall(3, 2, (0, 2, 1), ((0, 2), (1, 2)))
    with pytest.raises(ValueError, match="nondecreasing"):
        automorphism_scan(bad, 2)


def test_scan_on_rigid_ball():
    rigid = RootedBall(4, 2, (0, 1, 1, 2), ((0, 1), (0, 2), (1, 3)))
    assert automorphism_scan(rigid, 2) == (1, None)


def test_scan_on_empty_and_single():
    assert automorphism_scan(RootedBall(0, 0, (), ()), 0) == (1, None)
    assert automorphism_scan(RootedBall(1, 0, (0,), ()), 0) == (1, None)


def test_scan_large_symmetric_ball_stays_cheap():
    # Star with 18 leaves: 18! automorphisms, counted without enumeration.
    star = RootedBall(
        19, 1, (0,) + (1,) * 18, tuple((0, v) for v in range(1, 19))
    )
    assert automorphism_scan(star, -1)[0] == math.factorial(18)


def assert_scan_matches_oracle(ball, inner_radii):
    p = prepare(ball)
    for inner in inner_radii:
        count, witness = automorphism_scan(p, inner)
        want_count, want_witness = forced_prefix_automorphism_scan(p, inner)
        assert count == want_count, inner
        got = witness.mapping if witness else None
        assert got == (want_witness.mapping if want_witness else None), inner


def test_scan_matches_forced_prefix_oracle_on_corpus():
    rng = random.Random(60606)
    for _ in range(150):
        b = random_ball(rng, rng.randrange(2, 10), radius=rng.randrange(1, 4))
        assert_scan_matches_oracle(b, range(-1, b.radius + 1))
    for r in range(4):
        assert_scan_matches_oracle(z2_ball(r), range(-1, r + 1))
    star = RootedBall(
        19, 1, (0,) + (1,) * 18, tuple((0, v) for v in range(1, 19))
    )
    assert_scan_matches_oracle(star, (0, 1))
    # Probes that move several vertices: one may complete only when none
    # of them has a later neighbor missing its image.
    swaps = RootedBall(
        8, 2, (0, 1, 1, 1, 1, 2, 2, 2),
        ((0, 1), (0, 2), (0, 3), (0, 4), (1, 4), (1, 5), (2, 3), (2, 6),
         (3, 4), (3, 7), (4, 7)),
    )
    twins = RootedBall(
        10, 2, (0,) + (1,) * 8 + (2,),
        tuple((0, v) for v in range(1, 9))
        + ((1, 8), (1, 9), (2, 8), (2, 9), (3, 8), (3, 9), (4, 7), (4, 9),
           (5, 7), (5, 9), (6, 7), (6, 9), (7, 9), (8, 9)),
    )
    for ball in (swaps, twins):
        assert_scan_matches_oracle(ball, (0, 1, 2))


def with_planted_twins(ball, rng, copies):
    """ball plus copies of random non-root vertices, each with the same
    neighbors as its original (and sometimes adjacent to it), renumbered
    by breadth-first search from the root."""
    n, edges = ball.vertex_count, list(ball.edges)
    adjacency = [set(nbrs) for nbrs in ball.adjacency]
    for new in range(n, n + copies):
        v = rng.randrange(1, new)
        nbrs = set(adjacency[v]) | ({v} if rng.random() < 0.5 else set())
        adjacency.append(nbrs)
        for u in nbrs:
            adjacency[u].add(new)
            edges.append((u, new))
    graph = FiniteGraph(n + copies, tuple(edges))
    return finite_ball(graph, 0, ball.radius)


def test_scan_matches_forced_prefix_oracle_with_planted_twins():
    # The inner radii run from below to above every twin's distance, so
    # twin swaps are counted both where a witness is still wanted and
    # where it is not.
    rng = random.Random(7117)
    for _ in range(120):
        b = random_ball(rng, rng.randrange(2, 9), radius=rng.randrange(1, 4))
        if b.vertex_count < 2:
            continue
        planted = with_planted_twins(b, rng, rng.randrange(1, 4))
        assert_scan_matches_oracle(planted, range(-1, planted.radius + 1))


def test_scan_matches_forced_prefix_oracle_on_group_balls(group_fixture):
    engine, genset = group_fixture.engine(), group_fixture.genset()
    for r in range(4):
        assert_scan_matches_oracle(cayley_ball(engine, genset, r), range(r + 1))


def test_scan_matches_forced_prefix_oracle_on_bs_s10():
    engine = BaumslagSolitarEngine(9, 10)
    rng = random.Random(1010)
    for _ in range(3):
        texts = list(S10_TEXTS)
        rng.shuffle(texts)
        genset = validate_genset(
            engine, [parse_word(t, engine.alphabet) for t in texts]
        )
        for r in (2, 3):
            ball = cayley_ball(engine, genset, r)
            assert_scan_matches_oracle(ball, range(1, r + 1))


# ---------------------------------------------------------------------------
# canonical keys


def test_canonical_key_matches_search_verdict():
    rng = random.Random(424242)
    balls = [random_ball(rng, rng.randrange(3, 8)) for _ in range(28)]
    balls += [relabeled_copy(b, rng) for b in balls[:10]]
    keys = [canonical_key(b) for b in balls]
    for i, b1 in enumerate(balls):
        for j in range(i + 1, len(balls)):
            same = first_rooted_isomorphism(b1, balls[j]) is not None
            assert same == (keys[i] == keys[j]), (i, j)


def test_canonical_key_relabel_invariance():
    rng = random.Random(5150)
    for _ in range(40):
        b = random_ball(rng, rng.randrange(3, 8))
        assert canonical_key(b) == canonical_key(relabeled_copy(b, rng))


def test_canonical_key_of_empty_ball():
    assert canonical_key(RootedBall(0, 0, (), ())) == b"n=0"


# sha256 of canonical_key of the rigid group balls, whose refinement ends
# with every color a single vertex.  F21 has diameter 2, so its 3-ball is
# its 2-ball.
GROUP_BALL_KEYS = {
    ("S4", 2): "b0b0d63d75ed399ee6fbfce6226df66e70509a8487b08a05b1df05bbfdfdabc6",
    ("S4", 3): "5b39cf5d2e4941e6e5144f878027b86de4b2a7ba6a7ab5a6fae00f1d3e6d8170",
    ("F21", 2): "de71acc4773eaa3fc496500623820591e7af2173bca0feae6e24b50aa0511658",
    ("F21", 3): "de71acc4773eaa3fc496500623820591e7af2173bca0feae6e24b50aa0511658",
    ("F42", 2): "88362b17a09705e8081cdadc769aeaf23247cf37ee98fe85065df6f53c8113ee",
    ("F42", 3): "02a0ce5d66a6097f0c694c0a9c28e614b86636aa6da6517c88a6f945fa63c67a",
}


@pytest.mark.parametrize("radius", (2, 3))
def test_group_ball_keys_are_pinned(group_fixture, radius):
    fx = group_fixture
    ball = cayley_ball(fx.engine(), fx.genset(), radius)
    digest = hashlib.sha256(canonical_key(ball)).hexdigest()
    assert digest == GROUP_BALL_KEYS[(fx.name, radius)]


def test_refinement_stops_at_a_discrete_round():
    # The S4 2-ball's signature counts run 4, 10, 14: the third round
    # leaves every color a single vertex, so no fourth round confirms it.
    fx = next(f for f in ROUND_TRIP_FIXTURES if f.name == "S4")
    p = prepare(cayley_ball(fx.engine(), fx.genset(), 2))
    assert [len(sigs) for sigs in p.profile[0]] == [4, 10, 14]
    assert p.profile[1] == (1,) * 14


# ---------------------------------------------------------------------------
# lattice quotients look locally like the lattice


def test_torus_and_klein_balls_match_z2():
    model = z2_ball(2)
    want = canonical_key(model)
    for graph in (torus_grid(8, 8), fixture_klein(10, 6)):
        for v in (0, 13, graph.vertex_count - 1):
            ball = finite_ball(graph, v, 2)
            assert ball.vertex_count == 13
            assert canonical_key(ball) == want
            assert first_rooted_isomorphism(ball, model) is not None
    got = sorted(
        phi.mapping
        for phi in rooted_isomorphisms(finite_ball(torus_grid(8, 8), 0, 2), model)
    )
    assert got == layered_rooted_isomorphisms(
        finite_ball(torus_grid(8, 8), 0, 2), model
    )
    assert len(got) == 8


# ---------------------------------------------------------------------------
# prepared balls and large balls


def test_prepared_balls_give_the_same_answers():
    rng = random.Random(8080)
    for _ in range(30):
        b1 = random_ball(rng, rng.randrange(3, 9))
        other = random_ball(rng, b1.vertex_count)
        b2 = rng.choice((relabeled_copy(b1, rng), other))
        p1, p2 = prepare(b1), prepare(b2)
        assert prepare(p1) is p1
        want = [phi.mapping for phi in rooted_isomorphisms(b1, b2)]
        assert [phi.mapping for phi in rooted_isomorphisms(p1, p2)] == want
        one = first_rooted_isomorphism(b1, p2)
        assert (one.mapping if one else None) == (want[0] if want else None)
        if one:
            assert one.source is b1 and one.target is b2
        assert canonical_key(p1) == canonical_key(b1)


def like_mode_corpus(bs_setup):
    """Balls that share refinement rounds often: random balls and their
    relabelings, Z^2 and BS s10 Cayley balls, and the rigid group balls."""
    rng = random.Random(1331)
    balls = []
    for _ in range(30):
        b = random_ball(rng, rng.randrange(2, 9), radius=rng.randrange(1, 4))
        balls += [b, relabeled_copy(b, rng)]
    balls += [z2_ball(r) for r in range(5)]
    engine, genset, _ = bs_setup
    balls += [cayley_ball(engine, genset, r) for r in range(4)]
    for fixture in ROUND_TRIP_FIXTURES:
        engine, genset = fixture.engine(), fixture.genset()
        balls += [cayley_ball(engine, genset, r) for r in range(1, 4)]
    # Two balls that only the last round, the one splitting no cell of
    # the first, tells apart.
    dist = (0, 1, 1, 2, 2, 2, 2, 3)
    tree = ((0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6))
    balls.append(RootedBall(8, 3, dist, tree + ((3, 4), (6, 7))))
    balls.append(RootedBall(8, 3, dist, tree + ((3, 5), (4, 7))))
    # A root beside one or two triangles: no round tells them apart, only
    # the cell sizes do.
    triangle = ((1, 2), (1, 3), (2, 3))
    twice = triangle + tuple((u + 3, v + 3) for u, v in triangle)
    for n, edges in ((4, triangle), (7, twice)):
        balls.append(RootedBall(n, 1, (0,) + (1,) * (n - 1), edges))
    return balls


def test_like_mode_equals_own_refinement(bs_setup):
    balls = like_mode_corpus(bs_setup)
    own = [prepare(b) for b in balls]
    matched = 0
    for b, mine in zip(balls, own):
        for p in own:
            got = iso._refine(b.dist, b.adjacency, like=p)
            if mine.profile != p.profile:
                assert got is None
            else:
                matched += 1
                assert got == (mine.colors, mine.profile)
    assert matched > len(balls)
    # The lookup tables are made for like only when a search reads them.
    p = prepare(balls[0])
    automorphism_scan(p, 1)
    canonical_key(p)
    assert "tables" not in vars(p)
    first_rooted_isomorphism(balls[1], p)
    assert "tables" in vars(p)


def test_vertex_ball_search_reads_no_source_masks():
    target = prepare(z2_ball(3))
    ball = finite_ball(torus_grid(9, 9), 40, 3)
    source = iso.PreparedBall(ball, *iso._refine(ball.dist, ball.adjacency, like=target))
    assert next(iso._search(source.colors, source.ball.adjacency, target), None)
    assert "masks" not in vars(source) and "masks" in vars(target)


def test_near_miss_is_rejected_before_any_search(bs_setup, monkeypatch):
    # Moving one sphere edge of the s10 3-ball keeps the first round's
    # signature set; a later round tells the balls apart.
    engine, genset, _ = bs_setup
    ball = cayley_ball(engine, genset, 3)
    target = prepare(ball)
    adj, dist = ball.adjacency, ball.dist
    sphere = [w for w in range(ball.vertex_count) if dist[w] == 3]
    degrees = {len(adj[w]) for w in sphere}
    u, v, w = next(
        (u, v, w)
        for u, v in ball.edges
        if dist[u] == dist[v] == 3 and len(adj[v]) - 1 in degrees
        for w in sphere
        if w not in (u, v) and w not in adj[u] and len(adj[w]) + 1 in degrees
    )
    edges = set(ball.edges) - {(u, v)} | {(min(u, w), max(u, w))}
    moved = RootedBall(ball.vertex_count, 3, dist, tuple(edges))
    assert prepare(moved).profile[0][0] == target.profile[0][0]
    assert prepare(moved).profile != target.profile
    assert iso._refine(moved.dist, moved.adjacency, like=target) is None

    def no_search(*args, **kwargs):
        raise AssertionError("searched a pair the refinement tells apart")

    monkeypatch.setattr(iso, "_search", no_search)
    assert first_rooted_isomorphism(moved, target) is None
    assert rooted_isomorphisms(moved, target) == []


def test_searches_do_not_recurse_on_large_balls():
    # More than a thousand vertices used to exhaust the recursion limit.
    b = z2_ball(23)
    assert b.vertex_count == 1105
    autos = rooted_isomorphisms(b, b)
    assert len(autos) == 8
    for phi in autos:
        phi.validate()
    path = path_ball(600)
    assert path.vertex_count == 1201
    key = canonical_key(path)
    assert key.startswith(b"n=1201;")
    assert canonical_key(relabeled_copy(path, random.Random(3))) == key
    assert automorphism_scan(path, 1)[0] == 2


def s10_ball(r):
    engine, s10, _ = bs_s10_setup(9, 10)
    return cayley_ball(engine, s10, r)


# Frames canonical_key opens, found by bisecting DEFAULT_MAX_FRAMES; the
# path is the largest ball any test keys.
@pytest.mark.parametrize("make, radius, frames", (
    (z2_ball, 2, 189), (z2_ball, 5, 665), (s10_ball, 2, 388),
    (path_ball, 600, 2400),
))
def test_key_cap_fails_exactly_below_the_frame_count(
        monkeypatch, make, radius, frames):
    ball = make(radius)
    key = canonical_key(ball)
    monkeypatch.setattr(iso, "DEFAULT_MAX_FRAMES", frames)
    assert canonical_key(ball) == key
    monkeypatch.setattr(iso, "DEFAULT_MAX_FRAMES", frames - 1)
    with pytest.raises(ResourceLimitError):
        canonical_key(ball)


def test_key_cap_message_names_the_search_and_its_counts(monkeypatch):
    monkeypatch.setattr(iso, "DEFAULT_MAX_FRAMES", 5)
    with pytest.raises(ResourceLimitError) as info:
        canonical_key(z2_ball(2))
    assert str(info.value) == (
        "canonical-key search of a 13-vertex ball reached max_frames=5 "
        "frames opened; positions placed: 5 of 13"
    )


# ---------------------------------------------------------------------------
# cutting the search back after a yield


def free_ball(r):
    """The radius-r ball of the 4-regular tree Cay(F2, {x, x^-1, y, y^-1})."""
    eng = FreeEngine(("x", "y"))
    gs = validate_genset(
        eng, [parse_word(t, eng.alphabet) for t in ("x", "x^-1", "y", "y^-1")]
    )
    return cayley_ball(eng, gs, r)


def cut_second(b1, b2, k):
    """What the matcher yields after its first map once cut to k frames."""
    isos = iso._matches(b1.dist, b1.adjacency, prepare(b2))
    next(isos)
    try:
        return isos.send(k)
    except StopIteration:
        return None


def cut_cases():
    rng = random.Random(2121)
    for _ in range(60):
        b = random_ball(rng, rng.randrange(2, 9), radius=9)
        yield b, b
        yield b, relabeled_copy(b, rng)
    for r in (2, 3, 4):
        yield z2_ball(r), relabeled_copy(z2_ball(r), rng)
    yield finite_ball(cycle_graph(9), 0, 3), path_ball(3)
    for r in (2, 3):
        yield finite_ball(torus_grid(8, 8), 0, r), z2_ball(r)
    yield finite_ball(fixture_klein(8, 6), 27, 2), z2_ball(2)
    for m, n in ((9, 10), (2, 3), (3, 5)):
        engine, genset, _ = bs_s10_setup(m, n)
        b = cayley_ball(engine, genset, 1)
        yield b, relabeled_copy(b, rng)
    # 31,104 isomorphisms to list for every k.
    yield free_ball(2), relabeled_copy(free_ball(2), rng)


def test_cut_search_matches_list_and_filter():
    cut = 0
    for b1, b2 in cut_cases():
        for k in range(1, b1.vertex_count + 1):
            got = cut_second(b1, b2, k)
            assert got == second_by_enumeration(b1, b2, k), (b1, k)
            cut += got is not None and k < b1.vertex_count
    # Cuts that skipped a subtree and still found a map.
    assert cut > 100


# ---------------------------------------------------------------------------
# networkx as an independent oracle


def cone(ring_edges, size):
    """Root 0 joined to every vertex of a graph on 1..size."""
    edges = tuple((0, v) for v in range(1, size + 1)) + tuple(ring_edges)
    return RootedBall(size + 1, 1, (0,) + (1,) * size, edges)


def test_existence_matches_networkx():
    nx = pytest.importorskip("networkx")

    def to_nx(ball):
        g = nx.Graph()
        g.add_nodes_from((v, {"dist": d}) for v, d in enumerate(ball.dist))
        g.add_edges_from(ball.edges)
        return g

    def same_dist(a, b):
        return a["dist"] == b["dist"]

    def degrees(ball):
        return sorted(ball.degree(v) for v in range(ball.vertex_count))

    def swapped(ball, seed):
        """Degree-preserving edge swaps, rerooted; None if disconnected."""
        g = nx.Graph(list(ball.edges))
        try:
            nx.double_edge_swap(g, nswap=2, max_tries=200, seed=seed)
        except nx.NetworkXException:
            return None
        n = ball.vertex_count
        edges = tuple(tuple(sorted(e)) for e in g.edges())
        out = finite_ball(FiniteGraph(n, edges), 0, n)
        return out if out.vertex_count == n else None

    hexagon = cone(((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)), 6)
    triangles = cone(((1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)), 6)
    pairs = [(hexagon, triangles), (hexagon, hexagon)]
    rng = random.Random(9191)
    for _ in range(150):
        b1 = random_ball(rng, rng.randrange(4, 10), radius=9)
        pairs.append((b1, relabeled_copy(b1, rng)))
        pairs.append((b1, random_ball(rng, b1.vertex_count, radius=9)))
        b2 = swapped(b1, rng.randrange(2**32))
        if b2 is not None:
            pairs.append((b1, b2))
    tricky = 0
    for b1, b2 in pairs:
        want = nx.is_isomorphic(to_nx(b1), to_nx(b2), node_match=same_dist)
        assert (first_rooted_isomorphism(b1, b2) is not None) == want
        if not want and degrees(b1) == degrees(b2):
            tricky += 1
    # Non-isomorphic pairs that a degree sequence cannot tell apart.
    assert tricky >= 20


# ---------------------------------------------------------------------------
# sentinels for the group used throughout


def test_bs_ball_scan_sentinels(bs_setup):
    engine, genset, _ = bs_setup
    b1 = cayley_ball(engine, genset, 1)
    assert (b1.vertex_count, len(b1.edges)) == (11, 16)
    assert automorphism_scan(b1, -1)[0] == 32
    b2 = cayley_ball(engine, genset, 2)
    count, witness = automorphism_scan(b2, 2)
    assert count == 2**20
    assert witness is not None
    assert any(witness.mapping[v] != v for v, d in enumerate(b2.dist) if d <= 2)


# ---------------------------------------------------------------------------
# work counters: probe searches per scan


def count_probes(monkeypatch):
    probes = []
    search = iso._search

    def counting(*args, **kwargs):
        if kwargs.get("probe"):
            probes.append(kwargs["probe"])
        return search(*args, **kwargs)

    monkeypatch.setattr(iso, "_search", counting)
    return probes


# Probes that the scan of fixing_radius(r=2) makes on the s10 balls; each
# twin swap past the first witness used to cost one more (25, 162, 17, 59).
@pytest.mark.parametrize("m, n, radius, want", [
    (9, 10, 2, 8), (9, 10, 3, 42), (3, 5, 2, 6), (3, 5, 3, 5),
])
def test_scan_counts_twin_swaps_without_probes(monkeypatch, m, n, radius, want):
    engine, genset, _ = bs_s10_setup(m, n)
    ball = cayley_ball(engine, genset, radius)
    probes = count_probes(monkeypatch)
    automorphism_scan(ball, 2)
    assert len(probes) == want


@pytest.mark.parametrize("inner, want", [(-1, 0), (1, 1)])
def test_star_leaves_are_twin_swaps(monkeypatch, inner, want):
    # The 18 leaves are pairwise twins: 153 probes before, now none, or
    # one for the witness when the leaves lie inside the inner radius.
    star = RootedBall(
        19, 1, (0,) + (1,) * 18, tuple((0, v) for v in range(1, 19))
    )
    probes = count_probes(monkeypatch)
    count, witness = automorphism_scan(star, inner)
    assert count == math.factorial(18)
    assert len(probes) == want
    assert (witness is None) == (inner < 1)
