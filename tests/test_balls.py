import random

import pytest
from conftest import AB, wd
from oracles import (
    finite_ball,
    layered_finite_ball_with_order,
    stack_is_connected,
    two_pass_cayley_ball,
)

from lml.balls import (
    FiniteGraph,
    NotReachableError,
    RootedBall,
    cayley_ball,
    distance,
    finite_ball_with_order,
    is_connected,
    parse_graph,
    render_graph,
    render_rooted_ball,
    sphere_sizes,
)
from lml.fixtures import cycle_graph, fixture_klein, torus_grid
from lml.words import (
    S10_TEXTS,
    BaumslagSolitarEngine,
    FinitePermutationEngine,
    FreeAbelianEngine,
    FreeEngine,
    ParseError,
    ResourceLimitError,
    bs_s10_setup,
    parse_word,
    validate_genset,
    word,
)


def random_graph(rng, n, p=0.4):
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return FiniteGraph(n, tuple(edges))


def relabelled(graph, rng):
    perm = list(range(graph.vertex_count))
    rng.shuffle(perm)
    return FiniteGraph(
        graph.vertex_count,
        tuple(tuple(sorted((perm[u], perm[v]))) for u, v in graph.edges),
    )


# ---------------------------------------------------------------------------
# graph containers


def test_finite_graph_validates_edges():
    with pytest.raises(ValueError):
        FiniteGraph(3, ((0, 3),))
    with pytest.raises(ValueError):
        FiniteGraph(3, ((1, 1),))
    with pytest.raises(ValueError):
        FiniteGraph(3, ((0, 1), (1, 0)))
    g = FiniteGraph(3, ((1, 2), (0, 1)))
    assert g.edges == ((0, 1), (1, 2))
    assert g.adjacency[1] == (0, 2)


def test_graphs_reject_a_repeated_edge_before_a_later_bad_one():
    # Sorted, the repeat of (0, 1) comes before the out-of-range (0, 5).
    for edges in (((0, 1), (0, 5), (0, 1)), ((0, 5), [0, 1], (0, 1))):
        with pytest.raises(ValueError, match=r"parallel edge \(0, 1\)"):
            FiniteGraph(3, edges)
        with pytest.raises(ValueError, match=r"parallel edge \(0, 1\)"):
            RootedBall(3, 1, (0, 1, 1), edges)
    with pytest.raises(ValueError, match=r"bad edge \(0, 0\)"):
        FiniteGraph(3, ((0, 1), (0, 0), (0, 1)))


def test_rooted_ball_validates_dist():
    with pytest.raises(ValueError):
        RootedBall(2, 1, (0,), ((0, 1),))
    with pytest.raises(ValueError):
        RootedBall(2, 1, (1, 0), ((0, 1),))


# ---------------------------------------------------------------------------
# Cayley balls


def test_z_ball_is_a_path(z_setup):
    engine, genset = z_setup
    for r in range(5):
        ball = cayley_ball(engine, genset, r)
        assert ball.vertex_count == 2 * r + 1
        assert len(ball.edges) == 2 * r
        assert sphere_sizes(ball) == tuple([1] + [2] * r)


def test_z2_ball_is_a_diamond(z2_setup):
    engine, genset, _ = z2_setup
    for r in range(4):
        ball = cayley_ball(engine, genset, r)
        assert ball.vertex_count == 2 * r * r + 2 * r + 1
    ball = cayley_ball(engine, genset, 2)
    assert ball.vertex_count == 13
    assert sphere_sizes(ball) == (1, 4, 8)


def test_bs_s10_ball_sizes(bs_setup):
    engine, genset, _ = bs_setup
    ball1 = cayley_ball(engine, genset, 1)
    assert sphere_sizes(ball1) == (1, 10)
    assert ball1.vertex_count == 11
    ball2 = cayley_ball(engine, genset, 2)
    assert ball2.vertex_count == 79
    assert len(ball2.edges) == 135
    ball3 = cayley_ball(engine, genset, 3)
    assert ball3.vertex_count == 527
    assert len(ball3.edges) == 925


def test_cayley_ball_labels_are_distinct_keys(bs_setup):
    engine, genset, _ = bs_setup
    ball = cayley_ball(engine, genset, 2)
    keys = {engine.key(lbl) for lbl in ball.element_labels}
    assert len(keys) == ball.vertex_count
    assert engine.is_identity(ball.element_labels[0])


class CountingEngine(FinitePermutationEngine):
    """Counts the calls of the functions its stepper returns."""

    steps = 0

    def stepper(self, w):
        inner = super().stepper(w)

        def counted(key):
            self.steps += 1
            return inner(key)

        return counted


@pytest.mark.parametrize("radius", range(5))
def test_cayley_ball_multiplies_once_per_vertex_and_letter(radius):
    engine = CountingEngine(("a", "b"), ((1, 2, 3, 4, 5, 6, 0), (0, 4, 1, 5, 2, 6, 3)))
    genset = validate_genset(
        engine, [parse_word(t, engine.alphabet) for t in ("a", "a^-1", "b", "b^-1")]
    )
    ball = cayley_ball(engine, genset, radius)
    # The product of a vertex and a letter is one stepper call on its key.
    assert engine.steps == ball.vertex_count * len(genset)
    want = two_pass_cayley_ball(engine, genset, radius)
    assert (ball.dist, ball.edges, ball.element_labels) == (
        want.dist, want.edges, want.element_labels
    )


def assert_ball_matches_two_pass_build(engine, genset, radius):
    ball = cayley_ball(engine, genset, radius)
    want = two_pass_cayley_ball(engine, genset, radius)
    assert (ball.dist, ball.edges, ball.keys, ball.element_labels) == (
        want.dist, want.edges, want.keys, want.element_labels
    )
    return want


def test_cayley_ball_matches_two_pass_build(bs_setup):
    # The key-stepping search against the word-multiplying construction.
    standard = ("a", "a^-1", "b", "b^-1")
    cases = [bs_setup[:2], bs_s10_setup(2, 3)[:2]]
    for engine, texts in (
        (FreeEngine(AB), standard + ("a b", "b^-1 a^-1")),
        (FreeAbelianEngine(AB), standard + ("a b", "b^-1 a^-1")),
        (BaumslagSolitarEngine(2, 3), standard),
    ):
        cases.append((engine, validate_genset(engine, [wd(t) for t in texts])))
    for engine, genset in cases:
        for radius in range(4):
            assert_ball_matches_two_pass_build(engine, genset, radius)


# Words whose heads (the word less its last unit letter) are in S: a^3 from
# a^2 from a, a b^2 from a b from a, and a^-3 from a^-2 from a^-1.  b^-1 a^-1
# steps from b^-1 once b^-1 is in S; b^-2 a^-1 always has its own stepper.
CHAIN_TEXTS = (
    "a", "a^2", "a^3", "a b", "a b^2",
    "a^-1", "a^-2", "a^-3", "b^-1 a^-1", "b^-2 a^-1",
)


def chain_orders(rng):
    """The chain set as listed, reversed (every head after its word), and
    shuffled with b and b^-1 added (b^-1 a^-1 then steps from b^-1)."""
    shuffled = list(CHAIN_TEXTS + ("b", "b^-1"))
    rng.shuffle(shuffled)
    return (CHAIN_TEXTS, CHAIN_TEXTS[::-1], tuple(shuffled))


@pytest.mark.parametrize("m, n", [(1, 1), (2, 3), (4, 6), (9, 10)])
def test_chained_words_match_two_pass_build_and_distance(m, n):
    engine = BaumslagSolitarEngine(m, n)
    for texts in chain_orders(random.Random(f"chain:{m}:{n}")):
        genset = validate_genset(engine, [wd(t) for t in texts])
        for radius in range(4):
            want = assert_ball_matches_two_pass_build(engine, genset, radius)
        for v, label in enumerate(want.element_labels):
            assert distance(engine, genset, label) == want.dist[v], (texts, v)


@pytest.mark.parametrize("seed", range(20))
def test_shuffled_s10_balls_match_two_pass_build(seed):
    # r0-bs builds the s10 2- and 3-balls of BS(9, 10) with S in a seeded
    # order; some orders list a^2, a b or b^-1 a^-1 before its head.
    engine = BaumslagSolitarEngine(9, 10)
    texts = list(S10_TEXTS)
    random.Random(f"s10:{seed}").shuffle(texts)
    genset = validate_genset(engine, [wd(t) for t in texts])
    for radius in (2, 3):
        assert_ball_matches_two_pass_build(engine, genset, radius)


class CountingBSEngine(BaumslagSolitarEngine):
    """Counts the Britton rules its steppers apply: a call applies one rule
    per a-letter and one per b-syllable of its word."""

    rules = 0

    def stepper(self, w):
        inner = super().stepper(w)
        weight = sum(abs(e) if g == 0 else 1 for g, e in w.letters)

        def counted(key):
            self.rules += weight
            return inner(key)

        return counted


@pytest.mark.parametrize("radius, rules", [(2, 790), (3, 5270)])
def test_bs_s10_ball_applies_one_rule_per_vertex_and_word(bs_setup, radius, rules):
    # a^2, a^-2, a b and b^-1 a^-1 step by one rule from a, a^-1, a and
    # b^-1, so no word costs more than one rule (1,106 and 7,378 with a
    # stepper per word).
    engine = CountingBSEngine(9, 10)
    genset = validate_genset(engine, [wd(t) for t in S10_TEXTS])
    engine.rules = 0
    ball = cayley_ball(engine, genset, radius)
    assert engine.rules == rules == ball.vertex_count * len(genset)
    want = cayley_ball(bs_setup[0], bs_setup[1], radius)
    assert (ball.dist, ball.edges, ball.keys) == (want.dist, want.edges, want.keys)


def test_cayley_ball_respects_max_vertices(bs_setup):
    engine, genset, _ = bs_setup
    with pytest.raises(ResourceLimitError):
        cayley_ball(engine, genset, 3, max_vertices=100)


def test_bs_1_1_matches_z2_counts():
    # BS(1,1) is Z^2; the Britton path must reproduce the diamond sizes
    eng = BaumslagSolitarEngine(1, 1)
    alph = eng.alphabet
    gs = validate_genset(
        eng, [parse_word(t, alph) for t in ("a", "a^-1", "b", "b^-1")]
    )
    ball = cayley_ball(eng, gs, 2)
    assert ball.vertex_count == 13
    assert sphere_sizes(ball) == (1, 4, 8)


# ---------------------------------------------------------------------------
# finite balls


def test_finite_ball_on_cycle_keeps_wraparound_edge():
    g = cycle_graph(7)
    ball = finite_ball(g, 0, 3)
    assert ball.vertex_count == 7
    assert sphere_sizes(ball) == (1, 2, 2, 2)
    far = [v for v in range(7) if ball.dist[v] == 3]
    assert tuple(sorted(far)) in ball.edges


def test_finite_ball_order_maps_back():
    rng = random.Random(7)
    for _ in range(50):
        g = random_graph(rng, rng.randrange(2, 9))
        v = rng.randrange(g.vertex_count)
        r = rng.randrange(4)
        ball, order = finite_ball_with_order(g, v, r)
        assert order[0] == v
        assert len(order) == ball.vertex_count
        back = {new: old for new, old in enumerate(order)}
        for x, y in ball.edges:
            a, b = back[x], back[y]
            assert (min(a, b), max(a, b)) in g.edges
    with pytest.raises(ValueError):
        finite_ball(cycle_graph(3), 5, 1)
    with pytest.raises(ValueError):
        finite_ball(cycle_graph(3), 0, -1)


def test_finite_ball_edges_match_all_edges_scan():
    # The induced edges come from the ball's own adjacency lists; they must
    # equal the edges found by scanning every edge of the graph.
    rng = random.Random(2024)
    for graph in (torus_grid(7, 9), fixture_klein(8, 5), torus_grid(4, 3)):
        perm = list(range(graph.vertex_count))
        rng.shuffle(perm)
        g = FiniteGraph(
            graph.vertex_count,
            tuple(tuple(sorted((perm[u], perm[v]))) for u, v in graph.edges),
        )
        for _ in range(12):
            v = rng.randrange(g.vertex_count)
            r = rng.randrange(5)
            ball, order = finite_ball_with_order(g, v, r)
            renumber = {old: new for new, old in enumerate(order)}
            scanned = sorted(
                tuple(sorted((renumber[a], renumber[b])))
                for a, b in g.edges
                if a in renumber and b in renumber
            )
            assert ball.edges == tuple(scanned)


def assert_balls_match_layered_search(graph, radii):
    for v in range(graph.vertex_count):
        for r in radii:
            ball, order = finite_ball_with_order(graph, v, r)
            want, want_order = layered_finite_ball_with_order(graph, v, r)
            assert (ball.dist, ball.edges, order) == (
                want.dist, want.edges, want_order
            )


def test_finite_ball_matches_layered_search_on_random_graphs():
    # Sparse draws leave isolated vertices and several components.
    rng = random.Random(1111)
    isolated = disconnected = 0
    for _ in range(60):
        graph = random_graph(rng, rng.randrange(1, 12), rng.choice((0.1, 0.25, 0.5)))
        assert_balls_match_layered_search(graph, range(5))
        isolated += any(not nbrs for nbrs in graph.adjacency)
        disconnected += not is_connected(graph)
    assert isolated and disconnected


def test_finite_ball_matches_layered_search_on_lattices():
    # Radius 4 is past the diameter of the 4x3 grids.
    rng = random.Random(2222)
    for graph in (torus_grid(4, 3), fixture_klein(4, 3), torus_grid(7, 9),
                  fixture_klein(8, 5)):
        assert_balls_match_layered_search(relabelled(graph, rng), range(5))


def test_finite_ball_bfs_order_sorted_by_distance():
    rng = random.Random(8)
    for _ in range(50):
        g = random_graph(rng, rng.randrange(2, 9))
        ball = finite_ball(g, 0, 3)
        assert all(
            ball.dist[v] <= ball.dist[v + 1]
            for v in range(ball.vertex_count - 1)
        )


# ---------------------------------------------------------------------------
# distance


def test_distance_against_ball_membership_z2(z2_setup):
    engine, genset, _ = z2_setup
    # full cross-check on the radius-4 ball: d(e, g) is the first radius
    # whose ball contains g
    balls = [cayley_ball(engine, genset, r) for r in range(5)]
    seen = {}
    for r, ball in enumerate(balls):
        for lbl in ball.element_labels:
            seen.setdefault(engine.key(lbl), (r, lbl))
    for key, (r, lbl) in seen.items():
        assert distance(engine, genset, lbl) == r


def test_distance_bs_sampled(bs_setup):
    # full radius-2 ball, then a deterministic stride through sphere 4;
    # the BFS dist stored on the ball is the ground truth
    engine, genset, _ = bs_setup
    ball2 = cayley_ball(engine, genset, 2)
    for v, lbl in enumerate(ball2.element_labels):
        assert distance(engine, genset, lbl) == ball2.dist[v]
    ball4 = cayley_ball(engine, genset, 4)
    sphere4 = [
        lbl
        for v, lbl in enumerate(ball4.element_labels)
        if ball4.dist[v] == 4
    ]
    for lbl in sphere4[:: max(1, len(sphere4) // 40)]:
        assert distance(engine, genset, lbl) == 4


def test_distance_equals_ball_dist_on_s10_radius_3(bs_setup):
    engine, genset, _ = bs_setup
    ball = cayley_ball(engine, genset, 3)
    for v, lbl in enumerate(ball.element_labels):
        assert distance(engine, genset, lbl) == ball.dist[v]


def test_distance_on_permutations_builds_no_group_table(monkeypatch):
    # S12 has 12! elements, far past the table cap; distance needs only keys.
    monkeypatch.setattr("lml.words.DEFAULT_TABLE_CAP", 100)
    cycle = tuple(range(1, 12)) + (0,)
    eng = FinitePermutationEngine(AB, ((1, 0) + tuple(range(2, 12)), cycle))
    gs = validate_genset(eng, [wd("a"), wd("b"), wd("b^-1")])
    target = wd("a b a b^-1 a b^3")
    # breadth-first search over plain permutation tuples as the oracle
    images = [eng.images[0], cycle, tuple(cycle.index(x) for x in range(12))]
    goal = eng.permutation(target)
    seen = {tuple(range(12))}
    frontier, want = list(seen), 0
    while goal not in seen:
        frontier = [
            tuple(img[x] for x in p) for p in frontier for img in images
        ]
        frontier = [p for p in set(frontier) if p not in seen]
        seen.update(frontier)
        want += 1
    assert distance(eng, gs, target) == want
    with pytest.raises(ResourceLimitError):
        eng.order()


def test_permutation_ball_labels_only_when_read(monkeypatch):
    # The ball steps on permutations; only its labels need the S12 table.
    monkeypatch.setattr("lml.words.DEFAULT_TABLE_CAP", 100)
    cycle = tuple(range(1, 12)) + (0,)
    eng = FinitePermutationEngine(AB, ((1, 0) + tuple(range(2, 12)), cycle))
    gs = validate_genset(eng, [wd("a"), wd("b"), wd("b^-1")])
    ball = cayley_ball(eng, gs, 2)
    assert sphere_sizes(ball) == (1, 3, 6)
    assert ball.keys[1:4] == tuple(eng.key(w) for w in gs.words)
    with pytest.raises(ResourceLimitError):
        ball.element_labels


def test_pgl_211_ball_is_the_bs_ball_without_a_group_table(bs_setup):
    # PGL(2, 211) has 9,393,720 elements, past the default table cap, and
    # its s10 3-ball is the BS(9, 10) one; building it needs no table.
    p = 211

    def mobius(a, b, c, d):
        def image(x):
            num, den = (a * x + b, c * x + d) if x < p else (a, c)
            return p if den % p == 0 else num * pow(den, -1, p) % p

        return tuple(image(x) for x in range(p + 1))

    eng = FinitePermutationEngine(
        AB, (mobius(5, 6, 166, 138), mobius(2, 97, 175, 55))
    )
    gs = validate_genset(eng, [wd(t) for t in S10_TEXTS])
    ball = cayley_ball(eng, gs, 3)
    want = cayley_ball(bs_setup[0], bs_setup[1], 3)
    assert (ball.dist, ball.edges) == (want.dist, want.edges)


def one_sided_distance(engine, genset, g):
    """d(identity, g) by breadth-first search from the identity alone."""
    goal = engine.key(g)
    seen = {engine.key(word())}
    frontier, d = list(seen), 0
    while goal not in seen:
        nxt = []
        for u in frontier:
            for s in genset.words:
                k = engine.stepper(s)(u)
                if k not in seen:
                    seen.add(k)
                    nxt.append(k)
        frontier, d = nxt, d + 1
    return d


def test_distance_matches_one_sided_search_on_random_words():
    # Meeting in the middle returns at the first element both sides have
    # found; a one-sided search from the identity gives the ground truth.
    rng = random.Random(1313)
    cycle = tuple(range(1, 9)) + (0,)
    perm = FinitePermutationEngine(AB, ((1, 0) + tuple(range(2, 9)), cycle))
    setups = [
        (perm, validate_genset(perm, [wd(t) for t in ("a", "b", "b^-1")])),
        (perm, validate_genset(
            perm, [wd(t) for t in ("a", "b", "b^-1", "a b", "b^-1 a^-1")]
        )),
        bs_s10_setup()[:2],
    ]
    for m, n in ((2, 3), (3, 5), (1, 2)):
        bs = BaumslagSolitarEngine(m, n)
        gens = [wd(t) for t in ("a", "a^-1", "b", "b^-1")]
        setups.append((bs, validate_genset(bs, gens)))
    for engine, genset in setups:
        for _ in range(40):
            letters = [
                (rng.randrange(2), rng.choice((1, -1)))
                for _ in range(rng.randrange(7))
            ]
            g = word(tuple(letters))
            assert distance(engine, genset, g) == one_sided_distance(
                engine, genset, g
            ), (letters, genset.words)


def test_distance_unreachable_and_caps():
    # <a> = {e, a} is a finite component, so unreachability is provable.
    eng = FinitePermutationEngine(("a", "b"), ((1, 0, 2, 3), (1, 2, 3, 0)))
    gs = validate_genset(eng, [parse_word("a", eng.alphabet)])
    with pytest.raises(NotReachableError):
        distance(eng, gs, parse_word("b", eng.alphabet))
    bs = BaumslagSolitarEngine(2, 3)
    bgs = validate_genset(
        bs, [parse_word("b", bs.alphabet), parse_word("b^-1", bs.alphabet)]
    )
    with pytest.raises(ResourceLimitError):
        distance(bs, bgs, parse_word("b^1000000", bs.alphabet), max_explored=50)


def test_distance_of_the_ci_word():
    # `lml distance --engine bs --m 2 --n 3 --word b^-40`, over a, a^-1, b, b^-1.
    engine = BaumslagSolitarEngine(2, 3)
    genset = validate_genset(engine, [wd(t) for t in ("a", "a^-1", "b", "b^-1")])
    assert distance(engine, genset, wd("b^-40")) == 18


def test_distance_zero_for_identity(bs_setup):
    engine, genset, _ = bs_setup
    assert distance(engine, genset, word()) == 0


# ---------------------------------------------------------------------------
# connectivity and fixtures


def test_is_connected():
    assert is_connected(cycle_graph(5))
    assert is_connected(FiniteGraph(0, ()))
    two = FiniteGraph(6, ((0, 1), (1, 2), (3, 4), (4, 5)))
    assert not is_connected(two)


def test_is_connected_matches_depth_first_search():
    rng = random.Random(3333)
    graphs = [FiniteGraph(0, ()), FiniteGraph(1, ()), FiniteGraph(2, ())]
    graphs += [
        random_graph(rng, rng.randrange(1, 12), rng.choice((0.1, 0.25, 0.5)))
        for _ in range(200)
    ]
    graphs += [relabelled(torus_grid(5, 4), rng), relabelled(fixture_klein(6, 3), rng)]
    answers = [is_connected(g) for g in graphs]
    assert answers == [stack_is_connected(g) for g in graphs]
    assert True in answers and False in answers
    # The graph's own adjacency stays uncomputed.
    assert all("adjacency" not in vars(g) for g in graphs)


def test_fixture_shapes():
    c = cycle_graph(6)
    assert c.vertex_count == 6 and len(c.edges) == 6
    t = torus_grid(4, 5)
    assert t.vertex_count == 20 and len(t.edges) == 40
    assert all(len(t.adjacency[v]) == 4 for v in range(20))
    k = fixture_klein(4, 3)
    assert k.vertex_count == 12 and len(k.edges) == 24
    assert all(len(k.adjacency[v]) == 4 for v in range(12))


def test_fixture_degenerate_dimensions():
    with pytest.raises(ValueError):
        cycle_graph(2)
    with pytest.raises(ValueError):
        torus_grid(2, 5)
    with pytest.raises(ValueError):
        fixture_klein(3, 3)
    with pytest.raises(ValueError):
        fixture_klein(2, 1)


# ---------------------------------------------------------------------------
# text formats


def test_graph_text_round_trip():
    rng = random.Random(9)
    for _ in range(30):
        g = random_graph(rng, rng.randrange(1, 10))
        assert parse_graph(render_graph(g)).edges == g.edges


def test_rooted_ball_text_round_trip():
    ball = finite_ball(cycle_graph(9), 2, 3)
    text = render_rooted_ball(ball)
    assert text == (
        "7 6\n0 1\n0 2\n1 3\n2 4\n3 5\n4 6\n"
        "root 0\nradius 3\ndist 0 1 1 2 2 3 3\n"
    )
    assert parse_graph(text.split("root")[0]).edges == ball.edges


def test_parse_graph_errors():
    with pytest.raises(ParseError):
        parse_graph("")
    with pytest.raises(ParseError):
        parse_graph("3\n")
    with pytest.raises(ParseError):
        parse_graph("3 2\n0 1\n")
    with pytest.raises(ParseError):
        parse_graph("3 1\n0 5\n")
    g = parse_graph("3 1 # comment\n0 1\n\n")
    assert g.edges == ((0, 1),)
