"""Edge labeling, induced actions, presentations over S, and the full
reconstruction pipeline."""

import itertools
import json
import random
import sys
import time

import pytest
from conftest import ROUND_TRIP_FIXTURES
from oracles import oracle_reconstruct, pointwise_check_factors

from lml import balls, iso, localmodel
from lml.balls import FiniteGraph, cayley_ball
from lml.fixtures import cycle_graph, fixture_klein, torus_grid
from lml.reconstruct import (
    AmbiguousLabeling,
    BaseLettersMissingError,
    EdgeLabeling,
    LabelInconsistency,
    NotAModelError,
    NotRegularError,
    SchreierGraph,
    build_action,
    check_factors,
    label_edges,
    present_on_S,
    reconstruct,
    stabilizer,
)
from lml.words import (
    FinitePermutationEngine,
    FreeEngine,
    Presentation,
    ResourceLimitError,
    bs_s10_setup,
    parse_word,
    validate_genset,
    word,
)

Z_ALPH = ("x",)
Z_PRESENTATION = Presentation(Z_ALPH, [])


def two_hexagons():
    ring = cycle_graph(6).edges
    return FiniteGraph(12, ring + tuple((u + 6, v + 6) for u, v in ring))


def full_cayley_graph(fixture):
    engine, genset = fixture.engine(), fixture.genset()
    ball = cayley_ball(engine, genset, 10)
    assert ball.vertex_count == fixture.order, "ball did not saturate"
    return engine, genset, ball, FiniteGraph(ball.vertex_count, ball.edges)


# ---------------------------------------------------------------------------
# edge labeling


def test_label_edges_requires_radius_one(z_setup):
    engine, genset = z_setup
    with pytest.raises(ValueError, match="radius"):
        label_edges(cycle_graph(8), engine, genset, 0)


def test_label_edges_rejects_non_model(z_setup):
    engine, genset = z_setup
    with pytest.raises(NotAModelError) as info:
        label_edges(cycle_graph(5), engine, genset, 2)
    assert info.value.rejection == (
        0,
        "ball at vertex 0 is not rooted-isomorphic to the radius-2 ball at "
        "the identity",
    )


def test_label_edges_ambiguous_on_cycle(z_setup):
    engine, genset = z_setup
    out = label_edges(cycle_graph(8), engine, genset, 2)
    assert isinstance(out, AmbiguousLabeling)
    assert out.vertex == 0
    x = out.disagreement()
    assert x is not None and out.first.source.dist[x] <= 2
    doc = out.to_jsonable()
    assert doc["vertex"] == 0 and doc["disagreement"] == x
    assert doc["first"] != doc["second"]


def test_label_edges_complete_on_rigid_fixture(group_fixture):
    engine, genset, _, graph = full_cayley_graph(group_fixture)
    labeling = label_edges(graph, engine, genset, group_fixture.rigid_radius)
    assert isinstance(labeling, EdgeLabeling)
    assert labeling.vertex_count == graph.vertex_count
    assert labeling.genset_size == len(genset)
    assert len(labeling.directed) == 2 * len(graph.edges)
    pairing = genset.inverse_pairing
    label = {(v, w): i for v, w, i in labeling.directed}
    for v, w, i in labeling.directed:
        assert label[(w, v)] == pairing[i]


def test_edge_labeling_validation():
    with pytest.raises(ValueError, match="out of range"):
        EdgeLabeling(2, 1, ((0, 1, 1),))
    with pytest.raises(ValueError, match="repeats"):
        EdgeLabeling(3, 2, ((0, 1, 0), (0, 2, 0)))
    lab = EdgeLabeling(2, 2, ((0, 1, 0), (1, 0, 1)))
    assert lab.to_jsonable()["labels"] == [[0, 1, 0], [1, 0, 1]]


def test_label_inconsistency_payload():
    bad = LabelInconsistency((0, 1), "mismatched pairing")
    assert bad.to_jsonable() == {"edge": [0, 1], "detail": "mismatched pairing"}


# ---------------------------------------------------------------------------
# building the action


def rotation_labeling(n):
    directed = []
    for v in range(n):
        directed.append((v, (v + 1) % n, 0))
        directed.append(((v + 1) % n, v, 1))
    return EdgeLabeling(n, 2, tuple(directed))


def test_build_action_rotation(z_setup):
    _, genset = z_setup
    action = build_action(cycle_graph(6), rotation_labeling(6), genset)
    assert action.sigma[0] == (1, 2, 3, 4, 5, 0)
    assert action.sigma[1] == (5, 0, 1, 2, 3, 4)
    assert action.sigma[0][4] == 5
    assert action.underlying_graph() == cycle_graph(6)
    assert action.to_jsonable()["sigma"][0] == [1, 2, 3, 4, 5, 0]


def test_build_action_requires_all_labels(z_setup):
    _, genset = z_setup
    partial = EdgeLabeling(6, 2, ((0, 1, 0), (1, 0, 1)))
    with pytest.raises(NotRegularError) as info:
        build_action(cycle_graph(6), partial, genset)
    assert info.value.vertex == 0


def test_build_action_rejects_non_bijection():
    engine = FinitePermutationEngine(("a", "b"), ((1, 0, 2, 3), (1, 2, 3, 0)))
    genset = validate_genset(engine, [parse_word("a", engine.alphabet)])
    looped = EdgeLabeling(2, 1, ((0, 1, 0), (1, 1, 0)))
    with pytest.raises(ValueError, match="bijection"):
        build_action(FiniteGraph(2, ((0, 1),)), looped, genset)


# ---------------------------------------------------------------------------
# presenting on S


def test_present_on_s_lattice_commutator(z2_setup):
    engine, genset, presentation = z2_setup
    relators, r_prime = present_on_S(presentation, genset, engine)
    assert [r.letters for r in relators] == [((0, 1), (2, 1), (1, 1), (3, 1))]
    assert r_prime == 2


def test_present_on_s_free_group_is_empty():
    engine = FreeEngine(("a", "b"))
    genset = validate_genset(
        engine,
        [parse_word(t, engine.alphabet) for t in ("a", "a^-1", "b", "b^-1")],
    )
    relators, r_prime = present_on_S(Presentation(("a", "b"), []), genset, engine)
    assert relators == [] and r_prime == 0


def test_present_on_s_derived_letters_get_definitions():
    engine, genset, presentation = bs_s10_setup()
    relators, r_prime = present_on_S(presentation, genset, engine)
    letters = [r.letters for r in relators]
    assert letters == [
        ((4, 1), (2, 2)),
        ((5, 1), (0, 2)),
        ((6, 1), (3, 1), (2, 1)),
        ((7, 1), (0, 1), (1, 1)),
        ((8, 1), (3, 4)),
        ((9, 1), (1, 4)),
        ((0, 1), (1, 9), (2, 1), (3, 10)),
    ]
    assert all(e > 0 for rel in relators for _, e in rel.letters)
    assert r_prime == 4


def test_present_on_s_caps_each_distance_search(monkeypatch):
    fx = ROUND_TRIP_FIXTURES[0]
    graph = full_cayley_graph(fx)[3]
    caps = []
    original = balls.distance

    def spy(engine, genset, g, max_explored=balls.DEFAULT_MAX_VERTICES):
        caps.append(max_explored)
        return original(engine, genset, g, max_explored)

    monkeypatch.setattr(sys.modules["lml.reconstruct"], "distance", spy)
    res = reconstruct(
        graph, fx.engine(), fx.genset(), fx.presentation(), 2, max_vertices=14
    )
    assert res.succeeded and res.r_prime == 2
    assert caps and set(caps) == {14}
    with pytest.raises(ResourceLimitError, match="max_explored=2"):
        present_on_S(fx.presentation(), fx.genset(), fx.engine(), 2)


@pytest.mark.parametrize("fx", ROUND_TRIP_FIXTURES, ids=lambda fx: fx.name)
def test_present_on_s_searches_each_prefix_element_once(fx, monkeypatch):
    engine, genset = fx.engine(), fx.genset()
    searched = []
    original = balls.distance

    def spy(engine, genset, g, max_explored=balls.DEFAULT_MAX_VERTICES):
        searched.append(engine.key(g))
        return original(engine, genset, g, max_explored)

    monkeypatch.setattr(sys.modules["lml.reconstruct"], "distance", spy)
    relators, r_prime = present_on_S(fx.presentation(), genset, engine)
    prefixes = []
    for rel in relators:
        letters = [genset.words[i] for i, e in rel.letters for _ in range(e)]
        prefixes += [word(sum((w.letters for w in letters[:j]), ()))
                     for j in range(1, len(letters) + 1)]
    keys = list(dict.fromkeys(engine.key(p) for p in prefixes))
    assert searched == keys
    assert len(keys) < len(prefixes)
    assert r_prime == max(original(engine, genset, p) for p in prefixes)


def test_present_on_s_missing_base_letter(z2_setup):
    engine, _, presentation = z2_setup
    thin = validate_genset(
        engine,
        [parse_word(t, ("x", "y")) for t in ("x", "x^-1")],
    )
    with pytest.raises(BaseLettersMissingError) as info:
        present_on_S(presentation, thin, engine)
    assert info.value.name == "y"


# ---------------------------------------------------------------------------
# factoring and stabilizers


def rotation_action(n):
    fwd = tuple((v + 1) % n for v in range(n))
    back = tuple((v - 1) % n for v in range(n))
    return SchreierGraph(n, (fwd, back))


def test_check_factors_on_cycle():
    action = rotation_action(5)
    assert check_factors(action, [word(((0, 5),))], (1, 0)) is True
    bad = check_factors(action, [word(((0, 3),))], (1, 0))
    assert bad is not True
    assert bad.vertex == 0 and bad.relator.letters == ((0, 3),)
    assert bad.to_jsonable() == {"relator": [[0, 3]], "vertex": 0}


def test_check_factors_negative_exponents():
    action = rotation_action(5)
    assert check_factors(action, [word(((0, -5),))], (1, 0)) is True
    bad = check_factors(action, [word(((0, -3),))], (1, 0))
    assert bad.vertex == 0 and bad.relator.letters == ((0, -3),)


def random_action(rng):
    """A random action on 1..7 points with a consistent inverse pairing:
    some letters are involutions paired with themselves, the rest come in
    (permutation, inverse) pairs."""
    n = rng.randint(1, 7)
    sigma, pairing = [], []
    for _ in range(rng.randint(1, 3)):
        p = list(range(n))
        rng.shuffle(p)
        if rng.random() < 0.3:
            inv = list(range(n))
            for a in range(0, n - 1, 2):
                inv[p[a]], inv[p[a + 1]] = p[a + 1], p[a]
            pairing.append(len(sigma))
            sigma.append(tuple(inv))
        else:
            back = [0] * n
            for u, v in enumerate(p):
                back[v] = u
            pairing.extend((len(sigma) + 1, len(sigma)))
            sigma.extend((tuple(p), tuple(back)))
    return SchreierGraph(n, tuple(sigma)), tuple(pairing)


def random_relators(rng, k, pairing):
    out = []
    for _ in range(4):
        letters = [
            (rng.randrange(k), rng.choice((-3, -2, -1, 1, 2, 3)))
            for _ in range(rng.randint(1, 4))
        ]
        if rng.random() < 0.5:
            # w followed by w^-1 spelt through the pairing acts trivially
            letters += [(pairing[i], abs(e)) if e > 0 else (i, -e)
                        for i, e in reversed(letters)]
        out.append(word(letters))
    rng.shuffle(out)
    return out


def test_check_factors_matches_pointwise_oracle():
    rng = random.Random(20261018)
    outcomes = set()
    for _ in range(300):
        action, pairing = random_action(rng)
        relators = random_relators(rng, len(action.sigma), pairing)
        got = check_factors(action, relators, pairing)
        assert got == pointwise_check_factors(action, relators, pairing)
        outcomes.add(got is True)
    assert outcomes == {True, False}


def test_stabilizer_of_cycle_rotation(z_setup):
    _, genset = z_setup
    gens = stabilizer(rotation_action(5), genset)
    assert [g.render(Z_ALPH) for g in gens] == ["x^5", "x^-5"]


def test_stabilizer_of_single_vertex_is_whole_genset(z_setup):
    _, genset = z_setup
    point = SchreierGraph(1, ((0,), (0,)))
    gens = stabilizer(point, genset)
    assert [g.render(Z_ALPH) for g in gens] == ["x", "x^-1"]


# ---------------------------------------------------------------------------
# the pipeline


def test_reconstruct_requires_radius(z_setup):
    engine, genset = z_setup
    with pytest.raises(ValueError, match="radius"):
        reconstruct(cycle_graph(8), engine, genset, Z_PRESENTATION, 0)


def test_reconstruct_rejects_empty_graph(z_setup):
    engine, genset = z_setup
    with pytest.raises(ValueError, match="graph has no vertices"):
        reconstruct(FiniteGraph(0, ()), engine, genset, Z_PRESENTATION, 2)


def test_reconstruct_not_a_model(z_setup):
    engine, genset = z_setup
    res = reconstruct(cycle_graph(5), engine, genset, Z_PRESENTATION, 2)
    assert res.outcome == "not_a_model" and not res.succeeded
    assert res.rejection[0] == 0
    assert res.to_jsonable()["rejection"]["vertex"] == 0


def test_reconstruct_disconnected(z_setup):
    engine, genset = z_setup
    res = reconstruct(two_hexagons(), engine, genset, Z_PRESENTATION, 2)
    assert res.outcome == "disconnected"
    assert res.to_jsonable() == {"schema": 1, "outcome": "disconnected"}


def test_reconstruct_ambiguous_on_cycle(z_setup):
    engine, genset = z_setup
    res = reconstruct(cycle_graph(8), engine, genset, Z_PRESENTATION, 2)
    assert res.outcome == "ambiguous_labeling"
    assert res.ambiguity.vertex == 0
    assert "ambiguity" in res.to_jsonable()


def test_reconstruct_round_trips_cayley_graph(group_fixture):
    engine, genset, ball, graph = full_cayley_graph(group_fixture)
    res = reconstruct(
        graph,
        engine,
        genset,
        group_fixture.presentation(),
        group_fixture.rigid_radius,
    )
    assert res.succeeded, res.outcome
    assert res.action.vertex_count == group_fixture.order
    # Base vertex 0 is the identity, so the recovered action must be
    # exactly right multiplication on the element labels.
    at = {engine.key(lbl): j for j, lbl in enumerate(ball.element_labels)}
    for i, s in enumerate(genset.words):
        for v in range(graph.vertex_count):
            prod = engine.multiply(ball.element_labels[v], s)
            assert res.action.sigma[i][v] == at[engine.key(prod)]
    # The point stabilizer in the regular action is trivial.
    assert res.stabilizer_words
    for g in res.stabilizer_words:
        assert engine.equal(g, word())
    doc = res.to_jsonable(alphabet=engine.alphabet)
    assert doc["outcome"] == "success"
    assert doc["r_prime"] == res.r_prime
    assert all(isinstance(s, str) for s in doc["stabilizer"])
    json.dumps(doc)


def test_reconstruct_flags_wrong_twist():
    # Same orders, same S texts, but b conjugates a to a^4 instead of a^2,
    # so the cyclic-extension relator must fail on this Cayley graph.
    engine = FinitePermutationEngine(
        ("a", "b"), ((1, 2, 3, 4, 5, 6, 0), (0, 2, 4, 6, 1, 3, 5))
    )
    genset = validate_genset(
        engine,
        [
            parse_word(t, engine.alphabet)
            for t in ("a", "a^-1", "b", "b^-1", "a b", "b^-1 a^-1",
                      "b a^-1", "a b^-1")
        ],
    )
    presentation = Presentation(
        ("a", "b"),
        [parse_word(t, ("a", "b")) for t in ("a^7", "b^3", "b a b^-1 a^-2")],
    )
    ball = cayley_ball(engine, genset, 10)
    assert ball.vertex_count == 21
    graph = FiniteGraph(21, ball.edges)
    res = reconstruct(graph, engine, genset, presentation, 2)
    assert res.outcome == "relator_violation"
    assert res.violation.vertex == 0
    assert res.violation.relator.letters == ((2, 1), (0, 1), (3, 1), (1, 2))
    assert res.action is not None and res.r_prime is not None
    assert res.to_jsonable()["violation"] == {
        "relator": [[2, 1], [0, 1], [3, 1], [1, 2]], "vertex": 0,
    }


# ---------------------------------------------------------------------------
# free-group models: point-line incidence graphs of finite geometries


F2_ALPH = ("x", "y")


def f2_setup():
    engine = FreeEngine(F2_ALPH)
    genset = validate_genset(
        engine, [parse_word(t, F2_ALPH) for t in ("x", "x^-1", "y", "y^-1")]
    )
    return engine, genset, Presentation(F2_ALPH, [])


def projective_points(dim):
    """The points of PG(dim - 1, 3): vectors whose first nonzero entry is 1."""
    return [v for v in itertools.product(range(3), repeat=dim)
            if any(v) and v[next(i for i, x in enumerate(v) if x)] == 1]


def incidence_graph(points, lines):
    """Points 0..p-1, then one vertex per line, joined to its points."""
    index = {pt: i for i, pt in enumerate(points)}
    p = len(points)
    return FiniteGraph(p + len(lines), tuple(
        (index[pt], p + j) for j, line in enumerate(lines) for pt in line
    ))


def pg23():
    """PG(2,3): 13 points and 13 lines, 4-regular with girth 6, so a
    2-local model of the 4-regular tree Cay(F2, {x, x^-1, y, y^-1})."""
    points = projective_points(3)
    lines = [[pt for pt in points if sum(a * b for a, b in zip(pt, ln)) % 3 == 0]
             for ln in points]
    return incidence_graph(points, lines)


def w3():
    """The generalised quadrangle W(3): the 40 points of PG(3,3) and its 40
    lines isotropic for a symplectic form.  Girth 8: a 3-local F2 model."""
    points = projective_points(4)

    def form(u, v):
        return (u[0] * v[1] - u[1] * v[0] + u[2] * v[3] - u[3] * v[2]) % 3

    def normal(v):
        lead = next(x for x in v if x)
        return tuple(x * lead % 3 for x in v)  # lead is its own inverse mod 3

    lines = sorted({
        tuple(sorted({normal(tuple((a * x + b * y) % 3 for x, y in zip(u, v)))
                      for a, b in projective_points(2)}))
        for u, v in itertools.combinations(points, 2) if form(u, v) == 0
    })
    return incidence_graph(points, lines)


def girth(graph):
    best = None
    adj = graph.adjacency
    for root in range(graph.vertex_count):
        depth, parent, queue = {root: 0}, {root: None}, [root]
        for u in queue:
            for w in adj[u]:
                if w not in depth:
                    depth[w], parent[w] = depth[u] + 1, u
                    queue.append(w)
                elif parent[u] != w:
                    cycle = depth[u] + depth[w] + 1
                    best = cycle if best is None else min(best, cycle)
    return best


def count_searches(monkeypatch):
    """The maps each isomorphism search yields, one list per search."""
    search, searches = iso._search, []

    def counting(*args, **kwargs):
        isos, cut, yielded = search(*args, **kwargs), None, []
        searches.append(yielded)
        while True:
            try:
                mapping = isos.send(cut)
            except StopIteration:
                return
            yielded.append(mapping)
            cut = yield mapping

    monkeypatch.setattr(iso, "_search", counting)
    return searches


@pytest.mark.parametrize("build, size, g", [(pg23, 26, 6), (w3, 80, 8)])
def test_incidence_graphs_are_regular_with_girth(build, size, g):
    graph = build()
    assert graph.vertex_count == size
    assert all(len(graph.adjacency[v]) == 4 for v in range(size))
    assert girth(graph) == g


def test_ambiguity_search_stops_at_the_second_map(monkeypatch):
    # The parent listed all 31,104 isomorphisms of the F2 2-ball.
    engine, genset, _ = f2_setup()
    assert iso.automorphism_scan(cayley_ball(engine, genset, 2), 2)[0] == 31104
    searches = count_searches(monkeypatch)
    res = label_edges(pg23(), engine, genset, 2)
    assert isinstance(res, AmbiguousLabeling)
    assert res.disagreement() is not None
    assert max(map(len, searches)) <= 2


def test_ambiguity_on_a_three_local_free_model_is_fast():
    # 6^12 automorphisms of the F2 3-ball fix its LABEL_RADIUS ball
    # pointwise, so listing them all does not finish.
    engine, genset, presentation = f2_setup()
    assert iso.automorphism_scan(cayley_ball(engine, genset, 3), -1)[0] == 31104 * 6**12
    start = time.perf_counter()
    res = reconstruct(w3(), engine, genset, presentation, 3)
    assert time.perf_counter() - start < 1
    assert res.outcome == "ambiguous_labeling"
    # The next map after the cut moves the LABEL_RADIUS ball; the uncut
    # next map would move only leaves.
    assert res.ambiguity.disagreement() is not None


# ---------------------------------------------------------------------------
# one walk against the enumerate-every-isomorphism pipeline


def disjoint_union(g, h):
    n = g.vertex_count
    return FiniteGraph(
        n + h.vertex_count, g.edges + tuple((u + n, v + n) for u, v in h.edges)
    )


def differential_cases(z_setup, z2_setup):
    engine, genset = z_setup
    for n in range(3, 12):
        for r in (1, 2, 3):
            yield cycle_graph(n), engine, genset, Z_PRESENTATION, r
    yield disjoint_union(cycle_graph(4), cycle_graph(4)), engine, genset, Z_PRESENTATION, 1
    engine, genset, presentation = z2_setup
    for w in range(3, 8):
        for h in range(3, 8):
            for r in (1, 2):
                yield torus_grid(w, h), engine, genset, presentation, r
                if w % 2 == 0:
                    yield fixture_klein(w, h), engine, genset, presentation, r
    for fx in ROUND_TRIP_FIXTURES:
        engine, genset = fx.engine(), fx.genset()
        graph = full_cayley_graph(fx)[3]
        for r in (1, 2, 3):
            for g in (graph, disjoint_union(graph, graph)):
                yield g, engine, genset, fx.presentation(), r
    yield (pg23(), *f2_setup(), 2)


def test_reconstruct_matches_enumerating_oracle(z_setup, z2_setup):
    outcomes = set()
    for graph, engine, genset, presentation, r in differential_cases(
        z_setup, z2_setup
    ):
        got = reconstruct(graph, engine, genset, presentation, r)
        want = oracle_reconstruct(graph, engine, genset, presentation, r)
        assert got.to_jsonable() == want.to_jsonable(), (graph.vertex_count, r)
        outcomes.add(got.outcome)
    assert outcomes == {
        "success", "not_a_model", "disconnected", "ambiguous_labeling"
    }


def count_calls(monkeypatch, module, name):
    """Count calls to module.name through every lml namespace holding it."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "lml" and vars(mod).get(name) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


def test_reconstruct_builds_the_model_adjacency_once(monkeypatch):
    fx = ROUND_TRIP_FIXTURES[2]
    graph = full_cayley_graph(fx)[3]
    builds = count_calls(monkeypatch, balls, "_adjacency")
    res = reconstruct(graph, fx.engine(), fx.genset(), fx.presentation(), 2)
    assert res.succeeded
    n = graph.vertex_count
    assert [args[0] for args in builds].count(n) == 1
    assert "adjacency" not in vars(graph)


def test_reconstruct_builds_each_ball_once(monkeypatch):
    fx = ROUND_TRIP_FIXTURES[2]
    graph = full_cayley_graph(fx)[3]
    targets = count_calls(monkeypatch, balls, "cayley_ball")
    searches = count_calls(monkeypatch, balls, "_grow")
    ball_objects = count_calls(monkeypatch, balls, "finite_ball_with_order")
    keys = count_calls(monkeypatch, iso, "canonical_key")
    verdicts = count_calls(monkeypatch, localmodel, "verify_model")
    r, n = fx.rigid_radius, graph.vertex_count
    res = reconstruct(graph, fx.engine(), fx.genset(), fx.presentation(), r)
    assert res.succeeded
    assert len(targets) == 1
    # One ball cut per vertex plus the target's, and the connectivity
    # search over the whole graph; a rigid target needs no ball object.
    radii = sorted(args[2] for args in searches)
    assert r < n and radii == [r] * (n + 1) + [n]
    assert ball_objects == [] and keys == [] and verdicts == []


@pytest.mark.parametrize("fx", ROUND_TRIP_FIXTURES, ids=lambda f: f.name)
def test_rigid_labels_stand_after_one_map(fx, monkeypatch):
    # The target is discrete, so each ball's one map is read off its
    # colors and vertex 0's matcher ends at the LABEL_RADIUS cut: no search
    # runs at all.  No automorphism scan runs, and no ball is grown past
    # the walk's.
    engine, genset, _, graph = full_cayley_graph(fx)
    scans = count_calls(monkeypatch, iso, "automorphism_scan")
    grown = count_calls(monkeypatch, balls, "_grow")
    searches = count_searches(monkeypatch)
    assert isinstance(label_edges(graph, engine, genset, fx.rigid_radius), EdgeLabeling)
    assert searches == [] and scans == []
    assert len(grown) == graph.vertex_count + 1


def test_ambiguity_is_the_cut_search_alone(monkeypatch):
    # Vertex 0's search, the walk's own, is cut after its first map and
    # yields the second; every other ball's search stops at its first.
    engine, genset, _ = f2_setup()
    scans = count_calls(monkeypatch, iso, "automorphism_scan")
    searches = count_searches(monkeypatch)
    assert isinstance(label_edges(pg23(), engine, genset, 2), AmbiguousLabeling)
    assert list(map(len, searches)) == [2] + [1] * 25 and scans == []


def test_reconstruct_starts_no_search_after_the_walk(monkeypatch, z2_setup):
    # One search per vertex ball where the target has a color of several
    # vertices, and none where every color is one vertex.
    cases = [(pg23(), *f2_setup(), 26), (fixture_klein(8, 6), *z2_setup, 48)]
    for fx in ROUND_TRIP_FIXTURES:
        engine, genset, _, graph = full_cayley_graph(fx)
        cases.append((graph, engine, genset, fx.presentation(), 0))
    searches = count_searches(monkeypatch)
    outcomes = []
    for graph, engine, genset, presentation, want in cases:
        searches.clear()
        outcomes.append(reconstruct(graph, engine, genset, presentation, 2).outcome)
        assert len(searches) == want
    assert outcomes == ["ambiguous_labeling"] * 2 + ["success"] * 3
