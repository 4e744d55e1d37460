"""The benchmark's oracles, cross-checked against networkx and sympy.

The verdict oracles in workloads.py do not come from lml; these tests
check them against independent libraries instead:

- the torus and Klein-grid laws against networkx rooted isomorphism of
  every vertex ball with the Z^2 ball (nodes matched on distance);
- the per-degree quotient class counts against sympy's low-index
  subgroups, whose counts are cumulative (index <= N);
- the round-trip group orders and relators against sympy permutation
  groups.
"""

import random

import pytest

from lml.fixtures import fixture_klein, torus_grid
from workloads import (
    ROUND_TRIP_GROUPS,
    WITNESS_CLASSES,
    WITNESS_MAX_DEGREE,
    VerifyLattice,
    lattice_law,
)

nx = pytest.importorskip("networkx")


def _nx_graph(graph):
    g = nx.Graph()
    g.add_nodes_from(range(graph.vertex_count))
    g.add_edges_from(graph.edges)
    return g


def _rooted_ball(g, root, r):
    ball = nx.ego_graph(g, root, radius=r)
    dist = nx.single_source_shortest_path_length(ball, root)
    nx.set_node_attributes(ball, dist, "dist")
    return ball


def _z2_ball(r):
    grid = nx.grid_2d_graph(2 * r + 1, 2 * r + 1)
    return _rooted_ball(grid, (r, r), r)


def _nx_is_model(graph, r, vertices):
    target = _z2_ball(r)
    g = _nx_graph(graph)
    same = nx.algorithms.isomorphism.categorical_node_match("dist", None)
    return all(
        nx.is_isomorphic(_rooted_ball(g, v, r), target, node_match=same)
        for v in vertices
    )


def _cases():
    cases = set()
    for r in (1, 2, 3):
        for w in range(3, 11):
            for h in range(w, 11):
                cases.add(("torus", w, h, r))
        for w in (6, 8, 10):
            for h in range(3, 10):
                cases.add(("klein", w, h, r))
    for w, h, r in VerifyLattice.DESIGNS:
        for a, b in ((w, h), (h, w)):
            cases.add(("torus", a, b, r))
            if a % 2 == 0:
                cases.add(("klein", a, b, r))
    return sorted(cases)


@pytest.mark.parametrize("kind,w,h,r", _cases())
def test_lattice_law_matches_networkx(kind, w, h, r):
    if kind == "torus":
        graph = torus_grid(w, h)
        vertices = [0]  # translations act transitively
    else:
        graph = fixture_klein(w, h)
        vertices = range(graph.vertex_count)
    assert lattice_law(kind, w, h, r) == _nx_is_model(graph, r, vertices)


def test_block_designs_cover_both_verdicts():
    specs = VerifyLattice().block_specs(random.Random(0))
    verdicts = {lattice_law(kind, w, h, r) for kind, w, h, r, _ in specs}
    assert verdicts == {True, False}
    sides = {s for _, w, h, _, _ in specs for s in (w, h)}
    assert min(sides) == 6 and max(sides) == 24


@pytest.mark.parametrize("pair", sorted(WITNESS_CLASSES))
def test_witness_classes_match_sympy(pair):
    fp_groups = pytest.importorskip("sympy.combinatorics.fp_groups")
    from sympy.combinatorics.free_groups import free_group

    m, n = pair
    free, a, b = free_group("a, b")
    group = fp_groups.FpGroup(free, [a * b**m * a**-1 * b**-n])
    tables = fp_groups.low_index_subgroups(group, WITNESS_MAX_DEGREE)
    per_degree = [0] * WITNESS_MAX_DEGREE
    for table in tables:
        per_degree[len(table.table) - 1] += 1
    assert tuple(per_degree) == WITNESS_CLASSES[pair]


@pytest.mark.parametrize("fx", ROUND_TRIP_GROUPS, ids=lambda fx: fx.name)
def test_round_trip_group_order_and_relators(fx):
    combinatorics = pytest.importorskip("sympy.combinatorics")
    perms = [combinatorics.Permutation(list(p)) for p in fx.images]
    assert combinatorics.PermutationGroup(perms).order() == fx.order
    letters = {"a": perms[0], "b": perms[1]}
    identity = combinatorics.Permutation(list(range(len(fx.images[0]))))
    for text in fx.relator_texts:
        acc = identity
        for token in text.split():
            name, _, exp = token.partition("^")
            # sympy composes left to right: (p * q)(x) = q(p(x)).
            acc = acc * letters[name] ** int(exp or 1)
        assert acc == identity, text
