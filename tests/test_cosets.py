"""Coset enumeration, Schreier realizations, quotient search, and the
witness report."""

import json
import random

import pytest
from conftest import ROUND_TRIP_FIXTURES
from oracles import (
    brute_hom_classes,
    brute_least_conjugate,
    find_on_read_todd_coxeter,
    rescanning_low_index,
    searched_witness_report,
)

from lml.cosets import (
    DEFAULT_MAX_NODES,
    CosetTable,
    IndexExceedsBound,
    _least_conjugates,
    _low_index,
    bs_quotients,
    default_witness,
    enumerate_homs,
    schreier_from_table,
    todd_coxeter,
    witness_report,
)
from lml.fixtures import cycle_graph
from lml.reconstruct import check_factors, present_on_S
from lml.words import (
    Presentation,
    ResourceLimitError,
    bs_presentation,
    bs_s10_setup,
    parse_word,
    word,
)

Z_PRES = Presentation(("x",), [])


def s3_presentation():
    alph = ("a", "b")
    return Presentation(
        alph, [parse_word(t, alph) for t in ("a^2", "b^3", "a b a b")]
    )


def zw(text):
    return parse_word(text, ("x",))


# ---------------------------------------------------------------------------
# todd_coxeter


def test_cyclic_quotient_table():
    table = todd_coxeter(Z_PRES, [zw("x^5")])
    assert table.cosets == 5
    assert table.forward == ((1, 2, 3, 4, 0),)
    assert table.backward == ((4, 0, 1, 2, 3),)
    assert table.permutation(zw("x^3"))[0] == 3
    assert table.permutation(zw("x^-2"))[0] == 3
    assert table.permutation(zw("x^7"))[2] == 4


def test_s3_subgroup_indices():
    pres = s3_presentation()
    assert todd_coxeter(pres, []).cosets == 6
    assert todd_coxeter(pres, [parse_word("a", pres.generators)]).cosets == 3
    assert todd_coxeter(pres, [parse_word("b", pres.generators)]).cosets == 2
    whole = todd_coxeter(
        pres, [parse_word(t, pres.generators) for t in ("a", "b")]
    )
    assert whole.cosets == 1
    assert whole.forward == ((0,), (0,))


def test_lattice_index_two(z2_setup):
    _, _, presentation = z2_setup
    alph = presentation.generators
    table = todd_coxeter(
        presentation, [parse_word("x", alph), parse_word("y^2", alph)]
    )
    assert table.cosets == 2
    assert table.permutation(parse_word("y", alph))[0] == 1
    assert table.permutation(parse_word("x", alph))[0] == 0


def test_fixture_presentations_have_the_right_order(group_fixture):
    table = todd_coxeter(group_fixture.presentation(), [])
    assert table.cosets == group_fixture.order


def test_infinite_index_hits_the_cap():
    free2 = Presentation(("a", "b"), [])
    with pytest.raises(IndexExceedsBound) as info:
        todd_coxeter(free2, [parse_word("a", ("a", "b"))], max_cosets=200)
    assert info.value.max_cosets == 200
    assert isinstance(info.value, ResourceLimitError)
    # The error says what was reached: every coset still live, none merged.
    assert (info.value.live, info.value.coincidences) == (200, 0)
    assert str(info.value) == (
        "enumeration did not close within 200 cosets; "
        "live cosets: 200, coincidences so far: 0"
    )
    # BS(1, 2) over the trivial subgroup merges cosets on the way.
    with pytest.raises(IndexExceedsBound) as info:
        todd_coxeter(bs_presentation(1, 2), [], max_cosets=200)
    assert (info.value.live, info.value.coincidences) == (193, 7)
    assert "live cosets: 193, coincidences so far: 7" in str(info.value)


def test_coincidence_heavy_table_matches_the_find_on_read_enumeration(
        z2_setup):
    # Z60 x Z60 on the trivial subgroup: HLT allocates 6,963 cosets, and
    # 3,363 of them die in coincidences.
    _, _, presentation = z2_setup
    alph = presentation.generators
    pres = Presentation(alph, list(presentation.relators)
                        + [parse_word(t, alph) for t in ("x^60", "y^60")])
    table = todd_coxeter(pres, [])
    assert table.cosets == 3600
    assert table == find_on_read_todd_coxeter(pres, [])


@pytest.mark.parametrize(
    "generators, relators, subgroup, index",
    (
        ("ab", ("b a^2", "a^5 b^2 a^-2 b^-1"), (), 1),
        ("abc", ("a^5", "c b^-2 c^2 a^3 c^-1 a", "a^-2 c a^2"), (), 10),
        ("ab", ("b^2 a", "a^5 b", "a^5 b^2 a^2"), ("b^-1 a^-1 b",), 1),
    ),
)
def test_coincidence_onto_an_inverse_entry_matches_the_oracles(
        generators, relators, subgroup, index):
    # Each reaches the coincidence branch the Z60 x Z60 table never does:
    # a dying coset's entry d, where the surviving coset has no entry of
    # that column but d already has the inverse entry.
    alph = tuple(generators)
    pres = Presentation(alph, [parse_word(t, alph) for t in relators])
    gens = [parse_word(t, alph) for t in subgroup]
    table = todd_coxeter(pres, gens)
    assert table.cosets == index
    assert table == find_on_read_todd_coxeter(pres, gens)
    fp_groups = pytest.importorskip("sympy.combinatorics.fp_groups")
    from sympy.combinatorics.free_groups import free_group

    free, *letters = free_group(", ".join(alph))

    def element(w):
        out = free.identity
        for g, e in w.letters:
            out *= letters[g] ** e
        return out

    group = fp_groups.FpGroup(free, [element(r) for r in pres.relators])
    cosets = fp_groups.coset_enumeration_r(group, [element(w) for w in gens])
    cosets.compress()
    assert len(cosets.table) == index


def test_todd_coxeter_is_deterministic():
    pres = s3_presentation()
    runs = [todd_coxeter(pres, [parse_word("a", pres.generators)]) for _ in range(2)]
    assert runs[0] == runs[1]


def test_todd_coxeter_rejects_foreign_letters():
    with pytest.raises(ValueError, match="outside"):
        todd_coxeter(Z_PRES, [word(((3, 1),))])


def test_coset_table_validation():
    with pytest.raises(ValueError, match="one column per generator"):
        CosetTable(("x",), 2, ((1, 0), (0, 1)))
    with pytest.raises(ValueError, match="not a permutation"):
        CosetTable(("x",), 2, ((0, 0),))
    doc = CosetTable(("x",), 2, ((1, 0),)).to_jsonable()
    assert doc["schema"] == 1 and doc["cosets"] == 2
    assert doc["columns"] == {"x": [1, 0], "x^-1": [1, 0]}


# ---------------------------------------------------------------------------
# Schreier realizations


def test_realization_of_cyclic_quotient(z_setup):
    _, genset = z_setup
    table = todd_coxeter(Z_PRES, [zw("x^5")])
    real = schreier_from_table(table, genset)
    assert real.action.sigma == ((1, 2, 3, 4, 0), (4, 0, 1, 2, 3))
    assert real.graph == cycle_graph(5)
    assert real.loops_dropped == 0 and real.parallels_dropped == 0
    doc = real.to_jsonable()
    assert doc["schema"] == 1
    assert doc["graph"]["vertex_count"] == 5
    assert doc["action"]["sigma"][0] == [1, 2, 3, 4, 0]


def test_realization_counts_parallels(z_setup):
    _, genset = z_setup
    real = schreier_from_table(todd_coxeter(Z_PRES, [zw("x^2")]), genset)
    assert real.graph.edges == ((0, 1),)
    assert real.parallels_dropped == 1
    assert real.loops_dropped == 0


def test_realization_counts_loops(z_setup):
    _, genset = z_setup
    real = schreier_from_table(todd_coxeter(Z_PRES, [zw("x")]), genset)
    assert real.graph.edges == ()
    assert real.loops_dropped == 1


def test_realization_of_regular_action_is_clean(group_fixture):
    table = todd_coxeter(group_fixture.presentation(), [])
    real = schreier_from_table(table, group_fixture.genset())
    assert real.graph.vertex_count == group_fixture.order
    assert real.loops_dropped == 0 and real.parallels_dropped == 0
    k = len(group_fixture.genset())
    assert all(
        real.graph.degree(v) == k for v in range(real.graph.vertex_count)
    )


@pytest.mark.parametrize(
    "name, subgroup, cosets, loops, parallels",
    (
        # S4's a is an involution: its column gives each edge from both ends.
        ("S4", "a", 12, 2, 2),
        ("S4", "b", 6, 2, 4),
        ("S4", "b^2", 12, 0, 2),
        ("F21", "a", 3, 3, 6),
        ("F21", "b", 7, 3, 8),
        ("F42", "a", 6, 6, 0),
        ("F42", "b a b", 14, 2, 5),
    ),
)
def test_realization_drop_counts_on_subgroup_tables(
    name, subgroup, cosets, loops, parallels
):
    (fx,) = [f for f in ROUND_TRIP_FIXTURES if f.name == name]
    pres = fx.presentation()
    table = todd_coxeter(pres, [parse_word(subgroup, pres.generators)])
    genset = fx.genset()
    real = schreier_from_table(table, genset)
    assert real.graph.vertex_count == cosets
    assert (real.loops_dropped, real.parallels_dropped) == (loops, parallels)
    # One letter of each inverse pair already gives every edge.
    paired = {
        (min(u, v), max(u, v))
        for i, col in enumerate(real.action.sigma)
        if i <= genset.inverse_pairing[i]
        for u, v in enumerate(col)
        if u != v
    }
    assert set(real.graph.edges) == paired


# ---------------------------------------------------------------------------
# quotient enumeration


@pytest.mark.parametrize(
    "presentation",
    (bs_presentation(2, 3), bs_presentation(9, 10), s3_presentation(), Z_PRES),
    ids=("bs23", "bs910", "s3", "z"),
)
@pytest.mark.parametrize("k", (1, 2, 3, 4, 5))
def test_enumerate_homs_matches_brute_force(presentation, k):
    got = enumerate_homs(presentation, k)
    relators = [r.letters for r in presentation.relators]
    want = brute_hom_classes(len(presentation.generators), relators, k)
    assert [h.forward for h in got] == want
    identity = tuple(range(k))
    for h in got:
        assert h.cosets == k
        for rel in presentation.relators:
            assert h.permutation(rel) == identity


@pytest.mark.parametrize("m, n", ((2, 3), (3, 4), (3, 5), (4, 5), (9, 10)))
def test_enumerate_homs_matches_sympy_low_index(m, n):
    fp_groups = pytest.importorskip("sympy.combinatorics.fp_groups")
    from sympy.combinatorics.free_groups import free_group

    free, a, b = free_group("a, b")
    group = fp_groups.FpGroup(free, [a * b**m * a**-1 * b**-n])
    want = [0] * 5
    # sympy lists one subgroup per conjugacy class, all indices <= 5.
    for table in fp_groups.low_index_subgroups(group, 5):
        want[len(table.table) - 1] += 1
    pres = bs_presentation(m, n)
    assert [len(enumerate_homs(pres, k)) for k in range(1, 6)] == want


def test_bs_quotients_realize_over_s10():
    engine, genset, presentation = bs_s10_setup(9, 10)
    relators, _ = present_on_S(presentation, genset, engine)
    for k in range(1, 7):
        for table in enumerate_homs(presentation, k):
            real = schreier_from_table(table, genset)
            assert real.action.vertex_count == k
            assert check_factors(
                real.action, relators, genset.inverse_pairing
            ) is True


def test_enumerate_homs_reaches_degree_eight():
    # sympy counts 6 / 8 / 9 classes of index <= 6 / 7 / 8 for BS(9, 10).
    pres = bs_presentation(9, 10)
    assert len(enumerate_homs(pres, 7)) == 2
    assert len(enumerate_homs(pres, 8)) == 1


def test_enumerate_homs_argument_checks():
    with pytest.raises(ValueError, match="degree"):
        enumerate_homs(s3_presentation(), 0)
    with pytest.raises(ResourceLimitError) as info:
        enumerate_homs(s3_presentation(), 4, max_nodes=3)
    message = str(info.value)
    assert "degree 4" in message
    assert "max_nodes=3 table entries" in message
    assert "classes so far: 0" in message
    with pytest.raises(ValueError, match="outside"):
        enumerate_homs(Presentation(("x",), [word(((1, 1),))]), 2)


def trivial_a_presentation(k):
    """<a, b | a, b^k>: each degree-k class has a trivial and b a k-cycle."""
    return Presentation(("a", "b"), [word(((0, 1),)), word(((1, k),))])


# With a trivial, the relabelling branches over every order of the points:
# the sum of k! / (k - d)! over d = 1..k branches.
@pytest.mark.parametrize("k, branches", ((3, 15), (4, 64), (5, 325), (6, 1956)))
def test_relabelling_cap_fails_exactly_below_the_branch_count(k, branches):
    pres = trivial_a_presentation(k)
    (h,) = enumerate_homs(pres, k, max_nodes=branches)
    assert h.forward == (tuple(range(k)), tuple(range(1, k)) + (0,))
    assert enumerate_homs(pres, k) == [h]
    with pytest.raises(ResourceLimitError) as info:
        enumerate_homs(pres, k, max_nodes=branches - 1)
    assert str(info.value) == (
        f"least-conjugate search at degree {k} reached "
        f"max_nodes={branches - 1} branches; classes done: 0 of 1"
    )


def test_relabelling_cap_counts_the_branches_of_every_class():
    # a is trivial, so each of the 26 classes at degree 4 takes 64 branches.
    pres = Presentation(("a", "b", "c"), [word(((0, 1),))])
    assert len(enumerate_homs(pres, 4, max_nodes=26 * 64)) == 26
    with pytest.raises(ResourceLimitError, match="classes done: 25 of 26$"):
        enumerate_homs(pres, 4, max_nodes=26 * 64 - 1)


# The coprime pairs of the witness-bs benchmark workload.
WITNESS_PAIRS = ((2, 3), (3, 4), (3, 5), (4, 5), (9, 10))


@pytest.mark.parametrize("m, n", WITNESS_PAIRS)
def test_one_search_finds_every_degree_and_the_least_conjugates(m, n):
    pres = bs_presentation(m, n)
    rng = random.Random(100 * m + n)
    found = _low_index(pres, 7, DEFAULT_MAX_NODES)
    for k, classes in enumerate(found, start=1):
        canonical = [h.forward for h in enumerate_homs(pres, k)]
        assert sorted(_least_conjugates(classes, k, DEFAULT_MAX_NODES)) == canonical
        for images in canonical:
            assert brute_least_conjugate(images, k) == images
            # Any relabelling of a class comes back to the same images.
            c = list(range(k))
            rng.shuffle(c)
            moved = tuple(tuple(c[p[c.index(x)]] for x in range(k))
                          for p in images)
            assert _least_conjugates([moved], k, DEFAULT_MAX_NODES) == [images]


@pytest.mark.parametrize("m, n", WITNESS_PAIRS)
def test_low_index_matches_the_rescanning_search(m, n):
    # Same classes in the same order, so the same depth-first tree.
    pres = bs_presentation(m, n)
    assert (_low_index(pres, 7, DEFAULT_MAX_NODES)
            == rescanning_low_index(pres, 7, DEFAULT_MAX_NODES))


# Table entries the search to degree k tries, found by bisecting max_nodes.
# A search to a lower degree tries a subset of them, so they rise with k.
NODES_BY_DEGREE = {
    (2, 3): (2, 10, 39, 115, 244, 496),
    (3, 4): (2, 10, 41, 144, 400, 1040),
    (3, 5): (2, 10, 41, 144, 437, 1364),
    (4, 5): (2, 10, 41, 156, 542, 1806),
    (9, 10): (2, 10, 41, 155, 577, 2580),
}


@pytest.mark.parametrize("m, n", sorted(NODES_BY_DEGREE))
def test_cap_fails_exactly_below_the_node_count(m, n):
    pres = bs_presentation(m, n)
    for k, nodes in enumerate(NODES_BY_DEGREE[(m, n)], start=1):
        assert len(enumerate_homs(pres, k, max_nodes=nodes)) >= 1
        with pytest.raises(ResourceLimitError):
            enumerate_homs(pres, k, max_nodes=nodes - 1)


# The same for the witness scan of BS(4, 6), which still searches, as
# gcd(4, 6) = 2 leaves no construction.
GCD_WITNESS_NODES = (2, 11, 49, 196, 727, 2669)


def test_searched_witness_cap_fails_exactly_below_the_node_count():
    # A witness scan to degree k passes exactly when every degree <= k
    # would pass alone, that is from the degree-k count on.
    for k, nodes in enumerate(GCD_WITNESS_NODES, start=1):
        assert witness_report(4, 6, k, gcd_witness=True,
                              max_nodes=nodes).all_trivial
        with pytest.raises(ResourceLimitError):
            witness_report(4, 6, k, gcd_witness=True, max_nodes=nodes - 1)


def test_cap_message_names_the_top_degree_and_counts_by_degree():
    with pytest.raises(ResourceLimitError) as info:
        witness_report(4, 6, 6, gcd_witness=True, max_nodes=2668)
    assert str(info.value) == (
        "low-index search to degree 6 reached max_nodes=2668 table entries; "
        "classes so far: 83 (by degree: 0, 2, 2, 9, 15, 55)"
    )


def test_coprime_witness_scan_builds_its_quotients_without_the_search():
    # The search to degree 7 tries 14,548 table entries; the construction
    # writes 2k per degree-k class: 2 + 4 + ... + 12 + 2 * 14 = 70.
    rep = witness_report(9, 10, 7, max_nodes=14_547)
    assert rep.per_degree == tuple((k, 1) for k in range(1, 7)) + ((7, 2),)
    assert rep.all_trivial
    assert witness_report(9, 10, 7, max_nodes=70) == rep
    with pytest.raises(ResourceLimitError) as info:
        witness_report(9, 10, 7, max_nodes=69)
    assert str(info.value) == (
        "BS(9, 10) quotient construction at degree 7 reached max_nodes=69 "
        "table entries; classes so far: 7"
    )


# The coprime pairs the construction is checked on at every degree <= 7.
CONSTRUCTED_PAIRS = (
    (1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 5), (2, 9),
    (3, 4), (3, 5), (3, 7), (4, 5), (5, 6), (5, 7), (7, 8), (9, 10),
)


@pytest.mark.parametrize("m, n", CONSTRUCTED_PAIRS)
def test_bs_quotients_relabel_onto_the_searched_classes(m, n):
    pres = bs_presentation(m, n)
    found = _low_index(pres, 7, DEFAULT_MAX_NODES)
    for k, classes in enumerate(found, start=1):
        built = bs_quotients(m, n, k)
        assert len(built) == len(classes)
        assert (sorted(_least_conjugates(built, k, DEFAULT_MAX_NODES))
                == sorted(_least_conjugates(classes, k, DEFAULT_MAX_NODES)))


def test_bs_quotients_argument_checks():
    with pytest.raises(ValueError, match="gcd"):
        bs_quotients(2, 4, 2)
    with pytest.raises(ValueError, match="degree"):
        bs_quotients(2, 3, 0)
    with pytest.raises(ValueError, match="positive"):
        bs_quotients(-3, 10, 2)


def test_bs_quotients_in_their_built_order():
    # BS(2, 3) at degree 5: b trivial with a a 5-cycle, then one 5-cycle
    # of b, with a acting by x -> 4x, u = 2 / 3 mod 5.
    assert bs_quotients(2, 3, 5) == [
        ((1, 2, 3, 4, 0), (0, 1, 2, 3, 4)),
        ((0, 4, 3, 2, 1), (1, 2, 3, 4, 0)),
    ]


@pytest.mark.parametrize("seed", range(8))
def test_witness_report_matches_the_searched_scan(seed):
    rng = random.Random(seed)
    for _ in range(5):
        m, n = rng.choice(CONSTRUCTED_PAIRS)
        witness = word(tuple((rng.randrange(2), rng.choice((-2, -1, 1, 2)))
                             for _ in range(rng.randint(1, 8))))
        k = rng.randint(0, 6)
        try:
            want = searched_witness_report(m, n, k, witness=witness)
        except ValueError:  # a trivial witness
            with pytest.raises(ValueError, match="trivial"):
                witness_report(m, n, k, witness=witness)
            continue
        got = witness_report(m, n, k, witness=witness)
        assert (json.dumps(got.to_jsonable(), sort_keys=True)
                == json.dumps(want.to_jsonable(), sort_keys=True))


def test_hom_payloads():
    (h,) = enumerate_homs(Z_PRES, 3)
    assert h.forward == ((1, 2, 0),)
    assert h.generator_names == ("x",)
    assert h.permutation(zw("x^3")) == (0, 1, 2)


# ---------------------------------------------------------------------------
# the witness and its report


def test_default_witness_is_the_twisted_commutator():
    assert default_witness(9, 10).letters == (
        (0, 1), (1, 1), (0, -1), (1, 1), (0, 1), (1, -1), (0, -1), (1, -1)
    )


def test_default_witness_gcd_handling():
    with pytest.raises(ValueError, match="gcd"):
        default_witness(4, 6)
    assert default_witness(4, 6, gcd_witness=True).letters == (
        (0, 1), (1, 2), (0, -1), (1, 2), (0, 1), (1, -2), (0, -1), (1, -2)
    )
    with pytest.raises(ValueError, match="pinches"):
        default_witness(2, 4, gcd_witness=True)


def test_witness_report_small_scan():
    rep = witness_report(2, 3, 3)
    assert (rep.m, rep.n) == (2, 3)
    assert rep.nontrivial
    assert rep.witness.render(("a", "b")) == "a b a^-1 b a b^-1 a^-1 b^-1"
    assert rep.britton_t0 == -6
    assert rep.britton_syllables == ((1, 1), (-1, 1), (1, 1), (-1, 2))
    assert rep.per_degree == ((1, 1), (2, 1), (3, 1))
    assert rep.homs_found == 3
    assert rep.distance == 6
    # Independent replay of the scan through the brute-force search.
    relators = [r.letters for r in bs_presentation(2, 3).relators]
    trivial = True
    for degree, expected in rep.per_degree:
        classes = brute_hom_classes(2, relators, degree)
        assert len(classes) == expected
        for images in classes:
            h = CosetTable(("a", "b"), degree, images)
            if h.permutation(rep.witness) != tuple(range(degree)):
                trivial = False
    assert rep.all_trivial == trivial is True


@pytest.mark.parametrize("m, n", WITNESS_PAIRS)
def test_witness_scan_counts_match_enumerate_homs(m, n):
    rep = witness_report(m, n, 6)
    pres = bs_presentation(m, n)
    assert rep.per_degree == tuple(
        (k, len(enumerate_homs(pres, k))) for k in range(1, 7)
    )
    assert rep.homs_found == sum(c for _, c in rep.per_degree)


def test_witness_report_rejects_trivial_witness():
    with pytest.raises(ValueError, match="trivial"):
        witness_report(2, 3, 2, witness=word(((1, 2), (1, -2))))


def test_witness_report_custom_witness():
    rep = witness_report(2, 3, 2, witness=word(((1, 1),)))
    assert rep.witness.letters == ((1, 1),)
    assert rep.distance == 1
    assert rep.britton_t0 == 1 and rep.britton_syllables == ()


def test_witness_report_jsonable_and_deterministic():
    blobs = [
        json.dumps(witness_report(2, 3, 3).to_jsonable(), sort_keys=True)
        for _ in range(2)
    ]
    assert blobs[0] == blobs[1]
    doc = json.loads(blobs[0])
    assert doc["schema"] == 1
    assert doc["witness"] == "a b a^-1 b a b^-1 a^-1 b^-1"
    assert doc["britton"]["ell"] == 4
    assert doc["quotient_scan"]["per_degree"] == [
        {"degree": 1, "classes": 1},
        {"degree": 2, "classes": 1},
        {"degree": 3, "classes": 1},
    ]
    assert doc["quotient_scan"]["all_trivial"] is True
    assert doc["distance"] == 6
