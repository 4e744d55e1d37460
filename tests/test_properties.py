"""Property tests (hypothesis) of the incremental Britton step, the
engines' steppers, the canonical relabelling of quotient images, and
coset enumeration.

The pinch-rewriting oracle in tests/oracles.py shares no code with the
package, so u*s*label^-1 being trivial under it checks each step exactly.
The packed Britton keys are unpacked by the oracle's own reading of
their layout and checked against the one-loop step on lists, and the
permutation stepper against one composition, and the free and free
abelian steppers against the key of the concatenated word.
The relabelling is checked against the k! loop it replaced, todd_coxeter's
index against sympy's coset enumeration, its whole table against the
list-of-lists enumeration it replaced, the low-index search against
the one that rescanned every relator from every coset at every node,
and the built quotients of BS(m, n) with coprime m, n against the
classes the low-index search finds.
"""

import math

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    brute_least_conjugate,
    find_on_read_todd_coxeter,
    loop_britton_step,
    pinch_identity,
    rescanning_low_index,
    unpack_bs_key,
)

from lml.cosets import (
    DEFAULT_MAX_NODES,
    CosetTable,
    IndexExceedsBound,
    _least_conjugates,
    _low_index,
    bs_quotients,
    enumerate_homs,
    todd_coxeter,
)
from lml.words import (
    BaumslagSolitarEngine,
    FinitePermutationEngine,
    FreeAbelianEngine,
    FreeEngine,
    Presentation,
    ResourceLimitError,
    bs_presentation,
    britton_normal_form,
    concat,
    _perm_compose,
    invert,
    word,
)

PARAMS = ((1, 1), (1, 5), (4, 4), (2, 3), (9, 10))

letters = st.tuples(
    st.integers(0, 1), st.integers(-3, 3).filter(lambda e: e != 0)
)


def words(max_len):
    return st.lists(letters, max_size=max_len).map(word)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(PARAMS), words(30), words(4))
def test_step_is_the_product(params, u, s):
    m, n = params
    engine = BaumslagSolitarEngine(m, n)
    key = engine.stepper(s)(engine.key(u))
    label = engine.label(key)
    assert pinch_identity(concat(concat(u, s), invert(label)).letters, m, n)
    for eps, t in unpack_bs_key(key, m, n)[1]:
        assert 0 <= t < (m if eps == 1 else n)


# Exponents up to 7 against residues below 6, so a carry can cross
# several syllables and reach t0.
wide_words = st.lists(
    st.tuples(st.integers(0, 1), st.integers(-7, 7).filter(lambda e: e != 0)),
    max_size=8,
).map(word)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(-20, 20),
       wide_words, wide_words)
def test_stepper_matches_the_loop_step(m, n, t0, u, w):
    engine = BaumslagSolitarEngine(m, n)
    key = engine.key(word(((1, t0),) + u.letters))
    form = loop_britton_step((t0, ()), u, m, n)
    assert unpack_bs_key(key, m, n) == form
    want = loop_britton_step(form, w, m, n)
    assert unpack_bs_key(engine.stepper(w)(key), m, n) == want


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(-20, 20),
       st.lists(st.tuples(st.integers(0, 1), st.integers(-7, 7)),
                min_size=40, max_size=400).map(word))
def test_stepper_matches_the_loop_step_on_long_words(m, n, t0, w):
    # A long word applies each of its b-rules and both a-rules many times.
    engine = BaumslagSolitarEngine(m, n)
    key = engine.stepper(w)(engine.key(word(((1, t0),))))
    assert unpack_bs_key(key, m, n) == loop_britton_step((t0, ()), w, m, n)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), wide_words, wide_words,
       st.integers(2, 5))
def test_stepper_rejects_letters_outside_the_alphabet(m, n, u, v, g):
    engine = BaumslagSolitarEngine(m, n)
    bad = word(u.letters + ((g, 1),) + v.letters)
    with pytest.raises(ValueError):
        engine.stepper(bad)(engine.key(u))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(PARAMS), wide_words)
def test_label_round_trips_the_key(params, w):
    m, n = params
    engine = BaumslagSolitarEngine(m, n)
    key = engine.key(w)
    assert engine.key(engine.label(key)) == key
    assert engine.label(key) == britton_normal_form(w, m, n).to_word()


# a b^m = b^n a and a^-1 b^n = b^m a^-1: in each example the carry
# into t0 makes two spellings one key, at m = 1 and at m = n too.
@settings(max_examples=200, deadline=None)
@given(st.sampled_from(PARAMS), st.lists(wide_words, min_size=2, max_size=12))
@example((2, 3), [word(((0, 1), (1, 2))), word(((1, 3), (0, 1)))])
@example((1, 5), [word(((0, 1), (1, 1))), word(((1, 5), (0, 1)))])
@example((4, 4), [word(((0, -1), (1, 9))), word(((1, 8), (0, -1), (1, 1)))])
def test_keys_are_distinct_exactly_when_the_forms_are(params, ws):
    m, n = params
    engine = BaumslagSolitarEngine(m, n)
    keys = [engine.key(w) for w in ws]
    forms = [loop_britton_step((0, ()), w, m, n) for w in ws]
    assert [unpack_bs_key(k, m, n) for k in keys] == forms
    assert len(set(keys)) == len(set(forms))


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(1, 7), wide_words, wide_words)
def test_permutation_stepper_is_one_composition(data, k, u, w):
    images = [data.draw(st.permutations(range(k))) for _ in range(2)]
    engine = FinitePermutationEngine(("a", "b"), images)
    key = engine.key(u)
    want = _perm_compose(key, engine.permutation(w))
    assert engine.stepper(w)(key) == want


# Three generators, so a junction can cancel through one letter and stop
# at a letter of another generator.
xyz_words = st.lists(
    st.tuples(st.integers(0, 2), st.integers(-3, 3).filter(lambda e: e != 0)),
    max_size=8,
).map(word)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((FreeEngine, FreeAbelianEngine)), xyz_words, xyz_words)
@example(FreeEngine, word(((0, 1), (1, 2))), word(((1, -2), (0, -1))))
@example(FreeEngine, word(((0, 1), (1, 2))), word(((1, -2), (0, 2), (2, 1))))
@example(FreeEngine, word(((2, 1), (1, 2))), word(((1, -1), (0, 1))))
def test_free_steppers_are_the_product(engine_type, u, w):
    engine = engine_type(("x", "y", "z"))
    want = engine.key(concat(u, w))
    assert engine.stepper(w)(engine.key(u)) == want


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(PARAMS), words(30))
def test_britton_normal_form_is_idempotent(params, w):
    m, n = params
    form = britton_normal_form(w, m, n)
    assert britton_normal_form(form.to_word(), m, n) == form


@st.composite
def permutation_tuples(draw):
    """(k, images): up to three permutations of 0..k-1, some of them the
    identity, and all of them kept within two blocks when the tuple is to
    be intransitive, before one common relabelling."""
    k = draw(st.integers(1, 7))
    cut = draw(st.integers(1, k)) if draw(st.booleans()) else k
    images = []
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            images.append(tuple(range(k)))
        else:
            images.append(tuple(draw(st.permutations(range(cut))))
                          + tuple(draw(st.permutations(range(cut, k)))))
    c = draw(st.permutations(range(k)))
    return k, tuple(
        tuple(c[p[c.index(x)]] for x in range(k)) for p in images
    )


@settings(max_examples=300, deadline=None)
@given(permutation_tuples())
def test_least_conjugate_matches_the_relabelling_loop(case):
    k, images = case
    assert (_least_conjugates([images], k, DEFAULT_MAX_NODES)
            == [brute_least_conjugate(images, k)])


# Finite groups <x, y | x^a, y^b, (xy)^c> with 1/a + 1/b + 1/c > 1: the
# dihedral ones and the tetrahedral, octahedral and icosahedral groups.
SPHERICAL = ((2, 2, 2), (2, 2, 3), (2, 2, 5), (2, 3, 3), (2, 3, 4), (2, 3, 5))

small_words = st.lists(
    st.tuples(st.integers(0, 1), st.integers(-3, 3).filter(lambda e: e != 0)),
    max_size=5,
).map(word)


def test_todd_coxeter_index_matches_sympy():
    fp_groups = pytest.importorskip("sympy.combinatorics.fp_groups")
    from sympy.combinatorics.free_groups import free_group

    free, x, y = free_group("x, y")

    def to_sympy(w):
        out = free.identity
        for g, e in w.letters:
            out *= (x, y)[g] ** e
        return out

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(SPHERICAL), st.lists(small_words, max_size=1),
           st.lists(small_words, max_size=2))
    def check(orders, extra, subgroup):
        a, b, c = orders
        relators = [word(((0, a),)), word(((1, b),)),
                    word(((0, 1), (1, 1)) * c)] + extra
        table = todd_coxeter(Presentation(("x", "y"), relators), subgroup)
        group = fp_groups.FpGroup(free, [to_sympy(r) for r in relators])
        cosets = fp_groups.coset_enumeration_r(
            group, [to_sympy(w) for w in subgroup]
        )
        cosets.compress()
        assert table.cosets == len(cosets.table)

    check()


@st.composite
def presentations(draw):
    """(presentation, subgroup words, cap): 1-3 generators, 1-4 relators
    and 0-2 subgroup words of up to 6 letters, and a cap of 50-5,000."""
    ngen = draw(st.integers(1, 3))
    names = ("x", "y", "z")[:ngen]
    words_here = st.lists(
        st.tuples(st.integers(0, ngen - 1),
                  st.integers(-3, 3).filter(lambda e: e != 0)),
        min_size=1, max_size=6,
    ).map(word)
    relators = draw(st.lists(words_here, min_size=1, max_size=4))
    subgroup = draw(st.lists(words_here, max_size=2))
    cap = draw(st.integers(50, 5000))
    return Presentation(names, relators), subgroup, cap


def enumeration(enumerate_cosets, presentation, subgroup, cap):
    try:
        return enumerate_cosets(presentation, subgroup, cap)
    except IndexExceedsBound as err:
        return ("IndexExceedsBound", err.max_cosets)


@settings(max_examples=200, deadline=None)
@given(presentations())
def test_todd_coxeter_matches_the_find_on_read_enumeration(case):
    assert (enumeration(todd_coxeter, *case)
            == enumeration(find_on_read_todd_coxeter, *case))


@st.composite
def low_index_cases(draw):
    """(presentation, degree, cap): 1-3 generators, 1-3 relators of up to
    8 letters (some reduce to length 0 or 1), degree 1-5 and a cap of
    1-2,000 table entries."""
    ngen = draw(st.integers(1, 3))
    letter = st.tuples(st.integers(0, ngen - 1), st.sampled_from((-1, 1)))
    relators = draw(st.lists(
        st.lists(letter, min_size=1, max_size=8).map(word),
        min_size=1, max_size=3,
    ))
    names = ("x", "y", "z")[:ngen]
    return (Presentation(names, relators), draw(st.integers(1, 5)),
            draw(st.integers(1, 2000)))


def quotient_search(search, presentation, degree, cap):
    try:
        return search(presentation, degree, cap)
    except ResourceLimitError as err:
        return str(err)


@settings(max_examples=300, deadline=None)
@given(low_index_cases())
def test_low_index_matches_the_rescanning_search(case):
    # Equal found lists in the same order, or the same cap message, whose
    # counts so far depend on the depth-first order.
    assert (quotient_search(_low_index, *case)
            == quotient_search(rescanning_low_index, *case))


coprime_pairs = st.tuples(st.integers(1, 12), st.integers(1, 12)).filter(
    lambda pair: math.gcd(*pair) == 1
)


@settings(max_examples=100, deadline=None)
@given(coprime_pairs, st.integers(1, 6))
def test_bs_quotients_are_the_classes_the_search_finds(pair, k):
    m, n = pair
    pres = bs_presentation(m, n)
    built = bs_quotients(m, n, k)
    for images in built:
        table = CosetTable(pres.generators, k, images)
        assert table.permutation(pres.relators[0]) == tuple(range(k))
        reached = {0}
        for _ in range(k):
            reached |= {p[x] for p in images for x in reached}
        assert reached == set(range(k))
    assert sorted(_least_conjugates(built, k, DEFAULT_MAX_NODES)) == [
        h.forward for h in enumerate_homs(pres, k)
    ]
