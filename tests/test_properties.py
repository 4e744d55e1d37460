"""Property tests (hypothesis) of the incremental Britton step, the
canonical relabelling of quotient images, and coset enumeration.

The pinch-rewriting oracle in tests/oracles.py shares no code with the
package, so u*s*label^-1 being trivial under it checks each step exactly.
The relabelling is checked against the k! loop it replaced, todd_coxeter's
index against sympy's coset enumeration, its whole table against the
list-of-lists enumeration it replaced, and the low-index search against
the one that rescanned every relator from every coset at every node.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    brute_least_conjugate,
    find_on_read_todd_coxeter,
    pinch_identity,
    rescanning_low_index,
)

from lml.cosets import (
    IndexExceedsBound,
    _least_conjugate,
    _low_index,
    todd_coxeter,
)
from lml.words import (
    BaumslagSolitarEngine,
    Presentation,
    ResourceLimitError,
    britton_normal_form,
    concat,
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
    t0, syllables = key = engine.step(engine.key(u), s)
    label = engine.label(key)
    assert pinch_identity(concat(concat(u, s), invert(label)).letters, m, n)
    for eps, t in syllables:
        assert 0 <= t < (m if eps == 1 else n)


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
    assert _least_conjugate(images, k) == brute_least_conjugate(images, k)


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
