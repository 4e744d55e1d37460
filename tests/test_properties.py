"""Property tests (hypothesis) of the incremental Britton step.

The pinch-rewriting oracle in tests/oracles.py shares no code with the
package, so u*s*label^-1 being trivial under it checks each step exactly.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import pinch_identity

from lml.words import (
    BaumslagSolitarEngine,
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
