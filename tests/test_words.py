import random

import pytest

from lml.words import (
    BaumslagSolitarEngine,
    FinitePermutationEngine,
    FreeAbelianEngine,
    FreeEngine,
    GenSet,
    GenSetError,
    ParseError,
    Presentation,
    ResourceLimitError,
    S10_TEXTS,
    britton_normal_form,
    bs_presentation,
    bs_s10_setup,
    concat,
    free_reduce,
    invert,
    parse_presentation,
    parse_word,
    validate_genset,
    word,
)

from oracles import all_freely_reduced_words, pinch_identity

AB = ("a", "b")


def wd(text):
    return parse_word(text, AB)


def random_word(rng, max_len=12, gens=2):
    pairs = [
        (rng.randrange(gens), rng.choice([-2, -1, 1, 2]))
        for _ in range(rng.randrange(max_len + 1))
    ]
    return word(pairs)


# ---------------------------------------------------------------------------
# words, parsing, free reduction


def test_parse_render_round_trip():
    for text in ("a b^-1 a^2", "b^4", "", "a^-3 b a"):
        w = wd(text)
        assert wd(w.render(AB)) == w


def test_parse_word_examples():
    assert wd("a b^-1").letters == ((0, 1), (1, -1))
    assert wd("a a").letters == ((0, 2),)
    assert wd("a a^-1").letters == ()
    assert wd("b^0").letters == ()


def test_parse_word_errors_carry_offset():
    with pytest.raises(ParseError) as info:
        wd("a c")
    assert info.value.offset == 2
    with pytest.raises(ParseError):
        wd("a^x")
    with pytest.raises(ParseError):
        wd("a^")


def test_free_reduce_merges_interior_cancellation():
    w = free_reduce([(0, 1), (1, 2), (1, -2), (0, -1)])
    assert w.letters == ()
    w = free_reduce([(0, 1), (1, 2), (1, -1)])
    assert w.letters == ((0, 1), (1, 1))


def test_word_algebra_properties():
    rng = random.Random(1701)
    for _ in range(300):
        u = random_word(rng)
        v = random_word(rng)
        assert concat(u, invert(u)).letters == ()
        assert invert(invert(u)) == u
        assert invert(concat(u, v)) == concat(invert(v), invert(u))
        assert sum(abs(e) for _, e in u.letters) == sum(
            abs(e) for _, e in invert(u).letters
        )
    assert len(wd("a^3 b^-2")) == 2


# ---------------------------------------------------------------------------
# Britton normal forms


def test_britton_relator_is_identity():
    for m, n in ((2, 3), (9, 10), (1, 1), (1, 5)):
        rel = word(((0, 1), (1, m), (0, -1), (1, -n)))
        assert britton_normal_form(rel, m, n).is_identity()


def test_britton_pinch_orientation():
    # a b^m a^-1 collapses to b^n, so a b^m a^-1 b^-n is trivial while
    # a b^n a^-1 b^-m is not (for m != n)
    assert britton_normal_form(wd("a b^2 a^-1 b^-3"), 2, 3).is_identity()
    assert not britton_normal_form(wd("a b^3 a^-1 b^-2"), 2, 3).is_identity()
    assert britton_normal_form(wd("a^-1 b^3 a b^-2"), 2, 3).is_identity()


def test_britton_residue_ranges_and_no_pinch():
    rng = random.Random(93)
    for _ in range(500):
        w = random_word(rng, max_len=10)
        for m, n in ((2, 3), (9, 10), (3, 3)):
            f = britton_normal_form(w, m, n)
            for i, (eps, t) in enumerate(f.syllables):
                mod = m if eps == 1 else n
                assert 0 <= t < mod
                if i + 1 < len(f.syllables):
                    nxt_eps = f.syllables[i + 1][0]
                    if eps == 1 and nxt_eps == -1:
                        assert t != 0
                    if eps == -1 and nxt_eps == 1:
                        assert t != 0


def test_britton_to_word_is_fixed_point():
    rng = random.Random(94)
    for _ in range(200):
        w = random_word(rng, max_len=10)
        f = britton_normal_form(w, 2, 3)
        again = britton_normal_form(f.to_word(), 2, 3)
        assert again.t0 == f.t0 and again.syllables == f.syllables


def test_britton_matches_pinch_oracle_small():
    # the exhaustive length-8 sweep lives in the acceptance suite; here a
    # seeded sample over several (m, n) keeps the unit suite quick
    rng = random.Random(95)
    words = all_freely_reduced_words(6)
    sample = rng.sample(words, 400)
    for m, n in ((2, 3), (3, 2), (2, 2), (9, 10)):
        for letters in sample:
            got = britton_normal_form(word(letters), m, n).is_identity()
            want = pinch_identity(letters, m, n)
            assert got == want, (letters, m, n)


def test_britton_rejects_bad_input():
    with pytest.raises(ValueError):
        britton_normal_form(wd("a"), 0, 3)
    with pytest.raises(ValueError):
        britton_normal_form(word(((2, 1),)), 2, 3)


def test_witness_britton_form_for_9_10():
    # [a b a^-1, b] in BS(9, 10)
    g = wd("a b a^-1 b a b^-1 a^-1 b^-1")
    f = britton_normal_form(g, 9, 10)
    assert not f.is_identity()
    assert f.t0 == -20
    assert f.syllables == ((1, 1), (-1, 1), (1, 8), (-1, 9))


# ---------------------------------------------------------------------------
# engines


def test_free_engine_reduces_only():
    eng = FreeEngine(AB)
    assert eng.is_identity(wd("a b b^-1 a^-1"))
    assert not eng.is_identity(wd("a b a^-1 b^-1"))
    assert eng.key(wd("a b b")) == eng.key(wd("a b^2"))


def test_free_abelian_engine_sorts_exponents():
    eng = FreeAbelianEngine(AB)
    assert eng.key(wd("b a b")) == (1, 2)
    assert eng.key(wd("a b")) == eng.key(wd("b a"))
    assert eng.normal_form(wd("b a b^-1")).letters == ((0, 1),)


def test_bs_engine_agrees_with_normal_form():
    eng = BaumslagSolitarEngine(2, 3)
    u, v = wd("a b^2"), wd("a^-1 b")
    prod = eng.multiply(u, v)
    assert eng.key(prod) == eng.key(concat(u, v))
    assert eng.key(wd("a b^2 a^-1")) == eng.key(wd("b^3"))


def test_step_rejects_letters_outside_the_bs_alphabet():
    eng = BaumslagSolitarEngine(2, 3)
    with pytest.raises(ValueError):
        eng.stepper(word(((2, 1),)))(eng.key(wd("a b")))


def test_engine_step_is_the_product_on_keys():
    # label(stepper(s)(key(u))) must be the word-level product for every engine
    engines = (
        FreeEngine(AB),
        FreeAbelianEngine(AB),
        BaumslagSolitarEngine(2, 3),
        BaumslagSolitarEngine(9, 10),
        FinitePermutationEngine(AB, [(1, 0, 2, 3), (1, 2, 3, 0)]),
    )
    rng = random.Random(97)
    for eng in engines:
        for _ in range(200):
            u, s = random_word(rng), random_word(rng, max_len=3)
            k = eng.stepper(s)(eng.key(u))
            assert k == eng.key(concat(u, s))
            assert eng.label(k) == eng.multiply(u, s)


def test_neighbours_are_each_words_own_step():
    # neighbours(S) steps a word from its head's product when the head is in
    # S; in every engine that must be the word's own stepper on the key.
    engines = (
        FreeEngine(AB),
        FreeAbelianEngine(AB),
        BaumslagSolitarEngine(2, 3),
        BaumslagSolitarEngine(9, 10),
        FinitePermutationEngine(AB, [(1, 0, 2, 3), (1, 2, 3, 0)]),
    )
    rng = random.Random(98)
    for eng in engines:
        for _ in range(20):
            ws = [wd(t) for t in S10_TEXTS] + [random_word(rng, max_len=3) for _ in range(4)]
            rng.shuffle(ws)
            step = eng.neighbours(ws)
            for _ in range(10):
                key = eng.key(random_word(rng))
                assert step(key) == [eng.stepper(w)(key) for w in ws]


def test_bs_engine_rejects_bad_parameters():
    with pytest.raises(ValueError):
        BaumslagSolitarEngine(0, 3)


@pytest.mark.parametrize(
    "make, name",
    (
        (FreeEngine, "FreeEngine"),
        (FreeAbelianEngine, "FreeAbelianEngine"),
        (lambda names: FinitePermutationEngine(names, ()), "FinitePermutationEngine"),
    ),
    ids=("free", "free-abelian", "permutation"),
)
def test_engines_refuse_an_empty_alphabet(make, name):
    with pytest.raises(ValueError, match=f"^{name} needs at least one generator$"):
        make(())


def test_perm_engine_left_to_right_convention():
    # b = multiplication by 4 mod 7, a = +1: the word b a b^-1 must act as
    # a^2 (the inverse multiplier), pinning the composition order
    eng = FinitePermutationEngine(
        AB, [(1, 2, 3, 4, 5, 6, 0), (0, 4, 1, 5, 2, 6, 3)]
    )
    assert eng.key(wd("b a b^-1")) == eng.key(wd("a^2"))
    assert eng.order() == 21


def test_perm_engine_normal_form_is_geodesic():
    eng = FinitePermutationEngine(AB, [(1, 0, 2, 3), (1, 2, 3, 0)])
    assert eng.order() == 24
    rng = random.Random(96)
    for _ in range(100):
        w = random_word(rng, max_len=8)
        nf = eng.normal_form(w)
        assert eng.key(nf) == eng.key(w)
        assert sum(abs(e) for _, e in nf.letters) <= sum(
            abs(e) for _, e in w.letters
        )
        # idempotent
        assert eng.normal_form(nf) == nf


def test_perm_engine_validation_and_cap(monkeypatch):
    with pytest.raises(ValueError):
        FinitePermutationEngine(AB, [(1, 0, 2), (0, 1)])
    with pytest.raises(ValueError):
        FinitePermutationEngine(AB, [(1, 1, 0), (0, 1, 2)])
    monkeypatch.setattr("lml.words.DEFAULT_TABLE_CAP", 10)
    eng = FinitePermutationEngine(AB, [(1, 2, 3, 4, 5, 6, 0), (0, 4, 1, 5, 2, 6, 3)])
    with pytest.raises(ResourceLimitError, match="^group exceeds table cap 10$"):
        eng.order()


# ---------------------------------------------------------------------------
# generating sets


def test_validate_genset_builds_involution_pairing():
    eng = FreeEngine(AB)
    gs = validate_genset(eng, [wd("a"), wd("a^-1"), wd("b"), wd("b^-1")])
    assert gs.inverse_pairing == (1, 0, 3, 2)
    for i, j in enumerate(gs.inverse_pairing):
        assert gs.inverse_pairing[j] == i


def test_validate_genset_self_paired_involution():
    eng = FinitePermutationEngine(AB, [(1, 0, 2, 3), (1, 2, 3, 0)])
    gs = validate_genset(eng, [wd("a"), wd("b"), wd("b^-1")])
    assert gs.inverse_pairing == (0, 2, 1)


def test_validate_genset_errors():
    eng = FreeEngine(AB)
    with pytest.raises(GenSetError) as info:
        validate_genset(eng, [wd("a"), wd("a^-1"), wd("b b^-1")])
    assert info.value.index == 2
    with pytest.raises(GenSetError) as info:
        validate_genset(eng, [wd("a"), wd("a^-1"), wd("b")])
    assert info.value.index == 2 and "inverse not present" in str(info.value)
    eng2 = FreeAbelianEngine(AB)
    with pytest.raises(GenSetError):
        # a b and b a collide as abelian group elements
        validate_genset(
            eng2, [wd("a b"), wd("b a"), wd("b^-1 a^-1"), wd("a^-1 b^-1")]
        )


def test_validate_genset_keys_each_word_once(monkeypatch):
    # One key per word, the identity's, and one per inverse: 10 + 1 + 10.
    calls, key = [], BaumslagSolitarEngine.key

    def counted(self, w):
        calls.append(w)
        return key(self, w)

    monkeypatch.setattr(BaumslagSolitarEngine, "key", counted)
    engine = BaumslagSolitarEngine(9, 10)
    validate_genset(engine, [wd(t) for t in S10_TEXTS])
    assert len(calls) == 21


def test_genset_refuses_a_pairing_that_is_not_an_involution():
    ws = (wd("a^5"), wd("a"), wd("a^-1"))
    assert GenSet(ws, (0, 2, 1)).inverse_pairing == (0, 2, 1)
    for pairing, index in (((1, 2, 1), 0), ((0, 2, None), 1)):
        with pytest.raises(GenSetError) as info:
            GenSet(ws, pairing)
        assert info.value.index == index


def test_s10_preset_shape():
    engine, genset, presentation = bs_s10_setup()
    assert engine.m == 9 and engine.n == 10
    assert len(genset) == 10
    assert genset.render(AB) == list(S10_TEXTS)
    for i, j in enumerate(genset.inverse_pairing):
        assert engine.is_identity(concat(genset.words[i], genset.words[j]))
    assert presentation.relators == (wd("a b^9 a^-1 b^-10"),)


def test_bs_presentation_parameters():
    pres = bs_presentation(2, 3)
    assert pres.generators == AB
    assert pres.relators == (wd("a b^2 a^-1 b^-3"),)
    for m, n in ((-3, 10), (0, 1), (2, 0)):
        with pytest.raises(ValueError, match="BS parameters must be positive"):
            bs_presentation(m, n)


# ---------------------------------------------------------------------------
# presentation files


PRES_TEXT = """# frobenius group of order 21
gens a b
rel a^7
rel b^3
rel b a b^-1 a^-2
S a | a^-1 | b | b^-1
"""


def test_parse_presentation_round_trip():
    pf = parse_presentation(PRES_TEXT)
    assert pf.presentation.generators == AB
    assert len(pf.presentation.relators) == 3
    assert pf.presentation.relators == tuple(
        wd(t) for t in ("a^7", "b^3", "b a b^-1 a^-2")
    )
    assert pf.s_words == tuple(wd(t) for t in ("a", "a^-1", "b", "b^-1"))


def test_parse_presentation_errors_carry_line():
    with pytest.raises(ParseError) as info:
        parse_presentation("gens a b\nrel a^7\nrel c\n")
    assert info.value.line == 3
    with pytest.raises(ParseError):
        parse_presentation("rel a\ngens a\n")
    with pytest.raises(ParseError):
        parse_presentation("# empty\n")
    with pytest.raises(ParseError):
        parse_presentation("gens a a\n")
    with pytest.raises(ParseError):
        parse_presentation("gens a\nfoo bar\n")


def test_presentation_duplicate_generator():
    with pytest.raises(ParseError):
        Presentation(("a", "a"))
