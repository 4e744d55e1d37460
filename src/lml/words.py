"""Words over group presentations and the engines that normalize them.

A Word is a freely reduced sequence of letters (generator index, nonzero
exponent).  Engines give each supported group a canonical normal form per
element, which the rest of the package uses as the vertex identity in
Cayley-ball constructions: Free, FreeAbelian(d), BaumslagSolitar(m, n) via
Britton normal forms, and FinitePermutation for concrete finite groups.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, partial
from operator import add

DEFAULT_TABLE_CAP = 1_000_000  # FinitePermutationEngine's table, in group elements


class LmlError(Exception):
    """Base class for this package's errors."""


class ParseError(LmlError):
    """Malformed word / presentation text; carries a byte offset or line."""

    def __init__(self, message, offset=None, line=None):
        self.offset = offset
        self.line = line
        where = ""
        if line is not None:
            where = f" (line {line})"
        elif offset is not None:
            where = f" (offset {offset})"
        super().__init__(message + where)


class GenSetError(LmlError):
    """Generating-set validation failure; carries the offending index."""

    def __init__(self, message, index):
        self.index = index
        super().__init__(f"{message} (index {index})")


class ResourceLimitError(LmlError):
    """A stated resource cap was exceeded; results are never truncated."""


# ---------------------------------------------------------------------------
# words


@dataclass(frozen=True)
class Word:
    """Freely reduced word; letters are (generator index, exponent) pairs."""

    letters: tuple = ()

    def __len__(self):
        return len(self.letters)

    def render(self, alphabet):
        parts = []
        for g, e in self.letters:
            name = alphabet[g]
            parts.append(name if e == 1 else f"{name}^{e}")
        return " ".join(parts)


def free_reduce(pairs):
    """Merge adjacent same-generator letters and drop zero exponents."""
    out = []
    for g, e in pairs:
        if e == 0:
            continue
        if out and out[-1][0] == g:
            s = out[-1][1] + e
            if s == 0:
                out.pop()
            else:
                out[-1] = (g, s)
        else:
            out.append((g, e))
    return Word(tuple(out))


def word(pairs=()):
    """Build a freely reduced Word from (generator, exponent) pairs."""
    return free_reduce(tuple(pairs))


def concat(u, v):
    return free_reduce(u.letters + v.letters)


def invert(w):
    """Exact reversal with negated exponents (reduced words stay reduced)."""
    return Word(tuple((g, -e) for g, e in reversed(w.letters)))


_TOKEN = re.compile(r"\S+")
_EXP = re.compile(r"-?[0-9]+\Z")


def parse_word(text, alphabet):
    """Parse the `name` / `name^int` whitespace-separated word grammar."""
    index = {name: i for i, name in enumerate(alphabet)}
    pairs = []
    for tok in _TOKEN.finditer(text):
        piece = tok.group()
        name, sep, exp_text = piece.partition("^")
        if name not in index:
            raise ParseError(f"unknown generator {name!r}", offset=tok.start())
        if sep:
            if not _EXP.match(exp_text):
                raise ParseError(
                    f"malformed exponent {exp_text!r}", offset=tok.start()
                )
            exp = int(exp_text)
        else:
            exp = 1
        pairs.append((index[name], exp))
    return word(pairs)


# ---------------------------------------------------------------------------
# presentations and generating sets


@dataclass(frozen=True)
class Presentation:
    """Finite presentation: generator names plus relator words."""

    generators: tuple
    relators: tuple = ()

    def __post_init__(self):
        seen = set()
        for name in self.generators:
            if name in seen:
                raise ParseError(f"duplicate generator {name!r}")
            seen.add(name)


@dataclass(frozen=True)
class GenSet:
    """Validated generating set: words over the presentation alphabet.

    inverse_pairing[i] is the index of the inverse of words[i]; it must be
    an involution on indices.  Construct through validate_genset.
    """

    words: tuple
    inverse_pairing: tuple

    def __post_init__(self):
        pairing = self.inverse_pairing
        for i, j in enumerate(pairing):
            if j is None or pairing[j] != i:
                raise GenSetError("inverse not present in generating set", i)

    def __len__(self):
        return len(self.words)

    def render(self, alphabet):
        return [w.render(alphabet) for w in self.words]


def _distinct_keys(engine, ws):
    """{key: index} over S, once no word is the identity and no two agree."""
    identity, keys = engine.key(word()), []
    for i, w in enumerate(ws):
        keys.append(k := engine.key(w))
        if k == identity:
            raise GenSetError("identity element in generating set", i)
    seen = {}
    for i, k in enumerate(keys):
        if k in seen:
            raise GenSetError(
                f"duplicate of index {seen[k]} as a group element", i
            )
        seen[k] = i
    return seen


def validate_genset(engine, words_in):
    """Check inverse-closure, identity-freeness, and pairwise distinctness.

    Distinctness is as group elements (engine keys), not as spellings.
    """
    ws = tuple(words_in)
    seen = _distinct_keys(engine, ws)
    return GenSet(ws, tuple(seen.get(engine.key(invert(w))) for w in ws))


# ---------------------------------------------------------------------------
# Britton normal forms for BS(m, n) = < a, b | a b^m a^-1 = b^n >


@dataclass(frozen=True)
class BrittonForm:
    """Canonical form b^t0 a^eps_1 b^t1 ... a^eps_l b^tl.

    Orientation follows the relator a b^m a^-1 = b^n: a pinch a b^(km) a^-1
    rewrites to b^(kn) and a^-1 b^(kn) a rewrites to b^(km).  Carries are
    pushed leftward, so t_i lies in {0..m-1} after a^+1 and in {0..n-1}
    after a^-1, while t0 absorbs the carries and is unconstrained.  The
    identity is the empty form with t0 = 0.
    """

    m: int
    n: int
    t0: int
    syllables: tuple = ()  # ((eps, t), ...) with eps in {+1, -1}

    def is_identity(self):
        return not self.syllables and self.t0 == 0

    def to_word(self):
        pairs = [(1, self.t0)]
        for eps, t in self.syllables:
            pairs.append((0, eps))
            pairs.append((1, t))
        return word(pairs)


def _syllables(code, m, n):
    """The ((eps, t), ...) stack a packed BS(m, n) code stands for."""
    bits = (m + n).bit_length()
    text = f"{code:b}" if code else ""
    text = text.zfill(len(text) + -len(text) % bits)
    digits = (int(text[i:i + bits], 2) for i in range(0, len(text), bits))
    # From a list: tuple() of a generator starts at 10 slots and is resized,
    # so the freed result lands on a tuple free list nothing draws from.
    return tuple([(1, d - 1) if d <= m else (-1, d - 1 - m) for d in digits])


def britton_stepper(w, m, n):
    """key -> key times w on the (t0, code) keys of BS(m, n), built once.

    Letters 0 and 1 of w are a and b; any other is a ValueError.  code
    packs the syllable stack, the top syllable in the low bits and
    (m + n).bit_length() bits per syllable: digit 1 + t after a^+1 and
    1 + m + t after a^-1, so code 0 is the empty stack.  A letter changes
    only the top (Britton's lemma), so each b-letter and a^(+-1) is one
    rule: b^e adds e when nothing carries, and else pops digits while the
    carry runs, a carry past the bottom going into t0; a^(+-1) pinches
    the top digit of (-+1, 0) with a shift down or pushes its own with a
    shift up.  A word builds one b-rule per distinct exponent, a one-letter
    word's stepper is its rule, and a step costs O(stack depth).
    """
    bits = (m + n).bit_length()
    mask = (1 << bits) - 1

    def b_rule(e):
        fits = [  # a list, for the reason given in _syllables
            1 <= d <= m and 1 <= d + e <= m or m < d and m < d + e <= m + n
            for d in range(m + n + 1)
        ]

        def rule(key):
            t0, code = key
            if fits[code & mask]:
                return t0, code + e
            carry, low, shift = e, 0, 0
            while code:
                d = code & mask
                code >>= bits
                base, mod, other = (1, m, n) if d <= m else (1 + m, n, m)
                carry, r = divmod(d - base + carry, mod)
                low |= (base + r) << shift
                shift += bits
                if not carry:
                    break
                carry *= other
            else:
                t0 += carry
            return t0, code << shift | low

        return rule

    def a_rule(pinch, push):
        def rule(key):
            t0, code = key
            if code & mask == pinch:
                return t0, code >> bits
            return t0, code << bits | push

        return rule

    a_rules = {1: a_rule(1 + m, 1), -1: a_rule(1, 1 + m)}
    b_rules = {e: b_rule(e) for e in {e for g, e in w.letters if g == 1}}
    rules = []
    for g, e in w.letters:
        if g == 1:
            rules.append(b_rules[e])
        elif g == 0:
            rules.extend([a_rules[1 if e > 0 else -1]] * abs(e))
        else:
            raise ValueError(f"letter {g} outside the two-letter BS alphabet")
    if len(rules) == 1:
        return rules[0]

    def stepper(key):
        for rule in rules:
            key = rule(key)
        return key

    return stepper


def _check_bs(m, n):
    if m < 1 or n < 1:
        raise ValueError(f"BS parameters must be positive, got ({m}, {n})")


def britton_normal_form(w, m, n):
    """Britton-reduce and canonicalize a word over a = 0, b = 1 in BS(m, n):
    the packed key from the empty form, unpacked."""
    _check_bs(m, n)
    t0, code = britton_stepper(w, m, n)((0, 0))
    return BrittonForm(m, n, t0, _syllables(code, m, n))


# ---------------------------------------------------------------------------
# engines


class GroupEngine:
    """Canonical forms, identity tests, and products for one group.

    key(w) is a hashable token of w's element (two ints on BS(m, n)), label(key)
    its normal-form Word; stepper(w), built once per word and stateless, maps a
    key to its element times w, and neighbours(S), built once per search, maps it
    to [key * w for w in S] in order.  normal_form = label . key is idempotent
    and constant on group-equal words, so two words are equal iff their keys
    are, and is_identity compares with the empty word's key.  Engines are
    immutable; caching is invisible.
    """

    alphabet = ()
    kind = "abstract"

    def key(self, w):
        raise NotImplementedError

    def label(self, key):
        raise NotImplementedError

    def stepper(self, w):
        raise NotImplementedError

    def neighbours(self, words):
        steppers = [self.stepper(w) for w in words]
        return lambda key: [f(key) for f in steppers]

    def normal_form(self, w):
        return self.label(self.key(w))

    def is_identity(self, w):
        return self.key(w) == self.key(word())

    def multiply(self, u, v):
        return self.normal_form(concat(u, v))


class FreeEngine(GroupEngine):
    kind = "free"

    def __init__(self, alphabet):
        self.alphabet = tuple(alphabet)
        if not self.alphabet:
            raise ValueError("free engine needs at least one generator")

    def key(self, w):
        return free_reduce(w.letters).letters

    def label(self, key):
        return Word(key)

    def stepper(self, w):
        tail = self.key(w)
        return lambda key: free_reduce(key + tail).letters


class FreeAbelianEngine(GroupEngine):
    kind = "free_abelian"

    def __init__(self, alphabet):
        self.alphabet = tuple(alphabet)
        if not self.alphabet:
            raise ValueError("free abelian engine needs at least one generator")

    def key(self, w):
        out = [0] * len(self.alphabet)
        for g, e in w.letters:
            out[g] += e
        return tuple(out)

    def label(self, key):
        return word((g, e) for g, e in enumerate(key) if e != 0)

    def stepper(self, w):
        v = self.key(w)
        return lambda key: tuple(map(add, key, v))


class BaumslagSolitarEngine(GroupEngine):
    """BS(m, n) on the fixed two-letter alphabet (a, b).  Keys are packed
    (t0, code) pairs; label unpacks them to BrittonForms."""

    alphabet = ("a", "b")
    kind = "bs"

    def __init__(self, m, n):
        _check_bs(m, n)
        self.m = m
        self.n = n

    def key(self, w):
        return self.stepper(w)((0, 0))

    def label(self, key):
        syllables = _syllables(key[1], self.m, self.n)
        return BrittonForm(self.m, self.n, key[0], syllables).to_word()

    def stepper(self, w):
        return britton_stepper(w, self.m, self.n)

    def neighbours(self, words):
        # A word whose head (less its last unit letter) is in words steps by that
        # letter's rule from the head's slot, filled first; others from the key.
        n, plan = len(words), []
        at = {w.letters: i for i, w in enumerate(words)}
        size = [sum(abs(e) for _, e in w.letters) for w in words]
        for i in sorted(range(n), key=size.__getitem__):
            rule, j = words[i].letters, i
            for g, e in rule[-1:]:
                s = 1 if e > 0 else -1
                j = at.get(rule[:-1] + ((g, e - s),) * (e != s), i)
                rule = ((g, s),) if j != i else rule
            plan.append((i, j, self.stepper(Word(rule))))

        def step(key):
            out = [key] * n
            for i, j, f in plan:
                out[i] = f(out[j])
            return out

        return step


def _perm_compose(p, q):
    # apply p first, then q (left-to-right, matching word order)
    return tuple(map(q.__getitem__, p))


def _perm_inverse(p):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def _word_permutation(w, degree, images, inverses):
    """The permutation of {0..degree-1} that w acts by, letters left to right."""
    acc = tuple(range(degree))
    for g, e in w.letters:
        base = images[g] if e > 0 else inverses[g]
        for _ in range(abs(e)):
            acc = _perm_compose(acc, base)
    return acc


class FinitePermutationEngine(GroupEngine):
    """Concrete finite group given by permutation images of the generators.

    Words act on {0..degree-1} left-to-right, and a key is the permutation
    a word acts by.  label returns the shortlex-least word reaching that
    permutation, from a table built lazily by breadth-first search over the
    whole group; key and stepper never build it.
    """

    kind = "perm"

    def __init__(self, alphabet, images):
        self.alphabet = tuple(alphabet)
        self.images = tuple(tuple(p) for p in images)
        if len(self.images) != len(self.alphabet):
            raise ValueError("one permutation image per generator required")
        if not self.images:
            raise ValueError("permutation engine needs at least one generator")
        degree = len(self.images[0])
        for p in self.images:
            if sorted(p) != list(range(degree)):
                raise ValueError(f"not a permutation of degree {degree}: {p}")
        self.degree = degree
        self.identity = tuple(range(degree))
        self._inverses = tuple(_perm_inverse(p) for p in self.images)

    def permutation(self, w):
        return _word_permutation(w, self.degree, self.images, self._inverses)

    key = permutation

    def stepper(self, w):
        return partial(_perm_compose, q=self.permutation(w))

    @cached_property
    def _table(self):
        table = {self.identity: ()}
        queue = [self.identity]
        letters = [(g, e) for g in range(len(self.alphabet)) for e in (1, -1)]
        neighbours = self.neighbours([word((x,)) for x in letters])
        while queue:
            nxt = []
            for p in queue:
                base = table[p]
                for letter, q in zip(letters, neighbours(p)):
                    if q not in table:
                        if len(table) >= DEFAULT_TABLE_CAP:
                            raise ResourceLimitError(
                                f"group exceeds table cap {DEFAULT_TABLE_CAP}"
                            )
                        table[q] = base + (letter,)
                        nxt.append(q)
            queue = nxt
        return table

    def label(self, key):
        return word(self._table[key])

    def order(self):
        return len(self._table)


# ---------------------------------------------------------------------------
# presentation files


@dataclass(frozen=True)
class PresentationFile:
    """Parsed presentation file: presentation plus optional S words."""

    presentation: Presentation
    s_words: tuple = None


def parse_presentation(text):
    """Parse the `gens` / `rel` / `S` line format (# starts a comment)."""
    generators = None
    relators = []
    s_words = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        directive, _, rest = line.partition(" ")
        rest = rest.strip()
        if directive == "gens":
            if generators is not None:
                raise ParseError("repeated gens line", line=lineno)
            names = rest.split()
            if not names:
                raise ParseError("gens line lists no generators", line=lineno)
            for name in names:
                if "^" in name or "|" in name:
                    raise ParseError(
                        f"bad generator name {name!r}", line=lineno
                    )
            generators = tuple(names)
        elif directive == "rel":
            if generators is None:
                raise ParseError("rel before gens", line=lineno)
            try:
                relators.append(parse_word(rest, generators))
            except ParseError as err:
                raise ParseError(f"bad relator: {err}", line=lineno)
        elif directive == "S":
            if generators is None:
                raise ParseError("S before gens", line=lineno)
            if s_words is not None:
                raise ParseError("repeated S line", line=lineno)
            parts = rest.split("|")
            try:
                s_words = tuple(parse_word(p, generators) for p in parts)
            except ParseError as err:
                raise ParseError(f"bad S word: {err}", line=lineno)
        else:
            raise ParseError(f"unknown directive {directive!r}", line=lineno)
    if generators is None:
        raise ParseError("missing gens line")
    return PresentationFile(
        Presentation(generators, tuple(relators)), s_words
    )


# ---------------------------------------------------------------------------
# the 10-element generating set used by the BS witness experiments


S10_TEXTS = (
    "a", "b", "a^-1", "b^-1", "a^2", "a^-2", "a b", "b^-1 a^-1", "b^4", "b^-4",
)


def bs_presentation(m, n):
    """< a, b | a b^m a^-1 b^-n > as a Presentation, for m, n >= 1."""
    _check_bs(m, n)
    gens = ("a", "b")
    rel = word(((0, 1), (1, m), (0, -1), (1, -n)))
    return Presentation(gens, (rel,))


def bs_s10_setup(m=9, n=10):
    """Engine, validated 10-element S, and presentation for BS(m, n)."""
    engine = BaumslagSolitarEngine(m, n)
    ws = [parse_word(t, engine.alphabet) for t in S10_TEXTS]
    genset = validate_genset(engine, ws)
    return engine, genset, bs_presentation(m, n)
