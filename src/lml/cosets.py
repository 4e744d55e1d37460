"""Coset enumeration, finite quotient search, and the witness report.

todd_coxeter enumerates the cosets of a finitely generated subgroup of a
finitely presented group (HLT strategy: relator scans with gap filling,
coincidences resolved by union on least representatives), producing the
permutation action on the coset space.  schreier_from_table turns a
complete table into sigma maps plus a simple graph, counting the loops
and parallel edges it had to drop.  enumerate_homs (Sims' low-index
search) lists the transitive degree-k permutation quotients as coset
tables, one per conjugacy class of index-k subgroups.  witness_report
bundles evidence that the witness element of BS(m, n) is nontrivial yet
maps to the identity in every quotient of degree <= K, with d(e, witness).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import permutations

from .balls import DEFAULT_MAX_VERTICES, FiniteGraph, distance
from .reconstruct import SchreierGraph
from .words import (
    BaumslagSolitarEngine,
    FreeEngine,
    GenSet,
    ResourceLimitError,
    Word,
    _distinct_keys,
    _perm_compose,
    _perm_inverse,
    _word_permutation,
    bs_presentation,
    bs_s10_setup,
    invert,
    word,
)

DEFAULT_MAX_COSETS = 100_000
DEFAULT_MAX_NODES = 2_000_000


class IndexExceedsBound(ResourceLimitError):
    """Enumeration did not close within the coset cap (index may be infinite)."""

    def __init__(self, max_cosets):
        self.max_cosets = max_cosets
        super().__init__(
            f"enumeration did not close within {max_cosets} cosets"
        )


# ---------------------------------------------------------------------------
# coset tables


@dataclass(frozen=True)
class CosetTable:
    """Complete table of right cosets; coset 0 is the subgroup itself.

    forward[g] is the permutation u -> u*g and backward[g] its inverse.
    This is the package's one permutation action of a presentation's
    generators: a finite quotient from enumerate_homs is a table too.
    """

    generator_names: tuple
    cosets: int
    forward: tuple

    def __post_init__(self):
        if len(self.forward) != len(self.generator_names):
            raise ValueError("one column per generator required")
        for col in self.forward:
            if sorted(col) != list(range(self.cosets)):
                raise ValueError("coset table column is not a permutation")

    @cached_property
    def backward(self):
        return tuple(_perm_inverse(col) for col in self.forward)

    def permutation(self, w):
        """The permutation of the cosets that w acts by: u -> u*w."""
        return _word_permutation(w, self.cosets, self.forward, self.backward)

    def to_jsonable(self):
        cols = {}
        for g, name in enumerate(self.generator_names):
            cols[name] = list(self.forward[g])
            cols[name + "^-1"] = list(self.backward[g])
        return {
            "schema": 1,
            "cosets": self.cosets,
            "generators": list(self.generator_names),
            "columns": cols,
        }


def todd_coxeter(presentation, subgroup_gens, max_cosets=DEFAULT_MAX_COSETS):
    """Enumerate cosets of <subgroup_gens> in the presented group.

    HLT: subgroup generators are scanned from coset 0, then every relator
    is scanned from every live coset in numeric order, with remaining
    undefined entries filled by fresh definitions.  Deterministic; raises
    IndexExceedsBound once max_cosets cosets have been defined (dead ones
    included, so the cap is an allocation cap).
    """
    ngen = len(presentation.generators)
    ncols = 2 * ngen

    def cols_of(w):
        out = []
        for g, e in w.letters:
            if not 0 <= g < ngen:
                raise ValueError(f"letter {g} outside the presentation alphabet")
            out.extend([2 * g if e > 0 else 2 * g + 1] * abs(e))
        return out

    table = [[None] * ncols]
    parent = [0]

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def entry(u, c):
        v = table[u][c]
        return None if v is None else find(v)

    def define(u, c):
        if len(table) >= max_cosets:
            raise IndexExceedsBound(max_cosets)
        v = len(table)
        table.append([None] * ncols)
        parent.append(v)
        table[u][c] = v
        table[v][c ^ 1] = u
        return v

    def coincide(a, b):
        queue = [(a, b)]
        while queue:
            x, y = queue.pop()
            x, y = find(x), find(y)
            if x == y:
                continue
            if x > y:
                x, y = y, x
            parent[y] = x
            for c in range(ncols):
                d = table[y][c]
                if d is None:
                    continue
                d = find(d)
                e = table[x][c]
                if e is None:
                    table[x][c] = d
                    rev = table[d][c ^ 1]
                    if rev is None:
                        table[d][c ^ 1] = x
                    elif find(rev) != x:
                        queue.append((find(rev), x))
                else:
                    queue.append((find(e), d))

    def scan_and_fill(start, cols):
        while True:
            start = find(start)
            f, i = start, 0
            b, j = start, len(cols) - 1
            while i <= j and entry(f, cols[i]) is not None:
                f = entry(f, cols[i])
                i += 1
            if i > j:
                if f != b:
                    coincide(f, b)
                return
            while j >= i and entry(b, cols[j] ^ 1) is not None:
                b = entry(b, cols[j] ^ 1)
                j -= 1
            if j < i:
                if f != b:
                    coincide(f, b)
                return
            if j == i:
                # both sides stopped at the same undefined slot: deduction
                table[f][cols[i]] = b
                table[b][cols[i] ^ 1] = f
                return
            define(f, cols[i])

    for w in subgroup_gens:
        scan_and_fill(0, cols_of(w))
    i = 0
    while i < len(table):
        if find(i) == i:
            for rel in presentation.relators:
                if find(i) != i:
                    break
                scan_and_fill(i, cols_of(rel))
            if find(i) == i:
                for c in range(ncols):
                    if entry(i, c) is None:
                        define(i, c)
        i += 1

    live = [u for u in range(len(table)) if find(u) == u]
    renumber = {old: new for new, old in enumerate(live)}
    forward = []
    for g in range(ngen):
        col = []
        for old in live:
            v = entry(old, 2 * g)
            assert v is not None, "incomplete table survived the main loop"
            col.append(renumber[v])
        forward.append(tuple(col))
    for g in range(ngen):
        back = tuple(renumber[entry(old, 2 * g + 1)] for old in live)
        assert back == _perm_inverse(forward[g]), "inverse column mismatch"
    return CosetTable(
        generator_names=tuple(presentation.generators),
        cosets=len(live),
        forward=tuple(forward),
    )


# ---------------------------------------------------------------------------
# Schreier graphs out of tables


@dataclass(frozen=True)
class SchreierRealization:
    """Action plus its simple graph; drop counts record lost structure.

    A perfect local model can afford no drops: the modeled Cayley graph
    is simple and |S|-regular, so any loop or parallel collapse already
    disqualifies the graph.
    """

    action: SchreierGraph
    graph: FiniteGraph
    loops_dropped: int
    parallels_dropped: int

    def to_jsonable(self):
        return {
            "schema": 1,
            "action": self.action.to_jsonable(),
            "graph": {
                "vertex_count": self.graph.vertex_count,
                "edges": [list(e) for e in self.graph.edges],
            },
            "loops_dropped": self.loops_dropped,
            "parallels_dropped": self.parallels_dropped,
        }


def coset_genset(table, ws):
    """S for schreier_from_table, checked on spellings: an arbitrary
    presentation has no normal form, so collapses surface as drop counts.
    A letter whose inverse S does not spell pairs with the first letter
    acting by the inverse permutation (an involution with itself); GenSet
    refuses a pairing that is not an involution.
    """
    free = FreeEngine(table.generator_names)
    seen = _distinct_keys(free, ws)
    perms = [table.permutation(w) for w in ws]
    first = {p: k for k, p in reversed(list(enumerate(perms)))}
    return GenSet(tuple(ws), tuple(
        seen.get(free.key(invert(w)), first.get(_perm_inverse(p)))
        for w, p in zip(ws, perms)
    ))


def schreier_from_table(table, genset):
    """sigma maps over S read off the table; simple graph alongside.

    One candidate edge is counted per (vertex, letter) with the letter
    ranging over one representative of each inverse pair; loops and
    repeated pairs are dropped and counted.
    """
    n = table.cosets
    action = SchreierGraph(n, tuple(table.permutation(s) for s in genset.words))
    graph = action.underlying_graph()
    loops = candidates = 0
    for i, col in enumerate(action.sigma):
        j = genset.inverse_pairing[i]
        if i > j:
            continue
        fixed = sum(u == v for u, v in enumerate(col))
        loops += fixed
        # An involution's column gives each edge once from either end.
        candidates += n - fixed if i < j else (n - fixed) // 2
    return SchreierRealization(
        action=action,
        graph=graph,
        loops_dropped=loops,
        parallels_dropped=candidates - len(graph.edges),
    )


# ---------------------------------------------------------------------------
# finite quotients of a fixed degree


def _canonical_images(images, perms):
    best = None
    for c in perms:
        cinv = _perm_inverse(c)
        conj = tuple(
            _perm_compose(_perm_compose(cinv, p), c) for p in images
        )
        if best is None or conj < best:
            best = conj
    return best


def _deduce(table, n, ncols, relators):
    """Scan every relator from every coset until no gap is left to fill.

    False on a clash: a relator traced round to another coset, or a single
    gap whose far slot is taken.  Other single gaps are filled in place."""
    changed = True
    while changed:
        changed = False
        for start in range(n):
            for cols in relators:
                f, i, j = start, 0, len(cols) - 1
                while i <= j and table[f * ncols + cols[i]] >= 0:
                    f = table[f * ncols + cols[i]]
                    i += 1
                if i > j:
                    if f != start:
                        return False
                    continue
                b = start
                while j > i and table[b * ncols + (cols[j] ^ 1)] >= 0:
                    b = table[b * ncols + (cols[j] ^ 1)]
                    j -= 1
                if j == i:
                    c = cols[i]
                    if table[b * ncols + (c ^ 1)] >= 0:
                        return False
                    table[f * ncols + c] = b
                    table[b * ncols + (c ^ 1)] = f
                    changed = True
    return True


def _least_in_class(table, n, ncols):
    """False if another base point, renumbered by first occurrence, gives
    a row-major smaller table.  Entries are compared up to the first
    undefined one, so a False also rules out every completion."""
    for base in range(1, n):
        new, old = {base: 0}, [base]
        for pos, u in enumerate(table):
            if u < 0:
                break
            v = table[old[pos // ncols] * ncols + pos % ncols]
            if v < 0:
                break
            if v not in new:
                new[v] = len(old)
                old.append(v)
            if new[v] != u:
                if new[v] < u:
                    return False
                break
    return True


def enumerate_homs(presentation, k, max_nodes=DEFAULT_MAX_NODES):
    """All transitive degree-k permutation quotients, up to conjugacy.

    Sims' low-index search over partial coset tables on k points (column
    2g for generator g, 2g+1 for its inverse), with an explicit stack.
    Each node fills the first undefined entry with an existing coset or
    the next new one, then runs _deduce and _least_in_class, so each
    conjugacy class of index-k subgroups yields one table, transitive as
    it grows from coset 0.  max_nodes caps the table entries tried.
    Returns coset tables on the canonical (lex-least conjugate) images,
    sorted by those images.
    """
    if k < 1:
        raise ValueError("degree must be >= 1")
    ngen = len(presentation.generators)
    ncols = 2 * ngen
    relators = [
        [2 * g + 1 if e < 0 else 2 * g for g, e in rel.letters
         for _ in range(abs(e))]
        for rel in presentation.relators if rel.letters
    ]
    if any(not 0 <= c < ncols for cols in relators for c in cols):
        raise ValueError("relator letter outside the presentation alphabet")
    found = []
    nodes = 0
    stack = [([-1] * (k * ncols), 1, 0)]
    while stack:
        table, n, pos = stack.pop()
        while pos < n * ncols and table[pos] >= 0:
            pos += 1
        if pos == n * ncols:
            if n == k:
                found.append(table)
            continue
        c, x = divmod(pos, ncols)
        for d in range(min(n + 1, k)):
            if table[d * ncols + (x ^ 1)] >= 0:
                continue
            if nodes >= max_nodes:
                raise ResourceLimitError(
                    f"low-index search at degree {k} reached max_nodes="
                    f"{max_nodes} table entries; classes so far: {len(found)}"
                )
            nodes += 1
            child = table[:]
            child[pos] = d
            child[d * ncols + (x ^ 1)] = c
            m = max(n, d + 1)
            if (_deduce(child, m, ncols, relators)
                    and _least_in_class(child, m, ncols)):
                stack.append((child, m, pos + 1))
    classes = sorted(
        _canonical_images(
            tuple(tuple(t[2 * g::ncols]) for g in range(ngen)),
            permutations(range(k)),
        )
        for t in found
    )
    names = tuple(presentation.generators)
    return [CosetTable(names, k, imgs) for imgs in classes]


# ---------------------------------------------------------------------------
# the witness element and its quotient scan


@dataclass(frozen=True)
class WitnessReport:
    """Evidence that the witness survives no quotient of degree <= K."""

    m: int
    n: int
    witness: Word
    nontrivial: bool
    britton_t0: int
    britton_syllables: tuple
    max_degree: int
    homs_found: int
    per_degree: tuple
    all_trivial: bool
    distance: int

    def to_jsonable(self):
        return {
            "schema": 1,
            "m": self.m,
            "n": self.n,
            "witness": self.witness.render(("a", "b")),
            "nontrivial": self.nontrivial,
            "britton": {
                "t0": self.britton_t0,
                "syllables": [list(s) for s in self.britton_syllables],
                "ell": len(self.britton_syllables),
            },
            "quotient_scan": {
                "max_degree": self.max_degree,
                "homs_found": self.homs_found,
                "per_degree": [
                    {"degree": d, "classes": c} for d, c in self.per_degree
                ],
                "all_trivial": self.all_trivial,
            },
            "distance": self.distance,
        }


def default_witness(m, n, gcd_witness=False):
    """[a b^c a^-1, b^c] with c = 1 (needs gcd(m,n)=1) or c = gcd(m,n).

    The general form is only available behind gcd_witness=True and is
    rejected when gcd(m,n) equals m or n: one of the conjugations then
    pinches and the commutator collapses to the identity.
    """
    c = math.gcd(m, n)
    if not gcd_witness:
        if c != 1:
            raise ValueError(
                f"gcd({m},{n}) = {c} != 1; pass gcd_witness=True for the "
                "general witness"
            )
    elif c == m or c == n:
        raise ValueError(
            f"gcd({m},{n}) = {c} equals m or n, so the witness pinches to "
            "the identity"
        )
    if not gcd_witness:
        c = 1
    return word(
        ((0, 1), (1, c), (0, -1), (1, c), (0, 1), (1, -c), (0, -1), (1, -c))
    )


def witness_report(m, n, max_degree, genset=None, witness=None,
                   gcd_witness=False, max_nodes=DEFAULT_MAX_NODES,
                   max_explored=DEFAULT_MAX_VERTICES):
    """Nontriviality, the degree-<=K quotient scan, and d(e, witness).

    The witness must be nontrivial (checked via its canonical form before
    any scanning).  all_trivial records whether the witness image is the
    identity permutation under every hom of every degree 1..max_degree.
    """
    engine = BaumslagSolitarEngine(m, n)
    presentation = bs_presentation(m, n)
    if genset is None:
        _, genset, _ = bs_s10_setup(m, n)
    if witness is None:
        witness = default_witness(m, n, gcd_witness)
    nf = engine.britton(witness)
    if nf.is_identity():
        raise ValueError("witness is trivial; nothing to scan")
    per_degree = []
    total = 0
    all_trivial = True
    for degree in range(1, max_degree + 1):
        homs = enumerate_homs(presentation, degree, max_nodes)
        per_degree.append((degree, len(homs)))
        total += len(homs)
        identity = tuple(range(degree))
        for h in homs:
            if h.permutation(witness) != identity:
                all_trivial = False
    d = distance(engine, genset, witness, max_explored)
    return WitnessReport(
        m=m,
        n=n,
        witness=witness,
        nontrivial=True,
        britton_t0=nf.t0,
        britton_syllables=nf.syllables,
        max_degree=max_degree,
        homs_found=total,
        per_degree=tuple(per_degree),
        all_trivial=all_trivial,
        distance=d,
    )
