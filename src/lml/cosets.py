"""Coset enumeration, finite quotient search, and the witness report.

todd_coxeter enumerates the cosets of a finitely generated subgroup of a
finitely presented group (HLT strategy: relator scans with gap filling,
coincidences merged into least representatives), producing the
permutation action on the coset space.  It and the low-index search keep
one table format, a flat list with row u at u * ncols and -1 undefined,
and trace relators with one resumable _scan; on a clash Todd-Coxeter
merges the two cosets and the low-index search rejects the branch.
schreier_from_table turns a complete table into sigma maps plus a simple
graph, counting the loops and parallel edges it had to drop.
enumerate_homs (Sims' low-index search, whose nodes only add entries, so
each resumes its parent's stopped scans) lists the transitive degree-k
permutation quotients as coset tables, one per conjugacy class of
index-k subgroups; bs_quotients builds them for BS(m, n) with coprime
m, n.  witness_report bundles evidence that the witness element of
BS(m, n) is nontrivial yet maps to the identity in every quotient of
degree <= K (built, or found by one search to degree K), with
d(e, witness).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .balls import DEFAULT_MAX_VERTICES, FiniteGraph, distance
from .words import (
    FreeEngine,
    GenSet,
    ResourceLimitError,
    Word,
    _check_bs,
    _distinct_keys,
    _perm_inverse,
    _word_permutation,
    britton_normal_form,
    bs_s10_setup,
    invert,
    word,
)

DEFAULT_MAX_COSETS = 100_000
DEFAULT_MAX_NODES = 2_000_000


class IndexExceedsBound(ResourceLimitError):
    """Enumeration did not close within the coset cap (index may be
    infinite); live and coincidences, if given, say what was reached."""

    def __init__(self, max_cosets, live=None, coincidences=None):
        self.max_cosets = max_cosets
        self.live, self.coincidences = live, coincidences
        reached = f"; live cosets: {live}, coincidences so far: {coincidences}"
        super().__init__(f"enumeration did not close within {max_cosets} "
                         f"cosets{'' if live is None else reached}")


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
        return tuple([_perm_inverse(col) for col in self.forward])

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


def _columns(w, ngen):
    """w's letters as table columns: 2g for generator g, 2g+1 for g^-1."""
    out = []
    for g, e in w.letters:
        if not 0 <= g < ngen:
            raise ValueError(f"letter {g} outside the presentation alphabet")
        out.extend([2 * g + (e < 0)] * abs(e))
    return out


def _scan(table, ncols, cols, f, i, b, j):
    """Trace the word cols from a coset start through a flat coset table,
    row u at u * ncols and -1 undefined: forward while defined, then
    backward.  A trace starts at (start, 0, start, len(cols) - 1), or
    resumes from a state it returned if no cosets merged since.

    Returns (f, i, b, j): start * cols[:i] = f, b * cols[j+1:] = start.
    j < i: the word closed, a clash if f != b.  j == i: one gap, which
    is filled, f * cols[i] = b.  j > i: more gaps; the trace stopped at
    slots f * cols[i] and b * cols[j]^-1."""
    while i <= j and (x := table[f * ncols + cols[i]]) >= 0:
        f = x
        i += 1
    while j >= i and (x := table[b * ncols + (cols[j] ^ 1)]) >= 0:
        b = x
        j -= 1
    if j == i:
        table[f * ncols + cols[i]] = b
        table[b * ncols + (cols[i] ^ 1)] = f
    return f, i, b, j


def todd_coxeter(presentation, subgroup_gens, max_cosets=DEFAULT_MAX_COSETS):
    """Enumerate cosets of <subgroup_gens> in the presented group.

    HLT: subgroup generators are scanned from coset 0, then every relator
    is scanned from every live coset in numeric order, with remaining
    undefined entries filled by fresh definitions.  On _scan's table, a
    clash is a coincidence: the larger coset dies into the smaller, its
    row's entries move to the survivor and the back pointers into it are
    undefined (Handbook of Computational Group Theory, 5.1.3), so live
    rows point only at live rows.  Deterministic; raises IndexExceedsBound,
    with the live cosets and the coincidences so far, once max_cosets
    cosets have been defined (dead ones included, so the cap is an
    allocation cap).
    """
    ngen = len(presentation.generators)
    ncols = 2 * ngen
    relators = [_columns(rel, ngen) for rel in presentation.relators]

    table = [-1] * ncols
    parent = [0]

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def define(u, c):
        if len(parent) >= max_cosets:
            live = sum(p == x for x, p in enumerate(parent))
            raise IndexExceedsBound(max_cosets, live, len(parent) - live)
        v = len(parent)
        table.extend([-1] * ncols)
        parent.append(v)
        table[u * ncols + c] = v
        table[v * ncols + (c ^ 1)] = u

    def coincide(a, b):
        pairs = [(a, b)]
        while pairs:
            x, y = sorted(map(find, pairs.pop()))
            if x == y:
                continue
            parent[y] = x
            for c in range(ncols):
                d = table[y * ncols + c]
                if d < 0:
                    continue
                table[d * ncols + (c ^ 1)] = -1
                d = find(d)
                if (e := table[x * ncols + c]) >= 0:
                    pairs.append((d, e))
                elif (e := table[d * ncols + (c ^ 1)]) >= 0:
                    pairs.append((x, e))
                else:
                    table[x * ncols + c] = d
                    table[d * ncols + (c ^ 1)] = x

    def scan_and_fill(start, cols):
        f, i, b, j = _scan(table, ncols, cols, start, 0, start, len(cols) - 1)
        while j > i:
            define(f, cols[i])  # merges nothing, so the scan resumes
            f, i, b, j = _scan(table, ncols, cols, f, i, b, j)
        if j < i and f != b:
            coincide(f, b)

    for w in subgroup_gens:
        scan_and_fill(0, _columns(w, ngen))
    u = 0
    while u < len(parent):
        for cols in relators:
            if parent[u] != u:
                break
            scan_and_fill(u, cols)
        if parent[u] == u:
            for c in range(ncols):
                if table[u * ncols + c] < 0:
                    define(u, c)
        u += 1

    live = [u for u in range(len(parent)) if parent[u] == u]
    renumber = {old: new for new, old in enumerate(live)}
    forward = tuple([tuple([renumber[table[u * ncols + 2 * g]] for u in live])
                     for g in range(ngen)])
    for g, col in enumerate(forward):
        back = tuple([renumber[table[u * ncols + 2 * g + 1]] for u in live])
        assert back == _perm_inverse(col), "inverse column mismatch"
    return CosetTable(tuple(presentation.generators), len(live), forward)


# ---------------------------------------------------------------------------
# Schreier graphs out of tables


@dataclass(frozen=True)
class SchreierGraph:
    """A right action on vertices: sigma[i][v] is v moved by S-letter i."""

    vertex_count: int
    sigma: tuple

    def underlying_graph(self):
        """The simple graph of the action (loops and multiplicity dropped)."""
        edges = set()
        for col in self.sigma:
            for v, w in enumerate(col):
                if v != w:
                    edges.add((v, w) if v < w else (w, v))
        return FiniteGraph(self.vertex_count, tuple(edges))

    def to_jsonable(self):
        return {
            "vertex_count": self.vertex_count,
            "sigma": [list(col) for col in self.sigma],
        }


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
    action = SchreierGraph(n, tuple([table.permutation(s) for s in genset.words]))
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


def _least_conjugates(classes, k, max_nodes):
    """The lex-least relabelling of each tuple of permutations of 0..k-1.

    Entries are filled in generator-major order, the order conjugates
    compare in: entry (g, y) is the label of images[g][point[y]].  A new
    image takes the least unused label, which is forced, so the search
    branches only where label y has no point yet, over every unlabelled
    point.  A branch is cut once it exceeds the best complete relabelling.
    Past max_nodes branches over all classes (one class takes about
    e * k! when its images hold k equal cycles) it raises
    ResourceLimitError.
    """
    nodes = 0
    found = []
    for i, images in enumerate(classes):
        total = len(images) * k
        best = [k] * total  # above every relabelling
        stack = [([], [])]
        while stack:
            point, out = stack.pop()
            head = best[:len(out)]
            if out > head:
                continue
            tied = out == head
            label = {x: y for y, x in enumerate(point)}
            while len(out) < total:
                g, y = divmod(len(out), k)
                if y == len(point):
                    nodes += k - y
                    if nodes > max_nodes:
                        raise ResourceLimitError(
                            f"least-conjugate search at degree {k} reached "
                            f"max_nodes={max_nodes} branches; classes done: "
                            f"{i} of {len(classes)}"
                        )
                    stack.extend((point + [x], out[:])
                                 for x in range(k - 1, -1, -1) if x not in label)
                    break
                u = images[g][point[y]]
                v = label.setdefault(u, len(point))
                if v == len(point):
                    point.append(u)
                if tied and v != best[len(out)]:
                    if v > best[len(out)]:
                        break
                    tied = False
                out.append(v)
            else:
                best = out
        found.append(tuple([tuple(best[j:j + k]) for j in range(0, total, k)]))
    return found


def _deduce(table, ncols, scans):
    """Resume the open relator scans (cols, f, i, b, j) that new entries
    moved, until none moves; the scans still open, or None on a clash (a
    relator traced round to another coset).  As entries are only added,
    a scan whose stop slots are both undefined would stop there again;
    j <= i is a short relator's unrun scan."""
    moved = True
    while moved:
        moved, still = False, []
        for cols, f, i, b, j in scans:
            if (j <= i or table[f * ncols + cols[i]] >= 0
                    or table[b * ncols + (cols[j] ^ 1)] >= 0):
                f, i, b, j = _scan(table, ncols, cols, f, i, b, j)
            if j > i:
                still.append((cols, f, i, b, j))
            elif j == i:
                moved = True  # _scan filled the gap
            elif f != b:
                return None
        scans = still
    return scans


def _least_in_class(table, ncols, tied):
    """The base points of tied whose table, renumbered by first
    occurrence, ties with table row-major up to the first undefined
    entry; None if one is smaller there, and so in every completion.  A
    base larger at a defined entry stays larger, so it is dropped."""
    still = []
    for base in tied:
        old = [base]
        for pos, u in enumerate(table):
            if u < 0 or (v := table[old[pos // ncols] * ncols
                                    + pos % ncols]) < 0:
                still.append(base)
                break
            if v not in old:
                old.append(v)
            if (w := old.index(v)) != u:
                if w < u:
                    return None
                break
    return still


def _low_index(presentation, max_degree, max_nodes):
    """Per degree 1..max_degree, the generator images of one transitive
    quotient per conjugacy class, in one search.

    Sims' low-index search over partial coset tables in _scan's format,
    with a stack of (table, cosets, position, open scans, tied bases).
    Each node fills the first undefined entry with an existing coset or
    the next new one, which opens its scans and joins the bases; _deduce
    and _least_in_class then redo only what the new entries can change.
    A table complete on n cosets is a leaf and a degree-n class.  A
    search to a lower degree tries a subset of these nodes, so max_nodes
    (table entries tried) is hit exactly when some such search would."""
    ngen = len(presentation.generators)
    ncols = 2 * ngen
    relators = [_columns(rel, ngen) for rel in presentation.relators]

    def opening(u):  # every relator's scan from a new coset u, not yet run
        return [(cols, u, 0, u, len(cols) - 1) for cols in relators]

    found = [[] for _ in range(max_degree)]
    nodes = 0
    stack = ([([-1] * (max_degree * ncols), 1, 0, opening(0), [])]
             if max_degree else [])
    while stack:
        table, n, pos, scans, tied = stack.pop()
        while pos < n * ncols and table[pos] >= 0:
            pos += 1
        if pos == n * ncols:
            found[n - 1].append(
                tuple([tuple(table[2 * g:pos:ncols]) for g in range(ngen)]))
            continue
        c, x = divmod(pos, ncols)
        for d in range(min(n + 1, max_degree)):
            if table[d * ncols + (x ^ 1)] >= 0:
                continue
            if nodes >= max_nodes:
                counts = [len(f) for f in found]
                raise ResourceLimitError(
                    f"low-index search to degree {max_degree} reached "
                    f"max_nodes={max_nodes} table entries; classes so far: "
                    f"{sum(counts)} (by degree: {str(counts)[1:-1]})"
                )
            nodes += 1
            child = table[:]
            child[pos] = d
            child[d * ncols + (x ^ 1)] = c
            opened, bases = scans, tied
            if d == n:  # a new coset opens its scans and joins the bases
                opened, bases = scans + opening(d), tied + [d]
            if ((opened := _deduce(child, ncols, opened)) is not None
                    and (bases := _least_in_class(child, ncols, bases))
                    is not None):
                stack.append((child, max(n, d + 1), pos + 1, opened, bases))
    return found


def enumerate_homs(presentation, k, max_nodes=DEFAULT_MAX_NODES):
    """All transitive degree-k permutation quotients, up to conjugacy.

    The degree-k part of _low_index's search to degree k: coset tables on
    the lex-least conjugate images, sorted by those images.  max_nodes
    caps the search and, separately, the relabelling of all its classes.
    """
    if k < 1:
        raise ValueError("degree must be >= 1")
    found = _low_index(presentation, k, max_nodes)[k - 1]
    names = tuple(presentation.generators)
    return [CosetTable(names, k, images)
            for images in sorted(_least_conjugates(found, k, max_nodes))]


def _bs_pairs(m, n, k):
    """bs_quotients' image pairs, one class at a time."""
    for ell in range(1, k + 1):
        if k % ell or math.gcd(ell, m * n) != 1:
            continue
        u = m * pow(n, -1, ell) % ell
        g = math.gcd(ell, pow(u, k // ell, ell) - 1)
        b = tuple([p - p % ell + (p + 1) % ell for p in range(k)])
        seen = set()
        for c in range(g):
            if c in seen:
                continue
            seen.update([c * pow(u, i, g) % g for i in range(g)])
            yield (tuple([(p + ell) % k - p % ell
                          + (u * p + c * (p >= k - ell)) % ell
                          for p in range(k)]), b)


def bs_quotients(m, n, k):
    """One (a, b) per class of transitive degree-k actions of BS(m, n),
    gcd(m, n) = 1, built without a search and not relabelled: b's cycles
    share one length ell prime to mn (Baumslag & Solitar 1962; Meskin
    1972).  Point i * ell + x is x in block i; b is x -> x + 1, a maps
    block i to i + 1 by x -> u x, u = m / n mod ell, adding C on the wrap
    to block 0.  One class per orbit of x -> u x on C mod
    gcd(ell, u^(k / ell) - 1), ell ascending, least C first."""
    _check_bs(m, n)
    if math.gcd(m, n) != 1:
        raise ValueError(f"gcd({m},{n}) != 1; no construction applies")
    if k < 1:
        raise ValueError("degree must be >= 1")
    return list(_bs_pairs(m, n, k))


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
                f"gcd({m},{n}) = {c} != 1; pass gcd_witness=True "
                "(--gcd-witness) for the general witness"
            )
    elif c == m or c == n:
        raise ValueError(
            f"gcd({m},{n}) = {c} equals m or n, so the witness pinches to "
            "the identity"
        )
    return word(
        ((0, 1), (1, c), (0, -1), (1, c), (0, 1), (1, -c), (0, -1), (1, -c))
    )


def witness_report(m, n, max_degree, witness=None, gcd_witness=False,
                   max_nodes=DEFAULT_MAX_NODES,
                   max_explored=DEFAULT_MAX_VERTICES):
    """Nontriviality, the degree-<=K quotient scan, and d(e, witness) over s10.

    The witness must be nontrivial (checked via its canonical form before
    any scanning).  all_trivial records whether the witness image is the
    identity permutation under every hom of every degree 1..max_degree.
    For gcd(m, n) = 1 the homs are bs_quotients', and max_nodes caps the
    table entries they fill (2k per degree-k class); else one low-index
    search to max_degree finds them, and hits max_nodes exactly when a
    search to some one degree would.  Conjugation keeps the verdict.
    max_degree 0 is an empty scan.
    """
    if max_degree < 0:
        raise ValueError(f"max_degree must be >= 0, got {max_degree}")
    engine, s10, presentation = bs_s10_setup(m, n)
    if witness is None:
        witness = default_witness(m, n, gcd_witness)
    nf = britton_normal_form(witness, m, n)
    if nf.is_identity():
        raise ValueError("witness is trivial; nothing to scan")
    if math.gcd(m, n) > 1:
        found = _low_index(presentation, max_degree, max_nodes)
    else:
        found, entries = [[] for _ in range(max_degree)], 0
        for k, classes in enumerate(found, start=1):
            for images in _bs_pairs(m, n, k):
                if (entries := entries + 2 * k) > max_nodes:
                    raise ResourceLimitError(
                        f"BS({m}, {n}) quotient construction at degree {k} "
                        f"reached max_nodes={max_nodes} table entries; "
                        f"classes so far: {sum(map(len, found))}"
                    )
                classes.append(images)
    all_trivial = all(
        CosetTable(presentation.generators, k, images).permutation(witness)
        == tuple(range(k))
        for k, classes in enumerate(found, start=1) for images in classes
    )
    return WitnessReport(
        m=m,
        n=n,
        witness=witness,
        nontrivial=True,
        britton_t0=nf.t0,
        britton_syllables=nf.syllables,
        max_degree=max_degree,
        homs_found=sum(map(len, found)),
        per_degree=tuple(enumerate(map(len, found), start=1)),
        all_trivial=all_trivial,
        distance=distance(engine, s10, witness, max_explored),
    )
