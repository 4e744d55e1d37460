"""Independent reference implementations used to cross-check the library.

Everything here is deliberately naive and, apart from the last nine
sections, shares no code or data structures with the package: different
algorithms, different representations.  The last nine keep an earlier
form of a package routine and call the package for everything else; the
last four hold the finite-ball and connectivity searches from before
every ball was grown by one breadth-first search, the vertex walk from
before it kept each vertex ball as plain lists, Todd-Coxeter from before
it shared the low-index search's table and relator scan, and the
low-index search from before each node resumed its open relator scans
and kept only its tied base points.  Speed only matters enough for the
test sizes.
"""

import itertools

from lml.balls import (
    RootedBall,
    cayley_ball,
    finite_ball,
    finite_ball_with_order,
    is_connected,
)
from lml.cosets import (
    DEFAULT_MAX_COSETS,
    CosetTable,
    IndexExceedsBound,
    _columns,
)
from lml.iso import (
    RootedIso,
    canonical_key,
    first_rooted_isomorphism,
    prepare,
    rooted_isomorphisms,
)
from lml.localmodel import ModelClass, ModelVerdict
from lml.reconstruct import (
    AmbiguousLabeling,
    EdgeLabeling,
    LabelInconsistency,
    ReconstructionResult,
    RelatorViolation,
    build_action,
    check_factors,
    present_on_S,
    stabilizer,
)
from lml.words import ResourceLimitError, _perm_inverse, word


# ---------------------------------------------------------------------------
# identity oracle for the one-relator HNN groups <a,b | a b^m a^-1 = b^n>


def pinch_identity(letters, m, n):
    """Is the word (sequence of (gen, exp), gen 0 = a, gen 1 = b) trivial?

    Repeatedly rewrites pinches: a b^(km) a^-1 -> b^(kn) and
    a^-1 b^(kn) a -> b^(km).  Each rewrite removes two a-letters, so the
    loop terminates; if a-letters remain with no pinch available the word
    is nontrivial, otherwise it is trivial exactly when the surviving
    b-exponent is zero.
    """
    # alternating form: b-run, a^(+-1), b-run, a^(+-1), ..., b-run
    signs = []
    runs = [0]
    for g, e in letters:
        if g == 1:
            runs[-1] += e
        else:
            step = 1 if e > 0 else -1
            for _ in range(abs(e)):
                signs.append(step)
                runs.append(0)
    changed = True
    while changed:
        changed = False
        # merge out a^e a^-e pairs with nothing between them
        i = 0
        while i + 1 < len(signs):
            if signs[i] == -signs[i + 1] and runs[i + 1] == 0:
                runs[i] = runs[i] + runs[i + 2]
                del signs[i : i + 2]
                del runs[i + 1 : i + 3]
                changed = True
                i = max(i - 1, 0)
            else:
                i += 1
        for i in range(len(signs) - 1):
            t = runs[i + 1]
            if signs[i] == 1 and signs[i + 1] == -1 and t % m == 0:
                runs[i] = runs[i] + (t // m) * n + runs[i + 2]
            elif signs[i] == -1 and signs[i + 1] == 1 and t % n == 0:
                runs[i] = runs[i] + (t // n) * m + runs[i + 2]
            else:
                continue
            del signs[i : i + 2]
            del runs[i + 1 : i + 3]
            changed = True
            break
    if signs:
        return False
    return runs[0] == 0


def all_freely_reduced_words(max_len):
    """Every freely reduced word over {a, a^-1, b, b^-1} up to max_len.

    Letters are (gen, exp) with exp +-1; includes the empty word.
    """
    alphabet = [(0, 1), (0, -1), (1, 1), (1, -1)]
    out = [()]
    frontier = [()]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for letter in alphabet:
                if w and w[-1] == (letter[0], -letter[1]):
                    continue
                nxt.append(w + (letter,))
        out.extend(nxt)
        frontier = nxt
    return out


# ---------------------------------------------------------------------------
# rooted isomorphism by exhaustive bijections


def _edge_set(ball):
    return set(ball.edges)


def brute_rooted_isomorphisms(b1, b2):
    """All rooted isomorphisms b1 -> b2 by checking every bijection.

    Pure enumeration of all root-fixing bijections; feasible up to about
    seven vertices.  Returns sorted mapping tuples.
    """
    n = b1.vertex_count
    if n != b2.vertex_count:
        return []
    if n == 0:
        return [()]
    e2 = _edge_set(b2)
    if len(b1.edges) != len(e2):
        return []
    found = []
    for perm in itertools.permutations(range(1, n)):
        mapping = (0,) + perm
        ok = True
        for u, v in b1.edges:
            x, y = mapping[u], mapping[v]
            if ((x, y) if x < y else (y, x)) not in e2:
                ok = False
                break
        if ok:
            found.append(mapping)
    return sorted(found)


def layered_rooted_isomorphisms(b1, b2):
    """All rooted isomorphisms via per-layer backtracking.

    A root-fixing isomorphism preserves distance from the root, so
    assigning images layer by layer (each vertex to a same-layer target,
    edges to already-assigned vertices checked immediately) enumerates
    every candidate.  No refinement, no invariants beyond the layers;
    handles the 13-vertex balls the full enumeration cannot.
    """
    n = b1.vertex_count
    if n != b2.vertex_count or sorted(b1.dist) != sorted(b2.dist):
        return []
    if n == 0:
        return [()]
    order = sorted(range(n), key=lambda v: (b1.dist[v], v))
    targets = {}
    for t in range(n):
        targets.setdefault(b2.dist[t], []).append(t)
    adj1 = [set(a) for a in b1.adjacency]
    adj2 = [set(a) for a in b2.adjacency]
    mapping = {}
    used = set()
    found = []

    def extend(k):
        if k == n:
            found.append(tuple(mapping[v] for v in range(n)))
            return
        v = order[k]
        for t in targets[b1.dist[v]]:
            if t in used:
                continue
            good = True
            for u in adj1[v]:
                if u in mapping and mapping[u] not in adj2[t]:
                    good = False
                    break
            if good:
                # also no extra adjacency to already-assigned targets
                assigned_nbrs = {mapping[u] for u in adj1[v] if u in mapping}
                for w in adj2[t]:
                    if w in used and w not in assigned_nbrs:
                        good = False
                        break
            if good:
                mapping[v] = t
                used.add(t)
                extend(k + 1)
                used.discard(t)
                del mapping[v]

    extend(0)
    return sorted(found)


# ---------------------------------------------------------------------------
# transitive homomorphism classes by exhaustive image assignment


def brute_hom_classes(n_gens, relators, k):
    """Conjugacy classes of transitive relator-respecting image tuples.

    relators are words as ((gen, exp), ...) tuples.  Tries every tuple of
    images in S_k (feasible for k <= 5), keeps those satisfying all
    relators and acting transitively, then groups by simultaneous
    conjugation and returns the sorted lexicographically minimal
    representatives.
    """
    perms = list(itertools.permutations(range(k)))
    inv = {p: tuple(sorted(range(k), key=lambda i: p[i])) for p in perms}

    def compose(p, q):  # apply p then q
        return tuple(q[x] for x in p)

    def image(images, word):
        cur = tuple(range(k))
        for g, e in word:
            step = images[g] if e > 0 else inv[images[g]]
            for _ in range(abs(e)):
                cur = compose(cur, step)
        return cur

    identity = tuple(range(k))
    survivors = []
    for images in itertools.product(perms, repeat=n_gens):
        if any(image(images, r) != identity for r in relators):
            continue
        # transitivity: orbit of 0 under the images
        orbit = {0}
        frontier = [0]
        while frontier:
            x = frontier.pop()
            for p in images:
                for y in (p[x], inv[p][x]):
                    if y not in orbit:
                        orbit.add(y)
                        frontier.append(y)
        if len(orbit) == k:
            survivors.append(images)
    return sorted({brute_least_conjugate(images, k) for images in survivors})


def brute_least_conjugate(images, k):
    """The least of c^-1 p c over all k! relabellings c of a permutation
    tuple, compared generator-major: the loop the package ran before its
    depth-first relabelling."""
    best = None
    for c in itertools.permutations(range(k)):
        ci = [0] * k
        for x, y in enumerate(c):
            ci[y] = x
        conj = tuple(tuple(c[p[ci[x]]] for x in range(k)) for p in images)
        if best is None or conj < best:
            best = conj
    return best


# ---------------------------------------------------------------------------
# perfect-model verdicts by classifying every vertex ball


def classify_verify_model(graph, engine, genset, radius):
    """verify_model by sorting every vertex ball into canonical-key classes.

    The package's earlier algorithm, kept as a differential oracle for the
    verdict bookkeeping: classes in order of first occurrence, rejection at
    the first class whose key is not the identity ball's.  It shares the
    ball builders and canonical_key with the package, so it checks which
    vertex, class and witness a verdict reports, not the key itself.
    """
    target = cayley_ball(engine, genset, radius)
    target_key = canonical_key(target)
    class_order = []
    rep_balls = {}
    for v in range(graph.vertex_count):
        ball = finite_ball(graph, v, radius)
        key = canonical_key(ball)
        if key not in rep_balls:
            class_order.append(key)
            rep_balls[key] = (v, ball)
    classes = []
    rejection = None
    for key in class_order:
        rep, ball = rep_balls[key]
        if key != target_key:
            rejection = (
                rep,
                f"ball at vertex {rep} is not rooted-isomorphic to the "
                f"radius-{radius} ball at the identity",
            )
            break
        classes.append(
            ModelClass(key, rep, first_rooted_isomorphism(ball, target))
        )
    return ModelVerdict(
        accepted=rejection is None,
        radius=radius,
        connected=is_connected(graph),
        vertex_count=graph.vertex_count,
        classes=tuple(classes),
        rejection=rejection,
    )


# ---------------------------------------------------------------------------
# Cayley balls by a discovery pass and a separate edge pass


def two_pass_cayley_ball(engine, genset, radius):
    """cayley_ball as the package built it before recording edges in its
    breadth-first search: discover the vertices, then multiply every
    vertex by every letter again to collect the edges."""
    identity = engine.normal_form(word())
    keys = {engine.key(identity): 0}
    labels = [identity]
    dist = [0]
    frontier = [0]
    for d in range(radius):
        nxt = []
        for u in frontier:
            for s in genset.words:
                prod = engine.multiply(labels[u], s)
                k = engine.key(prod)
                if k not in keys:
                    keys[k] = len(labels)
                    labels.append(prod)
                    dist.append(d + 1)
                    nxt.append(keys[k])
        frontier = nxt
    edges = set()
    for u in range(len(labels)):
        for s in genset.words:
            v = keys.get(engine.key(engine.multiply(labels[u], s)))
            if v is not None and v != u:
                edges.add((min(u, v), max(u, v)))
    keys_in_order = tuple(engine.key(w) for w in labels)
    return RootedBall(len(labels), radius, dist, tuple(edges), keys_in_order, engine)


# ---------------------------------------------------------------------------
# reconstruction by enumerating every isomorphism at every vertex


def enumerate_label_edges(graph, engine, genset, radius):
    """Edge labeling of an accepted model, checking every vertex for ambiguity.

    The package's earlier label_edges: at each vertex it lists every
    rooted isomorphism onto the identity ball and reports the first pair
    that differs within distance 2, then labels from the lex-first one.
    """
    target = cayley_ball(engine, genset, radius)
    elem_vertex = {engine.key(lbl): j for j, lbl in enumerate(target.element_labels)}
    letter_of_vertex = {
        elem_vertex[engine.key(s)]: i for i, s in enumerate(genset.words)
    }
    labels = {}
    for v in range(graph.vertex_count):
        ball, order = finite_ball_with_order(graph, v, radius)
        isos = rooted_isomorphisms(ball, target)
        ref = isos[0]
        for phi in isos[1:]:
            for x in range(ball.vertex_count):
                if ball.dist[x] <= 2 and phi.mapping[x] != ref.mapping[x]:
                    return AmbiguousLabeling(v, ref, phi)
        rev = {g: i for i, g in enumerate(order)}
        for w in graph.adjacency[v]:
            labels[(v, w)] = letter_of_vertex[ref.mapping[rev[w]]]
    for (v, w), i in labels.items():
        back = labels[(w, v)]
        if back != genset.inverse_pairing[i]:
            return LabelInconsistency(
                (v, w),
                f"forward label {i} pairs with {genset.inverse_pairing[i]}, "
                f"reverse edge carries {back}",
            )
    return EdgeLabeling(
        vertex_count=graph.vertex_count,
        genset_size=len(genset),
        directed=tuple(sorted((v, w, i) for (v, w), i in labels.items())),
    )


def oracle_reconstruct(graph, engine, genset, presentation, radius):
    """reconstruct as the package ran it before verifying and labeling in
    one walk: classify_verify_model, then enumerate_label_edges, then the
    package's action, relator and stabilizer steps."""
    verdict = classify_verify_model(graph, engine, genset, radius)
    if not verdict.accepted:
        return ReconstructionResult("not_a_model", rejection=verdict.rejection)
    if not verdict.connected:
        return ReconstructionResult("disconnected")
    labeled = enumerate_label_edges(graph, engine, genset, radius)
    if isinstance(labeled, AmbiguousLabeling):
        return ReconstructionResult("ambiguous_labeling", ambiguity=labeled)
    if isinstance(labeled, LabelInconsistency):
        return ReconstructionResult("label_inconsistency", inconsistency=labeled)
    action = build_action(graph, labeled, genset)
    relators, r_prime = present_on_S(presentation, genset, engine)
    ok = check_factors(action, relators, genset.inverse_pairing)
    if ok is not True:
        return ReconstructionResult(
            "relator_violation", labeling=labeled, action=action,
            r_prime=r_prime, violation=ok,
        )
    return ReconstructionResult(
        "success", labeling=labeled, action=action,
        stabilizer_words=tuple(stabilizer(action, 0, genset)), r_prime=r_prime,
    )


# ---------------------------------------------------------------------------
# automorphism scan by prefix-forced searches over the whole ball


def _forced_prefix_search(p, forced):
    """The lex-first automorphism of prepared ball p whose first len(forced)
    vertices go to forced[v], or None; every vertex is matched in turn."""
    n = p.ball.vertex_count
    colors, cells, masks = p.colors, p.cells, p.masks
    earlier = [[u for u in nbrs if u < v] for v, nbrs in enumerate(p.ball.adjacency)]
    mapping = [-1] * n

    def frame(v, used):
        required = 0
        for u in earlier[v]:
            required |= 1 << mapping[u]
        cands = (forced[v],) if v < len(forced) else cells[colors[v]]
        return iter(cands), used, required

    stack = [frame(0, 0)]
    while stack:
        v = len(stack) - 1
        cands, used, required = stack[-1]
        for t in cands:
            if (
                not (used >> t) & 1
                and colors[t] == colors[v]
                and masks[t] & used == required
            ):
                break
        else:
            stack.pop()
            continue
        mapping[v] = t
        if v + 1 == n:
            return tuple(mapping)
        stack.append(frame(v + 1, used | (1 << t)))
    return None


def forced_prefix_automorphism_scan(ball, inner_radius):
    """automorphism_scan as the package ran it before identity completion:
    each probe (i, t) re-matches the whole ball with 0..i-1 forced to
    themselves and i forced to t."""
    p = prepare(ball)
    n = p.ball.vertex_count
    count, witness = 1, None
    for i in range(n):
        orbit = 1
        for t in p.cells[p.colors[i]]:
            if t <= i:
                continue
            found = _forced_prefix_search(p, tuple(range(i)) + (t,))
            if found is not None:
                orbit += 1
                if witness is None and p.ball.dist[i] <= inner_radius:
                    witness = RootedIso(p.ball, p.ball, found).validate()
        count *= orbit
    return count, witness


# ---------------------------------------------------------------------------
# relator checks by following every vertex letter by letter


def pointwise_check_factors(action, relators, pairing=None):
    """check_factors as the package ran it before it evaluated each relator
    as one permutation: every vertex walks every relator one step at a
    time."""
    for rel in relators:
        for v in range(action.vertex_count):
            x = v
            for i, e in rel.letters:
                if e < 0:
                    if pairing is None:
                        raise ValueError(
                            "negative exponent needs the inverse pairing"
                        )
                    i, e = pairing[i], -e
                for _ in range(e):
                    x = action.sigma[i][x]
            if x != v:
                return RelatorViolation(rel, v)
    return True


# ---------------------------------------------------------------------------
# finite balls by layers and an edge pass; connectivity by depth-first search


def layered_finite_ball_with_order(graph, v, radius):
    """finite_ball_with_order as the package built it before one search
    grew every ball: a layered search for the vertices, then a second pass
    over their adjacency lists for the induced edges."""
    if not (0 <= v < graph.vertex_count):
        raise ValueError(f"vertex {v} out of range")
    if radius < 0:
        raise ValueError("radius must be >= 0")
    order = [v]
    dist = {v: 0}
    frontier = [v]
    for d in range(radius):
        nxt = []
        for u in frontier:
            for w in graph.adjacency[u]:
                if w not in dist:
                    dist[w] = d + 1
                    order.append(w)
                    nxt.append(w)
        frontier = nxt
        if not frontier:
            break
    renumber = {old: new for new, old in enumerate(order)}
    edges = []
    for x, u in enumerate(order):
        for w in graph.adjacency[u]:
            y = renumber.get(w)
            if y is not None and x < y:
                edges.append((x, y))
    ball = RootedBall(
        vertex_count=len(order),
        radius=radius,
        dist=tuple(dist[u] for u in order),
        edges=tuple(edges),
    )
    return ball, tuple(order)


def stack_is_connected(graph):
    """is_connected as the package ran it before: a depth-first search
    from vertex 0 over adjacency sets built from the edge list."""
    if graph.vertex_count == 0:
        return True
    adjacency = [set() for _ in range(graph.vertex_count)]
    for u, v in graph.edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for w in adjacency[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == graph.vertex_count


# ---------------------------------------------------------------------------
# the vertex walk with a ball object per vertex


def per_vertex_witnesses(graph, target, radius):
    """vertex_witnesses as the package ran it before each vertex ball
    stayed plain lists: a RootedBall per vertex from
    finite_ball_with_order, matched by first_rooted_isomorphism.

    Returns the (vertex, order, mapping) triples up to the first ball
    that does not match, and that vertex's rejection (vertex, reason),
    or None when every ball matches.
    """
    found = []
    for v in range(graph.vertex_count):
        ball, order = finite_ball_with_order(graph, v, radius)
        witness = first_rooted_isomorphism(ball, target)
        if witness is None:
            return found, (
                v,
                f"ball at vertex {v} is not rooted-isomorphic to the "
                f"radius-{radius} ball at the identity",
            )
        found.append((v, order, witness.mapping))
    return found, None


# ---------------------------------------------------------------------------
# coset enumeration on a list-of-lists table with find on every read


def find_on_read_todd_coxeter(presentation, subgroup_gens,
                              max_cosets=DEFAULT_MAX_COSETS):
    """todd_coxeter as the package ran it before one flat table and one
    relator scan served it and the low-index search: a list-of-lists
    table read through find, and coincidences that left old pointers to
    resolve on read.  Enumerate cosets of <subgroup_gens> in the
    presented group.

    HLT: subgroup generators are scanned from coset 0, then every relator
    is scanned from every live coset in numeric order, with remaining
    undefined entries filled by fresh definitions.  Deterministic; raises
    IndexExceedsBound once max_cosets cosets have been defined (dead ones
    included, so the cap is an allocation cap).
    """
    ngen = len(presentation.generators)
    ncols = 2 * ngen
    relators = [_columns(rel, ngen) for rel in presentation.relators]

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
        scan_and_fill(0, _columns(w, ngen))
    i = 0
    while i < len(table):
        if find(i) == i:
            for cols in relators:
                if find(i) != i:
                    break
                scan_and_fill(i, cols)
            if find(i) == i:
                for c in range(ncols):
                    if entry(i, c) is None:
                        define(i, c)
        i += 1

    live = [u for u in range(len(table)) if find(u) == u]
    renumber = {old: new for new, old in enumerate(live)}
    forward = tuple(
        tuple(renumber[entry(u, 2 * g)] for u in live) for g in range(ngen)
    )
    for g, col in enumerate(forward):
        back = tuple(renumber[entry(u, 2 * g + 1)] for u in live)
        assert back == _perm_inverse(col), "inverse column mismatch"
    return CosetTable(tuple(presentation.generators), len(live), forward)


# ---------------------------------------------------------------------------
# the low-index search that rescans every relator from every coset


def _rescan(table, ncols, start, cols):
    """Trace the word cols from start through a flat coset table: row u
    at u * ncols, -1 undefined.  Forward while defined, then backward.

    Returns (f, i, b, j): start * cols[:i] = f, b * cols[j+1:] = start.
    j < i: the word closed, a clash if f != b.  j == i: one gap, so
    f * cols[i] = b, with both slots free.  j > i: more gaps.
    """
    f, i, j = start, 0, len(cols) - 1
    while i <= j and (x := table[f * ncols + cols[i]]) >= 0:
        f = x
        i += 1
    b = start
    while j >= i and (x := table[b * ncols + (cols[j] ^ 1)]) >= 0:
        b = x
        j -= 1
    return f, i, b, j


def _rescanning_deduce(table, n, ncols, relators):
    """Scan every relator from every coset until no gap is left to fill.

    False on a clash: a relator traced round to another coset.  Single
    gaps are filled in place."""
    changed = True
    while changed:
        changed = False
        for start in range(n):
            for cols in relators:
                f, i, b, j = _rescan(table, ncols, start, cols)
                if j < i:
                    if f != b:
                        return False
                elif j == i:
                    table[f * ncols + cols[i]] = b
                    table[b * ncols + (cols[i] ^ 1)] = f
                    changed = True
    return True


def _rescanning_least_in_class(table, n, ncols):
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


def rescanning_low_index(presentation, max_degree, max_nodes):
    """cosets._low_index as the package ran it before each node resumed
    its open relator scans and kept only its tied base points: every node
    rescans every relator from every coset and compares every base point
    from the start.  Per degree 1..max_degree, the generator images of
    one transitive quotient per conjugacy class, in one search.
    """
    ngen = len(presentation.generators)
    ncols = 2 * ngen
    relators = [_columns(rel, ngen) for rel in presentation.relators]
    found = [[] for _ in range(max_degree)]
    nodes = 0
    stack = [([-1] * (max_degree * ncols), 1, 0)] if max_degree else []
    while stack:
        table, n, pos = stack.pop()
        while pos < n * ncols and table[pos] >= 0:
            pos += 1
        if pos == n * ncols:
            found[n - 1].append(tuple(
                tuple(table[2 * g:pos:ncols]) for g in range(ngen)
            ))
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
            m = max(n, d + 1)
            if (_rescanning_deduce(child, m, ncols, relators)
                    and _rescanning_least_in_class(child, m, ncols)):
                stack.append((child, m, pos + 1))
    return found
