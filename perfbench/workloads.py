"""The four benchmark workloads: seeded inputs, one call each, oracles.

Each workload runs in blocks.  A block holds a fixed multiset of input
designs; the seed draws everything else (order within the block,
orientation, vertex relabelling, order of the generating set).  Whole
blocks keep the mix of cheap and costly operations the same from seed to
seed, so medians compare across runs.

Every operation calls the public lml function that the matching CLI
handler calls, through the defining module's namespace at call time, so
the span wrappers in tracing.py see it.  Verdicts are checked against
oracles that do not come from lml: closed-form lattice laws, the paper's
automorphism counts, subgroup counts from sympy, and known group orders.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

# Per-degree class counts of transitive BS(m, n) actions (conjugacy classes
# of subgroups of index d), degrees 1..6.  Taken from
# sympy.combinatorics.fp_groups.low_index_subgroups(G, 6), whose counts
# are cumulative, split by index; the tests re-derive them from sympy.
WITNESS_CLASSES = {
    (2, 3): (1, 1, 1, 1, 2, 1),
    (3, 4): (1, 1, 1, 1, 2, 1),
    (3, 5): (1, 3, 1, 5, 1, 3),
    (4, 5): (1, 1, 2, 1, 1, 3),
    (9, 10): (1, 1, 1, 1, 1, 1),
}
WITNESS_MAX_DEGREE = 6
WITNESS_DISTANCE = 6

# BS(9, 10) with the s10 set: rooted automorphism counts at radii 2 and 3.
R0_COUNTS = ((2, 2**20), (3, 2**132))

AB = ("a", "b")


@dataclass(frozen=True)
class GroupFixture:
    """A finite permutation group whose Cayley ball is rigid at radius 2."""

    name: str
    images: tuple
    relator_texts: tuple
    s_texts: tuple
    order: int


# The rigid groups of the package's round-trip acceptance criterion.
ROUND_TRIP_GROUPS = (
    GroupFixture(
        name="S4",
        images=((1, 0, 2, 3), (1, 2, 3, 0)),
        relator_texts=("a^2", "b^4", "a b a b a b"),
        s_texts=("a", "b", "b^-1", "a b", "b^-1 a^-1"),
        order=24,
    ),
    GroupFixture(
        name="F21",
        images=((1, 2, 3, 4, 5, 6, 0), (0, 4, 1, 5, 2, 6, 3)),
        relator_texts=("a^7", "b^3", "b a b^-1 a^-2"),
        s_texts=("a", "a^-1", "b", "b^-1", "a b", "b^-1 a^-1", "b a^-1", "a b^-1"),
        order=21,
    ),
    GroupFixture(
        name="F42",
        images=((1, 2, 3, 4, 5, 6, 0), (0, 5, 3, 1, 6, 4, 2)),
        relator_texts=("a^7", "b^6", "b a b^-1 a^-3"),
        s_texts=("a", "a^-1", "b", "b^-1", "a b^2", "b^-2 a^-1"),
        order=42,
    ),
)


def lattice_law(kind, w, h, r):
    """Is the grid a perfect radius-r local model of Z^2?

    A torus needs both cycles of length >= 2r + 2.  On the Klein grid
    (w even) the seam glide moves every vertex by at least h + 1, so the
    short directions are w and h + 1.
    """
    if kind == "torus":
        return min(w, h) >= 2 * r + 2
    if kind == "klein":
        return min(w, h + 1) >= 2 * r + 2
    raise ValueError(f"unknown grid kind {kind!r}")


def artifact_bytes(obj):
    """The bytes the CLI writes for a result's JSON form."""
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()


def _block_rng(seed, workload, block):
    return random.Random(f"{workload}:{seed}:{block}")


@dataclass
class Op:
    """One operation: a seeded spec and the lml objects built from it."""

    spec: tuple
    inputs: object = field(default=None, repr=False)


class Workload:
    name = ""
    why = ""
    pool_blocks = 1
    # Nominal seconds one untraced block takes (2-core x86 VM, Python
    # 3.11); only sizes the fixed operation list of a traced run.
    block_s = 1.0

    def setup(self, lml, seed):
        """Engines and generating sets; called with the lml modules."""
        self.lml = lml
        self.seed = seed

    def block_specs(self, rng):
        raise NotImplementedError

    def build(self, spec):
        """The lml input objects for one spec (fresh objects every call)."""
        return None

    def pool(self):
        """Specs and built inputs for pool_blocks blocks."""
        blocks = []
        for b in range(self.pool_blocks):
            rng = _block_rng(self.seed, self.name, b)
            blocks.append([Op(spec, self.build(spec)) for spec in self.block_specs(rng)])
        return blocks

    def call(self, op):
        raise NotImplementedError

    def check(self, op, result):
        """True iff the result matches the oracle."""
        raise NotImplementedError

    def artifact(self, result):
        return artifact_bytes(result.to_jsonable())


class VerifyLattice(Workload):
    name = "verify-lattice"
    why = (
        "verify_model vs Z^2 on torus and Klein grids, sides 6-24, r 2-3: many "
        "balls in one class, so canonical_key dominates; seed draws order, "
        "orientation, relabelling"
    )
    pool_blocks = 6
    block_s = 10.0
    # (w, h, r); each design runs once as a torus and once as a Klein grid.
    # Every design has an even side for the Klein seam.  Verdicts differ:
    # (6, 9, 2) accepts at the bound, (6, 15, 3) rejects both, and
    # (24, 7, 3) rejects the torus only, whose cheap reject and costly
    # accept sit on either side of the median.  Four designs cost less
    # than (14, 20, 2) and four more, so the median operation lands in the
    # middle of its samples rather than between two designs.
    DESIGNS = (
        (6, 9, 2), (6, 15, 3), (8, 14, 2), (10, 13, 2), (24, 7, 3),
        (14, 20, 2),
        (10, 12, 3), (24, 24, 2), (12, 17, 3), (16, 14, 3),
    )

    def setup(self, lml, seed):
        super().setup(lml, seed)
        words = lml.words
        self.engine = words.FreeAbelianEngine(("x", "y"))
        self.genset = words.validate_genset(
            self.engine,
            [words.parse_word(t, self.engine.alphabet) for t in ("x", "x^-1", "y", "y^-1")],
        )

    def block_specs(self, rng):
        specs = []
        for w, h, r in self.DESIGNS:
            for kind in ("torus", "klein"):
                sides = [(w, h), (h, w)]
                if kind == "klein":
                    sides = [(a, b) for a, b in sides if a % 2 == 0]
                a, b = rng.choice(sides)
                specs.append((kind, a, b, r, rng.getrandbits(32)))
        rng.shuffle(specs)
        return specs

    def build(self, spec):
        kind, w, h, r, relabel_seed = spec
        fixtures = self.lml.fixtures
        grid = fixtures.torus_grid(w, h) if kind == "torus" else fixtures.fixture_klein(w, h)
        perm = list(range(grid.vertex_count))
        random.Random(relabel_seed).shuffle(perm)
        edges = [tuple(sorted((perm[u], perm[v]))) for u, v in grid.edges]
        return self.lml.balls.FiniteGraph(grid.vertex_count, tuple(edges))

    def call(self, op):
        r = op.spec[3]
        return self.lml.localmodel.verify_model(op.inputs, self.engine, self.genset, r)

    def check(self, op, verdict):
        kind, w, h, r, _ = op.spec
        return (
            verdict.accepted == lattice_law(kind, w, h, r)
            and verdict.vertex_count == w * h
            and verdict.radius == r
        )


class FixingRadiusBS(Workload):
    name = "r0-bs"
    why = (
        "fixing_radius(r=2, bound=3) on BS(9,10) with s10, the paper's headline "
        "r0=3: one 2^132-automorphism ball per call stresses automorphism_scan; "
        "seed draws the order of S"
    )
    pool_blocks = 16
    block_s = 2.3

    def setup(self, lml, seed):
        super().setup(lml, seed)
        self.engine = lml.words.BaumslagSolitarEngine(9, 10)

    def block_specs(self, rng):
        texts = list(self.lml.words.S10_TEXTS)
        rng.shuffle(texts)
        return [tuple(texts)]

    def build(self, spec):
        words = self.lml.words
        genset = words.validate_genset(
            self.engine, [words.parse_word(t, self.engine.alphabet) for t in spec]
        )
        # The radius-2 ball the moving witness is checked against.
        ball = self.lml.balls.cayley_ball(self.engine, genset, 2)
        return genset, ball

    def call(self, op):
        genset, _ = op.inputs
        return self.lml.localmodel.fixing_radius(self.engine, genset, 2, 3)

    def check(self, op, report):
        _, ball = op.inputs
        if report.r0 != 3 or tuple(report.automorphism_counts) != R0_COUNTS:
            return False
        if len(report.moving_witnesses) != 1:
            return False
        radius, mapping = report.moving_witnesses[0]
        if radius != 2 or tuple(mapping) == tuple(range(ball.vertex_count)):
            return False
        try:
            self.lml.iso.RootedIso(ball, ball, tuple(mapping)).validate()
        except ValueError:
            return False
        return True


class WitnessBS(Workload):
    name = "witness-bs"
    why = (
        "witness_report(m, n, 6) on coprime BS pairs (2,3) (3,4) (3,5) (4,5) "
        "(9,10): quotient search dominates and iso is never called; seed draws "
        "the pair order"
    )
    pool_blocks = 2
    block_s = 15.0

    def block_specs(self, rng):
        pairs = sorted(WITNESS_CLASSES)
        rng.shuffle(pairs)
        return pairs

    def call(self, op):
        m, n = op.spec
        return self.lml.cosets.witness_report(m, n, WITNESS_MAX_DEGREE)

    def check(self, op, report):
        expected = tuple(
            (d, c) for d, c in enumerate(WITNESS_CLASSES[op.spec], start=1)
        )
        return (
            report.nontrivial is True
            and report.all_trivial is True
            and report.distance == WITNESS_DISTANCE
            and report.max_degree == WITNESS_MAX_DEGREE
            and tuple(report.per_degree) == expected
        )


class RoundTrip(Workload):
    name = "round-trip"
    why = (
        "todd_coxeter, schreier_from_table, reconstruct at r=2 on rigid S4, F21, "
        "F42: the only path through reconstruct and coset enumeration; seed "
        "draws the order of S"
    )
    pool_blocks = 8
    block_s = 0.7
    ORDERS_PER_GROUP = 4

    def setup(self, lml, seed):
        super().setup(lml, seed)
        words = lml.words
        self.groups = {}
        for fx in ROUND_TRIP_GROUPS:
            engine = words.FinitePermutationEngine(AB, fx.images)
            engine.order()  # builds the lazy normal-form table now
            pres = words.Presentation(AB, [words.parse_word(t, AB) for t in fx.relator_texts])
            self.groups[fx.name] = (fx, engine, pres)

    def block_specs(self, rng):
        specs = []
        for fx in ROUND_TRIP_GROUPS:
            for _ in range(self.ORDERS_PER_GROUP):
                texts = list(fx.s_texts)
                rng.shuffle(texts)
                specs.append((fx.name, tuple(texts)))
        rng.shuffle(specs)
        return specs

    def build(self, spec):
        words = self.lml.words
        _, engine, _ = self.groups[spec[0]]
        return words.validate_genset(engine, [words.parse_word(t, AB) for t in spec[1]])

    def call(self, op):
        _, engine, pres = self.groups[op.spec[0]]
        genset = op.inputs
        cosets = self.lml.cosets
        table = cosets.todd_coxeter(pres, [])
        realization = cosets.schreier_from_table(table, genset)
        result = self.lml.reconstruct.reconstruct(realization.graph, engine, genset, pres, 2)
        return table, realization, result

    def check(self, op, outcome):
        fx = self.groups[op.spec[0]][0]
        table, realization, result = outcome
        if result.outcome != "success":
            return False
        if result.action.sigma != realization.action.sigma:
            return False
        if not (table.cosets == realization.graph.vertex_count
                == result.action.vertex_count == fx.order):
            return False
        backward = []
        for col in table.forward:
            inv = [0] * len(col)
            for u, v in enumerate(col):
                inv[v] = u
            backward.append(inv)
        return all(
            _coset_image(table.forward, backward, 0, g) == 0
            for g in result.stabilizer_words
        )

    def artifact(self, outcome):
        return artifact_bytes(outcome[2].to_jsonable(alphabet=AB))


def _coset_image(forward, backward, coset, w):
    """Coset reached from `coset` along word w, read off the table columns."""
    for g, e in w.letters:
        col = forward[g] if e > 0 else backward[g]
        for _ in range(abs(e)):
            coset = col[coset]
    return coset


WORKLOADS = {
    w.name: w for w in (VerifyLattice, FixingRadiusBS, WitnessBS, RoundTrip)
}
