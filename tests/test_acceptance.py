"""End-to-end acceptance checks, one printed verdict line per criterion.

Every criterion builds its evidence as a JSON-able artifact through a
zero-argument builder registered in BUILDERS.  The final criterion reruns
every builder from scratch and demands byte-identical artifacts, so
nothing here may depend on wall clock, iteration order of sets, or
global random state.
"""

import json
import random
import time

from conftest import ROUND_TRIP_FIXTURES
from oracles import (
    all_freely_reduced_words,
    brute_rooted_isomorphisms,
    finite_ball,
    layered_rooted_isomorphisms,
    pinch_identity,
)

from lml.balls import FiniteGraph, cayley_ball
from lml.cosets import (
    enumerate_homs,
    schreier_from_table,
    todd_coxeter,
    witness_report,
)
from lml.fixtures import cycle_graph, fixture_klein, torus_grid
from lml.iso import RootedIso, automorphism_scan, rooted_isomorphisms
from lml.localmodel import fixing_radius, verify_model
from lml.reconstruct import reconstruct
from lml.words import (
    BaumslagSolitarEngine,
    FreeAbelianEngine,
    Presentation,
    britton_normal_form,
    bs_presentation,
    bs_s10_setup,
    parse_word,
    validate_genset,
    word,
)

BUILDERS = {}


def builder(name):
    def register(fn):
        BUILDERS[name] = fn
        return fn

    return register


def artifact_bytes(doc):
    return json.dumps(doc, sort_keys=True, indent=2).encode()


def announce(capsys, label, ok, elapsed):
    with capsys.disabled():
        verdict = "PASS" if ok else "FAIL"
        print(f"\n[acceptance] {label}: {verdict} ({elapsed:.2f}s)", flush=True)


def line_setup():
    engine = FreeAbelianEngine(("x",))
    genset = validate_genset(
        engine,
        [parse_word("x", ("x",)), parse_word("x^-1", ("x",))],
    )
    return engine, genset


def lattice_setup():
    engine = FreeAbelianEngine(("x", "y"))
    alph = ("x", "y")
    genset = validate_genset(
        engine, [parse_word(t, alph) for t in ("x", "x^-1", "y", "y^-1")]
    )
    presentation = Presentation(alph, [parse_word("x y x^-1 y^-1", alph)])
    return engine, genset, presentation


# ---------------------------------------------------------------------------
# 1. cycle model law


@builder("cycle_model_law")
def build_cycle_model_law():
    engine, genset = line_setup()
    rows = []
    law_holds = True
    for r in range(6):
        for n in range(3, 21):
            verdict = verify_model(cycle_graph(n), engine, genset, r)
            expected = n >= 2 * r + 2
            if verdict.accepted != expected:
                law_holds = False
            rows.append(
                {"r": r, "n": n, "accepted": verdict.accepted, "expected": expected}
            )
    return {"schema": 1, "rows": rows, "law_holds": law_holds}


def test_01_cycle_model_law(capsys):
    start = time.perf_counter()
    ok = False
    try:
        doc = build_cycle_model_law()
        ok = doc["law_holds"]
    finally:
        announce(capsys, "criterion 1: cycle model law", ok, time.perf_counter() - start)
    assert ok
    assert len(doc["rows"]) == 6 * 18
    assert time.perf_counter() - start < 5.0


# ---------------------------------------------------------------------------
# 2. square-lattice quotient models


@builder("lattice_quotients")
def build_lattice_quotients():
    engine, genset, presentation = lattice_setup()
    ball = cayley_ball(engine, genset, 2)
    entries = []
    for kind, make in (("torus", torus_grid), ("klein", fixture_klein)):
        for w, h in ((8, 8), (10, 6)):
            graph = make(w, h)
            verdict = verify_model(graph, engine, genset, 2)
            result = reconstruct(graph, engine, genset, presentation, 2)
            entry = {
                "kind": kind,
                "w": w,
                "h": h,
                "accepted": verdict.accepted,
                "outcome": result.outcome,
            }
            if result.ambiguity is not None:
                entry["ambiguity"] = result.ambiguity.to_jsonable()
            entries.append(entry)
    return {
        "schema": 1,
        "ball_automorphisms": automorphism_scan(ball, -1)[0],
        "entries": entries,
        "all_accepted": all(e["accepted"] for e in entries),
        "all_ambiguous": all(
            e["outcome"] == "ambiguous_labeling" for e in entries
        ),
    }


def test_02_lattice_quotients(capsys):
    start = time.perf_counter()
    ok = False
    try:
        doc = build_lattice_quotients()
        ok = (
            doc["all_accepted"]
            and doc["all_ambiguous"]
            and doc["ball_automorphisms"] == 8
        )
    finally:
        announce(
            capsys, "criterion 2: lattice quotient models", ok,
            time.perf_counter() - start,
        )
    assert ok
    assert time.perf_counter() - start < 10.0


# ---------------------------------------------------------------------------
# 3. normal form engine vs pinch-search oracle


@builder("normal_form_oracle")
def build_normal_form_oracle():
    engine = BaumslagSolitarEngine(2, 3)
    identities = 0
    mismatches = []
    words = all_freely_reduced_words(8)
    for letters in words:
        got = britton_normal_form(word(letters), engine.m, engine.n).is_identity()
        want = pinch_identity(letters, 2, 3)
        if got != want:
            mismatches.append([list(t) for t in letters])
        if got:
            identities += 1
    return {
        "schema": 1,
        "m": 2,
        "n": 3,
        "max_length": 8,
        "words_checked": len(words),
        "identities": identities,
        "mismatches": mismatches,
    }


def test_03_normal_form_oracle(capsys):
    start = time.perf_counter()
    ok = False
    try:
        doc = build_normal_form_oracle()
        ok = doc["mismatches"] == [] and doc["words_checked"] <= 40_000
    finally:
        announce(
            capsys, "criterion 3: normal form vs pinch oracle", ok,
            time.perf_counter() - start,
        )
    assert ok
    assert doc["words_checked"] == 13_121
    assert time.perf_counter() - start < 60.0


# ---------------------------------------------------------------------------
# 4. isomorphism enumeration vs brute force


def iso_mappings(b1, b2):
    return sorted(phi.mapping for phi in rooted_isomorphisms(b1, b2))


@builder("iso_enumeration")
def build_iso_enumeration():
    rng = random.Random(88100500)
    mismatches = 0
    corpus_auto_counts = []
    corpus_pair_counts = []
    previous = None
    for _ in range(500):
        n = rng.randrange(2, 8)
        edges = tuple(
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.45
        )
        ball = finite_ball(FiniteGraph(n, edges), 0, rng.randrange(1, 4))
        autos = iso_mappings(ball, ball)
        if autos != brute_rooted_isomorphisms(ball, ball):
            mismatches += 1
        corpus_auto_counts.append(len(autos))
        if previous is not None:
            cross = iso_mappings(previous, ball)
            if cross != brute_rooted_isomorphisms(previous, ball):
                mismatches += 1
            corpus_pair_counts.append(len(cross))
        previous = ball

    line_engine, line_genset = line_setup()
    cycle_counts = []
    for r in range(6):
        target = cayley_ball(line_engine, line_genset, r)
        for n in range(3, 21):
            ball = finite_ball(cycle_graph(n), 0, r)
            found = iso_mappings(ball, target)
            if found != layered_rooted_isomorphisms(ball, target):
                mismatches += 1
            cycle_counts.append({"r": r, "n": n, "isos": len(found)})

    engine, genset, _ = lattice_setup()
    target = cayley_ball(engine, genset, 2)
    lattice_counts = []
    for kind, make in (("torus", torus_grid), ("klein", fixture_klein)):
        for w, h in ((8, 8), (10, 6)):
            graph = make(w, h)
            per_vertex = []
            for v in range(graph.vertex_count):
                ball = finite_ball(graph, v, 2)
                found = iso_mappings(ball, target)
                if found != layered_rooted_isomorphisms(ball, target):
                    mismatches += 1
                per_vertex.append(len(found))
            lattice_counts.append(
                {"kind": kind, "w": w, "h": h, "isos_per_vertex": per_vertex}
            )
    return {
        "schema": 1,
        "corpus_size": 500,
        "corpus_auto_counts": corpus_auto_counts,
        "corpus_pair_counts": corpus_pair_counts,
        "cycle_ball_counts": cycle_counts,
        "lattice_ball_counts": lattice_counts,
        "mismatches": mismatches,
    }


def test_04_iso_enumeration(capsys):
    start = time.perf_counter()
    ok = False
    try:
        doc = build_iso_enumeration()
        ok = doc["mismatches"] == 0
    finally:
        announce(
            capsys, "criterion 4: isomorphism enumeration vs brute force", ok,
            time.perf_counter() - start,
        )
    assert ok
    assert len(doc["corpus_auto_counts"]) == 500
    # Every lattice vertex ball matches the identity ball in all 8 ways.
    for entry in doc["lattice_ball_counts"]:
        assert all(c == 8 for c in entry["isos_per_vertex"])


# ---------------------------------------------------------------------------
# 5. fixing radius reports


@builder("fixing_radius")
def build_fixing_radius():
    line_engine, line_genset = line_setup()
    z_report = fixing_radius(line_engine, line_genset, 1, 6)
    bs_engine, bs_genset, _ = bs_s10_setup()
    bs_report = fixing_radius(bs_engine, bs_genset, 2, 3)
    witness_verified = False
    witness_moves_inner = False
    if bs_report.r0 is not None and bs_report.r0 > 2:
        ((rho, mapping),) = bs_report.moving_witnesses
        ball = cayley_ball(bs_engine, bs_genset, rho)
        phi = RootedIso(ball, ball, mapping).validate()
        witness_verified = True
        witness_moves_inner = any(
            phi.mapping[v] != v
            for v in range(ball.vertex_count)
            if ball.dist[v] <= 2
        )
    return {
        "schema": 1,
        "line": z_report.to_jsonable(),
        "bs": bs_report.to_jsonable(),
        "bs_witness_verified": witness_verified,
        "bs_witness_moves_inner": witness_moves_inner,
    }


def test_05_fixing_radius(capsys):
    start = time.perf_counter()
    ok = False
    try:
        doc = build_fixing_radius()
        line_ok = (
            doc["line"]["r0"] is None
            and doc["line"]["automorphism_counts"]
            == [{"radius": rho, "count": 2} for rho in range(1, 7)]
        )
        bs_ok = (
            doc["bs"]["r0"] == 3
            and doc["bs"]["automorphism_counts"]
            == [
                {"radius": 2, "count": 2**20},
                {"radius": 3, "count": 2**132},
            ]
            and doc["bs_witness_verified"]
            and doc["bs_witness_moves_inner"]
        )
        ok = line_ok and bs_ok
    finally:
        announce(
            capsys, "criterion 5: fixing radius reports", ok,
            time.perf_counter() - start,
        )
    assert ok
    assert time.perf_counter() - start < 600.0


# ---------------------------------------------------------------------------
# 6. round trip through coset tables


@builder("round_trip")
def build_round_trip():
    fixtures = []
    for fx in ROUND_TRIP_FIXTURES:
        engine, genset = fx.engine(), fx.genset()
        scan = fixing_radius(engine, genset, 1, 3)
        rigid = [rho for rho, count in scan.automorphism_counts if count == 1]
        test_radius = rigid[0] if rigid else None
        entry = {
            "name": fx.name,
            "order": fx.order,
            "scan_counts": [
                {"radius": rho, "count": count}
                for rho, count in scan.automorphism_counts
            ],
            "test_radius": test_radius,
        }
        if test_radius is None:
            entry["outcome"] = "no rigid radius found"
            fixtures.append(entry)
            continue
        table = todd_coxeter(fx.presentation(), [])
        realization = schreier_from_table(table, genset)
        result = reconstruct(
            realization.graph, engine, genset, fx.presentation(), test_radius
        )
        entry.update(
            {
                "index": table.cosets,
                "loops_dropped": realization.loops_dropped,
                "parallels_dropped": realization.parallels_dropped,
                "outcome": result.outcome,
                "sigma_equal": (
                    result.succeeded
                    and result.action.sigma == realization.action.sigma
                ),
                "index_matches": (
                    result.succeeded
                    and table.cosets == realization.graph.vertex_count
                    and result.action.vertex_count == table.cosets
                ),
                "stabilizer_fixes_base": (
                    result.succeeded
                    and all(
                        table.permutation(g)[0] == 0 for g in result.stabilizer_words
                    )
                ),
            }
        )
        fixtures.append(entry)
    return {
        "schema": 1,
        "fixtures": fixtures,
        "all_round_trips": all(
            e.get("outcome") == "success"
            and e.get("sigma_equal")
            and e.get("index_matches")
            and e.get("stabilizer_fixes_base")
            for e in fixtures
        ),
    }


def test_06_round_trip(capsys):
    start = time.perf_counter()
    ok = False
    try:
        doc = build_round_trip()
        ok = doc["all_round_trips"] and len(doc["fixtures"]) >= 3
    finally:
        announce(
            capsys, "criterion 6: coset table round trip", ok,
            time.perf_counter() - start,
        )
    assert ok
    for entry in doc["fixtures"]:
        assert entry["index"] <= 50
        assert entry["index"] == entry["order"]
        assert entry["test_radius"] == 2


# ---------------------------------------------------------------------------
# 7. witness quotient scan


@builder("witness_scan")
def build_witness_scan():
    report = witness_report(9, 10, 5)
    presentation = bs_presentation(9, 10)
    base_fixed = True
    for degree in range(1, 6):
        for hom in enumerate_homs(presentation, degree):
            if hom.permutation(report.witness)[0] != 0:
                base_fixed = False
    return {
        "schema": 1,
        "report": report.to_jsonable(),
        "base_fixed_in_every_quotient": base_fixed,
    }


def test_07_witness_scan(capsys):
    start = time.perf_counter()
    ok = False
    try:
        doc = build_witness_scan()
        rep = doc["report"]
        ok = (
            rep["nontrivial"] is True
            and rep["quotient_scan"]["all_trivial"] is True
            and rep["distance"] <= 8
            and doc["base_fixed_in_every_quotient"] is True
        )
    finally:
        announce(
            capsys, "criterion 7: witness quotient scan", ok,
            time.perf_counter() - start,
        )
    assert ok
    assert rep["quotient_scan"]["max_degree"] == 5
    assert rep["distance"] == 6
    assert rep["britton"] == {
        "t0": -20,
        "syllables": [[1, 1], [-1, 1], [1, 8], [-1, 9]],
        "ell": 4,
    }
    assert time.perf_counter() - start < 600.0


# ---------------------------------------------------------------------------
# 8. determinism


def test_08_determinism(capsys):
    start = time.perf_counter()
    ok = False
    stable = {}
    try:
        for name, build in BUILDERS.items():
            stable[name] = artifact_bytes(build()) == artifact_bytes(build())
        ok = all(stable.values()) and len(stable) == 7
    finally:
        announce(
            capsys, "criterion 8: byte-identical reruns", ok,
            time.perf_counter() - start,
        )
    assert ok, stable
