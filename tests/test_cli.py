"""Command-line behavior: exit codes, JSON shapes, and determinism.

Subcommands are driven through main(argv) so the tests see exactly what a
shell user would, including stderr messages and the LML_MAX_MEM budget.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from oracles import brute_hom_classes

import lml

from lml.balls import (
    NotReachableError,
    cayley_ball,
    parse_graph,
    render_graph,
    render_rooted_ball,
)
from lml import cli
from lml.cli import main
from lml.cosets import coset_genset, todd_coxeter
from lml.fixtures import cycle_graph, torus_grid
from lml.words import parse_presentation


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


@pytest.fixture()
def cycle_file(tmp_path):
    def write(n):
        path = tmp_path / f"c{n}.graph"
        path.write_text(render_graph(cycle_graph(n)))
        return str(path)

    return write


# ---------------------------------------------------------------------------
# ball


def test_ball_line_lattice(capsys):
    code, doc, _ = run_json(
        capsys, "ball", "--engine", "zd", "--d", "1", "--radius", "2"
    )
    assert code == 0
    assert doc["schema"] == 1
    assert doc["vertex_count"] == 5
    assert doc["sphere_sizes"] == [1, 2, 2]
    assert doc["labels"][0] == ""
    assert sorted(doc["labels"][1:3]) == ["x", "x^-1"]


def test_ball_preset_s10(capsys):
    code, doc, _ = run_json(capsys, "ball", "--preset", "s10", "--radius", "1")
    assert code == 0
    assert doc["vertex_count"] == 11
    assert len(doc["labels"]) == 11


def test_ball_preset_needs_bs_engine(capsys):
    code, out, err = run(
        capsys, "ball", "--engine", "zd", "--preset", "s10", "--radius", "1"
    )
    assert code == 3
    assert out == "" and "--preset s10 needs --engine bs" in err


@pytest.mark.parametrize(
    "argv, message",
    (
        (("--engine", "zd", "--d", "-1"), "argument --d: expected an integer >= 1"),
        (("--engine", "zd", "--d", "0"), "argument --d: expected an integer >= 1"),
        (("--preset", "s10", "--s", "a|a^-1"),
         "argument --s: not allowed with argument --preset"),
    ),
    ids=("d-minus-1", "d-0", "preset-and-s"),
)
def test_ball_refuses_a_dimension_below_one_and_two_generating_sets(
    capsys, argv, message
):
    # Each is a usage error, not a ball of some other group or S with exit 0.
    code, out, err = run(capsys, "ball", *argv, "--radius", "1")
    assert code == 3 and out == ""
    assert err.startswith("usage: lml ball") and message in err


def test_empty_s_is_the_identity_not_the_default_set(capsys, tmp_path):
    # --s "" spells one empty word, which S may not hold; it does not fall
    # back to the generators and their inverses.
    code, out, err = run(
        capsys, "ball", "--engine", "zd", "--d", "2", "--radius", "1", "--s", ""
    )
    assert code == 3 and out == ""
    assert "identity element in generating set (index 0)" in err
    pres = tmp_path / "z.pres"
    pres.write_text("gens x\nrel x^5\n")
    code, out, err = run(
        capsys, "cosets", "--presentation", str(pres), "--schreier", "--s", ""
    )
    assert code == 3 and out == ""
    assert "identity element in generating set (index 0)" in err


def test_ball_text_format_round_trips(capsys, z2_setup):
    code, out, _ = run(
        capsys,
        "ball", "--engine", "zd", "--d", "2", "--radius", "2",
        "--format", "text",
    )
    assert code == 0
    engine, genset = z2_setup[:2]
    ball = cayley_ball(engine, genset, 2)
    assert out == render_rooted_ball(ball)
    assert parse_graph(out.split("root")[0]).edges == ball.edges
    assert ball.vertex_count == 13


def test_ball_custom_s(capsys):
    code, doc, _ = run_json(
        capsys,
        "ball", "--engine", "zd", "--d", "1", "--s", "x^2|x^-2",
        "--radius", "3",
    )
    assert code == 0
    assert doc["vertex_count"] == 7
    assert doc["labels"][1] == "x^2"


def test_ball_free_engine_sphere_sizes_and_axis_names(capsys):
    code, doc, _ = run_json(
        capsys, "ball", "--engine", "free", "--d", "2", "--radius", "3"
    )
    assert code == 0
    assert doc["sphere_sizes"] == [1, 4, 12, 36]
    # Past three axes the names are numbered.
    code, doc, _ = run_json(
        capsys, "ball", "--engine", "free", "--d", "4", "--radius", "1"
    )
    assert code == 0
    assert doc["labels"] == [
        "", "x1", "x1^-1", "x2", "x2^-1", "x3", "x3^-1", "x4", "x4^-1"
    ]


def test_ball_out_file_matches_stdout(capsys, tmp_path):
    _, stdout_doc, _ = run_json(capsys, "ball", "--radius", "1")
    target = tmp_path / "ball.json"
    code, out, _ = run(capsys, "ball", "--radius", "1", "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text()) == stdout_doc


# ---------------------------------------------------------------------------
# verify / reconstruct


def test_verify_accepts_long_cycle(capsys, cycle_file):
    code, doc, _ = run_json(
        capsys,
        "verify", "--engine", "zd", "--d", "1",
        "--graph", cycle_file(8), "--radius", "2",
    )
    assert code == 0
    assert doc["accepted"] is True and doc["rejection"] is None


def test_verify_rejects_short_cycle(capsys, cycle_file):
    code, doc, _ = run_json(
        capsys,
        "verify", "--engine", "zd", "--d", "1",
        "--graph", cycle_file(5), "--radius", "2",
    )
    assert code == 1
    assert doc["accepted"] is False
    assert doc["rejection"]["vertex"] == 0


def test_verify_large_balls_give_a_verdict(capsys, tmp_path):
    # 1,105-vertex balls once ended in RecursionError, exit 4.  The 47-wide
    # torus is one short of 2r+2, so every ball wraps and vertex 0 fails.
    path = tmp_path / "t47x48.graph"
    path.write_text(render_graph(torus_grid(47, 48)))
    code, doc, _ = run_json(
        capsys,
        "verify", "--engine", "zd", "--d", "2",
        "--graph", str(path), "--radius", "23",
    )
    assert code == 1
    assert doc["rejection"]["vertex"] == 0 and doc["classes"] == []


def test_verify_stops_at_the_key_cap_on_the_s10_three_ball(capsys, tmp_path):
    # Vertex 0 of the ball's own graph matches, so verify computes the
    # ball's canonical key; uncapped, that search ran past 60 s.
    code, text, _ = run(
        capsys, "ball", "--preset", "s10", "--radius", "3", "--format", "text"
    )
    assert code == 0
    lines = text.splitlines(keepends=True)
    path = tmp_path / "s10r3.graph"
    path.write_text("".join(lines[:int(lines[0].split()[1]) + 1]))
    src = str(Path(lml.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "lml", "verify", "--preset", "s10",
         "--radius", "3", "--graph", str(path)],
        capture_output=True, text=True, timeout=30,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith(
        "error: canonical-key search of a 527-vertex ball reached "
        f"max_frames={lml.iso.DEFAULT_MAX_FRAMES} frames opened; "
        "positions placed: "
    )


def test_verify_missing_graph_file(capsys, tmp_path):
    code, out, err = run(
        capsys,
        "verify", "--engine", "zd", "--d", "1",
        "--graph", str(tmp_path / "nope.graph"), "--radius", "2",
    )
    assert code == 3 and "error:" in err


def test_reconstruct_cycle_is_ambiguous(capsys, cycle_file):
    code, doc, _ = run_json(
        capsys,
        "reconstruct", "--engine", "zd", "--d", "1",
        "--graph", cycle_file(8), "--radius", "2",
    )
    assert code == 1
    assert doc["outcome"] == "ambiguous_labeling"
    assert doc["ambiguity"]["vertex"] == 0


def test_reconstruct_with_presentation_file(capsys, cycle_file, tmp_path):
    pres = tmp_path / "z.pres"
    pres.write_text("gens x\n")
    code, doc, _ = run_json(
        capsys,
        "reconstruct", "--engine", "zd", "--d", "1",
        "--graph", cycle_file(8), "--radius", "2",
        "--presentation", str(pres),
    )
    assert code == 1 and doc["outcome"] == "ambiguous_labeling"


def test_reconstruct_default_presentations(capsys, tmp_path):
    # BS(1, 1) is Z^2, so the default bs presentation and the zd one see
    # the same torus balls and report the same ambiguity.
    torus = tmp_path / "t.graph"
    torus.write_text(render_graph(torus_grid(6, 6)))
    docs = []
    for engine in (("--m", "1", "--n", "1"), ("--engine", "zd", "--d", "2")):
        code, doc, _ = run_json(
            capsys, "reconstruct", *engine, "--graph", str(torus), "--radius", "2"
        )
        assert code == 1 and doc["outcome"] == "ambiguous_labeling"
        docs.append(doc)
    assert docs[0] == docs[1]
    assert docs[0]["ambiguity"]["disagreement"] == 3
    # The zd default on a Klein grid, as the console-script check runs it.
    klein = tmp_path / "k.graph"
    code, _, _ = run(capsys, "klein", "--w", "8", "--h", "7", "--format", "text",
                     "--out", str(klein))
    assert code == 0
    code, doc, _ = run_json(
        capsys,
        "reconstruct", "--engine", "zd", "--d", "2",
        "--graph", str(klein), "--radius", "3",
    )
    assert code == 1 and doc["outcome"] == "ambiguous_labeling"
    assert doc["ambiguity"]["vertex"] == 0
    assert doc["ambiguity"]["disagreement"] == 3


def test_reconstruct_not_a_model(capsys, cycle_file):
    code, doc, _ = run_json(
        capsys,
        "reconstruct", "--engine", "zd", "--d", "1",
        "--graph", cycle_file(5), "--radius", "2",
    )
    assert code == 1 and doc["outcome"] == "not_a_model"


def test_reconstruct_empty_graph_is_bad_input(capsys, tmp_path):
    path = tmp_path / "empty.graph"
    path.write_text("0 0\n")
    code, out, err = run(
        capsys,
        "reconstruct", "--engine", "zd", "--d", "1",
        "--graph", str(path), "--radius", "2",
    )
    assert code == 3 and out == ""
    assert "graph has no vertices" in err


# ---------------------------------------------------------------------------
# r0 / distance


def test_r0_line_not_found(capsys):
    code, doc, _ = run_json(
        capsys,
        "r0", "--engine", "zd", "--d", "1", "--r", "1", "--bound", "3",
    )
    assert code == 1
    assert doc["r0"] is None
    assert doc["automorphism_counts"] == [
        {"radius": 1, "count": 2},
        {"radius": 2, "count": 2},
        {"radius": 3, "count": 2},
    ]


def test_r0_default_engine_concrete(capsys):
    code, doc, _ = run_json(
        capsys, "r0", "--preset", "s10", "--r", "2", "--bound", "3"
    )
    assert code == 0
    assert doc["r0"] == 3
    assert doc["automorphism_counts"] == [
        {"radius": 2, "count": 2**20},
        {"radius": 3, "count": 2**132},
    ]
    assert len(doc["moving_witnesses"]) == 1


def test_r0_bs_from_radius_three(capsys):
    code, doc, _ = run_json(
        capsys,
        "r0", "--m", "9", "--n", "10", "--preset", "s10",
        "--r", "3", "--bound", "4",
    )
    assert code == 0
    assert doc["r0"] == 4
    assert doc["automorphism_counts"] == [
        {"radius": 3, "count": 2**132},
        {"radius": 4, "count": 2**843},
    ]
    assert [w["radius"] for w in doc["moving_witnesses"]] == [3]


def test_distance_in_default_genset(capsys):
    code, doc, _ = run_json(capsys, "distance", "--word", "b^4")
    assert code == 0
    assert doc == {"schema": 1, "reachable": True, "distance": 4}
    code, doc, _ = run_json(
        capsys, "distance", "--preset", "s10", "--word", "b^4"
    )
    assert code == 0
    assert doc == {"schema": 1, "reachable": True, "distance": 1}


def test_distance_exceeding_budget(capsys):
    code, out, err = run(
        capsys, "distance", "--word", "b^100", "--max-vertices", "50"
    )
    assert code == 2 and "error:" in err


def test_distance_parse_error(capsys):
    code, out, err = run(capsys, "distance", "--word", "q^2")
    assert code == 3 and "error:" in err


def test_distance_exit_codes_tell_unreachable_from_a_crash(
    capsys, monkeypatch
):
    def unreachable(*args):
        raise NotReachableError("not reachable")

    monkeypatch.setattr(cli, "distance", unreachable)
    code, doc, _ = run_json(capsys, "distance", "--word", "b")
    assert code == 1
    assert doc == {"schema": 1, "reachable": False, "distance": None}

    def crash(*args):
        raise ValueError("boom")

    monkeypatch.setattr(cli, "distance", crash)
    code, out, err = run(capsys, "distance", "--word", "b")
    assert code == cli.EXIT_INTERNAL == 4
    assert out == "" and "ValueError: boom" in err


def test_distance_bad_memory_budget_is_bad_input(capsys, monkeypatch):
    monkeypatch.setenv("LML_MAX_MEM", "not-a-number")
    code, out, err = run(capsys, "distance", "--word", "b")
    assert code == 3 and "LML_MAX_MEM" in err


# ---------------------------------------------------------------------------
# cosets / quotients / witness


def test_cosets_cyclic(capsys, tmp_path):
    pres = tmp_path / "z.pres"
    pres.write_text("gens x\nS x | x^-1\n")
    code, doc, _ = run_json(
        capsys,
        "cosets", "--presentation", str(pres), "--subgroup", "x^5",
    )
    assert code == 0
    assert doc["cosets"] == 5
    assert doc["columns"]["x"] == [1, 2, 3, 4, 0]
    assert "schreier" not in doc


def test_cosets_schreier_realization(capsys, tmp_path):
    pres = tmp_path / "z.pres"
    pres.write_text("gens x\nS x | x^-1\n")
    code, doc, _ = run_json(
        capsys,
        "cosets", "--presentation", str(pres),
        "--subgroup", "x^5", "--schreier",
    )
    assert code == 0
    sch = doc["schreier"]
    assert sch["action"]["sigma"] == [[1, 2, 3, 4, 0], [4, 0, 1, 2, 3]]
    assert sch["graph"]["vertex_count"] == 5
    assert sch["loops_dropped"] == 0 and sch["parallels_dropped"] == 0


def test_cosets_infinite_index(capsys, tmp_path):
    pres = tmp_path / "f2.pres"
    pres.write_text("gens a b\n")
    code, out, err = run(
        capsys,
        "cosets", "--presentation", str(pres),
        "--subgroup", "a", "--max-cosets", "100",
    )
    assert code == 2 and "100" in err
    assert "live cosets: 100, coincidences so far: 0" in err


S4_PRESENTATION = "gens a b\nrel a^2\nrel b^4\nrel a b a b a b\n"


def test_cosets_schreier_pairs_an_involution_with_itself(capsys, tmp_path):
    # S spells no a^-1, but a acts on the cosets as its own inverse.
    pres = tmp_path / "s4.pres"
    pres.write_text(S4_PRESENTATION + "S a | b | b^-1 | a b | b^-1 a^-1\n")
    code, doc, _ = run_json(capsys, "cosets", "--presentation", str(pres), "--schreier")
    assert code == 0 and doc["cosets"] == 24
    sch = doc["schreier"]
    assert len(sch["graph"]["edges"]) == 60
    assert sch["loops_dropped"] == 0 and sch["parallels_dropped"] == 0
    pf = parse_presentation(pres.read_text())
    table = todd_coxeter(pf.presentation, [])
    assert coset_genset(table, pf.s_words).inverse_pairing == (0, 2, 1, 4, 3)
    # The default S spells a^-1, which acts like a: the a-edges come twice.
    pres.write_text(S4_PRESENTATION)
    code, doc, _ = run_json(capsys, "cosets", "--presentation", str(pres), "--schreier")
    assert code == 0
    sch = doc["schreier"]
    assert len(sch["graph"]["edges"]) == 36
    assert sch["loops_dropped"] == 0 and sch["parallels_dropped"] == 12
    # No letter acts as b^-1, so S is still refused.
    code, _, err = run(capsys, "cosets", "--presentation", str(pres), "--schreier", "--s", "a | b")
    assert code == 3 and "inverse not present" in err and "(index 1)" in err
    # The enumeration cap is a resource limit.
    code, _, err = run(capsys, "cosets", "--presentation", str(pres), "--max-cosets", "23")
    assert code == 2 and "23" in err
    # x^5 acts as x^-1, which S pairs with x: no involution, so S is refused.
    pres.write_text("gens x\nrel x^6\nS x^5 | x | x^-1\n")
    code, out, err = run(capsys, "cosets", "--presentation", str(pres), "--schreier")
    assert code == 3 and out == ""
    assert "inverse not present in generating set (index 0)" in err


def test_quotients_default_engine(capsys):
    code, doc, _ = run_json(
        capsys, "quotients", "--m", "2", "--n", "3", "--degree", "3"
    )
    assert code == 0
    assert doc["degree"] == 3 and doc["count"] == 1
    assert doc["classes"] == [
        {"degree": 3, "images": [[1, 2, 0], [0, 1, 2]]}
    ]


def test_quotients_match_brute_force(capsys, tmp_path):
    pres = tmp_path / "s3.pres"
    pres.write_text("gens a b\nrel a^2\nrel b^3\nrel a b a b\n")
    code, doc, _ = run_json(
        capsys, "quotients", "--presentation", str(pres), "--degree", "3"
    )
    assert code == 0
    want = brute_hom_classes(
        2, [((0, 2),), ((1, 3),), ((0, 1), (1, 1), (0, 1), (1, 1))], 3
    )
    assert doc["count"] == len(want)
    assert [tuple(tuple(p) for p in c["images"]) for c in doc["classes"]] == want


def test_quotients_stop_at_the_relabelling_cap(capsys, tmp_path):
    # a is trivial, so relabelling the one class branches 325 times.
    pres = tmp_path / "c5.pres"
    pres.write_text("gens a b\nrel a\nrel b^5\n")
    argv = ("quotients", "--presentation", str(pres), "--degree", "5")
    code, out, err = run(capsys, *argv, "--max-nodes", "324")
    assert code == 2 and out == ""
    assert err == (
        "error: least-conjugate search at degree 5 reached max_nodes=324 "
        "branches; classes done: 0 of 1\n"
    )
    code, doc, _ = run_json(capsys, *argv, "--max-nodes", "325")
    assert code == 0 and doc["count"] == 1


def test_witness_scan_all_trivial(capsys):
    code, doc, _ = run_json(
        capsys, "witness", "--m", "2", "--n", "3", "--max-degree", "3"
    )
    assert code == 0
    assert doc["quotient_scan"]["all_trivial"] is True
    assert doc["distance"] == 6


def test_witness_survivor_flips_exit_code(capsys):
    code, doc, _ = run_json(
        capsys,
        "witness", "--m", "2", "--n", "3", "--max-degree", "2",
        "--witness", "a",
    )
    assert code == 1
    assert doc["quotient_scan"]["all_trivial"] is False


def test_witness_reaches_degree_eight(capsys):
    code, doc, _ = run_json(
        capsys, "witness", "--m", "9", "--n", "10", "--max-degree", "8"
    )
    assert code == 0
    scan = doc["quotient_scan"]
    assert [d["classes"] for d in scan["per_degree"]] == [1, 1, 1, 1, 1, 1, 2, 1]
    assert scan["all_trivial"] is True


def test_witness_gcd_flag(capsys):
    code, out, err = run(
        capsys, "witness", "--m", "4", "--n", "6", "--max-degree", "1"
    )
    assert code == 3 and "gcd" in err and "(--gcd-witness)" in err
    code, doc, _ = run_json(
        capsys,
        "witness", "--m", "4", "--n", "6", "--max-degree", "1",
        "--gcd-witness",
    )
    assert code == 0
    assert doc["witness"] == "a b^2 a^-1 b^2 a b^-2 a^-1 b^-2"


def test_witness_degree_zero_is_empty_and_negative_is_bad_input(capsys):
    code, doc, _ = run_json(
        capsys, "witness", "--m", "2", "--n", "3", "--max-degree", "0"
    )
    assert code == 0
    assert doc["quotient_scan"] == {
        "max_degree": 0, "homs_found": 0, "per_degree": [], "all_trivial": True,
    }
    code, out, err = run(
        capsys, "witness", "--m", "2", "--n", "3", "--max-degree", "-1"
    )
    assert code == 3 and out == ""
    assert "max_degree must be >= 0, got -1" in err


@pytest.mark.parametrize("m, n", (("-3", "10"), ("2", "0")))
def test_quotients_refuse_bs_parameters_below_one(capsys, m, n):
    code, out, err = run(
        capsys, "quotients", "--m", m, "--n", n, "--degree", "2"
    )
    assert code == 3 and out == ""
    assert "BS parameters must be positive" in err


def test_node_cap_covers_the_one_search_to_the_top_degree(capsys):
    # The witness scan of BS(4, 6) searches: 2,669 table entries to
    # degree 6.
    argv = ("witness", "--m", "4", "--n", "6", "--gcd-witness",
            "--max-degree", "6")
    code, out, err = run(capsys, *argv, "--max-nodes", "2668")
    assert code == 2 and out == ""
    assert err.startswith(
        "error: low-index search to degree 6 reached max_nodes=2668 table "
        "entries; classes so far: "
    )
    code, doc, _ = run_json(capsys, *argv, "--max-nodes", "2669")
    assert code == 0
    assert doc["quotient_scan"]["homs_found"] == 89


def test_node_cap_stops_the_coprime_construction(capsys):
    argv = ("witness", "--m", "9", "--n", "10", "--max-degree")
    code, doc, _ = run_json(capsys, *argv, "60")
    assert code == 0
    assert doc["quotient_scan"]["all_trivial"] is True
    assert doc["quotient_scan"]["per_degree"][9] == {"degree": 10, "classes": 1}
    code, out, err = run(capsys, *argv, "100000")
    assert code == 2 and out == ""
    assert err == (
        "error: BS(9, 10) quotient construction at degree 811 reached "
        "max_nodes=2000000 table entries; classes so far: 2259\n"
    )


def test_python_dash_m_runs_the_cli(capsys):
    argv = ["witness", "--m", "2", "--n", "3", "--max-degree", "3"]
    src = str(Path(lml.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "lml", *argv],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == run(capsys, *argv)[1]


# ---------------------------------------------------------------------------
# klein / global flags


def test_klein_fixture_text_round_trip(capsys):
    code, doc, _ = run_json(capsys, "klein", "--w", "4", "--h", "3")
    assert code == 0 and doc["vertex_count"] == 12
    code, out, _ = run(
        capsys, "klein", "--w", "4", "--h", "3", "--format", "text"
    )
    assert code == 0
    assert parse_graph(out).vertex_count == 12


def test_klein_degenerate_dimensions(capsys):
    code, out, err = run(capsys, "klein", "--w", "3", "--h", "3")
    assert code == 3 and "error:" in err
    code, out, err = run(capsys, "klein", "--w", "6", "--h", "0")
    assert code == 3 and "height must be at least 1" in err


def test_usage_errors_are_bad_input(capsys):
    code, out, err = run(capsys, "ball", "--radius", "1", "--threads", "0")
    assert code == 3 and "unrecognized arguments: --threads 0" in err
    code, out, err = run(capsys, "verify", "--radius", "2")
    assert code == 3 and "--graph" in err
    code, out, err = run(capsys, "verify", "--help")
    assert code == 0 and "--graph" in out


@pytest.mark.parametrize(
    "argv",
    (
        ("verify", "--graph", "unused.graph", "--radius", "2"),
        ("reconstruct", "--graph", "unused.graph", "--radius", "2"),
        ("r0", "--r", "1", "--bound", "1"),
        ("distance", "--word", "a"),
        ("cosets", "--presentation", "unused.pres"),
        ("quotients", "--degree", "1"),
        ("witness", "--max-degree", "1"),
    ),
)
def test_format_is_refused_where_no_text_form_exists(capsys, argv):
    # Only ball and klein have a text form, so only they take --format.
    code, out, err = run(capsys, *argv, "--format", "text")
    assert code == 3 and out == ""
    assert "unrecognized arguments: --format text" in err


@pytest.mark.parametrize(
    "text, message, line",
    (
        ("gens a b\ngens a\n", "repeated gens line", 2),
        ("# no names\ngens\n", "gens line lists no generators", 2),
        ("gens a b^2\n", "bad generator name 'b^2'", 1),
        ("gens a b|c\n", "bad generator name 'b|c'", 1),
        ("S a\ngens a\n", "S before gens", 1),
        ("gens a b\nS a|b\nS a\n", "repeated S line", 3),
        ("gens a b\nrel a b\nS a|c\n", "bad S word: ", 3),
    ),
)
def test_presentation_file_errors_name_their_line(capsys, tmp_path, text, message, line):
    path = tmp_path / "bad.pres"
    path.write_text(text)
    code, out, err = run(capsys, "quotients", "--presentation", str(path),
                         "--degree", "2")
    assert code == 3 and out == ""
    assert err.startswith(f"error: {message}")
    assert err.endswith(f" (line {line})\n")


@pytest.mark.parametrize(
    "argv",
    (
        ("ball", "--radius", "1", "--max-vertices", "-5"),
        ("ball", "--radius", "1", "--max-vertices", "0"),
        ("ball", "--radius", "1", "--max-vertices", "x"),
        ("quotients", "--degree", "3", "--max-nodes", "-1"),
        ("witness", "--max-degree", "1", "--max-nodes", "0"),
        ("witness", "--max-degree", "1", "--max-vertices", "-2"),
        ("cosets", "--presentation", "unused.pres", "--max-cosets", "-3"),
    ),
)
def test_caps_below_one_are_bad_input(capsys, argv):
    # Exit 2 would claim a resource cap was reached.
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert "expected an integer >= 1" in err


def test_internal_error_has_its_own_exit_code(capsys, monkeypatch):
    def crash(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_klein", crash)
    code, out, err = run(capsys, "klein", "--w", "4", "--h", "3")
    assert code == cli.EXIT_INTERNAL == 4
    assert out == ""
    assert "Traceback" in err and "RuntimeError: boom" in err


def test_max_mem_budget(capsys, monkeypatch):
    monkeypatch.setenv("LML_MAX_MEM", "600")
    code, out, err = run(capsys, "ball", "--radius", "1")
    assert code == 2 and "max_vertices=1" in err
    # An explicit cap beats the environment budget.
    code, doc, _ = run_json(
        capsys, "ball", "--radius", "1", "--max-vertices", "100"
    )
    assert code == 0 and doc["vertex_count"] == 5
    monkeypatch.setenv("LML_MAX_MEM", "not-a-number")
    code, out, err = run(capsys, "ball", "--radius", "1")
    assert code == 3 and "LML_MAX_MEM" in err
    for budget in ("0", "-5"):
        monkeypatch.setenv("LML_MAX_MEM", budget)
        code, out, err = run(capsys, "ball", "--radius", "1")
        assert code == 3 and out == "" and "LML_MAX_MEM must be positive" in err


def test_byte_identical_reruns(capsys):
    first = run(capsys, "witness", "--m", "2", "--n", "3", "--max-degree", "3")
    second = run(capsys, "witness", "--m", "2", "--n", "3", "--max-degree", "3")
    assert first == second
    runs = {
        run(capsys, "ball", "--preset", "s10", "--radius", "2")[1]
        for _ in range(2)
    }
    assert len(runs) == 1
