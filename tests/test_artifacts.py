"""Golden digests: the JSON artifacts stay byte-identical across versions.

Each builder produces the exact bytes the CLI writes for one run (stdout
of `lml verify` / `lml r0` / `lml cosets` / `lml quotients` /
`lml witness`, or the `reconstruct` document serialized the way the CLI
serializes it), and the test pins its sha256 together with the exit code.
A change that alters a witness mapping, a rejection vertex or reason, an
automorphism count, a recovered presentation, a coset numbering or a
quotient class fails here.
"""

import hashlib
import json

import pytest
from conftest import ROUND_TRIP_FIXTURES

from lml.balls import FiniteGraph, cayley_ball, render_graph
from lml.cli import main
from lml.fixtures import fixture_klein, torus_grid
from lml.reconstruct import reconstruct


def torus_with_twist(w, h, i, j):
    """The w x h torus with the two vertical edges leaving (i, j) and
    (i + 1, j) crossed over; 4-regular, and a non-model only near them."""
    a, b = j * w + i, j * w + i + 1
    a2, b2 = ((j + 1) % h) * w + i, ((j + 1) % h) * w + i + 1
    old = {tuple(sorted(e)) for e in ((a, a2), (b, b2))}
    new = {tuple(sorted(e)) for e in ((a, b2), (b, a2))}
    edges = (set(torus_grid(w, h).edges) - old) | new
    return FiniteGraph(w * h, tuple(sorted(edges)))


def relabelled(graph, a):
    """graph with vertex v renamed v * a mod n (a coprime to n)."""
    n = graph.vertex_count
    edges = (sorted(((u * a) % n, (v * a) % n)) for u, v in graph.edges)
    return FiniteGraph(n, tuple(tuple(e) for e in edges))


VERIFY_CASES = {
    "torus-8x8-r3": (torus_grid(8, 8), 3),
    "klein-10x5-relabelled-r2": (relabelled(fixture_klein(10, 5), 7), 2),
    "klein-8x6-r3": (fixture_klein(8, 6), 3),
    "twisted-torus-9x9-r2": (torus_with_twist(9, 9, 4, 5), 2),
}

GOLDEN = {
    "verify:torus-8x8-r3": (
        0, "d0c3936d7e3137549f1555b93e8aeba9f84246a0ba6e1a6b96e2ec527aff1776"
    ),
    "verify:klein-10x5-relabelled-r2": (
        0, "002ae4757e5b2e1e8bc28988f736a6335a43c868f503a17981255d4ac85d1548"
    ),
    "verify:klein-8x6-r3": (
        1, "c3f694bd66ab4540b8f1b2f0347beaae12944fd59ed74fa10f07511316a7d09a"
    ),
    "verify:twisted-torus-9x9-r2": (
        1, "cd5da79d542f21bd6d571d89e8e35ed263311c96b6dd59eef1ecc9d5c0b170f3"
    ),
    "r0:s10-r2-bound3": (
        0, "6bdfacbae322e07e6438598621928dfae4deff9689effe32d2c22edfa98c3126"
    ),
    "reconstruct:S4-r2": (
        0, "0820d8c6ae2a25e25d2c74f0e6a17fd7cb9fedb1b7743cd0851cab4111559a5f"
    ),
    "reconstruct:F21-r2": (
        0, "63f6340cc485a5b9cddcff02602c86cecbd05a2e87c9c85bf42cf15cbaeef32f"
    ),
    "reconstruct:F42-r2": (
        0, "596c519829dc81900bca838479373f972a1ddc59c111397a3918aa33795eba3c"
    ),
    "cosets:S4-schreier": (
        0, "f62ab569ec5704c2aac4d42c1d0e1f7cdb95c1041806e640395ab6ca923ce960"
    ),
    "cosets:F21-schreier": (
        0, "de7258d477ffd8ccfa038e1af351232b54a01944f29d05f36c3b5417b9688154"
    ),
    "cosets:F42-schreier": (
        0, "fe09e7b9cf02b51bc70db8e398396bd9ccdef4e51b6638d7c20ea390201678e6"
    ),
    "cosets:F42-subgroup-b2": (
        0, "6a137f54e00ad94e08ebabbe9aac3488c358e847f025f22f9a934a5d1423f987"
    ),
    "quotients:bs-3-5-degree6": (
        0, "e95382322454f1dd011454b8daebabdd02eec8dd293f4bc9b629ce07a1773b36"
    ),
    "witness:bs-3-5-max-degree6": (
        0, "3f8b92d0fdb9e35a5c8b96edbe0728da096bf397a5bbb145c261b5a384619e79"
    ),
    "witness:bs-9-10-max-degree8": (
        0, "dce1ed5a3f87bc5cf53d335649488eb857b09734d91c695bbf02da7828e2cb00"
    ),
}


def cli_bytes(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out.encode()


def presentation_file(tmp_path, fixture):
    """The fixture's presentation and S in the `gens` / `rel` / `S` format."""
    lines = ["gens a b"] + [f"rel {t}" for t in fixture.relator_texts]
    lines.append("S " + " | ".join(fixture.s_texts))
    path = tmp_path / f"{fixture.name}.pres"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def artifact(name, capsys, tmp_path):
    kind, case = name.split(":")
    if kind == "cosets":
        # Coincidences: 3, 5 and 51 in the whole-group enumerations of S4,
        # F21 and F42, and 27 in F42's enumeration of <b^2> (index 14).
        group, mode = case.split("-", 1)
        fixture = next(f for f in ROUND_TRIP_FIXTURES if f.name == group)
        flags = ["--schreier"] if mode == "schreier" else ["--subgroup", "b^2"]
        return cli_bytes(
            capsys, "cosets", "--presentation",
            presentation_file(tmp_path, fixture), *flags,
        )
    if kind == "quotients":
        return cli_bytes(
            capsys, "quotients", "--m", "3", "--n", "5", "--degree", "6"
        )
    if kind == "witness":
        # README's own example, bs-9-10-max-degree8, and a smaller pair.
        _, m, n, degree = case.split("-", 3)
        return cli_bytes(
            capsys, "witness", "--m", m, "--n", n,
            "--max-degree", degree.removeprefix("max-degree"),
        )
    if kind == "verify":
        graph, radius = VERIFY_CASES[case]
        path = tmp_path / f"{case}.graph"
        path.write_text(render_graph(graph))
        return cli_bytes(
            capsys, "verify", "--engine", "zd", "--d", "2",
            "--graph", str(path), "--radius", str(radius),
        )
    if kind == "r0":
        return cli_bytes(
            capsys, "r0", "--preset", "s10", "--r", "2", "--bound", "3"
        )
    fixture = next(f for f in ROUND_TRIP_FIXTURES if f"{f.name}-r2" == case)
    engine, genset = fixture.engine(), fixture.genset()
    ball = cayley_ball(engine, genset, 10)
    graph = FiniteGraph(ball.vertex_count, ball.edges)
    pres = fixture.presentation()
    res = reconstruct(graph, engine, genset, pres, 2)
    doc = res.to_jsonable(alphabet=pres.generators)
    return 0 if res.succeeded else 1, (
        json.dumps(doc, sort_keys=True, indent=2) + "\n"
    ).encode()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifact_digest_is_pinned(name, capsys, tmp_path):
    code, payload = artifact(name, capsys, tmp_path)
    assert (code, hashlib.sha256(payload).hexdigest()) == GOLDEN[name]
