"""Each operation's JSON artifact is the one the lml CLI writes.

One seeded input per workload that has a CLI command is run through the
benchmark's call and through lml.cli.main in-process with --out; the
bytes must be identical, so the benchmark measures what CLI users get.
"""

import run
from lml.balls import render_graph
from lml.cli import main
from workloads import WORKLOADS, lattice_law

SEED = 7


def _workload(name):
    workload = WORKLOADS[name]()
    workload.setup(run.lml_layers(), SEED)
    return workload


def _cli_bytes(tmp_path, argv):
    out = tmp_path / "artifact.json"
    code = main(argv + ["--out", str(out)])
    return code, out.read_bytes()


def _bench_bytes(workload, op):
    result = workload.call(op)
    assert workload.check(op, result)
    return workload.artifact(result)


def test_verify_matches_cli(tmp_path):
    workload = _workload("verify-lattice")
    block = workload.pool()[0]
    # The two cheapest seeded grids: one accepted, one rejected.
    by_size = sorted(block, key=lambda op: op.spec[1] * op.spec[2] * op.spec[3] ** 2)
    accepted = next(op for op in by_size if lattice_law(*op.spec[:4]))
    rejected = next(op for op in by_size if not lattice_law(*op.spec[:4]))
    for op in (accepted, rejected):
        graph_file = tmp_path / "grid.graph"
        graph_file.write_text(render_graph(op.inputs))
        code, cli = _cli_bytes(tmp_path, [
            "verify", "--engine", "zd", "--d", "2",
            "--graph", str(graph_file), "--radius", str(op.spec[3]),
        ])
        assert cli == _bench_bytes(workload, op)
        assert code == (0 if op is accepted else 1)


def test_r0_matches_cli(tmp_path):
    workload = _workload("r0-bs")
    op = workload.pool()[0][0]
    code, cli = _cli_bytes(tmp_path, [
        "r0", "--engine", "bs", "--m", "9", "--n", "10",
        "--s", "|".join(op.spec), "--r", "2", "--bound", "3",
    ])
    assert code == 0
    assert cli == _bench_bytes(workload, op)


def test_witness_matches_cli(tmp_path):
    pair = (9, 10)  # the cheapest pair
    workload = _workload("witness-bs")
    op = next(op for op in workload.pool()[0] if op.spec == pair)
    code, cli = _cli_bytes(tmp_path, [
        "witness", "--m", str(pair[0]), "--n", str(pair[1]), "--max-degree", "6",
    ])
    assert code == 0
    assert cli == _bench_bytes(workload, op)
