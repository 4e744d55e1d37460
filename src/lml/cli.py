"""Command-line surface: reproducible experiments with JSON outputs.

Exit codes: 0 success/accept, 1 checked negative (reject, ambiguous,
violation, not found), 2 resource limit, 3 input error, 4 internal error
(an uncaught exception; the traceback goes to stderr).  All output is
deterministic: identical inputs give byte-identical bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .balls import (
    DEFAULT_MAX_VERTICES,
    NotReachableError,
    cayley_ball,
    distance,
    parse_graph,
    render_graph,
    render_rooted_ball,
    sphere_sizes,
)
from .cosets import (
    DEFAULT_MAX_COSETS,
    DEFAULT_MAX_NODES,
    coset_genset,
    enumerate_homs,
    schreier_from_table,
    todd_coxeter,
    witness_report,
)
from .fixtures import fixture_klein
from .localmodel import fixing_radius, verify_model
from .reconstruct import reconstruct
from .words import (
    BaumslagSolitarEngine,
    FreeAbelianEngine,
    FreeEngine,
    LmlError,
    Presentation,
    ResourceLimitError,
    S10_TEXTS,
    bs_presentation,
    parse_presentation,
    parse_word,
    validate_genset,
    word,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_RESOURCE = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4

# bytes per ball vertex assumed when translating LML_MAX_MEM into a cap
_BYTES_PER_VERTEX = 500


def _cap(text):
    """argparse type for a resource cap: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 1, got {text!r}"
        )
    return value


def _axis_names(d):
    if d <= 3:
        return ("x", "y", "z")[:d]
    return tuple(f"x{i + 1}" for i in range(d))


def _make_engine(args):
    kind = getattr(args, "engine", "bs")
    if kind == "bs":
        return BaumslagSolitarEngine(args.m, args.n)
    if kind == "zd":
        return FreeAbelianEngine(_axis_names(args.d))
    if kind == "free":
        return FreeEngine(_axis_names(args.d))
    raise ValueError(f"unknown engine {kind!r}")


def _default_presentation(args, engine):
    kind = getattr(args, "engine", "bs")
    if kind == "bs":
        return bs_presentation(args.m, args.n)
    names = engine.alphabet
    relators = []
    if kind == "zd":
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                relators.append(word(((i, 1), (j, 1), (i, -1), (j, -1))))
    return Presentation(names, tuple(relators))


def _s_words(args, engine, s_words=None):
    """S from --preset, --s or s_words, else the generators and inverses."""
    preset = getattr(args, "preset", None)
    if preset == "s10":
        if engine.kind != "bs":
            raise ValueError("--preset s10 needs --engine bs")
        return [parse_word(t, engine.alphabet) for t in S10_TEXTS]
    if getattr(args, "s", None):
        return [parse_word(p, engine.alphabet) for p in args.s.split("|")]
    if s_words:
        return list(s_words)
    return [word(((g, e),)) for g in range(len(engine.alphabet)) for e in (1, -1)]


def _make_genset(args, engine):
    return validate_genset(engine, _s_words(args, engine))


def _max_vertices(args):
    flag = getattr(args, "max_vertices", None)
    if flag is not None:
        return flag
    env = os.environ.get("LML_MAX_MEM")
    if env:
        try:
            budget = int(env)
        except ValueError:
            raise ValueError(f"LML_MAX_MEM must be an integer byte count, got {env!r}")
        if budget <= 0:
            raise ValueError("LML_MAX_MEM must be positive")
        return max(1, min(DEFAULT_MAX_VERTICES, budget // _BYTES_PER_VERTEX))
    return DEFAULT_MAX_VERTICES


def _emit(args, obj, text=None):
    if text is not None and args.format == "text":
        payload = text
    else:
        payload = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _read(path):
    with open(path) as fh:
        return fh.read()


def _ball_jsonable(ball, engine):
    return {
        "schema": 1,
        "vertex_count": ball.vertex_count,
        "radius": ball.radius,
        "root": 0,
        "dist": list(ball.dist),
        "edges": [list(e) for e in ball.edges],
        "sphere_sizes": list(sphere_sizes(ball)),
        "labels": [w.render(engine.alphabet) for w in ball.element_labels],
    }


def cmd_ball(args):
    engine = _make_engine(args)
    genset = _make_genset(args, engine)
    ball = cayley_ball(engine, genset, args.radius, _max_vertices(args))
    _emit(args, _ball_jsonable(ball, engine), text=render_rooted_ball(ball))
    return EXIT_OK


def cmd_verify(args):
    engine = _make_engine(args)
    genset = _make_genset(args, engine)
    graph = parse_graph(_read(args.graph))
    verdict = verify_model(graph, engine, genset, args.radius, _max_vertices(args))
    _emit(args, verdict.to_jsonable())
    return EXIT_OK if verdict.accepted else EXIT_NEGATIVE


def cmd_reconstruct(args):
    engine = _make_engine(args)
    genset = _make_genset(args, engine)
    if args.presentation:
        pres = parse_presentation(_read(args.presentation)).presentation
    else:
        pres = _default_presentation(args, engine)
    graph = parse_graph(_read(args.graph))
    result = reconstruct(
        graph, engine, genset, pres, args.radius, _max_vertices(args)
    )
    _emit(args, result.to_jsonable(alphabet=pres.generators))
    return EXIT_OK if result.succeeded else EXIT_NEGATIVE


def cmd_r0(args):
    engine = _make_engine(args)
    genset = _make_genset(args, engine)
    report = fixing_radius(engine, genset, args.r, args.bound, _max_vertices(args))
    _emit(args, report.to_jsonable())
    return EXIT_OK if report.found else EXIT_NEGATIVE


def cmd_distance(args):
    engine = _make_engine(args)
    genset = _make_genset(args, engine)
    target = parse_word(args.word, engine.alphabet)
    cap = _max_vertices(args)
    try:
        d = distance(engine, genset, target, cap)
    except NotReachableError:
        _emit(args, {"schema": 1, "reachable": False, "distance": None})
        return EXIT_NEGATIVE
    except ValueError as err:
        # The input is checked above, so this is a defect, not bad input.
        raise RuntimeError(f"distance failed: {err}") from err
    _emit(args, {"schema": 1, "reachable": True, "distance": d})
    return EXIT_OK


def cmd_cosets(args):
    pf = parse_presentation(_read(args.presentation))
    pres = pf.presentation
    subgroup = []
    if args.subgroup:
        subgroup = [
            parse_word(p, pres.generators) for p in args.subgroup.split("|")
        ]
    table = todd_coxeter(pres, subgroup, args.max_cosets)
    obj = table.to_jsonable()
    if args.schreier:
        ws = _s_words(args, FreeEngine(pres.generators), pf.s_words)
        realization = schreier_from_table(table, coset_genset(table, ws))
        obj["schreier"] = realization.to_jsonable()
    _emit(args, obj)
    return EXIT_OK


def cmd_quotients(args):
    if args.presentation:
        pres = parse_presentation(_read(args.presentation)).presentation
    else:
        pres = bs_presentation(args.m, args.n)
    homs = enumerate_homs(pres, args.degree, args.max_nodes)
    obj = {
        "schema": 1,
        "degree": args.degree,
        "count": len(homs),
        "classes": [
            {"degree": h.cosets, "images": [list(p) for p in h.forward]}
            for h in homs
        ],
    }
    _emit(args, obj)
    return EXIT_OK


def cmd_witness(args):
    engine = BaumslagSolitarEngine(args.m, args.n)
    witness = None
    if args.witness:
        witness = parse_word(args.witness, engine.alphabet)
    report = witness_report(
        args.m,
        args.n,
        args.max_degree,
        witness=witness,
        gcd_witness=args.gcd_witness,
        max_nodes=args.max_nodes,
        max_explored=_max_vertices(args),
    )
    _emit(args, report.to_jsonable())
    return EXIT_OK if report.all_trivial else EXIT_NEGATIVE


def cmd_klein(args):
    graph = fixture_klein(args.w, args.h)
    obj = {
        "schema": 1,
        "vertex_count": graph.vertex_count,
        "edges": [list(e) for e in graph.edges],
    }
    _emit(args, obj, text=render_graph(graph))
    return EXIT_OK


def _add_common(p, text=False):
    p.add_argument("--out", help="write output to this file instead of stdout")
    if text:
        p.add_argument("--format", choices=("json", "text"), default="json")


def _add_engine(p):
    p.add_argument("--engine", choices=("bs", "zd", "free"), default="bs")
    p.add_argument("--m", type=int, default=9)
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--d", type=_cap, default=1)
    s = p.add_mutually_exclusive_group()
    s.add_argument("--s", help="generating set: words separated by |")
    s.add_argument("--preset", choices=("s10",),
                   help="s10: the 10-element BS generating set")
    p.add_argument("--max-vertices", type=_cap, dest="max_vertices")


def build_parser():
    top = argparse.ArgumentParser(
        prog="lml", description="Local models of Cayley graphs"
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ball", help="ball around the identity in Cay(G, S)")
    _add_engine(p)
    _add_common(p, text=True)
    p.add_argument("--radius", type=int, required=True)
    p.set_defaults(handler=cmd_ball)

    p = sub.add_parser("verify", help="is the graph a perfect r-local model?")
    _add_engine(p)
    _add_common(p)
    p.add_argument("--graph", required=True, help="graph file (`n m` header)")
    p.add_argument("--radius", type=int, required=True)
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("reconstruct", help="recover the Schreier structure")
    _add_engine(p)
    _add_common(p)
    p.add_argument("--graph", required=True)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--presentation", help="presentation file overriding the default")
    p.set_defaults(handler=cmd_reconstruct)

    p = sub.add_parser("r0", help="scan for the fixing radius")
    _add_engine(p)
    _add_common(p)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--bound", type=int, required=True)
    p.set_defaults(handler=cmd_r0)

    p = sub.add_parser("distance", help="d(identity, w) in Cay(G, S)")
    _add_engine(p)
    _add_common(p)
    p.add_argument("--word", required=True)
    p.set_defaults(handler=cmd_distance)

    p = sub.add_parser("cosets", help="Todd-Coxeter coset enumeration")
    _add_common(p)
    p.add_argument("--presentation", required=True)
    p.add_argument("--subgroup", help="subgroup generators separated by |")
    p.add_argument("--max-cosets", type=_cap, default=DEFAULT_MAX_COSETS)
    p.add_argument("--schreier", action="store_true",
                   help="include the Schreier realization over S")
    p.add_argument("--s", help="S for --schreier: words separated by |")
    p.set_defaults(handler=cmd_cosets)

    p = sub.add_parser("quotients", help="transitive permutation quotients")
    _add_common(p)
    p.add_argument("--presentation")
    p.add_argument("--m", type=int, default=9)
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--max-nodes", type=_cap, default=DEFAULT_MAX_NODES,
                   help="cap on the coset-table entries the low-index "
                   "search tries")
    p.set_defaults(handler=cmd_quotients)

    p = sub.add_parser("witness", help="witness element report for BS(m, n)")
    _add_common(p)
    p.add_argument("--m", type=int, default=9)
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--witness", help="explicit witness word over a, b")
    p.add_argument("--gcd-witness", action="store_true")
    p.add_argument("--max-nodes", type=_cap, default=DEFAULT_MAX_NODES,
                   help="cap on the coset-table entries built when "
                   "gcd(m, n) = 1, else tried by the low-index search")
    p.add_argument("--max-vertices", type=_cap, dest="max_vertices")
    p.set_defaults(handler=cmd_witness)

    p = sub.add_parser("klein", help="Klein-bottle grid fixture")
    _add_common(p, text=True)
    p.add_argument("--w", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    p.set_defaults(handler=cmd_klein)

    return top


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as done:
        # argparse exits 2 on a usage error, but 2 means a resource cap here.
        return EXIT_INPUT if done.code == 2 else done.code
    try:
        return args.handler(args)
    except ResourceLimitError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_RESOURCE
    except (LmlError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except Exception:
        # A crash must not read as exit 1, the clean negative verdict.
        import traceback  # only needed on this path

        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
