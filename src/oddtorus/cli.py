"""Command-line interface.

Subcommands: gen, colour, verify, chi-odd, discharge, info.

Exit codes (stable contract):
    0  success / all requested checks verified
    1  verification or construction failure
    2  input, parse, or parameter error
    3  IO failure
    4  search budget or recursion depth exceeded

Charge amounts always print as exact rationals "p/q", never as decimal
floats.  For T(m,n,t) outputs the grid coordinate (i,j) is printed
alongside each flat vertex id mentioned.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from . import construct, discharge, graphio, solver, torus
from .colouring import (
    conflict_free_witness,
    nice_verdict,
    odd_witness,
    proper_witness,
)
from .embedding import _surface
from .errors import (
    ConstructionFailedError,
    DisconnectedGraphError,
    GraphFileError,
    NotSimpleError,
    ResourceLimitError,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_IO = 3
EXIT_BUDGET = 4


def _rat(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _write_output(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise GraphFileError(f"{path} is not UTF-8 text: {exc}") from None


def _load_graph(path: str):
    return graphio.parse_graph(_read_text(path))


def _params(args) -> torus.TorusParams:
    return torus.TorusParams(args.m, args.n, args.t)


def cmd_gen(args) -> int:
    try:
        p = _params(args)
        g = torus.generate(p)
    except (ValueError, NotSimpleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        _write_output(args.out, graphio.write_graph(g))
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    print(
        f"T{p}: {g.vertex_count} vertices, {g.edge_count} edges;"
        f" vertex (i,j) has flat id (i-1)*{p.n} + j",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_colour(args) -> int:
    try:
        p = _params(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        c = construct.colour_torus(p)
    except NotSimpleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ConstructionFailedError as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return EXIT_FAIL
    try:
        _write_output(args.out, graphio.write_colouring(c))
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO

    # colour_torus verified the colouring nice or raised above.
    if p.m >= 2:
        for v, colour in sorted(construct.repairs(p).items()):
            i, j = torus.vertex_coords(p, v)
            old = construct.base_colour(p.m, p.n, i, j)
            print(f"recoloured vertex {v} = ({i},{j}): {old} -> {colour}")
    else:
        for v in sorted(c.assignment):
            i, j = torus.vertex_coords(p, v)
            print(f"vertex {v} = ({i},{j}): colour {c[v]}")
    print("nice: yes")
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        g = _load_graph(args.graph)
        c = graphio.parse_colouring(_read_text(args.colouring), graph=g)
    except (OSError, GraphFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    edge = proper_witness(g, c)
    print(f"proper: {'yes' if edge is None else f'no (edge {edge})'}")
    v = odd_witness(g, c)
    print(f"odd: {'yes' if v is None else f'no (vertex {v})'}")
    # nice implies proper and odd, so its verdict alone decides the exit code
    witness = nice_verdict(c, edge, v)
    print(f"nice: {'yes' if witness is None else f'no ({witness})'}")
    ok = witness is None
    if args.conflict_free:
        v = conflict_free_witness(g, c)
        print(f"conflict-free: {'yes' if v is None else f'no (vertex {v})'}")
        ok &= v is None
    return EXIT_OK if ok else EXIT_FAIL


def cmd_chi_odd(args) -> int:
    try:
        g = _load_graph(args.graph)
    except (OSError, GraphFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    # The search is single-threaded and deterministic either way; the
    # flag is accepted to keep the interface contract stable.
    try:
        result = solver.chi_odd(g, args.max_k, node_budget=args.budget)
    except ResourceLimitError as exc:
        print("budget exceeded")
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    if result is None:
        print(f"none <= {args.max_k}")
    else:
        print(f"chi_odd = {result}")
    return EXIT_OK


def cmd_discharge(args) -> int:
    try:
        g = _load_graph(args.graph)
        before = discharge.initial_charges(g)
    except (OSError, GraphFileError, DisconnectedGraphError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    after = discharge.apply_rules(g, before)
    report = discharge.audit(before, after)
    print(f"total before: {_rat(report.total_before)}")
    print(f"total after: {_rat(report.total_after)}")
    print(f"conserved: {'yes' if report.conserved else 'no'}")
    print(f"negative faces: {list(report.negative_faces)}")
    print(f"negative 6+-vertices: {list(report.negative_six_plus_vertices)}")
    print(f"5-vertices with final charge <= 0: {list(report.nonpositive_five_vertices)}")
    return EXIT_OK if report.conserved else EXIT_FAIL


def cmd_info(args) -> int:
    try:
        g = _load_graph(args.graph)
    except (OSError, GraphFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    print(f"vertices: {g.vertex_count}")
    print(f"edges: {g.edge_count}")
    histogram: dict[int, int] = {}
    for v in g.vertices():
        histogram[g.degree(v)] = histogram.get(g.degree(v), 0) + 1
    print("degree histogram:", " ".join(f"{d}:{histogram[d]}" for d in sorted(histogram)))
    print(f"edge bound E <= 3V: {'yes' if g.edge_count <= 3 * g.vertex_count else 'no'}")
    if not g.is_connected():
        print("connected: no (Euler characteristic undefined per component contract)")
        return EXIT_OK
    print("connected: yes")
    face_count, chi, triangulation = _surface(g)
    print(f"faces: {face_count}")
    print(f"euler characteristic: {chi}")
    print(f"6-regular torus triangulation: {'yes' if triangulation else 'no'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oddtorus",
        description="Odd colourings of graphs on the torus: generate, colour, "
        "verify, search, discharge.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate T(m,n,t) as a graph file")
    gen.add_argument("--m", type=int, required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--t", type=int, required=True)
    gen.add_argument("--out", help="output path (stdout if omitted)")
    gen.set_defaults(func=cmd_gen)

    col = sub.add_parser("colour", help="construct a nice colouring of T(m,n,t)")
    col.add_argument("--m", type=int, required=True)
    col.add_argument("--n", type=int, required=True)
    col.add_argument("--t", type=int, required=True)
    col.add_argument("--out", help="output path (stdout if omitted)")
    col.set_defaults(func=cmd_colour)

    ver = sub.add_parser("verify", help="check proper/odd/nice for a colouring file")
    ver.add_argument("graph")
    ver.add_argument("colouring")
    ver.add_argument("--conflict-free", action="store_true")
    ver.set_defaults(func=cmd_verify)

    chi = sub.add_parser("chi-odd", help="exact odd chromatic number")
    chi.add_argument("graph")
    chi.add_argument("--max-k", type=int, default=9)
    chi.add_argument("--budget", type=int, default=None, help="search node budget")
    chi.add_argument(
        "--deterministic",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="deterministic search (always on in this implementation)",
    )
    chi.set_defaults(func=cmd_chi_odd)

    dis = sub.add_parser("discharge", help="run R1-R4 and audit the charge ledger")
    dis.add_argument("graph")
    dis.set_defaults(func=cmd_discharge)

    info = sub.add_parser("info", help="surface diagnostics for a graph file")
    info.add_argument("graph")
    info.set_defaults(func=cmd_info)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
