"""Command-line interface.

Subcommands: gen, colour, verify, chi-odd, discharge, info.

Exit codes (stable contract):
    0  success / all requested checks verified
    1  verification failure, or ConstructionFailedError
    2  input, parse, or parameter error: GraphFileError (an unreadable or
       undecodable input file included), NotSimpleError,
       DisconnectedGraphError, ParameterError
    3  IO failure: any other OSError, i.e. a failed write to --out or stdout
    4  search budget or recursion depth exceeded: ResourceLimitError

Subcommands return 0 or 1 and raise everything else; main alone maps
the exceptions above to codes 1-4.  Any other exception is a bug and
keeps its traceback.

main pauses the cyclic garbage collector while it serves the request
and then restores the state its caller had.  The graph, faces, charge
ledgers and colourings a request builds hold no reference cycles, so
reference counting frees them; the collector would only walk them again
and again as they grow (580 collections, 4 of them full, in a
T(150,150,7) discharge under Python 3.11).  The solver breaks the cycle
of its recursive search on every exit.  main builds its argument parser
on the first call and reuses it for every later call in the process, so
after the first call a request leaves no cycle for the collector.  It
finds the subcommand's cmd_* function by name when the request runs and
reads CHI_ODD_DEFAULT_BUDGET then, so replacing either on this module
between calls takes effect on the next one.

chi-odd searches at most CHI_ODD_DEFAULT_BUDGET nodes per k unless
--budget names another budget; an unbounded search is never the
default.

Charge amounts always print as exact rationals "p/q", never as decimal
floats.  For T(m,n,t) outputs the grid coordinate (i,j) is printed
alongside each flat vertex id mentioned.
"""

from __future__ import annotations

import argparse
import functools
import gc
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
    ParameterError,
    ResourceLimitError,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_IO = 3
EXIT_BUDGET = 4

#: chi-odd's node budget per k when --budget is not given: about 13 s of
#: search per k at the 740k nodes/s of the benchmark's traced exact-solve
#: run on a 2-vCPU Xeon VM.
CHI_ODD_DEFAULT_BUDGET = 10_000_000


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
    except OSError as exc:  # an unreadable input is an input error
        raise GraphFileError(str(exc)) from None


def _load_graph(path: str):
    return graphio.parse_graph(_read_text(path))


def cmd_gen(args) -> int:
    p = torus.TorusParams(args.m, args.n, args.t)
    g = torus.generate(p)
    _write_output(args.out, graphio.write_graph(g))
    print(
        f"T{p}: {g.vertex_count} vertices, {g.edge_count} edges;"
        f" vertex (i,j) has flat id (i-1)*{p.n} + j",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_colour(args) -> int:
    p = torus.TorusParams(args.m, args.n, args.t)
    c = construct.colour_torus(p)
    _write_output(args.out, graphio.write_colouring(c))
    # colour_torus verified the colouring nice or raised above.  Without
    # --out, stdout carries the colouring and the report goes to stderr.
    # The report is written in one call: for m = 1 it has a line per vertex.
    report = sys.stderr if args.out is None else sys.stdout
    lines = []
    if p.m >= 2:
        for v, colour in sorted(construct.repairs(p).items()):
            i, j = torus.vertex_coords(p, v)
            old = construct.base_colour(p.m, p.n, i, j)
            lines.append(f"recoloured vertex {v} = ({i},{j}): {old} -> {colour}\n")
    else:
        for v, colour in sorted(c.assignment.items()):
            i, j = torus.vertex_coords(p, v)
            lines.append(f"vertex {v} = ({i},{j}): colour {colour}\n")
    lines.append("nice: yes\n")
    report.write("".join(lines))
    return EXIT_OK


def cmd_verify(args) -> int:
    g = _load_graph(args.graph)
    c = graphio.parse_colouring(_read_text(args.colouring), graph=g)
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
    g = _load_graph(args.graph)
    # The search is single-threaded and deterministic either way; the
    # flag is accepted to keep the interface contract stable.
    result = solver.chi_odd(g, args.max_k, node_budget=args.budget)
    if result is None:
        print(f"none <= {args.max_k}")
    else:
        print(f"chi_odd = {result}")
    return EXIT_OK


def cmd_discharge(args) -> int:
    g = _load_graph(args.graph)
    before = discharge.initial_charges(g)
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
    g = _load_graph(args.graph)
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


def _set_default_budget(budget: argparse.Action) -> None:
    budget.default = CHI_ODD_DEFAULT_BUDGET
    budget.help = f"search node budget per k (default {CHI_ODD_DEFAULT_BUDGET:,})"


def _build_parser() -> tuple[argparse.ArgumentParser, argparse.Action]:
    """The parser and its chi-odd --budget action."""
    parser = argparse.ArgumentParser(
        prog="oddtorus",
        description="Odd colourings of graphs on the torus: generate, colour, "
        "verify, search, discharge.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, help_text in (
        ("gen", "generate T(m,n,t) as a graph file"),
        ("colour", "construct a nice colouring of T(m,n,t)"),
        ("verify", "check proper/odd/nice for a colouring file"),
        ("chi-odd", "exact odd chromatic number"),
        ("discharge", "run R1-R4 and audit the charge ledger"),
        ("info", "surface diagnostics for a graph file"),
    ):
        cmd = commands[name] = sub.add_parser(name, help=help_text)
        if name in ("gen", "colour"):
            for flag in ("--m", "--n", "--t"):
                cmd.add_argument(flag, type=int, required=True)
            cmd.add_argument("--out", help="output path (stdout if omitted)")
        else:
            cmd.add_argument("graph")

    commands["verify"].add_argument("colouring")
    commands["verify"].add_argument("--conflict-free", action="store_true")
    chi = commands["chi-odd"]
    chi.add_argument("--max-k", type=int, default=9)
    budget = chi.add_argument("--budget", type=int)
    _set_default_budget(budget)
    chi.add_argument(
        "--deterministic",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="deterministic search (always on in this implementation)",
    )
    return parser, budget


def build_parser() -> argparse.ArgumentParser:
    return _build_parser()[0]


#: main's parser, built on its first call and reused by every later one.
_request_parser = functools.cache(_build_parser)


def main(argv=None) -> int:
    parser, budget = _request_parser()
    _set_default_budget(budget)
    args = parser.parse_args(argv)
    # Looked up by name when the request runs: the parser outlives any
    # replacement of a cmd_* function on this module.
    command = globals()["cmd_" + args.command.replace("-", "_")]
    collecting = gc.isenabled()
    gc.disable()
    try:
        return command(args)
    except (GraphFileError, NotSimpleError, DisconnectedGraphError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ConstructionFailedError as exc:
        print("construction failed: T({},{},{}): {}".format(*exc.params, exc.witness),
              file=sys.stderr)
        return EXIT_FAIL
    except ResourceLimitError as exc:
        print("budget exceeded")
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except OSError as exc:  # reads fail as GraphFileError, so this is a write
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
