"""Span recording from outside the program.

The traced run replaces public functions of each oddtorus module with
wrappers that record a span around every call.  Each original function is
patched under every name that refers to it in any loaded oddtorus module,
so the names that ``cli`` and ``construct`` import with ``from ... import``
are covered as well.  Nothing in the package itself is changed, and
:meth:`Tracer.uninstall` puts every original back.

Self time of a span is its duration minus the durations of its child
spans; calls are strictly nested, so the children never overlap.

The solver's search nodes are counted by :class:`NodeCounter`, a
``sys.setprofile`` hook that counts entries into the recursive search
function.  The hook slows the search, so the traced wrapper times the
search unhooked and counts its nodes on a second, hooked call, recorded
as a ``trace.node_count`` span that no layer metric includes.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

SEARCH_FUNCTION = "solve"
MAX_K = 9
RULES = ("R1", "R2", "R3", "R4")
CLI_PATHS = {"cmd_gen": "gen", "cmd_colour": "colour", "cmd_verify": "verify",
             "cmd_chi_odd": "chi_odd", "cmd_discharge": "discharge"}

# Functions timed as spans, as (module, function); the layer is the module.
COUNTED_TARGETS = (  # reported with calls and self time
    ("torus", "simplicity_witness"),
    ("torus", "generate"),
    ("embedding", "build_embedded_graph"),
    ("embedding", "trace_faces"),
    ("construct", "colour_m_ge3"),
    ("construct", "colour_m2"),
    ("construct", "colour_m1"),
    ("colouring", "nice_witness"),
    ("colouring", "proper_witness"),
    ("colouring", "odd_witness"),
)
DISCHARGE_STEPS = ("initial_charges", "apply_rules", "audit")
GRAPHIO_STEPS = ("parse_graph", "write_graph", "parse_colouring", "write_colouring")
SPAN_TARGETS = (
    *COUNTED_TARGETS,
    *(("discharge", fn) for fn in DISCHARGE_STEPS),
    *(("graphio", fn) for fn in GRAPHIO_STEPS),
    *(("cli", fn) for fn in CLI_PATHS),
)


def _per_layer_units() -> list[tuple[str, str]]:
    out = []
    for mod, fn in COUNTED_TARGETS:
        out += [(f"{mod}.{fn}.calls", "count"), (f"{mod}.{fn}.self_s", "s")]
    out += [
        ("embedding.trace_faces.darts_per_s", "1/s"),
        ("construct.verify_calls", "count"),
        ("construct.useful_ratio", "1"),
        ("construct.recoloured", "count"),
        ("colouring.nice_witness.reject_ratio", "1"),
    ]
    for k in range(1, MAX_K + 1):
        out += [(f"solver.find_odd_colouring.k{k}.self_s", "s"),
                (f"solver.find_odd_colouring.k{k}.nodes", "count")]
    out += [("solver.refute.self_s", "s"), ("solver.find.self_s", "s"),
            ("solver.nodes_per_s", "1/s")]
    out += [(f"discharge.{fn}.self_s", "s") for fn in DISCHARGE_STEPS]
    out += [(f"discharge.transfers.{r}", "count") for r in RULES]
    out += [(f"graphio.{fn}.self_s", "s") for fn in GRAPHIO_STEPS]
    out += [("graphio.bytes", "B"), ("cli.startup_s", "s")]
    out += [(f"cli.{path}.self_s", "s") for path in CLI_PATHS.values()]
    out += [("trace.overhead_ratio", "1")]
    return out


#: Every per-layer metric with its unit, in report order.
PER_LAYER = _per_layer_units()


class NodeCounter:
    """Counts calls of the solver's search function while installed.

    Use as a context manager around one ``find_odd_colouring`` call.
    """

    def __init__(self, solver_file: str):
        self.solver_file = solver_file
        self.nodes = 0

    def _hook(self, frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_name == SEARCH_FUNCTION and code.co_filename == self.solver_file:
                self.nodes += 1

    def __enter__(self):
        if sys.getprofile() is not None:
            raise RuntimeError("another profile hook is installed")
        sys.setprofile(self._hook)
        return self

    def __exit__(self, *exc):
        sys.setprofile(None)
        return False


class Tracer:
    """Records spans for the oddtorus functions it wraps.

    A span is ``(name, request, start, end, self_s, under_construct, info)``
    where ``info`` is a per-function detail (a byte count, a verdict, a
    node count) or None.  Spans stay in memory until :meth:`metrics`.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.request: int | None = None
        self.transfer_lists: list[list] = []
        self._stack: list[list] = []  # [child_seconds, under_construct]
        self._patched: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _timed(self, name, fn, args, kwargs):
        """Run fn as a span; returns (result, exception, span index)."""
        stack = self._stack
        under = name.startswith("construct.") or bool(stack and stack[-1][1])
        frame = [0.0, under]
        stack.append(frame)
        result = exc = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as e:  # re-raised by the caller after recording
            exc = e
        end = time.perf_counter()
        stack.pop()
        if stack:
            stack[-1][0] += end - start
        self.spans.append((name, self.request, start, end, end - start - frame[0], under, None))
        return result, exc, len(self.spans) - 1

    def _set_info(self, index, info):
        self.spans[index] = self.spans[index][:6] + (info,)

    def _span_wrapper(self, name, fn, info):
        def wrapper(*args, **kwargs):
            result, exc, index = self._timed(name, fn, args, kwargs)
            if exc is not None:
                raise exc
            if info is not None:
                self._set_info(index, info(args, result))
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _solver_wrapper(self, fn, solver_file):
        def wrapper(g, k, *args, **kwargs):
            result, exc, index = self._timed(f"solver.find_odd_colouring.k{k}", fn,
                                             (g, k, *args), kwargs)
            counter = NodeCounter(solver_file)

            def hooked():
                with counter:
                    try:
                        fn(g, k, *args, **kwargs)
                    except BaseException as again:
                        if exc is None or type(again) is not type(exc):
                            raise

            _, hook_exc, _ = self._timed("trace.node_count", hooked, (), {})
            if hook_exc is not None:
                raise hook_exc
            verdict = "error" if exc is not None else ("find" if result is not None else "refute")
            self._set_info(index, (verdict, counter.nodes))
            if exc is not None:
                raise exc
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _transfers_wrapper(self, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.transfer_lists.append(result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target under every oddtorus name bound to it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "oddtorus" or name.startswith("oddtorus.")}
        wrappers = {}
        byte_count = lambda args, result: len(args[0])  # noqa: E731
        out_count = lambda args, result: len(result)  # noqa: E731
        infos = {
            ("embedding", "trace_faces"): lambda args, result: 2 * args[0].edge_count,
            ("colouring", "nice_witness"): lambda args, result: result is not None,
            ("graphio", "parse_graph"): byte_count,
            ("graphio", "parse_colouring"): byte_count,
            ("graphio", "write_graph"): out_count,
            ("graphio", "write_colouring"): out_count,
        }
        for mod, fn_name in SPAN_TARGETS:
            fn = getattr(mods[f"oddtorus.{mod}"], fn_name)
            name = f"cli.{CLI_PATHS[fn_name]}" if mod == "cli" else f"{mod}.{fn_name}"
            wrappers[id(fn)] = (fn, self._span_wrapper(name, fn, infos.get((mod, fn_name))))
        solver = mods["oddtorus.solver"]
        fn = solver.find_odd_colouring
        wrappers[id(fn)] = (fn, self._solver_wrapper(fn, solver.__file__))
        fn = mods["oddtorus.discharge"].rule_transfers
        wrappers[id(fn)] = (fn, self._transfers_wrapper(fn))
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(mod, attr, entry[1])
                    self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    # -- aggregation -----------------------------------------------------------

    def metrics(self, *, startup_s: float, overhead_ratio: float,
                recoloured: int) -> dict[str, float]:
        """Every PER_LAYER metric from the recorded spans."""
        calls = Counter()
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        info_sum = defaultdict(int)
        verify_calls = rejects = 0
        verdict_s = defaultdict(float)
        nodes = defaultdict(int)
        for name, _req, start, end, own, under, info in self.spans:
            calls[name] += 1
            self_s[name] += own
            total_s[name] += end - start
            if name == "colouring.nice_witness":
                verify_calls += under
                rejects += bool(info)
            elif name.startswith("solver.find_odd_colouring.k"):
                verdict_s[info[0]] += own
                nodes[name] += info[1]
            elif isinstance(info, int):
                info_sum[name] += info

        def ratio(a, b):
            return a / b if b else 0.0

        out: dict[str, float] = {}
        for mod, fn in COUNTED_TARGETS:
            out[f"{mod}.{fn}.calls"] = calls[f"{mod}.{fn}"]
            out[f"{mod}.{fn}.self_s"] = self_s[f"{mod}.{fn}"]
        out["embedding.trace_faces.darts_per_s"] = ratio(
            info_sum["embedding.trace_faces"], total_s["embedding.trace_faces"])
        constructions = sum(calls[f"{mod}.{fn}"] for mod, fn in COUNTED_TARGETS
                            if mod == "construct")
        out["construct.verify_calls"] = verify_calls
        out["construct.useful_ratio"] = ratio(constructions, verify_calls)
        out["construct.recoloured"] = recoloured
        out["colouring.nice_witness.reject_ratio"] = ratio(rejects, calls["colouring.nice_witness"])
        search_s = 0.0
        for k in range(1, MAX_K + 1):
            name = f"solver.find_odd_colouring.k{k}"
            out[f"{name}.self_s"] = self_s[name]
            out[f"{name}.nodes"] = nodes[name]
            search_s += self_s[name]
        out["solver.refute.self_s"] = verdict_s["refute"]
        out["solver.find.self_s"] = verdict_s["find"]
        out["solver.nodes_per_s"] = ratio(sum(nodes.values()), search_s)
        for fn in DISCHARGE_STEPS:
            out[f"discharge.{fn}.self_s"] = self_s[f"discharge.{fn}"]
        rules = Counter(tr.rule for lst in self.transfer_lists for tr in lst)
        for r in RULES:
            out[f"discharge.transfers.{r}"] = rules[r]
        graphio_bytes = 0
        for fn in GRAPHIO_STEPS:
            out[f"graphio.{fn}.self_s"] = self_s[f"graphio.{fn}"]
            graphio_bytes += info_sum[f"graphio.{fn}"]
        out["graphio.bytes"] = graphio_bytes
        out["cli.startup_s"] = startup_s
        for path in CLI_PATHS.values():
            out[f"cli.{path}.self_s"] = self_s[f"cli.{path}"]
        out["trace.overhead_ratio"] = overhead_ratio
        if [n for n, _ in PER_LAYER] != list(out):
            raise RuntimeError("PER_LAYER and metrics() list different metrics")
        return out
