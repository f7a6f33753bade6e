"""The three workloads: their inputs, request lists and output checks.

Each workload turns a seed into inputs written under a work directory
(the set-up that ``setup_s`` times) and a fixed list of requests.  Every
request carries a check that accepts or rejects its outcome using only
:mod:`graphs`, never the verifiers of the package under test.

* ``pipeline-large`` - the five CLI paths chained on one 6-regular
  T(150,150,t), V = 22500, plus a discharge of a perturbed T(100,100,t).
  Per-vertex throughput of generation, construction (m >= 3 branch),
  verification, file I/O, face tracing and discharging; R1-R4 fire only
  on the perturbed graph.  Served by one subprocess per request, since
  the interpreter start (about 0.1 s) is small next to each request
  (0.3-1.1 s).  The size lets a run make six or more passes, which the
  run-to-run steadiness of the figures needs.
* ``family-sweep`` - ``colour`` over a stratified sample of small simple
  T(m,n,t): m = 1, m = 2 (t = 0 and t != 0 mod 3) and every residue pair
  of m >= 3.  Millisecond requests, so per-call overhead, the repeated
  simplicity checks and the m = 2 branch's verifier-driven search
  dominate.  Served in-process, because a subprocess start would be most
  of each request.
* ``exact-solve`` - ``chi-odd`` with a fixed node budget on three anchors
  and a draw from the pinned pool; only the solver does real work.  The
  draw mixes instances whose cost is the refutation at k = chi - 1 with
  instances whose cost is the find at k = chi.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import graphs
from common import DATA


@dataclass
class Outcome:
    """What one request did: exit code, captured output, latency."""

    exit_code: int | None
    stdout: str
    stderr: str
    latency_s: float
    error: str | None = None  # traceback of an in-process exception
    file_text: str | None = None  # the request's output file, if it has one


@dataclass
class Request:
    path: str  # gen, colour, verify, chi-odd or discharge
    argv: list[str]
    check: Callable[[Outcome], str | None]  # None accepts, else the reason
    prepare: Callable[[], None] | None = None  # untimed, before the request
    out_file: Path | None = None  # output file the check reads


@dataclass
class Plan:
    """A workload's materialised inputs: requests plus harness-level checks."""

    requests: list[Request]
    description: dict
    self_checks: list[Callable[[], str | None]] = field(default_factory=list)
    expected_transfers: Callable[[], dict[str, int]] | None = None


def _lines(out: Outcome) -> list[str]:
    return out.stdout.splitlines()


def _expect(out: Outcome, code: int) -> str | None:
    if out.error is not None:
        return f"raised: {out.error.strip().splitlines()[-1]}"
    if "Traceback (most recent call last)" in out.stderr:
        return "printed a traceback"
    if out.exit_code != code:
        return f"exit code {out.exit_code}, expected {code}"
    return None


# --- pipeline-large -----------------------------------------------------------

BIG = 150
PERTURB_SIZE = 100
PERTURB_OPS = 5000


def pipeline_large(seed: int, work: Path) -> Plan:
    rng = random.Random(seed)
    t = rng.randrange(BIG)
    small_t = rng.randrange(PERTURB_SIZE)
    perturb_seed = rng.getrandbits(32)
    wrong_vertex = rng.randint(1, BIG * BIG)
    wrong_slot = rng.randrange(6)

    pert_rot = graphs.perturbed_torus(PERTURB_SIZE, PERTURB_SIZE, small_t, PERTURB_OPS,
                                      perturb_seed)
    pert_og = work / "perturbed.og"
    pert_og.write_text(graphs.write_og(pert_rot), encoding="utf-8")
    big_og, big_col, bad_col = work / "big.og", work / "big.col", work / "bad.col"

    cache: dict[str, object] = {}

    def big_rot():
        if "rot" not in cache:
            cache["rot"] = graphs.torus_rotations(BIG, BIG, t)
        return cache["rot"]

    def expectation(key, rot_fn):
        if key not in cache:
            cache[key] = graphs.discharge_expectation(rot_fn())
        return cache[key]

    def check_gen(out):
        why = _expect(out, 0)
        if why is None and out.file_text != graphs.write_og(big_rot()):
            why = f"graph file differs from T({BIG},{BIG},{t})"
        return why

    def check_colour(out):
        why = _expect(out, 0)
        if why is None and _lines(out)[-1:] != ["nice: yes"]:
            why = "did not report 'nice: yes'"
        if why is None:
            rot = graphs.parse_og(big_og.read_text(encoding="utf-8"))
            why = graphs.colouring_defect(rot, graphs.parse_colouring(out.file_text))
        return why

    def check_verify_good(out):
        why = _expect(out, 0)
        if why is None and _lines(out) != ["proper: yes", "odd: yes", "nice: yes"]:
            why = f"unexpected verdicts {_lines(out)}"
        return why

    def make_wrong():
        colour = graphs.parse_colouring(big_col.read_text(encoding="utf-8"))
        colour[wrong_vertex] = colour[big_rot()[wrong_vertex][wrong_slot]]
        cache["wrong"] = colour
        bad_col.write_text(graphs.write_colouring(colour), encoding="utf-8")

    def check_verify_bad(out):
        why = _expect(out, 1)
        lines = _lines(out)
        if why is None and not (lines[:1] and lines[0].startswith("proper: no")
                                and lines[-1:] and lines[-1].startswith("nice: no")):
            why = f"wrong colouring not rejected: {lines}"
        return why

    def wrong_is_caught():
        if "wrong" not in cache:
            return "the wrong colouring was never made"
        if graphs.colouring_defect(big_rot(), cache["wrong"]) is None:
            return "the independent checker accepted a deliberately wrong colouring"
        return None

    def check_discharge(key, rot_fn, pinned=None):
        def check(out):
            why = _expect(out, 0)
            if why is None:
                expect = expectation(key, rot_fn)
                if pinned is not None and expect["transfers"] != pinned:
                    why = f"transfer counts {expect['transfers']}, pinned {pinned}"
                elif _lines(out) != graphs.discharge_report_lines(expect):
                    why = "discharge audit differs from the independent computation"
            return why
        return check

    def clear(*paths):
        def prepare():
            for p in paths:
                p.unlink(missing_ok=True)
        return prepare

    no_transfers = {r: 0 for r in ("R1", "R2", "R3", "R4")}
    big_params = ["--m", str(BIG), "--n", str(BIG), "--t", str(t)]
    requests = [
        Request("gen", ["gen", *big_params, "--out", str(big_og)], check_gen,
                clear(big_og), big_og),
        Request("colour", ["colour", *big_params, "--out", str(big_col)], check_colour,
                clear(big_col), big_col),
        Request("verify", ["verify", str(big_og), str(big_col)], check_verify_good),
        Request("verify", ["verify", str(big_og), str(bad_col)], check_verify_bad, make_wrong),
        Request("discharge", ["discharge", str(big_og)],
                check_discharge("big", big_rot, no_transfers)),
        Request("discharge", ["discharge", str(pert_og)],
                check_discharge("pert", lambda: pert_rot)),
    ]

    def transfers():
        total = dict(no_transfers)
        for key, rot_fn in (("big", big_rot), ("pert", lambda: pert_rot)):
            for rule, count in expectation(key, rot_fn)["transfers"].items():
                total[rule] += count
        return total

    degrees = [len(r) for r in pert_rot[1:]]
    description = {
        "instance": f"T({BIG},{BIG},{t})",
        "perturbed": f"T({PERTURB_SIZE},{PERTURB_SIZE},{small_t}) with {PERTURB_OPS} ops",
        "perturbed_degrees": [min(degrees), max(degrees)],
        "wrong_vertex": wrong_vertex,
    }
    return Plan(requests, description, [wrong_is_caught], transfers)


# --- family-sweep -----------------------------------------------------------

# Per-pass counts.  Sizes are drawn by systematic sampling (see
# _systematic), so every seed spreads its sample over the whole size
# range and a pass costs about the same whatever the seed.
M1_COUNT = 120
M2_T12_COUNT = 40
M2_T0_LIGHT_COUNT = 20
MGE3_COUNT_PER_PAIR = 15
# The m = 2, t = 0 (mod 3) pair search is slowest for n = 1, 2 (mod 3)
# at the top of the range; each such n is drawn once per half of its
# t range, which fixes how many slow requests a pass holds.
M2_HEAVY_N = range(100, 121)


def _systematic(rng, items: list, count: int) -> list:
    """``count`` items evenly spaced over ``items`` from a random offset."""
    step = len(items) / count
    offset = rng.random() * step
    return [items[int(offset + i * step)] for i in range(count)]


def _simple_t(rng, m, n, ts) -> int | None:
    """A random t from ``ts`` for which T(m,n,t) is simple, or None."""
    ts = list(ts)
    for _ in range(8):
        t = rng.choice(ts)
        if graphs.torus_is_simple(m, n, t):
            return t
    simple = [t for t in ts if graphs.torus_is_simple(m, n, t)]
    return rng.choice(simple) if simple else None


def _draw(rng, m, ns, count, ts_of) -> list[tuple[int, int, int]]:
    """``count`` simple T(m,n,t), n systematic over ``ns``, t from ts_of(n)."""
    drawn = []
    for n in _systematic(rng, list(ns), count):
        # n values without a simple t are replaced by their nearest successor.
        for alt in [n] + [x for x in ns if x > n] + [x for x in ns if x < n][::-1]:
            t = _simple_t(rng, m, alt, ts_of(alt))
            if t is not None:
                drawn.append((m, alt, t))
                break
    return drawn


def _sample_family(rng) -> list[tuple[int, int, int]]:
    params = _draw(rng, 1, range(7, 201), M1_COUNT, range)
    params += _draw(rng, 2, range(3, 121), M2_T12_COUNT,
                    lambda n: [t for t in range(n) if t % 3])
    params += _draw(rng, 2, range(3, 100), M2_T0_LIGHT_COUNT, lambda n: range(0, n, 3))
    for n in M2_HEAVY_N:
        if n % 3 == 0:
            continue
        for half in range(2):
            lo, hi = half * n // 2, (half + 1) * n // 2
            t = _simple_t(rng, 2, n, [t for t in range(lo, hi) if t % 3 == 0])
            if t is not None:
                params.append((2, n, t))
    for rm in range(3):
        for rn in range(3):
            # T(m,n,t) is simple for every t once m, n >= 3.
            grid = sorted(((m * n, m, n) for m in range(3, 31) for n in range(3, 61)
                           if m % 3 == rm and n % 3 == rn))
            for _, m, n in _systematic(rng, grid, MGE3_COUNT_PER_PAIR):
                params.append((m, n, rng.randrange(n)))
    rng.shuffle(params)
    return params


def family_sweep(seed: int, work: Path) -> Plan:
    rng = random.Random(seed)
    params = _sample_family(rng)
    (work / "params.txt").write_text("".join(f"{m} {n} {t}\n" for m, n, t in params),
                                     encoding="utf-8")
    out_file = work / "sweep.col"

    def check_for(m, n, t):
        def check(out):
            why = _expect(out, 0)
            if why is None and _lines(out)[-1:] != ["nice: yes"]:
                why = f"T({m},{n},{t}) did not report 'nice: yes'"
            if why is None:
                colour = graphs.parse_colouring(out.file_text)
                why = graphs.colouring_defect(graphs.torus_rotations(m, n, t), colour)
            return why
        return check

    def prepare():
        out_file.unlink(missing_ok=True)

    requests = [
        Request("colour", ["colour", "--m", str(m), "--n", str(n), "--t", str(t),
                           "--out", str(out_file)], check_for(m, n, t), prepare, out_file)
        for m, n, t in params
    ]
    description = {"instances": len(params),
                   "by_m": {k: sum(1 for p in params if min(p[0], 3) == k) for k in (1, 2, 3)}}
    return Plan(requests, description)


# --- exact-solve ------------------------------------------------------------

BUDGET = 300_000
ANCHORS = ((8, 8, 0, 4), (7, 8, 3, 4), (1, 7, 2, 7))
POOL_FILE = DATA / "exact_pool.json"
# Pool draw per pass: (kind, lower, upper bound of the pinned node total,
# count).  Within a stratum the draw is systematic in the node total, so
# the search effort of a pass, and which request is its median, hardly
# depend on the seed.
POOL_STRATA = tuple(
    (kind, lo, hi, count)
    for kind in ("refute", "find")
    for lo, hi, count in ((2_000, 5_000, 2), (5_000, 10_000, 2), (10_000, 20_000, 2),
                          (20_000, 40_000, 1), (40_000, 100_000, 1))
)


def pool_kind(entry) -> str:
    """'refute' when the refutation at chi-1 costs more nodes than the find."""
    per_k = entry["per_k"]
    find = per_k[-1]["nodes"]
    refute = per_k[-2]["nodes"] if len(per_k) > 1 else 0
    return "refute" if refute > find else "find"


def load_pool() -> list[dict]:
    with POOL_FILE.open(encoding="utf-8") as fh:
        return json.load(fh)["entries"]


def exact_solve(seed: int, work: Path) -> Plan:
    rng = random.Random(seed)
    pool = load_pool()
    chosen = [(m, n, t, chi, "anchor") for m, n, t, chi in ANCHORS]
    for kind, lo, hi, count in POOL_STRATA:
        stratum = sorted((total, e["m"], e["n"], e["t"], e["chi_odd"]) for e in pool
                         if pool_kind(e) == kind
                         and lo <= (total := sum(k["nodes"] for k in e["per_k"])) < hi)
        for _, m, n, t, chi in _systematic(rng, stratum, count):
            chosen.append((m, n, t, chi, kind))

    def check_for(chi):
        def check(out):
            why = _expect(out, 0)
            if why is None and out.stdout != f"chi_odd = {chi}\n":
                why = f"printed {out.stdout.strip()!r}, pinned chi_odd = {chi}"
            return why
        return check

    requests = []
    for i, (m, n, t, chi, _kind) in enumerate(chosen):
        path = work / f"exact-{i}.og"
        path.write_text(graphs.write_og(graphs.torus_rotations(m, n, t)), encoding="utf-8")
        requests.append(Request("chi-odd", ["chi-odd", str(path), "--max-k", "9",
                                            "--budget", str(BUDGET)], check_for(chi)))
    description = {"budget": BUDGET,
                   "instances": [f"T({m},{n},{t}):{kind}" for m, n, t, _, kind in chosen]}
    return Plan(requests, description)


WORKLOADS = {
    "pipeline-large": (pipeline_large, "subprocess"),
    "family-sweep": (family_sweep, "inprocess"),
    "exact-solve": (exact_solve, "subprocess"),
}
