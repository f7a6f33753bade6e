"""Rebuild the pinned instance pool of the exact-solve workload.

    python3 bench/make_pool.py            # writes bench/data/exact_pool.json

Walks every simple T(m,n,t) with m*n <= 48 and runs the exact search for
k = 1, 2, ... with a per-k node budget of BUILD_CAP.  An instance enters
the pool only when every k up to its chi_odd is decided within that cap,
so each entry's per-k outcome is also its outcome at the workload's
request budget BUDGET.  Nodes are entries into the search function,
counted with the same profile hook as the traced run.  Entries with at
most 9 vertices are cross-checked against the brute-force oracle.
"""

from __future__ import annotations

import json
import sys

from common import import_oddtorus
from spans import NodeCounter
from workloads import BUDGET, POOL_FILE

MAX_AREA = 48
BUILD_CAP = 100_000


def decide(solver, g, errors):
    """Per-k outcomes up to chi_odd, or None if some k exceeds the cap."""
    outcomes = []
    for k in range(1, 10):
        try:
            found = solver.find_odd_colouring(g, k, node_budget=BUILD_CAP) is not None
        except errors.ResourceLimitError:
            return None
        with NodeCounter(solver.__file__) as counter:
            solver.find_odd_colouring(g, k, node_budget=BUILD_CAP)
        outcomes.append({"k": k, "outcome": "found" if found else "refuted",
                         "nodes": counter.nodes})
        if found:
            return outcomes
    raise AssertionError(f"no odd colouring with 9 colours: {g!r}")


def main() -> int:
    if BUILD_CAP > BUDGET:
        raise SystemExit("the build cap must not exceed the request budget")
    import_oddtorus()
    from oddtorus import errors, solver, torus

    entries = []
    simple = 0
    for m in range(1, MAX_AREA + 1):
        for n in range(1, MAX_AREA // m + 1):
            for t in range(n):
                p = torus.TorusParams(m, n, t)
                if not torus.is_simple(p):
                    continue
                simple += 1
                g = torus.generate(p)
                outcomes = decide(solver, g, errors)
                if outcomes is None:
                    continue
                chi = outcomes[-1]["k"]
                entry = {"m": m, "n": n, "t": t, "V": g.vertex_count,
                         "chi_odd": chi, "per_k": outcomes}
                if g.vertex_count <= 9:
                    brute = solver.chi_odd_bruteforce(g, 9)
                    if brute != chi:
                        raise AssertionError(f"T({m},{n},{t}): solver {chi}, oracle {brute}")
                    entry["bruteforce_chi_odd"] = brute
                entries.append(entry)
        print(f"m={m}: {len(entries)} decided of {simple} simple", file=sys.stderr)

    doc = {
        "family": f"simple T(m,n,t) with m*n <= {MAX_AREA}",
        "simple_instances": simple,
        "build_cap_nodes_per_k": BUILD_CAP,
        "request_budget": BUDGET,
        "node_definition": "entries into solver.find_odd_colouring's search function",
        "entries": entries,
    }
    POOL_FILE.parent.mkdir(parents=True, exist_ok=True)
    with POOL_FILE.open("w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=None, separators=(",", ":"))
        fh.write("\n")
    print(f"{len(entries)} entries written to {POOL_FILE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
