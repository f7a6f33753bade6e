"""The benchmark's own graph code: inputs and the independent checker.

Nothing here imports oddtorus.  Graphs are rotation systems stored as a
list ``rot`` with ``rot[0]`` a dummy entry and ``rot[v]`` the cyclic
neighbour order of vertex v (ids 1..V), the convention of the og format.
The checker rebuilds every expected answer from this code alone, so a
request is accepted only when two unrelated implementations agree.
"""

from __future__ import annotations

import random
from collections import Counter, deque
from fractions import Fraction

NICE_BOUND = 9


# --- T(m,n,t) ---------------------------------------------------------------

def _torus_slots(m: int, n: int, t: int, i: int, j: int):
    """Neighbours of grid vertex (i,j) in rotation order, rows taken mod n.

    Order: east, north-east, north, west, south-west, south.  The last
    column wraps onto the first with shift t.
    """
    if i < m:
        east, north_east = (i + 1, j), (i + 1, j - 1)
    else:
        east, north_east = (1, j - t), (1, j - t - 1)
    if i > 1:
        west, south_west = (i - 1, j), (i - 1, j + 1)
    else:
        west, south_west = (m, j + t), (m, j + t + 1)
    return [(a, (b - 1) % n + 1) for a, b in
            (east, north_east, (i, j - 1), west, south_west, (i, j + 1))]


def torus_is_simple(m: int, n: int, t: int) -> bool:
    """Whether T(m,n,t) has no loop and no repeated neighbour.

    Every slot is (i', j + c) with c independent of j, so a defect in any
    row shows in row 1: checking j = 1 for every column decides it.
    """
    for i in range(1, m + 1):
        slots = _torus_slots(m, n, t, i, 1)
        if (i, 1) in slots or len(set(slots)) != len(slots):
            return False
    return True


def torus_rotations(m: int, n: int, t: int) -> list[tuple[int, ...]]:
    """Rotation system of T(m,n,t); vertex (i,j) has id (i-1)*n + j."""
    rot: list[tuple[int, ...]] = [()]
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            rot.append(tuple((a - 1) * n + b for a, b in _torus_slots(m, n, t, i, j)))
    return rot


# --- file formats -------------------------------------------------------------

def write_og(rot) -> str:
    lines = ["og 1", f"v {len(rot) - 1}"]
    lines.extend(" ".join(["r", str(v), *map(str, rot[v])]) for v in range(1, len(rot)))
    return "\n".join(lines) + "\n"


def parse_og(text: str) -> list[tuple[int, ...]]:
    """Rotation system of an og file; raises ValueError on a bad file."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    if len(lines) < 2 or lines[0] != ["og", "1"] or lines[1][0] != "v":
        raise ValueError("not an og 1 file")
    count = int(lines[1][1])
    rot: list[tuple[int, ...] | None] = [()] + [None] * count
    for parts in lines[2:]:
        if parts[0] != "r":
            raise ValueError(f"unexpected line {' '.join(parts)!r}")
        v = int(parts[1])
        if rot[v] is not None:
            raise ValueError(f"vertex {v} listed twice")
        rot[v] = tuple(int(x) for x in parts[2:])
    if any(r is None for r in rot):
        raise ValueError("a vertex has no rotation line")
    return rot


def write_colouring(colour: dict[int, int]) -> str:
    return "".join(f"{v} {colour[v]}\n" for v in sorted(colour))


def parse_colouring(text: str) -> dict[int, int]:
    colour = {}
    for ln in text.splitlines():
        if ln.strip():
            v, c = ln.split()
            colour[int(v)] = int(c)
    return colour


# --- checks -------------------------------------------------------------------

def colouring_defect(rot, colour: dict[int, int]) -> str | None:
    """Why ``colour`` is not a nice colouring of ``rot``, or None.

    Nice: total, at most NICE_BOUND colours drawn from 1..NICE_BOUND,
    proper, and every non-isolated vertex has a colour of odd multiplicity
    among its neighbours.  Oddness uses a parity mask: the XOR of
    ``1 << colour`` over the neighbours is non-zero exactly when some
    colour occurs an odd number of times.
    """
    count = len(rot) - 1
    if sorted(colour) != list(range(1, count + 1)):
        return "colouring does not cover exactly the vertices 1..V"
    bad = [c for c in set(colour.values()) if not 1 <= c <= NICE_BOUND]
    if bad:
        return f"colour {min(bad)} outside 1..{NICE_BOUND}"
    for v in range(1, count + 1):
        cv = colour[v]
        mask = 0
        for w in rot[v]:
            cw = colour[w]
            if cw == cv:
                return f"edge ({v},{w}) is monochromatic"
            mask ^= 1 << cw
        if rot[v] and not mask:
            return f"vertex {v} sees every colour an even number of times"
    return None


def is_connected(rot) -> bool:
    count = len(rot) - 1
    seen = bytearray(count + 1)
    seen[1] = 1
    queue = deque([1])
    reached = 1
    while queue:
        u = queue.popleft()
        for w in rot[u]:
            if not seen[w]:
                seen[w] = 1
                reached += 1
                queue.append(w)
    return reached == count


def structure_defect(rot) -> str | None:
    """Why ``rot`` is not a simple connected rotation system, or None."""
    count = len(rot) - 1
    for v in range(1, count + 1):
        nbrs = rot[v]
        if v in nbrs or len(set(nbrs)) != len(nbrs):
            return f"vertex {v} has a loop or a repeated neighbour"
        for w in nbrs:
            if not 1 <= w <= count or v not in rot[w]:
                return f"edge ({v},{w}) is not symmetric"
    if not is_connected(rot):
        return "graph is disconnected"
    return None


# --- faces and discharging ----------------------------------------------------

def faces_of(rot) -> list[list[tuple[int, int]]]:
    """Face walks under the left-face rule, ordered by smallest dart.

    The successor of dart (u,v) is (v,w) with w right after u in rot[v].
    Darts are taken in ascending order, so each walk starts at its
    smallest dart and face i here is face i of the program's tracing.
    """
    after = [None] + [dict(zip(r, r[1:] + r[:1])) for r in rot[1:]]
    seen = set()
    faces = []
    for u in range(1, len(rot)):
        for v in sorted(rot[u]):
            if (u, v) in seen:
                continue
            walk = []
            dart = (u, v)
            while dart not in seen:
                seen.add(dart)
                walk.append(dart)
                a, b = dart
                dart = (b, after[b][a])
            faces.append(walk)
    return faces


def discharge_expectation(rot) -> dict:
    """Independent R1-R4 run: transfer counts and the audit's lists.

    Amounts: R1 11/10 from a 5+-face to each incidence of a 5-vertex; R2
    1 (3/4 on a 5,5,6+,6+ boundary) from a 4-face to each 5-vertex; R3
    1/2 from a 4+-face across an edge of two 6+-vertices to the 5-vertex
    apex of the triangle on the other side; R4 splits d(v)-6 of a
    7+-vertex evenly over its runs of 5-neighbours, then within each run.
    """
    count = len(rot) - 1
    deg = [len(r) for r in rot]
    faces = faces_of(rot)
    face_index = {}
    for fi, walk in enumerate(faces):
        for dart in walk:
            face_index[dart] = fi
    vertex = [Fraction(deg[v] - 6) for v in range(count + 1)]
    face = [Fraction(2 * len(w) - 6) for w in faces]
    before = sum(vertex[1:], Fraction(0)) + sum(face, Fraction(0))
    transfers = Counter()

    def send_from_face(rule, fi, v, amount):
        transfers[rule] += 1
        face[fi] -= amount
        vertex[v] += amount

    for fi, walk in enumerate(faces):
        size = len(walk)
        ring = [u for u, _ in walk]
        if size >= 5:
            for u in ring:
                if deg[u] == 5:
                    send_from_face("R1", fi, u, Fraction(11, 10))
        elif size == 4:
            fives = [k for k in range(4) if deg[ring[k]] == 5]
            others_big = all(deg[ring[k]] >= 6 for k in range(4) if k not in fives)
            paired = len(fives) == 2 and (fives[1] - fives[0]) in (1, 3) and others_big
            for k in fives:
                send_from_face("R2", fi, ring[k], Fraction(3, 4) if paired else Fraction(1))
        if size >= 4:
            for u, v in walk:
                if deg[u] >= 6 and deg[v] >= 6:
                    across = faces[face_index[(v, u)]]
                    if len(across) == 3:
                        apex = [x for x, _ in across if x != u and x != v][0]
                        if deg[apex] == 5:
                            send_from_face("R3", fi, apex, Fraction(1, 2))
    for v in range(1, count + 1):
        if deg[v] < 7:
            continue
        runs = _five_runs(rot[v], deg)
        for run in runs:
            share = Fraction(deg[v] - 6, len(runs) * len(run))
            for w in run:
                transfers["R4"] += 1
                vertex[v] -= share
                vertex[w] += share
    after = sum(vertex[1:], Fraction(0)) + sum(face, Fraction(0))
    return {
        "transfers": {r: transfers[r] for r in ("R1", "R2", "R3", "R4")},
        "faces": len(faces),
        "face_sizes": (min(map(len, faces)), max(map(len, faces))),
        "total_before": before,
        "total_after": after,
        "negative_faces": [i for i, q in enumerate(face) if q < 0],
        "negative_six_plus": [v for v in range(1, count + 1) if deg[v] >= 6 and vertex[v] < 0],
        "nonpositive_five": [v for v in range(1, count + 1) if deg[v] == 5 and vertex[v] <= 0],
    }


def _five_runs(nbrs, deg) -> list[list[int]]:
    """Maximal cyclic runs of degree-5 vertices in the rotation ``nbrs``."""
    flags = [deg[w] == 5 for w in nbrs]
    if all(flags):
        return [list(nbrs)]
    start = flags.index(False)
    runs, run = [], []
    for k in range(1, len(nbrs) + 1):
        w = nbrs[(start + k) % len(nbrs)]
        if deg[w] == 5:
            run.append(w)
        elif run:
            runs.append(run)
            run = []
    return runs


def discharge_report_lines(expect: dict) -> list[str]:
    """The lines ``oddtorus discharge`` must print for this expectation."""
    def rat(q: Fraction) -> str:
        return f"{q.numerator}/{q.denominator}"
    return [
        f"total before: {rat(expect['total_before'])}",
        f"total after: {rat(expect['total_after'])}",
        "conserved: yes",
        f"negative faces: {expect['negative_faces']}",
        f"negative 6+-vertices: {expect['negative_six_plus']}",
        f"5-vertices with final charge <= 0: {expect['nonpositive_five']}",
    ]


# --- perturbed graphs -----------------------------------------------------------

def _face_from(rot, u: int, v: int, limit: int) -> list[int] | None:
    """Vertices of the face walk starting with dart (u,v), or None if it
    is longer than ``limit``."""
    ring = []
    a, b = u, v
    while True:
        ring.append(a)
        if len(ring) > limit:
            return None
        nb = rot[b]
        a, b = b, nb[(nb.index(a) + 1) % len(nb)]
        if (a, b) == (u, v):
            return ring


MAX_DEGREE = 9
MAX_FACE = 11


def perturbed_torus(m: int, n: int, t: int, ops: int, seed: int) -> list[tuple[int, ...]]:
    """T(m,n,t) changed by ``ops`` seeded edge deletions and face chords.

    A deletion removes an edge whose two sides are distinct faces, which
    merges them; a chord splits a face between two non-adjacent vertices
    of its boundary.  Both keep V - E + F = 0, so the result is still a
    cellular torus embedding.  Degrees stay in 3..MAX_DEGREE and faces in
    3..MAX_FACE.  The result is validated before it is returned.
    """
    rng = random.Random(seed)
    rot = [list(r) for r in torus_rotations(m, n, t)]
    count = len(rot) - 1
    done = attempts = 0
    while done < ops:
        attempts += 1
        if attempts > 50 * ops:
            raise RuntimeError("perturbation stalled")
        u = rng.randint(1, count)
        v = rng.choice(rot[u])
        if rng.random() < 0.5:
            if len(rot[u]) <= 3 or len(rot[v]) <= 3:
                continue
            left = _face_from(rot, u, v, MAX_FACE)
            right = _face_from(rot, v, u, MAX_FACE)
            if left is None or right is None or len(left) + len(right) - 2 > MAX_FACE:
                continue
            if (v, u) in zip(left, left[1:] + left[:1]):
                continue  # one face on both sides: deleting would cut the surface
            rot[u].remove(v)
            rot[v].remove(u)
        else:
            ring = _face_from(rot, u, v, MAX_FACE)
            if ring is None or len(ring) < 4:
                continue
            size = len(ring)
            i = rng.randrange(size)
            j = (i + rng.randint(2, size - 2)) % size
            x, y = ring[i], ring[j]
            if x == y or y in rot[x] or len(rot[x]) >= MAX_DEGREE or len(rot[y]) >= MAX_DEGREE:
                continue
            # Enter x after its walk predecessor, so the chord splits this face.
            rot[x].insert(rot[x].index(ring[i - 1]) + 1, y)
            rot[y].insert(rot[y].index(ring[j - 1]) + 1, x)
        done += 1
    result = [tuple(r) for r in rot]
    defect = structure_defect(result)
    if defect is None and min(len(r) for r in result[1:]) < 3:
        defect = "a vertex has degree below 3"
    if defect is None:
        edges = sum(len(r) for r in result) // 2
        if count - edges + len(faces_of(result)) != 0:
            defect = "V - E + F is not 0"
    if defect is not None:
        raise RuntimeError(f"perturbed T({m},{n},{t}) is invalid: {defect}")
    return result
