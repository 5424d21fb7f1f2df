"""Seeded request corpora whose answers are known by construction.

Every request is an argv for ``hdabisim.cli.main`` over model files this
module writes, paired with the answer the construction guarantees.  The
answers come from the arguments in ``bench/README.md``; none is obtained by
running hdabisim's decision code.  The library is used only to build inputs
(``generators``, ``torus_hda``) and to serialize them (``model_to_dict``).

Requests are grouped into latency tiers A (fast), B (medium) and C (slow).
The closed loop in ``run.py`` interleaves the tiers in a fixed pattern, so
the mix of any prefix of the run matches the workload's mix.  With the
pattern A B B B C, tier B holds ranks 20-80% and tier C ranks 80-100%, so
the median is the middle of tier B and the 90th percentile the middle of
tier C: each lies inside a group of similar requests, not at a boundary
between groups.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
from dataclasses import dataclass
from random import Random

from hdabisim.core import EventSet, torus_hda
from hdabisim.generators import grid_hda, grid_labeling, random_hda
from hdabisim.model_io import model_to_dict

PATTERN = ("A", "B", "B", "B", "C")
WORKLOADS = ("decide", "unfold", "oracle", "validate")


@dataclass
class Request:
    tier: str
    kind: str
    argv: list[str]
    expect: dict


# -- grid cells and closed forms ---------------------------------------------
# A grid cell is one (position, extended) pair per axis, named as in
# hdabisim.generators: "g" + "_".join("3" for a point, "3s" for a segment).

def cell_id(cell) -> str:
    return "g" + "_".join(f"{p}s" if ext else f"{p}" for p, ext in cell)


def vertex_id(pos) -> str:
    return cell_id(tuple((p, False) for p in pos))


def top_cube_id(pos) -> str:
    return cell_id(tuple((p, True) for p in pos))


def grid_cells(sizes):
    axes = [[(p, False) for p in range(s + 1)] + [(p, True) for p in range(s)]
            for s in sizes]
    return itertools.product(*axes)


def grid_cube_count(sizes) -> int:
    total = 1
    for s in sizes:
        total *= 2 * s + 1
    return total


def grid_unfold_nodes(sizes, depth: int) -> int:
    """Nodes of a filled grid's unfolding truncated at `depth`: every cell
    is one node, reached by paths of length 2*sum(positions) + #extended + 1."""
    return sum(1 for cell in grid_cells(sizes)
               if 2 * sum(p for p, _e in cell) + sum(e for _p, e in cell) + 1
               <= depth)


def torus_unfold_nodes(n_events: int, maxdim: int, depth: int) -> int:
    """Nodes of the torus unfolding truncated at `depth`: pairs (x, c) of
    multisets of events with x a sub-multiset of c, |x| <= maxdim and
    2|c| - |x| <= depth - 1 (the path length is 2|c| - |x| + 1)."""
    total = 0
    max_c = (depth - 1 + maxdim) // 2
    for size in range(max_c + 1):
        for c in itertools.combinations_with_replacement(range(n_events), size):
            subs = set()
            for j in range(min(size, maxdim) + 1):
                if 2 * size - j > depth - 1:
                    continue
                subs.update(itertools.combinations(c, j))
            total += len(subs)
    return total


def hole_positions(sizes):
    """Positions of top cubes whose removal makes the grid non-bisimilar to
    the filled one: every position except the last corner, so that some
    axis i has position <= size_i - 2."""
    last = tuple(s - 1 for s in sizes)
    return [pos for pos in itertools.product(*(range(s) for s in sizes))
            if pos != last]


# -- model dicts ---------------------------------------------------------------

def renamed(model: dict, rng: Random, prefix: str) -> tuple[dict, dict]:
    """A copy with every id replaced through a seeded bijection and the cube
    list shuffled; returns the copy and the id mapping."""
    ids = [c["id"] for c in model["cubes"]]
    perm = list(range(len(ids)))
    rng.shuffle(perm)
    mapping = {cid: f"{prefix}{perm[i]}" for i, cid in enumerate(ids)}
    cubes = [{"id": mapping[c["id"]], "dim": c["dim"],
              "d0": [mapping[f] for f in c["d0"]],
              "d1": [mapping[f] for f in c["d1"]]} for c in model["cubes"]]
    rng.shuffle(cubes)
    out = {"cubes": cubes, "initial": mapping[model["initial"]]}
    if "events" in model:
        out["events"] = list(model["events"])
        out["labels"] = {mapping[c]: list(t) for c, t in model["labels"].items()}
    return out, mapping


def disjoint_union(model: dict, junk: dict) -> dict:
    """`model` plus the cubes of `junk`, which must use other ids; the
    initial cube stays the one of `model`, so no junk cube is reachable."""
    return {"cubes": model["cubes"] + junk["cubes"], "initial": model["initial"]}


def without(model: dict, cid: str) -> dict:
    out = dict(model)
    out["cubes"] = [c for c in model["cubes"] if c["id"] != cid]
    if "labels" in model:
        out["labels"] = {c: t for c, t in model["labels"].items() if c != cid}
    return out


def replace_face(model: dict, cid: str, k: int, nu: int, face: str) -> dict:
    """A copy in which face (k, nu) of cube `cid` is `face`; only the changed
    cube entry is copied."""
    key = "d0" if nu == 0 else "d1"
    cubes = []
    for c in model["cubes"]:
        if c["id"] == cid:
            c = dict(c)
            c[key] = list(c[key])
            c[key][k - 1] = face
        cubes.append(c)
    return {**model, "cubes": cubes}


def swap_lower_faces(model: dict, cid: str, k: int, ell: int) -> dict:
    cubes = []
    for c in model["cubes"]:
        if c["id"] == cid:
            d0 = list(c["d0"])
            d0[k - 1], d0[ell - 1] = d0[ell - 1], d0[k - 1]
            c = {**c, "d0": d0}
        cubes.append(c)
    return {**model, "cubes": cubes}


def grid_model(sizes, labeled: bool = False) -> dict:
    hda = grid_hda(tuple(sizes))
    if not labeled:
        return model_to_dict(hda)
    events = EventSet(tuple("abc"[:len(sizes)]))
    return model_to_dict(hda, grid_labeling(hda, events))


def random_model(rng: Random, max_cubes: int) -> dict:
    return model_to_dict(random_hda(rng, max_cubes=max_cubes, max_dim=3,
                                    min_cubes=2 * max_cubes // 3))


def self_universe(model: dict) -> int:
    """Pairs of equal dimension between a model and a copy of itself: the
    size of the unlabeled bisimulation's starting relation."""
    counts: dict[int, int] = {}
    for c in model["cubes"]:
        counts[c["dim"]] = counts.get(c["dim"], 0) + 1
    return sum(n * n for n in counts.values())


def random_model_in_band(rng: Random, max_cubes: int, low: int,
                         high: int) -> dict:
    """A random model whose self-universe lies in [low, high], so that the
    drawn models cost about the same to decide."""
    while True:
        model = random_model(rng, max_cubes)
        if low <= self_universe(model) <= high:
            return model


def longest_path(model: dict) -> int:
    """Length (cube count) of the longest pointed path of an acyclic model;
    along a path the quantity 2*ends + starts grows by one per step."""
    succ: dict[str, set[str]] = {c["id"]: set() for c in model["cubes"]}
    for c in model["cubes"]:
        for f in c["d0"]:
            succ[f].add(c["id"])
        for f in c["d1"]:
            succ[c["id"]].add(f)
    memo: dict[str, int] = {}
    order = sorted(succ, key=lambda cid: -_rank(cid))
    for cid in order:
        memo[cid] = 1 + max((memo[y] for y in succ[cid]), default=0)
    return memo[model["initial"]]


def _rank(cid: str) -> int:
    # Grid-derived ids carry their rank 2*sum(positions) + #extended, which
    # orders the step relation topologically.
    return sum(2 * int(tok.rstrip("s")) + tok.endswith("s")
               for tok in cid[1:].split("_"))


def grid_vertex_path(rng: Random, target) -> list[str]:
    """A random vertex-edge path from the origin to vertex `target` that
    moves along one axis at a time."""
    moves = [axis for axis, n in enumerate(target) for _ in range(n)]
    rng.shuffle(moves)
    return vertex_path_from(list(0 for _ in target), moves)


def vertex_path_from(pos: list[int], moves) -> list[str]:
    pos = list(pos)
    seq = [vertex_id(pos)]
    for axis in moves:
        cell = tuple((p, i == axis) for i, p in enumerate(pos))
        seq.append(cell_id(cell))
        pos[axis] += 1
        seq.append(vertex_id(pos))
    return seq


def random_grid_walk(rng: Random, sizes, length: int) -> list[str]:
    """A random pointed path of exactly `length` cubes in the filled grid:
    each step starts an event on a free axis or ends a running one."""
    while True:
        cell = [(0, False)] * len(sizes)
        seq = [cell_id(cell)]
        for _ in range(length - 1):
            starts = [i for i, (p, e) in enumerate(cell)
                      if not e and p < sizes[i]]
            ends = [i for i, (_p, e) in enumerate(cell) if e]
            options = [("s", i) for i in starts] + [("e", i) for i in ends]
            if not options:
                break
            op, i = rng.choice(options)
            p, _e = cell[i]
            cell[i] = (p, True) if op == "s" else (p + 1, False)
            seq.append(cell_id(cell))
        if len(seq) == length:
            return seq


def cell_dim(cid: str) -> int:
    return sum(tok.endswith("s") for tok in cid[1:].split("_"))


# -- corpus builders -----------------------------------------------------------

class _Writer:
    def __init__(self, workdir: str):
        self.workdir = workdir
        self.count = 0

    def __call__(self, model: dict) -> str:
        self.count += 1
        path = os.path.join(self.workdir, f"m{self.count}.json")
        # json.dumps runs the C encoder; json.dump would run the Python one.
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(model))
        return path

    def out(self, name: str) -> str:
        return os.path.join(self.workdir, name)


def _decide(rng: Random, write) -> list[Request]:
    reqs: list[Request] = []
    # The same few grids recur; every helper here copies what it alters.
    grid = functools.lru_cache(maxsize=None)(grid_model)

    def positive(tier, kind, cmd, model, labeled=False):
        copy, _ = renamed(model, rng, "r")
        reqs.append(Request(tier, kind,
                            [cmd, write(model), write(copy)]
                            + (["--labeled"] if labeled else []),
                            {"verdict": True,
                             "initial": [model["initial"], copy["initial"]]}))

    def negative(tier, kind, sizes):
        full = grid(sizes)
        pos = rng.choice(hole_positions(sizes))
        holed, _ = renamed(without(full, top_cube_id(pos)), rng, "h")
        cmd = rng.choice(("bisim", "hp-bisim"))
        reqs.append(Request(tier, kind, [cmd, write(full), write(holed)],
                            {"verdict": False}))

    # Each tier holds many requests, so that a run's percentiles average
    # over many draws rather than hang on a few.  Tier A: labeled 5x5 grids,
    # transposed grids, stray unions.
    for _ in range(16):
        positive("A", "labeled-grid", "hp-bisim", grid((5, 5), True), True)
    for _ in range(8):
        s1, s2 = rng.sample((3, 4, 5), 2)
        a, b = grid((s1, s2), True), grid((s2, s1), True)
        b, _ = renamed(b, rng, "t")
        for labeled in (False, True):
            cmd = rng.choice(("bisim", "hp-bisim"))
            reqs.append(Request("A", "transposed-grid",
                                [cmd, write(a), write(b)]
                                + (["--labeled"] if labeled else []),
                                {"verdict": False}))
    for _ in range(16):
        x = random_model(rng, 100)
        junk, _ = renamed(random_model(rng, 40), rng, "j")
        reqs.append(Request("A", "stray-union",
                            ["bisim", write(x), write(disjoint_union(x, junk))],
                            {"verdict": True,
                             "initial": [x["initial"], x["initial"]]}))
    # Tier B: random models drawn in a narrow band of pair-universe size,
    # and holed 5x5 and 2x2x2 grids; all of similar cost.
    for _ in range(48):
        positive("B", "renamed-random", rng.choice(("bisim", "hp-bisim")),
                 random_model_in_band(rng, 170, 6500, 8500))
    for _ in range(36):
        negative("B", "holed-grid-2d", (5, 5))
    for _ in range(36):
        negative("B", "holed-grid-3d", (2, 2, 2))
    # Tier C: labeled 7x7 grids.
    for _ in range(40):
        positive("C", "labeled-grid", "hp-bisim", grid((7, 7), True), True)
    return reqs


def _unfold(rng: Random, write) -> list[Request]:
    reqs: list[Request] = []
    out_no = itertools.count()

    def unfold(tier, sizes, depth):
        model = grid_model(sizes)
        out = write.out(f"tree{next(out_no)}.json")
        reqs.append(Request(tier, "unfold-grid",
                            ["unfold", write(model), "--depth", str(depth),
                             "--out", out],
                            {"nodes": grid_unfold_nodes(sizes, depth)}))

    def is_tree(tier, sizes, depth, kind="is-tree-grid"):
        reqs.append(Request(tier, kind,
                            ["is-tree", write(grid_model(sizes)),
                             "--depth", str(depth)], {"verdict": True}))

    # Tier A: torus unfoldings, fan shapes, homotopy, small tree checks.
    for events, depth in ((("a",), 9), (("a", "b"), 6), (("a", "b"), 7),
                          (("a", "b", "c"), 6)):
        hda, labeling = torus_hda(EventSet(events), 3)
        model, _ = renamed(model_to_dict(hda, labeling), rng, "t")
        out = write.out(f"tree{next(out_no)}.json")
        reqs.append(Request("A", "unfold-torus",
                            ["unfold", write(model), "--depth", str(depth),
                             "--out", out],
                            {"nodes": torus_unfold_nodes(len(events), 3, depth)}))
    for sizes, length in (((3, 3), 11), ((2, 2, 2), 11), ((4, 4), 13),
                          ((3, 3, 3), 12)) * 2:
        walk = random_grid_walk(rng, sizes, length)
        dims = [cell_dim(c) for c in walk]
        n = dims[-1]
        reqs.append(Request("A", "fan-grid",
                            ["fan", write(grid_model(sizes)), "--path",
                             ",".join(walk)],
                            {"fan": {"t_before": sum(dims),
                                     "t_after": (n * n + length - 1) // 2,
                                     "length": length, "start": walk[0],
                                     "end": walk[-1]}}))
    for sizes, target in (((3, 3), (2, 2)), ((2, 2, 2), (1, 1, 2))) * 3:
        rho, sigma = grid_vertex_path(rng, target), grid_vertex_path(rng, target)
        reqs.append(Request("A", "homotopic-grid",
                            ["homotopic", write(grid_model(sizes)),
                             "--path", ",".join(rho), "--path", ",".join(sigma)],
                            {"verdict": True}))
    for p, q in ((0, 0), (0, 1), (1, 0), (1, 1)):
        # Paths around a hole at (p, q): through (p+1, q) versus (p, q+1).
        holed = without(grid_model((3, 3)), top_cube_id((p, q)))
        prefix = rng.sample([0] * p + [1] * q, p + q)
        tail = [0] * (2 - p) + [1] * (2 - q)
        rng.shuffle(tail)
        rho = vertex_path_from([0, 0], prefix + [0, 1] + tail)
        sigma = vertex_path_from([0, 0], prefix + [1, 0] + tail)
        reqs.append(Request("A", "homotopic-holed",
                            ["homotopic", write(holed),
                             "--path", ",".join(rho), "--path", ",".join(sigma)],
                            {"verdict": False}))
    for _ in range(4):
        p, q = rng.randrange(2), rng.randrange(2)
        holed = without(grid_model((4, 4)), top_cube_id((p, q)))
        reqs.append(Request("A", "is-tree-holed",
                            ["is-tree", write(holed), "--depth", "9"],
                            {"verdict": False}))
    is_tree("A", (4, 4), 9)
    is_tree("A", (3, 3, 3), 7)
    # Tier B: mid-size unfoldings and tree checks of similar cost.
    unfold("B", (4, 4), 10)
    unfold("B", (6, 6), 10)
    unfold("B", (4, 4, 4), 7)
    is_tree("B", (5, 5), 10)
    is_tree("B", (7, 7), 10)
    is_tree("B", (4, 4, 4), 7)
    # Tier C: larger unfoldings, and one request in ten past the default cap
    # of 100000 pointed paths: its answer is True, but enumerating it hits
    # the cap.
    unfold("C", (6, 6), 12)
    unfold("C", (2, 2, 2), 9)
    is_tree("C", (2, 2, 2), 13, kind="is-tree-past-cap")
    is_tree("C", (2, 2, 2), 13, kind="is-tree-past-cap")
    return reqs


def _oracle(rng: Random, write) -> list[Request]:
    reqs: list[Request] = []
    # Tier A: small random models at their exact depth; small tori.
    for _ in range(30):
        x = random_model(rng, rng.randint(20, 30))
        y, _ = renamed(x, rng, "r")
        reqs.append(Request("A", "renamed-random",
                            ["oracle", write(x), write(y), "--depth",
                             str(longest_path(x))], {"verdict": True}))
    for events, depth in ((("a",), 9), (("a", "b"), 5)) * 5:
        hda, labeling = torus_hda(EventSet(events), 3)
        x = model_to_dict(hda, labeling)
        y, _ = renamed(x, rng, "t")
        reqs.append(Request("A", "renamed-torus",
                            ["oracle", write(x), write(y), "--depth", str(depth)],
                            {"verdict": "inconclusive"}))
    # Tier B: holed 3x3 grids at depth 9, which exposes holes at position
    # sum <= 2 (depth >= 2 * sum + 5).
    full = grid_model((3, 3))
    positions = [p for p in hole_positions((3, 3)) if 2 * sum(p) + 5 <= 9]
    for _ in range(40):
        pos = rng.choice(positions)
        holed, _ = renamed(without(full, top_cube_id(pos)), rng, "h")
        reqs.append(Request("B", "holed-grid",
                            ["oracle", write(full), write(holed), "--depth", "9"],
                            {"verdict": False}))
    # Tier C: the one-loop model at a deep bound; megabytes of witness JSON.
    loop = {"cubes": [{"id": "v", "dim": 0, "d0": [], "d1": []},
                      {"id": "e", "dim": 1, "d0": ["v"], "d1": ["v"]}],
            "initial": "v"}
    for depth in range(171, 191):
        y, _ = renamed(loop, rng, "s")
        reqs.append(Request("C", "self-loop",
                            ["oracle", write(loop), write(y), "--depth",
                             str(depth)], {"verdict": "inconclusive"}))
    return reqs


def _mutant(rng: Random, model: dict, dims: int) -> tuple[dict, dict]:
    """One injected fault and the violation it must produce."""
    fault = rng.choice(("dangling-face", "face-dimension", "identity"))
    cubes = model["cubes"]
    if fault == "identity":
        # Swap two lower faces of a top cube: no cube has it as a face, so
        # only its own face identity breaks.
        top = rng.choice([c for c in cubes if c["dim"] == dims])
        k, ell = sorted(rng.sample(range(1, dims + 1), 2))
        return (swap_lower_faces(model, top["id"], k, ell),
                {"kind": "identity", "cube": top["id"]})
    cube = rng.choice([c for c in cubes if c["dim"] >= 1])
    k, nu = rng.randint(1, cube["dim"]), rng.randint(0, 1)
    # A dangling reference or the cube itself (dimension off by one).
    ref = "missing" if fault == "dangling-face" else cube["id"]
    return (replace_face(model, cube["id"], k, nu, ref),
            {"kind": fault, "cube": cube["id"], "k": k, "nu": nu, "ref": ref})


def _validate(rng: Random, write) -> list[Request]:
    reqs: list[Request] = []

    def grids(sizes_2d, sizes_3d):
        for sizes in (sizes_2d, sizes_3d):
            yield sizes, grid_model(sizes), grid_cube_count(sizes)

    def reachable(tier, base, sizes, count):
        junk, _ = renamed(grid_model((3,) * len(sizes)), rng, "j")
        reqs.append(Request(tier, "reachable-stray",
                            ["reachable", write(disjoint_union(base, junk))],
                            {"count": count}))

    def mutant(tier, base, sizes):
        model, violation = _mutant(rng, base, len(sizes))
        reqs.append(Request(tier, "validate-mutant", ["validate", write(model)],
                            {"violation": violation}))

    # Tier A: every request kind on the small grids, and validation of a
    # mid-size 2-D grid, clean or with one fault.
    for sizes, base, count in grids((30, 30), (7, 7, 7)):
        reqs.append(Request("A", "validate-grid", ["validate", write(base)],
                            {"valid": True}))
        reqs.append(Request("A", "reachable-grid", ["reachable", write(base)],
                            {"count": count}))
        reachable("A", base, sizes, count)
        mutant("A", base, sizes)
    base = grid_model((40, 40))
    reqs.append(Request("A", "validate-grid", ["validate", write(base)],
                        {"valid": True}))
    for _ in range(3):
        mutant("A", base, (40, 40))
    # Tier B: validation of a mid-size 3-D grid, clean or with one fault.  A
    # 2-D grid of as many cubes validates faster; mixing the two would put
    # the median on the boundary between them.
    base = grid_model((9, 9, 9))
    path = write(base)
    for _ in range(2):
        reqs.append(Request("B", "validate-grid", ["validate", path],
                            {"valid": True}))
    for _ in range(8):
        mutant("B", base, (9, 9, 9))
    # Tier C: reachability on the large grids, which also lists every cube.
    for sizes, base, count in grids((50, 50), (10, 10, 10)):
        reqs.append(Request("C", "reachable-grid", ["reachable", write(base)],
                            {"count": count}))
        for _ in range(2):
            reachable("C", base, sizes, count)
    return reqs


_BUILDERS = {"decide": _decide, "unfold": _unfold, "oracle": _oracle,
             "validate": _validate}


def build(workload: str, seed: int, workdir: str) -> list[Request]:
    """Write the workload's model files into `workdir` and return its
    requests; the same seed gives the same files and requests."""
    rng = Random(f"{workload}:{seed}")
    os.makedirs(workdir, exist_ok=True)
    reqs = _BUILDERS[workload](rng, _Writer(workdir))
    rng.shuffle(reqs)
    return reqs
