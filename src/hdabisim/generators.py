"""Seeded random HDA and random pointed paths for property checks.

Random models are face-closed sub-structures of well-formed ambient
complexes: rectangular grids (acyclic) or event tori (cyclic, every edge is
a loop on the unique vertex).  Sub-structures of valid complexes are valid,
so the generator cannot produce broken face data by construction.
"""

from __future__ import annotations

import bisect
import itertools
import weakref
from random import Random

from .core import HDA, EventSet, Labeling, PrecubicalSet, torus_hda
from .paths import CubePath

# One grid cell per axis: either the point at `pos` or the unit segment
# from `pos` to `pos + 1`.
_Cell = tuple[tuple[int, bool], ...]


def _grid_cell_id(cell: _Cell) -> str:
    return "g" + "_".join(f"{p}s" if ext else f"{p}" for p, ext in cell)


def _grid_cells(sizes: list[int] | tuple[int, ...]) -> int:
    total = 1
    for size in sizes:
        total *= 2 * size + 1
    return total


def grid_hda(sizes: tuple[int, ...]) -> HDA:
    """The full rectangular grid complex with the given number of unit
    segments per axis, pointed at the origin."""
    axes = []
    for size in sizes:
        cells = [(p, False) for p in range(size + 1)]
        cells += [(p, True) for p in range(size)]
        axes.append(cells)
    # The id of a cell joins one token per axis (see _grid_cell_id); a face
    # swaps the token of one extended axis for a point token.
    token = {(p, ext): f"{p}s" if ext else f"{p}"
             for cells in axes for p, ext in cells}
    rows = {}
    for cell in itertools.product(*axes):
        tokens = [token[c] for c in cell]
        lower, upper = [], []
        for axis, (pos, ext) in enumerate(cell):
            if ext:
                tokens[axis] = token[pos, False]
                lower.append("g" + "_".join(tokens))
                tokens[axis] = token[pos + 1, False]
                upper.append("g" + "_".join(tokens))
                tokens[axis] = token[pos, True]
        rows["g" + "_".join(tokens)] = (len(lower), tuple(lower), tuple(upper))
    origin = _grid_cell_id(tuple((0, False) for _ in sizes))
    return HDA(PrecubicalSet(rows), origin)


def _face_closure(space: PrecubicalSet, seed_ids: set[str]) -> set[str]:
    row = space.row
    todo = list(seed_ids)
    out = set(seed_ids)
    while todo:
        _dim, lower, upper = row(todo.pop())
        for f in lower + upper:
            if f is not None and f not in out:
                out.add(f)
                todo.append(f)
    return out


def sub_hda(ambient: HDA, keep: set[str]) -> HDA:
    """The face-closed sub-HDA of `ambient` spanned by `keep` plus the
    initial cube."""
    space = ambient.space
    rows = space.rows()
    chosen = _face_closure(space, set(keep) | {ambient.initial})
    return HDA(PrecubicalSet({c: rows[c] for c in chosen}),
               ambient.initial)


# Ambient grids of earlier draws, per generator: draws from one Random reuse
# the grids of the last few sizes it drew, and the memo goes with the
# generator, so it holds no memory once the drawing is done.
_GRIDS: weakref.WeakKeyDictionary[Random, dict] = weakref.WeakKeyDictionary()
_GRIDS_KEPT = 4


def _ambient_grid(rng: Random, sizes: tuple[int, ...]
                  ) -> tuple[HDA, dict[str, tuple[str, ...]]]:
    """The grid of `sizes` and a table of its cubes' successors, filled as
    walks ask for them."""
    memo = _GRIDS.setdefault(rng, {})
    entry = memo.pop(sizes, None) or (grid_hda(sizes), {})
    memo[sizes] = entry  # the most recently used entry goes last
    if len(memo) > _GRIDS_KEPT:
        del memo[next(iter(memo))]
    return entry


def random_hda(rng: Random, max_cubes: int = 30, max_dim: int = 3,
               cyclic: bool = False, stray: bool = False,
               min_cubes: int | None = None) -> HDA:
    """A random face-closed sub-HDA of a grid (acyclic) or a torus (cyclic).

    Cubes are collected along random walks from the initial cube, so most of
    the result is reachable; with `stray` a few disconnected cubes are mixed
    in to exercise unreachable-part handling.
    """
    dim = rng.randint(1, max_dim)
    if cyclic:
        names = tuple("ab"[:rng.randint(1, 2)])
        ambient, _labeling = torus_hda(EventSet(names), dim)
        succ: dict[str, tuple[str, ...]] = {}
    else:
        sizes = [rng.randint(1, 3) for _ in range(dim)]
        while _grid_cells(sizes) < 2 * max_cubes:
            sizes[rng.randrange(dim)] += 1
        ambient, succ = _ambient_grid(rng, tuple(sizes))
    space = ambient.space
    keep: set[str] = {ambient.initial}
    restarts = [ambient.initial]  # `keep`, sorted as cubes are added
    closed = _face_closure(space, keep)
    floor = min_cubes if min_cubes is not None else max(4, max_cubes // 3)
    budget = rng.randint(min(floor, max_cubes), max_cubes)
    cur = ambient.initial
    for _step in range(40 * max_cubes):  # the ambient may be smaller than budget
        if len(closed) >= budget:
            break
        succs = succ.get(cur)
        if succs is None:
            succs = succ[cur] = space.successors(cur)
        if not succs or rng.random() < 0.15:
            cur = rng.choice(restarts)
            continue
        cur = rng.choice(succs)
        if cur not in closed:
            grown = closed | _face_closure(space, {cur})
            if len(grown) > budget:
                continue
            keep.add(cur)
            bisect.insort(restarts, cur)
            closed = grown
    if stray:
        extras = [c for c in space.ids() if c not in keep]
        for c in rng.sample(extras, k=min(2, len(extras))):
            keep.add(c)
    return sub_hda(ambient, keep)


def grid_labeling(hda: HDA, events: EventSet) -> Labeling:
    """Label a grid (sub-)HDA by its axes: axis i carries the i-th event, so
    every tuple is sorted and the k-th face deletes the k-th entry."""
    assign: dict[str, tuple[int, ...]] = {}
    for cid in hda.space.ids():
        if not cid.startswith("g"):
            raise ValueError(f"{cid!r} is not a grid cell id")
        tokens = cid[1:].split("_")
        if len(tokens) > len(events):
            raise ValueError("not enough events for the grid's axes")
        assign[cid] = tuple(i + 1 for i, tok in enumerate(tokens)
                            if tok.endswith("s"))
    return Labeling(events, assign)


def random_pointed_path(rng: Random, hda: HDA, max_len: int) -> CubePath:
    """A random walk along the step relation, starting at the initial cube."""
    space = hda.space
    seq = [hda.initial]
    target = rng.randint(1, max_len)
    while len(seq) < target:
        succs = space.successors(seq[-1])
        if not succs:
            break
        seq.append(rng.choice(succs))
    return CubePath(space, tuple(seq))
