"""Exhaustive families of small models, decided in full outside Tier-1.

The family of the 2x2 grid is every face-closed sub-HDA of
`grid_hda((2, 2))` whose cubes are all reachable from the corner: 689
models in 210 unlabeled bisimilarity classes.  Tier-1
(`tests/test_bisim.py`) pins those counts and decides a seeded slice of
the pairs of class representatives; the test here decides all 21,945 of
them.  Pytest does not collect this file by itself; run it with

    PYTHONPATH=src python -m pytest -q tests/exhaustive_families.py
"""

import functools
import itertools

import hdabisim as hb
from hdabisim.bisim import _refine, _seed
from hdabisim.generators import grid_hda, sub_hda


@functools.cache
def grid_family(sizes=(2, 2)):
    """Every face-closed sub-HDA of the grid of `sizes` whose cubes are all
    reachable from its corner, in a fixed order.

    Such a model is fixed by its cubes above dimension 0, since its other
    vertices are faces of its edges.  The cubes of each dimension are
    chosen among those whose faces were all chosen, and a choice is kept
    when a search along the grid's steps, kept inside it, reaches it all."""
    grid = grid_hda(sizes)
    space = grid.space
    by_dim = {}
    for c in space.ids():
        by_dim.setdefault(space.dim(c), []).append(c)
    faces = {c: set(space.row(c)[1] + space.row(c)[2]) for c in space.ids()}
    steps = {c: space.successors(c) for c in space.ids()}

    def closures(dim, chosen):
        """Every choice of cubes of dimension `dim` and up over `chosen`."""
        if dim not in by_dim:
            yield chosen
            return
        fits = [c for c in by_dim[dim] if faces[c] <= chosen]
        for n in range(len(fits) + 1):
            for picked in itertools.combinations(fits, n):
                yield from closures(dim + 1, chosen | set(picked))

    family = []
    for chosen in closures(1, frozenset(by_dim[0])):
        tops = chosen.difference(by_dim[0])
        cubes = {grid.initial}.union(tops, *(faces[c] for c in tops))
        seen, stack = {grid.initial}, [grid.initial]
        while stack:
            for s in steps[stack.pop()]:
                if s in cubes and s not in seen:
                    seen.add(s)
                    stack.append(s)
        if seen == cubes:
            family.append(sub_hda(grid, cubes))
    return tuple(family)


@functools.cache
def representatives(sizes=(2, 2)):
    """The first model of each unlabeled class of `grid_family(sizes)`, as
    one refinement over the whole family finds the classes."""
    sides = [(hda, None) for hda in grid_family(sizes)]
    blocks, _rounds = _refine(_seed(sides))
    first = {}
    for hda, blk in zip(grid_family(sizes), blocks):
        first.setdefault(blk[hda.space.indexed.pos[hda.initial]], hda)
    return tuple(first.values())


def test_every_pair_of_grid_family_representatives_is_apart():
    pairs = list(itertools.combinations(representatives(), 2))
    assert len(pairs) == 21945
    together = [n for n, (x, y) in enumerate(pairs) if hb.hp_bisimilar(x, y)]
    assert together == []
