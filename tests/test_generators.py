"""Seeded generators: the memoized grid walk draws what the rebuilt one did."""

import itertools
import math
import random

from hdabisim import HDA, EventSet, PrecubicalSet, model_to_dict, torus_hda
from hdabisim.generators import _face_closure, grid_hda, random_hda, sub_hda


# -- reference: the generator before the grid memo ----------------------------

def _cell_id_ref(cell):
    return "g" + "_".join(f"{p}s" if ext else f"{p}" for p, ext in cell)


def _grid_hda_ref(sizes):
    axes = []
    for size in sizes:
        axes.append([(p, False) for p in range(size + 1)]
                    + [(p, True) for p in range(size)])
    rows = {}
    for cell in itertools.product(*axes):
        lower, upper = [], []
        for axis, (pos, ext) in enumerate(cell):
            if ext:
                at = lambda p: cell[:axis] + ((p, False),) + cell[axis + 1:]
                lower.append(_cell_id_ref(at(pos)))
                upper.append(_cell_id_ref(at(pos + 1)))
        dim = sum(1 for _p, ext in cell if ext)
        rows[_cell_id_ref(cell)] = (dim, tuple(lower), tuple(upper))
    return HDA(PrecubicalSet(rows), _cell_id_ref(tuple((0, False) for _ in sizes)))


def _random_hda_ref(rng, max_cubes=30, max_dim=3, cyclic=False, stray=False,
                    min_cubes=None):
    """`random_hda` as it was: a fresh ambient per call, and `successors`,
    which sorts a new set, at every step."""
    dim = rng.randint(1, max_dim)
    if cyclic:
        names = tuple("ab"[:rng.randint(1, 2)])
        ambient, _labeling = torus_hda(EventSet(names), dim)
    else:
        sizes = [rng.randint(1, 3) for _ in range(dim)]
        while math.prod(2 * s + 1 for s in sizes) < 2 * max_cubes:
            sizes[rng.randrange(dim)] += 1
        ambient = _grid_hda_ref(tuple(sizes))
    space = ambient.space
    keep = {ambient.initial}
    closed = _face_closure(space, keep)
    floor = min_cubes if min_cubes is not None else max(4, max_cubes // 3)
    budget = rng.randint(min(floor, max_cubes), max_cubes)
    cur = ambient.initial
    for _step in range(40 * max_cubes):
        if len(closed) >= budget:
            break
        succs = space.successors(cur)
        if not succs or rng.random() < 0.15:
            cur = rng.choice(sorted(keep))
            continue
        cur = rng.choice(succs)
        if cur not in closed:
            grown = closed | _face_closure(space, {cur})
            if len(grown) > budget:
                continue
            keep.add(cur)
            closed = grown
    if stray:
        extras = [c for c in space.ids() if c not in keep]
        for c in rng.sample(extras, k=min(2, len(extras))):
            keep.add(c)
    return sub_hda(ambient, keep)


# -- tests ----------------------------------------------------------------------

def test_grid_hda_matches_reference():
    for sizes in ((1,), (4,), (2, 2), (3, 1), (1, 2, 3), (2, 1, 1, 2)):
        assert model_to_dict(grid_hda(sizes)) == model_to_dict(_grid_hda_ref(sizes))


def test_random_hda_draws_are_unchanged():
    # One shared generator per side, as a seeded corpus draws from one, so that
    # grids recur, hit the memo and get evicted from it; the generators'
    # states must agree after every call, not only the models.
    draws = random.Random(5150)
    new, ref = random.Random(77), random.Random(77)
    for trial in range(200):
        kwargs = {"max_cubes": draws.choice((6, 20, 40, 100, 170)),
                  "max_dim": draws.randint(1, 3),
                  "cyclic": trial % 4 == 0, "stray": trial % 3 == 0,
                  "min_cubes": draws.choice((None, None, 4, 30, 120))}
        got = model_to_dict(random_hda(new, **kwargs))
        assert got == model_to_dict(_random_hda_ref(ref, **kwargs)), (trial, kwargs)
        assert new.getstate() == ref.getstate(), (trial, kwargs)
