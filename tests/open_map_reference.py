"""Openness by its definition, kept as the reference that `open_map_check`
is tested against (`test_bisim.py`).

Joyal, Nielsen and Winskel call a morphism f: X -> Y open when it lifts
along morphisms of path objects: for every pointed path rho of X and every
extension sigma of f.rho in Y, some extension of rho in X maps onto sigma
step by step.  A step carries its kind and its k, as a morphism from the
path object P_sigma (`hdabisim.path_object`) does, so a lift takes each
step in the same direction as sigma; lifting the cube sequence alone would
miss self-linked cubes.  Frontier cubes of a truncated source carry no
obligation: a lift that reaches one need go no further.

`open_map_check` decides the one-step form that the paper proves
equivalent; this module decides the definition within a depth, by
depth-first search over the extensions sigma, lifting each into X as it
grows.  It shares no code with `open_map_check`.
"""

from __future__ import annotations

from typing import Iterator

from hdabisim.core import HDA, PrecubicalMorphism, PrecubicalSet

#: A step out of a cube: ("start", k, y) with the cube = d0_k y, or
#: ("end", k, y) with y = d1_k of the cube.
Step = tuple[str, int, str]


def steps_from(space: PrecubicalSet, y: str) -> list[Step]:
    """Every step out of y, with its kind and k."""
    out = [("start", k, y2) for k, y2 in space.cofaces_lower(y)]
    out += [("end", k, y2) for k, y2 in enumerate(space.row(y)[2], 1)
            if y2 is not None]
    return out


def lift_step(f: PrecubicalMorphism, x: str, step: Step) -> list[str]:
    """The cubes one step after x, of the step's kind and k, that f maps
    onto the step's cube."""
    kind, k, y = step
    xs = f.source.space
    after = xs.cofaces_lower_at(x, k) if kind == "start" else (xs.upper(x, k),)
    return [x2 for x2 in after if x2 is not None and f.mapping[x2] == y]


def lifts(f: PrecubicalMorphism, x: str,
          steps: tuple[Step, ...]) -> Iterator[tuple[str, ...]]:
    """Every lift of `steps` from x, as the cubes after x; a lift stops at a
    frontier cube."""
    if not steps or x in f.source.space.frontier:
        yield ()
        return
    for x2 in lift_step(f, x, steps[0]):
        for rest in lifts(f, x2, steps[1:]):
            yield (x2,) + rest


def extensions(space: PrecubicalSet, y: str,
               n: int) -> Iterator[tuple[Step, ...]]:
    """Every sequence of at most n steps out of y."""
    yield ()
    if n:
        for step in steps_from(space, y):
            for rest in extensions(space, step[2], n - 1):
                yield (step,) + rest


def pointed_ends(hda: HDA, depth: int) -> Iterator[tuple[int, set[str]]]:
    """For each length L <= depth, the ends of the pointed paths of length
    L: whether an extension lifts depends on rho only through its end and
    how many steps the depth leaves."""
    ends, length = {hda.initial}, 1
    while ends and length <= depth:
        yield length, ends
        ends = {y for x in ends for y in hda.space.successors(x)}
        length += 1


def is_open(f: PrecubicalMorphism, depth: int) -> bool:
    """Whether every extension, within `depth`, of the image of every
    pointed path of X = ``f.source`` within `depth` lifts to an extension
    of the path.

    The search follows sigma one step at a time with the set of cubes that
    end a lift of sigma so far, so sigmas that share a prefix share its
    lifts; a (cube, lift ends, steps left) already shown to lift every
    extension is not searched again."""
    frontier, lifted = f.source.space.frontier, set()

    def every_extension_lifts(y: str, ends: frozenset[str], left: int) -> bool:
        if not left or ends & frontier or (y, ends, left) in lifted:
            return True
        for step in steps_from(f.target.space, y):
            nxt = frozenset(x2 for x in ends for x2 in lift_step(f, x, step))
            if not nxt or not every_extension_lifts(step[2], nxt, left - 1):
                return False
        lifted.add((y, ends, left))
        return True

    return all(every_extension_lifts(f.mapping[x], frozenset((x,)),
                                     depth - length)
               for length, ends in pointed_ends(f.source, depth) for x in ends)
