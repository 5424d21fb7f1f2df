"""Exhaustive families of small models, decided in full outside Tier-1.

The family of the 2x2 grid is every face-closed sub-HDA of
`grid_hda((2, 2))` whose cubes are all reachable from the corner: 689
models in 210 unlabeled bisimilarity classes.  The oracle checks the
decision on them exactly: the family is acyclic, so `hp_oracle` at the
longer of the two models' longest pointed paths unfolds both completely.
Tier-1 (`tests/test_bisim.py`) pins those counts, runs the oracle on
every model against the first model of its class, and decides a seeded
slice of the pairs of class representatives; the tests here decide and
run the oracle on all 21,945 of them, and on the 689 class pairs.

The torus families are every face-closed sub-HDA of an event torus,
labeled by the torus and not.  Each edge is a loop, so the oracle, at a
fixed depth, can only be inconclusive where the decision says True; it
must never say False within a class.  Tier-1 classifies the families of
the torus over {a, b} with maxdim 3 (41 models) and over {a, b, c} with
maxdim 2 (95 models); the test here classifies the one over {a, b, c}
with maxdim 3 (2,497 models).

Pytest does not collect this file by itself; run it with

    PYTHONPATH=src python -m pytest -q tests/exhaustive_families.py
"""

import functools
import itertools

import hdabisim as hb
from hdabisim.bisim import _refine, _seed
from hdabisim.generators import grid_hda, sub_hda


def sub_models(ambient):
    """Every face-closed sub-HDA of `ambient` whose cubes are all reachable
    from its initial cube, in a fixed order.

    Such a model is fixed by its cubes above dimension 0, since its other
    vertices are faces of its edges.  The cubes of each dimension are
    chosen among those whose faces were all chosen, and a choice is kept
    when a search along the ambient's steps, kept inside it, reaches it
    all."""
    space = ambient.space
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
        cubes = {ambient.initial}.union(tops, *(faces[c] for c in tops))
        seen, stack = {ambient.initial}, [ambient.initial]
        while stack:
            for s in steps[stack.pop()]:
                if s in cubes and s not in seen:
                    seen.add(s)
                    stack.append(s)
        if seen == cubes:
            family.append(sub_hda(ambient, cubes))
    return tuple(family)


@functools.cache
def grid_family():
    """`sub_models` of the 2x2 grid: 689 models."""
    return sub_models(grid_hda((2, 2)))


@functools.cache
def torus_family(names, maxdim):
    """`sub_models` of `torus_hda(EventSet(names), maxdim)`, each with the
    torus labeling restricted to its cubes.  The torus has one vertex, from
    which lower cofaces reach every cube, so these are all its face-closed
    sub-HDA that contain the vertex; each edge is a loop on it."""
    torus, labeling = hb.torus_hda(hb.EventSet(names), maxdim)
    return tuple((hda, hb.Labeling(labeling.events,
                                   {c: labeling.assign[c] for c in hda.space}))
                 for hda in sub_models(torus))


@functools.cache
def class_pairs():
    """Each model of `grid_family()`, after the first model of its
    unlabeled class, as one refinement over the whole family finds the
    classes."""
    family = grid_family()
    blocks, _rounds = _refine(_seed([(hda, None) for hda in family]))
    first = {}
    return tuple((first.setdefault(blk[hda.space.indexed.pos[hda.initial]], hda),
                  hda) for hda, blk in zip(family, blocks))


def torus_classes(names, maxdim):
    """The number of models of `torus_family(names, maxdim)`, then the
    number of classes and of rounds of one refinement over the family,
    unlabeled and then labeled.  On the way, checks that the refinement's
    classes are naive refinement's and that `hp_oracle` at depth 5 never
    says False for a model against the first model of its class."""
    from test_bisim import _blocks, _naive_refine, _named

    family = torus_family(names, maxdim)
    counts = [len(family)]
    for labeled in (False, True):
        sides = [(hda, labeling if labeled else None)
                 for hda, labeling in family]
        blocks, rounds = _refine(_seed(sides))
        *naive, _naive_rounds = _naive_refine(sides)
        assert _blocks(*_named(sides, blocks)) == _blocks(*naive)
        first = {}
        for (hda, labeling), blk in zip(sides, blocks):
            x, lx = first.setdefault(blk[hda.space.indexed.pos[hda.initial]],
                                     (hda, labeling))
            if x is not hda:
                verdict = hb.hp_oracle(x, hda, 5, lx, labeling).result
                assert verdict is not False, (x, hda)
        counts.append((len(first), rounds))
    return tuple(counts)


def representatives():
    """The first model of each unlabeled class of `grid_family()`, the one
    paired with itself."""
    return tuple(x for x, y in class_pairs() if x is y)


def oracle(x, y):
    """`hp_oracle` on an acyclic pair at the longer of their longest pointed
    paths, where both unfoldings are complete, so the verdict is exact."""
    depth = max(map(hb.longest_pointed_path_length, (x, y)))
    return hb.hp_oracle(x, y, depth).result


def test_the_oracle_puts_every_model_with_its_class():
    pairs = class_pairs()
    assert len(pairs) == 689
    assert [n for n, pair in enumerate(pairs) if oracle(*pair) is not True] == []


def test_every_pair_of_grid_family_representatives_is_apart():
    pairs = list(itertools.combinations(representatives(), 2))
    assert len(pairs) == 21945
    together = [n for n, (x, y) in enumerate(pairs) if hb.hp_bisimilar(x, y)]
    assert together == []
    assert [n for n, pair in enumerate(pairs) if oracle(*pair) is not False] == []


def test_one_refinement_classifies_the_abc_torus_family():
    assert torus_classes(("a", "b", "c"), 3) == (2497, (1936, 11), (2497, 7))
