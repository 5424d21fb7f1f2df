"""The int homotopy engine against the string engine it replaced.

`homotopy_reference` keeps the string clauses, closure and layered quotient.
The int engine must fire the same clause with the same (position, k, ell,
swapped), visit the same paths in the same order (so a cap stops both at the
same `seen` set), and build the same classes, on models whose id order
differs from the int view's (dimension, id) order.
"""

import itertools
import random
from collections import Counter

import pytest

import hdabisim as hb
from hdabisim import HDA, CubePath, EventSet, PrecubicalSet
from hdabisim.generators import grid_hda, random_hda, random_pointed_path, sub_hda
from hdabisim.paths import _closure, _indices
from hdabisim.unfold import _Quotient

import homotopy_reference as ref
from conftest import load


def _renamed(hda, rng):
    """The model with its cubes renamed at random, so that id order mixes
    the dimensions (as in the benchmark's renamed tori)."""
    space = hda.space
    names = [f"c{n:02d}" for n in range(len(space))]
    rng.shuffle(names)
    new = dict(zip(space.ids(), names))
    rename = lambda faces: tuple(new[f] for f in faces)
    rows = {new[c]: (dim, rename(lower), rename(upper))
            for c, (dim, lower, upper) in space.rows().items()}
    return HDA(PrecubicalSet(rows), new[hda.initial])


def _models():
    rng = random.Random(7070)
    for i in range(40):
        yield random_hda(rng, max_cubes=18, max_dim=3, cyclic=i % 3 == 0)
    for sizes in ((2, 2), (2, 3), (1, 2, 2), (2, 2, 2)):
        grid = grid_hda(sizes)
        space = grid.space
        keep = {c for c in space.ids()
                if space.dim(c) < space.max_dim() or rng.random() < 0.6}
        yield sub_hda(grid, keep)
    for names in (("a",), ("a", "b"), ("a", "b", "c")):
        for maxdim in (1, 2, 3):
            torus = hb.torus_hda(EventSet(names), maxdim)[0]
            yield torus
            yield _renamed(torus, rng)
    for name in ("fig1_left.json", "fig1_right.json", "fig2_square.json",
                 "fig3.json", "fig5_x.json"):
        yield load(name).hda


def _walk(rng, space, length):
    """A random walk along the step relation from a random cube."""
    seq = [rng.choice(space.ids())]
    while len(seq) < length:
        succs = space.successors(seq[-1])
        if not succs:
            break
        seq.append(rng.choice(succs))
    return tuple(seq)


def test_adjacency_clauses_agree_with_string_reference():
    rng = random.Random(7171)
    fired = Counter()
    for hda in _models():
        space = hda.space
        ids = space.ids()
        for _ in range(30):
            seq = (random_pointed_path(rng, hda, 9).seq if rng.random() < 0.5
                   else _walk(rng, space, rng.randint(3, 8)))
            if len(seq) < 3:
                continue
            for p in range(1, len(seq) - 1):
                cands = sorted(ref.between_candidates(space, seq[p - 1], seq[p + 1]))
                cands += rng.sample(ids, min(3, len(ids)))
                for cand in cands:
                    if cand == seq[p]:
                        continue
                    other = seq[:p] + (cand,) + seq[p + 1:]
                    want = ref.adjacency_at(space, seq, other, p + 1)
                    got = hb.adjacency(CubePath(space, seq), CubePath(space, other))
                    assert got == want, (seq, other)
                    if want is not None:
                        fired[want.clause, want.swapped] += 1
    # Every clause fires, from either side, often enough to be compared.
    assert set(fired) == set(itertools.product((1, 2, 3, 4), (False, True)))
    assert min(fired.values()) >= 20, fired


def _same_endpoint_pairs(rng, hda, max_len, count):
    by_key = {}
    for path in hb.enumerate_pointed_paths(hda, max_len):
        by_key.setdefault((len(path), path.end), []).append(path.seq)
    groups = [seqs for seqs in by_key.values() if len(seqs) > 1]
    for _ in range(count if groups else 0):
        yield tuple(rng.sample(rng.choice(groups), 2))


def test_closure_agrees_with_string_reference_under_caps():
    rng = random.Random(7272)
    verdicts = Counter()
    for hda in _models():
        space = hda.space
        view = space.indexed
        for rho, sigma in _same_endpoint_pairs(rng, hda, 8, 6):
            for cap in (1, 2, 3, 5, 8, 13, 100_000):
                want = ref.closure(space, rho, cap, stop_at=sigma)
                found, seen, capped = _closure(view, _indices(view, rho), cap,
                                               stop_at=_indices(view, sigma))
                assert (found, capped) == want[::2], (rho, sigma, cap)
                assert {tuple(view.ids[i] for i in s) for s in seen} == want[1]
                got = hb.are_homotopic(CubePath(space, rho),
                                       CubePath(space, sigma), cap=cap)
                expected = (True if want[0] else
                            hb.EXHAUSTED if want[2] else False)
                assert got == expected, (rho, sigma, cap)
                verdicts[got] += 1
    assert min(verdicts[v] for v in (True, False, hb.EXHAUSTED)) >= 50, verdicts


def test_class_and_canonical_rep_agree_with_string_reference():
    rng = random.Random(7373)
    sizes = Counter()
    for hda in _models():
        space = hda.space
        for _ in range(6):
            rho = random_pointed_path(rng, hda, 9)
            for cap in (4, 100_000):
                _found, seen, capped = ref.closure(space, rho.seq, cap)
                if capped:
                    with pytest.raises(hb.CapExceeded):
                        hb.homotopy_class(rho, cap=cap)
                    with pytest.raises(hb.CapExceeded):
                        hb.canonical_rep(rho, cap=cap)
                    continue
                members = [p.seq for p in hb.homotopy_class(rho, cap=cap)]
                assert members == sorted(seen)
                assert hb.canonical_rep(rho, cap=cap).seq == min(seen)
                sizes[len(seen) > 1] += 1
    assert min(sizes.values()) >= 50, sizes


def _faulty(hda, rng):
    """The model with 1-3 faults that keep every face a known id or an
    omitted upper face: a face moved to another cube, an upper face
    omitted, a dimension off by one, or a face list one longer or shorter.
    Such models fail validation, and mix dimensions among the cubes
    between two others."""
    space = hda.space
    cubes = {c: [space.dim(c), list(space.row(c)[1]), list(space.row(c)[2])]
             for c in space.ids()}
    ids = list(space.ids())
    for _ in range(rng.randint(1, 3)):
        cid = rng.choice(ids)
        dim, lower, upper = cubes[cid]
        faces = rng.choice((lower, upper))
        kind = rng.randrange(4)
        if kind == 0 and faces:
            faces[rng.randrange(len(faces))] = rng.choice(ids)
        elif kind == 1 and upper:
            upper[rng.randrange(len(upper))] = None
        elif kind == 2:
            cubes[cid][0] = max(0, dim + rng.choice((-1, 1)))
        elif faces and rng.random() < 0.5:
            faces.pop()
        else:
            faces.append(rng.choice(ids))
    return HDA(PrecubicalSet({c: (d, tuple(lo), tuple(up))
                              for c, (d, lo, up) in cubes.items()}),
               hda.initial)


def test_engine_agrees_with_string_reference_on_faulty_models():
    rng = random.Random(7474)
    hits = capped_runs = 0
    for base in _models():
        for _ in range(2):
            hda = _faulty(base, rng)
            space = hda.space
            view = space.indexed
            for _ in range(8):
                seq = _walk(rng, space, rng.randint(3, 8))
                for p in range(1, len(seq) - 1):
                    cands = sorted(ref.between_candidates(space, seq[p - 1],
                                                          seq[p + 1]))
                    for cand in cands + rng.sample(space.ids(), 2):
                        other = seq[:p] + (cand,) + seq[p + 1:]
                        if other == seq:
                            continue
                        want = ref.adjacency_at(space, seq, other, p + 1)
                        got = hb.adjacency(CubePath(space, seq),
                                           CubePath(space, other))
                        assert got == want, (seq, other)
                        hits += want is not None
                for cap in (2, 3, 5, 8, 100_000):
                    want = ref.closure(space, seq, cap)
                    _found, seen, capped = _closure(view, _indices(view, seq), cap)
                    assert capped == want[2], (seq, cap)
                    assert {tuple(view.ids[i] for i in s) for s in seen} == want[1]
                    capped_runs += capped
    assert hits >= 200 and capped_runs >= 200, (hits, capped_runs)


def test_alternatives_follow_id_order_across_dimensions():
    # In a valid model the cubes that can replace one path entry share a
    # dimension, so id order and the int view's (dimension, id) order agree
    # on them.  Here a face list one too long lets a 3-cube and a 0-cube
    # both replace the square; the 3-cube comes first by id, so a closure
    # capped at one path stops before it meets the vertex.
    space = PrecubicalSet({
        "u": (0, (), ()), "v": (0, (), ()), "w": (0, (), ()),
        "e1": (1, ("u",), ("v",)),
        "e4": (1, ("v", "s"), ("w",)),
        "s": (2, ("e1", "e1"), ("e4", "e4")),
        "a3": (3, ("e1", "e1", "e1"), ("e4", "e4", "e4"))})
    rho = CubePath(space, ("e1", "s", "e4"))
    dip = CubePath(space, ("e1", "v", "e4"))
    assert ref.adjacent_seqs(space, rho.seq) == [("e1", "a3", "e4"), dip.seq]
    assert hb.are_homotopic(rho, dip, cap=1) == hb.EXHAUSTED
    assert hb.are_homotopic(rho, dip, cap=2) is True
    assert [p.seq for p in hb.homotopy_class(rho)] == sorted(
        [rho.seq, dip.seq, ("e1", "a3", "e4")])


def test_unknown_ids_raise_model_error(fig3):
    space = fig3.hda.space
    good = CubePath(space, ("i", "a", "x"))
    bad = CubePath(space, ("i", "zz", "x"))
    for call in (lambda: hb.adjacency(good, bad),
                 lambda: hb.are_homotopic(good, bad),
                 lambda: hb.homotopy_class(bad),
                 lambda: hb.canonical_rep(bad)):
        with pytest.raises(hb.ModelError, match="unknown cube id 'zz'"):
            call()


def test_quotient_agrees_with_string_reference():
    for i, hda in enumerate(_models()):
        depth = 2 + i % 6
        want = ref.Quotient(hda, 100_000)
        want_layers = [list(layer) for layer in want.layers(depth)]
        while want_layers and not want_layers[-1]:
            want_layers.pop()
        got = _Quotient(hda, 100_000)
        assert [list(layer) for layer in got.layers(depth)] == want_layers
        ids = got.view.ids
        assert [tuple(ids[j] for j in rep) for rep in got.reps] == want.reps
        assert {(c, ids[y]): d for (c, y), d in got.child.items()} == want.child
        assert [{ids[e]: c for e, c in via.items()} for via in got.via] == want.via
        for cube in got.successors:
            assert tuple(ids[j] for j in got.successors[cube]) == \
                hda.space.successors(ids[cube])


def test_layers_stop_at_the_first_empty_layer(fig2, fig3):
    for hda in (fig2.hda, fig3.hda):
        layers = list(itertools.islice(_Quotient(hda, 1000).layers(10**9), 50))
        assert layers and all(layers)
        assert len(layers) == hb.longest_pointed_path_length(hda)
