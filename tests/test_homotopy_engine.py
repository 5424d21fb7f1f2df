"""The int homotopy engine against the string engine it replaced.

`homotopy_reference` keeps the string clauses, closure and layered quotient.
The int engine must read the same merges off their witnesses as the clause
search finds and build the same classes, on models whose id order differs
from the int view's (dimension, id) order.  `are_homotopic`, `homotopy_class`
and `canonical_rep` read the quotient of the paths from a path's first cube
up to its length: they must agree with the string closure of the path, and
a cap must stop them exactly when those classes (or, for `homotopy_class`,
the members) outnumber it.
"""

import itertools
import random
import re
from collections import Counter

import pytest

import hdabisim as hb
from hdabisim import HDA, CubePath, EventSet, PrecubicalSet
from hdabisim.generators import grid_hda, random_hda, sub_hda
from hdabisim.paths import _classes, _Quotient
from hdabisim.unfold import _quotient

import homotopy_reference as ref
from conftest import load, refusal, truncated


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


def _reference_classes(space, start, length, budget=2000):
    """The classes of the cube paths from `start`, one list per length from
    1 up to `length` or the last length with a path, each class the string
    closure of its least member; None past `budget` paths of one length."""
    layer, out = [(start,)], []
    while layer and len(out) < length:
        if len(layer) > budget:
            return None
        left, classes = set(layer), []
        for seq in layer:
            if seq in left:
                _found, seen, _capped = ref.closure(space, seq, 100_000)
                classes.append(seen)
                left -= seen
        out.append(classes)
        layer = [seq + (y,) for seq in layer
                 for y in space.successors(seq[-1])]
    return out


def _cases(rng, space, length, count):
    """(rho, its reference class, the number of classes of the paths from
    rho's first cube up to its length): up to three paths of the longest
    length up to a random bound, from each of `count` random cubes."""
    for _ in range(count):
        start = rng.choice(space.ids())
        layers = _reference_classes(space, start, rng.randint(2, length))
        if layers is None or len(layers) < 2:
            continue
        classes = sum(map(len, layers))
        of = {seq: cls for cls in layers[-1] for seq in cls}
        for seq in rng.sample(sorted(of), min(3, len(of))):
            yield CubePath(space, seq), of[seq], classes


def _raises_cap_exceeded(call) -> bool:
    try:
        call()
    except hb.CapExceeded:
        return True
    return False


def _check_verdicts(rng, rho, cls, classes, tally):
    """are_homotopic of rho and a member of its class, and of rho and up to
    four paths of its length from its first cube to its end cube."""
    space = rho.space
    for seq in (rng.choice(sorted(cls)), *_same_end(rho)):
        sigma = CubePath(space, seq)
        want = ref.closure(space, rho.seq, 100_000, stop_at=sigma.seq)[0]
        assert hb.are_homotopic(rho, sigma, cap=100_000) is want, (rho, sigma)
        tally[want] += 1
        for cap in {classes - 1, classes} - {0}:
            capped = _raises_cap_exceeded(
                lambda: hb.are_homotopic(rho, sigma, cap=cap))
            assert capped == (classes > cap), (rho, sigma, cap)
            tally["capped" if capped else "uncapped"] += 1


def _same_end(rho):
    layer, space = [rho.seq[:1]], rho.space
    for _ in range(len(rho) - 1):
        layer = [seq + (y,) for seq in layer for y in space.successors(seq[-1])]
        if len(layer) > 2000:
            return []
    return sorted(seq for seq in layer if seq[-1] == rho.end)[:4]


def test_are_homotopic_agrees_with_string_reference():
    rng = random.Random(7272)
    tally = Counter()
    for hda in _models():
        for rho, cls, classes in _cases(rng, hda.space, 8, 3):
            _check_verdicts(rng, rho, cls, classes, tally)
    # Both verdicts, and capped and uncapped calls, occur often enough for
    # the comparison to mean something.
    assert min(tally[k] for k in (True, False, "capped", "uncapped")) >= 50, tally


def _check_class(rho, cls, classes, tally):
    members = [p.seq for p in hb.homotopy_class(rho, 100_000)]
    assert members == sorted(cls), rho
    assert hb.canonical_rep(rho, cap=100_000).seq == min(cls), rho
    tally[len(cls) > 1] += 1
    for cap in {classes - 1, classes, len(cls) - 1, len(cls)} - {0}:
        capped = _raises_cap_exceeded(lambda: hb.homotopy_class(rho, cap))
        assert capped == (classes > cap or len(cls) > cap), (rho, cap)
        capped = _raises_cap_exceeded(lambda: hb.canonical_rep(rho, cap=cap))
        assert capped == (classes > cap), (rho, cap)
        tally["capped" if capped else "uncapped"] += 1


def test_class_and_canonical_rep_agree_with_string_reference():
    rng = random.Random(7373)
    tally = Counter()
    for hda in _models():
        for rho, cls, classes in _cases(rng, hda.space, 8, 3):
            _check_class(rho, cls, classes, tally)
    # Classes of one member and of several, capped and uncapped calls.
    assert min(tally[k] for k in (True, False, "capped", "uncapped")) >= 50, tally


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


def _assert_paths_refused(space):
    """A set that fails validation holds no CubePath, so no path query can
    be asked of it: building one, or checking a sequence, refuses the set,
    naming its first violation, before a step is read."""
    seq = space.ids()[:1]
    for call in (lambda: CubePath(space, seq),
                 lambda: hb.is_cube_path(space, seq)):
        with pytest.raises(hb.ModelError) as caught:
            call()
        assert str(caught.value) == refusal(space), seq


def test_engine_agrees_with_string_reference_on_faulty_models():
    # Faulty models that still validate and truncations of valid models
    # are compared with the reference; the other faulty models are refused.
    rng = random.Random(7474)
    verdicts, classes_seen, refused = Counter(), Counter(), 0
    for base in _models():
        for hda in (_faulty(base, rng), _faulty(base, rng),
                    truncated(rng, base), truncated(rng, base)):
            space = hda.space
            if not hb.validate_precubical(space).ok:
                _assert_paths_refused(space)
                refused += 1
                continue
            for rho, cls, classes in _cases(rng, space, 7, 2):
                _check_verdicts(rng, rho, cls, classes, verdicts)
                _check_class(rho, cls, classes, classes_seen)
    assert min(verdicts[k] for k in (True, False, "capped")) >= 50, verdicts
    assert min(classes_seen[k] for k in (True, False)) >= 50, classes_seen
    assert refused >= 50, refused


def test_alternatives_follow_id_order_across_dimensions():
    # In a valid model the cubes that can replace one path entry share a
    # dimension, so id order and the int view's (dimension, id) order agree
    # on them.  Here a face list one too long lets a 3-cube and a 0-cube
    # both replace the square, as the clauses find; such a set fails
    # validation, so the engine refuses it, naming the arity fault.
    space = PrecubicalSet({
        "u": (0, (), ()), "v": (0, (), ()), "w": (0, (), ()),
        "e1": (1, ("u",), ("v",)),
        "e4": (1, ("v", "s"), ("w",)),
        "s": (2, ("e1", "e1"), ("e4", "e4")),
        "a3": (3, ("e1", "e1", "e1"), ("e4", "e4", "e4"))})
    assert ref.adjacent_seqs(space, ("e1", "s", "e4")) == [
        ("e1", "a3", "e4"), ("e1", "v", "e4")]
    assert refusal(space) == ("the set fails validation: cube 'e4' of "
                              "dimension 1 has 2 lower / 1 upper faces")
    _assert_paths_refused(space)


def test_unknown_ids_raise_model_error(fig3):
    # A path query takes a CubePath, so an unknown id is refused where the
    # path is built, as the CLI's --path is.
    with pytest.raises(hb.ModelError, match="^unknown cube id 'zz'$"):
        CubePath(fig3.hda.space, ("i", "zz", "x"))


def test_broken_steps_raise_model_error(fig3):
    space = fig3.hda.space
    assert hb.is_cube_path(space, ("i", "a", "b", "x")).failure == 2
    with pytest.raises(hb.ModelError, match="^'i,a,b,x' is not a cube path; "
                                            "first broken step at position 2$"):
        CubePath(space, ("i", "a", "b", "x"))


def test_grid_path_builds_one_class_per_reachable_cell():
    # A filled grid is a tree: a cell whose lower corner is p is reached
    # by paths of length 2 * sum(p) + dim + 1 only, all homotopic.  A
    # 15-cube path from the origin of the 4x4x4 grid therefore builds one
    # class per cell within that length, while its own class has 60,060
    # members (the closure used to list them one by one).
    hda = grid_hda((4, 4, 4))
    seq, rng = [hda.initial], random.Random(7575)
    while len(seq) < 15:  # the far corner is 25 cubes away
        seq.append(rng.choice(hda.space.successors(seq[-1])))
    rho = CubePath(hda.space, seq)
    cells = 0
    for cell in itertools.product(range(9), repeat=3):
        dim = sum(c % 2 for c in cell)
        if sum(c - c % 2 for c in cell) + dim + 1 <= 15:
            cells += 1
    quotient, (c,) = _classes(100_000, rho)
    assert len(quotient.reps) == cells
    assert hb.are_homotopic(rho, rho, cap=cells) is True
    with pytest.raises(hb.CapExceeded):
        hb.canonical_rep(rho, cap=cells - 1)


def _pointed_quotient(hda, cap):
    return _Quotient(hda.space, hda.space.indexed.pos[hda.initial], cap)


def _dangling(hda, rng):
    """The model with the last lower or upper face of one cube renamed to
    `zz`, an id that names no cube."""
    space = hda.space
    rows = space.rows()
    cid = rng.choice([c for c in space.ids() if space.dim(c)])
    dim, lower, upper = rows[cid]
    if rng.random() < 0.5 and upper:
        upper = upper[:-1] + ("zz",)
    elif lower:
        lower = lower[:-1] + ("zz",)
    return HDA(PrecubicalSet({**rows, cid: (dim, lower, upper)}), hda.initial)


def _built(make, depth):
    """The quotient `make()` returns, its layers up to `depth`, and the
    ModelError message that stopped it, if any."""
    quotient, layers = None, []
    try:
        quotient = make()
        for layer in quotient.layers(depth):
            layers.append(list(layer))
    except hb.ModelError as exc:
        return quotient, layers, str(exc)
    return quotient, layers, None


def _quotient_models():
    rng, cut = random.Random(7676), random.Random(7677)
    for base in _models():
        yield base
        for _ in range(2):
            yield truncated(cut, base)
            faulty = _faulty(base, rng)
            yield faulty
            if faulty.space.max_dim():
                yield _dangling(faulty, rng)


def _quotient_refusal(hda):
    """The error `unfold._quotient` stops at on a model that fails
    validation: the initial cube's, else the set's first violation."""
    space = hda.space
    if hda.initial not in space or space.dim(hda.initial):
        return "unfolding requires a valid initial 0-cube"
    return refusal(space)


def test_quotient_agrees_with_string_reference():
    errors = Counter()
    for i, hda in enumerate(_quotient_models()):
        depth = 2 + i % 6
        got, got_layers, got_error = _built(
            lambda: _quotient(hda, 100_000), depth)
        if not hb.validate_precubical(hda.space).ok:
            want_error = _quotient_refusal(hda)
            assert (got, got_layers, got_error) == (None, [], want_error), i
            if want_error == refusal(hda.space):
                want_error = "refused 'zz'" if "'zz'" in want_error else "refused"
            errors[want_error] += 1
            continue
        want, want_layers, want_error = _built(
            lambda: ref.Quotient(hda, 100_000), depth)
        while want_layers and not want_layers[-1]:
            want_layers.pop()
        assert (got_layers, got_error) == (want_layers, want_error), i
        errors[want_error] += 1
        if want is None:
            continue
        ids = got.view.ids
        assert [tuple(ids[j] for j in rep) for rep in got.reps] == want.reps
        assert {(c, ids[y]): d for (c, y), d in got.child.items()} == want.child
        assert [{ids[e]: c for e, c in via.items()} for via in got.via] == want.via
        for cube in got.successors:
            assert tuple(ids[j] for j in got.successors[cube]) == \
                hda.space.successors(ids[cube])
    # Whole quotients of valid models, truncated ones included; refusals,
    # some naming the face "zz" that names no cube; and models whose
    # initial cube is not a 0-cube.
    assert errors[None] >= 150 and errors["refused 'zz'"] >= 10, errors
    assert errors["refused"] >= 50, errors
    assert errors["unfolding requires a valid initial 0-cube"] >= 10, errors


def test_merges_agree_with_the_clause_search():
    # Each merge is read off its witness; the reference tests every pair of
    # steps after g, and every common step after them, with the clauses.
    # The engine refuses a set that fails validation; on the valid ones the
    # two merge sets are compared cube by cube.
    fired = 0
    for hda in _quotient_models():
        space = hda.space
        view = space.indexed
        start = next((c for c in space.ids() if space.dim(c) == 0), None)
        if start is None:
            continue
        if not hb.validate_precubical(space).ok:
            with pytest.raises(hb.ModelError, match=re.escape(refusal(space))):
                _Quotient(space, view.pos[start], 100_000)
            continue
        want = ref.Quotient(HDA(space, start), 100_000)
        got = _Quotient(space, view.pos[start], 100_000)
        for g, cube in enumerate(view.ids):
            merges = {(frozenset((view.ids[a], view.ids[b])), view.ids[y])
                      for a, b, y in got._merges_after(g)}
            assert merges == {(frozenset((a, b)), y) for a, b, y
                              in want._merges_after(cube)}, cube
            fired += bool(merges)
    assert fired >= 500, fired


def test_layers_stop_at_the_first_empty_layer(fig2, fig3):
    for hda in (fig2.hda, fig3.hda):
        layers = list(itertools.islice(
            _pointed_quotient(hda, 1000).layers(10**9), 50))
        assert layers and all(layers)
        assert len(layers) == hb.longest_pointed_path_length(hda)
