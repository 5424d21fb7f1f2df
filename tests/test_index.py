"""The int-view core against the string walks it replaced.

`validate_precubical`, `validate_labeling`, `reachable` and the loader
`model_from_dict` read the int view of a precubical set
(`PrecubicalSet.indexed`) or take a fast path; the string-walking versions
they replaced are kept below as references.  Reports must be equal in
content and order, reachable sets equal, and loader errors equal in
message.
"""

import copy
import itertools
import random
from collections import Counter

import pytest

import hdabisim as hb
from hdabisim import (HDA, EventSet, Labeling, LoadedModel, ModelError,
                      PrecubicalSet, ValidationReport, Violation)
from hdabisim.generators import grid_labeling, random_hda
from hdabisim.model_io import _CUBE_FIELDS, _MODEL_FIELDS

from conftest import MODELS, model_dict, mutate_model_dict, refusal
from test_bisim import (_blocks, _forward_reference, _naive_refine, _named,
                        _torus_labeling)


# -- references: the string walks of the previous core ----------------------

def _validate_precubical_ref(space):
    """Check face arity, face closure, and the face identity everywhere.

    Identity violations name the offending cube, the indices (k, l, nu, mu)
    with k < l, and the two corner ids that should have coincided.
    """
    violations: list[Violation] = []
    clean: set[str] = set()

    for x in space.ids():
        dim, lower, upper = space.row(x)
        good = True
        if len(lower) != dim or len(upper) != dim:
            violations.append(Violation(
                "face-arity", x,
                f"cube {x!r} of dimension {dim} has "
                f"{len(lower)} lower / {len(upper)} upper faces",
                {"dim": dim, "lower": len(lower), "upper": len(upper)},
            ))
            good = False
        for nu, faces in ((0, lower), (1, upper)):
            for k, f in enumerate(faces, start=1):
                if f is None:
                    if nu == 1 and x in space.frontier:
                        continue  # omitted by truncation, explicitly flagged
                    violations.append(Violation(
                        "missing-face", x,
                        f"cube {x!r} lacks face k={k} nu={nu}",
                        {"k": k, "nu": nu},
                    ))
                    good = False
                elif f not in space:
                    violations.append(Violation(
                        "dangling-face", x,
                        f"cube {x!r} face k={k} nu={nu} refers to unknown id {f!r}",
                        {"k": k, "nu": nu, "ref": f},
                    ))
                    good = False
                elif space.dim(f) != dim - 1:
                    violations.append(Violation(
                        "face-dimension", x,
                        f"cube {x!r} face k={k} nu={nu} has dimension "
                        f"{space.dim(f)}, expected {dim - 1}",
                        {"k": k, "nu": nu, "ref": f},
                    ))
                    good = False
        if good:
            clean.add(x)

    for x in space.ids():
        if x not in clean:
            continue
        dim = space.dim(x)
        for ell in range(2, dim + 1):
            for k in range(1, ell):
                for nu, mu in itertools.product((0, 1), repeat=2):
                    outer = space.face(x, ell, mu)
                    inner = space.face(x, k, nu)
                    if outer is None or inner is None:
                        continue
                    if outer not in clean or inner not in clean:
                        continue
                    left = space.face(outer, k, nu)
                    right = space.face(inner, ell - 1, mu)
                    if left is None or right is None:
                        continue
                    if left != right:
                        violations.append(Violation(
                            "identity", x,
                            f"face identity fails at cube {x!r}, k={k}, l={ell}, "
                            f"nu={nu}, mu={mu}: {left!r} != {right!r}",
                            {"k": k, "ell": ell, "nu": nu, "mu": mu,
                             "left": left, "right": right},
                        ))
    return ValidationReport(violations)


def _validate_labeling_ref(hda, labeling):
    """Check that the labeling is a morphism into the event torus: tuple
    lengths match dimensions, tuples are sorted, and the k-th face deletes
    the k-th entry."""
    space = hda.space
    violations: list[Violation] = []
    nevents = len(labeling.events)
    for x in space.ids():
        if x not in labeling.assign:
            violations.append(Violation(
                "label-missing", x, f"cube {x!r} has no label tuple", {}))
            continue
        tup = labeling.assign[x]
        if len(tup) != space.dim(x):
            violations.append(Violation(
                "label-length", x,
                f"cube {x!r} of dimension {space.dim(x)} is labeled with a "
                f"{len(tup)}-tuple", {"tuple": list(tup)}))
            continue
        if any(not 1 <= i <= nevents for i in tup):
            violations.append(Violation(
                "label-range", x,
                f"cube {x!r} label {list(tup)} has indices outside 1..{nevents}",
                {"tuple": list(tup)}))
            continue
        if any(tup[j] > tup[j + 1] for j in range(len(tup) - 1)):
            violations.append(Violation(
                "label-unsorted", x,
                f"cube {x!r} label {list(tup)} is not sorted ascending",
                {"tuple": list(tup)}))
            continue
        for nu in (0, 1):
            for k in range(1, space.dim(x) + 1):
                f = space.face(x, k, nu)
                if f is None or f not in space or f not in labeling.assign:
                    continue
                expected = tup[:k - 1] + tup[k:]
                if labeling.assign[f] != expected:
                    violations.append(Violation(
                        "label-face", x,
                        f"cube {x!r}: face k={k} nu={nu} is labeled "
                        f"{list(labeling.assign[f])}, expected {list(expected)}",
                        {"k": k, "nu": nu, "face": f}))
    return ValidationReport(violations)


def _reachable_ref(hda):
    """All cubes connected to the initial cube by a pointed cube path,
    i.e. the closure of {initial} under the step relation."""
    space = hda.space
    if hda.initial not in space:
        raise ModelError(f"initial cube {hda.initial!r} does not exist")
    seen = {hda.initial}
    queue = [hda.initial]
    # The steps of `successors`, walked directly: the result is a set, so
    # their sorted order is not needed.
    while queue:
        x = queue.pop()
        for _k, y in space.cofaces_lower(x):
            if y not in seen:
                seen.add(y)
                queue.append(y)
        for y in space.row(x)[2]:
            if y is not None and y not in seen:
                seen.add(y)
                queue.append(y)
    return frozenset(seen)


def _parse_faces_ref(raw, cube_id, key):
    if not isinstance(raw, list):
        raise ModelError(f"cube {cube_id!r}: {key} must be an array")
    out: list[str | None] = []
    for entry in raw:
        if entry is None:
            out.append(None)
        elif isinstance(entry, str):
            out.append(entry)
        else:
            raise ModelError(f"cube {cube_id!r}: {key} entries must be ids or null")
    return tuple(out)


def _model_from_dict_ref(data):
    if not isinstance(data, dict):
        raise ModelError("model must be a JSON object")
    unknown = set(data) - _MODEL_FIELDS
    if unknown:
        raise ModelError(f"unknown model fields: {sorted(unknown)}")
    if "cubes" not in data or "initial" not in data:
        raise ModelError("model requires 'cubes' and 'initial'")

    raw_cubes = data["cubes"]
    if not isinstance(raw_cubes, list):
        raise ModelError("'cubes' must be an array")
    cubes = []
    for raw in raw_cubes:
        if not isinstance(raw, dict):
            raise ModelError("each cube must be an object")
        extra = set(raw) - _CUBE_FIELDS
        if extra:
            raise ModelError(f"unknown cube fields: {sorted(extra)}")
        cid = raw.get("id")
        dim = raw.get("dim")
        if not isinstance(cid, str) or not cid:
            raise ModelError("cube ids must be non-empty strings")
        if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
            raise ModelError(f"cube {cid!r}: dim must be a natural number")
        lower = _parse_faces_ref(raw.get("d0", []), cid, "d0")
        upper = _parse_faces_ref(raw.get("d1", []), cid, "d1")
        if any(f is None for f in lower):
            raise ModelError(f"cube {cid!r}: d0 entries may not be null")
        cubes.append((cid, (dim, lower, upper)))

    frontier_raw = data.get("frontier", [])
    if not isinstance(frontier_raw, list) or not all(
            isinstance(c, str) for c in frontier_raw):
        raise ModelError("'frontier' must be an array of cube ids")
    for cid, (_dim, _lower, upper) in cubes:
        if any(f is None for f in upper) and cid not in frontier_raw:
            raise ModelError(
                f"cube {cid!r} has null upper faces but is not in 'frontier'")

    initial = data["initial"]
    if not isinstance(initial, str):
        raise ModelError("'initial' must be a cube id")
    rows = {}
    for cid, row in cubes:
        if cid in rows:
            raise ModelError(f"duplicate cube id {cid!r}")
        rows[cid] = row
    space = PrecubicalSet(rows, frontier=frontier_raw)
    hda = HDA(space, initial)

    labeling = None
    if "labels" in data and "events" not in data:
        raise ModelError("'labels' requires 'events'")
    if "events" in data:
        raw_events = data["events"]
        if not isinstance(raw_events, list) or not all(
                isinstance(e, str) for e in raw_events):
            raise ModelError("'events' must be an array of names")
        events = EventSet(tuple(raw_events))
        raw_labels = data.get("labels", {})
        if not isinstance(raw_labels, dict):
            raise ModelError("'labels' must be an object")
        assign: dict[str, tuple[int, ...]] = {}
        for cid, tup in raw_labels.items():
            if cid not in space:
                raise ModelError(f"label for unknown cube {cid!r}")
            if not isinstance(tup, list) or not all(
                    isinstance(i, int) and not isinstance(i, bool) for i in tup):
                raise ModelError(f"label of {cid!r} must be an array of integers")
            assign[cid] = tuple(tup)
        labeling = Labeling(events, assign)
    return LoadedModel(hda, labeling)


# -- inputs -------------------------------------------------------------------

_KINDS = {"face-arity", "missing-face", "dangling-face", "face-dimension",
          "identity", "label-missing", "label-length", "label-range",
          "label-unsorted", "label-face"}


def _seeded_models():
    """Seeded random models with labelings, and truncated unfoldings of some
    of them, whose frontier cubes omit upper faces."""
    rng = random.Random(4711)
    grid_events = EventSet(("a", "b", "c"))
    out = []
    for trial in range(90):
        cyclic = trial % 3 == 0
        hda = random_hda(rng, max_cubes=rng.choice((6, 15, 40)), max_dim=3,
                         cyclic=cyclic, stray=trial % 2 == 1)
        if cyclic:
            labeling = _torus_labeling(hda, EventSet(("a", "b")))
        else:
            labeling = grid_labeling(hda, grid_events)
        out.append((hda, labeling))
        if trial % 3 != 2:
            unfolding = hb.unfold(hda, rng.randint(2, 5))
            tree = unfolding.tree
            out.append((tree, Labeling(labeling.events, {
                c: labeling.assign[unfolding.project(c)]
                for c in tree.space.ids()})))
    for name in ("fig1_left.json", "fig3.json", "ab_square_abc.json"):
        loaded = hb.load_model(MODELS / name)
        out.append((loaded.hda, loaded.labeling))
    return out


def _mutant(rng, hda, labeling):
    """`hda` and `labeling` with 1-3 faults injected at the cube level,
    where faults the loader rejects (a null lower face, say) are possible."""
    rows = dict(hda.space.rows())
    frontier = set(hda.space.frontier)
    assign = dict(labeling.assign)
    nevents = len(labeling.events)
    for _ in range(rng.randint(1, 3)):
        ids = sorted(rows)
        x = rng.choice(ids)
        dim, lower, upper = rows[x]
        lower, upper = list(lower), list(upper)
        faces = lower if rng.random() < 0.5 else upper
        k = rng.randrange(len(faces)) if faces else None
        fault = rng.choice((
            "drop-face", "extra-face", "null-face", "null-face", "dangling",
            "dangling", "self-face", "any-face", "swap-lower", "dim",
            "drop-cube", "frontier", "label-drop", "label-length",
            "label-range", "label-unsorted", "label-face", "label-face"))
        if fault == "drop-face" and faces:
            faces.pop(k)
        elif fault == "extra-face":
            faces.append(rng.choice(ids))
        elif fault == "null-face" and faces:
            faces[k] = None
            if rng.random() < 0.5:
                frontier.add(x)
        elif fault == "dangling" and faces:
            faces[k] = f"ghost{rng.randrange(3)}"
        elif fault == "self-face" and faces:
            faces[k] = x
        elif fault == "any-face" and faces:
            faces[k] = rng.choice(ids)
        elif fault == "swap-lower" and len(lower) >= 2:
            k, ell = rng.sample(range(len(lower)), 2)
            lower[k], lower[ell] = lower[ell], lower[k]
        elif fault == "dim":
            dim = max(0, dim + rng.choice((-1, 1)))
        elif fault == "drop-cube" and len(rows) > 1:
            del rows[x]
            continue
        elif fault == "frontier":
            frontier.add(x)
        elif fault == "label-drop":
            assign.pop(x, None)
        elif fault == "label-length" and x in assign:
            assign[x] = assign[x] + (1,) if rng.random() < 0.5 else assign[x][1:]
        elif fault == "label-range" and assign.get(x):
            assign[x] = (rng.choice((0, nevents + 1)),) + assign[x][1:]
        elif fault == "label-unsorted" and len(assign.get(x, ())) >= 2:
            assign[x] = tuple(sorted(assign[x], reverse=True))
            if assign[x] == tuple(sorted(assign[x])):
                assign[x] = (nevents,) + assign[x][1:-1] + (1,)
        elif fault == "label-face" and assign.get(x):
            assign[x] = tuple(sorted(rng.randint(1, nevents) for _ in assign[x]))
        rows[x] = (dim, tuple(lower), tuple(upper))
    space = PrecubicalSet(rows, frontier=frontier)
    return HDA(space, hda.initial), Labeling(labeling.events, assign)


def _outcome(fn, arg):
    try:
        return fn(arg)
    except ModelError as exc:
        return ("error", str(exc))


# -- tests --------------------------------------------------------------------

def test_indexed_core_agrees_with_string_walks():
    rng = random.Random(2024)
    kinds = set()
    reached = refused = 0
    for hda, labeling in _seeded_models():
        variants = [(hda, labeling)]
        variants += [_mutant(rng, hda, labeling) for _ in range(6)]
        for x, lx in variants:
            got = hb.validate_precubical(x.space).to_json()
            assert got == _validate_precubical_ref(x.space).to_json()
            got_labels = hb.validate_labeling(x, lx).to_json()
            assert got_labels == _validate_labeling_ref(x, lx).to_json()
            reach = _outcome(hb.reachable, x)
            if got["violations"]:
                # The walk refuses the set before it reads a face.
                assert reach == ("error", refusal(x.space))
                refused += 1
            else:
                assert reach == _outcome(_reachable_ref, x)
                reached += isinstance(reach, frozenset)
            kinds.update(v["kind"] for v in got["violations"])
            kinds.update(v["kind"] for v in got_labels["violations"])
    assert kinds == _KINDS
    assert reached >= 100 and refused >= 100, (reached, refused)


def test_reachable_names_the_first_violation_not_the_first_face_popped():
    # Both dangling upper faces of "sq" are pushed before either is popped;
    # the string walk raises for the one popped first, the later "ghostB".
    # The int walk refuses the set before it walks, naming its first
    # violation, the earlier "ghostA".
    space = PrecubicalSet({
        "v": (0, (), ()), "a": (1, ("v",), ("v",)), "b": (1, ("v",), ("v",)),
        "sq": (2, ("a", "b"), ("ghostA", "ghostB"))})
    hda = HDA(space, "v")
    with pytest.raises(ModelError) as ref:
        _reachable_ref(hda)
    with pytest.raises(ModelError) as new:
        hb.reachable(hda)
    assert str(ref.value) == "unknown cube id 'ghostB'"
    assert str(new.value) == ("the set fails validation: cube 'sq' face k=1 "
                              "nu=1 refers to unknown id 'ghostA'")


def _seed_error_ref(hda):
    """The error `_seed` raises on `hda` against itself, or None: a frontier
    refuses the model, a violation the set, then the initial cube must be a
    0-cube of the set."""
    if hda.space.frontier:
        return ("cannot decide bisimilarity of a truncated model (non-empty "
                "frontier); use `oracle` for truncated trees")
    violations = _validate_precubical_ref(hda.space).violations
    if violations:
        return f"the set fails validation: {violations[0].detail}"
    if hda.initial not in hda.space:
        return f"initial cube {hda.initial!r} does not exist"
    if hda.space.dim(hda.initial):
        return f"initial cube {hda.initial!r} is not a 0-cube"
    return None


def test_refine_on_the_int_view_matches_string_interning():
    from hdabisim.bisim import _refine, _seed

    rng = random.Random(808)
    outcomes = set()
    for hda, labeling in _seeded_models():
        for x, lx in [_mutant(rng, hda, labeling) for _ in range(4)]:
            expected = _seed_error_ref(x)
            sides = ((x, None), (x, None))
            try:
                blocks, rounds = _refine(_seed(sides))
            except ModelError as exc:
                assert str(exc) == expected
                outcomes.add("error")
                continue
            assert expected is None
            # The reachable part of a valid untruncated set is face-closed,
            # so every face that refinement reads is reachable.
            reach = _reachable_ref(x)
            assert all({*x.space.row(c)[1], *x.space.row(c)[2]} <= reach
                       for c in reach)
            *naive, _naive_rounds = _naive_refine(x, x)
            *_seeded, seeded_rounds = _naive_refine(
                x, x, seed=_forward_reference(x, x))
            assert (_blocks(*_named(sides, blocks)), rounds) == (
                _blocks(*naive), seeded_rounds)
            outcomes.add("refined")
    assert outcomes == {"error", "refined"}


def _space_view(space):
    """Everything the string accessors report about a set, cube by cube.
    `successors` raises on an upper face that names no cube, so it is read
    as its result or its error."""
    view = []
    for x in space.ids():
        row = space.row(x)
        view.append((
            row, space.dim(x),
            [space.lower(x, k) for k in range(1, len(row[1]) + 1)],
            [space.upper(x, k) for k in range(1, len(row[2]) + 1)],
            space.cofaces_lower(x), _outcome(space.successors, x)))
    return space.ids(), space.frontier, view


def test_lean_loader_agrees_with_checked_loader():
    """The row-filling loader against the reference, which checks entry by
    entry: equal sets, accessors, written dicts and error text."""
    bases = [model_dict(name) for name in (
        "fig1_left.json", "fig3.json", "fig5_x.json", "ab_square_abc.json")]
    bases.append(hb.model_to_dict(hb.unfold(
        hb.load_model(MODELS / "fig5_x.json").hda, 4).tree))
    rng = random.Random(99)
    errors, loaded = set(), 0
    for trial in range(1500):
        data = mutate_model_dict(rng, rng.choice(bases))
        outcomes = []
        for load in (hb.model_from_dict, _model_from_dict_ref):
            try:
                m = load(data)
            except ModelError as exc:
                outcomes.append(("error", str(exc)))
            else:
                outcomes.append((m.hda.space, m.hda.initial, m.labeling,
                                 hb.model_to_dict(m.hda, m.labeling),
                                 _space_view(m.hda.space)))
        assert outcomes[0] == outcomes[1], (trial, data)
        if outcomes[0][0] == "error":
            errors.add(outcomes[0][1].split(":")[0].split("'")[0])
        else:
            loaded += 1
    assert loaded >= 100 and len(errors) >= 10, (loaded, errors)


@pytest.mark.parametrize("fault, message", [
    ({"initial": 5}, "'initial' must be a cube id"),
    ({"frontier": "x"}, "'frontier' must be an array of cube ids"),
    ({"null": True}, "has null upper faces but is not in 'frontier'"),
    ({}, "duplicate cube id"),
])
def test_duplicate_id_is_reported_after_earlier_faults(fault, message):
    """A duplicate id is found once the cubes are stored, after the
    frontier, null-face and initial checks, in both loaders."""
    data = model_dict("fig2_square.json")
    data["cubes"].append(copy.deepcopy(data["cubes"][-1]))
    if fault.pop("null", False):
        # The first copy has a null upper face; the second, which the
        # row store keeps, has none.
        data["cubes"][-2]["d1"][0] = None
    data.update(fault)
    for load in (hb.model_from_dict, _model_from_dict_ref):
        with pytest.raises(ModelError, match=message):
            load(data)


# -- column checks on large inputs --------------------------------------------

def _large_models():
    """Clean models large enough that every slice has many cubes: a labeled
    7x7 grid, a labeled 4x4x4 grid, a labeled torus with maxdim 3, and a
    truncated unfolding of the 7x7 grid, whose omitted upper faces fail the
    column checks although the model is valid."""
    from hdabisim.generators import grid_hda

    events = EventSet(("a", "b", "c", "d"))
    out = []
    for sizes in ((7, 7), (4, 4, 4)):
        grid = grid_hda(sizes)
        out.append((grid, grid_labeling(grid, events)))
    out.append(hb.torus_hda(events, 3))
    grid, labeling = out[0]
    unfolding = hb.unfold(grid, 6)
    tree = unfolding.tree
    out.append((tree, Labeling(events, {
        c: labeling.assign[unfolding.project(c)] for c in tree.space.ids()})))
    return out


def _edge_faults(rng, hda, labeling):
    """Variants of a clean model, each with one fault at an edge of the
    column checks, the labeling kept: a 0-cube given a face; in the top
    dimension's slice alone, a face swapped for another cube of its
    dimension or for a 0-cube; a 2-cube's label reversed along with its
    face lists, so that only its order is wrong; a short face list; and an
    unknown face."""
    rows = hda.space.rows()
    by_dim = {}
    for c in hda.space.ids():
        by_dim.setdefault(rows[c][0], []).append(c)
    top = max(by_dim)

    def with_row(cid, lower, upper, assign=labeling.assign):
        changed = dict(rows)
        changed[cid] = (rows[cid][0], tuple(lower), tuple(upper))
        return (HDA(PrecubicalSet(changed, hda.space.frontier), hda.initial),
                Labeling(labeling.events, assign))

    out = []
    for _ in range(6):
        v = rng.choice(by_dim[0])
        out.append(with_row(v, [rng.choice(by_dim[0])], []))
        x = rng.choice(by_dim[top])
        _dim, lower, upper = rows[x]
        k = rng.randrange(top)
        swapped = list(lower)
        swapped[k] = rng.choice([c for c in by_dim[top - 1] if c != lower[k]])
        out.append(with_row(x, swapped, upper))
        swapped[k] = rng.choice(by_dim[0])
        out.append(with_row(x, swapped, upper))
        z = rng.choice(by_dim[2])
        _dim, lower, upper = rows[z]
        assign = dict(labeling.assign)
        assign[z] = assign[z][::-1]
        out.append(with_row(z, lower[::-1], upper[::-1], assign))
        y = rng.choice([c for d in by_dim if d for c in by_dim[d]])
        _dim, lower, upper = rows[y]
        k = rng.randrange(len(lower))
        out.append(with_row(y, lower[:k] + lower[k + 1:], upper))
        out.append(with_row(y, lower, upper[:k] + ("ghost",) + upper[k + 1:]))
    return out


def test_column_checks_agree_with_string_walks_on_large_models(monkeypatch):
    from hdabisim import core

    outcomes = Counter()

    def counted(*args, _check=core._labels_fit):
        passed = _check(*args)
        outcomes[passed] += 1
        return passed
    monkeypatch.setattr(core, "_labels_fit", counted)
    rng = random.Random(0xC01)
    kinds = set()
    models = _large_models()
    for hda, labeling in models:
        assert hb.validate_model(hda, labeling).ok
        for x, lx in [(hda, labeling)] + _edge_faults(rng, hda, labeling):
            got = hb.validate_precubical(x.space).to_json()
            assert got == _validate_precubical_ref(x.space).to_json()
            got_labels = hb.validate_labeling(x, lx).to_json()
            assert got_labels == _validate_labeling_ref(x, lx).to_json()
            kinds.update(v["kind"] for v in got["violations"])
            kinds.update(v["kind"] for v in got_labels["violations"])
    assert kinds == {"face-arity", "dangling-face", "face-dimension",
                     "identity", "label-unsorted", "label-face"}, kinds
    assert outcomes[True] >= 15 and outcomes[False] >= 15, outcomes
    # There is one slice per dimension that occurs, so a cube of negative
    # or large dimension is walked and adds one slice, not one per
    # dimension below it.
    grid, labeling = models[0]
    rows = dict(grid.space.rows())
    rows.update(low=(-1, (), ()), high=(10 ** 6, (), ()))
    odd = HDA(PrecubicalSet(rows, grid.space.frontier), grid.initial)
    odd_labels = Labeling(labeling.events,
                          dict(labeling.assign, low=(), high=(1,)))
    got = hb.validate_precubical(odd.space).to_json()
    assert got == _validate_precubical_ref(odd.space).to_json()
    assert [v["cube"] for v in got["violations"]] == ["low", "high"]
    outcomes.clear()
    got = hb.validate_labeling(odd, odd_labels).to_json()
    assert got == _validate_labeling_ref(odd, odd_labels).to_json()
    assert [v["cube"] for v in got["violations"]] == ["low", "high"]
    assert outcomes == {True: 3, False: 2}, outcomes
    # A face entry that names no cube is negative, and as a list index it
    # would read another cube's label, or none in a one-cube set.
    lone = HDA(PrecubicalSet({"e": (1, (None,), (None,))}, {"e"}), "e")
    labels = Labeling(EventSet(("a",)), {"e": (1,)})
    assert hb.validate_labeling(lone, labels).to_json() == (
        _validate_labeling_ref(lone, labels).to_json())
