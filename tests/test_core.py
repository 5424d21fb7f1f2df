"""Static model layer: validation, morphisms, reachability, tori."""

import math
import random

import pytest

import hdabisim as hb
from hdabisim import EventSet, PrecubicalSet, core

from conftest import load, model_dict, refusal


def test_figure_models_validate():
    for name in ("fig1_left.json", "fig1_right.json", "fig2_square.json",
                 "fig3.json", "fig5_x.json", "fig5_y.json",
                 "ab_square_abc.json", "ac_square_abc.json"):
        loaded = load(name)
        report = hb.validate_model(loaded.hda, loaded.labeling)
        assert report.ok, (name, [v.detail for v in report.violations])


def test_single_point_validates():
    space = PrecubicalSet({"v": (0, (), ())})
    assert hb.validate_precubical(space).ok
    assert hb.validate_model(hb.HDA(space, "v")).ok


def test_identity_violation_names_indices():
    # Redirect the bottom-left corner of the plain square so the two corner
    # expressions disagree at (k=1, l=2, nu=mu=0).
    data = model_dict("fig2_square.json")
    data["cubes"].append({"id": "c00b", "dim": 0, "d0": [], "d1": []})
    for cube in data["cubes"]:
        if cube["id"] == "btm":
            cube["d0"] = ["c00b"]
    loaded = hb.model_from_dict(data)
    report = hb.validate_model(loaded.hda)
    kinds = {v.kind for v in report.violations}
    assert "identity" in kinds
    bad = next(v for v in report.violations if v.kind == "identity")
    assert bad.cube == "x"
    assert (bad.data["k"], bad.data["ell"], bad.data["nu"], bad.data["mu"]) == (1, 2, 0, 0)
    assert {bad.data["left"], bad.data["right"]} == {"c00", "c00b"}


def test_dangling_face_rejected():
    data = model_dict("fig2_square.json")
    for cube in data["cubes"]:
        if cube["id"] == "top":
            cube["d1"] = ["nowhere"]
    report = hb.validate_model(hb.model_from_dict(data).hda)
    assert not report.ok
    assert any(v.kind == "dangling-face" for v in report.violations)


def test_face_arity_rejected():
    data = model_dict("fig2_square.json")
    for cube in data["cubes"]:
        if cube["id"] == "x":
            cube["d0"] = ["l"]
    report = hb.validate_model(hb.model_from_dict(data).hda)
    assert any(v.kind == "face-arity" for v in report.violations)


def test_initial_must_be_zero_dimensional():
    data = model_dict("fig2_square.json")
    data["initial"] = "btm"
    report = hb.validate_model(hb.model_from_dict(data).hda)
    assert any(v.kind == "initial-dimension" for v in report.violations)
    data["initial"] = "ghost"
    report = hb.validate_model(hb.model_from_dict(data).hda)
    assert any(v.kind == "initial-missing" for v in report.violations)


def test_self_linked_cubes_are_allowed():
    # A loop edge has both faces on the same vertex; that is legal in
    # general models.
    space = PrecubicalSet({"v": (0, (), ()), "e": (1, ("v",), ("v",))})
    assert hb.validate_precubical(space).ok


def test_morphism_identity_and_inclusion(fig2, fig1_left, fig1_right):
    space = fig2.hda.space
    ident = hb.PrecubicalMorphism(space, space, {c: c for c in space.ids()},
                                  pointed=True, source_initial="c00",
                                  target_initial="c00")
    assert hb.check_morphism(ident)

    hollow, filled = fig1_right.hda, fig1_left.hda
    inclusion = hb.PrecubicalMorphism(
        hollow.space, filled.space,
        {c: c for c in hollow.space.ids()},
        pointed=True, source_initial="i", target_initial="i")
    assert hb.check_morphism(inclusion)


def test_morphism_dimension_violation(fig2):
    space = fig2.hda.space
    collapse = {c: c for c in space.ids()}
    collapse["btm"] = "c00"  # an edge onto a vertex
    assert not hb.check_morphism(hb.PrecubicalMorphism(space, space, collapse))


def test_morphism_must_be_total(fig2):
    space = fig2.hda.space
    with pytest.raises(hb.ModelError):
        hb.check_morphism(hb.PrecubicalMorphism(space, space, {"x": "x"}))


def test_reachable_fig3(fig3):
    # Every cell of the drawn computation is reachable, including the faces
    # of the filled square.
    assert hb.reachable(fig3.hda) == frozenset(fig3.hda.space.ids())


def test_successors_raise_on_a_dangling_upper_face():
    # The string walk of the step relation stops at the upper face "zz"
    # that names no cube.  The int walks, path enumeration and path checks
    # among them, refuse the set before they walk, naming its first
    # violation.
    space = PrecubicalSet({"v": (0, (), ()), "e": (1, ("v",), ("zz",))})
    hda = hb.HDA(space, "v")
    with pytest.raises(hb.ModelError, match="^unknown cube id 'zz'$"):
        space.successors("e")
    for walk in (lambda: hb.reachable(hda), lambda: hb.unfold(hda, 3),
                 lambda: list(hb.enumerate_pointed_paths(hda, 3)),
                 lambda: hb.CubePath(space, ("v", "e")),
                 lambda: hb.bisimilar(hda, hda),
                 lambda: hb.longest_pointed_path_length(hda),
                 lambda: hb.is_acyclic(hda)):
        with pytest.raises(hb.ModelError) as caught:
            walk()
        assert str(caught.value) == (
            "the set fails validation: cube 'e' face k=1 nu=1 refers to "
            "unknown id 'zz'") == refusal(space)


def _int_walks(hda, labeling):
    """Every library entry point that reads the int view of `hda`'s set.
    A path query's CubePath is built inside its call: building one refuses
    the set too."""
    space, start = hda.space, (hda.initial,)
    rho = lambda: hb.CubePath(space, start)
    return {
        "reachable": lambda: hb.reachable(hda),
        "bisimilar": lambda: hb.bisimilar(hda, hda),
        "labeled_bisimilar": lambda: hb.labeled_bisimilar(
            hda, labeling, hda, labeling),
        "hp_bisimilar": lambda: hb.hp_bisimilar(hda, hda),
        "CubePath": rho,
        "is_cube_path": lambda: hb.is_cube_path(space, start),
        "are_homotopic": lambda: hb.are_homotopic(rho(), rho()),
        "homotopy_class": lambda: hb.homotopy_class(rho()),
        "canonical_rep": lambda: hb.canonical_rep(rho()),
        "enumerate_pointed_paths":
            lambda: list(hb.enumerate_pointed_paths(hda, 4)),
        "unfold": lambda: hb.unfold(hda, 4),
        "is_tree": lambda: hb.is_tree(hda, 4),
        "hp_oracle": lambda: hb.hp_oracle(hda, hda, 4),
        "longest_pointed_path_length":
            lambda: hb.longest_pointed_path_length(hda),
        "is_acyclic": lambda: hb.is_acyclic(hda),
    }


def test_int_walks_refuse_a_set_that_fails_validation(ab_square):
    # One fault of each kind validation reports on the labeled square:
    # a dangling, missing and mis-dimensioned face, an arity fault and a
    # broken face identity.
    faults = {"dangling-face": ("ab", 2, ("ghost", "a2")),
              "missing-face": ("b", 2, (None,)),
              "face-dimension": ("b", 2, ("ab",)),
              "face-arity": ("b", 1, ("i", "q")),
              "identity": ("ab", 2, ("a2", "b2"))}
    base = ab_square.hda
    for kind, (cid, side, faces) in faults.items():
        rows = dict(base.space.rows())
        row = list(rows[cid])
        row[side] = faces
        rows[cid] = tuple(row)
        space = PrecubicalSet(rows)
        hda = hb.HDA(space, base.initial)
        assert hb.validate_precubical(space).violations[0].kind == kind
        for name, walk in _int_walks(hda, ab_square.labeling).items():
            with pytest.raises(hb.ModelError) as caught:
                walk()
            assert str(caught.value) == refusal(space), (kind, name)


def test_path_length_helpers_refuse_a_missing_initial_cube():
    # Not a cycle: the set is valid, and there is nothing to walk from.
    hda = hb.HDA(PrecubicalSet({"v": (0, (), ())}), "nope")
    for walk in (hb.longest_pointed_path_length, hb.is_acyclic, hb.reachable):
        with pytest.raises(hb.ModelError,
                           match="^initial cube 'nope' does not exist$"):
            walk(hda)


def test_a_set_is_validated_once(monkeypatch, fig5_x, fig5_y):
    # `validate_model` and then a decision, as the CLI runs them, find
    # each set's violations once; so does a decision on its own.
    calls = []
    find = core._precubical_violations
    monkeypatch.setattr(core, "_precubical_violations",
                        lambda space: calls.append(space) or find(space))
    x, y = (hb.HDA(PrecubicalSet(dict(m.hda.space.rows())), m.hda.initial)
            for m in (fig5_x, fig5_y))
    assert hb.validate_model(x).ok and hb.validate_model(y).ok
    hb.bisimilar(x, y)
    assert hb.validate_model(x).ok
    assert calls == [x.space, y.space]
    z = hb.HDA(PrecubicalSet(dict(fig5_x.hda.space.rows())), "x")
    hb.bisimilar(z, z)
    assert calls[2:] == [z.space]


def test_the_decision_refuses_an_initial_cube_above_dimension_0(fig3):
    hda = hb.HDA(fig3.hda.space, "a")
    assert hb.validate_precubical(hda.space).ok
    with pytest.raises(hb.ModelError, match="^initial cube 'a' is not a 0-cube$"):
        hb.bisimilar(hda, hda)


def test_reachable_isolated_initial():
    space = PrecubicalSet({"i": (0, (), ()), "u": (0, (), ()), "w": (0, (), ()),
                           "e": (1, ("u",), ("w",))})
    assert hb.reachable(hb.HDA(space, "i")) == frozenset({"i"})


def test_reachable_fig1_right(fig1_right):
    assert hb.reachable(fig1_right.hda) == frozenset(fig1_right.hda.space.ids())


def test_reachable_is_face_closed_and_witnessed():
    from hdabisim.generators import random_hda

    rng = random.Random(11)
    for trial in range(8):
        hda = random_hda(rng, max_cubes=18, max_dim=3,
                         cyclic=bool(trial % 2), stray=True)
        reach = hb.reachable(hda)
        assert hda.initial in reach
        space = hda.space
        for x in reach:
            for nu in (0, 1):
                for k in range(1, space.dim(x) + 1):
                    assert space.face(x, k, nu) in reach
        # Every reachable cube is the endpoint of some enumerated pointed
        # path, and path validity is checked independently.
        seen = set()
        for path in hb.enumerate_pointed_paths(hda, len(space)):
            assert hb.is_cube_path(space, path.seq)
            seen.add(path.end)
            if seen == reach:
                break
        assert seen == reach


def _reachable_by_successors(hda):
    """The reference walk `reachable` replaced: closure under `successors`."""
    seen, queue = {hda.initial}, [hda.initial]
    while queue:
        for y in hda.space.successors(queue.pop()):
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return frozenset(seen)


def test_reachable_agrees_with_successor_walk():
    from hdabisim.generators import random_hda

    rng = random.Random(12)
    truncated = 0
    for trial in range(120):
        hda = random_hda(rng, max_cubes=rng.choice((8, 20, 60)), max_dim=3,
                         cyclic=trial % 3 == 0, stray=trial % 2 == 0)
        assert hb.reachable(hda) == _reachable_by_successors(hda), trial
        if trial % 4 == 0:
            # Truncated unfoldings omit the upper faces past the frontier.
            tree = hb.unfold(hda, 4).tree
            truncated += any(f is None for c in tree.space.ids()
                             for f in tree.space.row(c)[2])
            assert hb.reachable(tree) == _reachable_by_successors(tree), trial
    assert truncated, "no omitted upper face exercised"


def test_torus_two_events():
    space, labeling = hb.torus(EventSet(("a", "b")), 2)
    assert hb.validate_precubical(space).ok
    assert len(space.by_dim(0)) == 1
    assert space.by_dim(1) == ("a", "b")
    assert space.by_dim(2) == ("a.a", "a.b", "b.b")
    hda = hb.HDA(space, "()")
    assert hb.validate_labeling(hda, labeling).ok


def test_torus_empty_alphabet():
    space, _labeling = hb.torus(EventSet(()), 3)
    assert list(space.ids()) == ["()"]


def test_torus_single_event_maxdim3():
    space, _labeling = hb.torus(EventSet(("a",)), 3)
    assert [len(space.by_dim(n)) for n in range(4)] == [1, 1, 1, 1]


def test_torus_counts_are_multiset_numbers():
    for names in (("a",), ("a", "b"), ("a", "b", "c")):
        space, _ = hb.torus(EventSet(names), 3)
        assert hb.validate_precubical(space).ok
        s = len(names)
        for n in range(4):
            assert len(space.by_dim(n)) == math.comb(s + n - 1, n)


def test_validate_labeling_fig1(fig1_left):
    assert hb.validate_labeling(fig1_left.hda, fig1_left.labeling).ok


def test_validate_labeling_zero_dimensional():
    space = PrecubicalSet({"u": (0, (), ()), "w": (0, (), ())})
    labeling = hb.Labeling(EventSet(("a",)), {"u": (), "w": ()})
    assert hb.validate_labeling(hb.HDA(space, "u"), labeling).ok


def test_validate_labeling_unsorted_tuple(fig1_left):
    bad = dict(fig1_left.labeling.assign)
    bad["ab"] = (2, 1)
    report = hb.validate_labeling(fig1_left.hda,
                                  hb.Labeling(fig1_left.labeling.events, bad))
    assert any(v.kind == "label-unsorted" and v.cube == "ab"
               for v in report.violations)


def test_validate_labeling_face_incompatibility(fig1_left):
    bad = dict(fig1_left.labeling.assign)
    bad["a"] = (2,)  # now removing direction 2 from the square mismatches
    report = hb.validate_labeling(fig1_left.hda,
                                  hb.Labeling(fig1_left.labeling.events, bad))
    offender = next(v for v in report.violations if v.kind == "label-face")
    assert offender.cube == "ab"
    assert offender.data["k"] == 2


def test_validate_labeling_missing_assignment(fig1_left):
    partial = {c: t for c, t in fig1_left.labeling.assign.items() if c != "b2"}
    report = hb.validate_labeling(fig1_left.hda,
                                  hb.Labeling(fig1_left.labeling.events, partial))
    assert any(v.kind == "label-missing" and v.cube == "b2"
               for v in report.violations)


def test_face_identity_exhaustive_on_valid_models(fig1_left, fig3):
    # Spot-check the identity by hand on every high cube of the figures.
    for loaded in (fig1_left, fig3):
        space = loaded.hda.space
        for x in space.ids():
            for ell in range(2, space.dim(x) + 1):
                for k in range(1, ell):
                    for nu in (0, 1):
                        for mu in (0, 1):
                            left = space.face(space.face(x, ell, mu), k, nu)
                            right = space.face(space.face(x, k, nu), ell - 1, mu)
                            assert left == right


def test_event_set_rejects_bad_names():
    with pytest.raises(hb.ModelError):
        EventSet(("a", "a"))
    with pytest.raises(hb.ModelError):
        EventSet(("a.b",))
    with pytest.raises(hb.ModelError):
        EventSet(("",))


def test_empty_model_rejected():
    report = hb.validate_model(hb.HDA(PrecubicalSet([]), "i"))
    assert any(v.kind == "empty-model" for v in report.violations)
    assert any(v.kind == "initial-missing" for v in report.violations)


def test_pointed_morphism_requires_initials(fig2):
    space = fig2.hda.space
    f = hb.PrecubicalMorphism(space, space, {c: c for c in space.ids()},
                              pointed=True)
    with pytest.raises(hb.ModelError, match="initial"):
        hb.check_morphism(f)


def test_labeling_face_deletion_directly(fig1_left, fig3):
    for loaded in (fig1_left, fig3):
        space, labeling = loaded.hda.space, loaded.labeling
        for x in space.ids():
            tup = labeling.assign[x]
            for nu in (0, 1):
                for k in range(1, space.dim(x) + 1):
                    face = space.face(x, k, nu)
                    assert labeling.assign[face] == tup[:k - 1] + tup[k:]


def test_grid_ambients_are_valid():
    from hdabisim.generators import grid_hda

    for sizes in ((1,), (2, 2), (1, 1, 1), (2, 1, 2)):
        hda = grid_hda(sizes)
        assert hb.validate_model(hda).ok
        assert hb.reachable(hda) == frozenset(hda.space.ids())
