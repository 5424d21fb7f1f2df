"""Unfoldings: tree structure, projections, lifts, and the torus closed form."""

import io
import json
import random
from collections import Counter

import pytest

import hdabisim as hb
from hdabisim import CubePath, EventSet, PrecubicalSet
from hdabisim.generators import grid_hda, random_hda, sub_hda
from hdabisim.cli import main
from conftest import MODELS, cut_square, torus_closed_form_map
from homotopy_reference import closure

# Large enough that the reference never stops early on the corpus below.
REFERENCE_CAP = 1_000_000


def _reference_layers(hda, depth):
    """The slow reference for the layered quotient: every class found by
    closing a member under adjacency.  Returns the sorted representatives
    per length, the canonicalizer, and the sorted members per class."""
    space = hda.space
    canon, members = {}, {}

    def canonical(seq):
        if seq not in canon:
            _found, seen, capped = closure(space, seq, REFERENCE_CAP)
            assert not capped
            ordered = sorted(seen)
            canon.update(dict.fromkeys(ordered, ordered[0]))
            members[ordered[0]] = ordered
        return canon[seq]

    layers = [[canonical((hda.initial,))]]
    for _length in range(2, depth + 1):
        layers.append(sorted({canonical(rep + (y,)) for rep in layers[-1]
                              for y in space.successors(rep[-1])}))
    return layers, canonical, members


def reference_unfolding(hda, depth):
    """Node id -> (dim, lower face ids, upper face ids), and the frontier,
    of the unfolding built from closure classes."""
    space = hda.space
    layers, canonical, members = _reference_layers(hda, depth)
    cubes, frontier = {}, set()
    for rep in (rep for layer in layers for rep in layer):
        end, n = rep[-1], space.dim(rep[-1])
        lower = tuple(
            hb.node_id_of(canonical(next(
                m for m in members[rep] if m[-2] == space.lower(end, k))[:-1]))
            for k in range(1, n + 1))
        upper = tuple(
            hb.node_id_of(canonical(rep + (space.upper(end, k),)))
            if len(rep) < depth else None for k in range(1, n + 1))
        if len(rep) == depth and (n or space.cofaces_lower(end)):
            frontier.add(hb.node_id_of(rep))
        cubes[hb.node_id_of(rep)] = (n, lower, upper)
    return cubes, frontier


def reference_is_tree(hda, depth):
    """All pointed paths within `depth` that end in the same cube lie in
    one closure class."""
    by_end = {}
    for path in hb.enumerate_pointed_paths(hda, depth):
        by_end.setdefault(path.end, []).append(path.seq)
    for seqs in by_end.values():
        _found, cls, capped = closure(hda.space, seqs[0], REFERENCE_CAP)
        assert not capped
        if any(seq not in cls for seq in seqs[1:]):
            return False
    return True


def _differential_corpus():
    rng = random.Random(4404)
    for i in range(420):
        hda = random_hda(rng, max_cubes=16, max_dim=3, cyclic=i % 3 == 0)
        yield f"random {i}", hda, 1 + i % 7
    # Random walks rarely leave a hole; these grids lose some top cubes.
    for i in range(60):
        grid = grid_hda(rng.choice(((2, 2), (2, 3), (3, 3), (1, 2, 2), (2, 2, 2))))
        space = grid.space
        keep = {c for c in space.ids()
                if space.dim(c) < space.max_dim() or rng.random() < 0.6}
        yield f"holed grid {i}", sub_hda(grid, keep), 3 + i % 6
    for names in ((), ("a",), ("a", "b"), ("a", "b", "c")):
        for maxdim in range(4):
            hda, _lab = hb.torus_hda(EventSet(names), maxdim)
            for depth in range(1, 6):
                yield f"torus {names} {maxdim}", hda, depth


def test_unfold_two_cycle_is_a_line(fig5_x):
    unfolding = hb.unfold(fig5_x.hda, 5)
    shapes = sorted((node.length, node.dim) for node in unfolding.nodes.values())
    assert shapes == [(1, 0), (2, 1), (3, 0), (4, 1), (5, 0)]
    assert hb.validate_precubical(unfolding.tree.space).ok
    assert hb.check_morphism(unfolding.projection)
    assert not unfolding.complete
    assert unfolding.frontier == {"x/e1/y/e2/x"}
    # A line: each edge node connects consecutive vertex nodes.
    edges = [n for n in unfolding.nodes.values() if n.dim == 1]
    assert len(edges) == 2


def test_unfold_tree_input_projection_is_iso(fig3):
    depth = hb.longest_pointed_path_length(fig3.hda)
    unfolding = hb.unfold(fig3.hda, depth)
    assert unfolding.complete
    assert hb.morphism_is_isomorphism(unfolding.projection)


def test_unfold_square_projection_is_not_injective(fig1_left):
    depth = hb.longest_pointed_path_length(fig1_left.hda)
    unfolding = hb.unfold(fig1_left.hda, depth)
    assert unfolding.complete
    # Both interleavings collapse into single classes, so the projection is
    # an isomorphism here as well: the filled square is already a tree.
    assert hb.morphism_is_isomorphism(unfolding.projection)


def test_unfold_hollow_square_duplicates_far_corner(fig1_right):
    unfolding = hb.unfold(fig1_right.hda, 5)
    ends = [n.rep[-1] for n in unfolding.nodes.values()]
    assert ends.count("f") == 2  # two non-homotopic histories reach f


def test_unfold_keeps_a_truncated_base_truncated(fig3):
    # Unfolding a truncated tree again cuts nothing more: its omitted upper
    # faces stay omitted, the nodes over its frontier stay on the frontier,
    # and the projection is an isomorphism.
    tree = hb.unfold(fig3.hda, 4).tree
    assert (len(tree.space), len(tree.space.frontier)) == (5, 2)
    again = hb.unfold(tree, 9)
    assert (len(again.tree.space), len(again.frontier)) == (5, 2)
    assert not again.complete
    assert {again.project(n) for n in again.frontier} == tree.space.frontier
    assert hb.validate_model(again.tree).ok
    assert hb.morphism_is_isomorphism(again.projection)


def test_unfold_refuses_a_class_whose_face_lies_past_the_truncation(tmp_path):
    # Class i/a/ab/b2 has no member through b2's lower face p, which the
    # truncated base reaches only through a's omitted upper face.  Cutting
    # such a class could break the tree's face identity, so `unfold`, and
    # the oracle that unfolds, refuse the base as an input error.
    data = cut_square()
    cut = hb.model_from_dict(data)
    assert hb.validate_model(cut.hda, cut.labeling).ok
    message = ("cannot unfold: class i/a/ab/b2 has no member through lower "
               "face k=1 of 'b2', which the truncated base reaches only "
               "through omitted upper faces")
    square = hb.load_model(MODELS / "ab_square_abc.json").hda
    for call in (lambda: hb.unfold(cut.hda, 4),
                 lambda: hb.hp_oracle(cut.hda, square, 6)):
        with pytest.raises(hb.ModelError) as caught:
            call()
        assert str(caught.value) == message
    # Short of that class the truncation unfolds, with the nodes over the
    # base's frontier on the tree's frontier.
    assert sorted(hb.unfold(cut.hda, 3).frontier) == ["i/a", "i/a/ab", "i/b/q"]
    path = tmp_path / "cut.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    for argv in (["unfold", str(path), "--depth", "4"],
                 ["oracle", str(path), str(MODELS / "ab_square_abc.json"),
                  "--depth", "6"]):
        out = io.StringIO()
        assert main(argv, out=out) == 2
        assert json.loads(out.getvalue()) == {"result": "error", "error": message}


def test_unfold_truncated_torus_line():
    hda, _lab = hb.torus_hda(EventSet(("a",)), 1)
    unfolding = hb.unfold(hda, 5)
    shapes = sorted((n.length, n.dim) for n in unfolding.nodes.values())
    assert shapes == [(1, 0), (2, 1), (3, 0), (4, 1), (5, 0)]


def test_unfold_validates_and_is_tree_random():
    rng = random.Random(5150)
    for trial in range(10):
        hda = random_hda(rng, max_cubes=16, max_dim=2, cyclic=bool(trial % 3 == 0))
        depth = 6 if trial % 3 == 0 else hb.longest_pointed_path_length(hda)
        unfolding = hb.unfold(hda, depth)
        assert hb.validate_precubical(unfolding.tree.space).ok
        assert hb.check_morphism(unfolding.projection)
        assert hb.is_tree(unfolding.tree, depth)


def test_unfold_monotone_in_depth(fig5_x, fig1_left):
    for hda in (fig5_x.hda, fig1_left.hda):
        for depth in (1, 2, 3, 4):
            small = hb.unfold(hda, depth)
            big = hb.unfold(hda, depth + 1)
            assert set(small.nodes.items()) <= set(big.nodes.items())


def test_is_tree_figures(fig1_left, fig1_right):
    assert hb.is_tree(fig1_left.hda, 5)
    assert not hb.is_tree(fig1_right.hda, 5)


def test_is_tree_requires_a_positive_depth(fig1_right):
    for depth in (0, -3):
        with pytest.raises(hb.ModelError, match="^unfolding depth must be >= 1$"):
            hb.is_tree(fig1_right.hda, depth)


def test_prefix_projections_stay_in_their_class(fig1_left):
    unfolding = hb.unfold(fig1_left.hda, 5)
    tree = unfolding.tree
    for path in hb.enumerate_pointed_paths(tree, 5):
        projected = tuple(unfolding.project(node) for node in path.seq)
        for j in range(1, len(path) + 1):
            node = unfolding.nodes[path.seq[j - 1]]
            rep = CubePath(fig1_left.hda.space, node.rep)
            assert hb.are_homotopic(
                CubePath(fig1_left.hda.space, projected[:j]), rep) is True


def test_lift_fig3_from_root(fig3):
    depth = hb.longest_pointed_path_length(fig3.hda)
    unfolding = hb.unfold(fig3.hda, depth)
    root = unfolding.tree.initial
    sigma = CubePath(fig3.hda.space, ("i", "a", "x", "b", "bc", "c", "z", "d"))
    lifted = hb.lift_path(unfolding, root, sigma)
    reps = [unfolding.nodes[n].rep for n in lifted.seq]
    # Each lifted node is the class of the corresponding prefix.
    for j, rep in enumerate(reps, start=1):
        assert hb.are_homotopic(
            CubePath(fig3.hda.space, sigma.seq[:j]),
            CubePath(fig3.hda.space, rep)) is True
    projected = tuple(unfolding.project(n) for n in lifted.seq)
    assert projected == sigma.seq


def test_lift_trivial_extension(fig3):
    unfolding = hb.unfold(fig3.hda, 4)
    root = unfolding.tree.initial
    lifted = hb.lift_path(unfolding, root, CubePath(fig3.hda.space, ("i",)))
    assert lifted.seq == (root,)


def test_lift_two_cycle(fig5_x):
    unfolding = hb.unfold(fig5_x.hda, 5)
    sigma = CubePath(fig5_x.hda.space, ("x", "e1", "y", "e2", "x"))
    lifted = hb.lift_path(unfolding, "x", sigma)
    assert len(lifted) == 5
    assert hb.is_cube_path(unfolding.tree.space, lifted.seq)


def test_lift_depth_bound(fig5_x):
    unfolding = hb.unfold(fig5_x.hda, 3)
    sigma = CubePath(fig5_x.hda.space, ("x", "e1", "y", "e2", "x"))
    with pytest.raises(hb.DepthExceeded):
        hb.lift_path(unfolding, "x", sigma)


def test_lift_rejects_what_it_cannot_lift(fig5_x):
    unfolding = hb.unfold(fig5_x.hda, 5)
    space = fig5_x.hda.space
    other = hb.load_model(MODELS / "fig5_x.json").hda.space
    cases = [
        ("zz", CubePath(space, ("x",)), r"unknown tree node 'zz'"),
        ("x", CubePath(other, ("x",)), r"in the unfolding's base"),
        ("x/e1", CubePath(space, ("x", "e1")),
         r"expected the projection 'e1' of 'x/e1'"),
    ]
    for start, sigma, message in cases:
        with pytest.raises(hb.ModelError, match=message):
            hb.lift_path(unfolding, start, sigma)
    # What breaks the step relation is no CubePath, so it never gets here.
    with pytest.raises(hb.ModelError, match="^'x,y' is not a cube path; "
                       "first broken step at position 1$"):
        CubePath(space, ("x", "y"))


def test_torus_unfolding_single_event():
    hda = hb.torus_unfolding(EventSet(("a",)), 5)
    space = hda.space
    assert len(space.by_dim(0)) == 3  # steps 0, 2, 4
    assert len(space.by_dim(1)) == 2  # steps 1, 3
    assert hda.initial == "()@0"
    report = hb.validate_precubical(space)
    assert report.ok


def test_torus_unfolding_depth_one():
    hda = hb.torus_unfolding(EventSet(("a", "b")), 1)
    assert list(hda.space.ids()) == ["()@0"]


def _assert_closed_form(events, depth, maxdim=None):
    """The (end cube, started events) map from the computed unfolding to
    the closed form is an isomorphism that keeps the frontier."""
    f = torus_closed_form_map(events, depth, maxdim)
    case = (events.names, maxdim, depth)
    assert hb.validate_precubical(f.target).ok, case
    assert hb.morphism_is_isomorphism(f), case
    assert {f.mapping[c] for c in f.source.frontier} == f.target.frontier, case


def test_torus_unfolding_matches_unfold_single_event():
    # With one event the closed form agrees with the real unfolding at
    # every depth.
    for depth in range(1, 6):
        _assert_closed_form(EventSet(("a",)), depth)


def test_torus_unfolding_two_events_shallow():
    for depth in range(1, 6):
        _assert_closed_form(EventSet(("a", "b")), depth)


def test_torus_unfolding_three_events():
    for depth in range(1, 6):
        _assert_closed_form(EventSet(("a", "b", "c")), depth)


def test_torus_unfolding_nodes_track_started_events():
    # Nodes are (end cube, started events): x@m:c with m = 2|c| - dim x.
    space = hb.torus_unfolding(EventSet(("a", "b")), 4).space
    assert [c for c in space.ids() if space.dim(c) == 0] == [
        "()@0", "()@2:a", "()@2:b"]
    assert space.lower("a.b@2:a.b", 1) == "b@1:b"
    assert space.lower("a.b@2:a.b", 2) == "a@1:a"
    assert space.upper("a.b@2:a.b", 1) == "b@3:a.b"
    assert space.upper("b@3:a.b", 1) is None
    assert "b@3:a.b" in space.frontier


def test_torus_classes_track_event_content():
    # Homotopy classes of split traces remember which events occurred, not
    # just their endpoint and count: after a+a- and after b+b- are distinct
    # histories, while disjoint occurrences may reorder through the filler.
    base, _lab = hb.torus_hda(EventSet(("a", "b")), 2)
    space = base.space
    p_a = CubePath(space, ("()", "a", "()"))
    p_b = CubePath(space, ("()", "b", "()"))
    assert hb.are_homotopic(p_a, p_b) is False
    mixed1 = CubePath(space, ("()", "a", "()", "b", "()"))
    mixed2 = CubePath(space, ("()", "b", "()", "a", "()"))
    assert hb.are_homotopic(mixed1, mixed2) is True
    twice_a = CubePath(space, ("()", "a", "()", "a", "()"))
    assert hb.are_homotopic(mixed1, twice_a) is False


def test_torus_collapse_single_event_exhaustive():
    # With a one-letter alphabet, endpoint and length do determine the
    # class; check it exhaustively at small depth.
    for maxdim in (1, 2, 3):
        base, _lab = hb.torus_hda(EventSet(("a",)), maxdim)
        by_key: dict = {}
        for path in hb.enumerate_pointed_paths(base, 5):
            by_key.setdefault((path.end, len(path)), []).append(path)
        for _key, group in by_key.items():
            for other in group[1:]:
                assert hb.are_homotopic(group[0], other) is True


def test_acyclicity_helpers(fig3, fig5_x):
    assert hb.is_acyclic(fig3.hda)
    assert hb.longest_pointed_path_length(fig3.hda) == 9
    assert not hb.is_acyclic(fig5_x.hda)
    with pytest.raises(hb.ModelError):
        hb.longest_pointed_path_length(fig5_x.hda)


def test_unfold_cap(fig1_left):
    with pytest.raises(hb.CapExceeded):
        hb.unfold(fig1_left.hda, 5, cap=1)


def test_unfold_rejects_node_ids_that_collide():
    # The classes of (i, a/b) and (i, a, b) would both be named "i/a/b".
    rows = {"i": (0, (), ()), "b": (0, (), ()), "c": (0, (), ()),
            "a": (1, ("i",), ("b",)), "a/b": (1, ("i",), ("c",))}
    hda = hb.HDA(PrecubicalSet(rows), "i")
    with pytest.raises(hb.ModelError, match="'i/a/b'"):
        hb.unfold(hda, 3)
    assert hb.unfold(hda, 2).tree.space.ids() == ("i", "i/a", "i/a/b")


def test_torus_unfolding_cap():
    events = EventSet(("a", "b"))
    assert len(hb.torus_unfolding(events, 4, 1, cap=9).space) == 9
    with pytest.raises(hb.CapExceeded, match="more than 8 nodes"):
        hb.torus_unfolding(events, 4, 1, cap=8)
    # Without events only the root exists, however deep or wide.
    assert hb.torus_unfolding(EventSet(()), 10**9, 10**9).space.ids() == ("()@0",)


def test_every_tree_node_is_reachable():
    rng = random.Random(910)
    for trial in range(6):
        hda = random_hda(rng, max_cubes=14, max_dim=2, cyclic=bool(trial % 2))
        unfolding = hb.unfold(hda, 5)
        assert hb.reachable(unfolding.tree) == frozenset(unfolding.tree.space.ids())


def test_lower_face_class_is_member_independent():
    # The lower face of a node is defined through *some* member whose
    # second-to-last cube matches; every matching member must induce the
    # same face node, otherwise the face would be ill-defined.
    rng = random.Random(1111)
    for trial in range(6):
        hda = random_hda(rng, max_cubes=14, max_dim=3, cyclic=bool(trial % 2))
        space = hda.space
        unfolding = hb.unfold(hda, 5)
        for node in unfolding.nodes.values():
            if node.dim == 0:
                continue
            _f, members, capped = closure(space, node.rep, 100_000)
            assert not capped
            for k in range(1, node.dim + 1):
                want = space.lower(node.rep[-1], k)
                prefixes = [m[:-1] for m in sorted(members) if m[-2] == want]
                assert prefixes, (node.rep, k)
                first = hb.canonical_rep(
                    hb.CubePath(space, prefixes[0])).seq
                for other in prefixes[1:]:
                    assert hb.canonical_rep(
                        hb.CubePath(space, other)).seq == first


def test_torus_unfolding_with_maxdim_matches_unfold():
    # The closed form of the truncated torus, frontier included; below
    # dimension 2 events cannot be reordered, so histories are sequences.
    for names in ((), ("a",), ("a", "b")):
        for maxdim in range(4):
            for depth in range(1, 6):
                _assert_closed_form(EventSet(names), depth, maxdim)


def test_torus_unfolding_one_dimensional_histories_are_ordered():
    space = hb.torus_unfolding(EventSet(("a", "b")), 5, maxdim=1).space
    assert {"()@4:a.b", "()@4:b.a"} <= set(space.ids())
    assert space.lower("b@3:a.b", 1) == "()@2:a"
    assert space.upper("b@3:a.b", 1) == "()@4:a.b"
    assert max(space.dim(c) for c in space.ids()) == 1


def test_layered_quotient_agrees_with_closure_reference():
    verdicts = Counter()
    for name, hda, depth in _differential_corpus():
        unfolding = hb.unfold(hda, depth)
        space = unfolding.tree.space
        got = dict(space.rows())
        want, frontier = reference_unfolding(hda, depth)
        assert got == want, (name, depth)
        assert unfolding.frontier == frontier, (name, depth)
        for model in (hda, unfolding.tree):
            verdict = hb.is_tree(model, depth)
            assert verdict == reference_is_tree(model, depth), (name, depth)
            verdicts[verdict] += 1
    # Both verdicts occur often enough for the comparison to mean something.
    assert min(verdicts.values()) >= 100, verdicts


def test_torus_unfolding_three_events_maps_by_started_events():
    # Includes the 25-node unfolding at maxdim 1, depth 5.
    for maxdim in range(4):
        for depth in range(1, 6):
            _assert_closed_form(EventSet(("a", "b", "c")), depth, maxdim)


def test_torus_unfolding_four_events_maps_by_started_events():
    events = EventSet(("a", "b", "c", "d"))
    for maxdim in (None, 0, 1, 2, 3):
        for depth in range(1, 8):
            _assert_closed_form(events, depth, maxdim)


def test_torus_unfolding_deep_ordered_histories():
    # Below dimension 2 a history is the sequence of started events.
    for names in (("a", "b"), ("a", "b", "c")):
        _assert_closed_form(EventSet(names), 12, maxdim=1)


def _iso_case(source, target, mapping):
    return hb.PrecubicalMorphism(
        PrecubicalSet(source), PrecubicalSet(target), mapping, pointed=True,
        source_initial="v0", target_initial="u0")


def _points(*ids):
    return {cid: (0, (), ()) for cid in ids}


_EDGE = {**_points("v0", "v1"), "e": (1, ("v0",), ("v1",))}
_LOOP = {**_points("u0"), "l": (1, ("u0",), ("u0",))}


@pytest.mark.parametrize("f", [
    # Not injective: both ends of the edge go to the loop's vertex, and the
    # stray vertex u1 keeps the sizes equal.
    _iso_case(_EDGE, {**_LOOP, **_points("u1")},
              {"v0": "u0", "v1": "u0", "e": "l"}),
    # The same collapse onto the loop alone: the image fills the target,
    # yet the map is still not injective.
    _iso_case(_EDGE, _LOOP, {"v0": "u0", "v1": "u0", "e": "l"}),
    # Injective but not onto: the stray vertex u2 is missed.
    _iso_case(_EDGE, {**_points("u0", "u1", "u2"), "f": (1, ("u0",), ("u1",))},
              {"v0": "u0", "v1": "u1", "e": "f"}),
    # A bijection that breaks the face equation d_1^1 e = v1.
    _iso_case(_EDGE, {**_LOOP, **_points("u1")},
              {"v0": "u0", "v1": "u1", "e": "l"}),
    # The edge's upper face is omitted, its image's is present.
    _iso_case({**_points("v0", "v1"), "e": (1, ("v0",), (None,))},
              {**_points("u0", "u1"), "f": (1, ("u0",), ("u1",))},
              {"v0": "u0", "v1": "u1", "e": "f"}),
    # Sizes agree, but the image names a cube the target lacks.
    _iso_case(_points("v0"), _points("u0"), {"v0": "ghost"}),
    # Sizes agree, but the source cube v0 is unmapped.
    _iso_case(_points("v0"), _points("u0"), {"zz": "u0"}),
], ids=["not-injective", "collapse", "not-surjective", "face-equation",
        "omitted-face", "unknown-target-cube", "not-total"])
def test_morphism_is_isomorphism_rejects(f):
    assert hb.morphism_is_isomorphism(f) is False
