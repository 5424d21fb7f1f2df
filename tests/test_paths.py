"""Cube paths, adjacency clauses, homotopy, fan shaping, path objects."""

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hdabisim as hb
from hdabisim import CubePath, EventSet, ModelError, PrecubicalSet
from hdabisim.generators import grid_hda, random_hda, random_pointed_path

import cube_path_reference as cube_ref
import homotopy_reference as ref
from conftest import cut_square, refusal, square_homotopy_chain, truncated
from path_object_reference import face_reprs, is_path_object


FIG3_PATH = ("i", "a", "x", "b", "bc", "c", "z", "d")


def _adjacency(rho, sigma):
    """The clause the reference fires between two paths of one space."""
    assert rho.space is sigma.space
    return ref.adjacency(rho.space, rho.seq, sigma.seq)


def test_is_cube_path_fig3(fig3):
    check = hb.is_cube_path(fig3.hda.space, FIG3_PATH)
    assert check
    kinds = [s.kind for s in check.steps]
    # a starts, a ends, b starts, c starts, b ends, c ends, d starts
    assert kinds == ["lower-face-of-next", "upper-face-of-previous",
                     "lower-face-of-next", "lower-face-of-next",
                     "upper-face-of-previous", "upper-face-of-previous",
                     "lower-face-of-next"]


def test_reversed_fig3_path_fails(fig3):
    check = hb.is_cube_path(fig3.hda.space, tuple(reversed(FIG3_PATH)))
    assert not check
    assert check.failure == 1


def test_single_cube_is_a_path(fig3):
    assert hb.is_cube_path(fig3.hda.space, ("i",))


def test_adjacency_chain_clauses(fig3):
    chain = square_homotopy_chain(fig3.hda.space)
    infos = [_adjacency(a, b) for a, b in zip(chain, chain[1:])]
    assert [i.clause for i in infos] == [1, 2, 3]
    assert [i.position for i in infos] == [4, 6, 5]


def test_adjacency_dimension_drop_example(fig3):
    space = fig3.hda.space
    high = CubePath(space, ("i", "a", "x", "cb", "bc", "tb", "z", "d"))
    low = CubePath(space, ("i", "a", "x", "cb", "y", "tb", "z", "d"))
    info = _adjacency(high, low)
    assert info.clause == 3 and info.position == 5


def test_path_is_not_adjacent_to_itself(fig3):
    rho = CubePath(fig3.hda.space, FIG3_PATH)
    assert _adjacency(rho, rho) is None


def test_adjacency_is_symmetric(fig3):
    chain = square_homotopy_chain(fig3.hda.space)
    for a, b in itertools.combinations(chain, 2):
        assert (_adjacency(a, b) is None) == (_adjacency(b, a) is None)


def test_first_and_last_chain_paths_not_adjacent(fig3):
    chain = square_homotopy_chain(fig3.hda.space)
    assert _adjacency(chain[0], chain[-1]) is None
    assert hb.are_homotopic(chain[0], chain[-1]) is True


def test_homotopy_reflexive(fig3):
    rho = CubePath(fig3.hda.space, FIG3_PATH)
    assert hb.are_homotopic(rho, rho) is True


def test_homotopy_needs_equal_endpoints(fig3):
    space = fig3.hda.space
    rho = CubePath(space, FIG3_PATH)
    other = CubePath(space, ("i", "a", "x", "b", "bc", "tb", "z", "d"))
    assert hb.are_homotopic(rho, other) is True  # same endpoints, homotopic
    different_end = CubePath(space, ("i", "a", "x", "b", "bc", "c", "z"))
    assert hb.are_homotopic(rho, different_end) is False


def test_homotopy_refuses_paths_in_two_spaces(fig3):
    # An equal copy of the set is another space.
    copy = PrecubicalSet(dict(fig3.hda.space.rows()))
    rho, sigma = (CubePath(space, FIG3_PATH) for space in (fig3.hda.space, copy))
    with pytest.raises(ModelError,
                       match="^homotopy requires paths in the same space$"):
        hb.are_homotopic(rho, sigma)


def test_homotopy_cap_counts_classes(fig3):
    # Every length from 1 to 8 has a class of the paths from i, so deciding
    # builds at least 8 classes and passes a cap of 2.
    chain = square_homotopy_chain(fig3.hda.space)
    with pytest.raises(hb.CapExceeded, match="more than 2 homotopy classes"):
        hb.are_homotopic(chain[0], chain[-1], cap=2)


def test_homotopy_class_of_fig3_path(fig3):
    space = fig3.hda.space
    chain = square_homotopy_chain(space)
    cls = {p.seq for p in hb.homotopy_class(chain[0])}
    assert {c.seq for c in chain} <= cls
    # By hand: positions 4/5/6 admit b|cb x bc x c|tb plus the two
    # dimension-0 dips, six members in total.
    assert len(cls) == 6
    assert ("i", "a", "x", "b", "w", "c", "z", "d") in cls


def test_homotopy_class_member_independent(fig3):
    space = fig3.hda.space
    chain = square_homotopy_chain(space)
    reference = {p.seq for p in hb.homotopy_class(chain[0])}
    for member in chain[1:]:
        assert {p.seq for p in hb.homotopy_class(member)} == reference


def test_homotopy_class_cap(fig3):
    with pytest.raises(hb.CapExceeded):
        hb.homotopy_class(square_homotopy_chain(fig3.hda.space)[0], cap=3)


def test_t_measure(fig3):
    space = fig3.hda.space
    assert hb.t_measure(CubePath(space, FIG3_PATH)) == 6
    assert hb.t_measure(CubePath(space, ("i",))) == 0
    assert hb.t_measure(CubePath(space, ("i", "a", "x", "cb", "y", "tb", "z", "d"))) == 4


def test_is_fan_shaped(fig3):
    space = fig3.hda.space
    assert hb.is_fan_shaped(CubePath(space, ("i", "a", "x", "cb", "y", "tb", "z", "d")))
    assert not hb.is_fan_shaped(CubePath(space, FIG3_PATH))
    assert hb.is_fan_shaped(CubePath(space, ("i",)))


def test_fan_shape_fig3_regression(fig3):
    # Deterministic: the single reducible position is the square, entered at
    # index 2 and left at index 1, so the end-first rewrite fires.
    rho = CubePath(fig3.hda.space, FIG3_PATH)
    fan = hb.fan_shape(rho)
    assert fan.seq == ("i", "a", "x", "b", "w", "c", "z", "d")
    assert hb.is_fan_shaped(fan)
    assert hb.are_homotopic(rho, fan) is True
    assert hb.t_measure(fan) == hb.fan_t_bound(rho)


def test_fan_shape_fixes_fan_shaped_input(fig3):
    rho = CubePath(fig3.hda.space, ("i", "a", "x", "cb", "y", "tb", "z", "d"))
    assert hb.fan_shape(rho) == rho
    assert hb.fan_shape_trace(rho) == []


def test_fan_shape_random_paths():
    rng = random.Random(1234)
    for trial in range(100):
        hda = random_hda(rng, max_cubes=30, max_dim=3, cyclic=bool(trial % 3 == 0))
        rho = random_pointed_path(rng, hda, 9)
        trace = hb.fan_shape_trace(rho)
        fan = trace[-1][-1] if trace else rho
        assert hb.is_fan_shaped(fan)
        assert fan.start == rho.start and fan.end == rho.end
        assert len(fan) == len(rho)
        t = hb.t_measure(rho)
        for iteration in trace:
            assert hb.t_measure(iteration[-1]) == t - 2
            t -= 2
        chain = [rho] + [p for iteration in trace for p in iteration]
        for a, b in zip(chain, chain[1:]):
            assert _adjacency(a, b) is not None
        assert hb.are_homotopic(rho, fan) is True
        assert hb.t_measure(rho) >= hb.fan_t_bound(rho)
        assert (hb.t_measure(rho) == hb.fan_t_bound(rho)) == hb.is_fan_shaped(rho)


def test_fan_shape_requires_pointed_start(fig3):
    with pytest.raises(hb.ModelError):
        hb.fan_shape(CubePath(fig3.hda.space, ("a", "x")))


def test_fan_shape_refuses_a_step_onto_an_omitted_upper_face():
    # Lowering the square on i, a, ab, b2 replaces it by a's upper face,
    # which the truncation omitted.
    cut = hb.model_from_dict(cut_square()).hda
    with pytest.raises(ModelError, match="^cannot fan-shape the path: upper "
                       "face k=1 of 'a' is omitted by truncation$"):
        hb.fan_shape(CubePath(cut.space, ("i", "a", "ab", "b2")))
    # The other order of the two events lowers through b's upper face q.
    fan = hb.fan_shape(CubePath(cut.space, ("i", "b", "ab", "a2")))
    assert fan.seq == ("i", "b", "q", "a2")


def test_fan_shape_rejects_what_is_not_a_cube_path(fig3):
    # Fan shaping takes a CubePath, which refuses a broken sequence.
    with pytest.raises(ModelError, match=r"^'i,x,d' is not a cube path; "
                       "first broken step at position 1$"):
        CubePath(fig3.hda.space, ("i", "x", "d"))


def test_position_minus_dimension_is_odd_along_pointed_paths():
    rng = random.Random(99)
    for trial in range(10):
        hda = random_hda(rng, max_cubes=16, max_dim=3, cyclic=bool(trial % 2))
        for path in itertools.islice(hb.enumerate_pointed_paths(hda, 6), 200):
            for j, dim in enumerate(path.dims(), start=1):
                assert (j - dim) % 2 == 1


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_paths_within_one_cube_are_homotopic(data):
    # Two ways of walking the lower corner chain of a single cube, both
    # landing in the cube itself, are always homotopic.
    names = data.draw(st.sampled_from([("a",), ("a", "b")]))
    n = data.draw(st.integers(min_value=1, max_value=3))
    space, _lab = hb.torus(EventSet(names), n)
    top = data.draw(st.sampled_from(sorted(space.by_dim(n))))
    ks = tuple(data.draw(st.integers(min_value=1, max_value=j))
               for j in range(1, n + 1))
    ls = tuple(data.draw(st.integers(min_value=1, max_value=j))
               for j in range(1, n + 1))

    def corner_path(idx):
        seq = [top]
        cur = top
        for j in range(n, 0, -1):
            cur = space.lower(cur, idx[j - 1])
            seq.append(cur)
        return CubePath(space, tuple(reversed(seq)))

    rho, sigma = corner_path(ks), corner_path(ls)
    assert rho.start == sigma.start
    assert hb.are_homotopic(rho, sigma) is True


def test_one_cube_homotopy_on_plain_square(fig2):
    space = fig2.hda.space
    left = CubePath(space, ("c00", "l", "x"))
    bottom = CubePath(space, ("c00", "btm", "x"))
    assert hb.are_homotopic(left, bottom) is True


def test_path_object_fig3(fig3):
    result = is_path_object(fig3.hda.space)
    assert result.ok
    assert result.rep == FIG3_PATH


def test_path_object_single_point():
    space = PrecubicalSet({"v": (0, (), ())})
    result = is_path_object(space)
    assert result.ok and result.rep == ("v",)


def test_path_object_filled_square(fig1_left):
    # The filled square is exactly the track of the one pointed path that
    # ends inside the two-dimensional transition, so it is accepted with
    # that representation.
    result = is_path_object(fig1_left.hda.space)
    assert result.ok
    assert result.rep == ("i", "a", "ab")


def test_path_object_rejects_hollow_square(fig1_right):
    # Without the filler there are two maximal branches and no single
    # sequence can cover all four edges.
    result = is_path_object(fig1_right.hda.space)
    assert not result.ok
    assert result.rep is None


def test_path_object_rejects_self_loop():
    space = PrecubicalSet({"v": (0, (), ()), "e": (1, ("v",), ("v",))})
    assert not is_path_object(space).ok


def test_path_object_rejects_a_face_that_names_no_cube():
    # The dangling face is reported as the other walks report it, whether
    # it is a face of an entry or a deeper iterated face.
    dangling_upper = {"v": (0, (), ()), "e": (1, ("v",), ("zz",))}
    dangling_corner = {
        "v": (0, (), ()), "w": (0, (), ()), "a": (1, ("v",), ("w",)),
        "b": (1, ("v",), ("zz",)), "s": (2, ("a", "b"), ("b", "a"))}
    for rows in (dangling_upper, dangling_corner):
        with pytest.raises(ModelError, match="unknown cube id 'zz'"):
            is_path_object(PrecubicalSet(rows))


def test_path_object_is_a_track_the_search_accepts():
    # P_rho is a valid set, its map is a morphism, the search recognises it
    # as a track, and the path object of the search's representative is P_rho
    # again, up to the names its cubes take from their least (i, word).
    rng = random.Random(1717)
    for trial in range(900):
        if trial % 2:
            hda = grid_hda(tuple(rng.randint(1, 3)
                                 for _ in range(rng.randint(1, 3))))
        else:
            hda, _lab = hb.torus_hda(
                EventSet(tuple("abc"[:rng.randint(1, 3)])), rng.randint(1, 3))
        rho = random_pointed_path(rng, hda, 7)
        f = hb.path_object(rho)
        assert f.source.initial == "0:"
        assert f.target == hb.HDA(hda.space, rho.start)
        assert hb.validate_precubical(f.source.space).ok, rho
        assert hb.check_morphism(f), rho
        found = is_path_object(f.source.space)
        assert found.ok, (rho, found.reason)
        back = hb.path_object(CubePath(f.source.space, found.rep))
        assert hb.morphism_is_isomorphism(back), (rho, found.rep)


def test_path_object_of_a_sweeping_path_is_the_model(fig3, fig1_left):
    for loaded, seq in ((fig3, FIG3_PATH), (fig1_left, ("i", "a", "ab"))):
        f = hb.path_object(CubePath(loaded.hda.space, seq))
        assert hb.morphism_is_isomorphism(f)
    # Each cube is named after the least (position, face word) of its class:
    # the edge a is lower face 2 of ab, so it keeps its own name 1:*.
    assert dict(f.mapping) == {
        "0:": "i", "1:*": "a", "1:1": "p", "2:**": "ab", "2:0*": "b",
        "2:01": "q", "2:*1": "a2", "2:1*": "b2", "2:11": "f"}


def test_path_object_glues_a_self_linked_step_at_the_least_k():
    # a is lower face 1 and lower face 2 of a.a; the step is glued at k = 1,
    # the k that is_cube_path reports, so face 2 stays a cube of its own.
    torus, _lab = hb.torus_hda(EventSet(("a",)), 2)
    f = hb.path_object(CubePath(torus.space, ("()", "a", "a.a")))
    assert f.source.space.row("2:**") == (2, ("1:*", "2:*0"), ("2:1*", "2:*1"))
    assert len(f.source.space) == 9 and f.mapping["2:*0"] == "a"


def test_path_object_rejects_what_is_not_a_pointed_track(fig3, fig1_left):
    space = fig3.hda.space
    with pytest.raises(ModelError, match="not a cube path; first broken step "
                       "at position 1$"):
        hb.path_object(CubePath(space, tuple(reversed(FIG3_PATH))))
    with pytest.raises(ModelError, match="starting at a 0-cube"):
        hb.path_object(CubePath(space, ("a", "x")))
    # A frontier node of a truncated unfolding has its upper faces omitted.
    tree = hb.unfold(fig1_left.hda, 2).tree
    with pytest.raises(ModelError, match="^face '1' of 'i/a' names no cube$"):
        hb.path_object(CubePath(tree.space, ("i", "i/a")))


def test_enumerate_pointed_paths_fig5(fig5_x):
    paths = [p.seq for p in hb.enumerate_pointed_paths(fig5_x.hda, 3)]
    assert paths == [("x",), ("x", "e1"), ("x", "e1", "y")]
    assert [p.seq for p in hb.enumerate_pointed_paths(fig5_x.hda, 1)] == [("x",)]


def test_enumerate_pointed_paths_fig1(fig1_left):
    # Lengths are cube counts: the seven paths with at most three cubes,
    # thirteen with at most four.
    upto3 = [p.seq for p in hb.enumerate_pointed_paths(fig1_left.hda, 3)]
    assert len(upto3) == 7
    assert set(upto3) == {
        ("i",), ("i", "a"), ("i", "b"),
        ("i", "a", "p"), ("i", "a", "ab"), ("i", "b", "q"), ("i", "b", "ab"),
    }
    upto4 = [p.seq for p in hb.enumerate_pointed_paths(fig1_left.hda, 4)]
    assert len(upto4) == 13


def test_enumerate_rejects_a_positive_initial_cube_and_a_skipped_dimension():
    # An initial edge, or an initial cube the set lacks, fails as `unfold`
    # fails on it, in the words of `validate_model`; a square whose faces
    # are vertices fails validation, so the enumeration refuses its set
    # before it walks, as every int walk does.
    rows = {"v": (0, (), ()), "w": (0, (), ()), "e": (1, ("v",), ("w",))}
    for initial, message in (
            ("e", "initial cube 'e' has dimension 1, expected 0"),
            ("nope", "initial cube 'nope' does not exist")):
        hda = hb.HDA(PrecubicalSet(rows), initial)
        assert hb.validate_model(hda).violations[0].detail == message
        for call in (lambda: list(hb.enumerate_pointed_paths(hda, 3)),
                     lambda: hb.unfold(hda, 3)):
            with pytest.raises(hb.ModelError) as caught:
                call()
            assert str(caught.value) == message
    skip = hb.HDA(PrecubicalSet({**rows, "s": (2, ("v", "v"), ("w", "w"))}),
                  "v")
    with pytest.raises(hb.ModelError) as caught:
        list(hb.enumerate_pointed_paths(skip, 3))
    assert str(caught.value) == refusal(skip.space)
    assert "cube 's'" in str(caught.value)


def test_enumerate_yields_nothing_below_length_1(fig1_left):
    # Nothing is read, so not even a model that fails validation is refused.
    ghost = hb.HDA(fig1_left.hda.space, "ghost")
    for hda in (fig1_left.hda, ghost):
        for max_len in (0, -2):
            assert list(hb.enumerate_pointed_paths(hda, max_len)) == []


def test_enumerate_order_is_deterministic(fig1_left):
    once = [p.seq for p in hb.enumerate_pointed_paths(fig1_left.hda, 4)]
    twice = [p.seq for p in hb.enumerate_pointed_paths(fig1_left.hda, 4)]
    assert once == twice
    # The paths stream out as they are built, in (length, lex) order.
    rng = random.Random(808)
    models = [fig1_left.hda] + [random_hda(rng, max_cubes=20, max_dim=3,
                                           cyclic=trial % 2 == 0)
                                for trial in range(20)]
    for hda in models:
        seqs = [p.seq for p in hb.enumerate_pointed_paths(hda, 6)]
        assert seqs == sorted(seqs, key=lambda s: (len(s), s))
        assert len(set(seqs)) == len(seqs)


def test_canonical_rep_is_lex_least(fig3):
    space = fig3.hda.space
    chain = square_homotopy_chain(space)
    for member in chain:
        assert hb.canonical_rep(member).seq == FIG3_PATH  # lex-least member


def test_homotopy_symmetric_and_transitive(fig3):
    space = fig3.hda.space
    chain = square_homotopy_chain(space)
    a, b, c = chain[0], chain[1], chain[3]
    assert hb.are_homotopic(a, b) is True and hb.are_homotopic(b, a) is True
    assert hb.are_homotopic(b, c) is True
    assert hb.are_homotopic(a, c) is True


def test_empty_path_rejected(fig3):
    with pytest.raises(hb.ModelError):
        CubePath(fig3.hda.space, ())


def test_normalized_face_enumeration_is_complete():
    # Every iterated face reachable by arbitrary face applications shows up
    # among the normalized (sorted-index) representations.
    rng = random.Random(777)
    for trial in range(6):
        hda = random_hda(rng, max_cubes=20, max_dim=3, cyclic=bool(trial % 2))
        space = hda.space
        for top in space.ids():
            closure = {top}
            frontier = [top]
            while frontier:
                cur = frontier.pop()
                for f in space.row(cur)[1] + space.row(cur)[2]:
                    if f is not None and f not in closure:
                        closure.add(f)
                        frontier.append(f)
            assert set(face_reprs(space, top)) == closure


def test_two_end_orders_from_a_three_cube_are_adjacent():
    # Ending direction 1 then (renumbered) 2 versus direction 3 then 1 out
    # of a 3-cube lands on the same edge; the end-swap clause must fire with
    # the top cube's indexing.
    space, _lab = hb.torus(EventSet(("a", "b", "c")), 3)
    first = CubePath(space, ("a.b.c", "b.c", "b"))
    second = CubePath(space, ("a.b.c", "a.b", "b"))
    info = _adjacency(first, second)
    assert info is not None
    assert (info.clause, info.k, info.ell) == (2, 1, 3)
    flipped = _adjacency(second, first)
    assert flipped.clause == 2 and flipped.swapped != info.swapped


def test_one_cube_corner_paths_exhaustive_dim_three():
    # Every pair of lower-corner climbs into the same cube is homotopic:
    # checked for all index sequences (k_j <= j) on every cube of dimension
    # up to three, over a torus and a solid grid cube.
    spaces = [hb.torus(EventSet(("a", "b")), 3)[0], grid_hda((1, 1, 1)).space]
    for space in spaces:
        for n in (1, 2, 3):
            for top in space.by_dim(n):
                seqs = list(itertools.product(*(range(1, j + 1)
                                                for j in range(1, n + 1))))

                def climb(idx):
                    path = [top]
                    cur = top
                    for j in range(n, 0, -1):
                        cur = space.lower(cur, idx[j - 1])
                        path.append(cur)
                    return hb.CubePath(space, tuple(reversed(path)))

                for ks in seqs:
                    for ls in seqs:
                        rho, sigma = climb(ks), climb(ls)
                        assert rho.start == sigma.start
                        assert hb.are_homotopic(rho, sigma) is True


def _step_relation_models(rng):
    """Valid sets on which the string references must agree with the int
    walks: random grid and torus sub-HDA, truncations of them, their cut
    unfoldings, and tori whose cubes are self-linked (`a.a` has the face
    `a` at both k)."""
    for trial in range(24):
        hda = random_hda(rng, max_cubes=16, max_dim=3, cyclic=trial % 2 == 1)
        yield hda
        yield truncated(rng, hda)
        yield hb.unfold(hda, rng.randint(2, 6)).tree
    for names in (("a",), ("a", "b")):
        for maxdim in (2, 3):
            yield hb.torus_hda(EventSet(names), maxdim)[0]


def _walks(rng, space, count):
    """`count` random walks of up to 8 cubes from random cubes, each
    followed by a copy with one entry replaced by a random cube."""
    ids = space.ids()
    for _ in range(count):
        seq = [rng.choice(ids)]
        for _ in range(rng.randint(0, 7)):
            succs = space.successors(seq[-1])
            if not succs:
                break
            seq.append(rng.choice(succs))
        yield tuple(seq)
        j = rng.randrange(len(seq))
        yield tuple(seq[:j]) + (rng.choice(ids),) + tuple(seq[j + 1:])


def test_is_cube_path_agrees_with_string_reference():
    # The int check diagnoses every sequence as the string reference does:
    # ok, the first broken position and every step, with the least k and
    # the lower face of the next cube tested before the upper face of the
    # previous one.  A CubePath is built exactly when the check passes.
    rng = random.Random(2424)
    tally = Counter()
    for hda in _step_relation_models(rng):
        space = hda.space
        for seq in _walks(rng, space, 10):
            want = cube_ref.is_cube_path(space, seq)
            assert hb.is_cube_path(space, seq) == want, seq
            if want:
                assert CubePath(space, seq).seq == seq
            else:
                with pytest.raises(ModelError, match=f"position {want.failure}$"):
                    CubePath(space, seq)
            tally[want.ok] += 1
            for step in want.steps:
                a, b = seq[step.position - 1], seq[step.position]
                lower = step.kind == "lower-face-of-next"
                faces = space.row(b)[1] if lower else space.row(a)[2]
                tally[step.kind] += 1
                # A self-linked step could be read at a greater k.
                if faces.count(a if lower else b) > 1:
                    tally["several k", step.kind] += 1
    assert min(tally.values()) >= 50, tally


def test_enumeration_agrees_with_string_reference():
    # The same pointed paths in the same order, up to 2,000 per model.
    rng = random.Random(2525)
    total = 0
    for hda in _step_relation_models(rng):
        depth = rng.randint(1, 10)
        got = [path.seq for path in
               itertools.islice(hb.enumerate_pointed_paths(hda, depth), 2000)]
        want = list(itertools.islice(
            cube_ref.enumerate_pointed_paths(hda, depth), 2000))
        assert got == want, (hda.initial, depth)
        total += len(got)
    assert total >= 5000, total
