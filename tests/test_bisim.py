"""Open maps, the partition-refinement decision, and the run-based oracle."""

import functools
import random
import re
from collections import Counter

import pytest

import hdabisim as hb
from hdabisim import PrecubicalSet, bisim, core
from hdabisim.generators import random_hda, sub_hda

from conftest import criterion_5_corpus, load, refusal, truncated
from open_map_reference import extensions, is_open, lifts, pointed_ends


def identity_morphism(hda, pointed=True):
    return hb.PrecubicalMorphism(
        hda.space, hda.space, {c: c for c in hda.space.ids()},
        pointed=pointed, source_initial=hda.initial, target_initial=hda.initial)


def test_open_map_identity(fig1_left, fig3):
    for loaded in (fig1_left, fig3):
        result = hb.open_map_check(identity_morphism(loaded.hda),
                                   loaded.hda, loaded.hda)
        assert result.ok


def test_open_map_boundary_inclusion_fails(fig1_right, fig1_left):
    inclusion = hb.PrecubicalMorphism(
        fig1_right.hda.space, fig1_left.hda.space,
        {c: c for c in fig1_right.hda.space.ids()},
        pointed=True, source_initial="i", target_initial="i")
    assert hb.check_morphism(inclusion)
    result = hb.open_map_check(inclusion, fig1_right.hda, fig1_left.hda)
    assert not result.ok
    x1, y2, k = result.counterexample
    # The first failing obligation in (dimension, id) order: edge a has the
    # filler above it in the target but nothing in the source.
    assert (x1, y2, k) == ("a", "ab", 2)


def test_projections_of_full_unfoldings_are_open(fig3, fig1_left):
    for loaded in (fig3, fig1_left):
        depth = hb.longest_pointed_path_length(loaded.hda)
        unfolding = hb.unfold(loaded.hda, depth)
        assert unfolding.complete
        result = hb.open_map_check(unfolding.projection, unfolding.tree,
                                   loaded.hda)
        assert result.ok


def _maps_to_compare(seed):
    """An identity, two sub-HDA inclusions, an unfolding's projection and a
    torus unfolding mapped by its labels, all drawn from one seed, each with
    its source, its target and the unfolding it projects, if any."""
    rng = random.Random(seed)
    y = random_hda(rng, max_cubes=12, max_dim=3, cyclic=seed % 2 == 1)
    yield identity_morphism(y), y, y, None
    for _ in range(2):
        x = sub_hda(y, set(rng.sample(y.space.ids(),
                                      rng.randint(1, len(y.space)))))
        yield hb.PrecubicalMorphism(
            x.space, y.space, {c: c for c in x.space.ids()}, pointed=True,
            source_initial=x.initial, target_initial=y.initial), x, y, None
    unfolding = hb.unfold(y, rng.randint(1, 6))
    yield unfolding.projection, unfolding.tree, y, unfolding
    # Node <x>@<m>:<c> of a torus unfolding is labeled by its end cube x; it
    # maps into a torus with at least its events and dimension.
    names = tuple("abc"[:rng.randint(1, 3)])
    maxdim = rng.randint(0, 2)
    tree = hb.torus_unfolding(hb.EventSet(names[:rng.randint(1, len(names))]),
                              rng.randint(1, 5), maxdim)
    torus, _lab = hb.torus_hda(hb.EventSet(names), rng.randint(maxdim, 3))
    yield hb.PrecubicalMorphism(
        tree.space, torus.space, {n: n.split("@")[0] for n in tree.space.ids()},
        pointed=True, source_initial=tree.initial,
        target_initial=torus.initial), tree, torus, None


def test_open_map_check_agrees_with_the_definition():
    # A one-step failure at x1 shows on a path to x1 and one step more, and
    # every reachable x1 is the end of a pointed path of at most |X| cubes,
    # so depth |X| + 1 decides the definition exactly.
    verdicts = []
    for seed in range(200):
        for f, x, y, unfolding in _maps_to_compare(seed):
            assert hb.check_morphism(f)
            verdict = is_open(f, x, len(f.source) + 1)
            assert hb.open_map_check(f, x, y).ok == verdict, seed
            verdicts.append(verdict)
            if unfolding:
                # Within the depth every extension has exactly one lift, and
                # it is the tree path that lift_path gives.
                for length, ends in pointed_ends(x, unfolding.depth):
                    for node in ends:
                        start = unfolding.project(node)
                        for sigma in extensions(y.space, start,
                                                unfolding.depth - length):
                            path = hb.CubePath(y.space, (start,) + tuple(
                                step[2] for step in sigma))
                            lifted = hb.lift_path(unfolding, node, path)
                            assert list(lifts(f, node, sigma)) == [lifted.seq[1:]]
    assert verdicts.count(True) > 400 and verdicts.count(False) > 200


def _self_linked_map():
    # a.b has a as its lower face 2 only; a.a has a as lower faces 1 and 2.
    x = sub_hda(hb.torus_hda(hb.EventSet(("a", "b")), 2)[0], {"a.b"})
    y, _lab = hb.torus_hda(hb.EventSet(("a",)), 2)
    return x, y, {"()": "()", "a": "a", "b": "a", "a.b": "a.a"}


def test_open_maps_lift_each_step_with_its_k():
    x, y, mapping = _self_linked_map()
    f = hb.PrecubicalMorphism(x.space, y.space, mapping, pointed=True,
                              source_initial="()", target_initial="()")
    assert hb.check_morphism(f)
    # The cube sequence ((), a, a.a) lifts to ((), a, a.b), but a.a starts
    # at its face 1 and a.b leaves a by its face 2.
    assert "a.b" in x.space.successors("a")
    assert hb.open_map_check(f, x, y).counterexample == ("a", "a.a", 1)
    assert not is_open(f, x, len(x.space) + 1)


def test_open_map_check_rejects_a_map_that_misses_a_cube():
    # Both checks raise ModelError, and with one text, for a mapping that
    # leaves a source cube out or sends one outside the target.
    x, y, mapping = _self_linked_map()
    for bad, message in (
            ({"()": "()"}, "morphism is not total: 'a' unmapped"),
            ({**mapping, "a.b": "b.b"}, "morphism maps 'a.b' to unknown cube 'b.b'")):
        f = hb.PrecubicalMorphism(x.space, y.space, bad)
        for check in (hb.check_morphism,
                      lambda f: hb.open_map_check(f, x, y)):
            with pytest.raises(hb.ModelError, match=f"^{re.escape(message)}$"):
                check(f)


def test_bisimilar_figures(fig1_left, fig1_right, fig5_x, fig5_y):
    assert hb.bisimilar(fig1_left.hda, fig1_right.hda).result is False
    assert hb.bisimilar(fig5_x.hda, fig5_y.hda).result is True


def test_bisimilar_reflexive_with_diagonal_witness(fig3):
    decision = hb.bisimilar(fig3.hda, fig3.hda)
    assert decision.result is True
    diagonal = {(c, c) for c in fig3.hda.space.ids()}
    assert diagonal <= set(decision.witness)
    assert hb.verify_bisim_relation(fig3.hda, fig3.hda, decision.witness) == []


def test_a_positive_decision_walks_each_model_once(monkeypatch):
    # The decision and the audit of its witness read one reachability walk
    # per model (fresh models: the session fixtures may have walked).
    walks, walk = [], core.reachable_mask

    def counted(hda):
        walks.append(hda)
        return walk(hda)

    # Counted also if the decision imports the walk by name.
    monkeypatch.setattr(core, "reachable_mask", counted)
    monkeypatch.setattr(bisim, "reachable_mask", counted, raising=False)
    x, y = load("fig5_x.json").hda, load("fig5_y.json").hda
    assert hb.bisimilar(x, y).result is True
    assert sorted(map(id, walks)) == sorted((id(x), id(y)))


def test_witness_passes_independent_audit(fig5_x, fig5_y):
    decision = hb.bisimilar(fig5_x.hda, fig5_y.hda)
    assert decision.result is True
    assert hb.verify_bisim_relation(fig5_x.hda, fig5_y.hda, decision.witness) == []


def test_labeled_bisim(ab_square, ac_square, fig1_left, fig1_right):
    same = hb.labeled_bisimilar(ab_square.hda, ab_square.labeling,
                                ab_square.hda, ab_square.labeling)
    assert same.result is True
    different = hb.labeled_bisimilar(ab_square.hda, ab_square.labeling,
                                     ac_square.hda, ac_square.labeling)
    assert different.result is False
    figures = hb.labeled_bisimilar(fig1_left.hda, fig1_left.labeling,
                                   fig1_right.hda, fig1_right.labeling)
    assert figures.result is False


def test_history_separates_the_absorption_pair():
    """X = a‖(b+c) + a‖b + (a+c)‖b and Y = a‖(b+c) + (a+c)‖b (van Glabbeek
    & Goltz 2001): each summand is a product of two forks, glued at the
    initial vertex, and Y is X without its a‖b summand (the cubes "q...").
    Unlabeled, the two are bisimilar.  Labeled, what can follow each first
    step of a‖b is matched in Y (a started as in (a+c)‖b, b started as in
    a‖(b+c)), but the square of a‖b has both of those edges as lower faces,
    and no square of Y has.  Only the lower faces, which record the history,
    tell X from Y, so this verdict needs them."""
    x, y = load("absorption_x.json"), load("absorption_y.json")
    assert (len(x.hda.space), len(y.hda.space)) == (37, 29)
    assert set(y.hda.space.ids()) == {
        c for c in x.hda.space.ids() if not c.startswith("q")}
    for m in (x, y):
        assert hb.validate_model(m.hda, m.labeling).ok
        assert hb.longest_pointed_path_length(m.hda) == 5
        assert hb.is_tree(m.hda, 5)
    labeled = hb.labeled_bisimilar(x.hda, x.labeling, y.hda, y.labeling)
    assert (labeled.result, labeled.iterations) == (False, 6)
    assert hb.bisimilar(x.hda, y.hda).result is True
    oracle = hb.hp_oracle(x.hda, y.hda, 5, x.labeling, y.labeling)
    assert oracle.result is False and oracle.notes["exact"] is True


def test_labeled_bisim_rejects_mismatched_alphabets(fig1_left, ab_square):
    with pytest.raises(hb.ModelError, match="alphabet"):
        hb.labeled_bisimilar(fig1_left.hda, fig1_left.labeling,
                             ab_square.hda, ab_square.labeling)


def test_hp_alias(fig1_left, fig1_right, fig5_x, fig5_y, ab_square, ac_square):
    assert hb.hp_bisimilar(fig1_left.hda, fig1_right.hda).result is False
    assert hb.hp_bisimilar(fig5_x.hda, fig5_y.hda).result is True
    both = hb.hp_bisimilar(ab_square.hda, ac_square.hda,
                           ab_square.labeling, ac_square.labeling)
    assert both.result is False
    assert "hp-bisimilarity" in both.justification


def test_bisim_symmetric_random():
    rng = random.Random(303)
    for trial in range(10):
        x = random_hda(rng, max_cubes=14, max_dim=2, cyclic=bool(trial % 2))
        y = random_hda(rng, max_cubes=14, max_dim=2, cyclic=bool(trial % 3 == 0))
        assert hb.bisimilar(x, y).result == hb.bisimilar(y, x).result


def test_bisim_invariant_under_renaming(fig1_left, fig5_y):
    def renamed(hda):
        mapping = {c: f"n_{c}" for c in hda.space.ids()}
        rows = {mapping[c]: (dim, tuple(map(mapping.get, lower)),
                             tuple(map(mapping.get, upper)))
                for c, (dim, lower, upper) in hda.space.rows().items()}
        return hb.HDA(PrecubicalSet(rows), mapping[hda.initial])

    for hda, other in ((fig1_left.hda, fig5_y.hda), (fig5_y.hda, fig1_left.hda)):
        expected = hb.bisimilar(hda, other).result
        assert hb.bisimilar(renamed(hda), other).result == expected


def test_unreachable_parts_do_not_change_the_answer():
    rng = random.Random(404)
    for _ in range(8):
        x = random_hda(rng, max_cubes=22, max_dim=2, stray=True)
        y = random_hda(rng, max_cubes=22, max_dim=2, stray=True)
        full = hb.bisimilar(x, y).result
        trimmed = hb.bisimilar(sub_hda(x, set(hb.reachable(x))),
                               sub_hda(y, set(hb.reachable(y)))).result
        assert full == trimmed


def test_every_hda_is_bisimilar_to_its_unfolding(fig3, fig1_left):
    for loaded in (fig3, fig1_left):
        depth = hb.longest_pointed_path_length(loaded.hda)
        unfolding = hb.unfold(loaded.hda, depth)
        assert hb.bisimilar(loaded.hda, unfolding.tree).result is True


def test_span_of_open_maps_implies_bisimilarity(fig1_left):
    # The unfolding projection and the identity on the tree form a span
    # from the tree onto both sides.
    depth = hb.longest_pointed_path_length(fig1_left.hda)
    unfolding = hb.unfold(fig1_left.hda, depth)
    tree = unfolding.tree
    left = unfolding.projection
    right = identity_morphism(tree)
    assert hb.open_map_check(left, tree, fig1_left.hda).ok
    assert hb.open_map_check(right, tree, tree).ok
    assert hb.bisimilar(fig1_left.hda, tree).result is True


def test_oracle_fig1_definite_false(fig1_left, fig1_right):
    decision = hb.hp_oracle(fig1_left.hda, fig1_right.hda, 4)
    assert decision.result is False
    assert decision.definite


def test_oracle_acyclic_reflexive(fig3):
    depth = hb.longest_pointed_path_length(fig3.hda)
    decision = hb.hp_oracle(fig3.hda, fig3.hda, depth)
    assert decision.result is True
    assert decision.definite


def test_oracle_cyclic_inconclusive_positive(fig5_x, fig5_y):
    decision = hb.hp_oracle(fig5_x.hda, fig5_y.hda, 6)
    assert decision.result == "inconclusive"
    assert not decision.definite
    assert decision.witness  # no violation found within the bound


def test_oracle_agrees_with_fixed_point_random():
    rng = random.Random(505)
    for _ in range(15):
        x = random_hda(rng, max_cubes=18, max_dim=2)
        y = random_hda(rng, max_cubes=18, max_dim=2)
        depth = max(hb.longest_pointed_path_length(x),
                    hb.longest_pointed_path_length(y))
        oracle = hb.hp_oracle(x, y, depth)
        assert oracle.definite
        assert oracle.result == hb.bisimilar(x, y).result


def test_oracle_labeled(ab_square, ac_square):
    decision = hb.hp_oracle(ab_square.hda, ac_square.hda, 5,
                            ab_square.labeling, ac_square.labeling)
    assert decision.result is False
    assert decision.definite


def test_decision_json_shape(fig1_left, fig1_right):
    report = hb.bisimilar(fig1_left.hda, fig1_right.hda).to_json()
    assert report["result"] is False
    assert report["witness"] is None
    assert "justification" in report and "counterexample" in report
    report = hb.bisimilar(fig1_left.hda, fig1_left.hda).to_json()
    assert report["result"] is True
    assert ["i", "i"] in report["witness"]


def test_oracle_definite_false_on_cyclic_input(fig5_x):
    # A dead-end target: the two-cycle can always continue, the single edge
    # cannot, and the violation shows up within the bound even though the
    # left side is cyclic, so the verdict is definite.
    dead = hb.HDA(PrecubicalSet({
        "p": (0, (), ()), "q": (0, (), ()), "e": (1, ("p",), ("q",)),
    }), "p")
    decision = hb.hp_oracle(fig5_x.hda, dead, 5)
    assert decision.result is False
    assert decision.definite


def test_fixed_point_iteration_count_is_deterministic(fig1_left, fig1_right):
    first = hb.bisimilar(fig1_left.hda, fig1_right.hda)
    second = hb.bisimilar(fig1_left.hda, fig1_right.hda)
    assert first.iterations == second.iterations
    assert first.to_json() == second.to_json()


def test_span_with_renamed_tree(fig3):
    # Z -> X by projection and Z -> Y by an isomorphism onto a renamed copy
    # of Z: both legs are open, so X and Y must be bisimilar.
    depth = hb.longest_pointed_path_length(fig3.hda)
    tree = hb.unfold(fig3.hda, depth).tree
    mapping = {c: f"copy_{j}" for j, c in enumerate(tree.space.ids())}
    copy_rows = {mapping[c]: (dim, tuple(map(mapping.get, lower)),
                              tuple(map(mapping.get, upper)))
                 for c, (dim, lower, upper) in tree.space.rows().items()}
    copy = hb.HDA(PrecubicalSet(copy_rows), mapping[tree.initial])
    leg = hb.PrecubicalMorphism(tree.space, copy.space, mapping, pointed=True,
                                source_initial=tree.initial,
                                target_initial=copy.initial)
    assert hb.check_morphism(leg)
    assert hb.open_map_check(leg, tree, copy).ok
    assert hb.bisimilar(fig3.hda, copy).result is True


def test_labeled_oracle_agrees_with_labeled_fixed_point():
    from hdabisim.generators import grid_labeling

    events = hb.EventSet(("ea", "eb", "ec"))
    rng = random.Random(606)
    for _ in range(12):
        x = random_hda(rng, max_cubes=16, max_dim=3)
        y = random_hda(rng, max_cubes=16, max_dim=3)
        lx, ly = grid_labeling(x, events), grid_labeling(y, events)
        assert hb.validate_labeling(x, lx).ok and hb.validate_labeling(y, ly).ok
        depth = max(hb.longest_pointed_path_length(x),
                    hb.longest_pointed_path_length(y))
        fixed = hb.labeled_bisimilar(x, lx, y, ly)
        oracle = hb.hp_oracle(x, y, depth, lx, ly)
        assert oracle.definite
        assert fixed.result == oracle.result


def test_oracle_rejects_half_labeled_calls(fig1_left, fig1_right):
    with pytest.raises(hb.ModelError):
        hb.hp_oracle(fig1_left.hda, fig1_right.hda, 4, fig1_left.labeling, None)


def test_oracle_sound_on_cyclic_inputs():
    # At any bound: a deleted initial pair is final, and true bisimilarity
    # never shows up as a definite refusal.
    rng = random.Random(707)
    for trial in range(12):
        x = random_hda(rng, max_cubes=12, max_dim=2, cyclic=True)
        y = random_hda(rng, max_cubes=12, max_dim=2,
                       cyclic=bool(trial % 2))
        truth = hb.bisimilar(x, y).result
        oracle = hb.hp_oracle(x, y, 6)
        if oracle.result is False:
            assert truth is False
        if truth is True:
            assert oracle.result in (True, "inconclusive")
        assert hb.bisimilar(x, x).result is True


def test_oracle_cap_propagates(fig1_left):
    with pytest.raises(hb.CapExceeded):
        hb.hp_oracle(fig1_left.hda, fig1_left.hda, 5, cap=1)


def test_labeled_witness_audit(ab_square):
    decision = hb.labeled_bisimilar(ab_square.hda, ab_square.labeling,
                                    ab_square.hda, ab_square.labeling)
    assert decision.result is True
    audit = hb.verify_bisim_relation(ab_square.hda, ab_square.hda,
                                     decision.witness,
                                     ab_square.labeling, ab_square.labeling)
    assert audit == []


def _torus_labeling(hda, events):
    """Label a sub-HDA of an event torus by its cube ids ("a.b" -> (1, 2))."""
    index = {name: i for i, name in enumerate(events.names, start=1)}
    return hb.Labeling(events, {
        c: () if c == "()" else tuple(index[e] for e in c.split("."))
        for c in hda.space.ids()})


def _pairs(xs, ys, same_label=None):
    """Every equal-dimension cube pair of the two sets; with `same_label`,
    only the pairs it accepts."""
    return [(a, b) for a in xs.ids() for b in ys.ids()
            if xs.dim(a) == ys.dim(b)
            and (same_label is None or same_label(a, b))]


def _reference(x, y, lx=None, ly=None):
    """The pairwise engine the partition refinement replaced: the greatest
    face-closed relation on all equal-dimension (equal-label) pairs, with
    zig-zag obligations on reachable pairs."""
    from hdabisim.bisim import _greatest_relation

    universe = _pairs(x.space, y.space, None if lx is None else (
        lambda a, b: lx.assign.get(a) == ly.assign.get(b)))
    reach_x, reach_y = hb.reachable(x), hb.reachable(y)
    alive, _deletions = _greatest_relation(
        x.space, y.space, universe,
        lambda a, b: a in reach_x and b in reach_y)
    return alive, reach_x, reach_y


def _local_against_global(x, y, depth, lx=None, ly=None):
    """`hp_oracle` on the pairs reached from the initial pair against the
    same fixed point on every equal-dimension (equal-label) pair of the two
    unfoldings: equal results, the local survivors are the global ones
    among the reached pairs, and the deletion count is what the reached
    pairs lost.  Returns the result, or "refused" when a truncated base
    cannot be unfolded."""
    from hdabisim.bisim import _greatest_relation, _reached_pairs
    from hdabisim.paths import DEFAULT_CAP

    try:
        ux, uy = hb.unfold(x, depth), hb.unfold(y, depth)
    except hb.ModelError:
        # `unfold` refuses some truncated bases, and the oracle with it.
        assert x.space.frontier or y.space.frontier
        with pytest.raises(hb.ModelError):
            hb.hp_oracle(x, y, depth, lx, ly)
        return "refused"
    decision = hb.hp_oracle(x, y, depth, lx, ly)
    xs, ys = ux.tree.space, uy.tree.space
    root = (ux.tree.initial, uy.tree.initial)

    def zig_obliged(a, b):
        return a not in ux.frontier and b not in uy.frontier

    same_label = None if lx is None else (
        lambda a, b: lx.assign.get(ux.project(a)) == ly.assign.get(uy.project(b)))
    everywhere, _deleted = _greatest_relation(
        xs, ys, _pairs(xs, ys, same_label), zig_obliged)
    reached = _reached_pairs(xs, ys, root, DEFAULT_CAP, zig_obliged, same_label)
    local, _deleted = _greatest_relation(xs, ys, reached, zig_obliged)
    expected = (False if root not in everywhere
                else True if ux.complete and uy.complete else "inconclusive")
    assert decision.result == expected
    assert local == everywhere.intersection(reached)
    assert decision.iterations == len(reached) - len(local)
    assert decision.witness == (None if expected is False else sorted(local))
    return decision.result


def test_local_oracle_agrees_with_the_global_fixed_point():
    from hdabisim.generators import grid_labeling

    verdicts = Counter()
    for x, lx, y, ly, depth in criterion_5_corpus():
        verdicts[_local_against_global(x, y, depth, lx, ly)] += 1
    rng = random.Random(0x10CA1)
    events = hb.EventSet(("a", "b", "c"))

    def draw(cyclic):
        hda = random_hda(rng, max_cubes=12, max_dim=2, cyclic=cyclic)
        return hda, (_torus_labeling if cyclic else grid_labeling)(hda, events)

    cut_decided = 0
    for trial in range(720):
        # A third of the models cyclic, one pair in four a model against
        # itself, one in six labeled, one in five validly truncated.
        x, lx = draw(trial % 3 == 0)
        y, ly = (x, lx) if trial % 4 == 0 else draw(rng.random() < 1 / 3)
        if trial % 6 != 5:
            lx = ly = None
        if trial % 5 == 4:
            x, y = truncated(rng, x), truncated(rng, y)
        depth = (2, 4, 6)[trial // 3 % 3]
        result = _local_against_global(x, y, depth, lx, ly)
        verdicts[result] += 1
        cut_decided += trial % 5 == 4 and result != "refused"
    assert verdicts["inconclusive"] >= 50 and verdicts[False] >= 50, verdicts
    assert verdicts[True] >= 20, verdicts
    assert cut_decided >= 100, cut_decided


def _bisimilar_copy(hda, labeling):
    """A differently built model bisimilar to `hda`: its full unfolding when
    acyclic, else its reachable part."""
    if hb.is_acyclic(hda):
        unfolding = hb.unfold(hda, hb.longest_pointed_path_length(hda))
        copy = unfolding.tree
        assign = {c: labeling.assign[unfolding.project(c)]
                  for c in copy.space.ids()}
    else:
        copy = sub_hda(hda, set(hb.reachable(hda)))
        assign = {c: labeling.assign[c] for c in copy.space.ids()}
    return copy, hb.Labeling(labeling.events, assign)


@functools.cache
def _differential_pairs():
    """2,000 seeded (x, lx, y, ly) pairs, drawn from a pool of 400 models
    (building the models, not deciding them, is what costs time here);
    every odd pair is labeled, every even one has lx = ly = None."""
    from hdabisim.generators import grid_labeling

    events = hb.EventSet(("a", "b", "c"))
    rng = random.Random(0xD1FF)
    pool = []
    for _ in range(400):
        cyclic = rng.random() < 0.3
        hda = random_hda(rng, max_cubes=16, max_dim=3, cyclic=cyclic,
                         stray=rng.random() < 0.3)
        label = _torus_labeling if cyclic else grid_labeling
        pool.append((hda, label(hda, events)))
    pairs = []
    for trial in range(2000):
        (x, lx), (y, ly) = rng.choice(pool), rng.choice(pool)
        if trial % 5 == 0:
            y, ly = x, lx  # x against itself
        elif trial % 5 == 1:
            y, ly = _bisimilar_copy(x, lx)
        if trial % 2 == 0:
            lx = ly = None
        pairs.append((x, lx, y, ly))
    return pairs


def test_partition_refinement_agrees_with_pairwise_reference():
    positives = 0
    for trial, (x, lx, y, ly) in enumerate(_differential_pairs()):
        if lx is None:
            decision = hb.bisimilar(x, y)
        else:
            decision = hb.labeled_bisimilar(x, lx, y, ly)
        alive, reach_x, reach_y = _reference(x, y, lx, ly)
        expected = (x.initial, y.initial) in alive
        assert decision.result is expected, trial
        if expected:
            positives += trial % 5 != 0
            assert set(decision.witness) == {
                (a, b) for a, b in alive if a in reach_x and b in reach_y}, trial
    assert positives >= 400, positives  # besides the 400 self-comparisons


def _naive_refine(x, y, lx=None, ly=None, seed=None):
    """Naive refinement, the reference for the incremental `_refine`: initial
    blocks by (dim, label), or by `seed[(side, cube)]` when a seed is given,
    then every round re-signs every reachable cube by (block, face blocks,
    set of (k, block) over the lower cofaces) until a round splits nothing.
    Returns cube -> block for each side and the number of rounds."""
    index, faces, cofaces, block, initial = [], [], [], [], {}
    for side, (hda, labeling) in enumerate(((x, lx), (y, ly))):
        space, reach = hda.space, hb.reachable(hda)
        local = {c: len(faces) + j
                 for j, c in enumerate(c for c in space.ids() if c in reach)}
        index.append(local)
        for c in local:
            dim, lower, upper = space.row(c)
            faces.append(tuple(local[f] for f in lower + upper))
            cofaces.append(tuple((k, local[p])
                                 for k, p in space.cofaces_lower(c)))
            if seed is not None:
                key = seed[side, c]
            else:
                key = (dim,
                       None if labeling is None else labeling.assign.get(c))
            block.append(initial.setdefault(key, len(initial)))
    count, rounds = len(initial), 0
    while True:
        rounds += 1
        signatures = {}
        block = [signatures.setdefault(
                     (block[i], tuple(block[f] for f in faces[i]),
                      frozenset((k, block[p]) for k, p in cofaces[i])),
                     len(signatures))
                 for i in range(len(block))]
        if len(signatures) == count:
            break
        count = len(signatures)
    return ({c: block[i] for c, i in index[0].items()},
            {c: block[i] for c, i in index[1].items()}, rounds)


def _forward_reference(x, y, lx=None, ly=None):
    """The forward classes of `bisim._forward_classes` by another route, as
    (side, cube) -> key.  A forward step goes to a lower coface or to an
    upper face that truncation did not omit; the sets are valid, since
    reachability refuses any other.  A search from each cube finds those
    that can reach a forward cycle, keyed by dimension and label alone; the
    others are split by naive forward-only refinement (upper-face blocks and
    the set of (k, block) over the lower cofaces) from blocks of equal
    dimension and label, run to a fixed point."""
    kind, ups, cofs = {}, {}, {}
    for side, (hda, labeling) in enumerate(((x, lx), (y, ly))):
        space = hda.space
        for c in hb.reachable(hda):
            dim, _lower, upper = space.row(c)
            node = (side, c)
            kind[node] = (dim,
                          None if labeling is None else labeling.assign.get(c))
            ups[node] = [(side, f) for f in upper if f is not None]
            cofs[node] = [(k, (side, p)) for k, p in space.cofaces_lower(c)]
    steps = {n: ups[n] + [p for _k, p in cofs[n]] for n in kind}

    def later(start):
        """The cubes one or more forward steps from `start`."""
        seen, stack = set(), list(steps[start])
        while stack:
            n = stack.pop()
            if n not in seen:
                seen.add(n)
                stack.extend(steps[n])
        return seen

    after = {n: later(n) for n in kind}
    on_cycle = {n for n in kind if n in after[n]}
    acyclic = [n for n in kind if n not in on_cycle and not after[n] & on_cycle]
    numbers = {}
    block = {n: numbers.setdefault(kind[n], len(numbers)) for n in acyclic}
    while True:
        count, numbers = len(numbers), {}
        block = {n: numbers.setdefault(
                     (block[n], tuple(block[f] for f in ups[n]),
                      frozenset((k, block[p]) for k, p in cofs[n])), len(numbers))
                 for n in acyclic}
        if len(numbers) == count:
            break
    keys = {n: ("cycle",) + kind[n] for n in kind}
    keys.update((n, ("acyclic", block[n])) for n in acyclic)
    return keys


def _partition(keys):
    """The partition of a (side, cube) -> key map, as a set of blocks."""
    members = {}
    for node, key in keys.items():
        members.setdefault(key, set()).add(node)
    return {frozenset(block) for block in members.values()}


def _blocks(blocks_x, blocks_y):
    """A partition as a set of blocks, each a set of (side, cube)."""
    return _partition({(side, c): b
                       for side, blocks in enumerate((blocks_x, blocks_y))
                       for c, b in blocks.items()})


@functools.cache
def _grid_pairs():
    """Pairs shaped like the benchmark's decide requests: labeled grids
    against themselves, transposed grids with and without labels, and
    grids against copies with one top cube removed."""
    from hdabisim.generators import grid_hda, grid_labeling

    events = hb.EventSet(("a", "b", "c"))

    def labeled(sizes):
        hda = grid_hda(sizes)
        return hda, grid_labeling(hda, events)

    def holed(sizes, top):
        hda = grid_hda(sizes)
        return sub_hda(hda, set(hda.space.ids()) - {top})

    pairs = []
    for sizes in ((5, 5), (7, 7)):
        x, lx = labeled(sizes)
        pairs.append((x, lx, x, lx))
    for a, b in ((3, 4), (4, 5)):
        (x, lx), (y, ly) = labeled((a, b)), labeled((b, a))
        pairs += [(x, None, y, None), (x, lx, y, ly)]
    pairs += [(grid_hda((5, 5)), None, holed((5, 5), "g2s_1s"), None),
              (grid_hda((2, 2, 2)), None, holed((2, 2, 2), "g0s_1s_0s"), None)]
    return pairs


def _long_cycle(n=240):
    """A cycle of n vertices with one pendant edge to a dead end.  Every
    cube but the two of the pendant can reach a forward cycle, so the
    forward seed does not split them, and refinement needs a round or more
    per vertex."""
    rows = {f"v{i:03}": (0, (), ()) for i in range(n)}
    rows.update({f"e{i:03}": (1, (f"v{i:03}",), (f"v{(i + 1) % n:03}",))
                 for i in range(n)})
    rows.update({"w": (0, (), ()), "p": (1, ("v000",), ("w",))})
    return hb.HDA(PrecubicalSet(rows), "v000")


def _named(sides, blocks):
    """Per-side block lists of `bisim._refine` or `bisim._seed`, indexed by
    int view index, as one cube -> block dict per side over the reachable
    cubes."""
    return tuple({c: b for c, b in zip(hda.space.indexed.ids, blk) if b is not None}
                 for (hda, _labeling), blk in zip(sides, blocks))


def test_forward_seed_agrees_with_reference():
    from hdabisim.bisim import _seed

    cycle_cubes = 0
    for trial, (x, lx, y, ly) in enumerate(_differential_pairs() + _grid_pairs()):
        sides = ((x, lx), (y, ly))
        seed = _named(sides, _seed(sides).blocks)
        reference = _forward_reference(x, y, lx, ly)
        cycle_cubes += sum(key[0] == "cycle" for key in reference.values())
        # Equal on the acyclic cubes, and the cubes that can reach a cycle
        # are grouped by dimension and label alone.
        seed_blocks = _blocks(*seed)
        assert seed_blocks == _partition(reference), trial
        # The coarsest stable partition from blocks of equal dimension and
        # label refines the seed, so seeding cannot change it.
        *final, _rounds = _naive_refine(x, y, lx, ly)
        assert all(any(block <= part for part in seed_blocks)
                   for block in _blocks(*final)), trial
    assert cycle_cubes


def _forward_models():
    """Every model of the differential and grid pairs once, the long cycle,
    and 200 truncations: unfoldings cut at depths 2-6, and models with some
    upper faces omitted (`truncated`)."""
    models = {}
    for x, _lx, y, _ly in _differential_pairs() + _grid_pairs():
        models.setdefault(id(x), x)
        models.setdefault(id(y), y)
    models = list(models.values())
    rng = random.Random(0xF0D)
    cut = [hb.unfold(hda, rng.randint(2, 6)).tree
           for hda in rng.sample(models, 100)]
    cut += [truncated(rng, hda) for hda in rng.sample(models, 100)]
    return models + [_long_cycle()] + cut


def test_forward_order_releases_exactly_the_cubes_that_reach_no_cycle():
    """Each released cube comes after every cube one forward step on; the
    reachable cubes left out are those `_forward_reference` keys as able to
    reach a cycle; and on an acyclic model of at most 100 cubes the longest
    pointed path counted along the order is the longest one enumerated."""
    cyclic = enumerated = 0
    for trial, hda in enumerate(_forward_models()):
        view, mask = hda.space.indexed, hda.reach_mask
        order = core.forward_order(hda)
        at = {j: n for n, j in enumerate(order)}
        assert len(at) == len(order), trial
        for j in order:
            steps = ([p for _k, p in view.cofaces[j]]
                     + [u for u in view.upper[j] if u >= 0])
            assert all(at.get(s, len(order)) < at[j] for s in steps), trial
        left_out = {view.ids[i] for i in range(len(mask))
                    if mask[i] and i not in at}
        cycle = {c for (side, c), key in _forward_reference(hda, hda).items()
                 if side == 0 and key[0] == "cycle"}
        assert left_out == cycle, trial
        cyclic += bool(cycle)
        if not cycle and len(view.ids) <= 100:
            enumerated += 1
            longest = max(len(rho) for rho in
                          hb.enumerate_pointed_paths(hda, len(view.ids) + 1))
            assert hb.longest_pointed_path_length(hda) == longest, trial
    assert cyclic >= 100 and enumerated >= 500, (cyclic, enumerated)


def test_incremental_refinement_agrees_with_naive_refinement():
    """Equal partitions with naive refinement from blocks of equal dimension
    and label, and equal rounds with naive refinement from the reference
    forward seed."""
    from hdabisim.bisim import _refine, _seed
    from hdabisim.generators import grid_labeling

    pairs = list(_differential_pairs()) + _grid_pairs()
    # Deep models: these seeds draw one-dimensional grids, so each model is
    # a chain of some 240 cubes.  The forward seed already splits a chain
    # completely; the long cycle keeps many rounds of incremental splitting.
    events = hb.EventSet(("a", "b", "c"))
    deep = [random_hda(random.Random(seed), max_cubes=250, max_dim=3,
                       min_cubes=225) for seed in (1, 2, 3)]
    cycle = _long_cycle()
    pairs += [(deep[0], None, deep[0], None), (deep[1], None, deep[2], None),
              (deep[2], grid_labeling(deep[2], events),
               deep[0], grid_labeling(deep[0], events)),
              (cycle, None, cycle, None)]
    deep_rounds = []
    for trial, (x, lx, y, ly) in enumerate(pairs):
        sides = ((x, lx), (y, ly))
        blocks, fast_rounds = _refine(_seed(sides))
        *naive, _naive_rounds = _naive_refine(x, y, lx, ly)
        *seeded, seeded_rounds = _naive_refine(
            x, y, lx, ly, _forward_reference(x, y, lx, ly))
        assert fast_rounds == seeded_rounds, trial
        assert (_blocks(*_named(sides, blocks)) == _blocks(*naive)
                == _blocks(*seeded)), trial
        if trial >= len(pairs) - 4:
            deep_rounds.append(fast_rounds)
    assert deep_rounds[:3] == [1, 1, 1] and deep_rounds[3] >= 200, deep_rounds


def _initials_together(sides, blocks):
    """Whether the initial cubes of both sides share a block."""
    return len({blk[hda.space.indexed.pos[hda.initial]]
                for (hda, _labeling), blk in zip(sides, blocks)}) == 1


def test_a_verdict_stopped_at_the_seed_equals_the_full_verdict():
    """The seed is coarser than the stable partition, so when it already
    separates the initial cubes, so does the full refinement; otherwise the
    decision reports the full refinement's verdict and rounds."""
    from hdabisim.bisim import _refine, _seed

    stopped = 0
    for trial, (x, lx, y, ly) in enumerate(_differential_pairs() + _grid_pairs()):
        sides = ((x, lx), (y, ly))
        seed = _seed(sides)
        apart = not _initials_together(sides, seed.blocks)
        full, full_rounds = _refine(seed)
        together = _initials_together(sides, full)
        decision = (hb.bisimilar(x, y) if lx is None
                    else hb.labeled_bisimilar(x, lx, y, ly))
        if apart:
            stopped += 1
            assert not together, trial
            assert (decision.result, decision.iterations) == (False, 0), trial
        else:
            assert (decision.result, decision.iterations) == (
                together, full_rounds), trial
    assert stopped >= 1000, stopped


def test_one_sided_refinement_is_half_of_refining_against_itself():
    from hdabisim.bisim import _refine, _seed

    models = {}
    for x, lx, y, ly in _differential_pairs()[:400] + _grid_pairs():
        models.setdefault((id(x), id(lx)), (x, lx))
        models.setdefault((id(y), id(ly)), (y, ly))
    cycle = _long_cycle()
    models[id(cycle)] = (cycle, None)
    for trial, side in enumerate(models.values()):
        alone, alone_rounds = _refine(_seed((side,)))
        both, both_rounds = _refine(_seed((side, side)))
        assert len(alone) == 1
        assert (_partition(_named((side,), alone)[0]), alone_rounds) == (
            _partition(_named((side, side), both)[0]), both_rounds), trial


def _verify_bisim_relation_ref(x_hda, y_hda, pairs, lx=None, ly=None):
    """The witness audit as first written, through `dim`, `face` and
    `cofaces_lower_at`: the reference for `verify_bisim_relation`."""
    xs, ys = x_hda.space, y_hda.space
    rel = set(pairs)
    problems = []
    if (x_hda.initial, y_hda.initial) not in rel:
        problems.append("initial pair missing")
    reach_x, reach_y = hb.reachable(x_hda), hb.reachable(y_hda)
    for x, y in sorted(rel):
        if xs.dim(x) != ys.dim(y):
            problems.append(f"dimension mismatch in pair ({x}, {y})")
            continue
        if lx is not None and lx.assign.get(x) != ly.assign.get(y):
            problems.append(f"label mismatch in pair ({x}, {y})")
        for nu in (0, 1):
            for k in range(1, xs.dim(x) + 1):
                fx, fy = xs.face(x, k, nu), ys.face(y, k, nu)
                if fx is None or fy is None:
                    continue
                if (fx, fy) not in rel:
                    problems.append(
                        f"pair ({x}, {y}) not face-closed at k={k} nu={nu}")
        if x in reach_x and y in reach_y:
            for k, x2 in xs.cofaces_lower(x):
                if not any((x2, y2) in rel for y2 in ys.cofaces_lower_at(y, k)):
                    problems.append(
                        f"pair ({x}, {y}) has no match for {x2} at k={k}")
            for k, y2 in ys.cofaces_lower(y):
                if not any((x2, y2) in rel for x2 in xs.cofaces_lower_at(x, k)):
                    problems.append(
                        f"pair ({x}, {y}) has no match for {y2} at k={k}")
    return problems


def _with_extra_faces(hda, pick):
    """`hda` with every cube of dimension >= 1 given one face more than its
    dimension on each side, namely `pick(row)`: an arity fault."""
    rows = {c: (dim, lower + (pick(row),), upper + (pick(row),)) if dim else row
            for c, row in hda.space.rows().items()
            for dim, lower, upper in [row]}
    return hb.HDA(PrecubicalSet(rows, hda.space.frontier), hda.initial)


def _renamed_at_random(rng, hda, labeling):
    """A copy of a labeled model with its cubes renamed at random, so that
    its id order is another one, as in the benchmark's renamed copies."""
    names = [f"r{n}" for n in range(len(hda.space))]
    rng.shuffle(names)
    new = dict(zip(hda.space.ids(), names))
    rows = {new[c]: (dim, tuple(map(new.get, lower)), tuple(map(new.get, upper)))
            for c, (dim, lower, upper) in hda.space.rows().items()}
    return (hb.HDA(PrecubicalSet(rows), new[hda.initial]),
            hb.Labeling(labeling.events, {new[c]: tup for c, tup
                                          in labeling.assign.items()}))


def _audit_inputs():
    """(x, lx, y, ly, witness) inputs for the audit: decided pairs, among
    them labeled 7x7 grids against renamed copies (the benchmark's slowest
    decision), truncated trees and truncated models against themselves, and
    models with arity faults whose surplus faces differ, each with the
    diagonal or the decided witness."""
    from hdabisim.generators import grid_hda, grid_labeling

    rng = random.Random(0xA0D2)
    grid = grid_hda((7, 7))
    grid_labels = grid_labeling(grid, hb.EventSet(("a", "b")))
    for _ in range(3):
        copy, copy_labels = _renamed_at_random(rng, grid, grid_labels)
        decision = hb.labeled_bisimilar(grid, grid_labels, copy, copy_labels)
        assert decision.result is True
        yield grid, grid_labels, copy, copy_labels, decision.witness
    pairs = _differential_pairs()[:600]
    for x, lx, y, ly in pairs:
        decision = (hb.bisimilar(x, y) if lx is None
                    else hb.labeled_bisimilar(x, lx, y, ly))
        yield x, lx, y, ly, decision.witness or []
    for x, _lx, _y, _ly in pairs[:60]:
        for cut in (hb.unfold(x, 3).tree, truncated(rng, x)):
            yield cut, None, cut, None, [(c, c) for c in cut.space.ids()]
        lower = _with_extra_faces(x, lambda row: row[1][0])
        upper = _with_extra_faces(x, lambda row: row[2][0])
        yield lower, None, upper, None, [(c, c) for c in x.space.ids()]


def test_witness_audit_agrees_with_reference_on_corrupted_witnesses():
    rng = random.Random(0xA0D1)
    kinds = set()
    refused = 0
    for trial, (x, lx, y, ly, witness) in enumerate(_audit_inputs()):
        witness = list(witness)
        # Drop pairs, and add pairs of any two cubes, so that every kind of
        # problem shows up somewhere.
        for _ in range(rng.randint(0, 3)):
            if witness and rng.random() < 0.5:
                witness.pop(rng.randrange(len(witness)))
            else:
                witness.append((rng.choice(x.space.ids()), rng.choice(y.space.ids())))
        if not hb.validate_precubical(x.space).ok:
            # Both audits walk the reachable part of x first, which
            # refuses a set that fails validation.
            for audit in (hb.verify_bisim_relation, _verify_bisim_relation_ref):
                with pytest.raises(hb.ModelError) as caught:
                    audit(x, y, witness, lx, ly)
                assert str(caught.value) == refusal(x.space), trial
            refused += 1
            continue
        got = hb.verify_bisim_relation(x, y, witness, lx, ly)
        assert got == _verify_bisim_relation_ref(x, y, witness, lx, ly), trial
        kinds.update(next(kind for kind in _AUDIT_PROBLEMS if kind in p)
                     for p in got)
    assert kinds == set(_AUDIT_PROBLEMS)
    assert refused == 60, refused


_AUDIT_PROBLEMS = ("initial pair missing", "dimension mismatch",
                   "label mismatch", "not face-closed", "has no match")
