"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines.
"""

import contextlib
import itertools
import random
import time
from collections import Counter

import hdabisim as hb
from hdabisim import EventSet
from hdabisim.generators import grid_labeling, random_hda, random_pointed_path

from conftest import (square_homotopy_chain, load, model_dict,
                      torus_closed_form_map)


@contextlib.contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({title}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({title}): PASS")


def test_criterion_1_face_identity_suite():
    with criterion(1, "face-identity validation suite"):
        for name in ("fig1_left.json", "fig1_right.json", "fig2_square.json",
                     "fig3.json", "fig5_x.json", "fig5_y.json"):
            loaded = load(name)
            assert hb.validate_model(loaded.hda, loaded.labeling).ok, name

        # Four seeded single-fault mutations, each rejected.
        dangling = model_dict("fig2_square.json")
        for cube in dangling["cubes"]:
            if cube["id"] == "r":
                cube["d1"] = ["ghost"]
        report = hb.validate_model(hb.model_from_dict(dangling).hda)
        assert not report.ok
        assert any(v.kind == "dangling-face" for v in report.violations)

        arity = model_dict("fig2_square.json")
        for cube in arity["cubes"]:
            if cube["id"] == "x":
                cube["d1"] = ["r"]
        report = hb.validate_model(hb.model_from_dict(arity).hda)
        assert not report.ok
        assert any(v.kind == "face-arity" for v in report.violations)

        identity = model_dict("fig2_square.json")
        identity["cubes"].append({"id": "c00b", "dim": 0, "d0": [], "d1": []})
        for cube in identity["cubes"]:
            if cube["id"] == "btm":
                cube["d0"] = ["c00b"]
        report = hb.validate_model(hb.model_from_dict(identity).hda)
        assert not report.ok
        bad = next(v for v in report.violations if v.kind == "identity")
        assert (bad.cube, bad.data["k"], bad.data["ell"],
                bad.data["nu"], bad.data["mu"]) == ("x", 1, 2, 0, 0)

        pointing = model_dict("fig2_square.json")
        pointing["initial"] = "l"
        report = hb.validate_model(hb.model_from_dict(pointing).hda)
        assert not report.ok
        assert any(v.kind == "initial-dimension" for v in report.violations)


def test_criterion_2_homotopy_regression():
    with criterion(2, "square homotopy chain regression"):
        space = load("fig3.json").hda.space
        chain = square_homotopy_chain(space)
        for rho, sigma in itertools.combinations(chain, 2):
            assert hb.are_homotopic(rho, sigma) is True
        infos = [hb.adjacency(a, b) for a, b in zip(chain, chain[1:])]
        assert [i.clause for i in infos] == [1, 2, 3]
        assert [i.position for i in infos] == [4, 6, 5]
        assert not hb.is_adjacent(chain[0], chain[-1])


def _mixed_corpus(count: int) -> list:
    """The shared random corpus (<= 30 cubes, dim <= 3, mixed cyclic and
    acyclic) used by the fan-shaping and unfolding criteria."""
    rng = random.Random(0xFA9)
    return [random_hda(rng, max_cubes=30, max_dim=3,
                       cyclic=bool(trial % 3 == 0))
            for trial in range(count)]


def test_criterion_3_fan_shaping():
    with criterion(3, "fan-shaping normalization, 200 random paths"):
        rng = random.Random(0xFA9)
        violations = []
        for trial, hda in enumerate(_mixed_corpus(200)):
            rho = random_pointed_path(rng, hda, 9)
            trace = hb.fan_shape_trace(rho)
            fan = trace[-1][-1] if trace else rho
            if not hb.is_fan_shaped(fan):
                violations.append((trial, "result not fan-shaped"))
            if hb.are_homotopic(rho, fan, cap=100_000) is not True:
                violations.append((trial, "result not homotopic to input"))
            t = hb.t_measure(rho)
            for iteration in trace:
                if hb.t_measure(iteration[-1]) != t - 2:
                    violations.append((trial, "iteration did not drop T by 2"))
                t = hb.t_measure(iteration[-1])
            for path in [rho] + [p for it in trace for p in it]:
                bound = hb.fan_t_bound(path)
                if hb.t_measure(path) < bound:
                    violations.append((trial, "T below the fan bound"))
                if (hb.t_measure(path) == bound) != hb.is_fan_shaped(path):
                    violations.append((trial, "bound equality vs fan shape"))
        assert violations == []


def test_criterion_4_unfolding_correctness():
    with criterion(4, "unfolding of acyclic models"):
        violations = []
        corpus = [hda for hda in _mixed_corpus(200) if hb.is_acyclic(hda)]
        assert len(corpus) >= 100
        for idx, hda in enumerate(corpus):
            depth = hb.longest_pointed_path_length(hda)
            unfolding = hb.unfold(hda, depth)
            if not unfolding.complete:
                violations.append((idx, "full-depth unfolding not complete"))
            if not hb.validate_precubical(unfolding.tree.space).ok:
                violations.append((idx, "tree does not validate"))
            if not hb.is_tree(unfolding.tree, depth):
                violations.append((idx, "tree property fails"))
            if not hb.check_morphism(unfolding.projection):
                violations.append((idx, "projection is not a pointed morphism"))
            if not hb.open_map_check(unfolding.projection, unfolding.tree, hda).ok:
                violations.append((idx, "projection is not open"))
        # Tree inputs: the projection of their unfolding is an isomorphism.
        for idx, hda in enumerate(corpus[:8]):
            depth = hb.longest_pointed_path_length(hda)
            tree = hb.unfold(hda, depth).tree
            again = hb.unfold(tree, depth)
            if not hb.morphism_is_isomorphism(again.projection):
                violations.append((idx, "projection of a tree is not iso"))
        assert violations == []


def test_criterion_5_equivalence_of_decision_routes():
    with criterion(5, "fixed point agrees with the run-based check"):
        rng = random.Random(0x05)
        disagreements = []
        for trial in range(50):
            x = random_hda(rng, max_cubes=20, max_dim=2)
            y = random_hda(rng, max_cubes=20, max_dim=2)
            depth = max(hb.longest_pointed_path_length(x),
                        hb.longest_pointed_path_length(y))
            fixed = hb.bisimilar(x, y)
            oracle = hb.hp_oracle(x, y, depth)
            assert oracle.definite
            if fixed.result != oracle.result:
                disagreements.append((trial, fixed.result, oracle.result))
            if fixed.result is True:
                audit = hb.verify_bisim_relation(x, y, fixed.witness)
                assert audit == [], (trial, audit)
        assert disagreements == []
        # The labeled half: grid models labeled by axis, against another
        # model or against the unfolding of the same model.
        events = EventSet(("a", "b"))
        verdicts = Counter()
        for trial in range(30):
            x = random_hda(rng, max_cubes=20, max_dim=2)
            lx = grid_labeling(x, events)
            if trial % 2:
                y = random_hda(rng, max_cubes=20, max_dim=2)
                ly = grid_labeling(y, events)
            else:
                unfolding = hb.unfold(x, hb.longest_pointed_path_length(x))
                y = unfolding.tree
                ly = hb.Labeling(events, {c: lx.assign[unfolding.project(c)]
                                          for c in y.space.ids()})
            depth = max(hb.longest_pointed_path_length(x),
                        hb.longest_pointed_path_length(y))
            fixed = hb.labeled_bisimilar(x, lx, y, ly)
            oracle = hb.hp_oracle(x, y, depth, lx, ly)
            assert oracle.definite
            if fixed.result != oracle.result:
                disagreements.append(("labeled", trial, fixed.result, oracle.result))
            if fixed.result is True:
                audit = hb.verify_bisim_relation(x, y, fixed.witness, lx, ly)
                assert audit == [], (trial, audit)
            verdicts[fixed.result] += 1
        assert disagreements == []
        assert verdicts[True] and verdicts[False], verdicts


def test_criterion_6_figure_level_decisions():
    with criterion(6, "figure-level decisions"):
        left, right = load("fig1_left.json"), load("fig1_right.json")
        assert hb.bisimilar(left.hda, right.hda).result is False
        x5, y5 = load("fig5_x.json"), load("fig5_y.json")
        assert hb.bisimilar(x5.hda, y5.hda).result is True
        ab, ac = load("ab_square_abc.json"), load("ac_square_abc.json")
        assert hb.labeled_bisimilar(ab.hda, ab.labeling,
                                    ac.hda, ac.labeling).result is False


def _started_events(path, labeling) -> tuple[str, ...]:
    """The multiset of events a torus path started, one per up-step."""
    started = []
    for x, y in zip(path.seq, path.seq[1:]):
        before, after = labeling.names(x), labeling.names(y)
        if len(after) > len(before):
            started.extend((Counter(after) - Counter(before)).elements())
    return tuple(sorted(started))


def test_criterion_7_torus_unfolding():
    with criterion(7, "torus unfolding closed form"):
        violations = []
        for names in ((), ("a",), ("a", "b")):
            events = EventSet(names)
            for depth in range(1, 6):
                # The (end cube, started events) map must be an isomorphism
                # that keeps the frontier.
                f = torus_closed_form_map(events, depth)
                if not hb.morphism_is_isomorphism(f):
                    violations.append((names, depth, "not isomorphic"))
                if {f.mapping[c] for c in f.source.frontier} != f.target.frontier:
                    violations.append((names, depth, "frontier differs"))
            # Collapse: the key is (end, started events), not (end, length),
            # since after a+a- and after b+b- are different histories.
            base, lab = hb.torus_hda(events, 4)
            groups: dict = {}
            for path in hb.enumerate_pointed_paths(base, 5):
                key = (path.end, _started_events(path, lab))
                groups.setdefault(key, []).append(path)
            for key, group in groups.items():
                for other in group[1:]:
                    if hb.are_homotopic(group[0], other) is not True:
                        violations.append((names, key, "collapse fails"))
                        break
            # Different keys with the same end and length: distinct classes.
            for (k1, g1), (k2, g2) in itertools.combinations(groups.items(), 2):
                if (k1[0], len(g1[0])) == (k2[0], len(g2[0])):
                    if hb.are_homotopic(g1[0], g2[0]) is not False:
                        violations.append((names, k1, k2, "keys merge"))
        assert violations == []


def test_criterion_8_decidability_floor():
    with criterion(8, "200-cube fixed-point performance floor"):
        rng = random.Random(0x08)
        x = random_hda(rng, max_cubes=200, max_dim=3, min_cubes=180)
        y = random_hda(rng, max_cubes=200, max_dim=3, min_cubes=180)
        started = time.monotonic()
        decision = hb.bisimilar(x, y)
        elapsed = time.monotonic() - started
        assert elapsed < 10.0, f"fixed point took {elapsed:.1f}s"
        assert decision.iterations <= len(x.space) * len(y.space)
