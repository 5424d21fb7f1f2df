"""Self-tests of the benchmark's known-answer constructions.

They check each construction on small instances with plain Python over the
model dicts, never through hdabisim's decision code:

    python3 -m pytest -q bench/test_corpus.py
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path
from random import Random

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import corpus  # noqa: E402

# Node counts of hdabisim's own `unfold` at the commit that introduced the
# benchmark: (sizes, depth) -> nodes for filled grids, and
# (events, depth) -> nodes for tori of maximal dimension 3.
GRID_NODES = {((3, 3, 3), 8): 117, ((3, 3, 3), 10): 190, ((6, 6), 13): 91,
              ((5, 5), 11): 66, ((2, 2, 2), 13): 125, ((4, 4), 11): 60,
              ((6, 6), 11): 66, ((6, 6), 12): 78, ((2, 2, 2), 9): 105,
              ((4, 4, 4), 8): 120, ((4, 4), 9): 45, ((3, 3, 3), 7): 84,
              ((4, 4), 10): 53, ((6, 6), 10): 55, ((4, 4, 4), 7): 84}
TORUS_NODES = {(1, 9): 16, (2, 6): 39, (2, 7): 52, (3, 6): 104}


def faces(model: dict) -> dict[str, tuple]:
    return {c["id"]: (c["dim"], tuple(c["d0"]), tuple(c["d1"]))
            for c in model["cubes"]}


def steps(model: dict) -> dict[str, set[str]]:
    """The step relation: start an event (to a lower coface) or end one (to
    an upper face)."""
    succ: dict[str, set[str]] = {c["id"]: set() for c in model["cubes"]}
    for c in model["cubes"]:
        for f in c["d0"]:
            succ[f].add(c["id"])
        succ[c["id"]].update(c["d1"])
    return succ


def reachable_ids(model: dict) -> set[str]:
    succ, seen, todo = steps(model), {model["initial"]}, [model["initial"]]
    while todo:
        for y in succ[todo.pop()]:
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return seen


def is_path(model: dict, seq: list[str]) -> bool:
    succ = steps(model)
    return all(b in succ[a] for a, b in zip(seq, seq[1:]))


def test_renaming_is_an_isomorphism_face_by_face():
    for model in (corpus.grid_model((2, 3), labeled=True),
                  corpus.random_model(Random(3), 60)):
        copy, mapping = corpus.renamed(model, Random(1), "r")
        assert sorted(mapping.values()) == sorted(set(mapping.values()))
        assert len(mapping) == len(model["cubes"]) == len(copy["cubes"])
        image = faces(copy)
        for cid, (dim, d0, d1) in faces(model).items():
            assert image[mapping[cid]] == (
                dim, tuple(mapping[f] for f in d0), tuple(mapping[f] for f in d1))
        assert copy["initial"] == mapping[model["initial"]]
        for cid, label in model.get("labels", {}).items():
            assert copy["labels"][mapping[cid]] == label
        assert [c["id"] for c in copy["cubes"]] != sorted(
            (c["id"] for c in copy["cubes"]), key=lambda i: int(i[1:]))


def test_stray_cubes_are_unreachable():
    x = corpus.grid_model((2, 2))
    junk, _ = corpus.renamed(corpus.grid_model((1, 1)), Random(2), "j")
    union = corpus.disjoint_union(x, junk)
    assert not {c["id"] for c in x["cubes"]} & {c["id"] for c in junk["cubes"]}
    assert reachable_ids(union) == {c["id"] for c in x["cubes"]}


def test_holes_remove_one_top_cube_other_than_the_last_corner():
    for sizes in ((2, 2), (2, 3), (2, 2, 2)):
        positions = corpus.hole_positions(sizes)
        assert len(positions) == len(list(
            itertools.product(*(range(s) for s in sizes)))) - 1
        for pos in positions:
            assert any(p <= s - 2 for p, s in zip(pos, sizes))
            full = corpus.grid_model(sizes)
            hole = corpus.top_cube_id(pos)
            holed = corpus.without(full, hole)
            assert len(holed["cubes"]) == len(full["cubes"]) - 1
            assert faces(full)[hole][0] == len(sizes)
            assert all(hole not in c["d0"] + c["d1"] for c in holed["cubes"])


def test_transposed_grids_differ_in_shape():
    a, b = corpus.grid_model((3, 4), True), corpus.grid_model((4, 3), True)
    # Same cubes per dimension, different futures at the origin: along
    # event a, (3, 4) can move 3 times and (4, 3) 4 times.
    dims = lambda m: sorted(c["dim"] for c in m["cubes"])  # noqa: E731
    assert dims(a) == dims(b)
    assert corpus.vertex_id((3, 0)) in faces(a) and corpus.vertex_id((4, 0)) not in faces(a)
    assert corpus.vertex_id((4, 0)) in faces(b)


def test_closed_form_node_counts_match_the_recorded_unfoldings():
    for (sizes, depth), nodes in GRID_NODES.items():
        assert corpus.grid_unfold_nodes(sizes, depth) == nodes, (sizes, depth)
    for (events, depth), nodes in TORUS_NODES.items():
        assert corpus.torus_unfold_nodes(events, 3, depth) == nodes, (events, depth)


def test_grid_path_length_is_fixed_by_the_end_cell():
    for sizes in ((3, 3), (2, 2, 2)):
        model = corpus.grid_model(sizes)
        assert corpus.longest_path(model) == 2 * sum(sizes) + 1
        rng = Random(5)
        for length in range(1, 2 * sum(sizes) + 2):
            walk = corpus.random_grid_walk(rng, sizes, length)
            assert len(walk) == length and is_path(model, walk)
            assert walk[0] == model["initial"]
            end = walk[-1][1:].split("_")
            assert 2 * sum(int(t.rstrip("s")) for t in end) + sum(
                t.endswith("s") for t in end) + 1 == length


def test_paths_around_a_hole_take_opposite_sides():
    full = corpus.grid_model((3, 3))
    for p in range(2):
        for q in range(2):
            holed = corpus.without(full, corpus.top_cube_id((p, q)))
            prefix = [0] * p + [1] * q
            tail = [0] * (2 - p) + [1] * (2 - q)
            rho = corpus.vertex_path_from([0, 0], prefix + [0, 1] + tail)
            sigma = corpus.vertex_path_from([0, 0], prefix + [1, 0] + tail)
            assert is_path(holed, rho) and is_path(holed, sigma)
            assert len(rho) == len(sigma) and rho[-1] == sigma[-1]
            at = 2 * (p + q + 1)  # 0-based index of the diagonal crossing
            assert rho[at] == corpus.vertex_id((p + 1, q))
            assert sigma[at] == corpus.vertex_id((p, q + 1))
    for target in ((2, 2), (1, 1, 2)):
        sizes = tuple(max(t, 1) + 1 for t in target)
        path = corpus.grid_vertex_path(Random(7), target)
        assert is_path(corpus.grid_model(sizes), path)
        assert path[-1] == corpus.vertex_id(target)


def test_mutants_change_exactly_one_cube():
    base = corpus.grid_model((3, 3, 3))
    rng = Random(11)
    kinds = set()
    for _ in range(30):
        mutant, want = corpus._mutant(rng, base, 3)
        kinds.add(want["kind"])
        before, after = faces(base), faces(mutant)
        changed = [c for c in before if before[c] != after[c]]
        assert changed == [want["cube"]]
        dim, d0, d1 = before[want["cube"]]
        _dim, m0, m1 = after[want["cube"]]
        if want["kind"] == "identity":
            assert dim == 3 and m1 == d1 and sorted(m0) == sorted(d0) and m0 != d0
        else:
            old, new = (d0, m0) if want["nu"] == 0 else (d1, m1)
            assert [i for i in range(dim) if old[i] != new[i]] == [want["k"] - 1]
            ref = new[want["k"] - 1]
            assert ref == want["ref"]
            if want["kind"] == "dangling-face":
                assert ref not in before
            else:
                assert before[ref][0] != dim - 1
    assert kinds == {"dangling-face", "face-dimension", "identity"}


def test_corpus_is_a_function_of_the_seed(tmp_path):
    for workload in corpus.WORKLOADS:
        if workload == "validate":
            continue  # large grids; same code paths as the others
        first = corpus.build(workload, 4, str(tmp_path / "a"))
        again = corpus.build(workload, 4, str(tmp_path / "b"))
        strip = lambda reqs, d: [  # noqa: E731
            (r.tier, r.kind, [a.replace(d, "") for a in r.argv], r.expect)
            for r in reqs]
        assert strip(first, str(tmp_path / "a")) == strip(again, str(tmp_path / "b"))
        for name in sorted(p.name for p in (tmp_path / "a").iterdir()):
            assert (json.loads((tmp_path / "a" / name).read_text())
                    == json.loads((tmp_path / "b" / name).read_text()))
        assert {r.tier for r in first} == set(corpus.PATTERN)


def test_checker_classifies_outcomes():
    verdict = {"verdict": True, "initial": ["i", "j"]}
    ok = json.dumps({"result": True, "witness": [["i", "j"]]})
    assert check.check(verdict, [], ok)[0] == check.DECIDED
    assert check.check(verdict, [], json.dumps({"result": False}))[0] == check.WRONG
    assert check.check(verdict, [], json.dumps(
        {"result": "cap-exceeded"}))[0] == check.UNDECIDED
    assert check.check(verdict, [], "not json")[0] == check.WRONG
    want = {"kind": "dangling-face", "cube": "x", "k": 1, "nu": 0, "ref": "missing"}
    report = {"result": False, "violations": [dict(want, detail="...")]}
    assert check.check({"violation": want}, [], json.dumps(report))[0] == check.DECIDED
    report["violations"].append(dict(want, cube="y"))
    assert check.check({"violation": want}, [], json.dumps(report))[0] == check.WRONG
