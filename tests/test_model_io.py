"""JSON model format: round trips, strictness, and what the writers write."""

import hashlib
import json
import random
import re

import pytest

import hdabisim as hb
from hdabisim.generators import grid_labeling, random_hda
from hdabisim.model_io import dump_id_map

from conftest import load, model_dict, model_dict_ref, read_written_json


def test_round_trip(tmp_path):
    loaded = load("fig3.json")
    out = tmp_path / "copy.json"
    hb.dump_model(loaded.hda, out, loaded.labeling)
    again = hb.load_model(out)
    assert again.hda.space == loaded.hda.space
    assert again.hda.initial == loaded.hda.initial
    assert again.labeling == loaded.labeling


def test_unknown_model_field_rejected():
    data = model_dict("fig2_square.json")
    data["comment"] = "nope"
    with pytest.raises(hb.ModelError, match="unknown model fields"):
        hb.model_from_dict(data)


def test_a_model_must_be_an_object():
    for data in ([], "cubes", None, 1):
        with pytest.raises(hb.ModelError, match="^model must be a JSON object$"):
            hb.model_from_dict(data)


def test_unknown_cube_field_rejected():
    data = model_dict("fig2_square.json")
    data["cubes"][0]["color"] = "red"
    with pytest.raises(hb.ModelError, match="unknown cube fields"):
        hb.model_from_dict(data)


def test_labels_require_events():
    data = model_dict("fig2_square.json")
    data["labels"] = {"x": [1, 1]}
    with pytest.raises(hb.ModelError, match="requires 'events'"):
        hb.model_from_dict(data)


def test_null_lower_face_rejected():
    data = model_dict("fig2_square.json")
    for cube in data["cubes"]:
        if cube["id"] == "x":
            cube["d0"] = [None, "btm"]
    with pytest.raises(hb.ModelError, match="may not be null"):
        hb.model_from_dict(data)


def test_null_upper_face_needs_frontier():
    data = model_dict("fig2_square.json")
    for cube in data["cubes"]:
        if cube["id"] == "x":
            cube["d1"] = ["r", None]
    with pytest.raises(hb.ModelError, match="frontier"):
        hb.model_from_dict(data)
    data["frontier"] = ["x"]
    loaded = hb.model_from_dict(data)
    assert hb.validate_model(loaded.hda).ok  # omission is flagged, hence legal


def test_duplicate_ids_rejected():
    data = model_dict("fig2_square.json")
    data["cubes"].append(dict(data["cubes"][0]))
    with pytest.raises(hb.ModelError, match="duplicate"):
        hb.model_from_dict(data)


def test_truncated_model_round_trip(tmp_path, fig5_x):
    tree = hb.unfold(fig5_x.hda, 4).tree
    assert tree.space.frontier
    out = tmp_path / "tree.json"
    hb.dump_model(tree, out)
    again = hb.load_model(out)
    assert again.hda.space == tree.space


# -- the writers: one ASCII line that parses to the reference content --------

# Ids that JSON must escape: non-ASCII (one a surrogate pair), quotes,
# backslashes, control characters and the line separators JavaScript
# rejects.
_ODD = ("é", 'q"uote', "back\\slash", "tab\tnew\nline", "\U0001F600",
        "\x00nul", " sep", "plain")


def _odd_model():
    """A truncated model over the ids above: two vertices, an edge with an
    omitted upper face, and an edge whose upper face names a missing cube
    (a model can be written before it is validated)."""
    a, b, e, f = _ODD[0], _ODD[1], _ODD[2], _ODD[3]
    space = hb.PrecubicalSet(
        {a: (0, (), ()), b: (0, (), ()), e: (1, (a,), (None,)),
         f: (1, (b,), ("gh\"ost\\" + _ODD[4],)),
         **{x: (0, (), ()) for x in _ODD[4:]}},
        frontier=[e])
    labeling = hb.Labeling(hb.EventSet(("é", "b")), {
        x: ((1,) if space.dim(x) else ()) for x in space.ids()})
    return hb.HDA(space, a), labeling


def _writer_cases():
    rng = random.Random(5)
    events = hb.EventSet(("a", "b", "c"))
    for name in ("fig1_left.json", "fig3.json", "fig5_x.json",
                 "ab_square_abc.json"):
        loaded = load(name)
        yield name, loaded.hda, loaded.labeling
        yield name + " unlabeled", loaded.hda, None
    for name, depth in (("fig5_x.json", 4), ("fig1_right.json", 3),
                        ("fig3.json", 6)):
        unfolding = hb.unfold(load(name).hda, depth)
        yield f"{name} tree {depth}", unfolding.tree, None
    for trial in range(12):
        hda = random_hda(rng, max_cubes=rng.choice((6, 20, 40)), max_dim=3,
                         cyclic=trial % 3 == 0, stray=trial % 2 == 1)
        if trial % 3:
            yield f"random {trial}", hda, grid_labeling(hda, events)
        tree = hb.unfold(hda, rng.randint(2, 6)).tree
        yield f"random {trial} tree", tree, None
    fig3 = load("fig3.json")
    yield "empty labels", fig3.hda, hb.Labeling(fig3.labeling.events, {})
    yield "no events", fig3.hda, hb.Labeling(hb.EventSet(()), {})
    for maxdim in (None, 1):
        yield (f"torus unfolding {maxdim}",
               hb.torus_unfolding(hb.EventSet(("a", "b")), 5, maxdim), None)
    yield "escaped ids", *_odd_model()
    yield "escaped ids unlabeled", _odd_model()[0], None


def test_dump_model_writes_json_dump_bytes(tmp_path):
    """Every case is written as one ASCII line that parses to the reference
    dict and loads back as the same model."""
    out = tmp_path / "model.json"
    cases = 0
    for name, hda, labeling in _writer_cases():
        expected = model_dict_ref(hda, labeling)
        assert hb.model_to_dict(hda, labeling) == expected, name
        hb.dump_model(hda, out, labeling)
        assert read_written_json(out) == expected, name
        again = hb.load_model(out)
        assert again.hda.space == hda.space, name
        assert again.hda.initial == hda.initial, name
        assert again.labeling == labeling, name
        cases += 1
    assert cases == 37


def test_a_failed_write_is_a_model_error(tmp_path, fig3):
    for path in (tmp_path / "missing" / "tree.json", tmp_path):
        error = f"^cannot write {re.escape(str(path))}: "
        with pytest.raises(hb.ModelError, match=error):
            hb.dump_model(fig3.hda, path)
        with pytest.raises(hb.ModelError, match=error):
            dump_id_map({}, path)


def test_projection_sidecar_writes_json_dump_bytes(tmp_path):
    out = tmp_path / "side.json"
    tables = [hb.unfold(load(name).hda, depth).projection_table()
              for name, depth in (("fig5_x.json", 4), ("fig3.json", 6))]
    tables.append({x: _ODD[-1 - i] for i, x in enumerate(_ODD)})
    tables.append({})
    for table in tables:
        dump_id_map(table, out)
        written = read_written_json(out)
        assert written == table, table
        assert list(written) == list(table), table


def _generated_models() -> dict[str, list[tuple[hb.HDA, hb.Labeling | None]]]:
    """The models `torus_hda` and `torus_unfolding` build, in a fixed order,
    by family: tori over 0-3 events up to dimension 3, and their closed-form
    unfoldings to depth 5 (with and without `maxdim`)."""
    families: dict[str, list] = {
        "torus": [], "torus_unfolding": [], "torus_unfolding_maxdim": []}
    for n in range(4):
        events = hb.EventSet(("a", "b", "c")[:n])
        for maxdim in range(4):
            families["torus"].append(hb.torus_hda(events, maxdim))
        for depth in range(1, 6):
            families["torus_unfolding"].append(
                (hb.torus_unfolding(events, depth), None))
            for maxdim in range(4):
                families["torus_unfolding_maxdim"].append(
                    (hb.torus_unfolding(events, depth, maxdim), None))
    return families


# sha256 over ``json.dumps(model_to_dict(...), indent=1)`` plus a newline for
# every model of a family, recorded from a build known to be right, so that
# a rewrite of these builders cannot change a byte unnoticed.
_GENERATED_DIGESTS = {
    "torus":
        "11ba279e09275d3d76915aa154053b1e02c6a6ea5bb76671962b0e1583b4e428",
    "torus_unfolding":
        "55b93440177cd0da37a71be95d0e0f99f3596b2ea31d58510d978ff5380b5d81",
    "torus_unfolding_maxdim":
        "d3705897c77488eb303ab7f65927400aaa45275170a2c2b5d035e04ee8ccc4ee",
}


def test_generated_models_keep_their_bytes():
    for family, models in _generated_models().items():
        digest = hashlib.sha256()
        for hda, labeling in models:
            text = json.dumps(hb.model_to_dict(hda, labeling), indent=1)
            digest.update(text.encode() + b"\n")
        assert digest.hexdigest() == _GENERATED_DIGESTS[family], family
