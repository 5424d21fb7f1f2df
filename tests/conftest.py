import copy
import json
import random
from collections import Counter
from pathlib import Path

import pytest

import hdabisim as hb

MODELS = Path(__file__).resolve().parent.parent / "models"


def load(name: str) -> hb.LoadedModel:
    return hb.load_model(MODELS / name)


def model_dict(name: str) -> dict:
    with open(MODELS / name, encoding="utf-8") as handle:
        return json.load(handle)


def model_dict_ref(hda: hb.HDA, labeling: hb.Labeling | None = None) -> dict:
    """`model_to_dict` as it was before the row store: one cube object per
    id, with fields read through `PrecubicalSet.row`."""
    space = hda.space
    ids = space.ids()
    out: dict = {
        "cubes": [{"id": cid, "dim": dim, "d0": list(lower), "d1": list(upper)}
                  for cid in ids for dim, lower, upper in [space.row(cid)]],
        "initial": hda.initial,
    }
    if space.frontier:
        out["frontier"] = sorted(space.frontier)
    if labeling is not None:
        out["events"] = list(labeling.events.names)
        out["labels"] = {cid: list(labeling.assign[cid])
                         for cid in ids if cid in labeling.assign}
    return out


def read_written_json(path: Path) -> object:
    """The value in a file that `dump_model` or `dump_id_map` wrote, after
    checking its layout: ASCII, one line, and a closing newline."""
    data = path.read_bytes()
    assert data.isascii(), path
    assert data.endswith(b"\n") and data.count(b"\n") == 1, path
    return json.loads(data)


@pytest.fixture(scope="session")
def models_dir() -> Path:
    return MODELS


@pytest.fixture(scope="session")
def fig1_left() -> hb.LoadedModel:
    return load("fig1_left.json")


@pytest.fixture(scope="session")
def fig1_right() -> hb.LoadedModel:
    return load("fig1_right.json")


@pytest.fixture(scope="session")
def fig2() -> hb.LoadedModel:
    return load("fig2_square.json")


@pytest.fixture(scope="session")
def fig3() -> hb.LoadedModel:
    return load("fig3.json")


@pytest.fixture(scope="session")
def fig5_x() -> hb.LoadedModel:
    return load("fig5_x.json")


@pytest.fixture(scope="session")
def fig5_y() -> hb.LoadedModel:
    return load("fig5_y.json")


@pytest.fixture(scope="session")
def ab_square() -> hb.LoadedModel:
    return load("ab_square_abc.json")


@pytest.fixture(scope="session")
def ac_square() -> hb.LoadedModel:
    return load("ac_square_abc.json")


def square_homotopy_chain(space: hb.PrecubicalSet) -> list[hb.CubePath]:
    """The four-path homotopy chain across the filled part of the model in
    fig3.json, in drawing order."""
    seqs = [
        ("i", "a", "x", "b", "bc", "c", "z", "d"),
        ("i", "a", "x", "cb", "bc", "c", "z", "d"),
        ("i", "a", "x", "cb", "bc", "tb", "z", "d"),
        ("i", "a", "x", "cb", "y", "tb", "z", "d"),
    ]
    return [hb.CubePath(space, seq) for seq in seqs]


def torus_closed_form_map(events: hb.EventSet, depth: int,
                          maxdim: int | None = None) -> hb.PrecubicalMorphism:
    """The map from the computed unfolding of the event torus to its closed
    form `torus_unfolding(events, depth, maxdim)`.

    The computed unfolding is `unfold(torus_hda(events, maxdim), depth)`,
    with maxdim = depth when it is None.  Each node goes to
    ``<x>@<2|c| - dim x>:<c>``: x is the end cube of the node's
    representative path and c lists the events that path started (a start
    step adds one event to the cube, an end step removes one), in start
    order below dimension 2 and in alphabet order otherwise."""
    top = depth if maxdim is None else maxdim
    base, labeling = hb.torus_hda(events, top)
    unfolding = hb.unfold(base, depth)
    closed = hb.torus_unfolding(events, depth, maxdim)
    mapping = {}
    for nid, node in unfolding.nodes.items():
        started = []
        for a, b in zip(node.rep, node.rep[1:]):
            started += (Counter(labeling.names(b))
                        - Counter(labeling.names(a))).elements()
        if top >= 2:
            started.sort(key=events.names.index)
        key = (f"{hb.torus_cube_id(labeling.names(node.rep[-1]))}"
               f"@{2 * len(started) - node.dim}")
        mapping[nid] = (f"{key}:{hb.torus_cube_id(tuple(started))}"
                        if started else key)
    return hb.PrecubicalMorphism(unfolding.tree, closed, mapping)


def criterion_5_corpus() -> list[tuple]:
    """The (x, lx, y, ly, depth) inputs of acceptance criterion 5, at a depth
    past both models' longest pointed paths: 50 unlabeled pairs of random
    acyclic models (lx = ly = None), then 30 labeled ones, grid models
    labeled by axis against another model or against the unfolding of the
    same model."""
    from hdabisim.generators import grid_labeling, random_hda

    rng = random.Random(0x05)
    pairs = [(x, None, y, None) for x, y in (
        (random_hda(rng, max_cubes=20, max_dim=2),
         random_hda(rng, max_cubes=20, max_dim=2)) for _ in range(50))]
    events = hb.EventSet(("a", "b"))
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
        pairs.append((x, lx, y, ly))
    return [(x, lx, y, ly, max(hb.longest_pointed_path_length(x),
                                hb.longest_pointed_path_length(y)))
            for x, lx, y, ly in pairs]


def truncated(rng, hda: hb.HDA) -> hb.HDA:
    """`hda` with 1-3 upper faces omitted and their cubes listed in the
    frontier.  Validation exempts omitted upper faces of frontier cubes, so
    a truncation of a valid model is valid.  A model with no cube above
    dimension 0 comes back unchanged."""
    rows = dict(hda.space.rows())
    frontier = set(hda.space.frontier)
    tops = [c for c in hda.space.ids() if rows[c][0]]
    for _ in range(rng.randint(1, 3) if tops else 0):
        cid = rng.choice(tops)
        dim, lower, upper = rows[cid]
        k = rng.randrange(dim)
        rows[cid] = (dim, lower, upper[:k] + (None,) + upper[k + 1:])
        frontier.add(cid)
    return hb.HDA(hb.PrecubicalSet(rows, frontier), hda.initial)


def cut_square() -> dict:
    """The model dict of ab_square_abc.json with the upper face of edge `a`
    omitted: a valid truncation in which the corner `p`, and so the lower
    face of edge `b2`, is reached only through the omission."""
    data = model_dict("ab_square_abc.json")
    for cube in data["cubes"]:
        if cube["id"] == "a":
            cube["d1"] = [None]
    data["frontier"] = ["a"]
    return data


def refusal(space: hb.PrecubicalSet) -> str:
    """The ModelError message with which the int walks refuse a set that
    fails validation: its first violation's detail."""
    first = hb.validate_precubical(space).violations[0]
    return f"the set fails validation: {first.detail}"


def model_refusal(hda: hb.HDA) -> str | None:
    """The ModelError message with which the walks refuse a model that fails
    `validate_model` (without a labeling): a fault of the set as `refusal`
    words it, else the model's first violation; None for a valid model."""
    violations = hb.validate_model(hda).violations
    if not violations:
        return None
    if not hb.validate_precubical(hda.space).ok:
        return refusal(hda.space)
    return violations[0].detail


# JSON values that are wrong almost anywhere in a model file.
_JUNK = (None, True, 0, -1, 2, 1.5, "", "ghost", [], {}, [None], ["ghost"],
         [1], [True], {"x": [1]})


def mutate_model_dict(rng, data: dict, count: int | None = None) -> dict:
    """A copy of a model dict with 1-3 random faults, from wrong JSON types
    and unknown fields to dangling, null, swapped or mis-dimensioned faces,
    frontier flags and label changes.  Faults may stack, and some leave a
    valid model."""
    data = copy.deepcopy(data)

    def some_id():
        cubes = data.get("cubes")
        ids = [c.get("id") for c in cubes if isinstance(c, dict)] \
            if isinstance(cubes, list) else []
        ids = [c for c in ids if isinstance(c, str)]
        return rng.choice(ids) if ids and rng.random() < 0.8 else rng.choice(_JUNK)

    def some_cube():
        cubes = data.get("cubes")
        if isinstance(cubes, list) and cubes:
            i = rng.randrange(len(cubes))
            if isinstance(cubes[i], dict):
                return cubes, i
        return None, None

    for _ in range(count or rng.randint(1, 3)):
        kind = rng.choice(("face", "face", "face", "faces", "dim", "cube-field",
                           "drop-cube-field", "drop-cube", "duplicate-cube",
                           "junk-cube", "top-field", "drop-top", "frontier",
                           "label", "label", "initial", "events"))
        cubes, i = some_cube()
        if kind in ("face", "faces", "dim", "cube-field", "drop-cube-field",
                    "drop-cube", "duplicate-cube", "junk-cube") and cubes is None:
            continue
        if kind == "face":
            key = rng.choice(("d0", "d1"))
            faces = cubes[i].get(key)
            if isinstance(faces, list) and faces:
                k = rng.randrange(len(faces))
                faces[k] = rng.choice((None, "ghost", cubes[i].get("id"), some_id(),
                                       some_id(), rng.choice(_JUNK)))
                if rng.random() < 0.3:
                    j = rng.randrange(len(faces))
                    faces[k], faces[j] = faces[j], faces[k]
        elif kind == "faces":
            faces = cubes[i].get(rng.choice(("d0", "d1")))
            if isinstance(faces, list):
                if faces and rng.random() < 0.5:
                    faces.pop()
                else:
                    faces.append(some_id())
        elif kind == "dim":
            dim = cubes[i].get("dim")
            cubes[i]["dim"] = dim + rng.choice((-1, 1)) \
                if isinstance(dim, int) else rng.choice(_JUNK)
        elif kind == "cube-field":
            cubes[i][rng.choice(("id", "dim", "d0", "d1", "color"))] = \
                rng.choice(_JUNK + (some_id(),))
        elif kind == "drop-cube-field":
            cubes[i].pop(rng.choice(("id", "dim", "d0", "d1")), None)
        elif kind == "drop-cube":
            del cubes[i]
        elif kind == "duplicate-cube":
            cubes.append(copy.deepcopy(cubes[i]))
        elif kind == "junk-cube":
            cubes[i] = rng.choice(_JUNK)
        elif kind == "top-field":
            data[rng.choice(("cubes", "initial", "events", "labels",
                             "frontier", "comment"))] = rng.choice(_JUNK)
        elif kind == "drop-top":
            data.pop(rng.choice(("cubes", "initial", "events", "labels",
                                 "frontier")), None)
        elif kind == "frontier":
            frontier = data.get("frontier")
            if not isinstance(frontier, list):
                frontier = data["frontier"] = []
            frontier.append(some_id())
        elif kind == "label":
            labels = data.get("labels")
            if isinstance(labels, dict) and labels:
                cid = rng.choice(sorted(labels))
                tup = labels[cid]
                if rng.random() < 0.3 or not isinstance(tup, list):
                    labels[cid] = rng.choice(_JUNK)
                elif rng.random() < 0.3:
                    del labels[cid]
                else:
                    labels[cid] = rng.choice((tup + [1], tup[:-1], tup[::-1],
                                              [0] * len(tup), [9] * len(tup),
                                              [rng.randint(1, 3) for _ in tup]))
        elif kind == "initial":
            data["initial"] = some_id()
        elif kind == "events":
            events = data.get("events")
            if isinstance(events, list) and events:
                data["events"] = rng.choice((events[:-1], events + events[:1],
                                             events + ["a.b"], events[::-1]))
    return data
