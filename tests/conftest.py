import copy
import json
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


def json_dump_ref(obj: object, path: Path) -> None:
    """The writer that `dump_model` and the projection sidecar replaced:
    ``json.dump(..., indent=1)``, which runs the pure-Python encoder, and a
    newline."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle, indent=1)
        handle.write("\n")


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
    return hb.PrecubicalMorphism(
        unfolding.tree.space, closed.space, mapping, pointed=True,
        source_initial=unfolding.tree.initial, target_initial=closed.initial)


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
