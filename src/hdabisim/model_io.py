"""The JSON model format shared by the CLI and the library loaders.

A model file looks like::

    {"cubes": [{"id": "x", "dim": 2, "d0": ["e1", "e2"], "d1": ["e3", "e4"]}, ...],
     "initial": "i",
     "events": ["a", "b"],
     "labels": {"x": [1, 2], ...},
     "frontier": ["x", ...]}

``d0``/``d1`` are positional: index k-1 holds the k-th lower/upper face.
``events`` and ``labels`` are optional; label entries are 1-based indices
into ``events``, sorted ascending.  ``frontier`` (optional) lists cubes whose
upper faces were omitted by truncation; only those may carry ``null`` inside
``d1``.  Unknown fields are rejected.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path

from .core import HDA, Cube, EventSet, Labeling, ModelError, PrecubicalSet

_MODEL_FIELDS = {"cubes", "initial", "events", "labels", "frontier"}
_CUBE_FIELDS = {"id", "dim", "d0", "d1"}
# Second argument for `map(isinstance, entries, _STR)`, a type check per
# entry without a Python-level loop.
_STR = itertools.repeat(str)


@dataclass
class LoadedModel:
    hda: HDA
    labeling: Labeling | None


def _parse_faces(raw: object, cube_id: str, key: str) -> tuple[str | None, ...]:
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


def _parse_cube(raw: object) -> Cube:
    """One cube entry, with every field check and its error message."""
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
    lower = _parse_faces(raw.get("d0", []), cid, "d0")
    upper = _parse_faces(raw.get("d1", []), cid, "d1")
    if any(f is None for f in lower):
        raise ModelError(f"cube {cid!r}: d0 entries may not be null")
    return Cube(cid, dim, lower, upper)  # type: ignore[arg-type]


def _is_label(tup: object) -> bool:
    return isinstance(tup, list) and all(
        isinstance(i, int) and not isinstance(i, bool) for i in tup)


def model_from_dict(data: object) -> LoadedModel:
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
    cubes: list[Cube] = []
    for raw in raw_cubes:
        # Fast path for the common entry: plain JSON types, known fields,
        # no null face.  Anything else takes the checked path, which raises
        # the first error in the usual order or accepts the entry.
        if type(raw) is dict and raw.keys() <= _CUBE_FIELDS:
            cid, dim = raw.get("id"), raw.get("dim")
            d0, d1 = raw.get("d0", []), raw.get("d1", [])
            if (type(cid) is str and cid and type(dim) is int and dim >= 0
                    and type(d0) is list and type(d1) is list
                    and all(map(isinstance, d0, _STR))
                    and all(map(isinstance, d1, _STR))):
                cubes.append(Cube(cid, dim, tuple(d0), tuple(d1)))
                continue
        cubes.append(_parse_cube(raw))

    frontier_raw = data.get("frontier", [])
    if not isinstance(frontier_raw, list) or not all(
            isinstance(c, str) for c in frontier_raw):
        raise ModelError("'frontier' must be an array of cube ids")
    frontier = set(frontier_raw)
    for cube in cubes:
        if None in cube.upper and cube.id not in frontier:
            raise ModelError(
                f"cube {cube.id!r} has null upper faces but is not in 'frontier'")

    initial = data["initial"]
    if not isinstance(initial, str):
        raise ModelError("'initial' must be a cube id")
    space = PrecubicalSet(cubes, frontier=frontier)
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
            if not (type(tup) is list and all([type(i) is int for i in tup])
                    or _is_label(tup)):
                raise ModelError(f"label of {cid!r} must be an array of integers")
            assign[cid] = tuple(tup)
        labeling = Labeling(events, assign)
    return LoadedModel(hda, labeling)


def load_model(path: str | Path) -> LoadedModel:
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ModelError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ModelError(f"malformed JSON in {path}: {exc}") from exc
    return model_from_dict(data)


def model_to_dict(hda: HDA, labeling: Labeling | None = None) -> dict:
    space = hda.space
    out: dict = {
        "cubes": [
            {
                "id": cid,
                "dim": space.dim(cid),
                "d0": list(space.cube(cid).lower),
                "d1": list(space.cube(cid).upper),
            }
            for cid in space.ids()
        ],
        "initial": hda.initial,
    }
    if space.frontier:
        out["frontier"] = sorted(space.frontier)
    if labeling is not None:
        out["events"] = list(labeling.events.names)
        out["labels"] = {
            cid: list(labeling.assign[cid])
            for cid in space.ids() if cid in labeling.assign
        }
    return out


def dump_model(hda: HDA, path: str | Path,
               labeling: Labeling | None = None) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(model_to_dict(hda, labeling), handle, indent=1)
        handle.write("\n")
