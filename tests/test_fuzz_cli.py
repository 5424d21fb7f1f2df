"""Fuzzing the CLI with model files, mutated or not, and drawn caps, depths,
cube paths, map files and event lists: every run ends in a defined exit
code and prints exactly one JSON document."""

import io
import json
import random
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import hdabisim as hb
from hdabisim.cli import main
from hdabisim.generators import grid_labeling, random_hda, random_pointed_path

from conftest import model_dict, mutate_model_dict, truncated

_BASES = [model_dict(name) for name in (
    "fig1_left.json", "fig1_right.json", "fig3.json", "fig5_x.json",
    "ab_square_abc.json", "ac_square_abc.json")]
_rng = random.Random(31)
for _ in range(2):
    _hda = random_hda(_rng, max_cubes=12, max_dim=2)
    _BASES.append(hb.model_to_dict(
        _hda, grid_labeling(_hda, hb.EventSet(("a", "b", "c")))))
_BASES.append(hb.model_to_dict(hb.unfold(hb.model_from_dict(_BASES[3]).hda, 4).tree))

# CAP and DEPTH are drawn per example.  Every cap is at most 60, so the cap
# stops cyclic models even at depth 10**9, where every layer is non-empty,
# and keeps each run short and its memory bounded.
_CAPS = ("1", "2", "60")
_DEPTHS = ("1", "4", str(10**9))
_COMMANDS = (
    ("validate", "X"),
    ("reachable", "X"),
    ("paths", "X", "--max-len", "DEPTH", "--cap", "CAP"),
    ("bisim", "X", "Y"),
    ("hp-bisim", "X", "Y", "--labeled"),
    ("unfold", "X", "--depth", "DEPTH", "--cap", "CAP"),
    ("is-tree", "X", "--depth", "DEPTH", "--cap", "CAP"),
    ("oracle", "X", "Y", "--depth", "DEPTH", "--cap", "CAP"),
    ("oracle", "X", "Y", "--depth", "DEPTH", "--cap", "CAP", "--labeled"),
)


def _run(argv):
    """`main` on argv: its exit code and its one JSON report."""
    out = io.StringIO()
    code = main(argv, out=out)
    text = out.getvalue()
    assert text.endswith("\n") and text.count("\n") == 1, (argv, text)
    report = json.loads(text)
    assert isinstance(report, dict) and "result" in report, (argv, text)
    return code, report


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_cli_on_mutated_models_exits_cleanly(data):
    x_base = data.draw(st.sampled_from(_BASES))
    y_base = data.draw(st.sampled_from(_BASES))
    x_seed = data.draw(st.integers(min_value=0, max_value=2**32))
    mutate_x, mutate_y = data.draw(st.booleans()), data.draw(st.booleans())
    flags = {"CAP": data.draw(st.sampled_from(_CAPS)),
             "DEPTH": data.draw(st.sampled_from(_DEPTHS))}
    # An unmutated X is valid, so the drawn flags reach the enumerations.
    x = mutate_model_dict(random.Random(x_seed), x_base) if mutate_x else x_base
    y = mutate_model_dict(random.Random(x_seed + 1), y_base) if mutate_y else y_base
    with tempfile.TemporaryDirectory() as tmp:
        files = {"X": Path(tmp) / "x.json", "Y": Path(tmp) / "y.json"}
        for key, model in (("X", x), ("Y", y)):
            files[key].write_text(json.dumps(model), encoding="utf-8")
        slots = {**files, **flags}
        for command in _COMMANDS:
            argv = [str(slots.get(arg, arg)) for arg in command]
            code, report = _run(argv)
            assert code in (0, 1, 2, 3), (argv, x, y, report)


# Event names, and ones the torus must reject: separators, blanks, and a
# name given twice.
_EVENT_NAMES = ("a", "b", "c", "é")
_BAD_EVENT_NAMES = ("a.b", "x y", "p/q", "@", "a")
_MAXDIMS = ("-1", "0", "1", "2", "2", "3")


def _ids_of(model):
    cubes = model.get("cubes") if isinstance(model, dict) else None
    ids = [c.get("id") for c in cubes if isinstance(c, dict)] \
        if isinstance(cubes, list) else []
    return [c for c in ids if isinstance(c, str)]


def _draw_path(data, rng, model):
    """A comma-separated id list: a pointed walk of the model when it loads,
    possibly with one step swapped for another id, or ids drawn at random."""
    try:
        hda = hb.model_from_dict(model).hda
        seq = list(random_pointed_path(rng, hda, 6).seq)
    except (hb.ModelError, KeyError, IndexError):
        seq = []
    ids = _ids_of(model) + ["ghost", ""]
    how = data.draw(st.sampled_from(("walk", "walk", "swap", "random")))
    if how == "swap" and seq:
        seq[rng.randrange(len(seq))] = rng.choice(ids)
    elif how == "random" or not seq:
        seq = [rng.choice(ids) for _ in range(rng.randint(0, 5))]
    return ",".join(seq)


def _draw_map(data, rng, x, y):
    """The text of a map file: an identity, a random or damaged id map, or
    JSON that is not an id map at all."""
    xs, ys = _ids_of(x), _ids_of(y) or ["ghost"]
    how = data.draw(st.sampled_from(
        ("identity", "random", "drop", "junk-value", "not-object", "broken")))
    mapping = ({c: c for c in xs} if how == "identity"
               else {c: rng.choice(ys) for c in xs})
    if how == "drop" and mapping:
        del mapping[rng.choice(sorted(mapping))]
    elif how == "junk-value" and mapping:
        mapping[rng.choice(sorted(mapping))] = rng.choice((1, None, ["a"]))
    elif how == "not-object":
        return json.dumps(sorted(mapping))
    elif how == "broken":
        return json.dumps(mapping)[:-1]
    return json.dumps(mapping)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_cli_path_map_and_torus_commands_exit_cleanly(data):
    x_base = data.draw(st.sampled_from(_BASES))
    y_base = data.draw(st.sampled_from(_BASES + [x_base] * 3))
    seed = data.draw(st.integers(min_value=0, max_value=2**32))
    rng = random.Random(seed)
    x = mutate_model_dict(rng, x_base) if data.draw(st.booleans()) else x_base
    y = mutate_model_dict(rng, y_base) if data.draw(st.booleans()) else y_base
    names = data.draw(st.lists(st.sampled_from(_EVENT_NAMES), max_size=3,
                               unique=True))
    if data.draw(st.integers(min_value=0, max_value=3)) == 0:
        names.append(data.draw(st.sampled_from(_BAD_EVENT_NAMES)))
    path = _draw_path(data, rng, x)
    maxdim = data.draw(st.sampled_from(_MAXDIMS))
    commands = [
        # The second path is the first one again in a third of the runs.
        ["homotopic", "X", "--path", path, "--path",
         data.draw(st.sampled_from((path, _draw_path(data, rng, x),
                                    _draw_path(data, rng, x)))),
         "--cap", data.draw(st.sampled_from(_CAPS))],
        ["fan", "X", "--path", path],
        ["open-map", "X", "Y", "--map", "MAP"],
        ["torus", "--events", ",".join(names), "--maxdim", maxdim],
        ["torus", "--events", ",".join(names), "--maxdim", maxdim,
         "--unfold-depth", data.draw(st.sampled_from(("0", "1", "4")))],
    ]
    with tempfile.TemporaryDirectory() as tmp:
        files = {"X": Path(tmp) / "x.json", "Y": Path(tmp) / "y.json",
                 "MAP": Path(tmp) / "map.json"}
        files["X"].write_text(json.dumps(x), encoding="utf-8")
        files["Y"].write_text(json.dumps(y), encoding="utf-8")
        files["MAP"].write_text(_draw_map(data, rng, x, y), encoding="utf-8")
        for command in commands:
            argv = [str(files.get(arg, arg)) for arg in command]
            code, report = _run(argv)
            assert code in (0, 1, 2, 3), (argv, x, y, report)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_cli_on_valid_truncations_exits_cleanly(data):
    # A truncation of a valid model is valid, so every request gets past
    # validation; the walks must then handle the omitted upper faces.
    base = hb.model_from_dict(data.draw(st.sampled_from(_BASES)))
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=2**32)))
    cut = truncated(rng, base.hda)
    assert hb.validate_model(cut, base.labeling).ok
    x = hb.model_to_dict(cut, base.labeling)
    y = data.draw(st.sampled_from(_BASES + [hb.model_to_dict(base.hda)]))
    paths = [",".join(random_pointed_path(rng, cut, 7).seq) for _ in range(2)]
    # Caps that let most walks finish, so that they reach the omissions.
    flags = ["--depth", data.draw(st.sampled_from(("3", "5", "7"))),
             "--cap", data.draw(st.sampled_from(("1000", "2")))]
    with tempfile.TemporaryDirectory() as tmp:
        X, Y = str(Path(tmp) / "x.json"), str(Path(tmp) / "y.json")
        for path, model in ((X, x), (Y, y)):
            Path(path).write_text(json.dumps(model), encoding="utf-8")
        for argv in (["unfold", X, *flags], ["is-tree", X, *flags],
                     ["oracle", X, Y, *flags], ["fan", X, "--path", paths[0]],
                     ["homotopic", X, "--path", paths[0], "--path", paths[1],
                      "--cap", flags[3]]):
            code, report = _run(argv)
            assert code in (0, 1, 2, 3), (argv, x, report)
            assert "None" not in report.get("error", ""), (argv, x, report)
