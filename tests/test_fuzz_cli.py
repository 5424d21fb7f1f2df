"""Fuzzing the CLI with model files, mutated or not, and drawn caps and
depths: every run ends in a defined exit code and prints exactly one JSON
document."""

import io
import json
import random
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import hdabisim as hb
from hdabisim.cli import main
from hdabisim.generators import grid_labeling, random_hda

from conftest import model_dict, mutate_model_dict

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
            out = io.StringIO()
            code = main(argv, out=out)
            text = out.getvalue()
            assert code in (0, 1, 2, 3), (argv, x, y, text)
            assert text.endswith("\n") and text.count("\n") == 1, (argv, text)
            report = json.loads(text)
            assert isinstance(report, dict) and "result" in report, (argv, text)
