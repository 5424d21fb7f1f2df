"""Command-line interface: exit codes, reports, round trips."""

import hashlib
import io
import itertools
import json
import re
import shutil
from pathlib import Path

import pytest

import hdabisim as hb
from hdabisim.cli import main
from hdabisim.generators import grid_hda

from conftest import MODELS, model_dict, model_dict_ref, read_written_json


def run(*argv):
    buf = io.StringIO()
    code = main(list(argv), out=buf)
    return code, buf.getvalue()


def run_json(*argv):
    code, text = run(*argv)
    return code, json.loads(text)


def model(name):
    return str(MODELS / name)


def test_validate_ok():
    code, report = run_json("validate", model("fig2_square.json"))
    assert code == 0
    assert report["result"] is True


def test_validate_bad_model(tmp_path):
    data = json.loads((MODELS / "fig2_square.json").read_text())
    data["initial"] = "btm"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, report = run_json("validate", str(bad))
    assert code == 1
    assert report["result"] is False
    assert any(v["kind"] == "initial-dimension" for v in report["violations"])


def test_malformed_json_is_input_error(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    code, report = run_json("validate", str(bad))
    assert code == 2
    assert report["result"] == "error"


def test_unknown_field_is_input_error(tmp_path):
    data = json.loads((MODELS / "fig2_square.json").read_text())
    data["zzz"] = 1
    bad = tmp_path / "extra.json"
    bad.write_text(json.dumps(data))
    code, _report = run_json("validate", str(bad))
    assert code == 2


def test_bisim_exit_codes():
    code, report = run_json("bisim", model("fig1_left.json"), model("fig1_right.json"))
    assert code == 1 and report["result"] is False
    code, report = run_json("bisim", model("fig5_x.json"), model("fig5_y.json"))
    assert code == 0 and report["result"] is True


def test_labeled_bisim():
    code, report = run_json("bisim", model("ab_square_abc.json"),
                            model("ac_square_abc.json"), "--labeled")
    assert code == 1 and report["result"] is False
    code, _ = run_json("bisim", model("ab_square_abc.json"),
                       model("ab_square_abc.json"), "--labeled")
    assert code == 0


def test_labeled_requires_labels():
    code, report = run_json("bisim", model("fig2_square.json"),
                            model("fig2_square.json"), "--labeled")
    assert code == 2
    assert report["result"] == "error"


def test_hp_bisim_alias():
    code, report = run_json("hp-bisim", model("fig1_left.json"),
                            model("fig1_right.json"))
    assert code == 1
    assert "hp-bisimilarity" in report["justification"]


def test_homotopic_true_false_cap_exceeded():
    args = ("homotopic", model("fig3.json"),
            "--path", "i,a,x,b,bc,c,z,d", "--path", "i,a,x,cb,y,tb,z,d")
    code, report = run_json(*args)
    assert code == 0 and report["result"] is True
    # --cap counts the classes of the paths from i up to length 8.
    code, report = run_json(*args, "--cap", "2")
    assert code == 3 and report == {
        "result": "cap-exceeded",
        "error": "more than 2 homotopy classes within depth 8"}
    code, report = run_json("homotopic", model("fig3.json"),
                            "--path", "i,a,x,b,bc,c,z,d",
                            "--path", "i,a,x,b,bc,c,z")
    assert code == 1 and report["result"] is False


def test_homotopic_invalid_path_is_input_error():
    code, _ = run_json("homotopic", model("fig3.json"),
                       "--path", "i,z", "--path", "i,a")
    assert code == 2


def test_fan():
    code, report = run_json("fan", model("fig3.json"),
                            "--path", "i,a,x,b,bc,c,z,d")
    assert code == 0
    assert report["fan"] == ["i", "a", "x", "b", "w", "c", "z", "d"]
    assert report["t_before"] == 6 and report["t_after"] == 4
    assert report["fan_shaped"] is True


def test_reachable_and_paths():
    code, report = run_json("reachable", model("fig5_x.json"))
    assert code == 0 and report["count"] == 4
    code, report = run_json("paths", model("fig1_left.json"), "--max-len", "3")
    assert code == 0 and report["count"] == 7


def test_is_tree():
    code, _ = run_json("is-tree", model("fig1_left.json"), "--depth", "5")
    assert code == 0
    code, _ = run_json("is-tree", model("fig1_right.json"), "--depth", "5")
    assert code == 1


def test_is_tree_cap_counts_classes(tmp_path):
    grid = tmp_path / "grid.json"
    hb.dump_model(grid_hda((2, 2, 2)), grid)
    code, report = run_json("is-tree", str(grid), "--depth", "13")
    assert code == 0 and report["result"] is True
    code, report = run_json("is-tree", str(grid), "--depth", "13", "--cap", "20")
    assert code == 3 and report["result"] == "cap-exceeded"


def test_unfold_round_trip(tmp_path):
    out = tmp_path / "tree.json"
    code, report = run_json("unfold", model("fig3.json"), "--depth", "9",
                            "--out", str(out))
    assert code == 0
    assert report["complete"] is True
    code, _ = run_json("validate", str(out))
    assert code == 0
    code, _ = run_json("is-tree", str(out), "--depth", "9")
    assert code == 0
    sidecar = json.loads((tmp_path / "tree.projection.json").read_text())
    assert sidecar["i"] == "i"
    assert all(proj in ("i", "a", "x", "w", "y", "z", "v", "b", "c", "cb", "tb", "bc", "d")
               for proj in sidecar.values())


def test_unfold_truncated_round_trip(tmp_path):
    out = tmp_path / "line.json"
    code, report = run_json("unfold", model("fig5_x.json"), "--depth", "4",
                            "--out", str(out))
    assert code == 0 and report["complete"] is False
    code, _ = run_json("validate", str(out))
    assert code == 0
    code, _ = run_json("is-tree", str(out), "--depth", "4")
    assert code == 0


def test_labeled_requests_validate_each_labeling_once(monkeypatch):
    """The decisions and the oracle refuse an invalid labeling, but do not
    validate again one that the CLI has validated."""
    calls = []
    validate_labeling = hb.core.validate_labeling

    def counted(hda, labeling):
        calls.append(hda)
        return validate_labeling(hda, labeling)

    monkeypatch.setattr(hb.core, "validate_labeling", counted)
    for argv in (("hp-bisim",), ("bisim",), ("oracle", "--depth", "3")):
        calls.clear()
        code, _ = run(*argv, model("ab_square_abc.json"),
                      model("ac_square_abc.json"), "--labeled")
        assert code == 1, argv
        assert len(calls) == 2 and calls[0] is not calls[1], argv


def test_unfold_out_files_match_json_dump(tmp_path):
    """`unfold --out` writes the tree and its projection sidecar as one
    ASCII line each, parsing to the unfolding's content; the tree loads
    back as the unfolding."""
    for name, depth in (("fig5_x.json", 4), ("fig3.json", 9),
                        ("ab_square_abc.json", 5)):
        out = tmp_path / "tree.json"
        code, _ = run_json("unfold", model(name), "--depth", str(depth),
                           "--out", str(out))
        assert code == 0
        unfolding = hb.unfold(hb.load_model(MODELS / name).hda, depth)
        assert read_written_json(out) == model_dict_ref(unfolding.tree), name
        table = unfolding.projection_table()
        side = read_written_json(tmp_path / "tree.projection.json")
        assert side == table and list(side) == list(table), name
        again = hb.load_model(out)
        assert again.hda.space == unfolding.tree.space, name
        assert again.hda.initial == unfolding.tree.initial, name
        assert again.labeling is None, name


def test_unfold_leaves_no_tree_when_the_sidecar_fails(tmp_path):
    (tmp_path / "t.projection.json").mkdir()
    out = tmp_path / "t.json"
    code, report = run_json("unfold", model("fig3.json"), "--depth", "3",
                            "--out", str(out))
    assert code == 2 and report["error"].startswith("cannot write "), report
    assert not out.exists()


def test_unfold_to_an_empty_path_is_an_input_error(tmp_path, monkeypatch):
    # An empty --out names no file; it is not the same as leaving --out off.
    monkeypatch.chdir(tmp_path)
    code, report = run_json("unfold", model("fig3.json"), "--depth", "3",
                            "--out", "")
    assert code == 2 and report["error"].startswith("cannot write : "), report
    assert list(tmp_path.iterdir()) == []


def test_undecodable_files_are_input_errors(tmp_path):
    # Bytes that are not UTF-8, nesting deeper than the parser recurses and
    # an integer with more digits than Python converts: an input error
    # (exit 2) in a model file and in a --map file, not a crash (exit 4).
    contents = {"not-utf8": b'{"cubes": [], "initial": "\xff"}',
                "deep": b"[" * 100_000 + b"]" * 100_000,
                "long-int": b'{"cubes": [], "initial": ' + b"1" * 5000 + b"}"}
    good = model("fig3.json")
    for name, content in contents.items():
        bad = tmp_path / f"{name}.json"
        bad.write_bytes(content)
        for argv, prefix in ((("validate", str(bad)), "malformed JSON in "),
                             (("bisim", good, str(bad)), "malformed JSON in "),
                             (("open-map", good, good, "--map", str(bad)),
                              "cannot read map file ")):
            code, report = run_json(*argv)
            assert code == 2 and report["error"].startswith(prefix), (
                name, argv, report)
        with pytest.raises(hb.ModelError, match="^malformed JSON in "):
            hb.load_model(bad)


def test_oracle_exit_codes():
    code, report = run_json("oracle", model("fig5_x.json"), model("fig5_y.json"),
                            "--depth", "6")
    assert code == 3 and report["result"] == "inconclusive"
    code, report = run_json("oracle", model("fig1_left.json"),
                            model("fig1_right.json"), "--depth", "4")
    assert code == 1 and report["result"] is False


def test_oracle_pair_universe_is_capped():
    # Each depth-6 unfolding of the two squares has 9 nodes, well under the
    # cap; the oracle's universe is the 15 node pairs reached from the
    # initial pair.
    left, right = model("fig1_left.json"), model("fig1_right.json")
    code, report = run_json("oracle", left, right, "--depth", "6", "--cap", "14")
    assert code == 3 and report == {
        "result": "cap-exceeded",
        "error": "the oracle reached more than 14 node pairs from the "
                 "initial pair"}
    code, report = run_json("oracle", left, right, "--depth", "6", "--cap", "15")
    assert code == 1 and report["result"] is False


def test_oracle_witness_holds_the_reached_survivors():
    # Both models are cycles of edges, so each depth-6 unfolding is a line
    # and only its diagonal is reached from the initial pair.
    code, report = run_json("oracle", model("fig5_x.json"), model("fig5_y.json"),
                            "--depth", "6")
    assert code == 3 and report["result"] == "inconclusive"
    assert report["witness"] == [
        ["x", "p"], ["x/e1", "p/f1"], ["x/e1/y", "p/f1/q"],
        ["x/e1/y/e2", "p/f1/q/f2"], ["x/e1/y/e2/x", "p/f1/q/f2/r"],
        ["x/e1/y/e2/x/e1", "p/f1/q/f2/r/f3"]]


def test_oracle_labeled():
    ab, ac = model("ab_square_abc.json"), model("ac_square_abc.json")
    # Without --labeled the oracle decides the unlabeled question.
    code, report = run_json("oracle", ab, ac, "--depth", "6")
    assert code == 0 and report["result"] is True
    code, report = run_json("oracle", ab, ac, "--depth", "6", "--labeled")
    assert code == 1 and report["result"] is False
    code, report = run_json("hp-bisim", ab, ac, "--labeled")
    assert code == 1 and report["result"] is False
    code, report = run_json("oracle", ab, ab, "--depth", "6", "--labeled")
    assert code == 0 and report["result"] is True
    code, report = run_json("oracle", model("fig5_x.json"), ab, "--depth", "6",
                            "--labeled")
    assert code == 2
    assert report["error"] == "--labeled requires events/labels in both models"


def test_paths_honours_the_cap(tmp_path):
    torus = tmp_path / "torus.json"
    hda, labeling = hb.torus_hda(hb.EventSet(("a", "b")), 2)
    hb.dump_model(hda, torus, labeling)
    code, report = run_json("paths", str(torus), "--max-len", "6", "--cap", "100")
    assert code == 0 and report["count"] == 99
    code, report = run_json("paths", str(torus), "--max-len", "6", "--cap", "99")
    assert code == 0 and report["count"] == 99
    code, report = run_json("paths", str(torus), "--max-len", "6", "--cap", "98")
    assert code == 3 and report["result"] == "cap-exceeded"
    code, report = run_json("paths", str(torus), "--max-len", "8", "--cap", "100")
    assert code == 3 and report["result"] == "cap-exceeded"
    # About 2e8 paths: the count stops the enumeration at the default cap.
    code, report = run_json("paths", str(torus), "--max-len", "24")
    assert code == 3 and report["result"] == "cap-exceeded"
    assert "100000" in report["error"]


def test_open_map(tmp_path):
    mapping = {c: c for c in
               hb.load_model(MODELS / "fig1_right.json").hda.space.ids()}
    map_file = tmp_path / "map.json"
    map_file.write_text(json.dumps(mapping))
    code, report = run_json("open-map", model("fig1_right.json"),
                            model("fig1_left.json"), "--map", str(map_file))
    assert code == 1
    assert report["counterexample"] == {"x1": "a", "y2": "ab", "k": 2}


def test_torus_subcommand():
    code, report = run_json("torus", "--events", "a,b", "--maxdim", "2",
                            "--unfold-depth", "3")
    assert code == 0
    ids = {c["id"] for c in report["torus"]["cubes"]}
    assert ids == {"()", "a", "b", "a.a", "a.b", "b.b"}
    assert report["torus"]["labels"]["a.b"] == [1, 2]
    unfold_ids = {c["id"] for c in report["unfolding"]["cubes"]}
    assert "()@0" in unfold_ids


def test_is_tree_requires_depth():
    code, report = run_json("is-tree", model("fig1_left.json"), "--depth", "5")
    assert code == 0 and report["depth"] == 5
    code, report = run_json("is-tree", model("fig1_left.json"))
    assert code == 2 and report["error"] == (
        "hdabisim is-tree: the following arguments are required: --depth")


def test_homotopic_honours_the_cap():
    code, report = run_json("homotopic", model("fig3.json"),
                            "--path", "i,a,x,b,bc,c,z,d",
                            "--path", "i,a,x,cb,y,tb,z,d", "--cap", "2")
    assert code == 3 and report["result"] == "cap-exceeded"


def test_pretty_output():
    code, text = run("validate", model("fig2_square.json"), "--pretty")
    assert code == 0
    assert "result: True" in text


def test_usage_error_exit_code():
    code, _ = run("bogus-subcommand")
    assert code == 2


@pytest.mark.parametrize("argv, error", [
    (("bogus-subcommand",), "hdabisim: argument command: invalid choice"),
    (("bisim", "FIG1"), "hdabisim bisim: the following arguments are "
                        "required: fileY"),
    (("unfold", "FIG1", "--depth", "x"),
     "hdabisim unfold: argument --depth: invalid int value: 'x'"),
    (("unfold", "FIG1"),
     "hdabisim unfold: the following arguments are required: --depth"),
    # Numeric options are checked before any model file is read.
    (("unfold", "missing.json", "--depth", "0"),
     "hdabisim unfold: argument --depth: must be >= 1, got 0"),
    (("torus", "--events", "a", "--maxdim", "-1"),
     "hdabisim torus: argument --maxdim: must be >= 0, got -1"),
], ids=["unknown-subcommand", "missing-positional", "bad-depth-type",
        "missing-depth", "depth-zero-before-load", "negative-maxdim"])
def test_usage_errors_print_one_error_line(argv, error, capsys):
    argv = [model("fig1_left.json") if a == "FIG1" else a for a in argv]
    code, text = run(*argv)
    assert code == 2
    report = json.loads(text)
    assert report["result"] == "error" and report["error"].startswith(error)
    assert text.count("\n") == 1
    # The usage text stays on stderr, as argparse prints it.
    err = capsys.readouterr().err
    assert err.startswith("usage: hdabisim") and "error: " in err


def test_help_and_version_print_to_out(capsys):
    code, text = run("--version")
    assert (code, text.strip()) == (0, hb.__version__)
    code, text = run("unfold", "--help")
    assert code == 0 and text.startswith("usage: hdabisim unfold")
    code, text = run("--help")
    assert code == 0 and "--cap counts homotopy classes" in text
    assert capsys.readouterr().out == ""


@pytest.fixture
def in_models_copy(tmp_path, monkeypatch):
    """Work in a directory holding a copy of `models/`, so that reports name
    relative paths and written files land next to the copy."""
    shutil.copytree(MODELS, tmp_path / "models")
    monkeypatch.chdir(tmp_path)
    return tmp_path


_FIG3 = "models/fig3.json"
_OPEN_MAP = ("open-map", "models/fig1_right.json", "models/fig1_left.json",
             "--map", "map.json")
# (argv, text of map.json or None for no map file)
_INPUT_ERRORS = [
    pytest.param(("unfold", _FIG3, "--depth", "3", "--cap", "0"),
                 None, id="cap-zero"),
    pytest.param(("is-tree", _FIG3, "--depth", "3", "--cap", "abc"),
                 None, id="cap-not-an-integer"),
    pytest.param(("paths", _FIG3, "--max-len", "0"),
                 None, id="paths-max-len-zero"),
    pytest.param(("homotopic", _FIG3, "--path", "i,a,x,b,bc,c,z,d"),
                 None, id="homotopic-one-path"),
    pytest.param(_OPEN_MAP, None, id="open-map-missing-file"),
    pytest.param(_OPEN_MAP, '["i"]', id="open-map-not-an-object"),
    # Every cube, edges included, sent to the initial vertex.
    pytest.param(_OPEN_MAP, json.dumps(dict.fromkeys(
        ("a", "a2", "b", "b2", "f", "i", "p", "q"), "i")),
        id="open-map-not-a-morphism"),
    pytest.param(("torus", "--events", "a", "--maxdim", "-1"),
                 None, id="torus-negative-maxdim"),
    pytest.param(("torus", "--events", "a", "--maxdim", "1",
                  "--unfold-depth", "0"), None, id="torus-unfold-depth-zero"),
    pytest.param(("unfold", _FIG3, "--depth", "3", "--out", "missing/t.json"),
                 None, id="unfold-out-in-a-missing-directory"),
    pytest.param(("unfold", _FIG3, "--depth", "3", "--out", "models"),
                 None, id="unfold-out-is-a-directory"),
]


def _run_case(argv, map_text=None):
    """Run `argv` in the current directory with, unless `map_text` is None,
    a `map.json` holding it."""
    map_file = Path("map.json")
    if map_text is not None:
        map_file.write_text(map_text, encoding="utf-8")
    result = run(*argv)
    map_file.unlink(missing_ok=True)
    return result


@pytest.mark.parametrize("argv, map_text", _INPUT_ERRORS)
def test_input_errors_exit_2_with_one_report(argv, map_text, in_models_copy):
    code, text = _run_case(argv, map_text)
    assert code == 2, text
    assert text.endswith("\n") and text.count("\n") == 1, text
    assert json.loads(text)["result"] == "error"


def test_hp_bisim_labeled():
    code, report = run_json("hp-bisim", model("ab_square_abc.json"),
                            model("ac_square_abc.json"), "--labeled")
    assert code == 1 and report["result"] is False


def test_torus_empty_alphabet():
    code, report = run_json("torus", "--events", "", "--maxdim", "3")
    assert code == 0
    assert [c["id"] for c in report["torus"]["cubes"]] == ["()"]


def test_torus_refuses_an_event_named_like_its_vertex():
    code, report = run_json("torus", "--events", "()", "--maxdim", "1")
    assert (code, report) == (2, {
        "result": "error",
        "error": "event name '()' is the id of the torus vertex"})


def test_fan_rejects_unpointed_path():
    code, _ = run_json("fan", model("fig3.json"), "--path", "a,x")
    assert code == 2


# An edge whose upper face was cut off, a one-loop model and a lone vertex.
_TRUNCATED_MODELS = {
    "truncated": {"cubes": [{"id": "v", "dim": 0, "d0": [], "d1": []},
                            {"id": "e", "dim": 1, "d0": ["v"], "d1": [None]}],
                  "initial": "v", "frontier": ["e"]},
    "loop": {"cubes": [{"id": "v", "dim": 0, "d0": [], "d1": []},
                       {"id": "e", "dim": 1, "d0": ["v"], "d1": ["v"]}],
             "initial": "v"},
    "point": {"cubes": [{"id": "v", "dim": 0, "d0": [], "d1": []}],
              "initial": "v"},
}


def _truncated_models(tmp_path):
    """The paths of `_TRUNCATED_MODELS`, written to `tmp_path`."""
    paths = []
    for name, data in _TRUNCATED_MODELS.items():
        paths.append(str(tmp_path / f"{name}.json"))
        Path(paths[-1]).write_text(json.dumps(data))
    return paths


def test_bisim_rejects_truncated_models(tmp_path):
    # A truncated edge's upper face is unknown, so no definite verdict
    # against the one-loop model exists; the oracle is the tool for it.
    truncated, loop, _point = _truncated_models(tmp_path)
    for command in ("bisim", "hp-bisim"):
        for pair in ((truncated, loop), (loop, truncated)):
            code, report = run_json(command, *pair)
            assert code == 2
            assert report["result"] == "error"
            assert "oracle" in report["error"]


def test_oracle_decides_what_truncated_models_show(tmp_path):
    # Past the cut edge nothing is known, so against the loop the oracle
    # answers `inconclusive` at every depth; a vertex that cannot start the
    # edge differs within the bound, which is a definite False.
    truncated, loop, point = _truncated_models(tmp_path)
    for depth in ("2", "5"):
        for pair in ((truncated, loop), (loop, truncated)):
            code, report = run_json("oracle", *pair, "--depth", depth)
            assert code == 3 and report["result"] == "inconclusive", report
            assert report["exact"] is False
    code, report = run_json("oracle", truncated, point, "--depth", "3")
    assert code == 1 and report["result"] is False, report


def test_internal_error_exit_code(monkeypatch):
    # A witness failing its audit is an engine bug: exit 4, not 1.
    monkeypatch.setattr("hdabisim.bisim.verify_bisim_relation",
                        lambda *args, **kwargs: ["forced problem"])
    code, report = run_json("bisim", model("fig5_x.json"), model("fig5_y.json"))
    assert code == 4
    assert set(report) == {"result", "error"}
    assert report["result"] == "internal-error"
    assert report["error"].startswith("RuntimeError: ")
    assert "forced problem" in report["error"]


def test_torus_is_bounded_by_the_cap():
    argv = ("torus", "--events", "a,b", "--maxdim", "2")
    assert run_json(*argv, "--cap", "6")[0] == 0
    code, report = run_json(*argv, "--cap", "5")
    assert code == 3 and report == {
        "result": "cap-exceeded",
        "error": "the torus has 6 cubes, more than 5"}
    # The unfolding counts its nodes: 9 here, over 3 torus cubes.
    argv = ("torus", "--events", "a,b", "--maxdim", "1", "--unfold-depth", "4")
    assert run_json(*argv, "--cap", "9")[0] == 0
    code, report = run_json(*argv, "--cap", "8")
    assert code == 3 and report == {
        "result": "cap-exceeded",
        "error": "more than 8 nodes in the torus unfolding within "
                 "depth 4"}
    # Without --cap the default cap applies: C(1004, 4), about 4.2e10
    # cubes, is refused before any is built.
    code, report = run_json("torus", "--events", "a,b,c,d", "--maxdim", "1000")
    assert code == 3 and "more than 100000" in report["error"]
    code, report = run_json("torus", "--events", "", "--maxdim", str(10**9),
                            "--unfold-depth", str(10**9))
    assert code == 0 and len(report["unfolding"]["cubes"]) == 1


def test_frontier_must_name_cubes(tmp_path):
    data = json.loads((MODELS / "fig5_x.json").read_text())
    data["frontier"] = ["ghost"]
    ghost = tmp_path / "ghost.json"
    ghost.write_text(json.dumps(data))
    code, report = run_json("validate", str(ghost))
    assert code == 1
    assert [v["kind"] for v in report["violations"]] == ["frontier-unknown"]
    for argv in (("reachable", str(ghost)), ("unfold", str(ghost), "--depth", "3"),
                 ("bisim", model("fig5_x.json"), str(ghost)),
                 ("oracle", str(ghost), str(ghost), "--depth", "3")):
        code, report = run_json(*argv)
        assert code == 2, argv
        assert report["error"] == (f"{ghost} is not a valid model: "
                                   "frontier cube 'ghost' does not exist")


def test_torus_unfolding_respects_maxdim():
    code, report = run_json("torus", "--events", "a,b", "--maxdim", "1",
                            "--unfold-depth", "4")
    assert code == 0
    cubes = report["unfolding"]["cubes"]
    assert len(cubes) == 9
    assert max(c["dim"] for c in cubes) == 1


def test_parser_is_built_once_and_reused(monkeypatch, capsys):
    import hdabisim.cli as cli

    sequence = [
        ("bisim", model("fig1_left.json"), model("fig1_right.json")),
        ("bisim", model("fig1_left.json")),
        ("--version",),
        ("unfold", model("fig3.json"), "--depth", "4"),
    ]

    def call(argv):
        code, text = run(*argv)
        captured = capsys.readouterr()
        return code, text, captured.out, captured.err

    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda: built.append(1) or build())
    cli._parser.cache_clear()
    reused = [call(argv) for argv in sequence]
    assert len(built) == 1
    fresh = []
    for argv in sequence:
        cli._parser.cache_clear()
        fresh.append(call(argv))
    cli._parser.cache_clear()
    assert reused == fresh
    assert [code for code, *_ in reused] == [1, 2, 0, 0]
    assert "required: fileY" in reused[1][3]
    assert reused[2][1].strip() == hb.__version__


def test_huge_depth_reports_equal_the_complete_depth():
    # Each model's unfolding is complete well within depth 50, so the
    # layers stop once the classes run out and depth 10**9 costs no more.
    huge = str(10**9)
    for argv in (("unfold", model("fig2_square.json")),
                 ("unfold", model("fig3.json")),
                 ("is-tree", model("fig2_square.json")),
                 ("is-tree", model("fig1_left.json")),
                 ("oracle", model("fig2_square.json"), model("fig2_square.json")),
                 ("oracle", model("fig1_left.json"), model("fig1_right.json"))):
        code, report = run_json(*argv, "--depth", "50")
        big_code, big = run_json(*argv, "--depth", huge)
        assert big.pop("depth") == 10**9 and report.pop("depth") == 50
        assert (big_code, big) == (code, report), argv
    # The path enumeration stops at its first empty length as well.
    for name in ("fig2_square.json", "fig3.json"):
        report = run_json("paths", model(name), "--max-len", "50")
        assert run_json("paths", model(name), "--max-len", huge) == report


def _readme_cli_lines():
    readme = (MODELS.parent / "README.md").read_text(encoding="utf-8")
    lines, in_sh = [], False
    for line in readme.splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
        elif in_sh and line.startswith("hdabisim "):
            lines.append(line.split("#")[0].split()[1:])
    return lines


def test_readme_examples_run(in_models_copy):
    lines = _readme_cli_lines()
    assert len(lines) >= 13
    for argv in lines:
        code, text = run(*argv)
        assert code in (0, 1, 3), (argv, text)
        report = json.loads(text)
        if argv[0] == "open-map":
            assert code == 1
            assert report["counterexample"] == {"x1": "a", "y2": "ab", "k": 2}
    assert (in_models_copy / "tree.json").exists()
    assert (in_models_copy / "tree.projection.json").exists()


def test_reports_do_not_read_the_environment(in_models_copy, monkeypatch):
    # Variables that once set a default cap and depth change no byte.
    def outputs():
        reports = [run(*argv) for argv in _readme_cli_lines()]
        return reports, [Path(name).read_bytes()
                         for name in ("tree.json", "tree.projection.json")]

    plain = outputs()
    monkeypatch.setenv("HDABISIM_CAP", "1")
    monkeypatch.setenv("HDABISIM_DEPTH", "1")
    assert outputs() == plain


def test_readme_quick_start_runs(monkeypatch):
    readme = (MODELS.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    assert len(blocks) == 1
    monkeypatch.chdir(MODELS.parent)
    exec(compile(blocks[0], "README.md", "exec"), {})


# sha256 over "<x> <y> <exit code>\n" plus the stdout of every decision
# below, one digest per subcommand and flag, recorded from a build known to
# be right, so that a rewrite of the engine cannot change a byte unnoticed.
_DECISION_DIGESTS = {
    ("bisim", False):
        "d81b6a9f5631621880fae5a6aca97761886c1e215096888bfd54aaf121defb1e",
    ("bisim", True):
        "d3ca4fa312d94c0ce70d9a5974416fb583a66140df29aee3c73d8aa803a533a0",
    ("hp-bisim", False):
        "27e22da0f244d42770cf91d1e72dcd8efc898797af819921b4b717b212322a3f",
    ("hp-bisim", True):
        "9e582c67619f3e9fb7849d00d64e0bdf4cdb66b0c7f5d2b317680aa239a818ea",
}


# The same for groups of requests run in a copy of `models/`, over
# "<argv> <exit code>\n" plus stdout; the README groups also hash the files
# that `unfold --out` writes.
_REQUEST_DIGESTS = {
    "readme":
        "9601c6dd144319a4e92ef9d5cf6ce7717a94b0855017815b56a791898927e560",
    "readme --pretty":
        "6701f540273e24bb83df36943b41eb6e27b16842286db3661bf02c704e178db7",
    "input errors":
        "5f29aa84d7867388e2e8c40df328b315e41689b4caf958714f18cffd4a7c488d",
    "double faults":
        "ee20df6a57382ae2d5454f6a12611a7a051d8dea94b61ab82cd62d68fc83ffd6",
}
# Two faults in one request; the report names the first one met.  Numeric
# options are checked as the argv is parsed, before any model file is
# loaded; every model file is loaded before any is validated, and the
# models are validated before the subcommand runs.  A failure stays one
# JSON line under --pretty.
_DOUBLE_FAULTS = (
    ("bisim", "invalid.json", "missing.json"),
    ("unfold", "invalid.json", "--depth", "0"),
    ("oracle", "models/fig3.json", "invalid.json", "--depth", "0", "--pretty"),
    ("oracle", "invalid.json", "models/fig3.json", "--depth", "3", "--labeled"),
)


def _request_digests():
    invalid = model_dict("fig2_square.json")
    invalid["initial"] = "btm"
    Path("invalid.json").write_text(json.dumps(invalid), encoding="utf-8")
    readme = _readme_cli_lines()
    groups = {
        "readme": [(argv,) for argv in readme],
        "readme --pretty": [([*argv, "--pretty"],) for argv in readme],
        "input errors": [case.values for case in _INPUT_ERRORS],
        "double faults": [(argv,) for argv in _DOUBLE_FAULTS],
    }
    digests = {}
    for group, cases in groups.items():
        digest = hashlib.sha256()
        for case in cases:
            code, text = _run_case(*case)
            digest.update(f"{' '.join(case[0])} {code}\n{text}".encode())
        if group.startswith("readme"):
            for name in ("tree.json", "tree.projection.json"):
                digest.update(Path(name).read_bytes())
        digests[group] = digest.hexdigest()
    return digests


def test_decisions_on_figure_models_keep_their_bytes(in_models_copy):
    """`bisim` and `hp-bisim` on every ordered pair of figure models, and
    with `--labeled` on every ordered pair of labeled ones; then the groups
    of `_REQUEST_DIGESTS`: every README line, plain and with --pretty,
    every input error above, and the double faults."""
    names = sorted(p.name for p in MODELS.glob("*.json")
                   if p.name != "inclusion.json")
    labeled = {name for name in names
               if hb.load_model(MODELS / name).labeling is not None}
    assert len(names) == 10 and len(labeled) == 7
    for (command, flag), expected in _DECISION_DIGESTS.items():
        digest = hashlib.sha256()
        for x, y in itertools.product(names, repeat=2):
            if flag and not {x, y} <= labeled:
                continue
            code, text = run(command, model(x), model(y),
                             *(["--labeled"] if flag else []))
            digest.update(f"{x} {y} {code}\n".encode() + text.encode())
        assert digest.hexdigest() == expected, (command, flag)
    assert _request_digests() == _REQUEST_DIGESTS
