"""Command-line front end.

Every request takes one path through `main`: parse the arguments, load every
model file the subcommand declares in `_COMMANDS`, validate the models in
order (`validate` reports on its model instead), run the subcommand, and
hand its report to `_emit`, which prints it and maps its result to the exit
code.  A failure on the way is printed as one JSON line, also under
`--pretty`, with its exit code from the same table.

Exit codes: 0 = property holds / validation ok, 1 = property fails,
2 = input error, 3 = resource cap exceeded (including `inconclusive` and
`exhausted` verdicts, which stop at a configured bound), 4 = internal error
(a bug, such as a witness failing its audit), reported as
``{"result": "internal-error", "error": "<type>: <message>"}`` with the
traceback on stderr.

Reports are JSON on stdout; `--pretty` switches to human-readable lines.
`--cap` bounds the homotopy classes built by `unfold`, `is-tree` and
`oracle`, the node pairs `oracle` starts from, and the paths enumerated by
`homotopic` and `paths`; `paths` and the pairs of `oracle` stop with exit 3
(`cap-exceeded`) as soon as their count passes the cap.  `torus` has no
`--cap`; the default cap bounds its cubes and its unfolding's nodes.
`bisim`, `hp-bisim` and `oracle` take `--labeled` to relate only cubes with
equal event labels; it requires labels in both models.  Environment variables
`HDABISIM_CAP` and `HDABISIM_DEPTH` override the default cap and the
default depth for subcommands that accept them.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import traceback
from pathlib import Path

from . import __version__
from .bisim import bisimilar, hp_bisimilar, hp_oracle, labeled_bisimilar, open_map_check
from .core import (CapExceeded, EventSet, ModelError, PrecubicalMorphism,
                   check_morphism, reachable, torus_hda, validate_model)
from .model_io import (LoadedModel, dump_id_map, dump_model, load_model,
                       model_to_dict)
from .paths import (DEFAULT_CAP, EXHAUSTED, CubePath, enumerate_pointed_paths,
                    fan_shape_trace, is_cube_path, is_fan_shaped, t_measure)
from .unfold import is_tree, torus_unfolding, unfold

# The exit code of a report's result; any result not listed is exit 2.
_EXIT_CODES = {True: 0, False: 1, "inconclusive": 3, EXHAUSTED: 3,
               "error": 2, "cap-exceeded": 3, "internal-error": 4}

# The options several subcommands take, each declared here once.
_SHARED = {
    "--labeled": {"action": "store_true",
                  "help": "relate only cubes with equal event labels"},
    "--depth": {"type": int},
    "--cap": {"type": int},
}

# name -> (help, model files, shared options, own options, validate the
# models first, runner), in the order `_command` registers them.
_COMMANDS: dict[str, tuple] = {}
_XY = ("fileX", "fileY")


def _command(name: str, help_text: str, files: tuple[str, ...] = ("file",),
             shared: tuple[str, ...] = (), own: dict | None = None,
             checked: bool = True):
    """Register a runner: `runner(args, *models)` gets one loaded model per
    file in `files`, validated unless `checked` is false, and returns its
    report."""
    def register(runner):
        _COMMANDS[name] = (help_text, files, shared, own or {}, checked, runner)
        return runner
    return register


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdabisim",
        description="Model higher-dimensional automata as pointed precubical "
                    "sets and decide history-preserving bisimilarity.",
        epilog="--cap counts homotopy classes for unfold, is-tree and oracle, "
               "node pairs for oracle, and paths for homotopic and paths.  "
               "--labeled (bisim, hp-bisim, oracle) needs labels in both "
               "models.  Environment: HDABISIM_CAP overrides the default cap "
               "(100000), which also bounds torus; HDABISIM_DEPTH supplies a "
               "default for --depth where it is omitted.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, files, shared, own, _, _) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--pretty", action="store_true",
                        help="human-readable output instead of JSON")
        for file in files:
            sp.add_argument(file)
        for flag, spec in [*own.items(), *((f, _SHARED[f]) for f in shared)]:
            sp.add_argument(flag, **spec)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and reused by every later `main` call
    in the process: building it costs far more than parsing one argv."""
    return build_parser()


def _emit(report: dict, pretty: bool, out) -> int:
    if pretty:
        for key, value in report.items():
            if isinstance(value, (list, dict)):
                value = json.dumps(value)
            print(f"{key}: {value}", file=out)
    else:
        print(json.dumps(report), file=out)
    return _EXIT_CODES.get(report.get("result"), 2)


def _parse_path(loaded: LoadedModel, raw: str) -> CubePath:
    seq = tuple(s for s in raw.split(",") if s)
    check = is_cube_path(loaded.hda.space, seq)
    if not check:
        raise ModelError(
            f"{raw!r} is not a cube path; first broken step at position "
            f"{check.failure}")
    return CubePath(loaded.hda.space, seq)


def _bound(args, name: str) -> int:
    """`--depth` or `--cap`, else the environment variable HDABISIM_DEPTH or
    HDABISIM_CAP, else the default cap (depth has none); at least 1."""
    value, env = getattr(args, name, None), f"HDABISIM_{name.upper()}"
    if value is None and env in os.environ:
        try:
            value = int(os.environ[env])
        except ValueError:
            raise ModelError(f"environment variable {env} must be an integer")
    if value is None and name == "cap":
        value = DEFAULT_CAP
    if value is None:
        raise ModelError(f"--{name} is required (or set {env})")
    if value < 1:
        raise ModelError(f"{name} must be >= 1")
    return value


def _labelings(args, lx: LoadedModel, ly: LoadedModel) -> tuple:
    """The two models' labelings under --labeled, else (None, None)."""
    if not args.labeled:
        return None, None
    if lx.labeling is None or ly.labeling is None:
        raise ModelError("--labeled requires events/labels in both models")
    return lx.labeling, ly.labeling


@_command("validate", "check a model file for structural validity",
          checked=False)
def _run_validate(args, loaded: LoadedModel) -> dict:
    report = validate_model(loaded.hda, loaded.labeling).to_json()
    report["file"] = args.file
    return report


@_command("reachable", "list the cubes reachable from the initial cube")
def _run_reachable(args, loaded: LoadedModel) -> dict:
    cubes = sorted(reachable(loaded.hda))
    return {"result": True, "reachable": cubes, "count": len(cubes)}


@_command("paths", "enumerate pointed cube paths up to a length bound",
          shared=("--cap",), own={"--max-len": {"type": int, "required": True}})
def _run_paths(args, loaded: LoadedModel) -> dict:
    if args.max_len < 1:
        raise ModelError("--max-len must be >= 1")
    cap = _bound(args, "cap")
    paths = []
    # The enumeration streams, so the count is checked while each layer is
    # built and nothing past the cap is held.
    for path in enumerate_pointed_paths(loaded.hda, args.max_len):
        if len(paths) == cap:
            raise CapExceeded(f"more than {cap} pointed paths of length "
                              f"<= {args.max_len}")
        paths.append(path.to_json())
    return {"result": True, "paths": paths, "count": len(paths)}


@_command("homotopic", "decide homotopy of two cube paths", shared=("--cap",),
          own={"--path": {"action": "append", "required": True,
                          "help": "comma-separated cube ids; give exactly twice"}})
def _run_homotopic(args, loaded: LoadedModel) -> dict:
    from .paths import are_homotopic

    if len(args.path) != 2:
        raise ModelError("give --path exactly twice")
    rho, sigma = (_parse_path(loaded, raw) for raw in args.path)
    cap = _bound(args, "cap")
    return {"result": are_homotopic(rho, sigma, cap=cap), "cap": cap}


@_command("fan", "rewrite a pointed cube path into its fan shape",
          own={"--path": {"required": True, "help": "comma-separated cube ids"}})
def _run_fan(args, loaded: LoadedModel) -> dict:
    rho = _parse_path(loaded, args.path)
    trace = fan_shape_trace(rho)
    result = trace[-1][-1] if trace else rho
    return {
        "result": True,
        "fan": result.to_json(),
        "already_fan_shaped": not trace,
        "iterations": len(trace),
        "t_before": t_measure(rho),
        "t_after": t_measure(result),
        "fan_shaped": is_fan_shaped(result),
    }


@_command("unfold", "unfold a model into a higher-dimensional tree",
          shared=("--depth", "--cap"),
          own={"--out": {"help": "write the tree model here (plus a "
                         ".projection.json sidecar)"}})
def _run_unfold(args, loaded: LoadedModel) -> dict:
    unfolding = unfold(loaded.hda, _bound(args, "depth"), cap=_bound(args, "cap"))
    report = {
        "result": True,
        "depth": unfolding.depth,
        "nodes": len(unfolding.tree.space),
        "complete": unfolding.complete,
        "frontier": sorted(unfolding.frontier),
    }
    if args.out:
        dump_model(unfolding.tree, args.out)
        sidecar = str(Path(args.out).with_suffix(".projection.json"))
        dump_id_map(unfolding.projection_table(), sidecar)
        report["out"] = args.out
        report["projection"] = sidecar
    return report


@_command("is-tree", "check the bounded higher-dimensional tree property",
          shared=("--depth", "--cap"))
def _run_is_tree(args, loaded: LoadedModel) -> dict:
    depth = _bound(args, "depth")
    return {"result": is_tree(loaded.hda, depth, cap=_bound(args, "cap")),
            "depth": depth}


@_command("open-map", "check the zig-zag lifting property of a cube map",
          files=_XY, own={"--map": {"required": True, "dest": "map_file",
                                    "help": "JSON object mapping source cube "
                                            "ids to target ids"}})
def _run_open_map(args, lx: LoadedModel, ly: LoadedModel) -> dict:
    try:
        with open(args.map_file, encoding="utf-8") as handle:
            raw = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ModelError(f"cannot read map file {args.map_file}: {exc}")
    if not isinstance(raw, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in raw.items()):
        raise ModelError("map file must be a JSON object of cube ids")
    morphism = PrecubicalMorphism(
        lx.hda.space, ly.hda.space, raw, pointed=True,
        source_initial=lx.hda.initial, target_initial=ly.hda.initial)
    if not check_morphism(morphism):
        raise ModelError("the map is not a pointed precubical morphism")
    return open_map_check(morphism, lx.hda, ly.hda).to_json()


@_command("bisim", "decide (hp-)bisimilarity of two models", files=_XY,
          shared=("--labeled",))
def _run_bisim(args, lx: LoadedModel, ly: LoadedModel) -> dict:
    x_labels, y_labels = _labelings(args, lx, ly)
    if args.labeled:
        return labeled_bisimilar(lx.hda, x_labels, ly.hda, y_labels).to_json()
    return bisimilar(lx.hda, ly.hda).to_json()


@_command("hp-bisim", "decide (hp-)bisimilarity of two models", files=_XY,
          shared=("--labeled",))
def _run_hp_bisim(args, lx: LoadedModel, ly: LoadedModel) -> dict:
    return hp_bisimilar(lx.hda, ly.hda, *_labelings(args, lx, ly)).to_json()


@_command("oracle", "run-based cross-check on bounded unfoldings", files=_XY,
          shared=("--labeled", "--depth", "--cap"))
def _run_oracle(args, lx: LoadedModel, ly: LoadedModel) -> dict:
    labelings = _labelings(args, lx, ly)  # reported before a bad depth or cap
    return hp_oracle(lx.hda, ly.hda, _bound(args, "depth"), *labelings,
                     cap=_bound(args, "cap")).to_json()


@_command("torus", "build an event torus (and optionally its unfolding)",
          files=(), own={
              "--events": {"required": True, "help": "comma-separated event "
                           "names; empty for the trivial torus"},
              "--maxdim": {"type": int, "required": True},
              "--unfold-depth": {"type": int}})
def _run_torus(args) -> dict:
    if args.maxdim < 0:
        raise ModelError("--maxdim must be >= 0")
    events = EventSet(tuple(n for n in args.events.split(",") if n))
    cap = _bound(args, "cap")
    try:
        # The torus has one cube per multiset of at most maxdim events.
        cubes = math.comb(len(events) + args.maxdim, args.maxdim)
        if cubes > cap:
            raise CapExceeded(f"the torus has {cubes} cubes, more than {cap}")
        report = {"result": True,
                  "torus": model_to_dict(*torus_hda(events, args.maxdim))}
        if args.unfold_depth is not None:
            if args.unfold_depth < 1:
                raise ModelError("--unfold-depth must be >= 1")
            report["unfolding"] = model_to_dict(torus_unfolding(
                events, args.unfold_depth, args.maxdim, cap=cap))
    except CapExceeded as exc:
        raise CapExceeded(f"{exc}; HDABISIM_CAP overrides the default cap")
    return report


def main(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, matching the input-error code.
        return 2 if exc.code not in (0, None) else 0
    _, files, _, _, checked, runner = _COMMANDS[args.command]
    try:
        paths = [getattr(args, file) for file in files]
        models = [load_model(path) for path in paths]
        for path, loaded in zip(paths, models if checked else ()):
            report = validate_model(loaded.hda, loaded.labeling)
            if not report.ok:
                raise ModelError(
                    f"{path} is not a valid model: "
                    + "; ".join(v.detail for v in report.violations))
        return _emit(runner(args, *models), args.pretty, out)
    except ModelError as exc:
        failure = {"result": "error", "error": str(exc)}
    except CapExceeded as exc:
        failure = {"result": "cap-exceeded", "error": str(exc)}
    except Exception as exc:
        # Exit 1 means "property fails"; a crash must not look like that.
        traceback.print_exc(file=sys.stderr)
        failure = {"result": "internal-error",
                   "error": f"{type(exc).__name__}: {exc}"}
    print(json.dumps(failure), file=out)
    return _EXIT_CODES[failure["result"]]


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
