"""Command-line front end.

Every request takes one path through `main`: parse the arguments, load every
model file the subcommand declares in `_COMMANDS`, validate the models in
order (`validate` reports on its model instead), run the subcommand, and
hand its report to `_emit`, which prints it and maps its result to the exit
code.  A failure on the way, usage errors included, is printed to the same
output as one JSON line, also under `--pretty`, with its exit code from the
same table; `--help` and `--version` print there too.

Exit codes: 0 = property holds / validation ok, 1 = property fails,
2 = input error, 3 = resource cap exceeded (including an `inconclusive`
verdict, which stops at the depth bound), 4 = internal error (a bug, such
as a witness failing its audit), reported as
``{"result": "internal-error", "error": "<type>: <message>"}`` with the
traceback on stderr.

Reports are JSON on stdout; `--pretty` switches to human-readable lines.
`--cap` bounds the homotopy classes built by `unfold`, `is-tree`, `oracle`
and `homotopic`, the node pairs `oracle` reaches from the initial pair, the
paths `paths` enumerates, and the cubes of a `torus` and its unfolding's
nodes; past it each stops with exit 3 (`cap-exceeded`).  `bisim`,
`hp-bisim` and `oracle` take `--labeled` to relate only cubes with equal
event labels; it requires labels in both models.  Argparse checks each
numeric option against its floor, before any model file is read; a report
depends on its argv and files alone.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
import traceback
from pathlib import Path

from . import __version__
from .bisim import bisimilar, hp_bisimilar, hp_oracle, labeled_bisimilar, open_map_check
from .core import (CapExceeded, EventSet, ModelError, PrecubicalMorphism,
                   check_morphism, reachable, torus_hda, validate_model)
from .model_io import (LoadedModel, dump_id_map, dump_model, load_model,
                       model_to_dict)
from .paths import (DEFAULT_CAP, CubePath, enumerate_pointed_paths,
                    fan_shape_trace, is_fan_shaped, t_measure)
from .unfold import is_tree, torus_unfolding, unfold

# The exit code of a report's result; any result not listed is exit 2.
_EXIT_CODES = {True: 0, False: 1, "inconclusive": 3, "error": 2,
               "cap-exceeded": 3, "internal-error": 4}


def _at_least(floor: int):
    """An argparse type for integers >= `floor`.  It is named `int`, so a
    non-integer gets argparse's "invalid int value" message."""
    def parse(text: str) -> int:
        value = int(text)
        if value < floor:
            raise argparse.ArgumentTypeError(f"must be >= {floor}, got {value}")
        return value
    parse.__name__ = "int"
    return parse


# The options several subcommands take, each declared here once.
_SHARED = {
    "--labeled": {"action": "store_true",
                  "help": "relate only cubes with equal event labels"},
    "--depth": {"type": _at_least(1), "required": True,
                "help": "explore pointed paths of at most this many cubes"},
    "--cap": {"type": _at_least(1), "default": DEFAULT_CAP,
              "help": "stop with exit 3 past this bound (default %(default)s)"},
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


class _Parser(argparse.ArgumentParser):
    """Prints a usage error to stderr as argparse does, then raises it as
    ModelError, so `main` reports it like any input error."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise ModelError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hdabisim",
        description="Model higher-dimensional automata as pointed precubical "
                    "sets and decide history-preserving bisimilarity.",
        epilog="--cap counts homotopy classes for unfold, is-tree, oracle "
               "and homotopic, node pairs for oracle, paths for paths, and "
               "cubes and unfolding nodes for torus; it defaults to 100000.  "
               "--labeled (bisim, hp-bisim, oracle) needs labels in both "
               "models.")
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
    return CubePath(loaded.hda.space, tuple(s for s in raw.split(",") if s))


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
          shared=("--cap",),
          own={"--max-len": {"type": _at_least(1), "required": True}})
def _run_paths(args, loaded: LoadedModel) -> dict:
    paths = []
    # The enumeration streams, so the count is checked while each layer is
    # built and nothing past the cap is held.
    for path in enumerate_pointed_paths(loaded.hda, args.max_len):
        if len(paths) == args.cap:
            raise CapExceeded(f"more than {args.cap} pointed paths of length "
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
    return {"result": are_homotopic(rho, sigma, cap=args.cap), "cap": args.cap}


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
    unfolding = unfold(loaded.hda, args.depth, cap=args.cap)
    report = {
        "result": True,
        "depth": unfolding.depth,
        "nodes": len(unfolding.tree.space),
        "complete": unfolding.complete,
        "frontier": sorted(unfolding.frontier),
    }
    if args.out is not None:
        dump_model(unfolding.tree, args.out)
        sidecar = str(Path(args.out).with_suffix(".projection.json"))
        try:
            dump_id_map(unfolding.projection_table(), sidecar)
        except ModelError:
            # An error report leaves no output behind.
            with contextlib.suppress(OSError):
                Path(args.out).unlink()
            raise
        report["out"] = args.out
        report["projection"] = sidecar
    return report


@_command("is-tree", "check the bounded higher-dimensional tree property",
          shared=("--depth", "--cap"))
def _run_is_tree(args, loaded: LoadedModel) -> dict:
    return {"result": is_tree(loaded.hda, args.depth, cap=args.cap),
            "depth": args.depth}


@_command("open-map", "check the zig-zag lifting property of a cube map",
          files=_XY, own={"--map": {"required": True, "dest": "map_file",
                                    "help": "JSON object mapping source cube "
                                            "ids to target ids"}})
def _run_open_map(args, lx: LoadedModel, ly: LoadedModel) -> dict:
    try:
        with open(args.map_file, encoding="utf-8") as handle:
            raw = json.load(handle)
    except (OSError, ValueError, RecursionError) as exc:
        raise ModelError(f"cannot read map file {args.map_file}: {exc}")
    if not isinstance(raw, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in raw.items()):
        raise ModelError("map file must be a JSON object of cube ids")
    morphism = PrecubicalMorphism(lx.hda, ly.hda, raw)
    if not check_morphism(morphism):
        raise ModelError("the map is not a pointed precubical morphism")
    return open_map_check(morphism).to_json()


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
    return hp_oracle(lx.hda, ly.hda, args.depth, *_labelings(args, lx, ly),
                     cap=args.cap).to_json()


@_command("torus", "build an event torus (and optionally its unfolding)",
          files=(), shared=("--cap",), own={
              "--events": {"required": True, "help": "comma-separated event "
                           "names; empty for the trivial torus"},
              "--maxdim": {"type": _at_least(0), "required": True,
                           "help": "the highest dimension of a torus cube"},
              "--unfold-depth": {"type": _at_least(1), "help": "also unfold "
                                 "the torus, as unfold --depth does"}})
def _run_torus(args) -> dict:
    events = EventSet(tuple(n for n in args.events.split(",") if n))
    # The torus has one cube per multiset of at most maxdim events.
    cubes = math.comb(len(events) + args.maxdim, args.maxdim)
    if cubes > args.cap:
        raise CapExceeded(f"the torus has {cubes} cubes, more than {args.cap}")
    report = {"result": True,
              "torus": model_to_dict(*torus_hda(events, args.maxdim))}
    if args.unfold_depth is not None:
        report["unfolding"] = model_to_dict(torus_unfolding(
            events, args.unfold_depth, args.maxdim, cap=args.cap))
    return report


def main(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    try:
        # --help and --version print to `out`, then exit 0.
        with contextlib.redirect_stdout(out):
            args = _parser().parse_args(argv)
        _, files, _, _, checked, runner = _COMMANDS[args.command]
        paths = [getattr(args, file) for file in files]
        models = [load_model(path) for path in paths]
        for path, loaded in zip(paths, models if checked else ()):
            report = validate_model(loaded.hda, loaded.labeling)
            if not report.ok:
                raise ModelError(
                    f"{path} is not a valid model: "
                    + "; ".join(v.detail for v in report.violations))
        return _emit(runner(args, *models), args.pretty, out)
    except SystemExit:
        return 0
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
