"""Command-line front end.

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
(`cap-exceeded`) as soon as their count passes the cap.
`bisim`, `hp-bisim` and `oracle` take `--labeled` to relate only cubes with
equal event labels; it requires labels in both models.  Environment variables
`HDABISIM_CAP` and `HDABISIM_DEPTH` override the default cap and the
default depth for subcommands that accept them.
"""

from __future__ import annotations

import argparse
import functools
import json
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
from .unfold import is_tree, unfold


def _env_int(name: str, fallback: int | None) -> int | None:
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError:
        raise ModelError(f"environment variable {name} must be an integer")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdabisim",
        description="Model higher-dimensional automata as pointed precubical "
                    "sets and decide history-preserving bisimilarity.",
        epilog="--cap counts homotopy classes for unfold, is-tree and oracle, "
               "node pairs for oracle, and paths for homotopic and paths.  "
               "--labeled (bisim, "
               "hp-bisim, oracle) needs labels in both models.  Environment: "
               "HDABISIM_CAP overrides the default cap (100000); "
               "HDABISIM_DEPTH supplies a default for --depth where it is "
               "omitted.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name: str, help_text: str) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--pretty", action="store_true",
                        help="human-readable output instead of JSON")
        return sp

    sp = cmd("validate", "check a model file for structural validity")
    sp.add_argument("file")

    sp = cmd("reachable", "list the cubes reachable from the initial cube")
    sp.add_argument("file")

    sp = cmd("paths", "enumerate pointed cube paths up to a length bound")
    sp.add_argument("file")
    sp.add_argument("--max-len", type=int, required=True)
    sp.add_argument("--cap", type=int, default=None)

    sp = cmd("homotopic", "decide homotopy of two cube paths")
    sp.add_argument("file")
    sp.add_argument("--path", action="append", required=True,
                    help="comma-separated cube ids; give exactly twice")
    sp.add_argument("--cap", type=int, default=None)

    sp = cmd("fan", "rewrite a pointed cube path into its fan shape")
    sp.add_argument("file")
    sp.add_argument("--path", required=True, help="comma-separated cube ids")

    sp = cmd("unfold", "unfold a model into a higher-dimensional tree")
    sp.add_argument("file")
    sp.add_argument("--depth", type=int, default=None)
    sp.add_argument("--out", default=None,
                    help="write the tree model here (plus a .projection.json sidecar)")
    sp.add_argument("--cap", type=int, default=None)

    sp = cmd("is-tree", "check the bounded higher-dimensional tree property")
    sp.add_argument("file")
    sp.add_argument("--depth", type=int, default=None)
    sp.add_argument("--cap", type=int, default=None)

    sp = cmd("open-map", "check the zig-zag lifting property of a cube map")
    sp.add_argument("fileX")
    sp.add_argument("fileY")
    sp.add_argument("--map", required=True, dest="map_file",
                    help="JSON object mapping source cube ids to target ids")

    for name in ("bisim", "hp-bisim"):
        sp = cmd(name, "decide (hp-)bisimilarity of two models")
        sp.add_argument("fileX")
        sp.add_argument("fileY")
        sp.add_argument("--labeled", action="store_true")

    sp = cmd("oracle", "run-based cross-check on bounded unfoldings")
    sp.add_argument("fileX")
    sp.add_argument("fileY")
    sp.add_argument("--labeled", action="store_true")
    sp.add_argument("--depth", type=int, default=None)
    sp.add_argument("--cap", type=int, default=None)

    sp = cmd("torus", "build an event torus (and optionally its unfolding)")
    sp.add_argument("--events", required=True,
                    help="comma-separated event names; empty for the trivial torus")
    sp.add_argument("--maxdim", type=int, required=True)
    sp.add_argument("--unfold-depth", type=int, default=None)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and reused by every later `main` call
    in the process: building it costs far more than parsing one argv."""
    return build_parser()


def _pretty(report: dict, out) -> None:
    for key, value in report.items():
        if isinstance(value, (list, dict)):
            value = json.dumps(value)
        print(f"{key}: {value}", file=out)


def _emit(report: dict, pretty: bool, out) -> int:
    if pretty:
        _pretty(report, out)
    else:
        print(json.dumps(report), file=out)
    result = report.get("result")
    if result is True:
        return 0
    if result is False:
        return 1
    if result in ("inconclusive", EXHAUSTED):
        return 3
    return 2


def _require_valid(loaded: LoadedModel, path: str) -> None:
    report = validate_model(loaded.hda, loaded.labeling)
    if not report.ok:
        raise ModelError(
            f"{path} is not a valid model: "
            + "; ".join(v.detail for v in report.violations))


def _parse_path(loaded: LoadedModel, raw: str) -> CubePath:
    seq = tuple(s for s in raw.split(",") if s)
    check = is_cube_path(loaded.hda.space, seq)
    if not check:
        raise ModelError(
            f"{raw!r} is not a cube path; first broken step at position "
            f"{check.failure}")
    return CubePath(loaded.hda.space, seq)


def _depth_arg(args) -> int:
    depth = args.depth if args.depth is not None else _env_int("HDABISIM_DEPTH", None)
    if depth is None:
        raise ModelError("--depth is required (or set HDABISIM_DEPTH)")
    if depth < 1:
        raise ModelError("depth must be >= 1")
    return depth


def _cap_arg(args) -> int:
    cap = getattr(args, "cap", None)
    if cap is None:
        cap = _env_int("HDABISIM_CAP", DEFAULT_CAP)
    if cap < 1:
        raise ModelError("cap must be >= 1")
    return cap


def _run_validate(args, out) -> int:
    loaded = load_model(args.file)
    report = validate_model(loaded.hda, loaded.labeling).to_json()
    report["file"] = args.file
    return _emit(report, args.pretty, out)


def _run_reachable(args, out) -> int:
    loaded = load_model(args.file)
    _require_valid(loaded, args.file)
    cubes = sorted(reachable(loaded.hda))
    return _emit({"result": True, "reachable": cubes, "count": len(cubes)},
                 args.pretty, out)


def _run_paths(args, out) -> int:
    loaded = load_model(args.file)
    _require_valid(loaded, args.file)
    if args.max_len < 1:
        raise ModelError("--max-len must be >= 1")
    cap = _cap_arg(args)
    paths = []
    # The enumeration streams, so the count is checked while each layer is
    # built and nothing past the cap is held.
    for path in enumerate_pointed_paths(loaded.hda, args.max_len):
        if len(paths) == cap:
            raise CapExceeded(f"more than {cap} pointed paths of length "
                              f"<= {args.max_len}")
        paths.append(path.to_json())
    return _emit({"result": True, "paths": paths, "count": len(paths)},
                 args.pretty, out)


def _run_homotopic(args, out) -> int:
    from .paths import are_homotopic

    loaded = load_model(args.file)
    _require_valid(loaded, args.file)
    if len(args.path) != 2:
        raise ModelError("give --path exactly twice")
    rho, sigma = (_parse_path(loaded, raw) for raw in args.path)
    cap = _cap_arg(args)
    verdict = are_homotopic(rho, sigma, cap=cap)
    return _emit({"result": verdict, "cap": cap}, args.pretty, out)


def _run_fan(args, out) -> int:
    loaded = load_model(args.file)
    _require_valid(loaded, args.file)
    rho = _parse_path(loaded, args.path)
    trace = fan_shape_trace(rho)
    result = trace[-1][-1] if trace else rho
    return _emit({
        "result": True,
        "fan": result.to_json(),
        "already_fan_shaped": not trace,
        "iterations": len(trace),
        "t_before": t_measure(rho),
        "t_after": t_measure(result),
        "fan_shaped": is_fan_shaped(result),
    }, args.pretty, out)


def _run_unfold(args, out) -> int:
    loaded = load_model(args.file)
    _require_valid(loaded, args.file)
    unfolding = unfold(loaded.hda, _depth_arg(args), cap=_cap_arg(args))
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
    return _emit(report, args.pretty, out)


def _run_is_tree(args, out) -> int:
    loaded = load_model(args.file)
    _require_valid(loaded, args.file)
    depth = _depth_arg(args)
    verdict = is_tree(loaded.hda, depth, cap=_cap_arg(args))
    return _emit({"result": verdict, "depth": depth}, args.pretty, out)


def _run_open_map(args, out) -> int:
    lx = load_model(args.fileX)
    ly = load_model(args.fileY)
    _require_valid(lx, args.fileX)
    _require_valid(ly, args.fileY)
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
    result = open_map_check(morphism, lx.hda, ly.hda)
    report = result.to_json()
    return _emit(report, args.pretty, out)


def _require_labels(lx: LoadedModel, ly: LoadedModel) -> None:
    if lx.labeling is None or ly.labeling is None:
        raise ModelError("--labeled requires events/labels in both models")


def _run_bisim(args, out, hp: bool) -> int:
    lx = load_model(args.fileX)
    ly = load_model(args.fileY)
    _require_valid(lx, args.fileX)
    _require_valid(ly, args.fileY)
    if args.labeled:
        _require_labels(lx, ly)
        if hp:
            decision = hp_bisimilar(lx.hda, ly.hda, lx.labeling, ly.labeling)
        else:
            decision = labeled_bisimilar(lx.hda, lx.labeling, ly.hda, ly.labeling)
    else:
        decision = hp_bisimilar(lx.hda, ly.hda) if hp else bisimilar(lx.hda, ly.hda)
    return _emit(decision.to_json(), args.pretty, out)


def _run_oracle(args, out) -> int:
    lx = load_model(args.fileX)
    ly = load_model(args.fileY)
    _require_valid(lx, args.fileX)
    _require_valid(ly, args.fileY)
    if args.labeled:
        _require_labels(lx, ly)
        decision = hp_oracle(lx.hda, ly.hda, _depth_arg(args), lx=lx.labeling,
                             ly=ly.labeling, cap=_cap_arg(args))
    else:
        decision = hp_oracle(lx.hda, ly.hda, _depth_arg(args), cap=_cap_arg(args))
    return _emit(decision.to_json(), args.pretty, out)


def _run_torus(args, out) -> int:
    names = tuple(n for n in args.events.split(",") if n)
    if args.maxdim < 0:
        raise ModelError("--maxdim must be >= 0")
    hda, labeling = torus_hda(EventSet(names), args.maxdim)
    report = {"result": True, "torus": model_to_dict(hda, labeling)}
    if args.unfold_depth is not None:
        from .unfold import torus_unfolding

        if args.unfold_depth < 1:
            raise ModelError("--unfold-depth must be >= 1")
        report["unfolding"] = model_to_dict(
            torus_unfolding(EventSet(names), args.unfold_depth, args.maxdim))
    return _emit(report, args.pretty, out)


_RUNNERS = {
    "validate": _run_validate,
    "reachable": _run_reachable,
    "paths": _run_paths,
    "homotopic": _run_homotopic,
    "fan": _run_fan,
    "unfold": _run_unfold,
    "is-tree": _run_is_tree,
    "open-map": _run_open_map,
    "oracle": _run_oracle,
    "torus": _run_torus,
}


def main(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, matching the input-error code.
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command in ("bisim", "hp-bisim"):
            return _run_bisim(args, out, hp=args.command == "hp-bisim")
        return _RUNNERS[args.command](args, out)
    except ModelError as exc:
        print(json.dumps({"result": "error", "error": str(exc)}), file=out)
        return 2
    except CapExceeded as exc:
        print(json.dumps({"result": "cap-exceeded", "error": str(exc)}), file=out)
        return 3
    except Exception as exc:
        # Exit 1 means "property fails"; a crash must not look like that.
        traceback.print_exc(file=sys.stderr)
        print(json.dumps({"result": "internal-error",
                          "error": f"{type(exc).__name__}: {exc}"}), file=out)
        return 4


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
