"""Compare one CLI report with the answer its request was built to have.

Each outcome is one of:

- ``decided``: the report carries the known answer;
- ``undecided``: the program stopped at a bound (``cap-exceeded``, an
  unexpected ``inconclusive`` or ``exhausted``) or reported an input
  ``error``; this lowers ``decided_ratio`` but is not wrong;
- ``wrong``: a definite verdict, count or report that contradicts the
  known answer, or output that is not one JSON report.  Any wrong outcome
  fails the run.
"""

from __future__ import annotations

import json
import os

DECIDED, UNDECIDED, WRONG = "decided", "undecided", "wrong"
_BOUNDED = ("cap-exceeded", "inconclusive", "exhausted", "error")


def check(expect: dict, argv: list[str], text: str) -> tuple[str, str]:
    """Return (outcome, reason) for the report `text` of request `argv`."""
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        return WRONG, "output is not one JSON document"
    if not isinstance(report, dict) or "result" not in report:
        return WRONG, "output has no result field"
    result = report["result"]
    if "verdict" in expect:
        want = expect["verdict"]
        if result == want:
            initial = expect.get("initial")
            if initial is not None and initial not in (report.get("witness") or []):
                return WRONG, "witness lacks the initial pair"
            return DECIDED, ""
        if result in _BOUNDED:
            return UNDECIDED, str(result)
        return WRONG, f"verdict {result!r}, expected {want!r}"
    if result in _BOUNDED:
        return UNDECIDED, str(result)
    if "nodes" in expect:
        if result is not True or report.get("nodes") != expect["nodes"]:
            return WRONG, f"{report.get('nodes')} nodes, expected {expect['nodes']}"
        if not os.path.getsize(report["out"]):
            return WRONG, "empty tree file"
        return DECIDED, ""
    if "count" in expect:
        if result is not True or report.get("count") != expect["count"] \
                or len(report.get("reachable", ())) != expect["count"]:
            return WRONG, f"{report.get('count')} reachable, expected {expect['count']}"
        return DECIDED, ""
    if "valid" in expect:
        if result is not True or report.get("violations"):
            return WRONG, "a valid model was reported invalid"
        return DECIDED, ""
    if "violation" in expect:
        return _check_violation(expect["violation"], report)
    if "fan" in expect:
        return _check_fan(expect["fan"], report)
    raise ValueError(f"request {argv} has no known answer")


def _check_violation(want: dict, report: dict) -> tuple[str, str]:
    found = report.get("violations") or []
    if report["result"] is not False or not found:
        return WRONG, "the injected fault was not reported"
    if want["kind"] == "identity":
        # Every broken identity lies in the one cube whose faces were swapped.
        if all(v.get("kind") == "identity" and v.get("cube") == want["cube"]
               for v in found):
            return DECIDED, ""
        return WRONG, f"expected identity violations at {want['cube']}"
    if len(found) == 1 and all(found[0].get(k) == v for k, v in want.items()):
        return DECIDED, ""
    return WRONG, f"expected exactly {want}, got {found[:2]}"


def _check_fan(want: dict, report: dict) -> tuple[str, str]:
    fan = report.get("fan") or []
    got = {"t_before": report.get("t_before"), "t_after": report.get("t_after"),
           "length": len(fan), "start": fan[0] if fan else None,
           "end": fan[-1] if fan else None}
    if got != want or report.get("fan_shaped") is not True:
        return WRONG, f"fan report {got}, expected {want}"
    # Each rewriting iteration lowers the T-measure by exactly two.
    if report.get("iterations") != (want["t_before"] - want["t_after"]) // 2:
        return WRONG, f"{report.get('iterations')} fan iterations"
    return DECIDED, ""
