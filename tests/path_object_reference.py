"""The path-object search that `hdabisim.paths.path_object` replaced, kept
as the reference of its tests (`test_paths.py`).

`is_path_object` recognises a precubical set as the track of one pointed
cube path by searching candidate sequences in (length, lex) order; the
library now builds the track of a given path instead.  The search shares no
code with the construction, which it checks: every P_rho is accepted, and
the search's representative has a path object isomorphic to P_rho.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from hdabisim.core import CapExceeded, ModelError, PrecubicalSet


@dataclass
class PathObjectResult:
    ok: bool
    rep: tuple[str, ...] | None
    reason: str | None

    def __bool__(self) -> bool:
        return self.ok


def face_reprs(space: PrecubicalSet, top: str) -> dict[str, list[tuple]]:
    """All iterated faces of `top`, keyed by cube, with their normalized
    (strictly increasing k-sequence, orientation-sequence) descriptions.
    Raises ModelError when a face names no cube of the set."""
    out: dict[str, list[tuple]] = {top: [((), ())]}
    dim = space.dim(top)
    for p in range(1, dim + 1):
        for ks in itertools.combinations(range(1, dim + 1), p):
            for nus in itertools.product((0, 1), repeat=p):
                cur: str | None = top
                for k, nu in zip(reversed(ks), reversed(nus)):
                    # The innermost (largest) index applies first.
                    cur = space.face(cur, k, nu) if cur is not None else None
                    if cur is None:
                        break
                if cur is not None:
                    if cur not in space:
                        raise ModelError(f"unknown cube id {cur!r}")
                    out.setdefault(cur, []).append((ks, nus))
    return out


def is_path_object(space: PrecubicalSet,
                   cap: int = 50_000) -> PathObjectResult:
    """Search for a representing sequence exhibiting the set as the track of
    a single pointed cube path.

    A candidate sequence must have pairwise distinct entries starting at a
    0-cube, consecutive entries in the step relation, every cube of the set
    an iterated face of some entry, and each cube obtainable from any given
    entry in at most one normalized way (so the track has no accidental
    self-identifications).  Candidates are tried in (length, lexicographic)
    order and the first hit is returned.  Raises ModelError when a face
    names no cube of the set.
    """
    all_ids = set(space.ids())
    reprs = {top: face_reprs(space, top) for top in space.ids()}

    def candidate_failure(seq: tuple[str, ...]) -> str | None:
        covered: set[str] = set()
        for entry in seq:
            for cube, ways in reprs[entry].items():
                if len(ways) > 1:
                    return (f"cube {cube!r} has {len(ways)} face "
                            f"representations from entry {entry!r}")
                covered.add(cube)
        missing = all_ids - covered
        if missing:
            return f"cube {sorted(missing)[0]!r} is not a face of any entry"
        return None

    zero_cubes = [c for c in space.ids() if space.dim(c) == 0]
    layer: list[tuple[str, ...]] = [(c,) for c in sorted(zero_cubes)]
    tried = 0
    first_failure: str | None = None
    while layer:
        for seq in layer:
            tried += 1
            if tried > cap:
                raise CapExceeded(f"path-object search exceeded {cap} candidates")
            failure = candidate_failure(seq)
            if failure is None:
                return PathObjectResult(True, seq, None)
            if first_failure is None:
                first_failure = failure
        nxt: list[tuple[str, ...]] = []
        for seq in layer:
            for y in space.successors(seq[-1]):
                if y not in seq:
                    nxt.append(seq + (y,))
        nxt.sort()
        layer = nxt
    if first_failure is None:
        first_failure = "the set has no 0-cube to start a pointed sequence at"
    return PathObjectResult(
        False, None,
        f"no representing sequence among {tried} candidates; first failure: "
        + first_failure)
