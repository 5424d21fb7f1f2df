"""The string step check and path enumeration that `is_cube_path` and
`enumerate_pointed_paths` replaced, kept as the references they are tested
against.

Both read the string accessors (`PrecubicalSet.lower`, `upper`,
`successors`), so they take any set; the library's versions read the int
view and refuse a set that fails validation.
"""

from hdabisim import HDA, ModelError, PrecubicalSet
from hdabisim.paths import PathCheck, StepDiag


def step(space: PrecubicalSet, a: str, b: str) -> StepDiag | None:
    """The step from a to b: the least k with a = d0_k b, else the least k
    with b = d1_k a; None when neither holds.  Its position is left 0."""
    for k in range(1, space.dim(b) + 1):
        if space.lower(b, k) == a:
            return StepDiag(0, "lower-face-of-next", k)
    for k in range(1, space.dim(a) + 1):
        if space.upper(a, k) == b:
            return StepDiag(0, "upper-face-of-previous", k)
    return None


def is_cube_path(space: PrecubicalSet, seq) -> PathCheck:
    """Check the step relation for every consecutive pair, with diagnosis."""
    seq = tuple(seq)
    if not seq:
        raise ModelError("empty sequence is not a cube path")
    for c in seq:
        space.row(c)  # raises on unresolved ids
    steps: list[StepDiag] = []
    for j in range(len(seq) - 1):
        diag = step(space, seq[j], seq[j + 1])
        if diag is None:
            return PathCheck(False, steps, failure=j + 1)
        steps.append(StepDiag(j + 1, diag.kind, diag.k))
    return PathCheck(True, steps)


def enumerate_pointed_paths(hda: HDA, max_len: int):
    """The id sequences of all pointed cube paths of length <= max_len, in
    (length, lexicographic-by-id) order, one layer at a time."""
    if max_len < 1:
        return
    space = hda.space
    if hda.initial not in space:
        raise ModelError(f"initial cube {hda.initial!r} does not exist")
    if space.dim(hda.initial) != 0:
        raise ModelError("unfolding requires a valid initial 0-cube")
    layer = [(hda.initial,)]
    yield layer[0]
    for length in range(2, max_len + 1):
        if not layer:
            return
        nxt = []
        for seq in layer:
            for y in space.successors(seq[-1]):
                # Position minus dimension stays odd along pointed paths
                # when every step changes the dimension by one.
                if (length - space.dim(y)) % 2 != 1:
                    raise ModelError(
                        f"the step from {seq[-1]!r} to {y!r} at position "
                        f"{length} changes the dimension by an even amount")
                ext = seq + (y,)
                nxt.append(ext)
                yield ext
        layer = nxt
