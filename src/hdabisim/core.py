"""Precubical sets, higher-dimensional automata, and event labelings.

A precubical set is a graded family of cubes with lower and upper face maps
``delta_k^nu`` (``k = 1..n``, ``nu in {0, 1}``) obeying the face identity

    delta_k^nu . delta_l^mu  =  delta_{l-1}^mu . delta_k^nu      (k < l)

so that the (n-1)-faces of an n-cube meet in common (n-2)-faces.  A
higher-dimensional automaton (HDA) is a precubical set with a distinguished
initial 0-cube; an n-cube models n events running concurrently, its lower
faces are "not yet started" boundaries, its upper faces "already finished"
ones.

Face indices are 1-based in all public signatures and reports; internally the
face tuples are stored 0-based.  All values are immutable after construction
and every operation here is a pure function of its inputs; cubes are always
processed in ascending (dimension, id) order so reports and witnesses are
reproducible.

Truncated structures (see :mod:`hdabisim.unfold`) may omit upper faces of
cubes listed in ``PrecubicalSet.frontier``; omitted faces are stored as
``None`` and exempt from validation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping


class ModelError(ValueError):
    """Raised for malformed models, maps, or label data."""


class CapExceeded(RuntimeError):
    """Raised when an enumeration outgrows its configured resource cap."""


# Characters that would collide with id separators used by the CLI and the
# unfolding export ("," for path lists, "/" for node ids, "." and "@" for
# torus cubes).
_FORBIDDEN_IN_NAMES = set(",/.@ \t\n")


@dataclass(frozen=True)
class Cube:
    """One n-cube: its dimension and its 1-based lower/upper face lists.

    ``upper`` entries may be ``None`` only for cubes on a truncation
    frontier; ``lower`` entries are always present.
    """

    id: str
    dim: int
    lower: tuple[str, ...] = ()
    upper: tuple[str | None, ...] = ()


class PrecubicalSet:
    """A finite graded set of cubes closed under the face maps.

    Construction only indexes the data; structural validity (face closure,
    arity, the face identity) is checked by :func:`validate_precubical`.
    """

    def __init__(self, cubes: Iterable[Cube], frontier: Iterable[str] = ()):
        self._cubes: dict[str, Cube] = {}
        for cube in cubes:
            if cube.id in self._cubes:
                raise ModelError(f"duplicate cube id {cube.id!r}")
            self._cubes[cube.id] = cube
        self.frontier = frozenset(frontier)
        self._ids = tuple(sorted(self._cubes, key=self._sort_key))
        # Coface indexes: for each cube f, the parents x with delta_k^nu x = f.
        cof0: dict[str, list[tuple[int, str]]] = {c: [] for c in self._cubes}
        cof1: dict[str, list[tuple[int, str]]] = {c: [] for c in self._cubes}
        for x in self._ids:
            cube = self._cubes[x]
            for k, f in enumerate(cube.lower, start=1):
                if f in cof0:
                    cof0[f].append((k, x))
            for k, f in enumerate(cube.upper, start=1):
                if f in cof1:
                    cof1[f].append((k, x))
        self._cofaces0 = {c: tuple(v) for c, v in cof0.items()}
        self._cofaces1 = {c: tuple(v) for c, v in cof1.items()}

    def _sort_key(self, cid: str) -> tuple[int, str]:
        return (self._cubes[cid].dim, cid)

    def __contains__(self, cid: str) -> bool:
        return cid in self._cubes

    def __len__(self) -> int:
        return len(self._cubes)

    def __iter__(self) -> Iterator[str]:
        return iter(self._ids)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PrecubicalSet):
            return NotImplemented
        return self._cubes == other._cubes and self.frontier == other.frontier

    def __repr__(self) -> str:
        return f"PrecubicalSet({len(self._cubes)} cubes, max dim {self.max_dim()})"

    def ids(self) -> tuple[str, ...]:
        """All cube ids in ascending (dimension, id) order."""
        return self._ids

    def cube(self, cid: str) -> Cube:
        try:
            return self._cubes[cid]
        except KeyError:
            raise ModelError(f"unknown cube id {cid!r}") from None

    def dim(self, cid: str) -> int:
        return self.cube(cid).dim

    def by_dim(self, n: int) -> tuple[str, ...]:
        return tuple(c for c in self._ids if self._cubes[c].dim == n)

    def max_dim(self) -> int:
        return max((c.dim for c in self._cubes.values()), default=0)

    def lower(self, cid: str, k: int) -> str | None:
        """delta_k^0 of the cube, 1-based k; None when out of range."""
        faces = self.cube(cid).lower
        return faces[k - 1] if 1 <= k <= len(faces) else None

    def upper(self, cid: str, k: int) -> str | None:
        """delta_k^1 of the cube, 1-based k; None when out of range or omitted."""
        faces = self.cube(cid).upper
        return faces[k - 1] if 1 <= k <= len(faces) else None

    def face(self, cid: str, k: int, nu: int) -> str | None:
        return self.lower(cid, k) if nu == 0 else self.upper(cid, k)

    def cofaces_lower(self, cid: str) -> tuple[tuple[int, str], ...]:
        """All (k, x) with delta_k^0 x = cid."""
        return self._cofaces0.get(cid, ())

    def cofaces_upper(self, cid: str) -> tuple[tuple[int, str], ...]:
        """All (k, x) with delta_k^1 x = cid."""
        return self._cofaces1.get(cid, ())

    def cofaces_lower_at(self, cid: str, k: int) -> tuple[str, ...]:
        return tuple(x for (j, x) in self._cofaces0.get(cid, ()) if j == k)

    def successors(self, cid: str) -> tuple[str, ...]:
        """Cubes y one step after cid: cid = delta_k^0 y or y = delta_k^1 cid."""
        nxt = {x for (_k, x) in self.cofaces_lower(cid)}
        nxt.update(f for f in self.cube(cid).upper if f is not None)
        return tuple(sorted(nxt))


@dataclass(frozen=True)
class HDA:
    """A pointed precubical set: the model of a concurrent system."""

    space: PrecubicalSet
    initial: str


@dataclass(frozen=True)
class EventSet:
    """A finite ordered alphabet of event names; the order is significant."""

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.names)) != len(self.names):
            raise ModelError("event names must be pairwise distinct")
        for name in self.names:
            if not name or set(name) & _FORBIDDEN_IN_NAMES:
                raise ModelError(f"illegal event name {name!r}")

    def __len__(self) -> int:
        return len(self.names)

    def name(self, index: int) -> str:
        """The event at a 1-based index."""
        if not 1 <= index <= len(self.names):
            raise ModelError(f"event index {index} out of range")
        return self.names[index - 1]


@dataclass(frozen=True, eq=True)
class Labeling:
    """Per-cube event tuples: cube x of dimension n carries a sorted n-tuple
    of 1-based indices into ``events``, and taking the k-th face must delete
    the k-th entry."""

    events: EventSet
    assign: Mapping[str, tuple[int, ...]]

    def names(self, cid: str) -> tuple[str, ...]:
        return tuple(self.events.name(i) for i in self.assign[cid])


@dataclass(frozen=True)
class PrecubicalMorphism:
    """A dimension-preserving cube map commuting with all face maps."""

    source: PrecubicalSet
    target: PrecubicalSet
    mapping: Mapping[str, str]
    pointed: bool = False
    source_initial: str | None = None
    target_initial: str | None = None


@dataclass(frozen=True)
class Violation:
    kind: str
    cube: str | None
    detail: str
    data: Mapping[str, object] = field(default_factory=dict)

    def to_json(self) -> dict:
        out = {"kind": self.kind, "cube": self.cube, "detail": self.detail}
        out.update(self.data)
        return out


@dataclass
class ValidationReport:
    violations: list[Violation]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok

    def to_json(self) -> dict:
        return {
            "result": self.ok,
            "violations": [v.to_json() for v in self.violations],
        }


def validate_precubical(space: PrecubicalSet) -> ValidationReport:
    """Check face arity, face closure, and the face identity everywhere.

    Identity violations name the offending cube, the indices (k, l, nu, mu)
    with k < l, and the two corner ids that should have coincided.
    """
    violations: list[Violation] = []
    clean: set[str] = set()

    for x in space.ids():
        cube = space.cube(x)
        good = True
        if len(cube.lower) != cube.dim or len(cube.upper) != cube.dim:
            violations.append(Violation(
                "face-arity", x,
                f"cube {x!r} of dimension {cube.dim} has "
                f"{len(cube.lower)} lower / {len(cube.upper)} upper faces",
                {"dim": cube.dim, "lower": len(cube.lower), "upper": len(cube.upper)},
            ))
            good = False
        for nu, faces in ((0, cube.lower), (1, cube.upper)):
            for k, f in enumerate(faces, start=1):
                if f is None:
                    if nu == 1 and x in space.frontier:
                        continue  # omitted by truncation, explicitly flagged
                    violations.append(Violation(
                        "missing-face", x,
                        f"cube {x!r} lacks face k={k} nu={nu}",
                        {"k": k, "nu": nu},
                    ))
                    good = False
                elif f not in space:
                    violations.append(Violation(
                        "dangling-face", x,
                        f"cube {x!r} face k={k} nu={nu} refers to unknown id {f!r}",
                        {"k": k, "nu": nu, "ref": f},
                    ))
                    good = False
                elif space.dim(f) != cube.dim - 1:
                    violations.append(Violation(
                        "face-dimension", x,
                        f"cube {x!r} face k={k} nu={nu} has dimension "
                        f"{space.dim(f)}, expected {cube.dim - 1}",
                        {"k": k, "nu": nu, "ref": f},
                    ))
                    good = False
        if good:
            clean.add(x)

    for x in space.ids():
        if x not in clean:
            continue
        dim = space.dim(x)
        for ell in range(2, dim + 1):
            for k in range(1, ell):
                for nu, mu in itertools.product((0, 1), repeat=2):
                    outer = space.face(x, ell, mu)
                    inner = space.face(x, k, nu)
                    if outer is None or inner is None:
                        continue
                    if outer not in clean or inner not in clean:
                        continue
                    left = space.face(outer, k, nu)
                    right = space.face(inner, ell - 1, mu)
                    if left is None or right is None:
                        continue
                    if left != right:
                        violations.append(Violation(
                            "identity", x,
                            f"face identity fails at cube {x!r}, k={k}, l={ell}, "
                            f"nu={nu}, mu={mu}: {left!r} != {right!r}",
                            {"k": k, "ell": ell, "nu": nu, "mu": mu,
                             "left": left, "right": right},
                        ))
    return ValidationReport(violations)


def validate_model(hda: HDA, labeling: Labeling | None = None) -> ValidationReport:
    """Validate an HDA: the precubical structure, the initial cube, and the
    labeling when one is supplied."""
    report = validate_precubical(hda.space)
    if not hda.space._cubes:
        report.violations.append(Violation(
            "empty-model", None, "model has no cubes at all", {}))
    if hda.initial not in hda.space:
        report.violations.append(Violation(
            "initial-missing", hda.initial,
            f"initial cube {hda.initial!r} does not exist", {}))
    elif hda.space.dim(hda.initial) != 0:
        report.violations.append(Violation(
            "initial-dimension", hda.initial,
            f"initial cube {hda.initial!r} has dimension "
            f"{hda.space.dim(hda.initial)}, expected 0", {}))
    if labeling is not None:
        report.violations.extend(validate_labeling(hda, labeling).violations)
    return report


def validate_labeling(hda: HDA, labeling: Labeling) -> ValidationReport:
    """Check that the labeling is a morphism into the event torus: tuple
    lengths match dimensions, tuples are sorted, and the k-th face deletes
    the k-th entry."""
    space = hda.space
    violations: list[Violation] = []
    nevents = len(labeling.events)
    for x in space.ids():
        if x not in labeling.assign:
            violations.append(Violation(
                "label-missing", x, f"cube {x!r} has no label tuple", {}))
            continue
        tup = labeling.assign[x]
        if len(tup) != space.dim(x):
            violations.append(Violation(
                "label-length", x,
                f"cube {x!r} of dimension {space.dim(x)} is labeled with a "
                f"{len(tup)}-tuple", {"tuple": list(tup)}))
            continue
        if any(not 1 <= i <= nevents for i in tup):
            violations.append(Violation(
                "label-range", x,
                f"cube {x!r} label {list(tup)} has indices outside 1..{nevents}",
                {"tuple": list(tup)}))
            continue
        if any(tup[j] > tup[j + 1] for j in range(len(tup) - 1)):
            violations.append(Violation(
                "label-unsorted", x,
                f"cube {x!r} label {list(tup)} is not sorted ascending",
                {"tuple": list(tup)}))
            continue
        for nu in (0, 1):
            for k in range(1, space.dim(x) + 1):
                f = space.face(x, k, nu)
                if f is None or f not in space or f not in labeling.assign:
                    continue
                expected = tup[:k - 1] + tup[k:]
                if labeling.assign[f] != expected:
                    violations.append(Violation(
                        "label-face", x,
                        f"cube {x!r}: face k={k} nu={nu} is labeled "
                        f"{list(labeling.assign[f])}, expected {list(expected)}",
                        {"k": k, "nu": nu, "face": f}))
    return ValidationReport(violations)


def check_morphism(f: PrecubicalMorphism) -> bool:
    """True iff f preserves dimensions, commutes with every face map, and
    (when pointed) sends the initial cube to the initial cube.

    Raises ModelError when the mapping is not total on the source or maps
    into unknown target cubes.  Face equations whose source face was omitted
    by truncation are skipped.
    """
    src, tgt = f.source, f.target
    for x in src.ids():
        if x not in f.mapping:
            raise ModelError(f"morphism is not total: {x!r} unmapped")
        if f.mapping[x] not in tgt:
            raise ModelError(f"morphism maps {x!r} to unknown cube {f.mapping[x]!r}")
    for x in src.ids():
        fx = f.mapping[x]
        if tgt.dim(fx) != src.dim(x):
            return False
        for nu in (0, 1):
            for k in range(1, src.dim(x) + 1):
                face = src.face(x, k, nu)
                if face is None:
                    continue
                if f.mapping.get(face) != tgt.face(fx, k, nu):
                    return False
    if f.pointed:
        if f.source_initial is None or f.target_initial is None:
            raise ModelError("pointed morphism is missing initial cubes")
        if f.mapping.get(f.source_initial) != f.target_initial:
            return False
    return True


def pair_id(x: str, y: str) -> str:
    return f"({x},{y})"


def product(x_space: PrecubicalSet, y_space: PrecubicalSet) -> PrecubicalSet:
    """The product precubical set: pairs of equal-dimension cubes with
    componentwise faces."""
    if x_space.frontier or y_space.frontier:
        raise ModelError("product of truncated structures is not defined")
    cubes = []
    for x in x_space.ids():
        dx = x_space.dim(x)
        for y in y_space.ids():
            if y_space.dim(y) != dx:
                continue
            lower = tuple(
                pair_id(x_space.lower(x, k), y_space.lower(y, k))
                for k in range(1, dx + 1))
            upper = tuple(
                pair_id(x_space.upper(x, k), y_space.upper(y, k))
                for k in range(1, dx + 1))
            cubes.append(Cube(pair_id(x, y), dx, lower, upper))
    return PrecubicalSet(cubes)


def reachable(hda: HDA) -> frozenset[str]:
    """All cubes connected to the initial cube by a pointed cube path,
    i.e. the closure of {initial} under the step relation."""
    space = hda.space
    if hda.initial not in space:
        raise ModelError(f"initial cube {hda.initial!r} does not exist")
    seen = {hda.initial}
    queue = [hda.initial]
    # The steps of `successors`, walked directly: the result is a set, so
    # their sorted order is not needed.
    while queue:
        x = queue.pop()
        for _k, y in space.cofaces_lower(x):
            if y not in seen:
                seen.add(y)
                queue.append(y)
        for y in space.cube(x).upper:
            if y is not None and y not in seen:
                seen.add(y)
                queue.append(y)
    return frozenset(seen)


def torus_cube_id(names: tuple[str, ...]) -> str:
    return ".".join(names) if names else "()"


def torus(events: EventSet, maxdim: int) -> tuple[PrecubicalSet, Labeling]:
    """The event torus truncated at ``maxdim``: its n-cubes are the sorted
    n-tuples over the alphabet and the k-th face (either kind) deletes the
    k-th entry.  The labeling is the identity assignment."""
    if maxdim < 0:
        raise ModelError("maxdim must be >= 0")
    cubes: list[Cube] = []
    assign: dict[str, tuple[int, ...]] = {}
    indices = range(1, len(events) + 1)
    for n in range(0, maxdim + 1):
        for tup in itertools.combinations_with_replacement(indices, n):
            names = tuple(events.name(i) for i in tup)
            cid = torus_cube_id(names)
            faces = tuple(
                torus_cube_id(names[:k] + names[k + 1:]) for k in range(n))
            cubes.append(Cube(cid, n, faces, faces))
            assign[cid] = tup
    space = PrecubicalSet(cubes)
    return space, Labeling(events, assign)


def torus_hda(events: EventSet, maxdim: int) -> tuple[HDA, Labeling]:
    """The torus pointed at its unique 0-cube."""
    space, labeling = torus(events, maxdim)
    return HDA(space, torus_cube_id(())), labeling
