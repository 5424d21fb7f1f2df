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

import bisect
import functools
import itertools
from dataclasses import dataclass, field
from operator import itemgetter, le
from typing import Iterable, Iterator, Mapping, Sequence


class ModelError(ValueError):
    """Raised for malformed models, maps, or label data."""


class CapExceeded(RuntimeError):
    """Raised when an enumeration outgrows its configured resource cap."""


# Characters that would collide with id separators used by the CLI and the
# unfolding export ("," for path lists, "/" for node ids, "." and "@" for
# torus cubes).
_FORBIDDEN_IN_NAMES = set(",/.@ \t\n")


#: A cube as `PrecubicalSet` stores it: (dim, lower faces, upper faces).
Row = tuple[int, tuple[str, ...], tuple[str | None, ...]]

#: Face entries of the int view that name no cube of the set: a reference to
#: an id the set does not contain, and an upper face omitted by truncation.
#: Both are negative, so a test ``j >= 0`` admits exactly the cube indices.
UNKNOWN = -1
OMITTED = -2


class CubeIndex:
    """The int view of a precubical set, built once from its string rows.

    The i-th cube is the i-th id in ascending (dimension, id) order.
    ``lower[i]``/``upper[i]`` hold the indices of its faces in position
    order, with ``UNKNOWN`` for an id outside the set and ``OMITTED`` for a
    ``None`` face; ``cofaces[i]`` lists the (k, j) with lower face k of cube
    j equal to i, in ascending (j, k) order.  Read-only by convention.
    """

    __slots__ = ("ids", "pos", "dims", "lower", "upper", "cofaces")

    def __init__(self, ids: tuple[str, ...], rows: Mapping[str, Row]):
        self.ids = ids
        self.pos = dict(zip(ids, range(len(ids))))
        get, unknown = {**self.pos, None: OMITTED}.get, itertools.repeat(UNKNOWN)
        ordered = list(map(rows.__getitem__, ids))
        self.dims = tuple([row[0] for row in ordered])
        self.lower = tuple([tuple(map(get, row[1], unknown)) for row in ordered])
        self.upper = tuple([tuple(map(get, row[2], unknown)) for row in ordered])
        cofaces: list[list[tuple[int, int]]] = [[] for _ in ids]
        for i, faces in enumerate(self.lower):
            k = 1
            for j in faces:
                if j >= 0:
                    cofaces[j].append((k, i))
                k += 1
        self.cofaces = cofaces


class PrecubicalSet:
    """A finite graded set of cubes closed under the face maps.

    ``PrecubicalSet(rows, frontier)`` is the set whose cube ``cid`` has
    dimension ``rows[cid][0]`` and lower/upper face tuples
    ``rows[cid][1]``/``rows[cid][2]`` (a :data:`Row`); `frontier` names the
    cubes whose omitted upper faces are ``None``.  The dict is kept, not
    copied, so the caller must not change it afterwards.  Construction sorts
    the ids; structural validity (face closure, arity, the face identity)
    is checked by :func:`validate_precubical`.  Three things are built
    lazily, each the first time it is read, and then kept: the string
    lower-coface table behind `cofaces_lower` and `successors`, `indexed`,
    the int view (:class:`CubeIndex`) that the int walks read, and what
    validation finds, which those walks require to be nothing.  The path
    walks (`CubePath`, its check, enumeration) are int walks; the string
    accessors take any set.
    """

    def __init__(self, rows: dict[str, Row], frontier: Iterable[str] = ()):
        self._rows = rows
        self.frontier = frozenset(frontier)
        # Ids are unique: sorting them, then stably by dimension, gives
        # (dim, id) order, and both sorts compare one plain type.
        ids = sorted(rows)
        ids.sort(key=lambda cid: rows[cid][0])
        self._ids = tuple(ids)

    @functools.cached_property
    def indexed(self) -> CubeIndex:
        """The int view of the set, built on first use and kept."""
        return CubeIndex(self._ids, self._rows)

    @functools.cached_property
    def _violations(self) -> tuple[Violation, ...]:
        # What `validate_precubical` reports, found on first use and kept.
        return _precubical_violations(self)

    # The string coface table is a plain attribute once built, so that
    # `cofaces_lower` and `successors` pay nothing per call for the laziness.
    @functools.cached_property
    def _cofaces0(self) -> dict[str, tuple[tuple[int, str], ...]]:
        # For each cube f, the parents x with delta_k^0 x = f, in (x, k) order.
        rows = self._rows
        table: dict[str, list[tuple[int, str]]] = {}
        for x in self._ids:
            for k, f in enumerate(rows[x][1], start=1):
                if f in rows:
                    table.setdefault(f, []).append((k, x))
        return {c: tuple(v) for c, v in table.items()}

    def __contains__(self, cid: str) -> bool:
        return cid in self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[str]:
        return iter(self._ids)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PrecubicalSet):
            return NotImplemented
        return self._rows == other._rows and self.frontier == other.frontier

    def __repr__(self) -> str:
        return f"PrecubicalSet({len(self._rows)} cubes, max dim {self.max_dim()})"

    def ids(self) -> tuple[str, ...]:
        """All cube ids in ascending (dimension, id) order."""
        return self._ids

    def rows(self) -> Mapping[str, Row]:
        """Every cube's ``(dim, lower, upper)`` row by id; read-only by
        convention."""
        return self._rows

    def row(self, cid: str) -> Row:
        """The cube's ``(dim, lower, upper)`` row."""
        try:
            return self._rows[cid]
        except KeyError:
            raise ModelError(f"unknown cube id {cid!r}") from None

    def dim(self, cid: str) -> int:
        return self.row(cid)[0]

    def by_dim(self, n: int) -> tuple[str, ...]:
        rows = self._rows
        return tuple(c for c in self._ids if rows[c][0] == n)

    def max_dim(self) -> int:
        return max((row[0] for row in self._rows.values()), default=0)

    def lower(self, cid: str, k: int) -> str | None:
        """delta_k^0 of the cube, 1-based k; None when out of range."""
        faces = self.row(cid)[1]
        return faces[k - 1] if 1 <= k <= len(faces) else None

    def upper(self, cid: str, k: int) -> str | None:
        """delta_k^1 of the cube, 1-based k; None when out of range or omitted."""
        faces = self.row(cid)[2]
        return faces[k - 1] if 1 <= k <= len(faces) else None

    def face(self, cid: str, k: int, nu: int) -> str | None:
        return self.lower(cid, k) if nu == 0 else self.upper(cid, k)

    def cofaces_lower(self, cid: str) -> tuple[tuple[int, str], ...]:
        """All (k, x) with delta_k^0 x = cid."""
        return self._cofaces0.get(cid, ())

    def cofaces_lower_at(self, cid: str, k: int) -> tuple[str, ...]:
        return tuple(x for (j, x) in self._cofaces0.get(cid, ()) if j == k)

    def successors(self, cid: str) -> tuple[str, ...]:
        """Cubes y one step after cid: cid = delta_k^0 y or y = delta_k^1 cid.
        Raises ModelError when an upper face names no cube of the set."""
        nxt = {x for (_k, x) in self.cofaces_lower(cid)}
        for f in self.row(cid)[2]:
            if f is not None:
                if f not in self._rows:
                    raise ModelError(f"unknown cube id {f!r}")
                nxt.add(f)
        return tuple(sorted(nxt))


@dataclass(frozen=True)
class HDA:
    """A pointed precubical set: the model of a concurrent system."""

    space: PrecubicalSet
    initial: str

    @functools.cached_property
    def reach_mask(self) -> bytearray:
        """`reachable_mask(self)`, walked on first use and kept, so that the
        decision and the witness audit of one request walk once.  Read-only
        by convention."""
        return reachable_mask(self)


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
    with k < l, and the two corner ids that should have coincided.  The set
    keeps what is found, so each call returns a fresh report of one check.
    """
    return ValidationReport(list(space._violations))


def _require_valid(space: PrecubicalSet) -> None:
    """Raise ModelError naming the set's first violation, if it has one."""
    if space._violations:
        raise ModelError(f"the set fails validation: {space._violations[0].detail}")


def _slices(dims: Sequence[int]) -> list[tuple[int, range]]:
    """Each dimension that occurs in an int view whose `dims` ascend, with
    the index range of its cubes: one slice per distinct dimension, so the
    count does not grow with the dimensions' size or sign."""
    return [(d, range(bisect.bisect_left(dims, d), bisect.bisect_right(dims, d)))
            for d in sorted(set(dims))]


def _precubical_violations(space: PrecubicalSet) -> tuple[Violation, ...]:
    view = space.indexed
    ids, dims, tables = view.ids, view.dims, (view.lower, view.upper)
    lower, upper = tables
    violations: list[Violation] = []
    clean = bytearray(len(ids))

    for i, x in enumerate(ids):
        dim, lo, up = dims[i], lower[i], upper[i]
        if len(lo) == dim and len(up) == dim:
            # Fast path: every face is a cube one dimension down.
            for j in lo + up:
                if j < 0 or dims[j] != dim - 1:
                    break
            else:
                clean[i] = 1
                continue
        _dim, lower_ids, upper_ids = space._rows[x]
        good = True
        if len(lo) != dim or len(up) != dim:
            violations.append(Violation(
                "face-arity", x,
                f"cube {x!r} of dimension {dim} has "
                f"{len(lo)} lower / {len(up)} upper faces",
                {"dim": dim, "lower": len(lo), "upper": len(up)},
            ))
            good = False
        for nu, faces, names in ((0, lo, lower_ids), (1, up, upper_ids)):
            for k, j in enumerate(faces, start=1):
                if j == OMITTED:
                    if nu == 1 and x in space.frontier:
                        continue  # omitted by truncation, explicitly flagged
                    violations.append(Violation(
                        "missing-face", x,
                        f"cube {x!r} lacks face k={k} nu={nu}",
                        {"k": k, "nu": nu},
                    ))
                    good = False
                elif j == UNKNOWN:
                    f = names[k - 1]
                    violations.append(Violation(
                        "dangling-face", x,
                        f"cube {x!r} face k={k} nu={nu} refers to unknown id {f!r}",
                        {"k": k, "nu": nu, "ref": f},
                    ))
                    good = False
                elif dims[j] != dim - 1:
                    violations.append(Violation(
                        "face-dimension", x,
                        f"cube {x!r} face k={k} nu={nu} has dimension "
                        f"{dims[j]}, expected {dim - 1}",
                        {"k": k, "nu": nu, "ref": ids[j]},
                    ))
                    good = False
        if good:
            clean[i] = 1

    # The faces of a clean cube are cubes or omitted (never unknown), and a
    # clean cube has all its positions, so every index below is in range.
    for i, x in enumerate(ids):
        dim = dims[i]
        if dim < 2 or not clean[i]:
            continue
        for ell in range(2, dim + 1):
            for k in range(1, ell):
                for nu, mu in ((0, 0), (0, 1), (1, 0), (1, 1)):
                    outer = tables[mu][i][ell - 1]
                    inner = tables[nu][i][k - 1]
                    if outer < 0 or inner < 0:
                        continue
                    if not (clean[outer] and clean[inner]):
                        continue
                    left = tables[nu][outer][k - 1]
                    right = tables[mu][inner][ell - 2]
                    if left < 0 or right < 0:
                        continue
                    if left != right:
                        left, right = ids[left], ids[right]
                        violations.append(Violation(
                            "identity", x,
                            f"face identity fails at cube {x!r}, k={k}, l={ell}, "
                            f"nu={nu}, mu={mu}: {left!r} != {right!r}",
                            {"k": k, "ell": ell, "nu": nu, "mu": mu,
                             "left": left, "right": right},
                        ))
    return tuple(violations)


def validate_model(hda: HDA, labeling: Labeling | None = None) -> ValidationReport:
    """Validate an HDA: the precubical structure, the initial cube, and the
    labeling when one is supplied."""
    report = validate_precubical(hda.space)
    if not hda.space._rows:
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
    for x in sorted(c for c in hda.space.frontier if c not in hda.space):
        report.violations.append(Violation(
            "frontier-unknown", x, f"frontier cube {x!r} does not exist", {}))
    if labeling is not None:
        report.violations.extend(validate_labeling(hda, labeling).violations)
    return report


def _labels_fit(labels: list, tables: tuple, cubes: range, d: int,
                nevents: int) -> bool:
    """True when each d-cube in `cubes` is labeled with a sorted d-tuple
    over 1..`nevents` and has d lower and d upper faces, the k-th a cube
    labeled with its tuple less entry k.  Checked a column at a time."""
    tuples = labels[cubes.start:cubes.stop]
    if None in tuples or set(map(len, tuples)) - {d}:
        return False
    if not d:
        return True
    flat = list(itertools.chain.from_iterable(tuples))
    columns = list(zip(*tuples))
    if min(flat) < 1 or max(flat) > nevents:
        return False
    for left, right in zip(columns, columns[1:]):
        if not all(map(le, left, right)):
            return False
    for table in tables:
        rows = table[cubes.start:cubes.stop]
        if set(map(len, rows)) - {d}:
            return False
        for k in range(d):
            faces = list(map(itemgetter(k), rows))
            # A negative entry names no cube, and as an index it would
            # read another cube's label.
            if min(faces) < 0:
                return False
            expected = (list(zip(*columns[:k], *columns[k + 1:])) if d > 1
                        else [()] * len(faces))
            if list(map(labels.__getitem__, faces)) != expected:
                return False
    return True


def validate_labeling(hda: HDA, labeling: Labeling) -> ValidationReport:
    """Check that the labeling is a morphism into the event torus: tuple
    lengths match dimensions, tuples are sorted, and the k-th face deletes
    the k-th entry.

    The d-cubes are one slice of the int view.  A slice that passes its
    column checks (`_labels_fit`) holds no violation; the others are
    walked cube by cube, and the walk writes the report."""
    view = hda.space.indexed
    violations: list[Violation] = []
    nevents = len(labeling.events)
    labels = list(map(labeling.assign.get, view.ids))
    tables = (view.lower, view.upper)
    for i in itertools.chain.from_iterable(
            cubes for d, cubes in _slices(view.dims)
            if not _labels_fit(labels, tables, cubes, d, nevents)):
        x = view.ids[i]
        tup, dim = labels[i], view.dims[i]
        if tup is None:
            violations.append(Violation(
                "label-missing", x, f"cube {x!r} has no label tuple", {}))
            continue
        if len(tup) != dim:
            violations.append(Violation(
                "label-length", x,
                f"cube {x!r} of dimension {dim} is labeled with a "
                f"{len(tup)}-tuple", {"tuple": list(tup)}))
            continue
        if not dim:
            continue
        if min(tup) < 1 or max(tup) > nevents:
            violations.append(Violation(
                "label-range", x,
                f"cube {x!r} label {list(tup)} has indices outside 1..{nevents}",
                {"tuple": list(tup)}))
            continue
        if dim > 1 and sorted(tup) != list(tup):
            violations.append(Violation(
                "label-unsorted", x,
                f"cube {x!r} label {list(tup)} is not sorted ascending",
                {"tuple": list(tup)}))
            continue
        deleted = [tup[:k] + tup[k + 1:] for k in range(dim)]
        for nu, faces in ((0, view.lower[i]), (1, view.upper[i])):
            # A face list shorter than the dimension is an arity fault,
            # reported by validate_precubical; its missing positions are
            # skipped here, as are faces that name no labeled cube.
            for k, j in enumerate(faces[:dim], start=1):
                if j < 0 or labels[j] is None:
                    continue
                expected = deleted[k - 1]
                if labels[j] != expected:
                    violations.append(Violation(
                        "label-face", x,
                        f"cube {x!r}: face k={k} nu={nu} is labeled "
                        f"{list(labels[j])}, expected {list(expected)}",
                        {"k": k, "nu": nu, "face": view.ids[j]}))
    return ValidationReport(violations)


def check_total(f: PrecubicalMorphism) -> None:
    """Raise ModelError unless f maps every source cube to a target cube."""
    for x in f.source.ids():
        if x not in f.mapping:
            raise ModelError(f"morphism is not total: {x!r} unmapped")
        if f.mapping[x] not in f.target:
            raise ModelError(f"morphism maps {x!r} to unknown cube {f.mapping[x]!r}")


def check_morphism(f: PrecubicalMorphism) -> bool:
    """True iff f preserves dimensions, commutes with every face map, and
    (when pointed) sends the initial cube to the initial cube.

    Raises ModelError when the mapping is not total on the source or maps
    into unknown target cubes (`check_total`).  Face equations whose source
    face was omitted by truncation are skipped.
    """
    src, tgt = f.source, f.target
    check_total(f)
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


def reachable_mask(hda: HDA) -> bytearray:
    """Flags over the int view (`PrecubicalSet.indexed`): entry i is 1 iff
    cube i is reachable from the initial cube.  Refuses an invalid set."""
    _require_valid(hda.space)
    view = hda.space.indexed
    start = view.pos.get(hda.initial)
    if start is None:
        raise ModelError(f"initial cube {hda.initial!r} does not exist")
    cofaces, upper = view.cofaces, view.upper
    seen = bytearray(len(view.ids))
    seen[start] = 1
    stack = [start]
    while stack:
        i = stack.pop()
        for _k, j in cofaces[i]:
            if not seen[j]:
                seen[j] = 1
                stack.append(j)
        for j in upper[i]:
            if j >= 0 and not seen[j]:
                seen[j] = 1
                stack.append(j)
    return seen


def forward_order(hda: HDA) -> list[int]:
    """The reachable cubes of the int view that cannot reach a forward
    cycle, each after every cube one forward step on.  A forward step starts
    an event (to a lower coface) or finishes one (to an upper face that is
    not omitted), so the steps are those of reachability.

    Kahn's algorithm from the forward sinks: a reachable cube is released
    once every one of its steps has been.  A cube on a forward cycle, or one
    with a step to an unreleased cube, is never released, so the reachable
    cubes left out are exactly those that can reach a forward cycle.
    Refuses an invalid set, as `reachable_mask` does.
    """
    mask = hda.reach_mask
    view = hda.space.indexed
    cofaces, upper = view.cofaces, view.upper
    reached = list(itertools.compress(range(len(mask)), mask))
    # pending[i]: the steps of cube i not yet released (in a valid set an
    # upper face is a cube or omitted); back[j]: the cubes with a step to
    # j, once per step.  Steps of reachable cubes are reachable, so both
    # count reachable cubes only.
    pending = [0] * len(mask)
    back: list[list[int]] = [[] for _ in mask]
    for i in reached:
        up = upper[i]
        pending[i] = len(cofaces[i]) + len(up) - up.count(OMITTED)
        for _k, j in cofaces[i]:
            back[j].append(i)
        for j in up:
            if j >= 0:
                back[j].append(i)
    order = [i for i in reached if not pending[i]]
    for j in order:  # the loop also reads the cubes it appends
        for i in back[j]:
            pending[i] -= 1
            if not pending[i]:
                order.append(i)
    return order


def reachable(hda: HDA) -> frozenset[str]:
    """All cubes connected to the initial cube by a pointed cube path,
    i.e. the closure of {initial} under the step relation."""
    return frozenset(itertools.compress(hda.space.indexed.ids, hda.reach_mask))


def torus_cube_id(names: tuple[str, ...]) -> str:
    return ".".join(names) if names else "()"


def torus(events: EventSet, maxdim: int) -> tuple[PrecubicalSet, Labeling]:
    """The event torus truncated at ``maxdim``: its n-cubes are the sorted
    n-tuples over the alphabet and the k-th face (either kind) deletes the
    k-th entry.  The labeling is the identity assignment."""
    if maxdim < 0:
        raise ModelError("maxdim must be >= 0")
    rows: dict[str, Row] = {}
    assign: dict[str, tuple[int, ...]] = {}
    indices = range(1, len(events) + 1)
    # Without events there is no cube above dimension 0.
    for n in range(0, (maxdim if len(events) else 0) + 1):
        for tup in itertools.combinations_with_replacement(indices, n):
            names = tuple(events.name(i) for i in tup)
            cid = torus_cube_id(names)
            faces = tuple(
                torus_cube_id(names[:k] + names[k + 1:]) for k in range(n))
            rows[cid] = (n, faces, faces)
            assign[cid] = tup
    return PrecubicalSet(rows), Labeling(events, assign)


def torus_hda(events: EventSet, maxdim: int) -> tuple[HDA, Labeling]:
    """The torus pointed at its unique 0-cube."""
    space, labeling = torus(events, maxdim)
    return HDA(space, torus_cube_id(())), labeling
