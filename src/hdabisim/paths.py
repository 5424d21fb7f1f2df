"""Paths of cubes, their path objects, homotopy, and fan shapes.

A cube path is a sequence (x_1, ..., x_m) of cubes in which every step
either starts a new part of the computation (x_j = delta_k^0 x_{j+1}) or
ends one (x_{j+1} = delta_k^1 x_j).  Two paths of equal length with equal
endpoints are *adjacent* when they differ in exactly one position and the
difference is one of four local exchanges of independent steps:

  1. two starts swap order,
  2. two ends swap order,
  3. a start and an end of independent events swap, seen from the path that
     climbs through the higher cube (the other path dips two dimensions),
  4. the mirror-image of 3 with the end taken first.

Homotopy is the reflexive-transitive closure of adjacency; homotopic paths
describe the same computation up to independence of events.

The T-measure of a path is the sum of its cube dimensions.  Every pointed
path is homotopic to a *fan-shaped* one, which alternates 0- and 1-cubes
until it has to climb to the dimension of its end cube; fan shapes realize
the minimum T = (n_m^2 + m - 1)/2 and `fan_shape` reaches one by rewrite
iterations that each drop T by exactly 2.

Homotopy classes have one engine, `_Quotient`, a union-find over the paths
from one cube built one length at a time.  It reads each exchange off the
cube that witnesses it rather than testing pairs of paths with the
clauses; the clauses themselves, as string code over whole paths, live in
the tests as the reference its merges are checked against.  `unfold` and
`is_tree` run it from the initial cube; the path queries run it from the
path's first cube up to its length and follow the path to its class, so
`cap` counts classes.  The engine reads the int view
(`PrecubicalSet.indexed`), which orders cubes by (dimension, id), but every
order exposed here stays by id: steps are taken in id order, so classes
come out sorted by id and the canonical representative is the lex-least id
sequence.  Like every walk of the int view, the engine and the path checks
refuse a set that fails validation; so a `CubePath`, checked once where it
is made, is a cube path of a valid set, and its takers trust its steps.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .core import (HDA, OMITTED, CapExceeded, CubeIndex, ModelError,
                   PrecubicalMorphism, PrecubicalSet, Row, _require_valid)

DEFAULT_CAP = 100_000


class CubePath:
    """A cube path as a value object: its space and its id sequence.
    Construction raises ModelError where `is_cube_path` raises or fails."""

    __slots__ = ("space", "seq")

    def __init__(self, space: PrecubicalSet, seq: tuple[str, ...] | list[str]):
        seq = tuple(seq)
        check = is_cube_path(space, seq)
        if not check:
            raise ModelError(f"{','.join(seq)!r} is not a cube path; first "
                             f"broken step at position {check.failure}")
        self.space = space
        self.seq = seq

    @classmethod
    def _of(cls, space: PrecubicalSet, seq: tuple[str, ...]) -> CubePath:
        """A path the library built along the steps, so unchecked."""
        path = object.__new__(cls)
        path.space, path.seq = space, seq
        return path

    def __len__(self) -> int:
        return len(self.seq)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CubePath):
            return NotImplemented
        return self.space is other.space and self.seq == other.seq

    def __hash__(self) -> int:
        return hash((id(self.space), self.seq))

    def __repr__(self) -> str:
        return f"CubePath({', '.join(self.seq)})"

    @property
    def start(self) -> str:
        return self.seq[0]

    @property
    def end(self) -> str:
        return self.seq[-1]

    def dims(self) -> tuple[int, ...]:
        return tuple(self.space.dim(c) for c in self.seq)

    def to_json(self) -> list[str]:
        return list(self.seq)


@dataclass(frozen=True)
class StepDiag:
    """Which step clause fired between two consecutive cubes."""

    position: int  # 1-based index of the left cube
    kind: str      # "lower-face-of-next" or "upper-face-of-previous"
    k: int


@dataclass
class PathCheck:
    ok: bool
    steps: list[StepDiag]
    failure: int | None = None  # 1-based position of the first broken step

    def __bool__(self) -> bool:
        return self.ok


def is_cube_path(space: PrecubicalSet, seq: tuple[str, ...] | list[str]) -> PathCheck:
    """Check the step relation for every consecutive pair, with diagnosis:
    a step is a start at its least k, else an end at its least k (a valid
    set never has both).  Raises ModelError on an empty sequence, a set that
    fails validation (naming its first violation) and an unknown id."""
    seq = tuple(seq)
    if not seq:
        raise ModelError("empty sequence is not a cube path")
    _require_valid(space)
    view = space.indexed
    path = _indices(view, seq)
    steps: list[StepDiag] = []
    for j in range(1, len(path)):
        a, b = path[j - 1], path[j]
        if a in view.lower[b]:
            steps.append(StepDiag(j, "lower-face-of-next",
                                  view.lower[b].index(a) + 1))
        elif b in view.upper[a]:
            steps.append(StepDiag(j, "upper-face-of-previous",
                                  view.upper[a].index(b) + 1))
        else:
            return PathCheck(False, steps, failure=j)
    return PathCheck(True, steps)


def path_object(rho: CubePath) -> PrecubicalMorphism:
    """The path object P_rho of a path from a 0-cube, with its morphism.

    P_rho glues one standard cube per entry along the steps `is_cube_path`
    reports (the least k on a self-linked step): a start x_i = d0_k x_{i+1}
    glues x_i as lower face k of x_{i+1}, an end x_{i+1} = d1_k x_i glues
    x_{i+1} as upper face k of x_i.  A face of the i-th cube (i from 0) is a
    word over 0, 1 and *; each cube of P_rho is named ``<i>:<word>`` after
    the least (i, word) in its class and sent to that face of x_i, and P_rho
    is pointed at ``0:``.  Raises ModelError when rho starts above
    dimension 0 or meets an upper face omitted by truncation.
    """
    space, seq = rho.space, rho.seq
    steps = is_cube_path(space, seq).steps
    if space.dim(seq[0]) != 0:
        raise ModelError("a path object requires a path starting at a 0-cube")
    words = [["".join(w) for w in itertools.product("*01", repeat=space.dim(x))]
             for x in seq]
    parent = {(i, w): (i, w) for i, ws in enumerate(words) for w in ws}

    def find(key: tuple[int, str]) -> tuple[int, str]:
        while parent[key] != key:  # path halving
            parent[key] = key = parent[parent[key]]
        return key

    for step in steps:
        # Face w of the glued cube is the other cube's face with nu inserted
        # at position k; a class's least key stays its root.
        i, k = step.position - 1, step.k - 1
        low, high, nu = ((i, i + 1, "0") if step.kind == "lower-face-of-next"
                         else (i + 1, i, "1"))
        for w in words[low]:
            a, b = find((low, w)), find((high, w[:k] + nu + w[k:]))
            parent[max(a, b)] = min(a, b)

    name = {key: "%d:%s" % find(key) for key in parent}
    rows: dict[str, Row] = {}
    mapping: dict[str, str] = {}
    for (i, w), cid in name.items():
        if find((i, w)) != (i, w):
            continue
        stars = [q for q, c in enumerate(w) if c == "*"]
        lower, upper = (tuple(name[i, w[:q] + nu + w[q + 1:]] for q in stars)
                        for nu in "01")
        rows[cid] = (len(stars), lower, upper)
        cube = seq[i]
        for q in reversed(range(len(w))):  # the last first: no k renumbers
            if w[q] != "*":
                cube = space.face(cube, q + 1, int(w[q]))
                if cube not in space:
                    raise ModelError(f"face {w!r} of {seq[i]!r} names no cube")
        mapping[cid] = cube
    return PrecubicalMorphism(PrecubicalSet(rows), space, mapping, pointed=True,
                              source_initial="0:", target_initial=seq[0])


def _indices(view: CubeIndex, seq: tuple[str, ...]) -> tuple[int, ...]:
    """The path's cube indices in the int view."""
    try:
        return tuple(map(view.pos.__getitem__, seq))
    except KeyError as missing:
        raise ModelError(f"unknown cube id {missing.args[0]!r}") from None


class _Successors(dict):
    """A cube's index -> the indices of the cubes one step after it, in
    ascending id order: the sets `PrecubicalSet.successors` lists, read from
    the int view as they are first asked for."""

    def __init__(self, view: CubeIndex):
        super().__init__()
        self.view = view

    def __missing__(self, i: int) -> tuple[int, ...]:
        view = self.view
        after = {j for _k, j in view.cofaces[i]}
        after.update(view.upper[i])
        after.discard(OMITTED)
        out = self[i] = tuple(sorted(after, key=view.ids.__getitem__))
        return out


class _Quotient:
    """Homotopy classes of the cube paths from one cube, built one length
    at a time.

    Adjacent paths differ at one interior position p.  So every class at
    length L is a union of keys (C, y), the paths of a class C at length
    L-1 extended by a step y, and two keys share a class exactly when a
    chain of these merges joins them: for a class G at length L-2 ending
    in g and two different steps a, a' after g, (child(G, a), y) and
    (child(G, a'), y) merge when (g, a, y) and (g, a', y) are adjacent at
    their middle (p = L-1; adjacency at p < L-1 stays inside one key).
    `_merges_after(g)` reads these exchanges off the cubes that witness
    them, one or two steps from g on the int view.  The lex-least member
    of a key is rep(C) + (y,), so keys are numbered in lex order and every
    union-find group keeps its least key as its root: the root's member is
    the class representative, a layer's classes come out sorted, and the
    order of the merges changes nothing.

    Paths are tuples of indices into the int view (`PrecubicalSet.indexed`),
    which orders cubes by (dimension, id); steps are taken in id order, so
    "lex" above is the order of the id sequences.  Classes are numbered
    globally, layer by layer from class 0, the path (start,): `reps[c]` is
    the representative of class c, `child[(c, y)]` the class of its
    extension by y, and `via[c]` maps the end of each class whose extension
    lies in c to the lex-least such class (the lower faces of c).
    """

    def __init__(self, space: PrecubicalSet, start: int, cap: int):
        _require_valid(space)
        self.view = space.indexed
        self.cap = cap
        self.successors = _Successors(self.view)
        self.reps: list[tuple[int, ...]] = [(start,)]
        self.child: dict[tuple[int, int], int] = {}
        self.via: list[dict[int, int]] = [{}]
        self._merges: dict[int, list[tuple[int, int, int]]] = {}

    def _merges_after(self, g: int) -> list[tuple[int, int, int]]:
        """The (a, a', y) with (g, a, y) adjacent to (g, a', y), in no
        particular order and possibly repeated.  Each is read off the cube
        that witnesses its exchange.  The set is valid: every face list is
        as long as its cube's dimension, the face identity holds, and only
        an upper face can be missing (omitted by truncation)."""
        hit = self._merges.get(g)
        if hit is not None:
            return hit
        view = self.view
        lower, upper = view.lower, view.upper
        ends, hit = upper[g], []
        for k, v in view.cofaces[g]:
            # Clause 1: g = d0_k v and v = d0_ell y, so the other path
            # starts d0_k y, which d0_{ell-1} takes back to g (the face
            # identity).
            for ell, y in view.cofaces[v]:
                if k < ell and lower[y][k - 1] != v:
                    hit.append((v, lower[y][k - 1], y))
            # Clauses 3 and 4: v climbs from g = d0_k v to y = d1_e v; the
            # path that ends first dips two dimensions below v, through
            # a = d0_k y (k < e), a step before y that must be an end after
            # g, or a = d1_e g (e < k), an end after g that the face
            # identity makes d0_{k-1} y.
            for e, y in enumerate(upper[v], 1):
                if y < 0 or e == k:
                    continue
                a = lower[y][k - 1] if e > k else ends[e - 1]
                if a >= 0 and (e < k or a in ends):
                    hit.append((a, v, y))
        # Clause 2: a = d1_k g and b = d1_ell g end on one cube
        # y = d1_{ell-1} a = d1_k b.
        for k, a in enumerate(ends, 1):
            if a < 0:
                continue
            for ell in range(k + 1, len(ends) + 1):
                b, y = ends[ell - 1], upper[a][ell - 2]
                if b >= 0 and b != a and y >= 0 and upper[b][k - 1] == y:
                    hit.append((a, b, y))
        self._merges[g] = hit
        return hit

    def layers(self, depth: int) -> Iterator[list[int]]:
        """The classes at lengths 1..depth, one sorted layer at a time,
        stopping early at the first length with no class."""
        reps, child, via = self.reps, self.child, self.via
        successors = self.successors
        grand: list[int] = []
        layer = [0]
        yield layer
        for _length in range(2, depth + 1):
            keys = [(c, y) for c in layer for y in successors[reps[c][-1]]]
            if not keys:
                return
            index = {key: i for i, key in enumerate(keys)}
            parent = list(range(len(keys)))

            def find(i: int) -> int:
                while parent[i] != i:  # path halving
                    parent[i] = i = parent[parent[i]]
                return i

            for g in grand:
                for a, b, y in self._merges_after(reps[g][-1]):
                    i = find(index[child[g, a], y])
                    j = find(index[child[g, b], y])
                    if i < j:
                        parent[j] = i
                    elif j < i:
                        parent[i] = j
            node_of = [0] * len(keys)
            nxt: list[int] = []
            for i, (c, y) in enumerate(keys):
                if parent[i] == i:
                    if len(reps) >= self.cap:
                        raise CapExceeded(
                            f"more than {self.cap} homotopy classes within "
                            f"depth {depth}")
                    node_of[i] = node = len(reps)
                    nxt.append(node)
                    reps.append(reps[c] + (y,))
                    via.append({reps[c][-1]: c})
                else:
                    node = node_of[find(i)]
                    via[node].setdefault(reps[c][-1], c)
                child[c, y] = node
            grand, layer = layer, nxt
            yield layer


def _classes(cap: int, *paths: CubePath) -> tuple[_Quotient, list[int]]:
    """The quotient of the paths from the first cube of `paths` up to their
    length, which they share, and the class of each path in it: every step
    of a cube path is an extension the quotient builds."""
    view = paths[0].space.indexed
    seqs = [_indices(view, path.seq) for path in paths]
    quotient = _Quotient(paths[0].space, seqs[0][0], cap)
    for _layer in quotient.layers(len(seqs[0])):
        pass
    at = [0] * len(seqs)
    for n, seq in enumerate(seqs):
        for y in seq[1:]:
            at[n] = quotient.child[at[n], y]
    return quotient, at


def are_homotopic(rho: CubePath, sigma: CubePath,
                  cap: int = DEFAULT_CAP) -> bool:
    """Whether the two paths end in one class of the paths from their first
    cube up to their length (paths of different lengths or first cubes are
    not homotopic); raises CapExceeded past `cap` classes."""
    if rho.space is not sigma.space:
        raise ModelError("homotopy requires paths in the same space")
    if len(rho) != len(sigma) or rho.start != sigma.start:
        return False
    _quotient, (c, d) = _classes(cap, rho, sigma)
    return c == d


def homotopy_class(rho: CubePath, cap: int = DEFAULT_CAP) -> list[CubePath]:
    """The members of rho's homotopy class, sorted; raises CapExceeded past
    `cap` classes or `cap` members.  Each member is one chain of keys (C, y)
    from the class (rho.start,) to rho's class, listed here from its end."""
    quotient, (target,) = _classes(cap, rho)
    keys: dict[int, list[tuple[int, int]]] = {}
    for key, d in quotient.child.items():
        keys.setdefault(d, []).append(key)
    ids, members, stack = quotient.view.ids, [], [(target, ())]
    while stack:
        d, tail = stack.pop()
        if d:
            stack.extend((c, (ids[y],) + tail) for c, y in keys[d])
        elif len(members) == cap:
            raise CapExceeded(
                f"homotopy class of {rho!r} exceeds the cap of {cap} paths")
        else:
            members.append((rho.start,) + tail)
    return [CubePath._of(rho.space, seq) for seq in sorted(members)]


def canonical_rep(rho: CubePath, cap: int = DEFAULT_CAP) -> CubePath:
    """The lexicographically least member of rho's homotopy class; raises
    CapExceeded past `cap` classes."""
    quotient, (c,) = _classes(cap, rho)
    ids = quotient.view.ids
    return CubePath._of(rho.space,
                        tuple(map(ids.__getitem__, quotient.reps[c])))


def t_measure(rho: CubePath) -> int:
    """Sum of the cube dimensions along the path."""
    return sum(rho.dims())


def fan_t_bound(rho: CubePath) -> int:
    """The fan-shape floor (n_m^2 + m - 1)/2; an integer for pointed paths."""
    n = rho.space.dim(rho.end)
    return (n * n + len(rho) - 1) // 2


def is_fan_shaped(rho: CubePath) -> bool:
    """Dimensions alternate 0,1,0,1,... and then climb 2,3,...,n_m."""
    dims = rho.dims()
    m, n = len(dims), dims[-1]
    for j in range(1, m + 1):
        if j <= m - n:
            want = 0 if j % 2 == 1 else 1
        else:
            want = n + j - m
        if dims[j - 1] != want:
            return False
    return True


def _least_flanked(space: PrecubicalSet, seq: tuple[str, ...]) -> tuple[int, int, int]:
    """The least 1-based position ell with dim >= 2 entered by a start and
    left by an end, together with the entering index k2 and leaving index k3."""
    for ell in range(3, len(seq)):
        mid = seq[ell - 1]
        if space.dim(mid) < 2:
            continue
        k2 = next((k for k in range(1, space.dim(mid) + 1)
                   if space.lower(mid, k) == seq[ell - 2]), None)
        if k2 is None:
            continue
        k3 = next((k for k in range(1, space.dim(mid) + 1)
                   if space.upper(mid, k) == seq[ell]), None)
        if k3 is None:
            continue
        return ell, k2, k3
    raise AssertionError("no reducible position in a non-fan-shaped pointed path")


def _fan_once(space: PrecubicalSet, seq: tuple[str, ...]) -> list[tuple[str, ...]]:
    """One T-reducing rewrite iteration; returns the 1-2 adjacent steps."""
    ell, k2, k3 = _least_flanked(space, seq)
    i = ell - 1  # 0-based index of the cube being lowered

    def replaced(s, idx, value):
        return s[:idx] + (value,) + s[idx + 1:]

    def upper(cube, k):
        face = space.upper(cube, k)
        if face is None:
            raise ModelError(f"cannot fan-shape the path: upper face k={k} of "
                             f"{cube!r} is omitted by truncation")
        return face

    if k2 < k3:
        return [replaced(seq, i, space.lower(seq[i + 1], k2))]
    if k2 > k3:
        return [replaced(seq, i, upper(seq[i - 1], k3))]
    # k2 == k3: first move the preceding cube so the two start indices
    # separate, then reduce.
    k1 = next((k for k in range(1, space.dim(seq[i - 1]) + 1)
               if space.lower(seq[i - 1], k) == seq[i - 2]), None)
    if k1 is None:
        # Ruled out for pointed paths by the choice of the least position.
        raise AssertionError("reducible position lacks a preceding start step")
    if k1 < k2:
        mid = replaced(seq, i - 1, space.lower(seq[i], k1))
        low = replaced(mid, i, space.lower(mid[i + 1], k1))
    else:
        mid = replaced(seq, i - 1, space.lower(seq[i], k1 + 1))
        low = replaced(mid, i, upper(mid[i - 1], k3))
    if mid == seq:
        # Self-linked cubes can make the transposition a no-op; the
        # reduction is then directly adjacent to the input.
        return [low]
    return [mid, low]


def fan_shape_trace(rho: CubePath) -> list[list[CubePath]]:
    """All rewrite iterations from rho to its fan shape.

    Each iteration is the list of one or two paths it stepped through; every
    consecutive pair across the whole trace is adjacent and each iteration
    lowers the T-measure by exactly 2.  Raises ModelError when rho starts
    above dimension 0, or when a rewrite would step through an upper face
    omitted by truncation.
    """
    if rho.space.dim(rho.start) != 0:
        raise ModelError("fan shaping requires a path starting at a 0-cube")
    space, seq = rho.space, rho.seq
    iterations: list[list[CubePath]] = []
    budget = t_measure(rho) // 2 + 1
    while not is_fan_shaped(CubePath._of(space, seq)):
        if budget <= 0:
            raise AssertionError("fan shaping failed to terminate")
        budget -= 1
        chain = _fan_once(space, seq)
        iterations.append([CubePath._of(space, s) for s in chain])
        seq = chain[-1]
    return iterations


def fan_shape(rho: CubePath) -> CubePath:
    """A fan-shaped path homotopic to rho, with equal length and endpoints."""
    trace = fan_shape_trace(rho)
    return trace[-1][-1] if trace else rho


def enumerate_pointed_paths(hda: HDA, max_len: int) -> Iterator[CubePath]:
    """All pointed cube paths of length (cube count) <= max_len, emitted in
    (length, lexicographic-by-id) order.

    Paths are yielded as they are built, so a consumer that stops early
    never holds more than the layer built so far.  Extending the previous
    layer, which is in lex order, by each end's successors in id order
    (read from the int view) gives the next layer in lex order too.  The
    layers stop at the first length with no path, so a bound past the
    longest path costs nothing more.  Raises ModelError when the set fails
    validation (naming its first violation), and when the initial cube is
    missing or not a 0-cube.
    """
    if max_len < 1:
        return
    space = hda.space
    _require_valid(space)
    view = space.indexed
    start = view.pos.get(hda.initial)
    if start is None:
        raise ModelError(f"initial cube {hda.initial!r} does not exist")
    if view.dims[start] != 0:
        raise ModelError("unfolding requires a valid initial 0-cube")
    ids, successors = view.ids, _Successors(view)
    layer = [((hda.initial,), start)]
    yield CubePath._of(space, layer[0][0])
    for _length in range(2, max_len + 1):
        if not layer:
            return
        nxt = []
        for seq, end in layer:
            for y in successors[end]:
                ext = seq + (ids[y],)
                nxt.append((ext, y))
                yield CubePath._of(space, ext)
        layer = nxt
