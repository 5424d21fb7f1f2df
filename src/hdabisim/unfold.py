"""Bounded unfoldings of HDA into higher-dimensional trees.

The unfolding's n-cubes are the homotopy classes of pointed cube paths
ending in an n-cube of the base; appending an upper face realizes
delta_k^1, and delta_k^0 of a class is the class of any member shortened
by one step through the matching lower face.  The projection sends a class
to its endpoint.  Built trees are truncated at a depth bound (path length,
counting cubes, so depth 1 keeps only the root); nodes whose extensions
were cut off are flagged as the frontier and their upper faces are omitted.
A truncation that cut nothing is *complete* and coincides with the full
unfolding.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import (HDA, CapExceeded, Cube, EventSet, ModelError,
                   PrecubicalMorphism, PrecubicalSet, torus_cube_id)
from .paths import DEFAULT_CAP, CubePath, _closure, enumerate_pointed_paths


class DepthExceeded(ValueError):
    """Raised when a lift would leave the truncated tree."""


def node_id_of(rep: tuple[str, ...]) -> str:
    return "/".join(rep)


@dataclass(frozen=True)
class UnfoldNode:
    """A tree node: the canonical (lex-least) member of its homotopy class."""

    rep: tuple[str, ...]
    dim: int

    @property
    def id(self) -> str:
        return node_id_of(self.rep)

    @property
    def length(self) -> int:
        return len(self.rep)


class Unfolding:
    """The truncated unfolding of an HDA with its projection morphism."""

    def __init__(self, base: HDA, depth: int, tree: HDA,
                 projection: PrecubicalMorphism,
                 nodes: dict[str, UnfoldNode],
                 node_of_rep: dict[tuple[str, ...], str],
                 frontier: frozenset[str], cap: int):
        self.base = base
        self.depth = depth
        self.tree = tree
        self.projection = projection
        self.nodes = nodes
        self.node_of_rep = node_of_rep
        self.frontier = frontier
        self.cap = cap

    @property
    def complete(self) -> bool:
        """True when truncation cut nothing, i.e. the tree is the whole
        unfolding."""
        return not self.frontier

    def project(self, node: str) -> str:
        return self.nodes[node].rep[-1]

    def projection_table(self) -> dict[str, str]:
        """Node id -> projected base cube id, for the sidecar export."""
        return {nid: self.nodes[nid].rep[-1] for nid in sorted(self.nodes)}


def _canonicalizer(space: PrecubicalSet, cap: int):
    canon: dict[tuple[str, ...], tuple[str, ...]] = {}
    members: dict[tuple[str, ...], list[tuple[str, ...]]] = {}

    def canonical(seq: tuple[str, ...]) -> tuple[str, ...]:
        hit = canon.get(seq)
        if hit is not None:
            return hit
        _found, seen, capped = _closure(space, seq, cap)
        if capped:
            raise CapExceeded(
                f"homotopy class of {'/'.join(seq)} exceeds the cap of {cap}")
        ordered = sorted(seen)
        rep = ordered[0]
        for member in ordered:
            canon[member] = rep
        members[rep] = ordered
        return rep

    return canonical, members


def unfold(hda: HDA, depth: int, cap: int = DEFAULT_CAP) -> Unfolding:
    """Build the unfolding up to path length `depth` (depth >= 1)."""
    if depth < 1:
        raise ModelError("unfolding depth must be >= 1")
    space = hda.space
    if hda.initial not in space or space.dim(hda.initial) != 0:
        raise ModelError("unfolding requires a valid initial 0-cube")
    canonical, members = _canonicalizer(space, cap)

    root = (hda.initial,)
    canonical(root)
    layers: list[list[tuple[str, ...]]] = [[root]]
    for _length in range(2, depth + 1):
        nxt = set()
        for rep in layers[-1]:
            for y in space.successors(rep[-1]):
                nxt.add(canonical(rep + (y,)))
        layers.append(sorted(nxt))

    node_reps = [rep for layer in layers for rep in layer]
    ids = {rep: node_id_of(rep) for rep in node_reps}

    cubes: list[Cube] = []
    frontier: set[str] = set()
    for rep in node_reps:
        m, end = len(rep), rep[-1]
        n = space.dim(end)
        lower = []
        for k in range(1, n + 1):
            want = space.lower(end, k)
            member = next((mm for mm in members[canonical(rep)]
                           if mm[-2] == want), None)
            if member is None:
                raise RuntimeError(
                    f"class {ids[rep]} has no member through lower face k={k}; "
                    "the face class is unexpectedly empty")
            lower.append(ids[canonical(member[:-1])])
        upper: list[str | None] = []
        cut = False
        for k in range(1, n + 1):
            up = space.upper(end, k)
            if up is None:
                raise ModelError("cannot unfold a truncated base")
            if m + 1 <= depth:
                upper.append(ids[canonical(rep + (up,))])
            else:
                upper.append(None)
                cut = True
        if m == depth and (cut or space.cofaces_lower(end)):
            frontier.add(ids[rep])
        cubes.append(Cube(ids[rep], n, tuple(lower), tuple(upper)))

    tree_space = PrecubicalSet(cubes, frontier=frontier)
    tree = HDA(tree_space, ids[root])
    projection = PrecubicalMorphism(
        source=tree_space, target=space,
        mapping={ids[rep]: rep[-1] for rep in node_reps},
        pointed=True, source_initial=ids[root], target_initial=hda.initial)
    nodes = {ids[rep]: UnfoldNode(rep, space.dim(rep[-1])) for rep in node_reps}
    node_of_rep = {rep: ids[rep] for rep in node_reps}
    return Unfolding(hda, depth, tree, projection, nodes, node_of_rep,
                     frozenset(frontier), cap)


def is_tree(hda: HDA, depth: int, cap: int = DEFAULT_CAP) -> bool:
    """Bounded tree check: every cube reached within `depth` admits exactly
    one homotopy class of pointed cube paths of length <= depth."""
    space = hda.space
    by_end: dict[str, list[tuple[str, ...]]] = {}
    count = 0
    for path in enumerate_pointed_paths(hda, depth):
        count += 1
        if count > cap:
            raise CapExceeded(f"more than {cap} pointed paths within {depth}")
        by_end.setdefault(path.end, []).append(path.seq)
    for _end, seqs in sorted(by_end.items()):
        first = seqs[0]
        cls = None
        for other in seqs[1:]:
            if len(other) != len(first):
                return False
            if cls is None:
                _f, cls, capped = _closure(space, first, cap)
                if capped:
                    raise CapExceeded(
                        f"homotopy class of {'/'.join(first)} exceeds {cap}")
            if other not in cls:
                return False
    return True


def lift_path(unfolding: Unfolding, start: str, sigma: CubePath) -> CubePath:
    """The unique tree path over `sigma` beginning at node `start`;
    projecting the result gives back `sigma`."""
    if start not in unfolding.nodes:
        raise ModelError(f"unknown tree node {start!r}")
    if sigma.space is not unfolding.base.space:
        raise ModelError("lift requires a path in the unfolding's base")
    from .paths import is_cube_path

    check = is_cube_path(sigma.space, sigma.seq)
    if not check:
        raise ModelError(
            f"cannot lift: the step relation fails at position {check.failure}")
    rep = unfolding.nodes[start].rep
    if sigma.start != rep[-1]:
        raise ModelError(
            f"path starts at {sigma.start!r}, expected the projection "
            f"{rep[-1]!r} of {start!r}")
    if len(rep) + len(sigma) - 1 > unfolding.depth:
        raise DepthExceeded(
            f"lift of length {len(rep) + len(sigma) - 1} exceeds depth "
            f"{unfolding.depth}")
    canonical, _members = _canonicalizer(unfolding.base.space, unfolding.cap)
    out = [start]
    cur = rep
    for y in sigma.seq[1:]:
        cur = cur + (y,)
        node = unfolding.node_of_rep.get(canonical(cur))
        if node is None:
            raise RuntimeError(f"lifted class {'/'.join(cur)} is not a tree node")
        out.append(node)
    return CubePath(unfolding.tree.space, tuple(out))


def torus_unfolding(events: EventSet, depth: int,
                    maxdim: int | None = None) -> HDA:
    """The closed-form unfolding of the event torus, truncated at `depth`.

    A homotopy class of pointed paths in the torus is fixed by its end cube
    x and the multiset c of events it started (each start step opens one
    event, each end step closes one), so the nodes are the pairs (x, c)
    with x a sub-multiset of c.  The class's paths have length
    2|c| - dim x + 1; nodes with 2|c| - dim x <= depth - 1 are kept.  Lower
    face k of (x, c) is (d_k x, c - {x_k}) (event x_k was never started);
    upper face k is (d_k x, c) (x_k has finished).  Nodes with
    2|c| - dim x = depth - 1 are cut: their upper faces are omitted, and
    they are on the frontier when they have upper faces or can still start
    an event.  The endpoint and length alone do not fix the class once
    there are two events: after a+a- and after b+b- are different histories.

    With `maxdim`, this unfolds the torus truncated at that dimension
    (`torus_hda(events, maxdim)`) and keeps the nodes with dim x <= maxdim.
    Below dimension 2 there are no squares to reorder events through, so
    for maxdim 1 c is the sequence of started events, in start order, and
    x can only be the last of them; for maxdim 0 nothing starts at all.

    Node ids are ``<x>@<m>:<c>`` with m = 2|c| - dim x the step count, both
    written as :func:`torus_cube_id` writes cubes (c sorted, or in start
    order for maxdim 1), without ``:<c>`` when c is empty; the root is
    ``()@0``.  The result is isomorphic to
    ``unfold(torus_hda(events, maxdim)[0], depth).tree``, and with maxdim
    None to the same for any maxdim >= depth - 1.
    """
    if depth < 1:
        raise ModelError("depth must be >= 1")
    if maxdim is not None and maxdim < 0:
        raise ModelError("maxdim must be >= 0")
    top = depth if maxdim is None else maxdim
    ordered = top < 2

    def node_id(x: tuple[str, ...], c: tuple[str, ...]) -> str:
        nid = f"{torus_cube_id(x)}@{2 * len(c) - len(x)}"
        return f"{nid}:{torus_cube_id(c)}" if c else nid

    def without(c: tuple[str, ...], event: str) -> tuple[str, ...]:
        i = len(c) - 1 - c[::-1].index(event)  # the last start of `event`
        return c[:i] + c[i + 1:]

    cubes: list[Cube] = []
    frontier: set[str] = set()
    for size in range(depth if top else 1):
        histories = (itertools.product(events.names, repeat=size) if ordered
                     else itertools.combinations_with_replacement(events.names, size))
        for c in histories:
            for n in range(max(0, 2 * size - depth + 1), min(size, top) + 1):
                ends = ([c[size - n:]] if ordered
                        else sorted(set(itertools.combinations(c, n))))
                for x in ends:
                    nid = node_id(x, c)
                    faces = [x[:k] + x[k + 1:] for k in range(n)]
                    lower = tuple(node_id(f, without(c, e))
                                  for f, e in zip(faces, x))
                    cut = 2 * size - n == depth - 1
                    upper = tuple(None if cut else node_id(f, c) for f in faces)
                    if cut and (n or (n < top and len(events))):
                        frontier.add(nid)
                    cubes.append(Cube(nid, n, lower, upper))
    return HDA(PrecubicalSet(cubes, frontier=frontier), node_id((), ()))


def longest_pointed_path_length(hda: HDA) -> int:
    """Length (cube count) of the longest pointed cube path.

    Raises ModelError when the step relation has a cycle reachable from the
    initial cube (the supremum would be infinite).  Unfolding to this depth
    is always complete.
    """
    space = hda.space
    memo: dict[str, int] = {}
    state: dict[str, int] = {hda.initial: 0}  # 0 = visiting, 1 = done
    stack = [(hda.initial, iter(space.successors(hda.initial)))]
    while stack:
        node, it = stack[-1]
        advanced = False
        for y in it:
            if state.get(y) == 0:
                raise ModelError("the step relation has a reachable cycle")
            if y not in memo:
                state[y] = 0
                stack.append((y, iter(space.successors(y))))
                advanced = True
                break
        if not advanced:
            memo[node] = 1 + max(
                (memo[y] for y in space.successors(node)), default=0)
            state[node] = 1
            stack.pop()
    return memo[hda.initial]


def is_acyclic(hda: HDA) -> bool:
    """True when no cycle of the step relation is reachable."""
    try:
        longest_pointed_path_length(hda)
    except ModelError:
        return False
    return True


def morphism_is_isomorphism(f: PrecubicalMorphism) -> bool:
    """True iff f is a bijective morphism whose inverse also matches the
    omitted-face pattern."""
    from .core import check_morphism

    if len(f.mapping) != len(f.source) or len(set(f.mapping.values())) != len(f.target):
        return False
    if not check_morphism(f):
        return False
    for x in f.source.ids():
        fx = f.mapping[x]
        for k in range(1, f.source.dim(x) + 1):
            if (f.source.upper(x, k) is None) != (f.target.upper(fx, k) is None):
                return False
    return True


def find_pointed_isomorphism(x_hda: HDA, y_hda: HDA) -> dict[str, str] | None:
    """Exhaustive search for a pointed, face-preserving bijection; None when
    there is none.  Meant for desk-scale structures."""
    xs, ys = x_hda.space, y_hda.space
    if len(xs) != len(ys):
        return None
    for n in range(max(xs.max_dim(), ys.max_dim()) + 1):
        if len(xs.by_dim(n)) != len(ys.by_dim(n)):
            return None

    order = sorted(xs.ids(), key=lambda c: (-xs.dim(c), c))
    assignment: dict[str, str] = {}
    used: set[str] = set()

    def consistent(x: str, y: str) -> bool:
        if xs.dim(x) != ys.dim(y):
            return False
        if (x == x_hda.initial) != (y == y_hda.initial):
            return False
        for nu in (0, 1):
            for k in range(1, xs.dim(x) + 1):
                fx, fy = xs.face(x, k, nu), ys.face(y, k, nu)
                if (fx is None) != (fy is None):
                    return False
                if fx is not None and fx in assignment and assignment[fx] != fy:
                    return False
        # Reverse constraints from already-assigned parents.
        for k, parent in xs.cofaces_lower(x):
            if parent in assignment and ys.lower(assignment[parent], k) != y:
                return False
        for k, parent in xs.cofaces_upper(x):
            if parent in assignment and ys.upper(assignment[parent], k) != y:
                return False
        return True

    def backtrack(idx: int) -> bool:
        if idx == len(order):
            return True
        x = order[idx]
        for y in ys.by_dim(xs.dim(x)):
            if y in used or not consistent(x, y):
                continue
            assignment[x] = y
            used.add(y)
            if backtrack(idx + 1):
                return True
            del assignment[x]
            used.remove(y)
        return False

    if not backtrack(0):
        return None
    return dict(assignment)
