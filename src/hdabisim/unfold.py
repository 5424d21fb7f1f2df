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

The classes are built one path length at a time (`_Quotient`), without
enumerating their members, and `cap` bounds how many classes are built; the
layers stop at the first length with no class, so a depth past the longest
path costs nothing more.  The quotient works on the int view of the base
(`PrecubicalSet.indexed`) and takes steps in id order, so representatives
and node ids are those of the id sequences; the tree, its node ids, the
projection and the lifts are strings, converted once per class.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .core import (HDA, OMITTED, UNKNOWN, CapExceeded, EventSet,
                   ModelError, PrecubicalMorphism, PrecubicalSet, Row,
                   check_morphism, torus_cube_id)
from .paths import DEFAULT_CAP, CubePath, _adjacency_at


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
    """The truncated unfolding of an HDA with its projection morphism.

    `children` maps (node id, base cube y) to the node of the node's paths
    extended by y, for every extension within the depth bound.
    """

    def __init__(self, base: HDA, depth: int, tree: HDA,
                 projection: PrecubicalMorphism,
                 nodes: dict[str, UnfoldNode], cap: int,
                 children: dict[tuple[str, str], str]):
        self.base = base
        self.depth = depth
        self.tree = tree
        self.projection = projection
        self.nodes = nodes
        self.cap = cap
        self.children = children

    @property
    def frontier(self) -> frozenset[str]:
        """The tree nodes whose extensions were cut off."""
        return self.tree.space.frontier

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


class _Successors(dict):
    """A cube's index -> the indices of the cubes one step after it, in
    ascending id order: the sets `PrecubicalSet.successors` lists, read from
    the int view as they are first asked for.  An upper face naming no cube
    raises, as looking that id up does."""

    def __init__(self, space: PrecubicalSet):
        super().__init__()
        self.space, self.view = space, space.indexed

    def __missing__(self, i: int) -> tuple[int, ...]:
        view = self.view
        after = {j for _k, j in view.cofaces[i]}
        for k, j in enumerate(view.upper[i]):
            if j >= 0:
                after.add(j)
            elif j == UNKNOWN:
                ref = self.space.row(view.ids[i])[2][k]
                raise ModelError(f"unknown cube id {ref!r}")
        out = self[i] = tuple(sorted(after, key=view.ids.__getitem__))
        return out


class _Quotient:
    """Homotopy classes of pointed cube paths, built one length at a time.

    Adjacent paths differ at one interior position p.  So every class at
    length L is a union of keys (C, y), the paths of a class C at length
    L-1 extended by a step y, and two keys share a class exactly when a
    chain of these merges joins them: for a class G at length L-2 ending
    in g and two different steps a, a' after g, (child(G, a), y) and
    (child(G, a'), y) merge when (g, a, y) and (g, a', y) are adjacent at
    their middle (p = L-1; adjacency at p < L-1 stays inside one key).  The
    lex-least member of a key is rep(C) + (y,), so keys are numbered in
    lex order and every union-find group keeps its least key as its root:
    the root's member is the class representative, and a layer's classes
    come out sorted.

    Paths are tuples of indices into the int view (`PrecubicalSet.indexed`),
    which orders cubes by (dimension, id); steps are taken in id order, so
    "lex" above is the order of the id sequences.  Classes are numbered
    globally: `reps[c]` is the representative of class c, `child[(c, y)]`
    the class of its extension by y, and `via[c]` maps the end of each class
    whose extension lies in c to the lex-least such class (the lower faces
    of c).
    """

    def __init__(self, hda: HDA, cap: int):
        view = hda.space.indexed
        start = view.pos.get(hda.initial)
        if start is None or view.dims[start] != 0:
            raise ModelError("unfolding requires a valid initial 0-cube")
        self.view = view
        self.cap = cap
        self.successors = _Successors(hda.space)
        self.reps: list[tuple[int, ...]] = [(start,)]
        self.child: dict[tuple[int, int], int] = {}
        self.via: list[dict[int, int]] = [{}]
        self._merges: dict[int, list[tuple[int, int, int]]] = {}

    def _merges_after(self, g: int) -> list[tuple[int, int, int]]:
        """The (a, a', y) with (g, a, y) adjacent to (g, a', y)."""
        hit = self._merges.get(g)
        if hit is None:
            view, successors = self.view, self.successors
            hit = []
            for a, b in itertools.combinations(successors[g], 2):
                after_b = set(successors[b])
                for y in successors[a]:
                    if (y in after_b and _adjacency_at(
                            view, (g, a, y), (g, b, y), 2) is not None):
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
                root = i
                while parent[root] != root:
                    root = parent[root]
                while parent[i] != root:
                    parent[i], i = root, parent[i]
                return root

            for g in grand:
                for a, b, y in self._merges_after(reps[g][-1]):
                    i = find(index[child[g, a], y])
                    j = find(index[child[g, b], y])
                    if i < j:
                        parent[j] = i
                    elif j < i:
                        parent[i] = j
            cls: dict[int, int] = {}
            nxt: list[int] = []
            for i, (c, y) in enumerate(keys):
                root = find(i)
                if root == i:
                    if len(reps) >= self.cap:
                        raise CapExceeded(
                            f"more than {self.cap} homotopy classes within "
                            f"depth {depth}")
                    cls[i] = len(reps)
                    nxt.append(len(reps))
                    reps.append(reps[c] + (y,))
                    via.append({})
                node = cls[root]
                child[c, y] = node
                via[node].setdefault(reps[c][-1], c)
            grand, layer = layer, nxt
            yield layer


def unfold(hda: HDA, depth: int, cap: int = DEFAULT_CAP) -> Unfolding:
    """Build the unfolding up to path length `depth` (depth >= 1); raises
    CapExceeded past `cap` nodes."""
    if depth < 1:
        raise ModelError("unfolding depth must be >= 1")
    quotient = _Quotient(hda, cap)
    order = [c for layer in quotient.layers(depth) for c in layer]
    view, reps = quotient.view, quotient.reps
    names, dims, lower, upper = view.ids, view.dims, view.lower, view.upper
    # Each class's representative and node id as strings, built once.
    paths = [tuple(map(names.__getitem__, rep)) for rep in reps]
    ids = [node_id_of(path) for path in paths]

    rows: dict[str, Row] = {}
    frontier: set[str] = set()
    for c in order:
        rep, via = reps[c], quotient.via[c]
        m, end = len(rep), rep[-1]
        n, lo, up = dims[end], lower[end], upper[end]
        faces = []
        for k in range(n):
            face = via.get(lo[k]) if k < len(lo) else None
            if face is None:
                raise RuntimeError(
                    f"class {ids[c]} has no member through lower face "
                    f"k={k + 1}; the face class is unexpectedly empty")
            faces.append(ids[face])
        ups: list[str | None] = []
        cut = False
        for k in range(n):
            if k >= len(up) or up[k] == OMITTED:
                raise ModelError("cannot unfold a truncated base")
            if m + 1 <= depth:
                ups.append(ids[quotient.child[c, up[k]]])
            else:
                ups.append(None)
                cut = True
        if m == depth and (cut or view.cofaces[end]):
            frontier.add(ids[c])
        if ids[c] in rows:
            raise ModelError(
                f"two homotopy classes share the node id {ids[c]!r}; "
                "cube ids containing '/' cannot be unfolded")
        rows[ids[c]] = (n, tuple(faces), tuple(ups))

    tree_space = PrecubicalSet(rows, frontier)
    tree = HDA(tree_space, ids[0])
    projection = PrecubicalMorphism(
        source=tree_space, target=hda.space,
        mapping={ids[c]: paths[c][-1] for c in order},
        pointed=True, source_initial=ids[0], target_initial=hda.initial)
    nodes = {ids[c]: UnfoldNode(paths[c], dims[reps[c][-1]]) for c in order}
    children = {(ids[c], names[y]): ids[d]
                for (c, y), d in quotient.child.items()}
    return Unfolding(hda, depth, tree, projection, nodes, cap, children)


def is_tree(hda: HDA, depth: int, cap: int = DEFAULT_CAP) -> bool:
    """Bounded tree check: every cube reached within `depth` admits exactly
    one homotopy class of pointed cube paths of length <= depth; raises
    CapExceeded past `cap` classes."""
    quotient = _Quotient(hda, cap)
    ends: set[int] = set()
    for layer in quotient.layers(depth):
        for c in layer:
            end = quotient.reps[c][-1]
            if end in ends:
                return False
            ends.add(end)
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
    out = [start]
    for y in sigma.seq[1:]:
        out.append(unfolding.children[out[-1], y])
    return CubePath(unfolding.tree.space, tuple(out))


def torus_unfolding(events: EventSet, depth: int, maxdim: int | None = None,
                    cap: int = DEFAULT_CAP) -> HDA:
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
    None to the same for any maxdim >= depth, frontier included.  The
    isomorphism is the key itself: it sends each tree node, whose
    representative path ends in x and started the events c (in start order
    when below dimension 2), to ``<x>@<m>:<c>``.  Raises CapExceeded past
    `cap` nodes.
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

    rows: dict[str, Row] = {}
    frontier: set[str] = set()
    # A history of size s keeps a node only if 2s - n <= depth - 1 for some
    # n <= min(s, top); no larger size does, and without events none but 0.
    for size in range(min(depth, (depth + top + 1) // 2) if top and len(events) else 1):
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
                    if len(rows) == cap:
                        raise CapExceeded(f"more than {cap} nodes in the torus "
                                          f"unfolding within depth {depth}")
                    rows[nid] = (n, lower, upper)
    return HDA(PrecubicalSet(rows, frontier), node_id((), ()))


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
    omitted-face pattern.  A mapping that misses a source cube or names a
    cube the target lacks is no isomorphism, so it gives False."""
    n, mapping = len(f.source), f.mapping
    if len(mapping) != n or len(f.target) != n or len(set(mapping.values())) != n:
        return False
    if not (all(x in mapping for x in f.source.ids())
            and all(y in f.target for y in mapping.values())):
        return False
    if not check_morphism(f):
        return False
    for x in f.source.ids():
        fx = f.mapping[x]
        for k in range(1, f.source.dim(x) + 1):
            if (f.source.upper(x, k) is None) != (f.target.upper(fx, k) is None):
                return False
    return True
