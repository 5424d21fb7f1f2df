"""Bounded unfoldings of HDA into higher-dimensional trees.

The unfolding's n-cubes are the homotopy classes of pointed cube paths
ending in an n-cube of the base; appending an upper face realizes
delta_k^1, and delta_k^0 of a class is the class of any member shortened
by one step through the matching lower face.  The projection sends a class
to its endpoint.  Built trees are truncated at a depth bound (path length,
counting cubes, so depth 1 keeps only the root); nodes whose extensions
were cut off are flagged as the frontier and their upper faces are omitted.
A truncation that cut nothing is *complete* and coincides with the full
unfolding.  A truncated base unfolds too: its omitted upper faces stay
omitted, and every node ending in a base frontier cube is on the frontier,
since its extensions are unknown; so the unfolding is complete only when it
reaches no such node.  The omissions may leave a class with no member
through one of its lower faces; that base is refused, as is an invalid one.

The classes come from the one homotopy engine, `paths._Quotient`, run from
the initial cube one path length at a time: `cap` bounds how many are built,
and a depth past the longest path costs nothing more.  Representatives and
node ids are its classes' id sequences, converted once per class.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import (HDA, OMITTED, CapExceeded, EventSet, ModelError,
                   PrecubicalMorphism, PrecubicalSet, Row, _require_valid_model,
                   check_morphism, forward_order, torus_cube_id)
from .paths import DEFAULT_CAP, CubePath, _Quotient


class DepthExceeded(ValueError):
    """Raised when a lift would leave the truncated tree."""


def node_id_of(rep: tuple[str, ...]) -> str:
    """The id of the tree node whose representative is `rep`, joined by "/"."""
    return "/".join(rep)


@dataclass(frozen=True)
class UnfoldNode:
    """A tree node: the canonical (lex-least) member of its homotopy class."""

    rep: tuple[str, ...]
    dim: int

    @property
    def length(self) -> int:
        return len(self.rep)


@dataclass(eq=False)
class Unfolding:
    """The truncated unfolding of an HDA as its projection morphism, from
    the tree (`tree`, the projection's source) to the unfolded model
    (`base`, its target).

    `children` maps (node id, base cube y) to the node of the node's paths
    extended by y, for every extension within the depth bound.
    """

    depth: int
    projection: PrecubicalMorphism
    nodes: dict[str, UnfoldNode]
    cap: int
    children: dict[tuple[str, str], str]

    @property
    def tree(self) -> HDA:
        """The tree of homotopy classes, pointed at the root."""
        return self.projection.source

    @property
    def base(self) -> HDA:
        """The unfolded model."""
        return self.projection.target

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
        return self.projection.mapping[node]

    def projection_table(self) -> dict[str, str]:
        """Node id -> projected base cube id, by node id, for the sidecar."""
        return dict(sorted(self.projection.mapping.items()))


def _quotient(hda: HDA, cap: int) -> _Quotient:
    """The homotopy quotient of the pointed paths, from the initial cube of
    a model that passes validation (`_require_valid_model`)."""
    return _Quotient(hda.space, _require_valid_model(hda), cap)


def unfold(hda: HDA, depth: int, cap: int = DEFAULT_CAP) -> Unfolding:
    """Build the unfolding up to path length `depth` (depth >= 1); raises
    CapExceeded past `cap` nodes, and ModelError naming the first violation
    of a model that fails `validate_model`."""
    if depth < 1:
        raise ModelError("unfolding depth must be >= 1")
    quotient = _quotient(hda, cap)
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
        for k, f in enumerate(lo, 1):
            face = via.get(f)
            if face is None:
                # Only a truncated base leaves a face class empty; cutting
                # the class instead can break the tree's face identity.
                raise ModelError(
                    f"cannot unfold: class {ids[c]} has no member through "
                    f"lower face k={k} of {names[end]!r}, which the "
                    "truncated base reaches only through omitted upper faces")
            faces.append(ids[face])
        ups = tuple(None if m == depth or u == OMITTED
                    else ids[quotient.child[c, u]] for u in up)
        if (None in ups or (m == depth and view.cofaces[end])
                or names[end] in hda.space.frontier):
            frontier.add(ids[c])
        if ids[c] in rows:
            raise ModelError(
                f"two homotopy classes share the node id {ids[c]!r}; "
                "cube ids containing '/' cannot be unfolded")
        rows[ids[c]] = (n, tuple(faces), ups)

    projection = PrecubicalMorphism(
        HDA(PrecubicalSet(rows, frontier), ids[0]), hda,
        {ids[c]: paths[c][-1] for c in order})
    nodes = {ids[c]: UnfoldNode(paths[c], dims[reps[c][-1]]) for c in order}
    children = {(ids[c], names[y]): ids[d]
                for (c, y), d in quotient.child.items()}
    return Unfolding(depth, projection, nodes, cap, children)


def is_tree(hda: HDA, depth: int, cap: int = DEFAULT_CAP) -> bool:
    """Bounded tree check (depth >= 1): every cube reached within `depth`
    admits exactly one homotopy class of pointed cube paths of length
    <= depth; raises CapExceeded past `cap` classes, and ModelError as
    `unfold` does."""
    if depth < 1:
        raise ModelError("unfolding depth must be >= 1")
    quotient = _quotient(hda, cap)
    ends: set[int] = set()
    for layer in quotient.layers(depth):
        for c in layer:
            end = quotient.reps[c][-1]
            if end in ends:
                return False
            ends.add(end)
    return True


def lift_path(unfolding: Unfolding, start: str, sigma: CubePath) -> CubePath:
    """The unique tree path over `sigma` beginning at node `start`, read
    off `children` step by step (a CubePath's steps need no check);
    projecting the result gives back `sigma`."""
    if start not in unfolding.nodes:
        raise ModelError(f"unknown tree node {start!r}")
    if sigma.space is not unfolding.base.space:
        raise ModelError("lift requires a path in the unfolding's base")
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
    return CubePath._of(unfolding.tree.space, tuple(out))


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

    Counted along `forward_order`, whose steps are those of cube paths.
    Raises ModelError when the step relation has a cycle reachable from the
    initial cube (the supremum would be infinite), and, as `reachable`
    does, when the model fails validation.  Unfolding to this depth is
    always complete.
    """
    view = hda.space.indexed
    cofaces, upper = view.cofaces, view.upper
    # longest[j]: the length of the longest path from cube j, 0 until known.
    longest = [0] * len(view.ids)
    for j in forward_order(hda):
        longest[j] = 1 + max([longest[p] for _k, p in cofaces[j]]
                             + [longest[u] for u in upper[j] if u >= 0],
                             default=0)
    length = longest[view.pos[hda.initial]]
    if not length:
        raise ModelError("the step relation has a reachable cycle")
    return length


def is_acyclic(hda: HDA) -> bool:
    """True when no cycle of the step relation is reachable, i.e. when
    `forward_order` releases the initial cube.  Raises ModelError as
    `reachable` does, when the model fails validation."""
    return _require_valid_model(hda) in forward_order(hda)


def morphism_is_isomorphism(f: PrecubicalMorphism) -> bool:
    """True iff f is a bijective morphism whose inverse also matches the
    omitted-face pattern.  A mapping that misses a source cube or names a
    cube the target lacks is no isomorphism, so it gives False."""
    src, tgt, mapping = f.source.space, f.target.space, f.mapping
    if not (len(src) == len(mapping) == len(tgt) == len(set(mapping.values()))
            and all(x in mapping for x in src.ids())
            and all(y in tgt for y in mapping.values()) and check_morphism(f)):
        return False
    return all((src.upper(x, k) is None) == (tgt.upper(mapping[x], k) is None)
               for x in src.ids() for k in range(1, src.dim(x) + 1))
