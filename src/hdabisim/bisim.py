"""Open-map checking and the partition-refinement decision of (hp-)bisimilarity.

Two HDA are bisimilar exactly when some face-closed relation R on
equal-dimension cube pairs contains the pair of initial cubes and has the
zig-zag property on reachable pairs: whenever (x1, y1) is related and x1 is
the k-th lower face of some x2, then y1 is the k-th lower face of some y2
with (x2, y2) related, and symmetrically.  Faces are deterministic
transitions and lower cofaces with index k are nondeterministic ones, so
this is an ordinary strong bisimulation on a finite transition system.  The
decision refines a partition of the disjoint union of the two reachable
parts until every block agrees on the blocks of its cubes' faces and lower
cofaces; the models are bisimilar when both initial cubes end in one block.
The refinement reads each model in place on its int view, one side per
model, and takes one side as well as two.  It starts from forward
classes, built per side in one depth-first post-order pass over the steps
that start or finish an event: they split cubes by dimension, label and
what can still happen from them, and are coarser than the result, so few
rounds remain.  Refinement only splits blocks, so when the forward classes
already separate the initial cubes the verdict is negative without a
round.  Faces and lower cofaces of reachable cubes are reachable, so
nothing outside the reachable parts can matter.

History-preserving bisimilarity (runs related up to homotopy and extension)
coincides with this relation-based notion, which is what the `hp_*` entry
points implement; `hp_oracle` cross-checks them on truncated unfoldings
with an independent engine, a pairwise greatest fixed point, where the
zig-zag condition on homotopy classes is the run-based definition made
one-step.
"""

from __future__ import annotations

import itertools
import operator
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .core import (HDA, CapExceeded, Labeling, ModelError, PrecubicalMorphism,
                   PrecubicalSet, check_total, reachable)
from .paths import DEFAULT_CAP
from .unfold import Unfolding, unfold

Pair = tuple[str, str]


@dataclass
class OpenMapResult:
    ok: bool
    counterexample: tuple[str, str, int] | None = None  # (x1, y2, k)

    def __bool__(self) -> bool:
        return self.ok

    def to_json(self) -> dict:
        ce = None
        if self.counterexample:
            x1, y2, k = self.counterexample
            ce = {"x1": x1, "y2": y2, "k": k}
        return {"result": self.ok, "counterexample": ce}


def open_map_check(f: PrecubicalMorphism, x_hda: HDA, y_hda: HDA) -> OpenMapResult:
    """Zig-zag lifting check: for every reachable x1 and every y2 starting a
    new event above f(x1), some x2 above x1 maps onto y2.

    Frontier cubes of a truncated source carry no obligations (their
    neighborhood is unknown).  Raises ModelError, as `check_morphism` does,
    when the mapping is not total or names a cube the target lacks.
    """
    xs, ys = f.source, f.target
    check_total(f)
    for x1 in sorted(reachable(x_hda), key=lambda c: (xs.dim(c), c)):
        if x1 in xs.frontier:
            continue
        fx1 = f.mapping[x1]
        for k, y2 in ys.cofaces_lower(fx1):
            if not any(f.mapping[x2] == y2
                       for x2 in xs.cofaces_lower_at(x1, k)):
                return OpenMapResult(False, (x1, y2, k))
    return OpenMapResult(True)


@dataclass
class BisimDecision:
    result: bool | str  # True | False | "inconclusive"
    witness: list[Pair] | None
    justification: str
    counterexample: dict | None = None
    # Partition refinement: rounds after the forward seed, 0 when the seed
    # already separates the initial cubes; the oracle: pairs deleted.
    iterations: int = 0
    notes: dict = field(default_factory=dict)

    @property
    def definite(self) -> bool:
        return self.result != "inconclusive"

    def __bool__(self) -> bool:
        return self.result is True

    def to_json(self) -> dict:
        out = {
            "result": self.result,
            "witness": [list(p) for p in self.witness] if self.witness else None,
            "justification": self.justification,
            "counterexample": self.counterexample,
        }
        out.update(self.notes)
        return out


def _greatest_relation(xs: PrecubicalSet, ys: PrecubicalSet,
                       universe: list[Pair],
                       zig_obliged) -> tuple[set[Pair], int]:
    """Delete pairs violating face-closure or zig-zag until stable.

    `zig_obliged(x, y)` says whether the pair carries zig-zag obligations;
    face equations touching an omitted (truncated) face are skipped.  The
    greatest fixed point is unique, so the deterministic schedule below is
    just for reproducibility of iteration counts.
    """
    alive: set[Pair] = set(universe)

    def face_violation(x: str, y: str) -> bool:
        for nu in (0, 1):
            for k in range(1, xs.dim(x) + 1):
                fx, fy = xs.face(x, k, nu), ys.face(y, k, nu)
                if fx is None or fy is None:
                    continue  # truncated side: unknown, no constraint
                if (fx, fy) not in alive:
                    return True
        return False

    def zig_violation(x: str, y: str) -> bool:
        if not zig_obliged(x, y):
            return False
        for k, x2 in xs.cofaces_lower(x):
            if not any((x2, y2) in alive
                       for y2 in ys.cofaces_lower_at(y, k)):
                return True
        for k, y2 in ys.cofaces_lower(y):
            if not any((x2, y2) in alive
                       for x2 in xs.cofaces_lower_at(x, k)):
                return True
        return False

    queue: deque[Pair] = deque(universe)
    queued: set[Pair] = set(universe)
    deletions = 0
    while queue:
        pair = queue.popleft()
        queued.discard(pair)
        if pair not in alive:
            continue
        x, y = pair
        if not (face_violation(x, y) or zig_violation(x, y)):
            continue
        alive.discard(pair)
        deletions += 1
        affected: list[Pair] = []
        for nu in (0, 1):
            cof_x = xs.cofaces_lower(x) if nu == 0 else xs.cofaces_upper(x)
            cof_y_at = (ys.cofaces_lower_at if nu == 0 else
                        lambda c, k: tuple(p for (j, p) in ys.cofaces_upper(c)
                                           if j == k))
            for k, x2 in cof_x:
                for y2 in cof_y_at(y, k):
                    affected.append((x2, y2))
        for k in range(1, xs.dim(x) + 1):
            fx, fy = xs.lower(x, k), ys.lower(y, k)
            if fx is not None and fy is not None:
                affected.append((fx, fy))
        for cand in affected:
            if cand in alive and cand not in queued:
                queue.append(cand)
                queued.add(cand)
    return alive, deletions


def _universe(xs: PrecubicalSet, ys: PrecubicalSet, cap: int,
              label_x: Callable[[str], object] | None = None,
              label_y: Callable[[str], object] | None = None) -> list[Pair]:
    """Equal-dimension cube pairs; with per-side label lookups, only pairs
    whose labels agree.  Raises CapExceeded once more than `cap` pairs are
    built, which is checked after the pairs of each x."""
    pairs: list[Pair] = []
    for n in range(min(xs.max_dim(), ys.max_dim()) + 1):
        for x in xs.by_dim(n):
            for y in ys.by_dim(n):
                if label_x is not None and label_x(x) != label_y(y):
                    continue
                pairs.append((x, y))
            if len(pairs) > cap:
                raise CapExceeded(
                    f"the oracle's pair universe exceeded {cap} pairs: "
                    f"{len(pairs)} reached at dimension {n}")
    return pairs


def _check_labelings(lx: Labeling | None, ly: Labeling | None) -> None:
    if (lx is None) != (ly is None):
        raise ModelError("either both or neither model must be labeled")
    if lx is not None and lx.events != ly.events:
        raise ModelError("mismatched event alphabets; align event order first")


def _forward_classes(mask: bytearray, kinds: Sequence,
                     tails: Sequence[tuple[int, ...]],
                     cofaces: Sequence[list[tuple[int, int]]],
                     classes: dict[tuple, int]) -> list[int | None]:
    """The forward class of every reachable cube of one side (None for the
    others), interned in `classes`, which the sides share.

    A forward step starts an event (to a lower coface, listed as (k, cube)
    in `cofaces`) or finishes one (to an upper face, listed in `tails`).  A
    depth-first walk closes a cube after every cube one forward step on that
    is not still open on the walk's path, so in post-order.  A cube with a
    step to an open cube, or to a marked one, can reach a forward cycle and
    is marked; its class interns its kind alone.  Any other cube's class
    interns its kind, the classes of its tails in position order and the set
    of (k, class) over its lower cofaces.
    Bisimilar cubes get one class (by induction on the longest forward run,
    and a cube that can reach a forward cycle is never bisimilar to one
    that cannot), so the classes are coarser than the coarsest stable
    partition.
    """
    cls: list[int | None] = [None] * len(kinds)
    state = bytearray(len(kinds))  # 1: open, 2: closed
    marked = bytearray(len(kinds))
    for root in itertools.compress(range(len(kinds)), mask):
        if state[root]:
            continue
        # The stack holds cubes to open and, as ~j, cube j to close once
        # everything pushed after it is done; `path` lists the open cubes,
        # the last one being the cube whose steps are being popped.
        stack, path = [root], []
        while stack:
            j = stack.pop()
            if j >= 0:
                seen = state[j]
                if not seen:
                    state[j] = 1
                    path.append(j)
                    stack.append(~j)
                    stack.extend([p for _k, p in cofaces[j]])
                    stack.extend(tails[j])
                elif seen == 1 or marked[j]:
                    marked[path[-1]] = 1
                continue
            j = ~j
            state[j] = 2
            path.pop()
            if marked[j]:
                if path:
                    marked[path[-1]] = 1
                continue
            cls[j] = classes.setdefault(
                (kinds[j], tuple([cls[u] for u in tails[j]]),
                 frozenset([(k, cls[p]) for k, p in cofaces[j]])),
                len(classes))
    for j in itertools.compress(range(len(kinds)), marked):
        cls[j] = classes.setdefault((kinds[j], None), len(classes))
    return cls


@dataclass
class _Seed:
    """The forward seed of `_refine` over one or two sides.  Per side, by
    int view index: `blocks` holds the forward class of every reachable
    cube (None for the others), `masks` marks the reachable cubes, and
    `tables` holds (heads, tails, cofaces): the faces before and past the
    cube's dimension and its lower cofaces.  Across sides a cube is known by
    its side's entry in `offsets` plus its view index.  `classes` interns
    the forward classes."""
    blocks: list[list[int | None]] = field(default_factory=list)
    masks: list[bytearray] = field(default_factory=list)
    tables: list[tuple] = field(default_factory=list)
    offsets: list[int] = field(default_factory=list)
    classes: dict[tuple, int] = field(default_factory=dict)


def _seed(sides: Sequence[tuple[HDA, Labeling | None]]) -> _Seed:
    """The forward classes (`_forward_classes`) of the reachable parts of
    one or two (hda, labeling) sides, with the tables `_refine` reads.

    Each side is read in place on its own int view.  A cube's faces are
    read as one tuple, lower then upper, split at the cube's dimension into
    heads and tails, also on a malformed cube.  A reachable
    cube with a face outside the reachable part raises ModelError, naming
    the first such cube in (dimension, id) order.
    """
    seed = _Seed()
    offset = 0
    for hda, labeling in sides:
        view = hda.space.indexed
        mask = hda.reach_mask
        lower, upper, dims = view.lower, view.upper, view.dims
        # The sentinels UNKNOWN (-1) and OMITTED (-2) index the two zero
        # pads rather than wrapping round to the last cubes.
        padded = mask + bytes(2)
        reached = itertools.chain.from_iterable(itertools.chain(
            itertools.compress(lower, mask), itertools.compress(upper, mask)))
        if not all(map(padded.__getitem__, reached)):
            j = next(j for j in itertools.compress(range(len(dims)), mask)
                     if not all(map(padded.__getitem__, lower[j] + upper[j])))
            raise ModelError(f"a face of the reachable cube {view.ids[j]!r} "
                             "is not reachable; validate the model first")
        # Heads and tails differ from the lower and upper faces only on a
        # cube whose lower faces are not as many as its dimension.
        heads, tails = list(lower), list(upper)
        for j in itertools.compress(itertools.count(),
                                    map(operator.ne, map(len, lower), dims)):
            faces = lower[j] + upper[j]
            heads[j], tails[j] = faces[:dims[j]], faces[dims[j]:]
        kinds = dims if labeling is None else tuple(
            zip(dims, map(labeling.assign.get, view.ids)))
        seed.blocks.append(
            _forward_classes(mask, kinds, tails, view.cofaces, seed.classes))
        seed.masks.append(mask)
        seed.tables.append((heads, tails, view.cofaces))
        seed.offsets.append(offset)
        offset += len(mask)
    return seed


def _refine(seed: _Seed) -> tuple[list[list[int | None]], int]:
    """The coarsest stable partition of the disjoint union of the reachable
    parts of the seed's sides: for each side, the block of every cube by int
    view index (None for the unreachable ones), and the number of rounds
    after the seed.  The seed's blocks are refined in place.

    A round splits every block by the signature (blocks of the faces, set
    of (k, block) over the lower cofaces), reading the previous round's
    blocks, until a round splits nothing.  The seed is coarser than the
    coarsest stable partition refining blocks of equal dimension and label,
    so the result is that partition.  Refinement only splits blocks, so
    cubes the seed separates end apart.

    Round 1 signs a cube of a forward class by the blocks of its lower faces
    alone, since the members of a forward class already agree on upper faces
    and lower cofaces; cubes that can reach a forward cycle get the whole
    signature.  A later round signs only the dirty cubes, those whose faces
    or lower cofaces changed block in the previous round.  Members of a
    block all had one signature in the previous round, and an untouched
    member's signature cannot have changed since, so one untouched
    representative stands for them all.  When a block splits, its largest
    part keeps the block number and the other parts move to new numbers, so
    only their cubes' neighbours become dirty.  Every round yields the same
    partition as re-signing every cube would, so the round count is that of
    naive refinement from the seed.
    """
    blocks, masks, offsets, classes = (seed.blocks, seed.masks, seed.offsets,
                                       seed.classes)
    # Per side: (blocks, heads, tails, cofaces).
    tables = [(blk,) + table for blk, table in zip(blocks, seed.tables)]
    # A cube known by offset + index is on side 1 iff past the first side.
    split = len(masks[0])

    def sign(g: int) -> tuple:
        """Cube g's signature: the blocks of its heads and of its tails,
        and the set of (k, block) over its lower cofaces."""
        s = g >= split
        blk, heads, tails, cofaces = tables[s]
        j = g - offsets[s]
        return (tuple([blk[f] for f in heads[j]]), tuple([blk[f] for f in tails[j]]),
                frozenset([(k, blk[p]) for k, p in cofaces[j]]))

    cyclic = {c for key, c in classes.items() if key[1] is None}
    # Round 1 signs every reachable cube.  parts[b] maps each signature met
    # in block b to the cubes that have it.
    parts: dict[int, dict[tuple, list[int]]] = {}
    for (blk, heads, _tails, _cofaces), mask, off in zip(tables, masks, offsets):
        for j in itertools.compress(range(len(blk)), mask):
            b = blk[j]
            sig = (sign(off + j) if b in cyclic
                   else tuple([blk[f] for f in heads[j]]))
            parts.setdefault(b, {}).setdefault(sig, []).append(off + j)
    # In a later round, spare[b] is the part of block b that its untouched
    # members join without being listed in it, and their number.
    spare: dict[int, tuple[list[int], int]] = {}
    members: list[set[int]] | None = None
    # dependents[g]: the cubes whose signature reads g's block, namely the
    # cofaces of g (g is one of their faces) and the lower faces of g.
    dependents: list[list[int]] = []
    rounds = 1
    while True:
        # Split every block before moving any cube, so that all signatures
        # of this round read the previous round's blocks.
        moves: list[tuple[int, list[int] | set[int]]] = []
        for b, signed in parts.items():
            if len(signed) == 1:
                continue
            untouched, rest = spare.get(b, (None, 0))
            keeper = max(signed.values(), key=lambda part: len(part)
                         + (rest if part is untouched else 0))
            for part in signed.values():
                if part is keeper:
                    continue
                if part is untouched:
                    part = members[b].difference(
                        *(p for p in signed.values() if p is not untouched))
                moves.append((b, part))
        if not moves:
            return blocks, rounds
        if members is None:
            # Built when a round first moves a cube.
            members = [set() for _ in classes]
            for (blk, heads, tails, cofaces), mask, off in zip(
                    tables, masks, offsets):
                side: list[list[int]] = [[] for _ in mask]
                for i in itertools.compress(range(len(mask)), mask):
                    g = off + i
                    members[blk[i]].add(g)
                    for f in itertools.chain(heads[i], tails[i]):
                        side[f].append(g)
                    for _k, p in cofaces[i]:
                        side[p].append(g)
                dependents += side
        moved: list[int] = []
        for b, part in moves:
            new = len(members)
            members.append(set(part))
            members[b].difference_update(part)
            for g in part:
                s = g >= split
                blocks[s][g - offsets[s]] = new
            moved.extend(part)
        rounds += 1
        dirty = {d for g in moved for d in dependents[g]}
        touched: dict[int, list[int]] = {}
        for g in dirty:
            s = g >= split
            b = blocks[s][g - offsets[s]]
            if len(members[b]) > 1:
                touched.setdefault(b, []).append(g)
        parts, spare = {}, {}
        for b, cubes in touched.items():
            signed = parts[b] = {}
            for g in cubes:
                signed.setdefault(sign(g), []).append(g)
            rest = len(members[b]) - len(cubes)
            if rest:
                rep = next(g for g in members[b] if g not in dirty)
                spare[b] = (signed.setdefault(sign(rep), []), rest)


def _decide(x_hda: HDA, y_hda: HDA,
            lx: Labeling | None, ly: Labeling | None,
            justification: str) -> BisimDecision:
    _check_labelings(lx, ly)
    if x_hda.space.frontier or y_hda.space.frontier:
        raise ModelError("cannot decide bisimilarity of a truncated model "
                         "(non-empty frontier); use `oracle` for truncated trees")
    seed = _seed(((x_hda, lx), (y_hda, ly)))
    views = (x_hda.space.indexed, y_hda.space.indexed)
    root = (x_hda.initial, y_hda.initial)

    def together(blocks: list[list[int | None]]) -> bool:
        return blocks[0][views[0].pos[root[0]]] == blocks[1][views[1].pos[root[1]]]

    # Initial cubes the seed separates end apart, so no round is needed.
    blocks, rounds = _refine(seed) if together(seed.blocks) else (seed.blocks, 0)
    ok = together(blocks)
    witness = None
    if ok:
        members: dict[int, tuple[list[str], list[str]]] = {}
        for side, (view, blk) in enumerate(zip(views, blocks)):
            for c, b in zip(view.ids, blk):
                if b is not None:
                    members.setdefault(b, ([], []))[side].append(c)
        witness = sorted(pair for xs, ys in members.values()
                         for pair in itertools.product(xs, ys))
        # Independent audit of the returned witness; failure here would be
        # an engine bug, not a property of the inputs.
        problems = verify_bisim_relation(x_hda, y_hda, witness, lx, ly)
        if problems:
            raise RuntimeError("partition witness failed its audit: "
                               + "; ".join(problems[:3]))
    counterexample = None if ok else {
        "pair": list(root),
        "detail": "the initial cubes end in different blocks of the "
                  "coarsest stable partition",
    }
    return BisimDecision(ok, witness, justification,
                         counterexample=counterexample, iterations=rounds)


def bisimilar(x_hda: HDA, y_hda: HDA) -> BisimDecision:
    """Decide bisimilarity of finite, untruncated HDA; on success the
    witness is the greatest face-closed zig-zag relation on reachable pairs.

    Raises ModelError when either model has a frontier (a truncated tree
    leaves faces unknown; `hp_oracle` handles those).
    """
    return _decide(x_hda, y_hda, None, None, "partition-refinement")


def labeled_bisimilar(x_hda: HDA, lx: Labeling,
                      y_hda: HDA, ly: Labeling) -> BisimDecision:
    """As `bisimilar`, relating only cubes that carry identical label tuples
    over a shared alphabet."""
    return _decide(x_hda, y_hda, lx, ly, "labeled-partition-refinement")


def hp_bisimilar(x_hda: HDA, y_hda: HDA,
                 lx: Labeling | None = None,
                 ly: Labeling | None = None) -> BisimDecision:
    """History-preserving bisimilarity.

    Hp-bisimilarity, homotopy bisimilarity, and span-of-open-maps
    bisimilarity all coincide for (labeled) HDA, so the decision reduces to
    the same one-step partition refinement.
    """
    if lx is not None or ly is not None:
        decision = labeled_bisimilar(x_hda, lx, y_hda, ly)
    else:
        decision = bisimilar(x_hda, y_hda)
    decision.justification = (
        "hp-bisimilarity = homotopy bisimilarity = one-step bisimilarity; "
        "decided by " + decision.justification)
    return decision


def verify_bisim_relation(x_hda: HDA, y_hda: HDA, pairs: list[Pair],
                          lx: Labeling | None = None,
                          ly: Labeling | None = None) -> list[str]:
    """Independent witness audit: re-checks membership of the initial pair,
    dimension (and label) agreement, face-closure of every pair, and both
    zig-zag conditions on reachable pairs.  Returns human-readable problems.
    """
    xs, ys = x_hda.space, y_hda.space
    rel = set(pairs)
    problems: list[str] = []
    if (x_hda.initial, y_hda.initial) not in rel:
        problems.append("initial pair missing")
    reach_x, reach_y = reachable(x_hda), reachable(y_hda)
    row_x, row_y = xs.row, ys.row
    cofaces_x, cofaces_y = xs.cofaces_lower, ys.cofaces_lower
    label_x = label_y = None
    if lx is not None:
        label_x, label_y = lx.assign.get, ly.assign.get
    for x, y in sorted(rel):
        (dim, lower_x, upper_x), (dim_y, lower_y, upper_y) = row_x(x), row_y(y)
        if dim != dim_y:
            problems.append(f"dimension mismatch in pair ({x}, {y})")
            continue
        if label_x is not None and label_x(x) != label_y(y):
            problems.append(f"label mismatch in pair ({x}, {y})")
        for nu, faces_x, faces_y in ((0, lower_x, lower_y), (1, upper_x, upper_y)):
            # Positions past either face list are absent, as in `face`.
            for k, (fx, fy) in enumerate(zip(faces_x[:dim], faces_y), start=1):
                if fx is None or fy is None:
                    continue
                if (fx, fy) not in rel:
                    problems.append(
                        f"pair ({x}, {y}) not face-closed at k={k} nu={nu}")
        if x in reach_x and y in reach_y:
            up_x, up_y = cofaces_x(x), cofaces_y(y)
            for k, x2 in up_x:
                for j, y2 in up_y:
                    if j == k and (x2, y2) in rel:
                        break
                else:
                    problems.append(
                        f"pair ({x}, {y}) has no match for {x2} at k={k}")
            for k, y2 in up_y:
                for j, x2 in up_x:
                    if j == k and (x2, y2) in rel:
                        break
                else:
                    problems.append(
                        f"pair ({x}, {y}) has no match for {y2} at k={k}")
    return problems


def hp_oracle(x_hda: HDA, y_hda: HDA, depth: int,
              lx: Labeling | None = None, ly: Labeling | None = None,
              cap: int = DEFAULT_CAP) -> BisimDecision:
    """Run-based cross-check on truncated unfoldings.

    Builds both unfoldings to `depth`, then computes the greatest
    face-closed zig-zag relation on tree-node pairs, with pairs touching
    the truncation frontier exempted from zig-zag obligations
    (optimistically).  When nothing was truncated the unfoldings are exact
    and the answer is definite; a violation found within the bound is
    definite as well, because the frontier was treated optimistically.
    Otherwise the verdict is `inconclusive` at the given bound.  `cap`
    bounds the homotopy classes of each unfolding and the node pairs the
    relation starts from; past it, CapExceeded is raised.
    """
    _check_labelings(lx, ly)
    ux: Unfolding = unfold(x_hda, depth, cap)
    uy: Unfolding = unfold(y_hda, depth, cap)
    xs, ys = ux.tree.space, uy.tree.space
    if lx is None:
        pairs = _universe(xs, ys, cap)
    else:
        pairs = _universe(xs, ys, cap, lambda x: lx.assign.get(ux.project(x)),
                          lambda y: ly.assign.get(uy.project(y)))

    def zig_obliged(x: str, y: str) -> bool:
        return x not in ux.frontier and y not in uy.frontier

    alive, deletions = _greatest_relation(xs, ys, pairs, zig_obliged)
    root = (ux.tree.initial, uy.tree.initial)
    exact = ux.complete and uy.complete
    notes = {"depth": depth, "exact": exact}
    if root not in alive:
        # Optimistic frontier handling makes any found violation real.
        return BisimDecision(
            False, None, "unfolding-zig-zag", iterations=deletions,
            counterexample={"pair": list(root),
                            "detail": "initial node pair deleted within the bound"},
            notes=notes)
    if exact:
        return BisimDecision(True, sorted(alive), "unfolding-zig-zag",
                             iterations=deletions, notes=notes)
    return BisimDecision("inconclusive", sorted(alive), "unfolding-zig-zag",
                         iterations=deletions, notes=notes)
