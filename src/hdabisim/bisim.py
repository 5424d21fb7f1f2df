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
model, and takes any number of sides, all labeled over one alphabet or all
unlabeled (`_seed` checks).  It starts from forward classes, built per side
along one sink-first order of the steps that start or finish an event
(`core.forward_order`, each cube after the cubes one such step on): they
split cubes by dimension, label and what can still happen from them, and
are coarser than the result, so few rounds remain.
Refinement only splits blocks, so when the forward classes already
separate the initial cubes the verdict is negative without a round.
Faces and lower cofaces of reachable cubes are reachable, so nothing
outside the reachable parts can matter.

History-preserving bisimilarity (runs related up to homotopy and extension)
coincides with this relation-based notion, which is what the `hp_*` entry
points implement; `hp_oracle` cross-checks them on truncated unfoldings
with an independent engine, a pairwise greatest fixed point on the node
pairs the initial pair reaches, where the zig-zag condition on homotopy
classes is the run-based definition made one-step.
"""

from __future__ import annotations

import collections
import itertools
from dataclasses import dataclass, field
from typing import Sequence

from .core import (HDA, CapExceeded, Labeling, ModelError, PrecubicalMorphism,
                   PrecubicalSet, _require_valid_model, check_total,
                   forward_order, reachable, validate_labeling)
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


def open_map_check(f: PrecubicalMorphism) -> OpenMapResult:
    """Zig-zag lifting check: for every x1 reachable in ``f.source`` and every
    y2 starting a new event above f(x1), some x2 above x1 maps onto y2.

    Frontier cubes of a truncated source carry no obligations (their
    neighborhood is unknown).  Raises ModelError, as `check_morphism` does,
    when the mapping is not total or names a cube the target lacks, and
    when the source fails validation.
    """
    xs, ys = f.source.space, f.target.space
    check_total(f)
    for x1 in itertools.compress(xs.ids(), f.source.reach_mask):
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
    """Delete pairs violating face-closure or zig-zag until stable; return
    the survivors and the number of pairs deleted.

    `zig_obliged(x, y)` says whether the pair carries zig-zag obligations;
    face equations touching an omitted (truncated) face are skipped.  Each
    pass checks the universe in order and deletes violators at once, until
    a pass deletes nothing.  The greatest fixed point is unique, so neither
    the survivors nor the count depend on this schedule.
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

    deleted = True
    while deleted:
        deleted = False
        for x, y in universe:
            if (x, y) in alive and (face_violation(x, y) or zig_violation(x, y)):
                alive.discard((x, y))
                deleted = True
    return alive, len(universe) - len(alive)


def _reached_pairs(xs: PrecubicalSet, ys: PrecubicalSet, root: Pair, cap: int,
                   zig_obliged, same_label=None) -> list[Pair]:
    """The pairs `_greatest_relation`'s rules read, closed from `root`: the
    matched faces of every pair (omitted faces skipped) and the matched
    lower cofaces (equal k) of every pair `zig_obliged` accepts; with
    `same_label(x, y)`, only pairs it accepts.  Returned sorted.  Raises
    CapExceeded once more than `cap` pairs are reached."""
    seen: set[Pair] = set()
    stack = [root]
    while stack:
        pair = stack.pop()
        x, y = pair
        if (None in pair or pair in seen
                or (same_label is not None and not same_label(x, y))):
            continue
        seen.add(pair)
        if len(seen) > cap:
            raise CapExceeded(f"the oracle reached more than {cap} node pairs "
                              "from the initial pair")
        stack.extend((xs.face(x, k, nu), ys.face(y, k, nu))
                     for nu in (0, 1) for k in range(1, xs.dim(x) + 1))
        if zig_obliged(x, y):
            stack.extend((x2, y2) for k, x2 in xs.cofaces_lower(x)
                         for y2 in ys.cofaces_lower_at(y, k))
    return sorted(seen)


def _check_labelings(*labelings: Labeling | None) -> None:
    """Every model is labeled or none is, and all share one alphabet."""
    if len({labeling is None for labeling in labelings}) > 1:
        raise ModelError("either both or neither model must be labeled")
    if len({labeling.events for labeling in labelings if labeling is not None}) > 1:
        raise ModelError("mismatched event alphabets; align event order first")


def _require_labelings(sides: Sequence[tuple[HDA, Labeling | None]]) -> None:
    """`_check_labelings`, then side by side the model (`_require_valid_model`)
    and the labeling, which is looked up in `valid_labelings` when
    `validate_labeling` passed it, else validated, naming its first fault."""
    _check_labelings(*(labeling for _hda, labeling in sides))
    for hda, labeling in sides:
        _require_valid_model(hda)
        if (labeling is not None
                and hda.valid_labelings.get(id(labeling)) is not labeling):
            violations = validate_labeling(hda, labeling).violations
            if violations:
                raise ModelError(
                    f"the labeling fails validation: {violations[0].detail}")


def _forward_classes(hda: HDA, kinds: Sequence[int],
                     classes: dict[tuple, int]) -> list[int | None]:
    """The forward class of every reachable cube of one side (None for the
    others), by int view index, interned in `classes`, which the sides
    share.  `kinds` holds each cube's kind (dimension and label) as an int
    that the sides share too, so every key is built from ints.

    A forward step starts an event (to a lower coface) or finishes one (to
    an upper face).  Along `forward_order`, which puts a cube after every
    cube one forward step on, a cube's class interns its kind, the classes
    of its upper faces in position order and the set of (k, class) over its
    lower cofaces.  A reachable cube the order leaves out can reach a
    forward cycle; its class interns its kind alone.
    Bisimilar cubes get one class (by induction on the longest forward run,
    and a cube that can reach a forward cycle is never bisimilar to one
    that cannot), so the classes are coarser than the coarsest stable
    partition.
    """
    view = hda.space.indexed
    upper, cofaces = view.upper, view.cofaces
    cls: list[int | None] = [None] * len(kinds)
    class_of = cls.__getitem__
    for j in forward_order(hda):
        # A plain loop: on Python 3.11 a comprehension costs a frame.
        started = set()
        for k, p in cofaces[j]:
            started.add((k, cls[p]))
        cls[j] = classes.setdefault(
            (kinds[j], tuple(map(class_of, upper[j])), frozenset(started)),
            len(classes))
    for j in itertools.compress(range(len(kinds)), hda.reach_mask):
        if cls[j] is None:
            cls[j] = classes.setdefault((kinds[j], None), len(classes))
    return cls


@dataclass
class _Seed:
    """The forward seed of `_refine` over any number of sides.  Per side, by
    int view index: `blocks` holds the forward class of every reachable
    cube (None for the others), `masks` marks the reachable cubes, and
    `tables` holds the view's lower faces, upper faces and lower cofaces.
    `classes` interns the forward classes."""
    blocks: list[list[int | None]] = field(default_factory=list)
    masks: list[bytearray] = field(default_factory=list)
    tables: list[tuple] = field(default_factory=list)
    classes: dict[tuple, int] = field(default_factory=dict)


def _seed(sides: Sequence[tuple[HDA, Labeling | None]]) -> _Seed:
    """The forward classes (`_forward_classes`) of the reachable parts of
    any number of (hda, labeling) sides, with the tables `_refine` reads.

    Each side is read in place on its own int view.  From the initial
    0-cube of a valid model, the reachable part of an untruncated set is
    face-closed: by the face identity, each lower face of a reachable cube
    is a lower coface of a reachable face of the cube the path came from,
    and each upper face is one end step away.  So the sides must pass
    `_require_labelings`, checked first, and a truncated side raises
    ModelError.
    """
    _require_labelings(sides)
    if any(hda.space.frontier for hda, _labeling in sides):
        raise ModelError("cannot decide bisimilarity of a truncated model "
                         "(non-empty frontier); use `oracle` for truncated trees")
    seed = _Seed()
    # A labeled kind, (dimension, label tuple), is interned to an int that
    # the sides share; an unlabeled kind is the dimension.
    kind_ids = collections.defaultdict(itertools.count().__next__)
    for hda, labeling in sides:
        view = hda.space.indexed
        dims = view.dims
        kinds = dims if labeling is None else list(map(
            kind_ids.__getitem__, zip(dims, map(labeling.assign.get, view.ids))))
        seed.blocks.append(_forward_classes(hda, kinds, seed.classes))
        seed.masks.append(hda.reach_mask)
        seed.tables.append((view.lower, view.upper, view.cofaces))
    return seed


def _refine(seed: _Seed) -> tuple[list[list[int | None]], int]:
    """The coarsest stable partition of the disjoint union of the reachable
    parts of the seed's sides, however many: per side, the block of every
    cube by int view index (None for the unreachable ones), and the number
    of rounds after the seed.  The seed's blocks are refined in place.

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
    blocks, masks = seed.blocks, seed.masks
    # Per side: (blocks, lower faces, upper faces, lower cofaces).
    tables = [(blk,) + table for blk, table in zip(blocks, seed.tables)]
    # Across sides cube g is offsets[s] + its view index, with s = side_of[g].
    offsets = list(itertools.accumulate(map(len, masks), initial=0))
    side_of = [s for s, mask in enumerate(masks) for _ in mask]

    def sign(g: int) -> tuple:
        """Cube g's signature: the blocks of its lower faces and of its
        upper faces, and the set of (k, block) over its lower cofaces."""
        s = side_of[g]
        blk, lower, upper, cofaces = tables[s]
        j = g - offsets[s]
        return (tuple([blk[f] for f in lower[j]]), tuple([blk[f] for f in upper[j]]),
                frozenset([(k, blk[p]) for k, p in cofaces[j]]))

    cyclic = {c for key, c in seed.classes.items() if key[1] is None}
    # Round 1 signs every reachable cube.  parts[b] maps each signature met
    # in block b to the cubes that have it.
    parts: dict[int, dict[tuple, list[int]]] = {}
    for (blk, lower, _upper, _cofaces), mask, off in zip(tables, masks, offsets):
        for j in itertools.compress(range(len(blk)), mask):
            b = blk[j]
            sig = (sign(off + j) if b in cyclic
                   else tuple([blk[f] for f in lower[j]]))
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
            members = [set() for _ in seed.classes]
            for (blk, lower, upper, cofaces), mask, off in zip(
                    tables, masks, offsets):
                side: list[list[int]] = [[] for _ in mask]
                for i in itertools.compress(range(len(mask)), mask):
                    g = off + i
                    members[blk[i]].add(g)
                    for f in itertools.chain(lower[i], upper[i]):
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
                s = side_of[g]
                blocks[s][g - offsets[s]] = new
            moved.extend(part)
        rounds += 1
        dirty = {d for g in moved for d in dependents[g]}
        touched: dict[int, list[int]] = {}
        for g in dirty:
            s = side_of[g]
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
    seed = _seed(((x_hda, lx), (y_hda, ly)))
    views = (x_hda.space.indexed, y_hda.space.indexed)
    root = (x_hda.initial, y_hda.initial)
    x_at, y_at = (view.pos[c] for view, c in zip(views, root))
    blocks = seed.blocks  # `_refine` refines them in place
    # Initial cubes the seed separates end apart, so no round is needed.
    rounds = _refine(seed)[1] if blocks[0][x_at] == blocks[1][y_at] else 0
    ok = blocks[0][x_at] == blocks[1][y_at]
    witness = None
    if ok:
        # A block's cubes share a dimension, so its y cubes come in id order;
        # pairing x's cubes in id order with them yields the pairs sorted.
        xs, ys = (zip(itertools.compress(view.ids, mask),
                      itertools.compress(blk, mask))
                  for view, blk, mask in zip(views, blocks, seed.masks))
        members = collections.defaultdict(list)
        for c, b in ys:
            members[b].append(c)
        witness = list(itertools.chain.from_iterable(
            itertools.product((c,), members.get(b, ())) for c, b in sorted(xs)))
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

    Raises ModelError when either model fails `validate_model`, naming its
    first violation, or has a frontier (a truncated tree leaves faces
    unknown; `hp_oracle` handles those).  The labeled entry points also
    raise it when the sides are not both labeled over one alphabet, or a
    labeling fails `validate_labeling`, naming its first violation.
    """
    return _decide(x_hda, y_hda, None, None, "partition-refinement")


def labeled_bisimilar(x_hda: HDA, lx: Labeling,
                      y_hda: HDA, ly: Labeling) -> BisimDecision:
    """As `bisimilar`, relating only cubes that carry identical label tuples
    over a shared alphabet.  Raises ModelError as `bisimilar` does, and when
    a labeling fails validation."""
    return _decide(x_hda, y_hda, lx, ly, "labeled-partition-refinement")


def hp_bisimilar(x_hda: HDA, y_hda: HDA,
                 lx: Labeling | None = None,
                 ly: Labeling | None = None) -> BisimDecision:
    """History-preserving bisimilarity.

    Hp-bisimilarity, homotopy bisimilarity, and span-of-open-maps
    bisimilarity all coincide for (labeled) HDA, so the decision reduces to
    the same one-step partition refinement.  Raises ModelError as
    `bisimilar` does, and with labels as `labeled_bisimilar` does.
    """
    labeled = "" if lx is None and ly is None else "labeled-"
    return _decide(x_hda, y_hda, lx, ly,
                   "hp-bisimilarity = homotopy bisimilarity = one-step "
                   f"bisimilarity; decided by {labeled}partition-refinement")


def verify_bisim_relation(x_hda: HDA, y_hda: HDA, pairs: list[Pair],
                          lx: Labeling | None = None,
                          ly: Labeling | None = None) -> list[str]:
    """Independent witness audit: re-checks membership of the initial pair,
    dimension (and label) agreement, face-closure of every pair, and both
    zig-zag conditions on reachable pairs.  Returns human-readable problems;
    raises ModelError, as the decisions do, when the models or labelings
    fail validation or disagree (`_require_labelings`).

    A pair is face-closed when the relation holds every pair of its faces
    of one kind, lower and then upper, each tested at once; only a pair
    that fails is read position by position, to word its problems.
    """
    _require_labelings(((x_hda, lx), (y_hda, ly)))
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
        if not (rel.issuperset(zip(lower_x, lower_y))
                and rel.issuperset(zip(upper_x, upper_y))):
            for nu, faces_x, faces_y in ((0, lower_x, lower_y),
                                         (1, upper_x, upper_y)):
                for k, (fx, fy) in enumerate(zip(faces_x, faces_y), start=1):
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
    (optimistically).  Only the pairs reached from the initial pair
    (`_reached_pairs`) are checked: every pair their rules read is among
    them, so the initial pair survives there exactly when it survives on
    all equal-dimension pairs.  When nothing was truncated the unfoldings
    are exact and the answer is definite; a violation found within the
    bound is definite as well, because the frontier was treated
    optimistically.  Otherwise the verdict is `inconclusive` at the given
    bound, with the surviving pairs as witness.  `cap` bounds the homotopy
    classes of each unfolding and the node pairs reached from the initial
    pair; past it, CapExceeded is raised.  Raises ModelError, as the
    decisions do, when the models or labelings fail validation or disagree
    (`_require_labelings`).
    """
    _require_labelings(((x_hda, lx), (y_hda, ly)))
    ux: Unfolding = unfold(x_hda, depth, cap)
    uy: Unfolding = unfold(y_hda, depth, cap)
    xs, ys = ux.tree.space, uy.tree.space
    root = (ux.tree.initial, uy.tree.initial)

    def zig_obliged(x: str, y: str) -> bool:
        return x not in ux.frontier and y not in uy.frontier

    same_label = None if lx is None else (
        lambda x, y: lx.assign.get(ux.project(x)) == ly.assign.get(uy.project(y)))
    pairs = _reached_pairs(xs, ys, root, cap, zig_obliged, same_label)
    alive, deletions = _greatest_relation(xs, ys, pairs, zig_obliged)
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
