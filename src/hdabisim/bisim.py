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
The refinement starts from forward classes, built in one reverse
topological pass over the steps that start or finish an event: they split
cubes by dimension, label and what can still happen from them, and are
coarser than the result, so few rounds remain.  Faces and lower cofaces of
reachable cubes are reachable, so nothing outside the reachable parts can
matter.

History-preserving bisimilarity (runs related up to homotopy and extension)
coincides with this relation-based notion, which is what the `hp_*` entry
points implement; `hp_oracle` cross-checks them on truncated unfoldings
with an independent engine, a pairwise greatest fixed point, where the
zig-zag condition on homotopy classes is the run-based definition made
one-step.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from .core import (HDA, Labeling, ModelError, PrecubicalMorphism,
                   PrecubicalSet, reachable, reachable_mask)
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
    neighborhood is unknown).
    """
    xs, ys = f.source, f.target
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
    # Partition refinement: rounds after the forward seed; the oracle:
    # pairs deleted.
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


def _universe(xs: PrecubicalSet, ys: PrecubicalSet,
              label_x: Callable[[str], object] | None = None,
              label_y: Callable[[str], object] | None = None) -> list[Pair]:
    """Equal-dimension cube pairs; with per-side label lookups, only pairs
    whose labels agree."""
    pairs: list[Pair] = []
    for n in range(min(xs.max_dim(), ys.max_dim()) + 1):
        for x in xs.by_dim(n):
            for y in ys.by_dim(n):
                if label_x is not None and label_x(x) != label_y(y):
                    continue
                pairs.append((x, y))
    return pairs


def _check_labelings(lx: Labeling | None, ly: Labeling | None) -> None:
    if (lx is None) != (ly is None):
        raise ModelError("either both or neither model must be labeled")
    if lx is not None and lx.events != ly.events:
        raise ModelError("mismatched event alphabets; align event order first")


def _union_tables(x_hda: HDA, y_hda: HDA, lx: Labeling | None,
                  ly: Labeling | None):
    """The disjoint union of both reachable parts as int tables.

    Returns (names, kinds, faces, coface_ks, coface_ps): `names[side]` lists
    the cube ids of that side in union order (the x side first), and for
    union cube i, `kinds[i]` is its (dim, label tuple or None), `faces[i]`
    its lower then upper faces, and cube i is lower face `coface_ks[i][n]`
    of cube `coface_ps[i][n]`.
    """
    names: list[list[str]] = []
    kinds: list[tuple[int, object]] = []
    faces: list[tuple[int, ...]] = []
    coface_ks: list[tuple[int, ...]] = []
    coface_ps: list[tuple[int, ...]] = []
    for hda, labeling in ((x_hda, lx), (y_hda, ly)):
        # The shared int view, renumbered: reachable cube j of this side is
        # cube local[j] of the disjoint union.  Sentinel faces are never keys.
        view = hda.space.indexed
        reach = list(itertools.compress(range(len(view.ids)), reachable_mask(hda)))
        local = dict(zip(reach, itertools.count(len(kinds))))
        names.append([view.ids[j] for j in reach])
        lower, upper, dims = view.lower, view.upper, view.dims
        assign = None if labeling is None else labeling.assign
        for j in reach:
            try:
                faces.append(tuple(map(local.__getitem__, lower[j] + upper[j])))
            except KeyError:
                raise ModelError(f"a face of the reachable cube {view.ids[j]!r} "
                                 "is not reachable; validate the model first") from None
            cofaces = view.cofaces[j]
            coface_ks.append(tuple([k for k, _p in cofaces]))
            coface_ps.append(tuple([local[p] for _k, p in cofaces]))
            kinds.append((dims[j], None if assign is None
                          else assign.get(view.ids[j])))
    return names, kinds, faces, coface_ks, coface_ps


def _forward_classes(kinds: list[tuple[int, object]],
                     faces: list[tuple[int, ...]],
                     coface_ks: list[tuple[int, ...]],
                     coface_ps: list[tuple[int, ...]]) -> list[int]:
    """The forward class of every union cube, numbered from 0 in order of
    first appearance.

    A forward step starts an event (to a lower coface) or finishes one (to
    an upper face).  Walking the forward steps in reverse topological order
    (Kahn's algorithm, from the cubes with no forward step), a cube's class
    interns its kind, the classes of its upper faces in position order and
    the set of (k, class) over its lower cofaces.  A cube the walk never
    reaches can reach a forward cycle; its class interns its kind alone.
    Bisimilar cubes get one class (by induction on the longest forward run,
    and a cube that can reach a forward cycle is never bisimilar to one
    that cannot), so the classes are coarser than the coarsest stable
    partition.
    """
    # The faces past position dim are the upper ones.  On a malformed cube
    # with more lower faces they are not, but the signature reads the same
    # positions, so the classes stay coarser than the stable partition.
    # pending[i]: forward steps from cube i to a cube not yet classed;
    # steppers[j]: the cubes with a forward step to j, once per step.
    pending: list[int] = []
    steppers: list[list[int]] = [[] for _ in kinds]
    for i, (kind, fs, ps) in enumerate(zip(kinds, faces, coface_ps)):
        ups = fs[kind[0]:]
        pending.append(len(ups) + len(ps))
        for j in itertools.chain(ups, ps):
            steppers[j].append(i)
    cls: list[int | None] = [None] * len(kinds)
    classes: dict[tuple, int] = {}
    ready = [i for i, n in enumerate(pending) if not n]
    for j in ready:  # grows as cubes become ready
        kind = kinds[j]
        cls[j] = classes.setdefault(
            (kind, tuple([cls[u] for u in faces[j][kind[0]:]]),
             frozenset(zip(coface_ks[j], map(cls.__getitem__, coface_ps[j])))),
            len(classes))
        for i in steppers[j]:
            pending[i] -= 1
            if not pending[i]:
                ready.append(i)
    for j, c in enumerate(cls):
        if c is None:
            cls[j] = classes.setdefault((kinds[j], None), len(classes))
    return cls


def _refine(x_hda: HDA, y_hda: HDA, lx: Labeling | None,
            ly: Labeling | None) -> tuple[dict[str, int], dict[str, int], int]:
    """The coarsest stable partition of the disjoint union of both reachable
    parts: cube -> block number for each side, and the number of rounds
    after the forward seed.

    The initial blocks are the forward classes (`_forward_classes`), which
    split cubes by dimension, label and what can still happen from them; a
    round splits every block by the signature (blocks of the faces in (nu,
    k) order, set of (k, block) over the lower cofaces), all signatures of a
    round read the previous round's blocks, and the partition is stable once
    a round splits nothing.  The seed is coarser than the coarsest stable
    partition refining blocks of equal dimension and label, so the result
    is that partition.  On acyclic parts the members of a seed block
    already agree on upper faces and lower cofaces, so one round often
    splits nothing.

    The refinement is incremental.  Round 1 signs every cube; a later round
    signs only the dirty cubes, those whose faces or lower cofaces changed
    block in the previous round.  Members of a block all had one signature
    in the previous round, and an untouched member's signature cannot have
    changed since, so one untouched representative stands for them all.
    When a block splits, its largest part keeps the block number and the
    other parts move to new numbers, so only their cubes' neighbours become
    dirty.  Every round yields the same partition as re-signing every cube
    would, so the round count is that of naive refinement from the seed.
    """
    names, kinds, faces, coface_ks, coface_ps = _union_tables(x_hda, y_hda,
                                                             lx, ly)
    block = _forward_classes(kinds, faces, coface_ks, coface_ps)
    members: list[set[int]] = [set() for _ in range(max(block, default=-1) + 1)]
    for i, b in enumerate(block):
        members[b].add(i)
    block_of = block.__getitem__
    # dependents[j]: the cubes whose signature reads j's block, namely the
    # cofaces of j (j is one of their faces) and the lower faces of j.
    # Built when a round first moves a cube.
    dependents: list[list[int]] | None = None

    def signature(i: int) -> tuple:
        return (tuple(map(block_of, faces[i])),
                frozenset(zip(coface_ks[i], map(block_of, coface_ps[i]))))

    dirty: set[int] = set(range(len(block)))
    rounds = 0
    while True:
        rounds += 1
        touched: dict[int, list[int]] = {}
        for i in dirty:
            b = block[i]
            if len(members[b]) > 1:
                touched.setdefault(b, []).append(i)
        # Split every touched block before moving any cube, so that all
        # signatures of this round read the previous round's blocks.
        moves: list[tuple[int, list[int] | set[int]]] = []
        for b, cubes in touched.items():
            parts: dict[tuple, list[int]] = {}
            for i in cubes:
                parts.setdefault(signature(i), []).append(i)
            # The untouched members join the part of their representative's
            # signature without being listed in it.
            rest = len(members[b]) - len(cubes)
            untouched = None
            if rest:
                rep = next(i for i in members[b] if i not in dirty)
                untouched = parts.setdefault(signature(rep), [])
            if len(parts) == 1:
                continue
            keeper = max(parts.values(), key=lambda part: len(part)
                         + (rest if part is untouched else 0))
            for part in parts.values():
                if part is keeper:
                    continue
                if part is untouched:
                    part = members[b].difference(
                        *(p for p in parts.values() if p is not untouched))
                moves.append((b, part))
        moved: list[int] = []
        for b, part in moves:
            new = len(members)
            members.append(set(part))
            members[b].difference_update(part)
            for i in part:
                block[i] = new
            moved.extend(part)
        if not moved:
            break
        if dependents is None:
            dependents = [[] for _ in block]
            for i, (fs, ps) in enumerate(zip(faces, coface_ps)):
                for f in fs:
                    dependents[f].append(i)
                for p in ps:
                    dependents[p].append(i)
        dirty = {d for j in moved for d in dependents[j]}
    return (dict(zip(names[0], block)),
            dict(zip(names[1], block[len(names[0]):])), rounds)


def _decide(x_hda: HDA, y_hda: HDA,
            lx: Labeling | None, ly: Labeling | None,
            justification: str) -> BisimDecision:
    _check_labelings(lx, ly)
    if x_hda.space.frontier or y_hda.space.frontier:
        raise ModelError("cannot decide bisimilarity of a truncated model "
                         "(non-empty frontier); use `oracle` for truncated trees")
    blocks_x, blocks_y, rounds = _refine(x_hda, y_hda, lx, ly)
    root = (x_hda.initial, y_hda.initial)
    ok = blocks_x[x_hda.initial] == blocks_y[y_hda.initial]
    witness = None
    if ok:
        members: dict[int, tuple[list[str], list[str]]] = {}
        for side, blocks in enumerate((blocks_x, blocks_y)):
            for c, b in blocks.items():
                members.setdefault(b, ([], []))[side].append(c)
        witness = sorted((x, y) for xs, ys in members.values()
                         for x in xs for y in ys)
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
    for x, y in sorted(rel):
        (dim, lower_x, upper_x), (dim_y, lower_y, upper_y) = xs.row(x), ys.row(y)
        if dim != dim_y:
            problems.append(f"dimension mismatch in pair ({x}, {y})")
            continue
        if lx is not None and lx.assign.get(x) != ly.assign.get(y):
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
            up_x, up_y = xs.cofaces_lower(x), ys.cofaces_lower(y)
            for k, x2 in up_x:
                if not any((x2, y2) in rel for j, y2 in up_y if j == k):
                    problems.append(
                        f"pair ({x}, {y}) has no match for {x2} at k={k}")
            for k, y2 in up_y:
                if not any((x2, y2) in rel for j, x2 in up_x if j == k):
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
    Otherwise the verdict is `inconclusive` at the given bound.
    """
    _check_labelings(lx, ly)
    ux: Unfolding = unfold(x_hda, depth, cap)
    uy: Unfolding = unfold(y_hda, depth, cap)
    xs, ys = ux.tree.space, uy.tree.space
    if lx is None:
        pairs = _universe(xs, ys)
    else:
        pairs = _universe(xs, ys, lambda x: lx.assign.get(ux.project(x)),
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
