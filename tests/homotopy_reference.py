"""The string homotopy engine that the int engine replaced, kept as the
reference of the differential tests (`test_homotopy_engine.py`,
`test_unfold.py`).

These are the adjacency clauses, the closure and the layered quotient as
they were when they walked string ids through `dim`, `lower`, `upper` and
`successors`.  They share no code with the int engine of `hdabisim.paths`
and `hdabisim.unfold._Quotient`, which they check.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Iterator

from hdabisim.core import HDA, CapExceeded, ModelError, PrecubicalSet
from hdabisim.paths import AdjacencyInfo


def clause1(sp: PrecubicalSet, xs, ys, p: int) -> tuple[int, int] | None:
    # Two consecutive starts swap: x takes direction k then ell (k < ell),
    # y takes ell (renumbered ell-1 after the climb) then k.
    xm1, xp, xp1 = xs[p - 2], xs[p - 1], xs[p]
    ym1, yp, yp1 = ys[p - 2], ys[p - 1], ys[p]
    for k in range(1, sp.dim(xp) + 1):
        if sp.lower(xp, k) != xm1:
            continue
        for ell in range(k + 1, sp.dim(xp1) + 1):
            if sp.lower(xp1, ell) != xp:
                continue
            if sp.lower(yp, ell - 1) == ym1 and sp.lower(yp1, k) == yp:
                return k, ell
    return None


def clause2(sp: PrecubicalSet, xs, ys, p: int) -> tuple[int, int] | None:
    # Two consecutive ends swap: x ends direction k then ell (renumbered
    # ell-1), y ends ell then k, for k < ell in the top cube's indexing.
    xm1, xp, xp1 = xs[p - 2], xs[p - 1], xs[p]
    yp, yp1 = ys[p - 1], ys[p]
    for k in range(1, sp.dim(xm1) + 1):
        if sp.upper(xm1, k) != xp:
            continue
        for ell in range(k + 1, sp.dim(xm1) + 1):
            if sp.upper(xm1, ell) != yp:
                continue
            if sp.upper(xp, ell - 1) == xp1 and sp.upper(yp, k) == yp1:
                return k, ell
    return None


def clause3(sp: PrecubicalSet, xs, ys, p: int) -> tuple[int, int] | None:
    # y climbs through the big cube (start k, then end ell); x dips two
    # dimensions below by doing the end first.
    xp = xs[p - 1]
    ym1, yp, yp1 = ys[p - 2], ys[p - 1], ys[p]
    for k in range(1, sp.dim(yp) + 1):
        if sp.lower(yp, k) != ym1:
            continue
        for ell in range(k + 1, sp.dim(yp) + 1):
            if sp.upper(yp, ell) != yp1:
                continue
            if sp.lower(yp1, k) == xp:
                return k, ell
    return None


def clause4(sp: PrecubicalSet, xs, ys, p: int) -> tuple[int, int] | None:
    # Mirror of clause 3: y does end k after not yet starting ell; x takes
    # the end first and stays two dimensions below.
    xp = xs[p - 1]
    ym1, yp, yp1 = ys[p - 2], ys[p - 1], ys[p]
    for k in range(1, sp.dim(yp) + 1):
        if sp.upper(yp, k) != yp1:
            continue
        for ell in range(k + 1, sp.dim(yp) + 1):
            if sp.lower(yp, ell) != ym1:
                continue
            if sp.upper(ym1, k) == xp:
                return k, ell
    return None


CLAUSES = ((1, clause1), (2, clause2), (3, clause3), (4, clause4))


def adjacency_at(space: PrecubicalSet, xs: tuple[str, ...],
                  ys: tuple[str, ...], p: int) -> AdjacencyInfo | None:
    for swapped, (a, b) in ((False, (xs, ys)), (True, (ys, xs))):
        for num, fn in CLAUSES:
            hit = fn(space, a, b, p)
            if hit is not None:
                return AdjacencyInfo(num, p, hit[0], hit[1], swapped)
    return None


def between_candidates(space: PrecubicalSet, a: str, b: str) -> set[str]:
    # Cubes c with valid steps a -> c -> b.
    after_a = {x for (_k, x) in space.cofaces_lower(a)}
    after_a.update(f for f in space.row(a)[2] if f is not None)
    before_b = {f for f in space.row(b)[1] if f is not None}
    before_b.update(x for (_k, x) in space.cofaces_upper(b))
    return after_a & before_b


def adjacent_seqs(space: PrecubicalSet, seq: tuple[str, ...]) -> list[tuple[str, ...]]:
    out = []
    for p in range(1, len(seq) - 1):
        for cand in sorted(between_candidates(space, seq[p - 1], seq[p + 1])):
            if cand == seq[p]:
                continue
            other = seq[:p] + (cand,) + seq[p + 1:]
            if adjacency_at(space, seq, other, p + 1) is not None:
                out.append(other)
    return out


def closure(space: PrecubicalSet, seq: tuple[str, ...], cap: int,
             stop_at: tuple[str, ...] | None = None):
    """BFS over adjacency.  Returns (found_stop, seen, capped)."""
    seen = {seq}
    queue = deque([seq])
    capped = False
    while queue:
        cur = queue.popleft()
        for nxt in adjacent_seqs(space, cur):
            if nxt in seen:
                continue
            if stop_at is not None and nxt == stop_at:
                seen.add(nxt)
                return True, seen, capped
            if len(seen) >= cap:
                capped = True
                return False, seen, capped
            seen.add(nxt)
            queue.append(nxt)
    return stop_at in seen if stop_at is not None else False, seen, capped


class Quotient:
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

    Classes are numbered globally: `reps[c]` is the representative of
    class c, `child[(c, y)]` the class of its extension by y, and
    `via[c]` maps the end of each class whose extension lies in c to the
    lex-least such class (the lower faces of c).
    """

    def __init__(self, hda: HDA, cap: int):
        space = hda.space
        if hda.initial not in space or space.dim(hda.initial) != 0:
            raise ModelError("unfolding requires a valid initial 0-cube")
        self.space = space
        self.cap = cap
        self.reps: list[tuple[str, ...]] = [(hda.initial,)]
        self.child: dict[tuple[int, str], int] = {}
        self.via: list[dict[str, int]] = [{}]
        self._merges: dict[str, list[tuple[str, str, str]]] = {}

    def _merges_after(self, g: str) -> list[tuple[str, str, str]]:
        """The (a, a', y) with (g, a, y) adjacent to (g, a', y)."""
        hit = self._merges.get(g)
        if hit is None:
            space = self.space
            hit = []
            for a, b in itertools.combinations(space.successors(g), 2):
                common = set(space.successors(a)).intersection(space.successors(b))
                for y in sorted(common):
                    if adjacency_at(space, (g, a, y), (g, b, y), 2) is not None:
                        hit.append((a, b, y))
            self._merges[g] = hit
        return hit

    def layers(self, depth: int) -> Iterator[list[int]]:
        """The classes at lengths 1..depth, one sorted layer at a time."""
        reps, child, via = self.reps, self.child, self.via
        successors = self.space.successors
        grand: list[int] = []
        layer = [0]
        yield layer
        for _length in range(2, depth + 1):
            keys = [(c, y) for c in layer for y in successors(reps[c][-1])]
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
