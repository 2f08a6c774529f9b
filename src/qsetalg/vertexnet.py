"""Small tensor networks over gamma vertices and rank-raising nodes.

Two node species:

    gamma vertex   slots (dual, vector, spinor) with dimensions
                   (rep, p+q, rep) and parities (1, 0, 1); the tensor entry at
                   (y2, m, y1) is gamma_m[y2][y1]. The parity sum is even, so
                   a gauge interaction conserves fermion-line parity.

    iota node      one rank-raising relabeling: grade-m blade labels of the
                   rank-r frame (C(n, m) of them, parity m mod 2) are sent to
                   single generators one rank up (2**n of them, parity 1).
                   The tensor is the 0/1 inclusion matrix, out index = the
                   label's own code.

Edges join slots of compatible kind and equal dimension: spinor to dual,
vector to vector, and an iota's out to a higher iota's in (chaining). Open
slots become output axes in the declared order.

contract() runs a greedy pairwise reduction, joining the pair of tensors
whose merged result is smallest. A wire index keeps the candidates to pairs
that share a wire, so planning costs O(E log E) for E edges instead of an
all-pairs rescan per merge (O(V^3) for V vertices). Tiny merges drop to a
dense integer einsum (linalg.int_einsum, int64 under its stated bound,
Python ints past it) and everything else goes through an exact sparse
hash-join, so no entry wraps; the result is int64 when every entry fits and
dtype=object otherwise. Tests replay whole networks through float64 einsum
as an independent oracle.

parity_check() is the bookkeeping pass: gauge vertices always balance; every
iota node gets flagged. An even-m node breaks the mod-2 grading outright
(even in, odd out), and an odd-m node, while parity-consistent, re-types a
grade-m object as grade-1 across the rank boundary, which is exactly the move
a parity-conservation argument has to notice before waving a network through.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass
from functools import cache
from itertools import combinations
from math import comb

import numpy as np

from .cliff import build_gammas
from .linalg import int_einsum
from .perfinite import enumerate_rank

_DENSE_CUTOFF = 64
_INT64 = 1 << 63

# slot kind compatibility for edges (unordered pairs)
_COMPATIBLE = (
    frozenset(("spinor", "dual")),
    frozenset(("vector", "vector")),
    frozenset(("monad-out", "blade-in")),
)


class GammaVertex:
    kind = "gamma"
    slot_names = ("dual", "vector", "spinor")

    def __init__(self, p: int, q: int):
        if p + q < 1:
            raise ValueError("gamma vertex needs at least one direction")
        if p + q > 8:
            raise ValueError("gamma vertex limited to p + q <= 8")
        self.p = p
        self.q = q
        self.gamma_set, self._entries = _gamma_table(p, q)
        d = self.gamma_set.dim
        self.slot_dims = {"dual": d, "vector": p + q, "spinor": d}
        self.slot_kinds = {"dual": "dual", "vector": "vector", "spinor": "spinor"}
        self.slot_parity = {"dual": 1, "vector": 0, "spinor": 1}

    def entries(self):
        """Sparse dict (dual, vector, spinor) -> entry; a fresh copy."""
        return dict(self._entries)

    def to_json(self):
        return {"kind": "gamma", "p": self.p, "q": self.q}

    def __repr__(self):
        return f"GammaVertex(p={self.p}, q={self.q})"


@cache
def _gamma_table(p: int, q: int):
    """GammaSet and sparse entry dict of a (p, q) vertex, built once per
    signature and shared by every vertex: the gamma arrays are read-only and
    GammaVertex.entries() hands out copies of the dict."""
    gs = build_gammas(p, q)
    entries = {}
    for m, g in enumerate(gs.gammas):
        g.flags.writeable = False
        rows, cols = np.nonzero(g)
        for r, c in zip(rows.tolist(), cols.tolist()):
            entries[(r, m, c)] = int(g[r, c])
    return gs, entries


class IotaNode:
    kind = "iota"
    slot_names = ("out", "in")

    def __init__(self, m: int, rank: int):
        if rank not in (1, 2, 3):
            raise ValueError("iota nodes support input frame ranks 1..3")
        gens = enumerate_rank(rank - 1)
        n = len(gens)
        if not 0 <= m <= n:
            raise ValueError(f"grade {m} impossible with {n} generators")
        self.m = m
        self.rank = rank
        self.n_generators = n
        in_dim = comb(n, m)
        out_dim = 1 << n
        self.slot_dims = {"out": out_dim, "in": in_dim}
        self.slot_kinds = {"out": "monad-out", "in": "blade-in"}
        self.slot_parity = {"out": 1, "in": m % 2}
        # grade-m labels of the rank frame, ascending code; their codes are
        # exactly the out-side generator indices.
        self._labels = [
            x for x in enumerate_rank(rank) if x.grade == m
        ]
        assert len(self._labels) == in_dim

    def entries(self):
        """Sparse dict (out, in) -> 1; inclusion of grade-m labels."""
        return {(lab.code, i): 1 for i, lab in enumerate(self._labels)}

    def to_json(self):
        return {"kind": "iota", "m": self.m, "rank": self.rank}

    def __repr__(self):
        return f"IotaNode(m={self.m}, rank={self.rank})"


def _vertex_from_json(data: dict):
    kind = data.get("kind")
    if kind == "gamma":
        return GammaVertex(int(data["p"]), int(data["q"]))
    if kind == "iota":
        return IotaNode(int(data["m"]), int(data["rank"]))
    raise ValueError(f"unknown vertex kind {kind!r}")


@dataclass(frozen=True)
class ParityFlag:
    vertex: int
    kind: str
    reason: str


@dataclass(frozen=True)
class ParityReport:
    ok: bool
    flags: tuple
    vertex_parity: tuple  # per-vertex slot-parity sum mod 2


class VertexNetwork:
    """Vertices plus a wiring of their slots into edges and open legs."""

    def __init__(self, vertices, edges, open_legs):
        self.vertices = list(vertices)
        self.edges = [tuple(map(tuple, e)) for e in edges]
        self.open_legs = [tuple(l) for l in open_legs]
        self._validate()

    def _slot(self, end):
        v, s = end
        if not (isinstance(v, int) and 0 <= v < len(self.vertices)):
            raise ValueError(f"edge references vertex {v!r}")
        vert = self.vertices[v]
        if s not in vert.slot_dims:
            raise ValueError(f"vertex {v} ({vert.kind}) has no slot {s!r}")
        return vert

    def _validate(self):
        seen = {}
        for e in self.edges:
            if len(e) != 2:
                raise ValueError("edges join exactly two slots")
            (a, b) = e
            va, vb = self._slot(a), self._slot(b)
            if a == b:
                raise ValueError(f"slot {a} wired to itself")
            ka = va.slot_kinds[a[1]]
            kb = vb.slot_kinds[b[1]]
            if frozenset((ka, kb)) not in _COMPATIBLE:
                raise ValueError(
                    f"incompatible slot kinds {ka!r} and {kb!r} on edge {e}"
                )
            if va.slot_dims[a[1]] != vb.slot_dims[b[1]]:
                raise ValueError(
                    f"dimension mismatch on edge {e}: "
                    f"{va.slot_dims[a[1]]} vs {vb.slot_dims[b[1]]}"
                )
            for end in e:
                if end in seen:
                    raise ValueError(f"slot {end} used twice")
                seen[end] = True
        for l in self.open_legs:
            self._slot(l)
            if l in seen:
                raise ValueError(f"slot {l} both wired and open")
            seen[l] = True
        for vi, vert in enumerate(self.vertices):
            for s in vert.slot_dims:
                if (vi, s) not in seen:
                    raise ValueError(
                        f"slot ({vi}, {s!r}) is neither wired nor open; "
                        f"declare it open if it should remain free"
                    )

    # -- wiring ------------------------------------------------------------

    def _wires(self):
        """Assign a wire id to every slot; edge endpoints share one."""
        wire_of = {}
        nxt = 0
        for e in self.edges:
            for end in e:
                wire_of[end] = nxt
            nxt += 1
        for l in self.open_legs:
            wire_of[l] = nxt
            nxt += 1
        return wire_of

    def parity_check(self) -> ParityReport:
        flags = []
        sums = []
        for vi, vert in enumerate(self.vertices):
            total = sum(vert.slot_parity[s] for s in vert.slot_dims) % 2
            sums.append(total)
            if vert.kind == "iota":
                if vert.m % 2 == 0:
                    flags.append(
                        ParityFlag(
                            vi,
                            "iota",
                            f"grade {vert.m} input is even but the output is a "
                            f"single generator (odd): parity sum {total} != 0",
                        )
                    )
                else:
                    flags.append(
                        ParityFlag(
                            vi,
                            "iota",
                            f"grade {vert.m} blade of the rank-{vert.rank} "
                            f"frame re-typed as a grade-1 generator one rank "
                            f"up; parity bookkeeping does not transfer across "
                            f"the boundary",
                        )
                    )
        return ParityReport(not flags, tuple(flags), tuple(sums))

    # -- contraction ---------------------------------------------------------

    def contract(self, dense_cutoff: int = _DENSE_CUTOFF) -> np.ndarray:
        """Contract all edges; result axes follow the declared open order.

        Pairwise greedy (see _reduce): always merge the pair with the
        smallest resulting dense size, preferring pairs that share a wire.
        A wire index finds those pairs, so planning costs O(E log E) for E
        edges rather than an all-pairs scan per merge. Merges whose
        operands and result all fit under dense_cutoff entries run through
        an integer einsum; larger ones use the exact sparse hash-join.
        Entries stay exact integers throughout: the result is int64 when
        every entry fits and dtype=object (Python ints) otherwise.
        """
        if not self.vertices:
            return np.ones((), dtype=np.int64)
        wire_of = self._wires()
        tensors = []
        for vi, vert in enumerate(self.vertices):
            legs = tuple(wire_of[(vi, s)] for s in vert.slot_names)
            dims = tuple(vert.slot_dims[s] for s in vert.slot_names)
            tensors.append(_SparseTensor(legs, dims, vert.entries()).self_trace())
        final = _reduce(tensors, dense_cutoff)
        order = tuple(wire_of[l] for l in self.open_legs)
        return final.to_dense(order)

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "vertices": [v.to_json() for v in self.vertices],
            "edges": [[list(a), list(b)] for a, b in self.edges],
            "open": [list(l) for l in self.open_legs],
        }

    @classmethod
    def from_json(cls, data: dict) -> "VertexNetwork":
        vertices = [_vertex_from_json(v) for v in data.get("vertices", [])]
        edges = [
            ((int(a[0]), str(a[1])), (int(b[0]), str(b[1])))
            for a, b in data.get("edges", [])
        ]
        open_legs = [(int(v), str(s)) for v, s in data.get("open", [])]
        return cls(vertices, edges, open_legs)

    @classmethod
    def load(cls, path: str) -> "VertexNetwork":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))

    def __repr__(self):
        return (
            f"VertexNetwork({len(self.vertices)} vertices, "
            f"{len(self.edges)} edges, {len(self.open_legs)} open)"
        )


def _reduce(tensors, dense_cutoff: int) -> "_SparseTensor":
    """Merge self-traced tensors pairwise down to one.

    Each step merges the pair with the smallest (not sharing a wire,
    merged_size, id_a, id_b): ids follow creation order and a merged tensor
    gets a fresh id, so this is the all-pairs greedy with its first-pair
    tie-break. Pairs that share a wire live in a heap keyed by
    (merged_size, id_a, id_b); a wire index (wire -> ids of the live tensors
    carrying it, at most two) finds the new tensor's neighbours after each
    merge, and heap entries naming a merged-away tensor are dropped when
    they surface. When the heap runs dry the live tensors share no wire at
    all (one per connected component), and those few are scanned pairwise.
    """
    live = dict(enumerate(tensors))
    holders: dict = {}
    for i, t in live.items():
        for w in t.legs:
            holders.setdefault(w, []).append(i)
    pairs = {tuple(ids) for ids in holders.values() if len(ids) == 2}
    heap = [(live[a].merged_size(live[b]), a, b) for a, b in pairs]
    heapq.heapify(heap)
    fresh = len(live)
    while len(live) > 1:
        while heap and not (heap[0][1] in live and heap[0][2] in live):
            heapq.heappop(heap)
        if heap:
            _, a, b = heapq.heappop(heap)
        else:
            _, a, b = min(
                (live[a].merged_size(live[b]), a, b)
                for a, b in combinations(live, 2)
            )
        merged = live.pop(a).merge(live.pop(b), dense_cutoff).self_trace()
        c, fresh = fresh, fresh + 1
        live[c] = merged
        neighbours = set()
        for w in merged.legs:
            ids = [i for i in holders[w] if i in live]
            neighbours.update(ids)
            holders[w] = ids + [c]
        for n in neighbours:
            heapq.heappush(heap, (live[n].merged_size(merged), n, c))
    (final,) = live.values()
    return final


class _SparseTensor:
    """Integer tensor as dict index-tuple -> value, with wire-id legs.

    Repeated wire ids inside one tensor mean a pending self-trace."""

    __slots__ = ("legs", "dims", "data")

    def __init__(self, legs, dims, data):
        self.legs = tuple(legs)
        self.dims = tuple(dims)
        self.data = {k: v for k, v in data.items() if v}

    def dense_size(self) -> int:
        size = 1
        for d in self.dims:
            size *= d
        return size

    def merged_size(self, other) -> int:
        shared = set(self.legs) & set(other.legs)
        size = 1
        for l, d in zip(self.legs + other.legs, self.dims + other.dims):
            if l not in shared:
                size *= d
        return size

    def self_trace(self) -> "_SparseTensor":
        counts = {}
        for l in self.legs:
            counts[l] = counts.get(l, 0) + 1
        dups = [l for l, c in counts.items() if c > 1]
        if not dups:
            return self
        keep = [i for i, l in enumerate(self.legs) if counts[l] == 1]
        out: dict = {}
        for idx, v in self.data.items():
            ok = True
            for l in dups:
                pos = [i for i, ll in enumerate(self.legs) if ll == l]
                if any(idx[pos[0]] != idx[p] for p in pos[1:]):
                    ok = False
                    break
            if not ok:
                continue
            key = tuple(idx[i] for i in keep)
            out[key] = out.get(key, 0) + v
        return _SparseTensor(
            tuple(self.legs[i] for i in keep),
            tuple(self.dims[i] for i in keep),
            out,
        )

    def merge(self, other: "_SparseTensor", dense_cutoff: int) -> "_SparseTensor":
        small = (
            self.dense_size() <= dense_cutoff
            and other.dense_size() <= dense_cutoff
            and self.merged_size(other) <= dense_cutoff
        )
        if small:
            return self._merge_dense(other)
        return self._merge_sparse(other)

    def _merge_sparse(self, other: "_SparseTensor") -> "_SparseTensor":
        shared = sorted(set(self.legs) & set(other.legs))
        a_keep = [i for i, l in enumerate(self.legs) if l not in shared]
        b_keep = [i for i, l in enumerate(other.legs) if l not in shared]
        a_sh = [self.legs.index(l) for l in shared]
        b_sh = [other.legs.index(l) for l in shared]
        buckets: dict = {}
        for idx, v in other.data.items():
            key = tuple(idx[i] for i in b_sh)
            buckets.setdefault(key, []).append(
                (tuple(idx[i] for i in b_keep), v)
            )
        out: dict = {}
        for idx, v in self.data.items():
            key = tuple(idx[i] for i in a_sh)
            hits = buckets.get(key)
            if not hits:
                continue
            left = tuple(idx[i] for i in a_keep)
            for right, w in hits:
                full = left + right
                out[full] = out.get(full, 0) + v * w
        legs = tuple(self.legs[i] for i in a_keep) + tuple(
            other.legs[i] for i in b_keep
        )
        dims = tuple(self.dims[i] for i in a_keep) + tuple(
            other.dims[i] for i in b_keep
        )
        return _SparseTensor(legs, dims, out)

    def _merge_dense(self, other: "_SparseTensor") -> "_SparseTensor":
        shared = set(self.legs) & set(other.legs)
        out_legs = [l for l in self.legs if l not in shared] + [
            l for l in other.legs if l not in shared
        ]
        arr = int_einsum(
            _einsum_spec((self.legs, other.legs), out_legs),
            _dense_array(self.dims, self.data),
            _dense_array(other.dims, other.data),
        )
        dims = tuple(
            dict(zip(self.legs + other.legs, self.dims + other.dims))[l]
            for l in out_legs
        )
        data = {tuple(i): int(arr[tuple(i)]) for i in np.argwhere(arr).tolist()}
        return _SparseTensor(tuple(out_legs), dims, data)

    def to_dense(self, leg_order) -> np.ndarray:
        if set(leg_order) != set(self.legs) or len(leg_order) != len(self.legs):
            raise ValueError("output legs disagree with remaining legs")
        perm = [self.legs.index(l) for l in leg_order]
        dims = tuple(self.dims[p] for p in perm)
        data = {tuple(idx[p] for p in perm): v for idx, v in self.data.items()}
        return _dense_array(dims, data)


def _dense_array(dims, data) -> np.ndarray:
    """Dense array of a sparse dict: int64 when every entry fits, otherwise
    dtype=object holding the exact Python ints."""
    fits = all(-_INT64 <= v < _INT64 for v in data.values())
    arr = np.zeros(dims, dtype=np.int64 if fits else object)
    for idx, v in data.items():
        arr[idx] = v
    return arr


def _einsum_spec(inputs, output) -> str:
    """einsum subscripts for operands with wire-id legs `inputs` and result
    legs `output`: one letter per distinct wire, in order of first
    appearance. numpy accepts 52 letters (its integer-sublist form has the
    same [0, 52) limit), so at most 52 distinct wires."""
    alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    names: dict = {}

    def word(legs):
        for l in legs:
            if l not in names:
                if len(names) == len(alphabet):
                    raise ValueError("too many distinct wires for einsum subscripts")
                names[l] = alphabet[len(names)]
        return "".join(names[l] for l in legs)

    return ",".join(word(legs) for legs in inputs) + "->" + word(output)


def dense_oracle(net: VertexNetwork) -> np.ndarray:
    """Independent reference: one float64 einsum over the whole network."""
    wire_of = net._wires()
    legs = []
    ops = []
    for vi, vert in enumerate(net.vertices):
        legs.append([wire_of[(vi, s)] for s in vert.slot_names])
        dims = tuple(vert.slot_dims[s] for s in vert.slot_names)
        arr = np.zeros(dims, dtype=np.float64)
        for idx, v in vert.entries().items():
            arr[idx] = float(v)
        ops.append(arr)
    out = [wire_of[l] for l in net.open_legs]
    return np.einsum(_einsum_spec(legs, out), *ops)
