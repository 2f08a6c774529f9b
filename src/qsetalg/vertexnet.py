"""Small tensor networks over gamma vertices and rank-raising nodes.

Two node species:

    gamma vertex   slots (dual, vector, spinor) with dimensions
                   (rep, p+q, rep) and parities (1, 0, 1); the tensor entry at
                   (y2, m, y1) is gamma_m[y2][y1]. The parity sum is even, so
                   a gauge interaction conserves fermion-line parity. Any
                   signature build_gammas makes is accepted: 1 <= p+q <= 12.

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
all-pairs rescan per merge (O(V^3) for V vertices). A vertex that carries a
wire twice (a spinor line closed on itself) is traced on its own cached
array as it enters; its entries are -1, 0 or 1, so the trace stays int64. No
merge result carries a wire twice, so that is the only trace. Each tensor in
flight is then held one of two ways, by its dense size (product of
dimensions):

    array   within dense_cutoff: an integer ndarray. Vertices hand over their
            cached read-only arrays, and a merge of two arrays whose result
            fits too is a tensordot run as one linalg.int_matmul: the shared
            legs move to the inner dimension and the kept legs are flattened
            (float64 BLAS, int64 or Python ints, by its stated bound).
    dict    past it: index tuple -> nonzero entry, merged by an exact sparse
            hash-join on the shared indices.

dense_cutoff=0 keeps every tensor a dict. No entry wraps on either path; the
result is int64 when every entry fits and dtype=object otherwise. Tests
replay whole networks through float64 einsum as an independent oracle.

One contract() call computes each distinct merge and self-trace, and each
distinct vertex's dict, once. Every tensor in flight carries a small integer
key naming its value: a vertex's is interned from the identity of its cached
array, which every vertex of one signature (or grade and rank) shares, and
a merge's from (key, key, pattern), a self-trace's from (key, pattern),
where pattern numbers the wires of the operand legs by first appearance.
The pattern fixes which wires are summed and the order of the result's legs,
and the representation (array or dict) follows from the keys' dims, the
pattern and the cutoff, so equal keys mean equal dims and equal data. A
repeat is rebuilt over its own wire ids from the stored dims and data, which
are shared, never copied: stored arrays are read-only. In a paired
128-vertex ring, 13 of the 127 merges are distinct. The memo lives for one
call only.

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
from itertools import chain, combinations
from math import comb, prod

import numpy as np

from .cliff import MAX_TOTAL, build_gammas
from .linalg import int_matmul
from .perfinite import enumerate_rank

# every intermediate of a ring with up to three open vector legs at
# p + q <= 8 fits: the largest, two (16, 8, 16) vertices of a (4, 4) 3-ring
# merged over one spinor line, is (16, 8, 8, 16) = 2^14 entries. A p + q = 12
# vertex (64, 12, 64) stays past it and enters as a dict.
_DENSE_CUTOFF = 1 << 14
_INT64 = 1 << 63
_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"

# slot kind compatibility for edges (unordered pairs)
_COMPATIBLE = (
    frozenset(("spinor", "dual")),
    frozenset(("vector", "vector")),
    frozenset(("monad-out", "blade-in")),
)


class GammaVertex:
    """A (p, q) gamma vertex; `array` is its read-only int64 tensor
    (dual, vector, spinor), shared by every vertex of the signature."""

    kind = "gamma"
    slot_names = ("dual", "vector", "spinor")

    def __init__(self, p: int, q: int):
        if p + q < 1:
            raise ValueError("gamma vertex needs at least one direction")
        if p + q > MAX_TOTAL:
            raise ValueError(f"gamma vertex limited to p + q <= {MAX_TOTAL}")
        self.p = p
        self.q = q
        self.gamma_set, self.array = _gamma_table(p, q)
        d = self.gamma_set.dim
        self.slot_dims = {"dual": d, "vector": p + q, "spinor": d}
        self.slot_kinds = {"dual": "dual", "vector": "vector", "spinor": "spinor"}
        self.slot_parity = {"dual": 1, "vector": 0, "spinor": 1}

    def entries(self):
        """Sparse dict (dual, vector, spinor) -> entry; a fresh copy."""
        return _entries(self.array)

    def to_json(self):
        return {"kind": "gamma", "p": self.p, "q": self.q}

    def __repr__(self):
        return f"GammaVertex(p={self.p}, q={self.q})"


@cache
def _gamma_table(p: int, q: int):
    """GammaSet and (dual, vector, spinor) stack of a (p, q) vertex, built
    once per signature and shared by every vertex, all arrays read-only."""
    gs = build_gammas(p, q)
    stack = np.stack(gs.gammas, axis=1)
    stack.flags.writeable = False
    return gs, stack


class IotaNode:
    """A grade-m selector of the rank frame; `array` is its read-only 0/1
    inclusion matrix (out, in), shared by every node of the grade and rank."""

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
        self.array = _inclusion(m, rank)

    def entries(self):
        """Sparse dict (out, in) -> 1; inclusion of grade-m labels."""
        return _entries(self.array)

    def to_json(self):
        return {"kind": "iota", "m": self.m, "rank": self.rank}

    def __repr__(self):
        return f"IotaNode(m={self.m}, rank={self.rank})"


@cache
def _inclusion(m: int, rank: int) -> np.ndarray:
    """Grade-m labels of the rank frame, in ascending code, down the in
    axis; each label's code is exactly its out-side generator index."""
    codes = [x.code for x in enumerate_rank(rank) if x.grade == m]
    arr = np.zeros((1 << len(enumerate_rank(rank - 1)), len(codes)), dtype=np.int64)
    arr[codes, range(len(codes))] = 1
    arr.flags.writeable = False
    return arr


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
        edges rather than an all-pairs scan per merge.

        A vertex carrying a wire twice is traced on its own array first.
        dense_cutoff then picks the representation, never the plan. A vertex
        whose (traced) dense size is within it stays an integer array, and a
        merge whose operands and result are all within it is one exact
        integer matrix product producing an array. Larger vertices become
        sparse dicts, once per distinct vertex, and larger merges run the
        exact sparse hash-join. 0 keeps dicts throughout; a huge cutoff
        keeps arrays throughout.
        Entries stay exact integers either way: the result, a fresh ndarray
        (0-d for a network with no open legs), is int64 when every entry
        fits and dtype=object (Python ints) otherwise.

        A memo local to this call computes each distinct merge and
        self-trace once (see the module docstring). Its invariant: equal
        keys mean equal dims and equal data, so a repeat reuses the stored
        result under its own wire ids.
        """
        if not self.vertices:
            return np.ones((), dtype=np.int64)
        wire_of = self._wires()
        memo: dict = {}
        tensors = []
        for vi, vert in enumerate(self.vertices):
            legs = tuple(wire_of[(vi, s)] for s in vert.slot_names)
            arr = vert.array
            key = memo.setdefault(id(arr), len(memo))
            t = _Tensor(legs, arr.shape, arr, key).self_trace(memo)
            if t.size > dense_cutoff:
                if ("entries", t.key) not in memo:
                    memo["entries", t.key] = _entries(t.data)
                t.data = memo["entries", t.key]
            tensors.append(t)
        final = _reduce(tensors, dense_cutoff, memo)
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


def _reduce(tensors, dense_cutoff: int, memo: dict) -> "_Tensor":
    """Merge tensors pairwise down to one, each distinct merge
    computed once through `memo` (see _Tensor.merge).

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
        merged = live.pop(a).merge(live.pop(b), dense_cutoff, memo)
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


class _Tensor:
    """Integer tensor with wire-id legs, held as an ndarray or as a dict
    index tuple -> nonzero entry (see the module docstring). `key` names
    the value within one contract() call; None outside one.

    Repeated wire ids inside one tensor mean a pending self-trace."""

    __slots__ = ("legs", "dims", "size", "data", "key")

    def __init__(self, legs, dims, data, key=None):
        self.legs = tuple(legs)
        self.dims = tuple(dims)
        self.size = prod(self.dims)  # the dense size
        self.data = data
        self.key = key

    def array(self) -> np.ndarray:
        data = self.data
        return _dense_array(self.dims, data) if isinstance(data, dict) else data

    def entries(self) -> dict:
        data = self.data
        return data if isinstance(data, dict) else _entries(data)

    def merged_size(self, other) -> int:
        size = self.size * other.size
        for l, d in zip(self.legs, self.dims):
            if l in other.legs:
                size //= d * d
        return size

    def self_trace(self, memo: dict) -> "_Tensor":
        """Sum an array tensor over the diagonal of every wire it carries
        twice, once per distinct (key, pattern) in `memo`. Only a vertex can
        carry a wire twice: a merge keeps the wires it sees once."""
        if len(set(self.legs)) == len(self.legs):
            return self
        pattern = _pattern(self.legs)
        keep = _once(pattern)

        def compute():
            arr = np.einsum(self.data, list(pattern), [pattern[i] for i in keep])
            return _Tensor([self.legs[i] for i in keep], arr.shape, arr)

        return _memoised(memo, (self.key, pattern), self.legs, compute)

    def merge(self, other: "_Tensor", dense_cutoff: int, memo: dict | None = None) -> "_Tensor":
        """Contract the wires shared with `other`; legs of self then of
        other, in order. With a memo, once per distinct (key, key, pattern)."""
        legs = self.legs + other.legs

        def compute():
            size = max(self.size, other.size, self.merged_size(other))
            return self._merge_dense(other) if size <= dense_cutoff else self._merge_sparse(other)

        return _memoised(memo, (self.key, other.key, _pattern(legs)), legs, compute)

    def _split(self, other: "_Tensor"):
        """Leg positions of a merge: (kept in self, shared in self, kept in
        other, shared in other), the shared wires in one order on both."""
        shared = [l for l in self.legs if l in other.legs]
        return (
            [i for i, l in enumerate(self.legs) if l not in shared],
            [self.legs.index(l) for l in shared],
            [i for i, l in enumerate(other.legs) if l not in shared],
            [other.legs.index(l) for l in shared],
        )

    def _joined(self, other: "_Tensor", a_keep, b_keep, data) -> "_Tensor":
        """The merge result: the kept legs of self, then those of other."""
        legs = [self.legs[i] for i in a_keep] + [other.legs[i] for i in b_keep]
        dims = [self.dims[i] for i in a_keep] + [other.dims[i] for i in b_keep]
        return _Tensor(legs, dims, data)

    def _merge_sparse(self, other: "_Tensor") -> "_Tensor":
        a_keep, a_sh, b_keep, b_sh = self._split(other)
        buckets: dict = {}
        for idx, v in other.entries().items():
            right = tuple(idx[i] for i in b_keep)
            buckets.setdefault(tuple(idx[i] for i in b_sh), []).append((right, v))
        out: dict = {}
        for idx, v in self.entries().items():
            key = tuple(idx[i] for i in a_sh)
            hits = buckets.get(key)
            if not hits:
                continue
            left = tuple(idx[i] for i in a_keep)
            for right, w in hits:
                full = left + right
                out[full] = out.get(full, 0) + v * w
        return self._joined(other, a_keep, b_keep, _nonzero(out))

    def _merge_dense(self, other: "_Tensor") -> "_Tensor":
        """A tensordot as one exact matrix product (linalg.int_matmul): each
        operand's shared legs move to the inner dimension and its kept legs
        are flattened."""
        a_keep, a_sh, b_keep, b_sh = self._split(other)
        a = self.array().transpose(a_keep + a_sh)
        b = other.array().transpose(b_sh + b_keep)
        inner = prod(b.shape[:len(b_sh)])
        arr = int_matmul(a.reshape(-1, inner), b.reshape(inner, -1))
        return self._joined(other, a_keep, b_keep, arr.reshape(a.shape[:len(a_keep)] + b.shape[len(b_sh):]))

    def to_dense(self, leg_order) -> np.ndarray:
        """A fresh array with axes in leg_order: int64 when every entry
        fits, otherwise dtype=object holding the exact Python ints."""
        if set(leg_order) != set(self.legs) or len(leg_order) != len(self.legs):
            raise ValueError("output legs disagree with remaining legs")
        arr = self.array().transpose([self.legs.index(l) for l in leg_order])
        fits = arr.dtype != object or -_INT64 <= arr.min(initial=0) <= arr.max(initial=0) < _INT64
        return arr.astype(np.int64 if fits else object)


def _entries(arr: np.ndarray) -> dict:
    """Sparse dict index tuple -> nonzero entry (a Python int) of an
    integer array."""
    if arr.ndim == 0:
        return {(): int(arr)} if arr else {}
    idx = np.nonzero(arr)
    return dict(zip(zip(*(i.tolist() for i in idx)), arr[idx].tolist()))


def _nonzero(data: dict) -> dict:
    """The dict without the entries that summed to zero."""
    return {k: v for k, v in data.items() if v}


def _pattern(legs) -> tuple:
    """Each leg's wire numbered by first appearance: (5, 9, 9, 2) ->
    (0, 1, 1, 2). It names a contraction over `legs` up to relabelling the
    wires; a vertex trace hands its numbers to np.einsum as subscripts."""
    first: dict = {}
    return tuple(first.setdefault(l, len(first)) for l in legs)


def _once(pattern) -> list:
    """Positions of the wires a pattern numbers once: the legs a
    contraction keeps, in order. Every other wire appears twice and is
    summed."""
    return [i for i, w in enumerate(pattern) if pattern.count(w) == 1]


def _memoised(memo, name, legs, compute) -> _Tensor:
    """compute(), a tensor whose legs are drawn from `legs`, computed once
    per `name` in `memo` (none: every time). A first computation gets the
    next key and is stored, its array made read-only; a repeat is rebuilt
    over its own `legs` from the stored positions, dims and data."""
    if memo is None:
        return compute()
    entry = memo.get(name)
    if entry is None:
        t = compute()
        if not isinstance(t.data, dict):
            t.data.flags.writeable = False
        t.key = len(memo)
        memo[name] = (t.key, [legs.index(l) for l in t.legs], t.dims, t.data)
        return t
    key, positions, dims, data = entry
    return _Tensor([legs[i] for i in positions], dims, data, key)


def _dense_array(dims, data) -> np.ndarray:
    """Dense dtype=object array of a sparse dict, holding its Python ints."""
    arr = np.zeros(dims, dtype=object)
    for idx, v in data.items():
        arr[idx] = v
    return arr


def _einsum_spec(inputs, output) -> str:
    """einsum subscripts for operands with wire-id legs `inputs` and result
    legs `output`: one letter per distinct wire, in order of first
    appearance. numpy accepts 52 letters (its integer-sublist form has the
    same [0, 52) limit), so at most 52 distinct wires."""
    wires = dict.fromkeys(chain(*inputs, output))
    if len(wires) > len(_LETTERS):
        raise ValueError("too many distinct wires for einsum subscripts")
    name = dict(zip(wires, _LETTERS)).__getitem__
    words = ["".join(map(name, legs)) for legs in (*inputs, output)]
    return ",".join(words[:-1]) + "->" + words[-1]


def dense_oracle(net: VertexNetwork) -> np.ndarray:
    """Independent reference: one float64 einsum over the whole network,
    contracted in the pairwise order numpy's own greedy path search picks
    (independent of _reduce's plan); unoptimised, its nested loop grows as
    the product of every wire dimension."""
    wire_of = net._wires()
    legs = [
        [wire_of[(vi, s)] for s in vert.slot_names]
        for vi, vert in enumerate(net.vertices)
    ]
    ops = [vert.array.astype(np.float64) for vert in net.vertices]
    out = [wire_of[l] for l in net.open_legs]
    return np.einsum(_einsum_spec(legs, out), *ops, optimize="greedy")
