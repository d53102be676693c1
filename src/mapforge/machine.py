"""Machine model and processor-space transformation algebra.

A machine's processors of one kind form a base 2-D grid of
(nodes, processors per node).  A :class:`ProcessorSpace` is a view of
that grid reshaped by a chain of split / merge / swap / slice steps.
Each step maps indices of the transformed space back to indices of the
space it was built from, and that forward map is its one implementation:

    split(i, d):         b[i] = a[i] + a[i+1] * d
    merge(p, q), p < q:  b[p] = a[p] % inner,  b[q] = a[p] / inner
                         (inner = extent of dimension p before the merge)
    swap(p, q):          b[p] = a[q],  b[q] = a[p]
    slice(i, lo, hi):    b[i] = a[i] + lo

with all other coordinates passed through (shifted by one around the
inserted/removed dimension for split/merge).  Integer division
truncates toward zero; all indices in range are nonnegative, so this
matches floor division.  split/merge/swap are bijections, slice is an
injection, and chains compose lazily: spaces are cheap values, and
``lookup_all`` walks the chain backwards over an array of indices
(``lookup`` is its one-row case, and ``index_of`` searches its rows).

Spaces and steps are hashable slotted dataclasses that no code mutates
after construction.  They are not frozen, because a frozen dataclass
sets each field through ``object.__setattr__`` and that made up most of
the cost of building a space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Union

import numpy as np

from .ast import PROC_KINDS


class SpaceError(ValueError):
    """Raised for invalid transformations or out-of-range lookups.

    ``row`` is the first offending row of a batch lookup (0 otherwise).
    """

    def __init__(self, message: str, row: int = 0):
        super().__init__(message)
        self.row = row


@dataclass(frozen=True)
class MachineModel:
    name: str
    nodes: int
    proc_counts: Mapping[str, int]          # processors per node, by kind
    mem_capacity: Mapping[str, float]       # bytes per node, by memory kind
    bandwidth: Mapping[tuple[str, str, bool], float]  # (src, dst, same_node) -> B/s
    latency: Mapping[str, float]            # launch overhead seconds, by kind
    compute_rate: Mapping[str, float]       # flops/s, by kind
    concurrency: Mapping[str, int] = field(default_factory=dict)  # wave width

    def count(self, kind: str) -> int:
        return int(self.proc_counts.get(kind, 0))


@dataclass(frozen=True)
class ProcIndex:
    node: int
    local: int


# --------------------------------------------------------------------------
# Transformation steps.  ``to_parent_columns`` maps the index columns of
# the transformed space (one integer array per dimension) to those of the
# space it was built from.
# --------------------------------------------------------------------------


@dataclass(unsafe_hash=True, slots=True)
class Split:
    dim: int
    factor: int

    def to_parent_columns(self, cols: list) -> list:
        i, d = self.dim, self.factor
        return cols[:i] + [cols[i] + cols[i + 1] * d] + cols[i + 2:]


@dataclass(unsafe_hash=True, slots=True)
class Merge:
    p: int
    q: int
    inner: int  # extent of dimension p in the parent space

    def to_parent_columns(self, cols: list) -> list:
        p, q, inner = self.p, self.q, self.inner
        out = list(cols)
        out[p] = cols[p] % inner
        out.insert(q, cols[p] // inner)
        return out


@dataclass(unsafe_hash=True, slots=True)
class Swap:
    p: int
    q: int

    def to_parent_columns(self, cols: list) -> list:
        out = list(cols)
        out[self.p], out[self.q] = out[self.q], out[self.p]
        return out


@dataclass(unsafe_hash=True, slots=True)
class Slice:
    dim: int
    low: int
    high: int

    def to_parent_columns(self, cols: list) -> list:
        out = list(cols)
        out[self.dim] = cols[self.dim] + self.low
        return out


TransformStep = Union[Split, Merge, Swap, Slice]


# --------------------------------------------------------------------------
# ProcessorSpace
# --------------------------------------------------------------------------


@dataclass(unsafe_hash=True, slots=True)
class ProcessorSpace:
    kind: str
    base_dims: tuple[int, int]
    dims: tuple[int, ...]
    chain: tuple[TransformStep, ...] = ()

    @property
    def rank(self) -> int:
        return len(self.dims)

    def _check_dim(self, i: int, what: str) -> None:
        if not 0 <= i < len(self.dims):
            raise SpaceError(
                f"{what} dimension {i} out of range for a rank-{self.rank} space")

    def _extend(self, dims: tuple[int, ...], step: TransformStep) -> "ProcessorSpace":
        return ProcessorSpace(self.kind, self.base_dims, dims, self.chain + (step,))

    def split(self, i: int, d: int) -> "ProcessorSpace":
        self._check_dim(i, "split")
        dims = self.dims
        if d < 1 or dims[i] % d != 0:
            raise SpaceError(
                f"split factor {d} does not divide extent {dims[i]} "
                f"of dimension {i}")
        return self._extend(dims[:i] + (d, dims[i] // d) + dims[i + 1:], Split(i, d))

    def merge(self, p: int, q: int) -> "ProcessorSpace":
        self._check_dim(p, "merge")
        self._check_dim(q, "merge")
        if p >= q:
            raise SpaceError(f"merge requires p < q, got ({p}, {q})")
        dims = self.dims
        merged = dims[:p] + (dims[p] * dims[q],) + dims[p + 1:q] + dims[q + 1:]
        return self._extend(merged, Merge(p, q, dims[p]))

    def swap(self, p: int, q: int) -> "ProcessorSpace":
        self._check_dim(p, "swap")
        self._check_dim(q, "swap")
        dims = list(self.dims)
        dims[p], dims[q] = dims[q], dims[p]
        return self._extend(tuple(dims), Swap(p, q))

    def slice(self, i: int, low: int, high: int) -> "ProcessorSpace":
        self._check_dim(i, "slice")
        dims = self.dims
        if not 0 <= low <= high < dims[i]:
            raise SpaceError(
                f"slice bounds out of range: [{low}, {high}] in dimension {i} "
                f"of extent {dims[i]}")
        return self._extend(dims[:i] + (high - low + 1,) + dims[i + 1:],
                            Slice(i, low, high))

    def decompose(self, dim: int, shape: tuple[int, ...]) -> "ProcessorSpace":
        """Split one dimension into len(shape) dimensions of those extents.

        Only evenly dividing shapes are supported: the product of the
        shape must equal the dimension's extent.
        """
        self._check_dim(dim, "decompose")
        if not shape or any(s < 1 for s in shape):
            raise SpaceError(f"decompose shape {shape} must be positive")
        if math.prod(shape) != self.dims[dim]:
            raise SpaceError(
                f"decompose shape {shape} does not evenly divide extent "
                f"{self.dims[dim]} of dimension {dim}")
        space = self
        for k, extent in enumerate(shape[:-1]):
            space = space.split(dim + k, extent)
        return space

    # -- index resolution ------------------------------------------------

    def lookup(self, index: tuple[int, ...]) -> ProcIndex:
        """Resolve an index of this space to the base (node, local) pair."""
        node, local = self.lookup_all(np.array([index], dtype=object))[0].tolist()
        return ProcIndex(node, local)

    def lookup_all(self, indices: np.ndarray) -> np.ndarray:
        """Resolve an (N, rank) integer array of indices to an (N, 2) int64
        array of (node, local) rows.

        Indices may be Python ints in an object array; an out-of-range
        row raises SpaceError naming the first such row.
        """
        a = np.asarray(indices)
        if a.ndim != 2 or a.shape[1] != self.rank:
            raise SpaceError(
                f"expected an (N, {self.rank}) index array, got shape {a.shape}")
        bad = (a < 0) | (a >= np.array(self.dims))
        if bad.any():
            row = int(np.argmax(bad.any(axis=1)))
            raise SpaceError(
                f"Slice processor index out of bound: {tuple(int(v) for v in a[row])} "
                f"is not within a space of size {self.dims}", row)
        cols = list(a.astype(np.int64).T)
        for step in reversed(self.chain):
            cols = step.to_parent_columns(cols)
        return np.stack(cols, axis=1)

    def index_of(self, proc: ProcIndex) -> tuple[int, ...]:
        """Inverse of ``lookup``: find this space's index of a base processor
        among the lookups of all of the space's indices.

        Raises SpaceError when the processor is outside a sliced range.
        """
        if not (0 <= proc.node < self.base_dims[0]
                and 0 <= proc.local < self.base_dims[1]):
            raise SpaceError(
                f"processor ({proc.node}, {proc.local}) is not within the "
                f"base space of size {self.base_dims}")
        indices = np.indices(self.dims).reshape(self.rank, -1).T
        hit = (self.lookup_all(indices) == (proc.node, proc.local)).all(axis=1)
        if not hit.any():
            raise SpaceError(
                f"processor ({proc.node}, {proc.local}) lies outside the slice "
                f"of size {self.dims}")
        return tuple(indices[np.argmax(hit)].tolist())


def machine_space(model: MachineModel, kind: str) -> ProcessorSpace:
    """The base 2-D (nodes, per-node count) space for one processor kind."""
    if kind not in PROC_KINDS:
        raise SpaceError(f"unknown processor kind {kind}")
    count = model.count(kind)
    if count < 1:
        raise SpaceError(f"no processors of kind {kind} on machine {model.name}")
    return ProcessorSpace(kind, (model.nodes, count), (model.nodes, count))

