"""Multilevel elimination engine over a dissection tree.

The factorization sweeps the separator hierarchy bottom-up. Leaf interiors
are eliminated densely first; the remaining unknowns live on separator
segments. Each level then (1) compresses every regular segment's coupling to
its neighbors with an interpolative decomposition, so the redundant rows and
columns of the segment decouple, and eliminates those remainders against the
segment's skeleton in the same step, (2) eliminates every segment owned by
the level's separators, and (3) merges sibling segments back into their
parents so the next, coarser level sees whole segments again. A segment with
no neighbors left has nothing to compress and is eliminated whole.

Every decomposition sees its coupling block through one hybrid plan
(lowrank.build_hybrid_plan): neighbor rows near the segment enter verbatim
and the far ones through a Gaussian sketch seeded from the stage and the
segment id, so a factorization repeats bit for bit.

Symmetry is read from the matrix, in is_symmetric only. Every elimination
(leaf interior, remainder or whole segment) goes through _eliminate, which
picks LDL^T or pivoted LU and scatters the Schur complement.

The active Schur complement lives in a SchurState: per stage, one flat value
buffer of dense segment-pair blocks behind a sorted array of pair keys. As in
the multifrontal method, every coupled pair of segments is stored in both
orientations, whether or not the matrix is symmetric, so the store's
bookkeeping is the same in both modes; symmetry is used only where the dense
kernel is chosen (LDL against LU, a one-sided against a joint interpolative
decomposition). Every elimination gathers its self block and couplings from
the buffer (a remainder takes them from its sparsification's gather), runs
that kernel and scatters its whole update back in one add_to_block call, the
buffer's only write outside a pack. Merges only relabel positions; the
buffer is repacked once per level, with room for the fill of the level's
eliminations: every pair among each eliminated segment's neighbors. The
segments one level eliminates lie in disjoint subtrees and never touch, so
their order does not matter.
Every pack checks that the segments and the store's position table agree on
which segment owns each live position (SchurState).

Every transform is recorded as an elementary factor: the positions it
eliminates or decouples (idx) and the positions it couples them to (nbr).
The factors of one step (the leaf interiors, or one level's
sparsifications, its remainders or its whole segments) form a Stage.
factorize compiles each stage as soon as it is built: one gather and one
scatter index, and scipy CSR operators for the block-diagonal triangular
inverses (L^-1 P and U^-1 of each LU, L^-1 P and D^-1 of each LDL^T) and for
the couplings. Compiling checks that no factor's idx meets another factor's
idx or any factor's nbr (a sparsification writes both its redundant and its
skeleton positions, so its skeleton counts as idx here too): that is what
lets a stage act as one block operation. Those CSR arrays are the only copy
of the payload; a factor keeps its indices and, for a sparsification, a view
of its interpolation matrix. The solver module applies the stages: left
actions forward, D^-1 (LDL^T only), then right actions in reverse.
"""

from __future__ import annotations

import functools
import itertools
import numbers
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from . import lowrank
from .core import (as_csr, check_int, lu_compact, triangular_inverse,
                   triangular_solve)
from .dissection import JUNCTION, REGULAR
from .errors import (ConfigError, DimensionError, NonFiniteError,
                     SingularBlockError)

# Entries moved per step when the Schur store is repacked; bounds the
# transient index arrays of a pack.
PACK_CHUNK = 1 << 16


@dataclass(frozen=True)
class FactorOptions:
    """Knobs for factorize; defaults match the benchmark configuration.

    Segments smaller than min_sparsify_size skip compression: a
    rank-revealing decomposition of a block that small costs more than it
    saves and such blocks sit at or near full rank anyway, so they are
    eliminated or merged at full size instead. Options are checked when
    made and never change. The Schur store's ownership check runs at every
    pack whatever the options (SchurState).
    """

    min_sparsify_size: int = 64

    def __post_init__(self):
        check_int("min_sparsify_size", self.min_sparsify_size, 0)


# ---------------------------------------------------------------------------
# Elementary factors
# ---------------------------------------------------------------------------


@dataclass
class SparsifyFactor:
    """Two-sided transform decoupling a segment's redundant indices.

    Right action: x[skeleton] -= interp @ x[redundant]. Left action:
    y[redundant] -= interp.T @ y[skeleton]. The right action is exactly the
    adjoint of the left one, in both symmetric and unsymmetric mode. Once
    the stage is compiled, interp is a view into the stage's operator.
    """

    skeleton: np.ndarray
    redundant: np.ndarray
    interp: np.ndarray
    level: int

    kind = "sparsify"
    tag = "sparsify"

    @property
    def payload_nnz(self):
        return self.interp.size


class _Payload(NamedTuple):
    """An elimination's entries, laid out as its stage stores them.

    lower and diag hold the entries of its diagonal blocks of Stage.lower
    and Stage.diag, row by row: the strict lower triangle of L^-1, then the
    upper triangle of U^-1 or, with diag_counts and diag_cols giving each
    row's count and each entry's column, the nonzeros of D^-1. pull and push
    are its C-ordered k x m blocks of Stage.pull and of the transpose of
    Stage.push (LU only).
    """

    perm: np.ndarray
    lower: np.ndarray
    diag: np.ndarray
    pull: np.ndarray
    push: np.ndarray = None
    diag_counts: np.ndarray = None
    diag_cols: np.ndarray = None


@dataclass
class _Elimination:
    """Record of one block elimination of positions idx against nbr.

    payload_nnz counts the entries the compiled stage stores for it, and
    payload holds them from the kernel until the stage is compiled; then
    it is None.
    """

    idx: np.ndarray
    nbr: np.ndarray
    level: int
    tag: str
    payload_nnz: int
    payload: _Payload = field(default=None, repr=False)

    @property
    def kind(self):
        return "interior-lu" if self.tag == "interior" else "eliminate"


class EliminationFactor(_Elimination):
    """Pivoted-LU elimination: self_block[perm] = L @ U.

    Left action: t = L^-1 y[idx][perm]; y[nbr] -= coupling_left @ t;
    y[idx] = t, with coupling_left = A[nbr, idx] U^-1. Right action:
    x[idx] = U^-1 (x[idx] - coupling_right @ x[nbr]), with coupling_right =
    L^-1 A[idx, nbr][perm]. Stored: L^-1 below the diagonal (its unit
    diagonal is implied), U^-1 on and above it, and both couplings, k^2 +
    2 k m entries for k = |idx| and m = |nbr|.
    """


class SymEliminationFactor(_Elimination):
    """Symmetric (LDL^T) elimination; the right action is the left's
    adjoint.

    From self_block = lu @ d @ lu.T with lower = lu[perm] unit lower
    triangular (Bunch-Kaufman) and coupling = A[nbr, idx] lu^-T d^-1. Left
    action: t = lower^-1 y[idx][perm]; y[nbr] -= coupling @ t; y[idx] = t.
    Middle action: y[idx] = d^-1 y[idx]. Right action: q = lower^-T
    (x[idx] - coupling.T @ x[nbr]), then x[idx][perm] = q. Stored: lower^-1
    below the diagonal, the nonzeros of d^-1 (its 1x1 and 2x2 blocks) and
    the coupling.
    """


# ---------------------------------------------------------------------------
# Compiled stages
# ---------------------------------------------------------------------------


class Stage:
    """A run of factors with one level, kind and tag, compiled into sparse
    operators.

    No factor's idx meets another factor's idx or any factor's nbr, and no
    two sparsifications share a skeleton position (compile_stages checks
    both), so the stage's left, middle and right actions each act as one
    block operation. With K = |idx|:

    - idx: the positions the factors eliminate (of a sparsification, its
      redundant positions), factor after factor; gather: the same in each
      factor's pivot order (eliminations only).
    - nbr: the positions they couple to: the sorted union of the
      eliminations' neighbors, or the sparsifications' skeletons, factor
      after factor.
    - lower (K x K, eliminations): the strict lower part of the
      block-diagonal L^-1 (pivot order; the unit diagonal is implied), and
      lower_t its transpose; diag (K x K): the block-diagonal U^-1 of LU,
      or the nonzeros of D^-1 of LDL^T.
    - pull (K x |nbr|): what the stage reads from nbr: coupling_right of
      each LU, coupling.T of each LDL^T, interp.T of each sparsification.
    - push (|nbr| x K): what it subtracts from nbr, as a transposed (CSC)
      view: of pull where the two couplings are transposes (LDL^T and
      sparsifications), of a CSR of the coupling_left.T blocks for LU. A
      neighbor shared by several factors is one row of it, so their
      updates sum within the product.

    The arrays of these CSR matrices are the only copy of the payload; a
    factor's payload_nnz counts its entries there.
    """

    def __init__(self, factors, idx, nbr, pull, gather=None, lower=None,
                 diag=None, push_t=None):
        first = factors[0]
        self.level, self.kind, self.tag = first.level, first.kind, first.tag
        self.symmetric = isinstance(first, SymEliminationFactor)
        self.factors = factors
        self.idx, self.nbr, self.gather = idx, nbr, gather
        self.lower, self.diag, self.pull = lower, diag, pull
        self.push = (pull if push_t is None else push_t).T
        self.lower_t = None if lower is None else lower.T


def _csr(data, counts, num_cols, first=None, cols=None, indices=None):
    """CSR matrix holding data, counts[r] entries in row r: at the given
    indices, or in the consecutive columns first[r], first[r] + 1, ...,
    read through cols when given."""
    itype = np.int32 if max(data.size, num_cols) < 2 ** 31 else np.int64
    indptr = np.zeros(counts.size + 1, dtype=itype)
    np.cumsum(counts, out=indptr[1:])
    if indices is None:
        indices = np.arange(data.size, dtype=itype) - np.repeat(
            indptr[:-1] - first.astype(itype), counts)
        if cols is not None:
            indices = cols.astype(itype)[indices]
    return sp.csr_matrix((data, indices.astype(itype, copy=False), indptr),
                         shape=(counts.size, num_cols))


@functools.lru_cache(maxsize=64)
def _triangles(k):
    """Masks of the strict lower and of the upper (diagonal included)
    triangle of a k x k block."""
    strict = np.tri(k, k, -1, dtype=bool)
    return strict, ~strict


def compile_stages(factors):
    """One Stage per run of factors with equal (level, kind, tag), in
    order. Each elimination's payload is dropped once copied, and each
    sparsification's interp becomes a view into its stage. Factors of one
    stage that overlap raise DimensionError."""
    return [_compile(list(run)) for _, run in itertools.groupby(
        factors, key=lambda f: (f.level, f.kind, f.tag))]


def _compile(factors):
    if factors[0].kind == "sparsify":
        stage = _compile_sparsify(factors)
    else:
        stage = _compile_elimination(factors)
    # stage.nbr holds each elimination neighbor once and every
    # sparsification's skeleton in full, so a position seen twice is an
    # overlap that the one-shot stage actions would get wrong
    both = np.sort(np.concatenate([stage.idx, stage.nbr]))
    twice = both[1:][both[1:] == both[:-1]]
    if twice.size:
        raise DimensionError(
            f"factors of the {stage.tag} stage at level {stage.level} "
            f"overlap at position {twice[0]}")
    return stage


def _compile_sparsify(factors):
    idx = np.concatenate([f.redundant for f in factors])
    nbr = np.concatenate([f.skeleton for f in factors])
    rows = np.array([f.redundant.size for f in factors])
    width = np.array([f.skeleton.size for f in factors])
    pull = _csr(np.concatenate([f.interp.T.ravel() for f in factors]),
                np.repeat(width, rows), nbr.size,
                first=np.repeat(np.cumsum(width) - width, rows))
    ends = np.cumsum(rows * width).tolist()
    for f, r, s, end in zip(factors, rows.tolist(), width.tolist(), ends):
        f.interp = pull.data[end - r * s:end].reshape(r, s).T
    return Stage(factors, idx, nbr, pull)


def _compile_elimination(factors):
    payloads = [f.payload for f in factors]
    sizes = np.array([f.idx.size for f in factors])
    offsets = np.cumsum(sizes) - sizes
    rows = np.arange(sizes.sum())
    local = rows - np.repeat(offsets, sizes)
    lower = _csr(np.concatenate([b.lower for b in payloads]), local,
                 rows.size, first=rows - local)
    diag_values = np.concatenate([b.diag for b in payloads])
    if payloads[0].diag_cols is None:
        diag = _csr(diag_values, np.repeat(sizes, sizes) - local, rows.size,
                    first=rows)
    else:
        cols = np.concatenate([b.diag_cols for b in payloads]) + np.repeat(
            offsets, [b.diag.size for b in payloads])
        diag = _csr(diag_values,
                    np.concatenate([b.diag_counts for b in payloads]),
                    rows.size, indices=cols)
    # couplings: row r holds its factor's neighbors, as columns of nbr
    every_nbr = np.concatenate([f.nbr for f in factors])
    nbr = _unique(every_nbr)
    width = np.array([f.nbr.size for f in factors])
    pull = _csr(np.concatenate([b.pull.ravel() for b in payloads]),
                np.repeat(width, sizes), nbr.size,
                first=np.repeat(np.cumsum(width) - width, sizes),
                cols=np.searchsorted(nbr, every_nbr))
    push_t = None
    if payloads[0].push is not None:
        push_t = sp.csr_matrix(
            (np.concatenate([b.push.ravel() for b in payloads]),
             pull.indices, pull.indptr), shape=pull.shape)
    gather = np.concatenate([f.idx[b.perm] for f, b in zip(factors,
                                                            payloads)])
    for f in factors:
        f.payload = None
    return Stage(factors, np.concatenate([f.idx for f in factors]), nbr,
                 pull, gather=gather, lower=lower, diag=diag, push_t=push_t)


# ---------------------------------------------------------------------------
# Schur state
# ---------------------------------------------------------------------------


class _Unit:
    """One active segment: its serial, current global positions and kind."""

    __slots__ = ("uid", "serial", "pos", "kind")

    def __init__(self, uid, serial, pos, kind):
        self.uid = uid
        self.serial = serial
        self.pos = np.asarray(pos, dtype=np.int64)
        self.kind = kind

    @property
    def owner_level(self):
        return self.uid[0]

    @property
    def size(self):
        return self.pos.size


def _runs(values):
    """(value of each run of equal entries, run index of every entry)."""
    step = np.empty(values.size, dtype=bool)
    step[:1] = True
    np.not_equal(values[1:], values[:-1], out=step[1:])
    return values[step], np.cumsum(step) - 1


def _unique(values):
    """Sorted distinct values. Sorting is much faster than np.unique's
    hashing on the large key arrays built here."""
    return _runs(np.sort(values))[0]


def _group_pairs(group, members):
    """Every ordered pair of members within one group; group is sorted."""
    size = np.bincount(group)[group]
    first = np.searchsorted(group, group)
    row = np.repeat(np.arange(members.size), size)
    col = first[row] + np.arange(row.size) - np.repeat(np.cumsum(size) - size,
                                                       size)
    return members[row], members[col]


def _chunks(counts):
    """(lo, hi) ranges of consecutive blocks of about PACK_CHUNK entries."""
    if counts.size == 0:
        return []
    ends = np.cumsum(counts)
    cuts = np.searchsorted(ends, np.arange(PACK_CHUNK, ends[-1], PACK_CHUNK),
                           side="right")
    bounds = np.unique(np.concatenate(([0], cuts, [counts.size])))
    return zip(bounds[:-1].tolist(), bounds[1:].tolist())


class SchurState:
    """Active submatrix: dense unit-pair blocks in one flat value buffer.

    Every segment id the dissection can produce gets a serial in id order,
    so ordering units by serial orders them by id. `keys` is the sorted
    array of coupled unit pairs (row serial * num_serials + column serial),
    in both orientations; block k is row-major in `values` from
    `offsets[k]`, sized by its units' slot counts (`width`) at the last
    pack. Position p sits in unit `pos_unit[p]` at slot `local_pos[p]`, both
    -1 once p is eliminated. The layout does not depend on `symmetric`,
    which only records the mode for the kernels that use the store: in
    symmetric mode the two orientations of a pair agree to roundoff, each
    holding the values its own updates computed.

    Outside pack, add_to_block is the only value write; it never creates a
    block. The structure changes only in pack, which runs once per stage
    after the merges: it carries every live entry over to the unit now
    holding its positions, renumbers slots densely, and preallocates the
    fill that the stage's whole-segment eliminations will create: every
    pair among the neighbors of each unit the stage owns (_with_fill). A
    fill block counts as a coupling only once an elimination writes it, so
    the stage's sparsification, which runs first, sees the structure
    without it. No object is kept per block. Eliminated positions never
    retain coupling to active ones (an access to one raises). Every pack
    checks two invariants and raises DimensionError on either: each active
    unit's positions map back to it in pos_unit and no other position is
    live (_check_owners), so unit position lists stay disjoint under merges;
    and no two units owned by one stage are coupled (_with_fill), so one
    stage's eliminations touch disjoint self blocks and may run in any
    order. Every write addresses positions read from the units, so a write
    outside the segments its operation owns needs the units and pos_unit to
    disagree, which the pack that ends the stage sees.
    """

    def __init__(self, n, dtype, symmetric, unit_ids, coords=None,
                 near_radius=None):
        self.n = n
        self.dtype = dtype
        self.symmetric = symmetric
        self.coords = coords
        self.near_radius = near_radius
        self.unit_ids = sorted(unit_ids)
        self.serial_of = {uid: s for s, uid in enumerate(self.unit_ids)}
        r = len(self.unit_ids)
        self.units = {}
        self._by_serial = [None] * r
        self._active = np.zeros(r, dtype=bool)
        self._owner_level = np.array([uid[0] for uid in self.unit_ids],
                                     dtype=np.int64)
        self.pos_unit = np.full(n, -1, dtype=np.int64)
        self.local_pos = np.full(n, -1, dtype=np.int64)
        self.width = np.zeros(r, dtype=np.int64)
        self.keys = np.empty(0, dtype=np.int64)
        self.offsets = np.empty(0, dtype=np.int64)
        self.values = np.zeros(0, dtype=dtype)
        # per key: preallocated fill that no elimination has written yet
        self._pending = np.zeros(0, dtype=bool)
        # slot -> position and slot -> serial as of the last pack
        self._slot_pos = np.empty(0, dtype=np.int64)
        self._slot_serial = np.empty(0, dtype=np.int64)
        self._slot_base = np.zeros(r, dtype=np.int64)
        self.level = 0

    # -- unit bookkeeping ---------------------------------------------------

    def add_unit(self, uid, pos, kind):
        unit = _Unit(uid, self.serial_of[uid], pos, kind)
        self.units[uid] = unit
        self._by_serial[unit.serial] = unit
        self._active[unit.serial] = True
        self.pos_unit[unit.pos] = unit.serial
        self.local_pos[unit.pos] = np.arange(unit.pos.size)
        return unit

    def _retire(self, unit):
        del self.units[unit.uid]
        self._by_serial[unit.serial] = None
        self._active[unit.serial] = False

    def remove_unit(self, unit):
        """Drop an eliminated unit; its blocks die with its positions."""
        self._retire(unit)
        self.pos_unit[unit.pos] = -1
        self.local_pos[unit.pos] = -1

    def keep_positions(self, unit, keep):
        """Eliminate all of unit's positions except the local indices keep."""
        gone = np.delete(unit.pos, keep)
        self.pos_unit[gone] = -1
        self.local_pos[gone] = -1
        unit.pos = unit.pos[keep]

    def merge_units(self, kids, parent, kind):
        """Relabel the kids' positions, in kid order, as one parent unit."""
        pos = (np.concatenate([k.pos for k in kids]) if kids
               else np.empty(0, np.int64))
        if pos.size > 1 and np.any(np.diff(pos) <= 0):
            raise DimensionError(
                f"merged segment {parent} has out-of-order positions")
        for kid in kids:
            self._retire(kid)
        return self.add_unit(parent, pos, kind)

    def active_ids(self):
        return sorted(self.units)

    def neighbors(self, unit):
        """Serials of the active units coupled to unit, in id order."""
        r = len(self.unit_ids)
        lo, hi = np.searchsorted(self.keys, [unit.serial * r,
                                             (unit.serial + 1) * r])
        nb = self.keys[lo:hi] - unit.serial * r
        return nb[(nb != unit.serial) & self._active[nb]
                  & ~self._pending[lo:hi]]

    def positions(self, serials):
        """Active positions of the given units, unit after unit."""
        if len(serials) == 0:
            return np.empty(0, np.int64)
        return np.concatenate([self._by_serial[s].pos for s in serials])

    # -- block access ---------------------------------------------------------

    def _grid(self, rows, cols):
        """(buffer index of every (row, col) position pair, key index of
        every unit pair involved)."""
        square = cols is rows
        ur, ir = _runs(self.pos_unit[rows])
        uc, ic = (ur, ir) if square else _runs(self.pos_unit[cols])
        if ur.min() < 0 or uc.min() < 0:
            raise DimensionError("Schur store access touches an eliminated "
                                 "position")
        pairs = ur[:, None] * len(self.unit_ids) + uc
        k = self.keys.searchsorted(pairs)
        if not self.keys.size or np.any(self.keys.take(k, mode="clip")
                                        != pairs):
            raise DimensionError("Schur store access outside the stored "
                                 "blocks")
        ci = self.local_pos[cols]
        ri = (ci if square else self.local_pos[rows])[:, None]
        return self.offsets[k][ir][:, ic] + (ri * self.width[uc][ic] + ci), k

    def gather(self, rows, cols):
        """Dense copy of the active submatrix at positions rows x cols."""
        if len(rows) == 0 or len(cols) == 0:
            return np.zeros((len(rows), len(cols)), dtype=self.dtype)
        return self.values[self._grid(rows, cols)[0]]

    def add_to_block(self, rows, cols, delta):
        """Accumulate delta into the active submatrix at rows x cols.

        Every entry is added where it is addressed, and only there: a
        symmetric update adds both its orientations because the call covers
        both. rows and cols each name distinct positions, and every block
        written must already be in the index.
        """
        if len(rows) == 0 or len(cols) == 0:
            return
        flat, k = self._grid(rows, cols)
        self._pending[k] = False
        self.values[flat] += delta

    def total_block_entries(self):
        """Entries allocated in the value buffer."""
        return int(self.values.size)

    # -- repacking ------------------------------------------------------------

    def pack(self, fill_level, entries=None, extra_keys=None):
        """Rebuild index and buffer for the active units.

        The index holds the carried pairs, `extra_keys`, a self block per
        nonempty unit and the fill of eliminating, in id order, every unit
        owned by fill_level; every key gets its own row-major block, laid
        out in key order. Live entries move to the unit now holding their
        positions (a merged parent in place of its children) at densely
        renumbered slots, so the blocks between two children of one parent,
        one per orientation, become the off-diagonal parts of the parent's
        self block. `entries` (rows, cols, values) are then stored as given.
        A unit left without positions keeps no coupling.
        """
        r = len(self.unit_ids)
        active = np.flatnonzero(self._active)
        units = [self._by_serial[s] for s in active]
        width = np.zeros(r, dtype=np.int64)
        width[active] = [u.size for u in units]
        sizes = width[active]
        slot_pos = (np.concatenate([u.pos for u in units]) if units
                    else np.empty(0, np.int64))
        slot_serial = np.repeat(active, sizes)
        self._check_owners(slot_pos, slot_serial)
        slot_base = np.zeros(r, dtype=np.int64)
        slot_base[active] = np.cumsum(sizes) - sizes
        self.local_pos[slot_pos] = (np.arange(slot_pos.size)
                                    - np.repeat(slot_base[active], sizes))

        # serial that now holds each old unit's live positions, or -1
        live = self.pos_unit[self._slot_pos] >= 0
        moved_to = np.full(r, -1, dtype=np.int64)
        moved_to[self._slot_serial[live]] = self.pos_unit[self._slot_pos[live]]
        old_a, old_b = np.divmod(self.keys, r)
        new_a, new_b = moved_to[old_a], moved_to[old_b]
        carried = (new_a >= 0) & (new_b >= 0) & ~self._pending

        parts = [new_a[carried] * r + new_b[carried],
                 active[sizes > 0] * (r + 1)]
        if extra_keys is not None:
            parts.append(extra_keys)
        if entries is not None:
            ea, eb = self.pos_unit[entries[0]], self.pos_unit[entries[1]]
            parts += [ea * r + eb, eb * r + ea]
        # carried, self and leaf pairs already come in both orientations
        written = _unique(np.concatenate(parts))
        keys = self._with_fill(written, fill_level)
        pending = np.ones(keys.size, dtype=bool)
        pending[np.searchsorted(keys, written)] = False

        a, b = np.divmod(keys, r)
        block_sizes = width[a] * width[b]
        offsets = np.cumsum(block_sizes) - block_sizes
        values = np.zeros(int(block_sizes.sum()), dtype=self.dtype)
        self._carry(values, keys, offsets, width, np.flatnonzero(carried),
                    new_a, new_b)
        self.keys, self.offsets, self.values = keys, offsets, values
        self._pending = pending
        self.width = width
        self._slot_pos = slot_pos
        self._slot_serial = slot_serial
        self._slot_base = slot_base
        if entries is not None:
            rows, cols, vals = entries
            self.values[self._locate(rows, cols)] = vals

    def _carry(self, values, keys, offsets, width, blocks, new_a, new_b):
        """Copy the live entries of the old buffer's blocks into the new
        layout, entry by entry through the slot tables."""
        if blocks.size == 0:
            return
        r = len(self.unit_ids)
        a, b = np.divmod(self.keys[blocks], r)
        nb = new_b[blocks]
        dst_off = offsets[np.searchsorted(keys, new_a[blocks] * r + nb)]
        src_off = self.offsets[blocks]
        stride = width[nb]
        row_base, col_base = self._slot_base[a], self._slot_base[b]
        col_width = self.width[b]
        counts = self.width[a] * col_width
        for lo, hi in _chunks(counts):
            c = counts[lo:hi]
            blk = np.repeat(np.arange(lo, hi), c)
            within = np.arange(blk.size) - np.repeat(np.cumsum(c) - c, c)
            i, j = np.divmod(within, col_width[blk])
            lp = self.local_pos[self._slot_pos[row_base[blk] + i]]
            lq = self.local_pos[self._slot_pos[col_base[blk] + j]]
            ok = (lp >= 0) & (lq >= 0)
            blk, within, lp, lq = blk[ok], within[ok], lp[ok], lq[ok]
            values[dst_off[blk] + lp * stride[blk] + lq] = \
                self.values[src_off[blk] + within]

    def _check_owners(self, slot_pos, slot_serial):
        """DimensionError unless the active units' positions slot_pos, held
        by the units slot_serial, map back to them in pos_unit and no other
        position is live."""
        wrong = np.flatnonzero(self.pos_unit[slot_pos] != slot_serial)
        if wrong.size:
            p, s = slot_pos[wrong[0]], slot_serial[wrong[0]]
            raise DimensionError(f"position {p} of segment "
                                 f"{self.unit_ids[s]} is owned by another")
        if np.count_nonzero(self.pos_unit >= 0) != slot_pos.size:
            live = self.pos_unit >= 0
            live[slot_pos] = False
            raise DimensionError(f"position {np.flatnonzero(live)[0]} is live "
                                 f"outside every active segment")

    def _locate(self, rows, cols):
        """Buffer index of the position pairs (rows[i], cols[i])."""
        r = len(self.unit_ids)
        sa, sb = self.pos_unit[rows], self.pos_unit[cols]
        off = self.offsets[np.searchsorted(self.keys, sa * r + sb)]
        return off + self.local_pos[rows] * self.width[sb] + self.local_pos[cols]

    def _with_fill(self, keys, level):
        """keys plus every pair among the neighbors of each unit owned by
        level. Owned units lie in disjoint subtrees and never touch, so no
        elimination adds a neighbor to another, in any order; two that touch
        raise DimensionError."""
        r = len(self.unit_ids)
        owned = self._active & (self._owner_level == level)
        a, b = np.divmod(keys, r)
        row = owned[a] & (a != b)
        if np.any(owned[b[row]]):
            raise DimensionError(
                f"two segments owned by level {level} are coupled")
        fa, fb = _group_pairs(a[row], b[row])
        return _unique(np.concatenate([keys, fa * r + fb]))


def is_symmetric(a):
    """Whether a is factored with the symmetric kernels: a real matrix with
    |A_ij - A_ji| <= 1e-14 (|A_ij| + |A_ji|) for every pair, so a large
    symmetric pair cannot hide the unsymmetry of the rest. A complex matrix
    never is."""
    csr = as_csr(a)
    if np.issubdtype(csr.dtype, np.complexfloating):
        return False
    if csr.nnz == 0:
        return True
    t = csr.T
    excess = abs(csr - t) - 1e-14 * (abs(csr) + abs(t))
    # implicit zeros read 0, so the max is over every pair either stores
    return bool(excess.max() <= 0)


def _median_edge_length(graph, cap=200_000):
    """Median geometric length over the graph's edges; above cap edges, over
    an evenly strided sample of at most cap of them."""
    src = np.repeat(np.arange(graph.n), np.diff(graph.indptr))
    dst = graph.indices
    keep = src < dst
    src, dst = src[keep], dst[keep]
    if src.size == 0:
        return 1.0
    if src.size > cap:
        stride = -(-src.size // cap)
        src, dst = src[::stride], dst[::stride]
    d = graph.coords[src] - graph.coords[dst]
    return float(np.median(np.hypot(d[:, 0], d[:, 1])))


def _as_csr(a):
    csr = as_csr(a)
    if csr.shape[0] != csr.shape[1]:
        raise DimensionError("factorization needs a square matrix")
    if not np.all(np.isfinite(csr.data)):
        raise NonFiniteError("matrix entries must be finite")
    dtype = np.promote_types(csr.dtype, np.float64)
    if csr.dtype != dtype:
        csr = csr.astype(dtype)
    return csr


def _check_finite(k, level, segment, *payload):
    """SingularBlockError unless every array is finite. The dense kernels
    check each payload once here; the triangular solves do not check."""
    if not all(np.isfinite(arr).all() for arr in payload):
        raise SingularBlockError(
            f"non-finite elimination payload in {k}x{k} block",
            level=level, segment=segment)


def _block_inverse(d, k, level, segment):
    """Inverse of the block-diagonal D of an LDL^T, whose blocks are 1x1 or
    2x2: a reciprocal per 1x1 block, one stacked inverse over the 2x2 ones.
    A zero pivot or a singular 2x2 block raises SingularBlockError."""
    pairs = np.flatnonzero(np.diagonal(d, -1))
    single = np.ones(k, dtype=bool)
    single[pairs] = single[pairs + 1] = False
    ones = np.flatnonzero(single)
    rows = pairs[:, None, None] + np.arange(2)[:, None]
    cols = pairs[:, None, None] + np.arange(2)
    pivots = d[ones, ones]
    try:
        blocks = np.linalg.inv(d[rows, cols])
    except np.linalg.LinAlgError:
        blocks = None
    if blocks is None or np.any(pivots == 0):
        raise SingularBlockError(
            f"singular diagonal in {k}x{k} block", level=level, segment=segment)
    dinv = np.zeros_like(d)
    dinv[ones, ones] = 1.0 / pivots
    dinv[rows, cols] = blocks
    return dinv


def _symmetric_elimination(idx, nbr, self_block, a_nu, level, segment, tag):
    """LDL-based elimination of a real symmetric self block (is_symmetric
    never holds for a complex matrix); (factor, Schur complement)."""
    k = self_block.shape[0]
    try:
        lu, d, perm = sla.ldl(self_block, check_finite=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - scipy raises rarely
        raise SingularBlockError(str(exc), level=level, segment=segment)
    lower = lu[perm]
    _check_finite(k, level, segment, lower, d)
    dinv = _block_inverse(d, k, level, segment)
    # t1 = lu^-1 A[idx, nbr]; coupling = (dinv @ t1).T = A[nbr, idx] lu^-T d^-1
    t1 = triangular_solve(lower, a_nu.T[perm], lower=True, unit_diag=True)
    coupling = (dinv @ t1).T
    schur = coupling @ t1
    linv = triangular_inverse(lower, lower=True, unit_diag=True)
    _check_finite(k, level, segment, coupling, schur, linv)
    nonzero = dinv != 0
    payload = _Payload(
        perm=perm.astype(np.int64), lower=linv[_triangles(k)[0]],
        diag=dinv[nonzero], pull=coupling.T,
        diag_counts=np.count_nonzero(nonzero, axis=1),
        diag_cols=np.nonzero(nonzero)[1])
    factor = SymEliminationFactor(
        idx=idx, nbr=nbr, level=level, tag=tag,
        payload_nnz=payload.lower.size + payload.diag.size + coupling.size,
        payload=payload)
    return factor, schur


def _unsymmetric_elimination(idx, nbr, self_block, a_nu, a_un, level,
                             segment, tag):
    """Pivoted-LU elimination of a general self block; (factor, Schur
    complement). lu_compact raises on an exactly zero pivot."""
    k = self_block.shape[0]
    lu, _, perm = lu_compact(self_block, level=level, segment=segment)
    # coupling_left = A[nbr, idx] U^-1; coupling_right = L^-1 A[idx, nbr][perm]
    c_left = triangular_solve(lu, a_nu.T, lower=False, trans=True).T
    c_right = triangular_solve(lu, a_un[perm], lower=True, unit_diag=True)
    schur = c_left @ c_right
    # L^-1 strictly below the diagonal, U^-1 on and above it
    inverse = triangular_inverse(
        triangular_inverse(lu, lower=True, unit_diag=True), lower=False)
    _check_finite(k, level, segment, lu, c_left, c_right, schur, inverse)
    strict, upper = _triangles(k)
    factor = EliminationFactor(
        idx=idx, nbr=nbr, level=level, tag=tag,
        payload_nnz=lu.size + c_left.size + c_right.size,
        payload=_Payload(perm=perm, lower=inverse[strict],
                         diag=inverse[upper],
                         pull=np.ascontiguousarray(c_right),
                         push=np.ascontiguousarray(c_left.T)))
    return factor, schur


def _eliminate(state, idx, nbr, self_block, a_nu, a_un, level, segment, tag):
    """Eliminate positions idx against nbr and return the factor: LDL^T on
    a symmetric store (a_un = A[idx, nbr] unused), pivoted LU otherwise; the
    Schur complement goes onto nbr x nbr."""
    if state.symmetric:
        factor, schur = _symmetric_elimination(idx, nbr, self_block, a_nu,
                                               level, segment, tag)
    else:
        factor, schur = _unsymmetric_elimination(idx, nbr, self_block, a_nu,
                                                 a_un, level, segment, tag)
    state.add_to_block(nbr, nbr, -schur)
    return factor


# ---------------------------------------------------------------------------
# Pipeline operations
# ---------------------------------------------------------------------------


def eliminate_interiors(a, tree):
    """Eliminate every leaf interior; returns (SchurState, factors).

    A first pass collects, for every leaf, the separator segments its Schur
    complement touches, so the store is packed once with the matrix's
    separator entries and all leaf fill. The second pass factors each leaf
    and adds its Schur complement onto the segments with one add_to_block
    call; afterwards the active set is exactly the separator vertices. The
    factors keep their payload until compile_stages takes it. A
    singular leaf block raises SingularBlockError naming the leaf's position
    span.
    """
    csr = _as_csr(a)
    n = csr.shape[0]
    if len(tree.order) != n:
        raise DimensionError("dissection tree does not match the matrix size")
    nested = csr[tree.order][:, tree.order].tocsr()
    nested.sort_indices()
    coords = tree.graph.coords[tree.order]
    state = SchurState(n, nested.dtype, is_symmetric(csr), tree.segments,
                       coords=coords,
                       near_radius=2.0 * _median_edge_length(tree.graph))
    state.level = tree.levels + 1
    for seg in [s for s in tree.segments.values() if not s.children]:
        pos = np.sort(tree.position[seg.vertices])
        state.add_unit(seg.id, pos, seg.kind)

    leaves = [leaf for leaf in tree.leaves if leaf.span[1] > leaf.span[0]]
    coo_rows = np.repeat(np.arange(n), np.diff(nested.indptr))
    bounds, externals, fill = _leaf_fronts(state, nested, coo_rows, leaves)
    state.pack(tree.levels,
               entries=_separator_entries(state, nested, coo_rows),
               extra_keys=fill)

    csc = nested.tocsc()
    csc.sort_indices()
    factors = []
    interior_level = tree.levels + 1
    for leaf, lo, hi in zip(leaves, bounds[:-1], bounds[1:]):
        s, e = leaf.span
        ext = externals[lo:hi]
        ii, a_ie, a_ei = _extract_leaf(nested, csc, s, e, ext)
        factors.append(_eliminate(
            state, np.arange(s, e, dtype=np.int64), ext, ii, a_ei, a_ie,
            interior_level, ("leaf", int(s), int(e)), "interior"))
    return state, factors


def _separator_entries(state, nested, coo_rows):
    """(rows, cols, values) of every matrix entry between two separator
    positions."""
    keep = ((state.pos_unit[coo_rows] >= 0)
            & (state.pos_unit[nested.indices] >= 0))
    return coo_rows[keep], nested.indices[keep], nested.data[keep]


def _leaf_fronts(state, nested, coo_rows, leaves):
    """(bounds, externals, pair keys) of the leaves' Schur updates.

    Leaf i couples, in either direction, to the ascending positions
    externals[bounds[i]:bounds[i + 1]]; the pair keys are every unit pair,
    in both orientations, among the units holding one leaf's externals.
    """
    n, r = max(state.n, 1), len(state.unit_ids)
    spans = np.array([leaf.span for leaf in leaves], dtype=np.int64)
    spans = spans.reshape(-1, 2)
    lens = spans[:, 1] - spans[:, 0]
    leaf_of = np.full(state.n, -1, dtype=np.int64)
    leaf_of[np.arange(lens.sum()) + np.repeat(spans[:, 0] - np.cumsum(lens)
                                              + lens, lens)] = \
        np.repeat(np.arange(len(leaves)), lens)
    cols = nested.indices
    lr, lc = leaf_of[coo_rows], leaf_of[cols]
    cross = lr != lc
    leaf = np.concatenate([lr[cross], lc[cross]])
    outside = np.concatenate([cols[cross], coo_rows[cross]])
    inner = leaf >= 0
    leaf, externals = np.divmod(_unique(leaf[inner] * n + outside[inner]), n)
    bounds = np.searchsorted(leaf, np.arange(len(leaves) + 1))
    unit = state.pos_unit[externals]
    if np.any(unit < 0):
        raise DimensionError("a leaf couples to a position outside every "
                             "separator segment")
    group, unit = np.divmod(_unique(leaf * r + unit), r)
    a, b = _group_pairs(group, unit)
    return bounds.tolist(), externals, a * r + b


def _extract_leaf(csr, csc, s, e, ext):
    """Dense interior block of positions [s, e) and its couplings to the
    ascending outside positions ext."""
    m = e - s
    lo, hi = csr.indptr[s], csr.indptr[e]
    cols = csr.indices[lo:hi]
    vals = csr.data[lo:hi]
    rows = np.repeat(np.arange(m), np.diff(csr.indptr[s:e + 1]))
    inside = (cols >= s) & (cols < e)
    ii = np.zeros((m, m), dtype=csr.dtype)
    ii[rows[inside], cols[inside] - s] = vals[inside]
    out = ~inside
    a_ie = np.zeros((m, ext.size), dtype=csr.dtype)
    a_ie[rows[out], np.searchsorted(ext, cols[out])] = vals[out]

    lo, hi = csc.indptr[s], csc.indptr[e]
    rws = csc.indices[lo:hi]
    vls = csc.data[lo:hi]
    ccols = np.repeat(np.arange(m), np.diff(csc.indptr[s:e + 1]))
    out = (rws < s) | (rws >= e)
    a_ei = np.zeros((ext.size, m), dtype=csr.dtype)
    a_ei[np.searchsorted(ext, rws[out]), ccols[out]] = vls[out]
    return ii, a_ie, a_ei


def _front(state, unit):
    """(neighbor positions, self block, in-coupling) of a unit, gathered in
    one pass over the store."""
    nbr_pos = state.positions(state.neighbors(unit))
    front = state.gather(np.concatenate([unit.pos, nbr_pos]), unit.pos)
    return nbr_pos, front[:unit.size], front[unit.size:]


def sparsify_segment(state, unit, eps):
    """Compress one active regular unit's coupling and eliminate what the
    compression decouples; returns (factors, skeleton).

    Computes an interpolative decomposition of the unit's coupling to its
    neighbors (of the stacked in/out coupling in unsymmetric mode) and emits
    the two-sided sparsify factor. Applied to the unit's self block, rows
    first and then columns, the transform leaves the redundant positions
    coupled to the skeleton alone, up to the dropped entries, so they are
    eliminated against the skeleton at once (a remainder elimination, whose
    Schur update is the only store write) and leave the unit, which keeps
    its skeleton. The dropped coupling is never written: no live position
    reads it again. factors is [sparsify, remainder], or empty when nothing
    was decoupled. The decomposition sees the neighbor rows within
    near_radius of the unit verbatim and the others mixed into unit.size +
    lowrank.OVERSAMPLE Gaussian rows, or the whole block when too few rows
    are far. A unit with no neighbors has no coupling to compress: it emits
    no factor and keeps every position, to be eliminated whole.
    """
    if unit.kind == JUNCTION:
        raise ConfigError("junction segments are merged, never sparsified")
    if unit.size == 0:
        return [], unit.pos.copy()

    uid = unit.uid
    pos = unit.pos
    nbr_pos, self_block, a_nu = _front(state, unit)
    if nbr_pos.size == 0:
        return [], pos.copy()
    # One fixed stream per stage and segment, so factorizations repeat bit
    # for bit; the leading 0 is part of the seed material.
    seed = int(np.random.SeedSequence(
        [0, state.level, *uid]).generate_state(1)[0])
    plan = lowrank.build_hybrid_plan(state.coords[nbr_pos],
                                     state.coords[pos], state.near_radius,
                                     unit.size, seed)
    if state.symmetric:
        ident = lowrank.sampled_id(a_nu, plan, eps)
    else:
        ident = lowrank.joint_unsymmetric_id(
            a_nu, state.gather(pos, nbr_pos), plan, eps)

    skel_l, red_l, interp = ident.skeleton, ident.redundant, ident.interp
    skeleton = pos[skel_l]
    if red_l.size == 0:
        return [], skeleton

    red = pos[red_l]
    sparsify = SparsifyFactor(skeleton=skeleton, redundant=red,
                              interp=interp, level=state.level)
    self_block[red_l, :] -= interp.T @ self_block[skel_l, :]
    self_block[:, red_l] -= self_block[:, skel_l] @ interp
    remainder = _eliminate(state, red, skeleton,
                           self_block[np.ix_(red_l, red_l)],
                           self_block[np.ix_(skel_l, red_l)],
                           self_block[np.ix_(red_l, skel_l)], state.level,
                           uid, "remainder")
    state.keep_positions(unit, skel_l)
    return [sparsify, remainder], skeleton


def eliminate_segments(state, level):
    """Eliminate every level-`level` segment whole.

    Each segment's Schur update is scattered only over its neighbor set,
    into blocks the stage's pack allocated. Returns the elimination factors
    in id order, their payload kept for compile_stages. The store must have
    been packed for `level`.
    """
    factors = []
    for uid in state.active_ids():
        unit = state.units[uid]
        if unit.owner_level == level:
            factors.append(_eliminate_whole(state, unit, level))
    return factors


def _eliminate_whole(state, unit, level):
    nbr_pos, self_block, a_nu = _front(state, unit)
    a_un = None if state.symmetric else state.gather(unit.pos, nbr_pos)
    factor = _eliminate(state, unit.pos.copy(), nbr_pos, self_block, a_nu,
                        a_un, level, unit.uid, "segment")
    state.remove_unit(unit)
    return factor


def merge_segments(state, tree, level):
    """Undo this level's split events: children rejoin their parents.

    Events are undone in reverse creation order so nested splits unwind
    cleanly; junction children are absorbed into the parent along with the
    sibling skeletons. A merge only relabels the children's positions as
    the parent's; the store is then repacked for stage level - 1. Returns
    the state.
    """
    for event in reversed([e for e in tree.events if e.level == level]):
        kids = [state.units[cid] for cid in event.children]
        state.merge_units(kids, event.parent, tree.segments[event.parent].kind)
    state.pack(level - 1)
    return state


# ---------------------------------------------------------------------------
# Full pipeline
# ---------------------------------------------------------------------------


@dataclass
class SpaluFactorization:
    """Compiled stages plus the nested order and statistics.

    order is the tree's int64 array of vertex ids in nested order.

    stages applies left actions in list order and right actions in reverse
    list order; LDL^T stages also carry a block-diagonal middle action.
    factors lists every stage's factor records in the same order.
    level_stats rows are JSON-ready per-level dicts.
    """

    stages: list
    order: np.ndarray
    n: int
    symmetric: bool
    dtype: object
    level_stats: list = field(default_factory=list)

    @property
    def factors(self):
        return [f for stage in self.stages for f in stage.factors]

    @property
    def factor_nnz(self):
        return int(sum(f.payload_nnz for f in self.factors))


def factorize(a, tree, eps, options=None):
    """Run the full pipeline and return the factorization.

    Interiors first, then per level from the deepest separator level to the
    root: sparsify every regular segment and eliminate its remainder,
    eliminate the level's own segments, merge split segments back together.
    The sparsifications and the remainders of a level each form one stage,
    in that order. Each stage is compiled as soon as its factors exist.
    Singular blocks raise SingularBlockError tagged with level and segment
    id.
    """
    if not (isinstance(eps, numbers.Real) and 0.0 < eps < 1.0):
        raise ConfigError(f"eps must be a number in (0, 1), got {eps!r}")
    options = FactorOptions() if options is None else options
    if not isinstance(options, FactorOptions):
        raise ConfigError(f"options must be a FactorOptions, got {options!r}")

    state, interiors = eliminate_interiors(a, tree)
    stages = compile_stages(interiors)

    level_stats = []
    for level in range(tree.levels, 0, -1):
        state.level = level
        regulars = [uid for uid in state.active_ids()
                    if state.units[uid].kind == REGULAR]

        # Segment sizes are recorded around the actual compression step:
        # segments below the size floor skip the decomposition entirely (the
        # factorization stays exact on them; they are eliminated or merged at
        # full size) and therefore contribute nothing to this stage's
        # compression statistics.
        pre_sizes = []
        post_sizes = []
        sparsified = []
        remainders = []
        t_sp = time.perf_counter()
        for uid in regulars:
            unit = state.units[uid]
            if unit.size < options.min_sparsify_size:
                continue
            pre_sizes.append(unit.size)
            new_factors, skeleton = sparsify_segment(state, unit, eps)
            sparsified.extend(new_factors[:1])
            remainders.extend(new_factors[1:])
            post_sizes.append(len(skeleton))
        stages.extend(compile_stages(sparsified))
        stages.extend(compile_stages(remainders))
        time_sparsify = time.perf_counter() - t_sp

        t_el = time.perf_counter()
        stages.extend(compile_stages(eliminate_segments(state, level)))
        time_eliminate = time.perf_counter() - t_el

        t_mg = time.perf_counter()
        merge_segments(state, tree, level)
        time_merge = time.perf_counter() - t_mg

        level_stats.append({
            "l": level,
            "num_segments": len(regulars),
            "e_l": max(pre_sizes, default=0),
            "e_l_prime": max(post_sizes, default=0),
            "time_sparsify": time_sparsify,
            "time_eliminate": time_eliminate,
            "time_merge": time_merge,
        })

    if state.units:
        leftover = sorted(state.units)[:4]
        raise ConfigError(f"active segments remain after the last stage: "
                          f"{leftover}")
    return SpaluFactorization(
        stages=stages, order=tree.order, n=state.n, symmetric=state.symmetric,
        dtype=state.dtype, level_stats=level_stats)
