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

Every decomposition is a column-pivoted QR of the whole coupling block
(lowrank.cpqr_id): it sees every neighbor row, and a factorization draws no
random number, so it repeats bit for bit.

Symmetry is read from the matrix, in is_symmetric only. Every elimination
(leaf interior, remainder or whole segment) goes through _eliminate, which
picks the LDL^T or the pivoted-LU kernel. Both map (self block, in-coupling,
out-coupling) to (payload, Schur complement) in one payload layout (D^-1
and U^-1 as row runs), so they are interchangeable, and both take the same
steps: core factors the self block (core.ldl, one Bunch-Kaufman dsytrf
call; core.lu_compact, one getrf call), then come the triangular solves of
the couplings, the Schur product, the triangular inverse and the payload.
On a symmetric matrix only the in-coupling is built, since the LDL^T kernel
reads no other. _eliminate returns the factor with its update (the negated
Schur complement on the elimination's front, its neighbor positions) and
tags a singular block with its place.

The active Schur complement lives in a SchurState: per stage, one flat value
buffer of dense segment-pair blocks behind a sorted array of pair keys. As in
the multifrontal method, every coupled pair of segments is stored in both
orientations, whether or not the matrix is symmetric, so the store's
bookkeeping is the same in both modes; symmetry is used only where the dense
kernel is chosen (LDL against LU, a one-sided against a joint interpolative
decomposition). A leaf's elimination takes its blocks from the matrix, a
remainder's from its sparsification's gather, and any other from the
buffer; each adds its update in one add_to_block call, the buffer's only
write outside a pack. Besides the self blocks and the matrix's own
couplings, a block exists only where an update writes it: each pack makes
the blocks of the fronts whose updates follow it. The leaf stage reads the
matrix once, sorted by leaf: the separator entries come first and fill the
stage's one pack, then each leaf's entries form one run; each leaf adds its
update straight after its elimination. A remainder writes only its
segment's own self block, which exists. The whole segments of a level lie
in disjoint subtrees and never touch, so their eliminations read nothing
another writes: merge_segments relabels the merged positions, packs once
with the level's fronts and then adds the updates in elimination order.
Every pack checks that the segments and the store's position table agree on
which segment owns each live position (SchurState).

Every transform is recorded as an elementary factor: the positions it
eliminates or decouples (idx) and the positions it couples them to (nbr).
The factors of one step (the leaf interiors, or one level's
sparsifications, its remainders or its whole segments) form a Stage, and
factorize compiles each step with compile_stage as soon as it is built: one
gather and one scatter index, and scipy CSR operators for the block-diagonal
triangular inverses (L^-1 P and U^-1 of each LU, L^-1 P and D^-1 of each
LDL^T) and for the couplings. Compiling checks that no factor's idx meets
another factor's idx or any factor's nbr (a sparsification writes both its
redundant and its skeleton positions, so its skeleton counts as idx here
too): that is what lets a stage act as one block operation. Those CSR arrays are the only copy
of the payload; a factor keeps its indices and, for a sparsification, a view
of its interpolation matrix. The solver module applies the stages in two
passes: left actions forward, each LDL^T stage's D^-1 right after its left
action, then right actions in reverse.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from . import lowrank
from .core import (SparseMatrix, _triangles, as_csr, check_int, ldl,
                   lu_compact, triangular_inverse, triangular_solve)
from .dissection import JUNCTION, REGULAR, DissectionTree
from .errors import ConfigError, DimensionError, SingularBlockError

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
    made and never change. No option reaches the Schur store: its
    ownership check runs at every pack, and compile_stage rejects a stage
    whose factors overlap.
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
    """An elimination's entries, as both kernels lay them out for its stage.

    lower holds its diagonal block of Stage.lower, the strict lower triangle
    of L^-1, row by row. diag holds its block of Stage.diag as row runs: row
    i has diag_counts[i] entries in the columns from diag_first[i] on, k - i
    from i of U^-1 (LU) or the 1 or 2 nonzeros of its D^-1 block (LDL^T).
    pull and push are its k x m blocks of Stage.pull and of the transpose
    of Stage.push (LU only), in any memory order.
    """

    perm: np.ndarray
    lower: np.ndarray
    diag: np.ndarray
    diag_counts: np.ndarray
    diag_first: np.ndarray
    pull: np.ndarray
    push: np.ndarray = None


@dataclass
class _Elimination:
    """Record of one block elimination of positions idx against nbr, made
    by _eliminate only.

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
    """The factors of one step of factorize, which share their level, kind
    and tag, compiled into sparse operators.

    No factor's idx meets another factor's idx or any factor's nbr, and no
    two sparsifications share a skeleton position (compile_stage checks
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


def _csr(data, counts, num_cols, first, cols=None):
    """CSR matrix holding data, counts[r] entries in row r in the
    consecutive columns first[r], first[r] + 1, ..., read through cols when
    given."""
    itype = np.int32 if max(data.size, num_cols) < 2 ** 31 else np.int64
    indptr = np.zeros(counts.size + 1, dtype=itype)
    np.cumsum(counts, out=indptr[1:])
    indices = np.arange(data.size, dtype=itype) - np.repeat(
        indptr[:-1] - first.astype(itype), counts)
    if cols is not None:
        indices = cols.astype(itype)[indices]
    return sp.csr_matrix((data, indices, indptr),
                         shape=(counts.size, num_cols))


def compile_stage(factors):
    """The Stage of one step's factors, a nonempty list that shares one
    level, kind and tag. Each elimination's payload is dropped once copied,
    and each sparsification's interp becomes a view into the stage. Factors
    that overlap raise DimensionError."""
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
    diag = _csr(np.concatenate([b.diag for b in payloads]),
                np.concatenate([b.diag_counts for b in payloads]), rows.size,
                first=np.concatenate([b.diag_first for b in payloads])
                + rows - local)
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
    pack. Position p sits in unit `pos_unit[p]` at slot `local_pos[p]`, as
    numbered by the last pack; both are -1 once p is eliminated. The layout
    does not depend on `symmetric`, which only records the mode for the
    kernels that use the store: in symmetric mode the two orientations of a
    pair agree to roundoff, each holding the values its own updates
    computed.

    Outside pack, add_to_block is the only value write; it never creates a
    block. The structure changes only in pack, which runs once per stage
    after the merges: it carries every live entry over to the unit now
    holding its positions, renumbers slots densely, and makes a block for
    every unit pair within each front whose update the caller adds next.
    So every stored block is a coupling: the matrix's, or one an update
    wrote. No object is kept per block. Eliminated positions never retain
    coupling to active ones (an access to one raises). Every pack checks
    that each active unit's positions map back to it in pos_unit and that no
    other position is live (_check_owners), so unit position lists stay
    disjoint under merges; it raises DimensionError otherwise. Every write
    addresses positions read from the units, so a write outside the
    segments its operation owns needs the units and pos_unit to disagree,
    which the pack that ends the stage sees.
    """

    def __init__(self, n, dtype, symmetric, unit_ids):
        self.n = n
        self.dtype = dtype
        self.symmetric = symmetric
        self.unit_ids = sorted(unit_ids)
        self.serial_of = {uid: s for s, uid in enumerate(self.unit_ids)}
        r = len(self.unit_ids)
        self.units = {}
        self._active = np.zeros(r, dtype=bool)
        self.pos_unit = np.full(n, -1, dtype=np.int64)
        self.local_pos = np.full(n, -1, dtype=np.int64)
        self.width = np.zeros(r, dtype=np.int64)
        self.keys = np.empty(0, dtype=np.int64)
        self.offsets = np.empty(0, dtype=np.int64)
        self.values = np.zeros(0, dtype=dtype)
        # slot -> position as of the last pack; the slots run unit after
        # unit in serial order, width[s] of them for unit s
        self._slot_pos = np.empty(0, dtype=np.int64)

    # -- unit bookkeeping ---------------------------------------------------

    def add_unit(self, uid, pos, kind):
        unit = _Unit(uid, self.serial_of[uid], pos, kind)
        self.units[uid] = unit
        self._active[unit.serial] = True
        self.pos_unit[unit.pos] = unit.serial
        return unit

    def _retire(self, unit):
        del self.units[unit.uid]
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
        """Relabel the kids' positions, in kid order, as one parent unit;
        there is at least one kid."""
        pos = np.concatenate([k.pos for k in kids])
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
        return nb[(nb != unit.serial) & self._active[nb]]

    def positions(self, serials):
        """Active positions of the given units, unit after unit."""
        if len(serials) == 0:
            return np.empty(0, np.int64)
        return np.concatenate([self.units[self.unit_ids[s]].pos
                               for s in serials])

    # -- block access ---------------------------------------------------------

    def _grid(self, rows, cols):
        """Buffer index of every (row, col) position pair."""
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
        return self.offsets[k][ir][:, ic] + (ri * self.width[uc][ic] + ci)

    def gather(self, rows, cols):
        """Dense copy of the active submatrix at positions rows x cols."""
        if len(rows) == 0 or len(cols) == 0:
            return np.zeros((len(rows), len(cols)), dtype=self.dtype)
        return self.values[self._grid(rows, cols)]

    def add_to_block(self, rows, cols, delta):
        """Accumulate delta into the active submatrix at rows x cols.

        Every entry is added where it is addressed, and only there: a
        symmetric update adds both its orientations because the call covers
        both. rows and cols each name distinct positions, and every block
        written must already be in the index.
        """
        if len(rows) == 0 or len(cols) == 0:
            return
        self.values[self._grid(rows, cols)] += delta

    def total_block_entries(self):
        """Entries allocated in the value buffer."""
        return int(self.values.size)

    # -- repacking ------------------------------------------------------------

    def pack(self, entries=None, fronts=()):
        """Rebuild index and buffer for the active units.

        The index holds the carried pairs, a self block per nonempty unit,
        the pairs `entries` address and, for each of `fronts` (the positions
        of a Schur update about to be added), every unit pair within it in
        both orientations; every key gets its own row-major block, laid out
        in key order. Live entries move to the unit now holding their
        positions (a merged parent in place of its children) at densely
        renumbered slots, so the blocks between two children of one parent,
        one per orientation, become the off-diagonal parts of the parent's
        self block. `entries` (rows, cols, values) are then stored as given.
        A unit left without positions keeps no coupling.
        """
        r = len(self.unit_ids)
        active = np.flatnonzero(self._active)
        units = [self.units[self.unit_ids[s]] for s in active]
        width = np.zeros(r, dtype=np.int64)
        width[active] = [u.size for u in units]
        sizes = width[active]
        slot_pos = (np.concatenate([u.pos for u in units]) if units
                    else np.empty(0, np.int64))
        self._check_owners(slot_pos, np.repeat(active, sizes))
        self.local_pos[slot_pos] = (np.arange(slot_pos.size) - np.repeat(
            np.cumsum(sizes) - sizes, sizes))

        # serial that now holds each old unit's live positions, or -1
        live = self.pos_unit[self._slot_pos] >= 0
        moved_to = np.full(r, -1, dtype=np.int64)
        moved_to[np.repeat(np.arange(r), self.width)[live]] = \
            self.pos_unit[self._slot_pos[live]]
        old_a, old_b = np.divmod(self.keys, r)
        new_a, new_b = moved_to[old_a], moved_to[old_b]
        carried = (new_a >= 0) & (new_b >= 0)

        # carried, self and front pairs already come in both orientations
        parts = [new_a[carried] * r + new_b[carried],
                 active[sizes > 0] * (r + 1)]
        if entries is not None:
            ea, eb = self.pos_unit[entries[0]], self.pos_unit[entries[1]]
            parts += [ea * r + eb, eb * r + ea]
        if len(fronts):
            group = np.repeat(np.arange(len(fronts)), [f.size for f in fronts])
            group, unit = np.divmod(_unique(
                group * r + self.pos_unit[np.concatenate(fronts)]), r)
            fa, fb = _group_pairs(group, unit)
            parts.append(fa * r + fb)
        keys = _unique(np.concatenate(parts))

        a, b = np.divmod(keys, r)
        block_sizes = width[a] * width[b]
        offsets = np.cumsum(block_sizes) - block_sizes
        values = np.zeros(int(block_sizes.sum()), dtype=self.dtype)
        self._carry(values, keys, offsets, width, np.flatnonzero(carried),
                    new_a, new_b)
        self.keys, self.offsets, self.values = keys, offsets, values
        self.width = width
        self._slot_pos = slot_pos
        if entries is not None:
            rows, cols, vals = entries
            self.values[self._locate(rows, cols)] = vals

    def _carry(self, values, keys, offsets, width, blocks, new_a, new_b):
        """Copy the live entries of the old buffer's blocks into the new
        layout, entry by entry through the old slot table, whose units start
        where the old widths put them."""
        r = len(self.unit_ids)
        a, b = np.divmod(self.keys[blocks], r)
        nb = new_b[blocks]
        dst_off = offsets[np.searchsorted(keys, new_a[blocks] * r + nb)]
        src_off = self.offsets[blocks]
        stride = width[nb]
        slot_base = np.cumsum(self.width) - self.width
        row_base, col_base = slot_base[a], slot_base[b]
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


def _check_finite(k, *payload):
    """SingularBlockError unless every array is finite. The dense kernels
    check each payload once here; the triangular solves do not check."""
    if not all(np.isfinite(arr).all() for arr in payload):
        raise SingularBlockError(
            f"non-finite elimination payload in {k}x{k} block")


def _symmetric_elimination(self_block, a_nu, a_un):
    """LDL^T kernel for a real symmetric self block (is_symmetric never
    holds for a complex matrix) coupled in from the front by a_nu; a_un, its
    transpose, is not read. Returns (payload, Schur complement); each row of
    D^-1 is one run of 1 or 2 nonzeros. core.ldl factors the self block and
    raises on a bad pivot, _check_finite on a non-finite payload."""
    k = self_block.shape[0]
    lower, dinv, perm = ldl(self_block)
    # t1 = lu^-1 A[idx, nbr]; coupling = (dinv @ t1).T = A[nbr, idx] lu^-T d^-1
    t1 = triangular_solve(lower, a_nu.T[perm], lower=True, unit_diag=True)
    coupling = (dinv @ t1).T
    schur = coupling @ t1
    linv = triangular_inverse(lower, lower=True, unit_diag=True)
    # a non-finite entry of lower leaves one in linv, so lower needs no pass
    _check_finite(k, coupling, schur, linv)
    nonzero = dinv != 0
    counts = nonzero.sum(axis=1)
    return _Payload(
        perm=perm, lower=linv[_triangles(k)[0]], diag=dinv[nonzero],
        diag_counts=counts, pull=coupling.T,
        diag_first=np.nonzero(nonzero)[1][np.cumsum(counts) - counts]), schur


def _unsymmetric_elimination(self_block, a_nu, a_un):
    """Pivoted-LU kernel for a general self block coupled in from the front
    by a_nu and out to it by a_un; returns (payload, Schur complement).
    lu_compact raises on an exactly zero pivot."""
    k = self_block.shape[0]
    lu, perm = lu_compact(self_block)
    # coupling_left = A[nbr, idx] U^-1; coupling_right = L^-1 A[idx, nbr][perm]
    c_left = triangular_solve(lu, a_nu.T, lower=False, trans=True).T
    c_right = triangular_solve(lu, a_un[perm], lower=True, unit_diag=True)
    schur = c_left @ c_right
    # L^-1 strictly below the diagonal, U^-1 on and above it
    inverse = triangular_inverse(
        triangular_inverse(lu, lower=True, unit_diag=True), lower=False)
    _check_finite(k, lu, c_left, c_right, schur, inverse)
    strict, upper = _triangles(k)
    first = np.arange(k)
    return _Payload(perm=perm, lower=inverse[strict], diag=inverse[upper],
                    diag_counts=k - first, diag_first=first, pull=c_right,
                    push=c_left.T), schur


def _eliminate(symmetric, idx, nbr, self_block, a_nu, a_un, level, segment,
               tag):
    """Eliminate positions idx against nbr: LDL^T in symmetric mode (a_un =
    A[idx, nbr] unused), pivoted LU otherwise; both kernels map (self_block,
    a_nu, a_un) to (payload, Schur complement). The one place that builds an
    elimination record, counting its payload's entries (k^2 + 2 k m for LU),
    and that names a failing block: it tags a kernel's SingularBlockError
    with level and segment. Returns the record and its update (nbr, -Schur
    complement), which the caller adds onto nbr x nbr."""
    record, kernel = ((SymEliminationFactor, _symmetric_elimination)
                      if symmetric else
                      (EliminationFactor, _unsymmetric_elimination))
    try:
        payload, schur = kernel(self_block, a_nu, a_un)
    except SingularBlockError as exc:
        raise SingularBlockError(str(exc), level=level,
                                 segment=segment) from exc
    nnz = sum(part.size for part in (payload.lower, payload.diag,
                                     payload.pull, payload.push)
              if part is not None)
    return record(idx=idx, nbr=nbr, level=level, tag=tag, payload_nnz=nnz,
                  payload=payload), (nbr, -schur)


# ---------------------------------------------------------------------------
# Pipeline operations
# ---------------------------------------------------------------------------


def eliminate_interiors(a, tree):
    """Eliminate every leaf interior; returns (SchurState, factors).

    Each stored entry, in nested positions, belongs to the leaf it touches
    (to none between two separator positions), and a leaf's front is the
    outside ends of its entries, explicit zeros included. One stable sort
    by leaf puts the separator entries first, and the store is packed once
    with them and the blocks of every front; each later run holds one
    leaf's entries. Each leaf is factored from its run and adds its update
    onto its front with one add_to_block call straight away; afterwards the
    active set is exactly the separator vertices. The units are the
    segments no split event names as a parent. The factors form one
    step and keep their payload until compile_stage takes it. A singular
    leaf block raises SingularBlockError naming the leaf's position span. A
    matrix is wrapped in a SparseMatrix first, unless it is one, so the gate
    scans it once.
    """
    a = a if isinstance(a, SparseMatrix) else SparseMatrix(a)
    csr = a.csr
    n = csr.shape[0]
    if len(tree.order) != n:
        raise DimensionError("dissection tree does not match the matrix size")
    state = SchurState(n, csr.dtype, is_symmetric(a), tree.segments)
    split = {event.parent for event in tree.events}
    for seg in [s for s in tree.segments.values() if s.id not in split]:
        pos = np.sort(tree.position[seg.vertices])
        state.add_unit(seg.id, pos, seg.kind)

    leaves = tree.leaves
    leaf_of = np.full(n, -1, dtype=np.int64)
    for i, leaf in enumerate(leaves):
        leaf_of[leaf.span[0]:leaf.span[1]] = i
    rows = tree.position[np.repeat(np.arange(n), np.diff(csr.indptr))]
    cols = tree.position[csr.indices]
    lr, lc = leaf_of[rows], leaf_of[cols]
    owner = np.maximum(lr, lc)

    # the front of a leaf: the outside ends of its entries, ascending
    cross = lr != lc
    outside = np.where(lr == owner, cols, rows)[cross]
    front_of, ext = np.divmod(_unique(owner[cross] * n + outside), n)
    if np.any(state.pos_unit[ext] < 0):
        raise DimensionError("a leaf couples to a position outside every "
                             "separator segment")
    cuts = np.searchsorted(front_of, np.arange(len(leaves) + 1)).tolist()
    fronts = [ext[lo:hi] for lo, hi in zip(cuts[:-1], cuts[1:])]

    order = np.argsort(owner, kind="stable")
    rows, cols, vals = rows[order], cols[order], csr.data[order]
    ends = np.searchsorted(owner[order], np.arange(len(leaves) + 1)).tolist()
    # the pack allocates the store: only the sorted entries stay alive
    del lr, lc, owner, cross, outside, order
    sep = ends[0]
    state.pack(entries=(rows[:sep], cols[:sep], vals[:sep]), fronts=fronts)

    factors = []
    interior_level = tree.levels + 1
    for leaf, front, lo, hi in zip(leaves, fronts, ends[:-1], ends[1:]):
        s, e = leaf.span
        ii, a_ie, a_ei = _leaf_blocks(s, e, front, rows[lo:hi], cols[lo:hi],
                                      vals[lo:hi], state.symmetric)
        fac, (nbr, delta) = _eliminate(
            state.symmetric, np.arange(s, e, dtype=np.int64), front, ii,
            a_ei, a_ie, interior_level, ("leaf", int(s), int(e)), "interior")
        state.add_to_block(nbr, nbr, delta)
        factors.append(fac)
    return state, factors


def _leaf_blocks(s, e, ext, rows, cols, vals, symmetric):
    """Dense interior block of positions [s, e) and its couplings to and from
    the ascending outside positions ext, from the entries (rows, cols,
    vals) that touch the leaf. The coupling to ext is None when symmetric:
    the LDL^T kernel reads only the coupling from ext."""
    m = e - s
    row_in = (rows >= s) & (rows < e)
    col_in = (cols >= s) & (cols < e)
    ii = np.zeros((m, m), dtype=vals.dtype)
    both = row_in & col_in
    ii[rows[both] - s, cols[both] - s] = vals[both]
    a_ie = None
    if not symmetric:
        a_ie = np.zeros((m, ext.size), dtype=vals.dtype)
        out = ~col_in
        a_ie[rows[out] - s, np.searchsorted(ext, cols[out])] = vals[out]
    a_ei = np.zeros((ext.size, m), dtype=vals.dtype)
    out = ~row_in
    a_ei[np.searchsorted(ext, rows[out]), cols[out] - s] = vals[out]
    return ii, a_ie, a_ei


def _front(state, unit):
    """(neighbor positions, self block, in-coupling, out-coupling) of a
    unit, the first three gathered in one pass over the store; the
    out-coupling is None on a symmetric store."""
    nbr_pos = state.positions(state.neighbors(unit))
    front = state.gather(np.concatenate([unit.pos, nbr_pos]), unit.pos)
    a_un = None if state.symmetric else state.gather(unit.pos, nbr_pos)
    return nbr_pos, front[:unit.size], front[unit.size:], a_un


def sparsify_segment(state, unit, eps, level):
    """Compress one active regular unit's coupling at the given level and
    eliminate what the compression decouples; returns (factors, skeleton).

    Computes an interpolative decomposition of the whole of the unit's
    coupling to its neighbors (of the stacked in/out coupling in unsymmetric
    mode), every neighbor row included and no random number drawn, and
    emits the two-sided sparsify factor. Applied to the unit's self block,
    rows first and then columns, the transform leaves the redundant
    positions coupled to the skeleton alone, up to the dropped entries, so
    they are eliminated against the skeleton at once (a remainder
    elimination, whose Schur update is the only store write) and leave the
    unit, which keeps its skeleton. The dropped coupling is never written:
    no live position reads it again. factors is [sparsify, remainder], or
    empty when nothing was decoupled. A unit with no neighbors has no
    coupling to compress: it emits no factor and keeps every position, to
    be eliminated whole. An empty unit is one of these, since no pack gives
    it a block.
    """
    if unit.kind == JUNCTION:
        raise ConfigError("junction segments are merged, never sparsified")

    uid = unit.uid
    pos = unit.pos
    nbr_pos, self_block, a_nu, a_un = _front(state, unit)
    if nbr_pos.size == 0:
        return [], pos.copy()
    if state.symmetric:
        ident = lowrank.sampled_id(a_nu, eps)
    else:
        ident = lowrank.joint_unsymmetric_id(a_nu, a_un, eps)

    skel_l, red_l, interp = ident.skeleton, ident.redundant, ident.interp
    skeleton = pos[skel_l]
    if red_l.size == 0:
        return [], skeleton

    red = pos[red_l]
    sparsify = SparsifyFactor(skeleton=skeleton, redundant=red,
                              interp=interp, level=level)
    self_block[red_l, :] -= interp.T @ self_block[skel_l, :]
    self_block[:, red_l] -= self_block[:, skel_l] @ interp
    remainder, (nbr, delta) = _eliminate(
        state.symmetric, red, skeleton, self_block[np.ix_(red_l, red_l)],
        self_block[np.ix_(skel_l, red_l)], self_block[np.ix_(red_l, skel_l)],
        level, uid, "remainder")
    state.add_to_block(nbr, nbr, delta)
    state.keep_positions(unit, skel_l)
    return [sparsify, remainder], skeleton


def eliminate_segments(state, level):
    """Eliminate every level-`level` segment whole; returns (factors,
    updates).

    The factors form one step in id order, their payload kept for
    compile_stage, and updates holds each one's (nbr, -Schur complement),
    which merge_segments adds once the store has blocks for it. Nothing is
    written here: the segments of one level lie in disjoint subtrees and
    never touch (compile_stage rejects a stage whose factors do), so no
    elimination reads what another one's update would write.
    """
    factors, updates = [], []
    for uid in state.active_ids():
        unit = state.units[uid]
        if uid[0] != level:
            continue
        nbr_pos, self_block, a_nu, a_un = _front(state, unit)
        fac, update = _eliminate(state.symmetric, unit.pos.copy(), nbr_pos,
                                 self_block, a_nu, a_un, level, uid, "segment")
        state.remove_unit(unit)
        factors.append(fac)
        updates.append(update)
    return factors, updates


def merge_segments(state, tree, level, updates):
    """Undo this level's split events, then add the level's updates.

    Events are undone in reverse creation order so nested splits unwind
    cleanly; junction children are absorbed into the parent along with the
    sibling skeletons. A merge only relabels the children's positions as
    the parent's. The store is then repacked with the blocks of every
    update's front, and the updates (eliminate_segments) are added in
    order, so each entry sums its carried value first and then the updates
    in elimination order. Returns the state.
    """
    for event in reversed([e for e in tree.events if e.level == level]):
        kids = [state.units[cid] for cid in event.children]
        state.merge_units(kids, event.parent, tree.segments[event.parent].kind)
    state.pack(fronts=[nbr for nbr, _ in updates])
    for nbr, delta in updates:
        state.add_to_block(nbr, nbr, delta)
    return state


# ---------------------------------------------------------------------------
# Full pipeline
# ---------------------------------------------------------------------------


@dataclass
class SpaluFactorization:
    """Compiled stages plus the nested order and statistics.

    order is the tree's int64 array of vertex ids in nested order.

    stages applies left actions in list order and right actions in reverse
    list order; an LDL^T stage's block-diagonal middle action follows its
    left action.
    factors lists every stage's factor records in the same order.
    level_stats rows are JSON-ready per-level dicts: the level l, its
    num_segments regular segments, the largest_segment sparsified and the
    largest_skeleton it kept, and the seconds of its three steps.
    time_sparsify includes the remainder eliminations; time_eliminate covers
    the whole-segment kernels and time_merge the relabelling, the pack and
    the scatter of those eliminations' updates.
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
    eliminate the level's own segments, merge split segments back together
    and add the eliminations' updates. Each step (the interiors, then per
    level the sparsifications, the remainders and the whole segments) is
    one stage, compiled by compile_stage as soon as its factors exist; an
    empty step adds none. tree must be the DissectionTree of a, or
    ConfigError is raised. Singular blocks raise
    SingularBlockError tagged with level and segment id.
    """
    if not (isinstance(eps, numbers.Real) and 0.0 < eps < 1.0):
        raise ConfigError(f"eps must be a number in (0, 1), got {eps!r}")
    options = FactorOptions() if options is None else options
    if not isinstance(options, FactorOptions):
        raise ConfigError(f"options must be a FactorOptions, got {options!r}")
    if not isinstance(tree, DissectionTree):
        raise ConfigError(f"tree must be a DissectionTree, got {tree!r}")

    state, interiors = eliminate_interiors(a, tree)
    stages = [compile_stage(interiors)] if interiors else []

    level_stats = []
    for level in range(tree.levels, 0, -1):
        regulars = [uid for uid in state.active_ids()
                    if state.units[uid].kind == REGULAR]

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
            new_factors, skeleton = sparsify_segment(state, unit, eps, level)
            sparsified.extend(new_factors[:1])
            remainders.extend(new_factors[1:])
            post_sizes.append(len(skeleton))
        stages += [compile_stage(step) for step in (sparsified, remainders)
                   if step]
        time_sparsify = time.perf_counter() - t_sp

        t_el = time.perf_counter()
        factors, updates = eliminate_segments(state, level)
        if factors:
            stages.append(compile_stage(factors))
        time_eliminate = time.perf_counter() - t_el

        t_mg = time.perf_counter()
        merge_segments(state, tree, level, updates)
        time_merge = time.perf_counter() - t_mg

        level_stats.append({
            "l": level,
            "num_segments": len(regulars),
            "largest_segment": max(pre_sizes, default=0),
            "largest_skeleton": max(post_sizes, default=0),
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
