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
decomposition). The store is read and written in batches: gather reads a
list of blocks and add_to_block adds a list of updates, each with one lookup
of the unit pairs its blocks touch, and add_to_block is the buffer's only
write outside a pack. A leaf's elimination takes its blocks from the
matrix, a remainder's from its sparsification's gather, and any other from
the buffer. Besides the self blocks and the matrix's own couplings, a block
exists only where an update writes it: each pack makes the blocks of the
fronts whose updates follow it. The leaf stage reads the matrix once,
sorted by leaf: the separator entries come first and fill the stage's one
pack, then each leaf's entries form one run. Leaves never read the store,
so their updates are added in batches of about CHUNK entries as the leaves
are eliminated. A remainder writes only its segment's own self block,
which exists. The whole segments of a level lie in disjoint subtrees and
never touch, so their eliminations read nothing another writes: their
fronts are gathered in batches first, and merge_segments relabels the
merged positions, packs once with the level's fronts and then adds the
updates in elimination order, in batches. Every pack checks that the
segments and the store's position table agree on which segment owns each
live position (SchurState).

Every transform is recorded as an elementary factor: the positions it
eliminates or decouples (idx) and the positions it couples them to (nbr).
The factors of one step (the leaf interiors, or one level's
sparsifications, its remainders or its whole segments) form a Stage: one
gather and one scatter index, and scipy CSR operators for the block-diagonal
triangular inverses (L^-1 P and U^-1 of each LU, L^-1 P and D^-1 of each
LDL^T) and for the couplings. An elimination step is compiled as its kernels
make the payloads (_EliminationStep): each chunk of about CHUNK dense
entries becomes nonzero CSR pieces at once and its dense payloads are
dropped, so no step holds all of its dense payload, and the pieces are
joined into the step's Stage at its end. Compiling checks that no factor's
idx meets another factor's idx or any factor's nbr (a sparsification writes
both its redundant and its skeleton positions, so its skeleton counts as
idx here too): that is what lets a stage act as one block operation. Those
CSR arrays are the only copy of the payload, and an elimination stage's
hold only its nonzeros: exact zeros of the inverses and couplings are
neither stored nor multiplied. A factor keeps its indices and, for a
sparsification, a view of its interpolation matrix. The solver module
applies the stages in two passes: left actions forward, each LDL^T stage's
D^-1 right after its left action, then right actions in reverse.
"""

from __future__ import annotations

import numbers
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from . import lowrank
from .core import (SparseMatrix, _triangles, as_csr, check_int, ldl,
                   lu_compact, triangular_inverse, triangular_solve)
from .dissection import JUNCTION, REGULAR, DissectionTree
from .errors import ConfigError, DimensionError, SingularBlockError

# Entries per chunk: a pack moves, a batched store access reads or writes
# and an elimination step keeps as dense payload about this many at a time,
# which bounds their transient arrays.
CHUNK = 1 << 16


@dataclass(frozen=True)
class FactorOptions:
    """Knobs for factorize; defaults match the benchmark configuration.

    Segments smaller than min_sparsify_size skip compression: a
    rank-revealing decomposition of a block that small costs more than it
    saves and such blocks sit at or near full rank anyway, so they are
    eliminated or merged at full size instead. Options are checked when
    made and never change. No option reaches the Schur store: its
    ownership check runs at every pack, and compiling rejects a stage whose
    factors overlap.
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

    @property
    def entries(self):
        """Dense entries held, the measure of a chunk."""
        return (self.lower.size + self.diag.size + self.pull.size
                + (0 if self.push is None else self.push.size))


@dataclass
class _Elimination:
    """Record of one block elimination of positions idx against nbr, made
    by _eliminate only.

    payload holds its entries from the kernel until its chunk of the step
    is compiled (_EliminationStep); then it is None, and payload_nnz, None
    until then, counts the nonzeros the compiled stage keeps in the
    factor's rows.
    """

    idx: np.ndarray
    nbr: np.ndarray
    level: int
    tag: str
    payload: _Payload = field(default=None, repr=False)
    payload_nnz: int | None = None

    @property
    def kind(self):
        return "interior-lu" if self.tag == "interior" else "eliminate"


class EliminationFactor(_Elimination):
    """Pivoted-LU elimination: self_block[perm] = L @ U.

    Left action: t = L^-1 y[idx][perm]; y[nbr] -= coupling_left @ t;
    y[idx] = t, with coupling_left = A[nbr, idx] U^-1. Right action:
    x[idx] = U^-1 (x[idx] - coupling_right @ x[nbr]), with coupling_right =
    L^-1 A[idx, nbr][perm]. Stored: the nonzeros of L^-1 below the
    diagonal (its unit diagonal is implied), of U^-1 on and above it, and
    of both couplings, at most k^2 + 2 k m entries for k = |idx| and m =
    |nbr|.
    """


class SymEliminationFactor(_Elimination):
    """Symmetric (LDL^T) elimination; the right action is the left's
    adjoint.

    From self_block = lu @ d @ lu.T with lower = lu[perm] unit lower
    triangular (Bunch-Kaufman) and coupling = A[nbr, idx] lu^-T d^-1. Left
    action: t = lower^-1 y[idx][perm]; y[nbr] -= coupling @ t; y[idx] = t.
    Middle action: y[idx] = d^-1 y[idx]. Right action: q = lower^-T
    (x[idx] - coupling.T @ x[nbr]), then x[idx][perm] = q. Stored: the
    nonzeros of lower^-1 below the diagonal, of d^-1 (its 1x1 and 2x2
    blocks) and of the coupling, at most k (k - 1) / 2 + 2 k + k m entries.
    """


# ---------------------------------------------------------------------------
# Compiled stages
# ---------------------------------------------------------------------------


class Stage:
    """The factors of one step of factorize, which share their level, kind
    and tag, compiled into sparse operators.

    No factor's idx meets another factor's idx or any factor's nbr, and no
    two sparsifications share a skeleton position (compiling checks
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

    The arrays of these CSR matrices are the only copy of the payload; an
    elimination stage's hold only nonzeros, and a factor's payload_nnz
    counts its entries there.
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
    level, kind and tag. Eliminations are compiled as _EliminationStep
    compiles them as they are made; each sparsification's interp becomes a
    view into the stage. Factors that overlap raise DimensionError."""
    if factors[0].kind == "sparsify":
        return _checked(_compile_sparsify(factors))
    step = _EliminationStep()
    for f in factors:
        step.add(f)
    return step.stage()


def _checked(stage):
    """stage, unless two of its factors overlap (DimensionError)."""
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


class _EliminationStep:
    """One step's eliminations, compiled into their Stage as they are made.

    A record keeps its kernel's dense payload only until the records added
    since the last chunk hold CHUNK dense entries. That chunk is then
    compiled into one nonzero piece per operator (_compile_chunk), and its
    payloads are dropped. stage() joins the pieces: lower and diag stack
    block-diagonally, and the columns of pull and push move from each
    chunk's own neighbor list to the stage's sorted union. Compiled at once
    or in chunks, a step gives bitwise the same Stage.
    """

    def __init__(self):
        self.factors = []
        self._open = []
        self._open_entries = 0
        # per field of _compile_chunk, its value for each chunk compiled
        self._pieces = defaultdict(list)

    def add(self, record):
        self.factors.append(record)
        self._open.append(record)
        self._open_entries += record.payload.entries
        if self._open_entries >= CHUNK:
            self._close()

    def _close(self):
        for name, value in _compile_chunk(self._open).items():
            self._pieces[name].append(value)
        self._open, self._open_entries = [], 0

    def stage(self):
        """The step's checked Stage, or None if it has no factor."""
        if not self.factors:
            return None
        if self._open:
            self._close()
        factors, parts = self.factors, self._pieces
        self._pieces = defaultdict(list)
        idx = np.concatenate([f.idx for f in factors])
        nbr = _unique(np.concatenate([f.nbr for f in factors]))
        sizes = [g.size for g in parts["gather"]]
        ends = np.cumsum(sizes).tolist()
        own = [np.arange(end - k, end) for k, end in zip(sizes, ends)]
        to_nbr = [np.searchsorted(nbr, n) for n in parts["nbr"]]
        # one operator at a time, so that only its pieces and its join
        # coexist
        ops = {}
        for name, cols, width in (("lower", own, idx.size),
                                  ("diag", own, idx.size),
                                  ("pull", to_nbr, nbr.size),
                                  ("push_t", to_nbr, nbr.size)):
            pieces = parts.pop(name)
            ops[name] = None if pieces[0] is None else _stack(pieces, cols,
                                                              width)
        return _checked(Stage(factors, idx, nbr, ops["pull"],
                              gather=np.concatenate(parts["gather"]),
                              lower=ops["lower"], diag=ops["diag"],
                              push_t=ops["push_t"]))


def _compile_chunk(factors):
    """Consecutive eliminations of one step compiled: their rows of each
    operator, pull and push_t in the columns of their own sorted neighbor
    list nbr, and their gather. Each payload is dropped once copied, without
    its exact zeros, and its record's payload_nnz set to the entries
    kept."""
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
             pull.indices.copy(), pull.indptr.copy()), shape=pull.shape)
    # each operator stores its nonzeros only, and each factor counts what
    # its rows keep
    bounds = np.append(offsets, rows.size)
    operators = [m for m in (lower, diag, pull, push_t) if m is not None]
    for m in operators:
        m.eliminate_zeros()
    kept = sum(np.diff(m.indptr[bounds]) for m in operators)
    gather = np.concatenate([f.idx[b.perm] for f, b in zip(factors,
                                                            payloads)])
    for f, nnz in zip(factors, kept.tolist()):
        f.payload = None
        f.payload_nnz = nnz
    return dict(nbr=nbr, gather=gather, lower=lower, diag=diag, pull=pull,
                push_t=push_t)


def _stack(pieces, cols, num_cols):
    """The CSR matrices pieces stacked row after row, the column c of piece
    i becoming cols[i][c]."""
    nnz = np.array([p.nnz for p in pieces])
    itype = np.int32 if max(nnz.sum(), num_cols) < 2 ** 31 else np.int64
    data = np.concatenate([p.data for p in pieces])
    indices = np.concatenate([c.astype(itype)[p.indices]
                              for p, c in zip(pieces, cols)])
    indptr = np.concatenate([np.zeros(1, itype)] + [
        p.indptr[1:] + np.asarray(o, dtype=itype)
        for p, o in zip(pieces, np.cumsum(nnz) - nnz)])
    return sp.csr_matrix((data, indices, indptr),
                         shape=(indptr.size - 1, num_cols))


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


def _block_runs(owner, parts):
    """Runs of equal owner over each of the position arrays parts, a run
    never spanning two parts: (owner of each run, runs per part, every
    entry's run within its part)."""
    sizes = np.array([len(p) for p in parts])
    values = owner[np.concatenate(parts)]
    step = np.empty(values.size, dtype=bool)
    step[:1] = True
    np.not_equal(values[1:], values[:-1], out=step[1:])
    starts = np.cumsum(sizes) - sizes
    step[starts[sizes > 0]] = True
    run = np.cumsum(step)
    before = np.concatenate(([0], run))[starts]
    runs = np.diff(np.append(before, step.sum()))
    local = run - 1 - np.repeat(before, sizes)
    return values[step], runs, local


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
    """(lo, hi) ranges of consecutive blocks of about CHUNK entries."""
    if counts.size == 0:
        return []
    ends = np.cumsum(counts)
    cuts = np.searchsorted(ends, np.arange(CHUNK, ends[-1], CHUNK),
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

    Access is batched: gather reads and add_to_block adds a list of (rows,
    cols) blocks with one lookup of the unit pairs they touch, and each
    block then takes its buffer index in one broadcast. Outside pack,
    add_to_block is the only value write; it never creates a block, and it
    adds in list order, so blocks that share positions sum as sequential
    adds would. The structure changes only in pack, which runs once per
    stage after the merges: it carries every live entry over to the unit now
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

    def _grids(self, blocks):
        """Buffer index of every (row, col) position pair of each (rows,
        cols) block, one array per block. One lookup finds the stored unit
        pair of every run of rows and run of columns of every block; each
        block then takes its index in one broadcast."""
        if not blocks:
            return []
        r = len(self.unit_ids)
        rows, cols = zip(*blocks)
        ru, nr, rl = _block_runs(self.pos_unit, rows)
        cu, nc, cl = _block_runs(self.pos_unit, cols)
        if np.any(ru < 0) or np.any(cu < 0):
            raise DimensionError("Schur store access touches an eliminated "
                                 "position")
        # the unit pairs of each block, its row runs by its column runs
        npairs = nr * nc
        block = np.repeat(np.arange(npairs.size), npairs)
        first = np.cumsum(npairs) - npairs
        i, j = np.divmod(np.arange(block.size) - first[block], nc[block])
        pairs = (ru[(np.cumsum(nr) - nr)[block] + i] * r
                 + cu[(np.cumsum(nc) - nc)[block] + j])
        k = self.keys.searchsorted(pairs)
        if pairs.size and (not self.keys.size or np.any(
                self.keys.take(k, mode="clip") != pairs)):
            raise DimensionError("Schur store access outside the stored "
                                 "blocks")
        offsets = self.offsets[k]
        # entry (i, j) of a block sits at offsets[pair] + rp[i] * width + cp[j]
        # for the pair of its row's and its column's units, the width of the
        # column's unit: first each row against each column run, then one
        # take of the columns
        rp = self.local_pos[np.concatenate(rows)][:, None]
        cp = self.local_pos[np.concatenate(cols)]
        cw = self.width[cu]
        r_end = np.cumsum([len(x) for x in rows]).tolist()
        c_end = np.cumsum([len(x) for x in cols]).tolist()
        nc_end = np.cumsum(nc).tolist()
        grids = []
        for r0, r1, c0, c1, p0, h, w, w1 in zip(
                [0] + r_end[:-1], r_end, [0] + c_end[:-1], c_end,
                first.tolist(), nr.tolist(), nc.tolist(), nc_end):
            runs = offsets[p0:p0 + h * w].reshape(h, w)[rl[r0:r1]]
            runs += rp[r0:r1] * cw[w1 - w:w1]
            grid = runs.take(cl[c0:c1], axis=1)
            grid += cp[c0:c1]
            grids.append(grid)
        return grids

    def gather(self, blocks):
        """Dense copies of the active submatrix at each (rows, cols) block
        of the list, in one lookup."""
        return [self.values[g] for g in self._grids(blocks)]

    def add_to_block(self, blocks, deltas):
        """Accumulate each delta into the active submatrix at its (rows,
        cols) block, in list order, with one lookup and one np.add.at.

        Every entry is added where it is addressed, and only there: a
        symmetric update adds both its orientations because its block covers
        both. A block's rows and cols each name distinct live positions,
        blocks may share positions (their deltas then sum in list order),
        and every block written must already be in the index.
        """
        grids = self._grids(blocks)
        np.add.at(self.values, np.concatenate([g.ravel() for g in grids]),
                  np.concatenate([np.ravel(d) for d in deltas]))

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
    elimination record, whose payload _EliminationStep compiles and counts,
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
    return record(idx=idx, nbr=nbr, level=level, tag=tag,
                  payload=payload), (nbr, -schur)


# ---------------------------------------------------------------------------
# Pipeline operations
# ---------------------------------------------------------------------------


def eliminate_interiors(a, tree):
    """Eliminate every leaf interior; returns (SchurState, stage).

    Each stored entry, in nested positions, belongs to the leaf it touches
    (to none between two separator positions), and a leaf's front is the
    outside ends of its entries, explicit zeros included. One stable sort
    by leaf puts the separator entries first, and the store is packed once
    with them and the blocks of every front; each later run holds one
    leaf's entries. Each leaf is factored from its run, and its update onto
    its front is added in a batch of about CHUNK entries with the updates of
    the leaves before it: no leaf reads the store, so deferring the adds
    changes no value. Afterwards the active set is exactly the separator
    vertices. The units are the segments no split event names as a parent.
    The factors form one step, compiled into its stage as they are made
    (None without leaves). A singular
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

    step = _EliminationStep()
    interior_level = tree.levels + 1

    def updates():
        # each leaf is eliminated as _add_in_batches asks for its update
        for leaf, front, lo, hi in zip(leaves, fronts, ends[:-1], ends[1:]):
            s, e = leaf.span
            ii, a_ie, a_ei = _leaf_blocks(s, e, front, rows[lo:hi],
                                          cols[lo:hi], vals[lo:hi],
                                          state.symmetric)
            fac, update = _eliminate(
                state.symmetric, np.arange(s, e, dtype=np.int64), front, ii,
                a_ei, a_ie, interior_level, ("leaf", int(s), int(e)),
                "interior")
            step.add(fac)
            yield update

    _add_in_batches(state, updates())
    return state, step.stage()


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


def _fronts(state, units, nbrs):
    """(self block, in-coupling, out-coupling) of each unit against its
    neighbor positions, gathered in one batch; the out-coupling is None on
    a symmetric store."""
    blocks = []
    for unit, nbr_pos in zip(units, nbrs):
        blocks.append((np.concatenate([unit.pos, nbr_pos]), unit.pos))
        if not state.symmetric:
            blocks.append((unit.pos, nbr_pos))
    arrays = iter(state.gather(blocks))
    fronts = []
    for unit in units:
        front = next(arrays)
        a_un = None if state.symmetric else next(arrays)
        fronts.append((front[:unit.size], front[unit.size:], a_un))
    return fronts


def _add_in_batches(state, updates):
    """Add each (nbr, delta) of the iterable updates onto nbr x nbr, in
    order, in add_to_block batches of about CHUNK entries."""
    blocks, deltas, size = [], [], 0
    for nbr, delta in updates:
        blocks.append((nbr, nbr))
        deltas.append(delta)
        size += delta.size
        if size >= CHUNK:
            state.add_to_block(blocks, deltas)
            blocks, deltas, size = [], [], 0
    if blocks:
        state.add_to_block(blocks, deltas)


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
    nbr_pos = state.positions(state.neighbors(unit))
    (self_block, a_nu, a_un), = _fronts(state, [unit], [nbr_pos])
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
    state.add_to_block([(nbr, nbr)], [delta])
    state.keep_positions(unit, skel_l)
    return [sparsify, remainder], skeleton


def eliminate_segments(state, level):
    """Eliminate every level-`level` segment whole; returns (stage,
    updates).

    The units' neighbor lists are read first, then their fronts are
    gathered in batches of about CHUNK entries and eliminated in id order
    into one stage (None if the level owns no active segment). updates
    holds each elimination's (nbr, -Schur complement), which
    merge_segments adds once the store has blocks for it. Nothing is
    written here: the segments of one level lie in disjoint subtrees and
    never touch (the stage is rejected if they do), so no elimination reads
    what another one's update would write. The units leave the store after
    the last gather.
    """
    units = [state.units[uid] for uid in state.active_ids()
             if uid[0] == level]
    nbrs = [state.positions(state.neighbors(u)) for u in units]
    sides = 1 if state.symmetric else 2
    sizes = np.array([u.size * (u.size + sides * m.size)
                      for u, m in zip(units, nbrs)], dtype=np.int64)
    step, updates = _EliminationStep(), []
    for lo, hi in _chunks(sizes):
        fronts = _fronts(state, units[lo:hi], nbrs[lo:hi])
        for unit, nbr_pos, (self_block, a_nu, a_un) in zip(
                units[lo:hi], nbrs[lo:hi], fronts):
            fac, update = _eliminate(state.symmetric, unit.pos.copy(),
                                     nbr_pos, self_block, a_nu, a_un, level,
                                     unit.uid, "segment")
            step.add(fac)
            updates.append(update)
    for unit in units:
        state.remove_unit(unit)
    return step.stage(), updates


def merge_segments(state, tree, level, updates):
    """Undo this level's split events, then add the level's updates.

    Events are undone in reverse creation order so nested splits unwind
    cleanly; junction children are absorbed into the parent along with the
    sibling skeletons. A merge only relabels the children's positions as
    the parent's. The store is then repacked with the blocks of every
    update's front, and the updates (eliminate_segments) are added in
    order, in batches of about CHUNK entries, so each entry sums its
    carried value first and then the updates in elimination order. Returns
    the state.
    """
    for event in reversed([e for e in tree.events if e.level == level]):
        kids = [state.units[cid] for cid in event.children]
        state.merge_units(kids, event.parent, tree.segments[event.parent].kind)
    state.pack(fronts=[nbr for nbr, _ in updates])
    _add_in_batches(state, updates)
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
    one stage, compiled as its factors are made; an empty step adds none.
    tree must be the DissectionTree of a, or ConfigError is raised.
    Singular blocks raise SingularBlockError tagged with level and segment
    id.
    """
    if not (isinstance(eps, numbers.Real) and 0.0 < eps < 1.0):
        raise ConfigError(f"eps must be a number in (0, 1), got {eps!r}")
    options = FactorOptions() if options is None else options
    if not isinstance(options, FactorOptions):
        raise ConfigError(f"options must be a FactorOptions, got {options!r}")
    if not isinstance(tree, DissectionTree):
        raise ConfigError(f"tree must be a DissectionTree, got {tree!r}")

    state, interiors = eliminate_interiors(a, tree)
    stages = [interiors]

    level_stats = []
    for level in range(tree.levels, 0, -1):
        regulars = [uid for uid in state.active_ids()
                    if state.units[uid].kind == REGULAR]

        pre_sizes = []
        post_sizes = []
        sparsified = []
        remainders = _EliminationStep()
        t_sp = time.perf_counter()
        for uid in regulars:
            unit = state.units[uid]
            if unit.size < options.min_sparsify_size:
                continue
            pre_sizes.append(unit.size)
            new_factors, skeleton = sparsify_segment(state, unit, eps, level)
            sparsified.extend(new_factors[:1])
            for remainder in new_factors[1:]:
                remainders.add(remainder)
            post_sizes.append(len(skeleton))
        if sparsified:
            stages.append(compile_stage(sparsified))
        stages.append(remainders.stage())
        time_sparsify = time.perf_counter() - t_sp

        t_el = time.perf_counter()
        segments, updates = eliminate_segments(state, level)
        stages.append(segments)
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
        stages=[stage for stage in stages if stage is not None],
        order=tree.order, n=state.n, symmetric=state.symmetric,
        dtype=state.dtype, level_stats=level_stats)
