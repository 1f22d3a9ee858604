"""Batched diagonal-PCG: Algorithm 1 over a whole tile of pairs.

:func:`batched_pcg_solve` runs the exact recurrence of
:mod:`repro.solvers.pcg` on a :class:`~repro.kernels.linsys.
BatchedProductSystem`: one stacked off-diagonal matvec and a fixed
handful of NumPy calls advance *every* pair in the tile per CG
iteration.  Per-pair state (α, β, ρ, residual norms, stopping
thresholds, iteration caps) lives on (B,) vectors computed with
segment reductions, so each pair follows the same trajectory it would
follow alone — batching changes the bookkeeping, not the mathematics.

Convergence is masked per pair.  A pair that meets its threshold (or
breaks down, or exhausts its iteration cap) *retires*: its outcome is
recorded and its alive flag cleared, and α and β, masked to 0 off the
alive slots, freeze its segment at the cost of dead flops.
Warm-started pairs whose initial residual already meets the threshold
retire the same way before the first iteration.  Once retired pairs
outweigh :data:`COMPACT_FRACTION` of the layout, the state vectors and
the stacked operator are compacted so the survivors keep vectorizing at
full density; the dropped blocks' solutions are written back then, and
the rest when the loop ends.  Compaction builds no matrix: each kept
block's rows and its contiguous run of entries are sliced out of the
operator's raw block-CSR arrays and its column indices shifted, and
only ``x``, ``r``, ``p`` and the diagonal are gathered.  The SpMV bits
do not change, so a solve that compacts is byte-equal to one that
never does.

Equivalence contract: per-pair and batched solves perform the same
elementwise operations in the same order, and each block of the
block-CSR operator is the pair's own ``fused`` W, so its SpMV rows sum
in the same order; the only divergence is reduction order in the
per-pair dot products (``reduceat`` vs. BLAS ``dot``/``nrm2``).  Values
agree to ~1e-14 relative (the engine promises 1e-10); iteration counts
can differ by ±1 only when a residual lands within one ulp of the
threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# The CSR kernel behind ``W @ v``; the solve runs it into a reused
# buffer.
from scipy.sparse._sparsetools import csr_matvec as _csr_matvec

from ..kernels.linsys import BatchedProductSystem, _concat_ranges
from ..obs.trace import get_tracer

#: Compact state + operator once the alive fraction of the layout
#: drops below this (a compaction costs about one matvec), at
#: initialization as inside the loop.  0.35 balances dead flops against
#: compaction churn for both trajectories: cold solves retire in a
#: burst near the end, and warm-started solves retire a share of the
#: tile at iteration zero and trickle out the stragglers — a higher
#: threshold re-compacts on nearly every straggler retirement.
COMPACT_FRACTION = 0.35


@dataclass
class BatchedSolveResult:
    """Outcome of one tile solve, aligned with the input pair order.

    ``x`` keeps the stacked layout of the *input* system; slice pair
    b's solution with ``x[offsets[b] : offsets[b + 1]]``.
    """

    x: np.ndarray  # (S,) stacked solutions
    iterations: np.ndarray  # (B,) iterations performed per pair
    converged: np.ndarray  # (B,) bool
    residual_norms: np.ndarray  # (B,) final absolute ||r||₂


def batched_pcg_solve(
    system: BatchedProductSystem,
    rtol: float = 1e-9,
    atol: float = 0.0,
    max_iter: int | None = None,
    x0: np.ndarray | None = None,
) -> BatchedSolveResult:
    """Diagonal-PCG over every pair of a tile with masked convergence.

    Mirrors :func:`repro.solvers.pcg.pcg_solve` pair for pair,
    including the ``max(64, N)`` default iteration cap (taken per pair
    from its true system size) and the pa <= 0 breakdown exit.

    ``x0`` warm-starts the iteration from a stacked initial guess (the
    engine seeds it with a residual-minimizing combination of previous
    sweep points' solutions).  The solver forms the initial residual
    b − S x0 itself, with one stacked matvec, so a pair retires at zero
    iterations only when the true residual of its guess meets the
    threshold.  Pairs whose x0 segment is zero follow the cold
    trajectory bitwise — the exact-iteration fallback when no prior
    solution exists.
    """
    return _batched_krylov(system, rtol, atol, max_iter, precondition=True,
                           x0=x0)


def batched_cg_solve(
    system: BatchedProductSystem,
    rtol: float = 1e-9,
    atol: float = 0.0,
    max_iter: int | None = None,
    x0: np.ndarray | None = None,
) -> BatchedSolveResult:
    """Unpreconditioned batched CG (mirrors :func:`repro.solvers.cg.
    cg_solve`, including its ``max(64, 4N)`` default iteration cap)."""
    return _batched_krylov(system, rtol, atol, max_iter, precondition=False,
                           x0=x0)


def _batched_krylov(
    system: BatchedProductSystem,
    rtol: float,
    atol: float,
    max_iter: int | None,
    precondition: bool,
    x0: np.ndarray | None = None,
) -> BatchedSolveResult:
    """Traced entry: a ``pcg.batch`` span carrying iteration/retirement
    stats wraps the solve when tracing is on; the disabled path calls
    straight through with no stats bookkeeping at all."""
    tracer = get_tracer()
    if not tracer.enabled:
        return _batched_krylov_impl(
            system, rtol, atol, max_iter, precondition, x0, None
        )
    stats = {"compactions": 0, "breakdowns": 0, "zero_iter_retired": 0}
    with tracer.span(
        "pcg.batch",
        batch=system.batch,
        total_unknowns=int(system.total),
        preconditioned=precondition,
        warm_started=x0 is not None,
    ) as sp:
        res = _batched_krylov_impl(
            system, rtol, atol, max_iter, precondition, x0, stats
        )
        iters = res.iterations
        sp.set("iterations_total", int(iters.sum()))
        sp.set("iterations_max", int(iters.max()) if len(iters) else 0)
        sp.set("converged", int(res.converged.sum()))
        sp.set("nonconverged", int((~res.converged).sum()))
        for key, value in stats.items():
            sp.set(key, value)
    return res


def _batched_krylov_impl(
    system: BatchedProductSystem,
    rtol: float,
    atol: float,
    max_iter: int | None,
    precondition: bool,
    x0: np.ndarray | None,
    stats: dict | None,
) -> BatchedSolveResult:
    return BatchedSolveHandle(
        system, rtol=rtol, atol=atol, max_iter=max_iter,
        precondition=precondition, x0=x0, stats=stats,
    ).run()


class BatchedSolveHandle:
    """The state of one batched Krylov solve.

    The constructor performs the setup phase of the solve (initial
    residual, CG state, zero-iteration warm-start retirements);
    :meth:`run` iterates until every pair has retired and returns the
    outputs.

    The handle runs on the operator's raw block-CSR arrays (``indptr``,
    ``indices``, ``data``) and the active layout's ``offsets`` and
    ``diag``: its SpMV runs ``csr_matvec`` into a reused buffer, which
    gives the bits of ``W @ p`` without the dispatch and the
    allocation, and compaction slices those arrays instead of building
    a new matrix.
    """

    def __init__(
        self,
        system: BatchedProductSystem,
        rtol: float = 1e-9,
        atol: float = 0.0,
        max_iter: int | None = None,
        precondition: bool = True,
        x0: np.ndarray | None = None,
        stats: dict | None = None,
    ) -> None:
        B = system.batch
        if (system.diag <= 0).any():
            raise ValueError(
                "system diagonal must be positive (check base kernels)"
            )
        self.out_offsets = system.offsets
        self.precondition = precondition
        self.stats = stats
        b = system.rhs
        bnorm = system.pair_norms(b)
        self.threshold = np.maximum(rtol * bnorm, atol)
        if max_iter is None:
            self.caps = np.maximum(
                64, (1 if precondition else 4) * system.sizes
            )
        else:
            self.caps = np.full(B, int(max_iter), dtype=np.int64)

        # Per-pair outputs, recorded as pairs retire.  The solutions
        # go to ``x_out`` in :meth:`_write_back`.
        self.x_out = None
        self.iters_out = np.zeros(B, dtype=np.int64)
        self.conv_out = np.zeros(B, dtype=bool)
        self.rnorm_out = np.zeros(B)

        # Active layout, compacted as pairs retire: ``pair_of`` maps its
        # batch axis to input pair indices; ``alive`` marks layout slots
        # whose pair has not retired yet.
        mat = system.offdiag.mat
        self.indptr, self.indices, self.data = mat.indptr, mat.indices, mat.data
        self.offsets = system.offsets
        self.diag = system.diag
        self.pair_of = np.arange(B, dtype=np.int64)
        self.alive = np.ones(B, dtype=bool)
        self._layout_changed()

        if x0 is None:
            self.x = np.zeros(system.total)
            self.r = b.copy()  # r = b - S x with x = 0
            self.rnorm = bnorm.copy()
        else:
            self.x = np.asarray(x0, dtype=np.float64).copy()
            if self.x.shape != (system.total,):
                raise ValueError(
                    f"x0 has shape {self.x.shape}, "
                    f"expected ({system.total},)"
                )
            # r = b − S x0 = b − (diag·x0 − W x0), formed here rather
            # than taken from the seeding: a zero-iteration retirement
            # must rest on the true residual of x0.  Zero segments keep
            # the cold r = b exactly (the matvec of zeros is zero).
            self.r = b - (self.diag * self.x - self._offdiag(self.x))
            self.rnorm = system.pair_norms(self.r)
        self.p = self.r / self.diag if precondition else self.r.copy()
        self.rho = system.pair_dots(self.r, self.p)

        # Warm-started pairs whose guess already meets the threshold
        # retire now and freeze like any later retirement; compaction
        # follows the loop's COMPACT_FRACTION rule.
        done0 = self.rnorm <= self.threshold
        if done0.any():
            if stats is not None:
                stats["zero_iter_retired"] = int(done0.sum())
            self._retire(np.flatnonzero(done0), 0, True)
            self._compact_if_sparse()

        self.it = 0

    def _layout_changed(self) -> None:
        """Refresh the cached layout arrays and size the scratch
        buffers (``t``, ``u`` and the SpMV output ``wp``)."""
        self.starts = self.offsets[:-1]
        self.seglen = np.diff(self.offsets)
        S = int(self.offsets[-1])
        self.t = np.empty(S)
        self.u = np.empty(S)
        self.wp = np.empty(S)

    def _offdiag(self, v: np.ndarray) -> np.ndarray:
        """W v over the active layout, into the reused ``wp`` buffer.

        scipy computes ``W @ v`` by running ``csr_matvec`` on a freshly
        zeroed vector, so a zeroed buffer gives the same bits.
        """
        out = self.wp
        out.fill(0.0)
        S = len(out)
        _csr_matvec(S, S, self.indptr, self.indices, self.data, v, out)
        return out

    def _retire(self, local_idx: np.ndarray, iters, ok: bool) -> None:
        """Record the retiring pairs' outcomes and clear their alive
        flags; the masked α and β then freeze their segments."""
        pair = self.pair_of[local_idx]
        self.iters_out[pair] = iters
        self.conv_out[pair] = ok
        self.rnorm_out[pair] = self.rnorm[local_idx]
        self.alive[local_idx] = False

    def _write_back(self, local_idx: np.ndarray) -> None:
        """Copy the solutions of active blocks ``local_idx`` to ``x_out``.

        Until the first compaction the active layout is the input one,
        so the state vector itself becomes the output: its retired
        blocks are final, and the others are written back later.
        """
        if self.x_out is None:
            self.x_out = self.x
            return
        pair = self.pair_of[local_idx]
        src = _concat_ranges(
            self.offsets[local_idx], self.offsets[local_idx + 1]
        )
        dst = _concat_ranges(
            self.out_offsets[pair], self.out_offsets[pair + 1]
        )
        self.x_out[dst] = self.x[src]

    def _compact_if_sparse(self) -> None:
        """Compact once live pairs are down to COMPACT_FRACTION."""
        n_alive = int(self.alive.sum())
        if 0 < n_alive <= COMPACT_FRACTION * len(self.alive):
            self._compact()

    def _compact(self) -> None:
        """Write back the retired blocks' solutions, then drop those
        blocks from the state and the operator.

        Each kept block keeps its row range and its contiguous run of
        entries; only its column indices shift, by the rows dropped
        before it, and its row pointers, by the entries dropped before
        it.  ``rhs`` and ``px`` are not read after setup, so they stay
        behind.
        """
        if self.stats is not None:
            self.stats["compactions"] += 1
        self._write_back(np.flatnonzero(~self.alive))
        keep = np.flatnonzero(self.alive)
        lo, hi = self.offsets[keep], self.offsets[keep + 1]
        rows = _concat_ranges(lo, hi)
        self.x = self.x[rows]
        self.r = self.r[rows]
        self.p = self.p[rows]
        self.diag = self.diag[rows]
        e_lo, e_hi = self.indptr[lo], self.indptr[hi]
        offsets = np.concatenate(([0], np.cumsum(hi - lo)))
        e_off = np.concatenate(([0], np.cumsum(e_hi - e_lo)))
        col_shift = (lo - offsets[:-1]).astype(self.indices.dtype)
        ptr_shift = (e_lo - e_off[:-1]).astype(self.indptr.dtype)
        entries = _concat_ranges(e_lo, e_hi)
        self.data = self.data[entries]
        self.indices = self.indices[entries] - np.repeat(
            col_shift, e_hi - e_lo
        )
        indptr = np.empty(len(rows) + 1, dtype=self.indptr.dtype)
        indptr[:-1] = self.indptr[rows] - np.repeat(ptr_shift, hi - lo)
        indptr[-1] = e_off[-1]
        self.indptr = indptr
        self.offsets = offsets
        self.rho = self.rho[keep]
        self.pair_of = self.pair_of[keep]
        self.rnorm = self.rnorm[keep]
        self.threshold = self.threshold[keep]
        self.caps = self.caps[keep]
        self.alive = np.ones(len(keep), dtype=bool)
        self._layout_changed()

    def _iterate(self) -> None:
        """One CG iteration over the alive layout (the loop body of the
        original one-shot solve, verbatim)."""
        self.it += 1
        it = self.it
        # a = S p (lines 9-10), computed into scratch: u = diag·p − Wp.
        a = self._offdiag(self.p)
        np.multiply(self.diag, self.p, out=self.u)
        self.u -= a
        a = self.u
        np.multiply(self.p, a, out=self.t)
        pa = np.add.reduceat(self.t, self.starts)

        # Breakdown — loss of positive definiteness retires the pair
        # at its pre-update iterate, exactly like the scalar solver.
        broken = self.alive & (pa <= 0)
        if broken.any():
            if self.stats is not None:
                self.stats["breakdowns"] += int(broken.sum())
            self._retire(np.flatnonzero(broken), it - 1, False)
            if not self.alive.any():
                return
            self._compact()
            a = self._offdiag(self.p)
            np.multiply(self.diag, self.p, out=self.u)
            self.u -= a
            a = self.u
            np.multiply(self.p, a, out=self.t)
            pa = np.add.reduceat(self.t, self.starts)

        # Mask the division so retired slots get α = 0: their x and r
        # gain only zeros.
        alpha = np.zeros(len(self.alive))
        np.divide(self.rho, pa, out=alpha, where=self.alive)
        alpha_s = np.repeat(alpha, self.seglen)
        np.multiply(alpha_s, self.p, out=self.t)
        self.x += self.t
        np.multiply(alpha_s, a, out=self.t)
        self.r -= self.t
        np.multiply(self.r, self.r, out=self.t)
        self.rnorm = np.sqrt(np.add.reduceat(self.t, self.starts))

        conv = self.alive & (self.rnorm <= self.threshold)
        if conv.any():
            self._retire(np.flatnonzero(conv), it, True)
        capped = self.alive & (it >= self.caps)
        if capped.any():
            self._retire(np.flatnonzero(capped), self.caps[capped], False)
        if not self.alive.any():
            return
        self._compact_if_sparse()

        if self.precondition:
            z = np.divide(self.r, self.diag, out=self.u)
        else:
            z = self.r
        np.multiply(self.r, z, out=self.t)
        rho_new = np.add.reduceat(self.t, self.starts)
        beta = np.zeros(len(self.alive))
        np.divide(rho_new, self.rho, out=beta, where=self.alive)
        beta_s = np.repeat(beta, self.seglen)
        self.p *= beta_s
        self.p += z
        self.rho = rho_new

    def run(self) -> BatchedSolveResult:
        """Iterate until every pair has retired; the solve's outputs."""
        while self.alive.any():
            self._iterate()
        self._write_back(np.arange(len(self.alive)))
        return BatchedSolveResult(
            x=self.x_out,
            iterations=self.iters_out,
            converged=self.conv_out,
            residual_norms=self.rnorm_out,
        )
