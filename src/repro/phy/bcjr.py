"""Sliding-window max-log BCJR (SW-BCJR) decoder.

The paper's BCJR pipeline (Figure 4) avoids buffering an entire frame by
operating on sliding blocks of reversed data: for every block the backward
path metrics are computed in isolation, seeded by a *provisional* backward
recursion over the following block that starts from an "uncertain" (uniform)
state.  The forward recursion runs continuously across block boundaries.
The per-bit LLR is the difference between the best combined
(alpha + branch + beta) metric over transitions labelled 1 and the best over
transitions labelled 0 -- the max-log approximation of equation 1.

The decoder shares the BMU and PMU kernels with Viterbi and SOVA and, like
them, operates on a batch of packets simultaneously.

Fused implementation
--------------------
The Python reproduction exploits a property the hardware pipeline cannot:
*only the forward (alpha) recursion is sequential across the whole frame*.
Every block's backward work depends only on its own seed, so the sweeps are
stacked along the batch axis and executed together:

* Branch metrics for the whole frame are computed once, in compressed
  form (:meth:`~repro.phy.trellis.BranchMetricUnit.compute_compressed`:
  one value per coded-bit pattern instead of per transition), and shared
  by the forward, provisional-beta and LLR passes, which expand them on
  demand with tiny index-table gathers.
* All provisional beta recursions (one per block, over the *next* block)
  run in parallel as a single ``(batch * (blocks - 1), ...)`` recursion of
  ``block_length`` steps.
* The backward LLR sweep likewise runs over every block at once, and the
  beta update and the LLR combine are fused: each step materialises one
  shared ``branch + beta`` tensor, whose pairwise max advances beta and
  which is stored so that one vectorised ``alpha + shared`` pass at the end
  emits every LLR of the frame.

Peak memory is a few ``(batch, steps, num_states, 2)`` tensors in the
decoder's working precision (about 56 MB for a float64 batch of 32 packets
of 1704 bits, half that in float32); choose the link simulator's
``batch_size`` accordingly.

The recursions run in the precision named by the decoder's
:class:`~repro.phy.dtype.DTypePolicy`: float64 is the exact reference
path, float32 an opt-in fast path whose LLRs may differ in the last bits
(see :mod:`repro.phy.dtype` for the tolerance policy).
"""

import time

import numpy as np

from repro.obs.phases import get_phase_hook
from repro.phy.decoder_base import ConvolutionalDecoder, DecodeResult
from repro.phy.dtype import dtype_policy
from repro.phy.trellis import (
    BranchMetricUnit,
    NEGATIVE_INFINITY_METRIC,
    PathMetricUnit,
    Trellis,
    reshape_soft_input,
)


class BcjrDecoder(ConvolutionalDecoder):
    """Sliding-window max-log BCJR with provisional backward metrics.

    Parameters
    ----------
    trellis:
        Shared trellis; the 802.11 mother code by default.
    block_length:
        Sliding-window block size ``n``.  The paper finds the approximation
        reasonable for ``n >= 32`` and evaluates ``n = 64``.
    dtype:
        Working-precision policy (``None``/``"float64"``/``"float32"`` or a
        :class:`~repro.phy.dtype.DTypePolicy`).
    """

    name = "bcjr"
    produces_soft_output = True
    supports_dtype = True

    def __init__(self, trellis=None, block_length=64, dtype=None):
        if block_length < 1:
            raise ValueError("block length must be positive")
        self.trellis = trellis if trellis is not None else Trellis()
        self.dtype_policy = dtype_policy(dtype)
        self._dtype = self.dtype_policy.float_dtype
        self.block_length = int(block_length)
        self.bmu = BranchMetricUnit(self.trellis)
        self.pmu = PathMetricUnit(self.trellis)
        # Edge-pattern index table in (d, e, j) layout for destination
        # state s = 2j + d and predecessor p = e * num_states/2 + j (see
        # Trellis.next_state): the forward loop splits the ACS by
        # destination bit d, so every add/max in the hot loop runs on
        # contiguous (batch, 2, half) blocks instead of broadcasting over
        # a size-1 trailing axis (which numpy executes an element at a
        # time — measured several times slower than the contiguous
        # spelling).
        half = self.trellis.num_states // 2
        self._edge_code_fwd_d = np.ascontiguousarray(
            self.trellis.edge_code.reshape(half, 2, 2).transpose(1, 2, 0)
        )
        # One-hot expansion of the (state, input) -> pattern table: row r
        # of ``vals @ _pattern_onehot`` is exactly ``vals[r, branch_code]``
        # flattened, because each column holds a single 1.  Each output
        # element is one exact product plus exact zeros, so the BLAS
        # spelling is bit-for-bit the fancy-index gather — but it writes
        # straight into a caller-owned buffer, which lets the backward
        # sweeps run without per-step tensor allocations.
        num_states = self.trellis.num_states
        self._pattern_onehot = np.zeros(
            (1 << self.trellis.n_out, 2 * num_states), dtype=self._dtype
        )
        self._pattern_onehot[
            self.trellis.branch_code.ravel(), np.arange(2 * num_states)
        ] = 1.0

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def _terminal_beta(self, batch):
        """Backward metrics at the end of a terminated packet (state 0)."""
        beta = np.full(
            (batch, self.trellis.num_states), NEGATIVE_INFINITY_METRIC,
            dtype=self._dtype
        )
        beta[:, 0] = 0.0
        return beta

    def _provisional_beta(self, val_windows, pad):
        """Backward recursions over stacked blocks from an uncertain state.

        Parameters
        ----------
        val_windows:
            ``(windows, block_length, batch, 2**n_out)`` compressed branch
            metrics of blocks ``1 .. num_blocks - 1`` -- a view into the
            sweep's frame-wide
            :meth:`~repro.phy.trellis.BranchMetricUnit.compute_compressed`
            tensor rather than per-step BMU calls, so no extra correlation
            pass is needed.  The final window is front-padded by ``pad``
            slots.
        pad:
            Number of padded slots at the head of the final window.  The
            final window's seed is snapshotted when the recursion reaches
            its first real step; the remaining (padded) steps only touch
            the other windows' already-irrelevant tails.

        Returns
        -------
        numpy.ndarray
            ``(windows, batch, num_states)`` provisional beta at each
            block's start -- the seed for the block *preceding* each
            window.
        """
        trellis = self.trellis
        windows, length, batch, num_vals = val_windows.shape
        num_states = trellis.num_states
        half = num_states // 2
        rows = windows * batch
        onehot = self._pattern_onehot
        beta = np.zeros((windows, batch, num_states), dtype=self._dtype)
        beta_sel = beta.reshape(windows, batch, 2, half)
        # All step tensors live in preallocated buffers: the gather runs
        # as a one-hot matmul (bit-identical, see _pattern_onehot) and
        # every add/max writes with ``out=`` — on this memory-bound sweep
        # the per-step ~MB temporaries otherwise dominate the cost.
        vals_step = np.empty((rows, num_vals), dtype=self._dtype)
        shared = np.empty((windows, batch, 2, half, 2), dtype=self._dtype)
        final_seed = None
        for k in range(length - 1, -1, -1):
            np.copyto(vals_step.reshape(windows, batch, num_vals),
                      val_windows[:, k])
            np.matmul(vals_step, onehot,
                      out=shared.reshape(rows, 2 * num_states))
            # beta[next_state[s, e]] = beta[2j + e] for s = a*half + j: the
            # successor gather is a (half, 2) view of beta, broadcast over
            # a; beta is only read before the select overwrites it.
            np.add(shared, beta.reshape(windows, batch, 1, half, 2),
                   out=shared)
            np.maximum(shared[..., 0], shared[..., 1], out=beta_sel)
            if k % 16 == 0:
                np.subtract(beta, beta.max(axis=-1, keepdims=True), out=beta)
            if k == pad:
                final_seed = beta[-1].copy()
        seeds = beta
        seeds[-1] = final_seed
        return seeds

    # ------------------------------------------------------------------ #
    # Decoding
    # ------------------------------------------------------------------ #
    def decode(self, soft, num_data_bits):
        """Decode a 1-D packet or a ``(batch, length)`` batch of packets."""
        soft = reshape_soft_input(soft, self.trellis.n_out, dtype=self._dtype)
        batch, steps, _ = soft.shape
        self._check_length(steps, num_data_bits, self.trellis.code.memory)
        trellis = self.trellis
        pmu = self.pmu
        n = self.block_length
        num_states = trellis.num_states
        half = num_states // 2
        num_blocks = -(-steps // n)
        padded_steps = num_blocks * n
        pad = padded_steps - steps
        last_start = (num_blocks - 1) * n  # first real step of the final block

        # Forward (alpha) recursion -- the only truly sequential part.
        # The compressed branch metrics (2**n_out distinct values per step,
        # time-major so each step's slice is contiguous) are computed once;
        # each step expands them into predecessor-edge layout with one tiny
        # gather, then does a broadcast add and a pairwise max.  Metrics
        # are renormalised every few steps instead of every step: the drift
        # is bounded by 16x the largest branch metric, far inside double
        # precision, and the LLR difference is invariant to the per-row
        # offset.  The store is laid out time-major in padded-window slots
        # ((num_blocks, block_length) per packet) so every write is
        # contiguous and the backward sweep below can view it as stacked
        # blocks without copying; padded slots are never read.
        # Phase hooks time the decoder's three sweeps; they read the
        # clock only, so traced and untraced decodes are bit-identical.
        hook = get_phase_hook()
        if hook is not None:
            phase_ts = time.time()
            phase_t0 = time.perf_counter()
        vals = self.bmu.compute_compressed(soft, time_major=True,
                                           dtype=self._dtype)
        edge_code_fwd_d = self._edge_code_fwd_d
        alpha_store = np.empty((padded_steps, batch, num_states),
                               dtype=self._dtype)
        alpha = np.empty((batch, num_states), dtype=self._dtype)
        alpha[:] = pmu.initial_metrics(
            batch, known_start=True, dtype=self._dtype)
        # State-order views of the same buffer: predecessor p = e*half + j
        # and destination s = 2j + d are both pure reinterpretations of
        # the flat metric row (see Trellis.next_state).
        alpha_pred = alpha.reshape(batch, 2, half)   # [b, e, j]
        alpha_dest = alpha.reshape(batch, half, 2)   # [b, j, d]
        # The ~1700-step loop is dispatch-bound, so everything that can
        # leave it does: the branch-value expansion through the edge index
        # table runs as one chunked gather (bounding the expanded tensor to
        # a few MB instead of the whole frame), and the ACS is split by
        # destination bit d so every add and max runs over a contiguous
        # (batch, 2, half) block — no size-1 broadcast axis, which numpy
        # executes an element at a time.  Below ~16 packets the step
        # tensors are so small that the call count itself dominates, and
        # a two-call spelling (one broadcast add, one max writing through
        # a transposed view) measures faster despite its strided output;
        # past that the contiguous four-call spelling wins on bandwidth.
        # Each output metric is, either way, the max of the same two
        # (alpha + branch) sums as the scalar spelling, so the results
        # stay bit-for-bit identical.
        narrow = batch <= 16
        if narrow:
            candidates = np.empty((batch, 2, 2, half), dtype=self._dtype)
            alpha_dest_t = alpha_dest.transpose(0, 2, 1)  # [b, d, j]
        else:
            candidates = np.empty((2, batch, 2, half), dtype=self._dtype)
        gather_chunk = 128
        offset = 0
        for first in range(0, steps, gather_chunk):
            # (chunk, batch, 2(d), 2(e), half)
            expanded = vals[first:first + gather_chunk][:, :, edge_code_fwd_d]
            for i in range(expanded.shape[0]):
                k = first + i
                if k == last_start:
                    offset = pad
                alpha_store[k + offset] = alpha
                step_vals = expanded[i]
                if narrow:
                    np.add(alpha_pred[:, None], step_vals, out=candidates)
                    np.maximum(candidates[..., 0, :], candidates[..., 1, :],
                               out=alpha_dest_t)
                else:
                    np.add(alpha_pred, step_vals[:, 0], out=candidates[0])
                    np.add(alpha_pred, step_vals[:, 1], out=candidates[1])
                    np.maximum(candidates[0, :, 0], candidates[0, :, 1],
                               out=alpha_dest[:, :, 0])
                    np.maximum(candidates[1, :, 0], candidates[1, :, 1],
                               out=alpha_dest[:, :, 1])
                if k % 16 == 15:
                    alpha[:] = pmu.normalize(alpha)
        if pad:
            # Slots [last_start, last_start + pad) hold the final block's
            # front padding; zero them so the sweep's discarded LLR lanes
            # read defined values instead of np.empty garbage.
            alpha_store[last_start : last_start + pad] = 0.0
        if hook is not None:
            hook("bcjr.forward", phase_ts, time.perf_counter() - phase_t0,
                 {"packets": batch})
            phase_ts = time.time()
            phase_t0 = time.perf_counter()

        # The same compressed metrics in sweep layout: the final block is
        # front-padded to a full window with zero (no-information) values,
        # so only junk (discarded below) is emitted in the padded slots.
        if pad:
            val_windows = np.zeros(
                (padded_steps,) + vals.shape[1:], dtype=self._dtype
            )
            val_windows[:last_start] = vals[:last_start]
            val_windows[last_start + pad:] = vals[last_start:]
        else:
            val_windows = vals
        val_windows = val_windows.reshape(num_blocks, n, batch, -1)

        # Beta seed of every block: the final block is anchored by the
        # termination tail; block i < last is seeded by a provisional
        # recursion over block i+1.  All provisional recursions run at
        # once, stacked along the leading window axis, reusing views of
        # the sweep's compressed metrics.
        seeds = np.empty((num_blocks, batch, num_states), dtype=self._dtype)
        seeds[-1] = self._terminal_beta(batch)
        if num_blocks > 1:
            seeds[:-1] = self._provisional_beta(val_windows[1:], pad)
        if hook is not None:
            hook("bcjr.seed", phase_ts, time.perf_counter() - phase_t0,
                 {"packets": batch})
            phase_ts = time.time()
            phase_t0 = time.perf_counter()

        # Fused backward sweep over every block at once.  Each step forms
        # one shared (branch + beta) tensor that serves both consumers:
        # its pairwise max over edges is the beta update, and its
        # combination with the stored alphas emits the step's LLRs -- one
        # tensor, one pass, instead of an LLR pass plus a separate
        # backward-metric pass.  The state axis is viewed as (2, half) so
        # the successor gather and the per-label maxes run on contiguous
        # data (see Trellis.next_state).
        alpha_blocks = alpha_store.reshape(num_blocks, n, batch, num_states)
        llr_blocks = np.empty((num_blocks, n, batch), dtype=self._dtype)
        beta = seeds
        beta_sel = beta.reshape(num_blocks, batch, 2, half)
        # Preallocated step buffers, as in _provisional_beta: the one-hot
        # matmul gather and the ``out=`` adds/maxes keep this memory-bound
        # sweep free of per-step ~MB temporaries while producing the same
        # max of the same (alpha + branch + successor-beta) sums.
        rows = num_blocks * batch
        num_vals = val_windows.shape[-1]
        onehot = self._pattern_onehot
        vals_step = np.empty((rows, num_vals), dtype=self._dtype)
        shared = np.empty((num_blocks, batch, 2, half, 2), dtype=self._dtype)
        combined = np.empty((num_blocks, batch, 2, half), dtype=self._dtype)
        best_one = np.empty((num_blocks, batch), dtype=self._dtype)
        best_zero = np.empty_like(best_one)
        for k in range(n - 1, -1, -1):
            np.copyto(vals_step.reshape(num_blocks, batch, num_vals),
                      val_windows[:, k])
            np.matmul(vals_step, onehot,
                      out=shared.reshape(rows, 2 * num_states))
            np.add(shared, beta.reshape(num_blocks, batch, 1, half, 2),
                   out=shared)
            alpha_k = alpha_blocks[:, k].reshape(num_blocks, batch, 2, half)
            np.add(alpha_k, shared[..., 1], out=combined)
            combined.reshape(num_blocks, batch, num_states).max(
                axis=2, out=best_one)
            np.add(alpha_k, shared[..., 0], out=combined)
            combined.reshape(num_blocks, batch, num_states).max(
                axis=2, out=best_zero)
            np.subtract(best_one, best_zero, out=llr_blocks[:, k])
            np.maximum(shared[..., 0], shared[..., 1], out=beta_sel)
            if k % 16 == 0:
                np.subtract(beta, beta.max(axis=2, keepdims=True), out=beta)

        # Unstack the blocks and drop the padded slots of the final block.
        llr_padded = llr_blocks.reshape(padded_steps, batch).T
        if pad:
            llr = np.concatenate(
                [llr_padded[:, :last_start], llr_padded[:, last_start + pad:]],
                axis=1,
            )
        else:
            llr = np.ascontiguousarray(llr_padded)

        if hook is not None:
            hook("bcjr.backward", phase_ts, time.perf_counter() - phase_t0,
                 {"packets": batch})

        bits = (llr > 0).astype(np.uint8)
        bits, llr = bits[:, :num_data_bits], llr[:, :num_data_bits]
        return DecodeResult(bits=bits, llr=llr)
