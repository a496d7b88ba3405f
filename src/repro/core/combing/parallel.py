"""Machine-parameterized parallel combing (paper Listings 4, 6, 7).

Every function takes a :class:`repro.parallel.api.Machine`; results are
bit-identical to the sequential algorithms, while the machine accounts
the parallel cost (see :mod:`repro.parallel` for the available machines
and why the simulator is the default for thread-scaling figures).

- :func:`parallel_iterative_combing` — Listing 4: anti-diagonal
  wavefront; each anti-diagonal runs as one uniform round (one barrier
  per anti-diagonal).
- :func:`parallel_load_balanced_combing` — the Fig. 2 variant: phases 1
  and 3 are combed concurrently with matched anti-diagonals so every
  round processes exactly ``m`` cells, then the three phase braids are
  recombined by braid multiplication.
- :func:`parallel_hybrid_combing_grid` — Listing 7: one round combs all
  sub-blocks, then each level of
  :func:`~repro.core.combing.hybrid.plan_grid_reduction` is one round.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ...alphabet import encode
from ...obs import get_metrics, get_tracer
from ...obs import phase as _obs_phase
from ...parallel.transport import (
    machine_broadcast,
    machine_localize,
    machine_release,
    run_array_round,
)
from ...types import PermArray, Sequenceish
from ..compose import flip_kernel
from .hybrid import (
    _leaf,
    _split_lengths,
    optimal_split,
    plan_grid_reduction,
    run_grid_levels,
)
from .iterative import (
    _UNSIGNED_LIMIT_16,
    _antidiag_ranges,
    _comb_region_simd,
    _extract_kernel,
    antidiag_scratch,
    cut_positions,
    strand_dtype,
)


# -- picklable grid tasks (shipped to worker processes by spec) -------------


def _compact_perm(perm: np.ndarray, compact: bool) -> np.ndarray:
    """Downcast a kernel to ``uint16`` for the trip home when its values
    fit; consumers upcast on entry and the final result is restored to
    ``int64``."""
    if compact and perm.size <= _UNSIGNED_LIMIT_16:
        return perm.astype(np.uint16)
    return perm


def _grid_leaf(ca_blk, cb_blk, blend, use_16bit, compact):
    return _compact_perm(_leaf(ca_blk, cb_blk, blend, use_16bit), compact)


def _grid_compose(op, p, q, multiply, compact):
    return _compact_perm(op.compose(p, q, multiply), compact)


def _make_diag_thunk(a_rev, cb, h_strands, v_strands, diag, blend, scratch):
    """Comb the cells of one anti-diagonal ``diag = (length, h_lo, v_lo)``
    in place. *scratch* belongs to these strands alone: one round may run
    thunks of different strand states at once on a thread machine."""

    def thunk():
        _comb_region_simd(a_rev, cb, h_strands, v_strands, (diag,), blend, scratch=scratch)

    return thunk


def parallel_iterative_combing(
    a: Sequenceish,
    b: Sequenceish,
    machine,
    *,
    blend: str = "arith",
    use_16bit: bool = False,
) -> PermArray:
    """Listing 4: wavefront combing, one synchronized round per
    anti-diagonal.

    The cells of an anti-diagonal are identical-cost independent items,
    so each round is submitted as a *uniform round* (one vectorized batch
    whose cost the machine divides across its workers); see
    :meth:`repro.parallel.api.Machine.run_uniform_round`.

    ``use_16bit`` stores strand labels as ``uint16`` whenever
    ``m + n <= 2^16``; the kernel returned is ``int64`` either way.
    """
    ca, cb = encode(a), encode(b)
    if ca.size > cb.size:
        return flip_kernel(
            parallel_iterative_combing(cb, ca, machine, blend=blend, use_16bit=use_16bit)
        )
    m, n = ca.size, cb.size
    if m == 0 or n == 0:
        return np.arange(m + n, dtype=np.int64)
    # one top-level span + a single counter bump for the whole wavefront:
    # the per-round instrumentation would be far too hot (see the
    # repro.obs performance contract)
    get_metrics().inc("combing.wavefront_rounds", m + n - 1)
    with _obs_phase("combing"), get_tracer().span(
        "combing.wavefront", args={"m": m, "n": n}
    ):
        a_rev = np.ascontiguousarray(ca[::-1])
        dt = strand_dtype(m, n, use_16bit)
        h_strands = np.arange(m, dtype=dt)
        v_strands = np.arange(m, m + n, dtype=dt)
        scratch = antidiag_scratch(h_strands, m)
        for diag in _antidiag_ranges(m, n):
            thunk = _make_diag_thunk(a_rev, cb, h_strands, v_strands, diag, blend, scratch)
            machine.run_uniform_round([(thunk, diag[0])])
        return _extract_kernel(h_strands, v_strands)


def parallel_load_balanced_combing(
    a: Sequenceish,
    b: Sequenceish,
    machine,
    *,
    blend: str = "arith",
    multiply=None,
    use_16bit: bool = False,
) -> PermArray:
    """Fig. 2: phases 1 and 3 combed concurrently with balanced rounds.

    Round ``k`` pairs anti-diagonal ``k`` of the growing phase with
    anti-diagonal ``k`` of the shrinking phase (total exactly ``m`` cells)
    and splits the union into ``workers`` chunks; the middle phase runs
    its full-length anti-diagonals as ordinary rounds. The three phase
    braids are then composed by braid multiplication (serial sections).

    ``use_16bit`` stores the phase strand states as ``uint16`` whenever
    ``m + n <= 2^16``; the kernel returned is ``int64`` either way.
    """
    ca, cb = encode(a), encode(b)
    if ca.size > cb.size:
        return flip_kernel(
            parallel_load_balanced_combing(
                cb, ca, machine, blend=blend, multiply=multiply, use_16bit=use_16bit
            )
        )
    m, n = ca.size, cb.size
    if m == 0 or n == 0:
        return np.arange(m + n, dtype=np.int64)
    if multiply is None:
        from ..steady_ant import steady_ant_multiply as multiply
    with _obs_phase("combing"), get_tracer().span(
        "combing.load_balanced", args={"m": m, "n": n}
    ):
        return _parallel_load_balanced_impl(
            ca, cb, machine, m, n, blend, multiply, use_16bit
        )


def _parallel_load_balanced_impl(ca, cb, machine, m, n, blend, multiply, use_16bit):
    a_rev = np.ascontiguousarray(ca[::-1])
    dt = strand_dtype(m, n, use_16bit)

    cuts = [0, max(0, m - 1), n, m + n - 1]

    # phase 1, 2 and 3 strand states (independent sub-braids, labelled by
    # entry-cut positions: see _region_braid_positions), each with its
    # own kernel scratch
    states = {}
    for phase, (d_lo, d_hi) in enumerate(zip(cuts, cuts[1:]), start=1):
        h_in, v_in = cut_positions(d_lo, m, n)
        h_in = h_in.astype(dt)
        states[phase] = (h_in, v_in.astype(dt), d_lo, d_hi, antidiag_scratch(h_in, m))

    def phase_task(phase, d):
        h_strands, v_strands, d_lo, d_hi, scratch = states[phase]
        if not (d_lo <= d < d_hi):
            return None
        (diag,) = _antidiag_ranges(m, n, d, d + 1)
        thunk = _make_diag_thunk(a_rev, cb, h_strands, v_strands, diag, blend, scratch)
        return thunk, diag[0]

    # joint rounds for phases 1 and 3 (balanced: the k-th growing and the
    # k-th shrinking anti-diagonal together process exactly m cells)
    p1_len = cuts[1] - cuts[0]
    p3_len = cuts[3] - cuts[2]
    for k in range(max(p1_len, p3_len)):
        tasks = []
        if k < p1_len:
            tasks.append(phase_task(1, cuts[0] + k))
        if k < p3_len:
            tasks.append(phase_task(3, cuts[2] + k))
        tasks = [t for t in tasks if t is not None]
        if tasks:
            machine.run_uniform_round(tasks)
    # middle phase: full-length anti-diagonals
    for d in range(cuts[1], cuts[2]):
        task = phase_task(2, d)
        if task is not None:
            machine.run_uniform_round([task])

    # convert each phase state to cut coordinates and compose
    braids = []
    for phase, (d_lo, d_hi) in enumerate(zip(cuts, cuts[1:]), start=1):
        if d_hi <= d_lo:
            continue
        h_strands, v_strands = states[phase][:2]
        h_out, v_out = cut_positions(d_hi, m, n)
        perm = np.empty(m + n, dtype=np.int64)
        perm[h_strands] = h_out
        perm[v_strands] = v_out
        braids.append(perm)
    result = braids[0]
    for nxt in braids[1:]:
        result = machine.run_serial(lambda r=result, x=nxt: multiply(r, x))
    return result


def parallel_hybrid_combing_grid(
    a: Sequenceish,
    b: Sequenceish,
    machine,
    *,
    n_tasks: int | None = None,
    blend: str = "arith",
    use_16bit: bool = True,
    multiply=None,
    strand_limit: int | None = None,
    checkpoint=None,
) -> PermArray:
    """Listing 7 with explicit parallel rounds.

    Round 0 combs all ``m_outer x n_outer`` sub-blocks; each level of
    :func:`~repro.core.combing.hybrid.plan_grid_reduction` (always along
    the blocks' longest side) is then one further round, so a run takes
    exactly ``1 + len(levels)`` machine rounds. ``n_tasks`` defaults to
    ``2 * machine.workers`` so the dynamic schedule has slack to balance.

    Braid multiplications default to the level-vectorized steady ant
    (:func:`~repro.core.steady_ant.vectorized.steady_ant_vectorized`);
    pass ``multiply=steady_ant_multiply`` for the scalar recursion (the
    kernel is bit-identical either way).

    Tasks ship as pure ``(fn, args, kwargs)`` specs: process machines
    run them in workers (the input sequences broadcast once as
    shared-memory segments, results travelling back as handles), and
    in-process machines run the identical partials locally.

    ``checkpoint`` (a :class:`~repro.checkpoint.grid.GridCheckpointer`)
    makes the run durable: each leaf/compose task persists its kernel
    from inside the task the moment it finishes, resumed runs load
    completed nodes from disk, and — because the submitted tasks expose
    ``recover()`` — a :class:`~repro.parallel.resilient.ResilientMachine`
    recovering a failed round re-reads the on-disk ledger instead of
    recomputing. A :class:`~repro.checkpoint.grid.CheckpointedThunk`
    cannot ship to a worker process, so checkpointed rounds run as
    thunks on the same level schedule.

    Observability: wrapped in the ``combing`` phase and a
    ``combing.grid`` span; when tracing (or remote metric collection) is
    active on a :class:`~repro.parallel.processes.ProcessMachine`, the
    worker-side leaf/compose spans and counters ship back with each
    round and re-parent under this call's round spans.
    """
    with _obs_phase("combing"), get_tracer().span(
        "combing.grid", args={"n_tasks": n_tasks or 0}
    ):
        return _parallel_hybrid_grid_impl(
            a, b, machine,
            n_tasks=n_tasks, blend=blend, use_16bit=use_16bit,
            multiply=multiply, strand_limit=strand_limit, checkpoint=checkpoint,
        )


def _parallel_hybrid_grid_impl(
    a: Sequenceish,
    b: Sequenceish,
    machine,
    *,
    n_tasks: int | None,
    blend: str,
    use_16bit: bool,
    multiply,
    strand_limit: int | None,
    checkpoint,
) -> PermArray:
    ca, cb = encode(a), encode(b)
    m, n = ca.size, cb.size
    if m == 0 or n == 0:
        return np.arange(m + n, dtype=np.int64)
    if multiply is None:
        from ..steady_ant import steady_ant_vectorized as multiply
    if n_tasks is None:
        n_tasks = max(1, 2 * machine.workers)

    m_outer, n_outer = optimal_split(m, n, n_tasks, strand_limit=strand_limit)
    a_lens = _split_lengths(m, m_outer)
    b_lens = _split_lengths(n, n_outer)
    plan = plan_grid_reduction(m, n, a_lens, b_lens)
    n_outer = len(b_lens)
    n_leaves = len(a_lens) * n_outer

    if checkpoint is not None:
        finished = checkpoint.begin(ca, cb, a_lens, b_lens)
        if finished is not None:
            return finished

    get_metrics().inc("combing.grid_leaves", n_leaves)
    spans = plan[1]
    if checkpoint is not None:
        run_leaves, run_level = _checkpointed_rounds(
            ca, cb, machine, spans, n_outer, blend, use_16bit, multiply, checkpoint
        )
        result = run_grid_levels(plan, n_leaves, run_leaves, run_level)
        result = np.asarray(result, dtype=np.int64)
        checkpoint.finish(ca, cb, result)
        return result
    run_leaves, run_level = _spec_rounds(ca, cb, machine, spans, blend, use_16bit, multiply)
    result = run_grid_levels(plan, n_leaves, run_leaves, run_level)
    local = machine_localize(machine, result)
    machine_release(machine, result)
    return np.asarray(local, dtype=np.int64)


def _spec_rounds(ca, cb, machine, spans, blend, use_16bit, multiply):
    """Round runners that ship grid tasks as picklable specs. Each
    round's inputs are released as soon as the round that read them
    drains."""
    compact = bool(use_16bit)
    bca, bcb = machine_broadcast(machine, ca, cb)

    def run_leaves(nodes):
        specs = []
        for node in nodes:
            a_lo, a_hi, b_lo, b_hi = spans[node]
            args = (bca[a_lo:a_hi], bcb[b_lo:b_hi], blend, use_16bit, compact)
            specs.append((_grid_leaf, args, {}))
        outs = run_array_round(machine, specs)
        machine_release(machine, bca, bcb)  # only leaves read the inputs
        return outs

    def run_level(level, ops, inputs):
        outs = run_array_round(machine, [
            (_grid_compose, (op, left, right, multiply, compact), {})
            for op, (left, right) in zip(ops, inputs)
        ])
        machine_release(machine, *(k for pair in inputs for k in pair))
        return outs

    return run_leaves, run_level


def _checkpointed_rounds(ca, cb, machine, spans, n_outer, blend, use_16bit,
                         multiply, checkpoint):
    """Round runners whose tasks are durable thunks; the journal records
    each round's nodes once the round drains."""

    def slices(node):
        a_lo, a_hi, b_lo, b_hi = spans[node]
        return ca[a_lo:a_hi], cb[b_lo:b_hi]

    def run_leaves(nodes):
        thunks = []
        for node in nodes:
            ca_blk, cb_blk = slices(node)
            compute = partial(_leaf, ca_blk, cb_blk, blend, use_16bit)
            thunks.append(checkpoint.leaf_thunk(ca_blk, cb_blk, compute))
        outs = machine.run_round(thunks)
        for node, thunk in zip(nodes, thunks):
            checkpoint.record_leaf(*divmod(node, n_outer), thunk.key)
        return outs

    def run_level(level, ops, inputs):
        thunks = []
        for op, (left, right) in zip(ops, inputs):
            compute = partial(op.compose, left, right, multiply)
            thunks.append(checkpoint.compose_thunk(*slices(op.out), compute) or compute)
        outs = machine.run_round(thunks)
        for index, thunk in enumerate(thunks):
            if hasattr(thunk, "key"):  # persisted (above the size threshold)
                checkpoint.record_compose(level, index, thunk.key)
        return outs

    return run_leaves, run_level
