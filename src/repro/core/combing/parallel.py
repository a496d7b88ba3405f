"""Machine-parameterized parallel combing (paper Listings 4, 6, 7).

Every function takes a :class:`repro.parallel.api.Machine`; results are
bit-identical to the sequential algorithms, while the machine accounts
the parallel cost (see :mod:`repro.parallel` for the available machines
and why the simulator is the default for thread-scaling figures).

- :func:`parallel_iterative_combing` — Listing 4: anti-diagonal
  wavefront; each anti-diagonal runs as one round whose task carries its
  cell count as ``items`` (one barrier per anti-diagonal).
- :func:`parallel_load_balanced_combing` — the Fig. 2 variant: phases 1
  and 3 are combed concurrently with matched anti-diagonals so every
  round processes exactly ``m`` cells, then the three phase braids are
  recombined by braid multiplication, one one-task round each.
- :func:`parallel_hybrid_combing_grid` — Listing 7, and its only
  implementation: one round combs all sub-blocks, then each level of
  :func:`~repro.core.combing.hybrid.plan_grid_reduction` is one round.
  A serial machine is one more schedule of it
  (:func:`~repro.core.combing.hybrid.hybrid_combing_grid`).

The two wavefront combers update their strand arrays in place, so they
need a machine whose tasks run in this process; on a process pool
(``machine.remote_tasks``) they raise
:class:`~repro.errors.BackendError` before their first round.
"""

from __future__ import annotations

import numpy as np

from ...alphabet import encode
from ...errors import BackendError
from ...obs import get_metrics, get_tracer
from ...obs import phase as _obs_phase
from ...types import PermArray, Sequenceish
from ..compose import flip_kernel
from ..steady_ant import steady_ant_vectorized
from .hybrid import _split_lengths, optimal_split, plan_grid_reduction
from .iterative import (
    _UNSIGNED_LIMIT_16,
    _antidiag_ranges,
    _comb_region_simd,
    _extract_kernel,
    antidiag_scratch,
    cut_positions,
    iterative_combing_antidiag_simd,
    strand_dtype,
)


# -- picklable grid tasks (shipped to worker processes by spec) -------------


def _compact_perm(perm: np.ndarray) -> np.ndarray:
    """Downcast a kernel to ``uint16`` for the trip home when its values
    fit; consumers upcast on entry and the final result is restored to
    ``int64``."""
    if perm.size <= _UNSIGNED_LIMIT_16:
        return perm.astype(np.uint16)
    return perm


def _grid_leaf(ca_blk, cb_blk):
    return _compact_perm(iterative_combing_antidiag_simd(ca_blk, cb_blk))


def _grid_compose(op, p, q):
    return _compact_perm(op.compose(p, q, steady_ant_vectorized))


def _diag_spec(a_rev, cb, h_strands, v_strands, diag, blend, scratch):
    """The task combing the cells of one anti-diagonal ``diag = (length,
    h_lo, v_lo)`` in place. *scratch* belongs to these strands alone: one
    round may run tasks of different strand states at once on a thread
    machine."""
    return (
        _comb_region_simd,
        (a_rev, cb, h_strands, v_strands, (diag,), blend),
        {"scratch": scratch},
    )


def _require_local_tasks(machine, name: str) -> None:
    """Refuse a machine whose tasks cannot update this process's arrays."""
    if machine.remote_tasks:
        raise BackendError(
            f"{name} combs its strand arrays in place, so it needs a machine "
            "whose tasks run in this process (serial, simulated or threads); "
            "parallel_hybrid_combing_grid runs on a process pool"
        )


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
    so each round is one vectorized task with the cell count as its
    ``items`` (the simulator divides its cost across the workers; see
    :meth:`repro.parallel.simulator.SimulatedMachine.run_round`).

    ``use_16bit`` stores strand labels as ``uint16`` whenever
    ``m + n <= 2^16``; the kernel returned is ``int64`` either way.
    Raises :class:`~repro.errors.BackendError` on a machine with
    ``remote_tasks``.
    """
    _require_local_tasks(machine, "parallel_iterative_combing")
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
            spec = _diag_spec(a_rev, cb, h_strands, v_strands, diag, blend, scratch)
            machine.run_round([spec], items=[diag[0]])
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
    braids are then composed by braid multiplication (one-task rounds:
    sequential sections).

    ``use_16bit`` stores the phase strand states as ``uint16`` whenever
    ``m + n <= 2^16``; the kernel returned is ``int64`` either way.
    Raises :class:`~repro.errors.BackendError` on a machine with
    ``remote_tasks``.
    """
    _require_local_tasks(machine, "parallel_load_balanced_combing")
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
        """``(spec, cells)`` of anti-diagonal *d* of *phase*, or ``None``."""
        h_strands, v_strands, d_lo, d_hi, scratch = states[phase]
        if not (d_lo <= d < d_hi):
            return None
        (diag,) = _antidiag_ranges(m, n, d, d + 1)
        return _diag_spec(a_rev, cb, h_strands, v_strands, diag, blend, scratch), diag[0]

    def run(tasks):
        tasks = [t for t in tasks if t is not None]
        if tasks:
            machine.run_round([spec for spec, _ in tasks], items=[c for _, c in tasks])

    # joint rounds for phases 1 and 3 (balanced: the k-th growing and the
    # k-th shrinking anti-diagonal together process exactly m cells)
    p1_len = cuts[1] - cuts[0]
    p3_len = cuts[3] - cuts[2]
    for k in range(max(p1_len, p3_len)):
        run([
            phase_task(1, cuts[0] + k) if k < p1_len else None,
            phase_task(3, cuts[2] + k) if k < p3_len else None,
        ])
    # middle phase: full-length anti-diagonals
    for d in range(cuts[1], cuts[2]):
        run([phase_task(2, d)])

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
        (result,) = machine.run_round([(multiply, (result, nxt), {})])
    return result


def parallel_hybrid_combing_grid(
    a: Sequenceish,
    b: Sequenceish,
    machine,
    *,
    n_tasks: int | None = None,
    reduction: str = "longest-side",
    checkpoint=None,
) -> PermArray:
    """Listing 7 with explicit parallel rounds.

    Round 0 combs all ``m_outer x n_outer`` sub-blocks with
    :func:`~repro.core.combing.iterative.iterative_combing_antidiag_simd`;
    each level of :func:`~repro.core.combing.hybrid.plan_grid_reduction`
    is then one further round of compositions, so a run takes exactly
    ``1 + len(levels)`` machine rounds. ``reduction`` picks the plan's
    compose-order heuristic (ablated in
    ``benchmarks/bench_ext_ablations.py``); every order gives the same
    kernel. ``n_tasks`` defaults to ``machine.workers``: one leaf per
    worker. With workers of equal speed, doubling the leaves leaves no
    worker fewer cells to comb in round 0, and it adds a compose level,
    whose multiplications lie on the critical path (on two workers, 2
    leaves and 1 compose in 2 rounds instead of 4 leaves and 3 composes
    in 3).

    Braid multiplications run on the level-vectorized steady ant
    (:func:`~repro.core.steady_ant.vectorized.steady_ant_vectorized`).
    Kernels travel between rounds as ``uint16`` whenever their values
    fit; the kernel returned is ``int64``.

    Tasks ship as pure ``(fn, args, kwargs)`` specs: process machines
    run them in workers (the input sequences broadcast once as
    shared-memory segments, results travelling back as handles), and
    in-process machines run the identical partials locally.

    ``checkpoint`` (a :class:`~repro.checkpoint.grid.GridCheckpointer`)
    makes the run durable through the same rounds: each leaf/compose
    spec is wrapped by :meth:`~repro.checkpoint.grid.GridCheckpointer.node`
    so the task returns its stored kernel or persists the one it
    computes, and a round's persisted nodes are journalled once it
    drains. Resumed runs load completed nodes from disk, and a task a
    :class:`~repro.parallel.resilient.ResilientMachine` retries after it
    committed reads its kernel back instead of recomputing it.

    Observability: wrapped in the ``combing`` phase and a
    ``combing.grid`` span that records the resolved ``n_tasks`` and the
    grid shape ``m_outer x n_outer``; sub-block combings count in
    ``combing.grid_leaves`` and compositions in ``combing.grid_composes``
    (via :func:`repro.core.compose.compose_vertical`). When tracing (or
    remote metric collection) is active on a
    :class:`~repro.parallel.processes.ProcessMachine`, the worker-side
    leaf/compose spans and counters ship back with each round and
    re-parent under this call's round spans.
    """
    ca, cb = encode(a), encode(b)
    m, n = ca.size, cb.size
    if n_tasks is None:
        n_tasks = max(1, machine.workers)
    m_outer, n_outer = optimal_split(m, n, n_tasks)
    a_lens = _split_lengths(m, m_outer)
    b_lens = _split_lengths(n, n_outer)
    with _obs_phase("combing"), get_tracer().span(
        "combing.grid",
        args={"n_tasks": n_tasks, "m_outer": len(a_lens), "n_outer": len(b_lens)},
    ):
        if m == 0 or n == 0:
            return np.arange(m + n, dtype=np.int64)
        levels, spans, root = plan_grid_reduction(m, n, a_lens, b_lens, reduction=reduction)
        if checkpoint is not None:
            finished = checkpoint.begin(ca, cb, a_lens, b_lens)
            if finished is not None:
                return finished
        n_leaves = len(a_lens) * len(b_lens)
        get_metrics().inc("combing.grid_leaves", n_leaves)
        kernels = {}
        try:
            bca, bcb = machine.broadcast(ca, cb)
            # round 0 combs the leaves; round k composes plan level k
            for level in range(len(levels) + 1):
                if level == 0:
                    nodes = range(n_leaves)
                    tasks = [
                        (_grid_leaf, (bca[a_lo:a_hi], bcb[b_lo:b_hi]))
                        for a_lo, a_hi, b_lo, b_hi in (spans[node] for node in nodes)
                    ]
                    inputs = [bca, bcb]
                else:
                    ops = levels[level - 1]
                    nodes = [op.out for op in ops]
                    pairs = [(kernels.pop(op.left), kernels.pop(op.right)) for op in ops]
                    tasks = [(_grid_compose, (op, *pair)) for op, pair in zip(ops, pairs)]
                    inputs = [k for pair in pairs for k in pair]
                specs, keys = [], []
                for node, (fn, args) in zip(nodes, tasks):
                    key = None
                    if checkpoint is not None:
                        a_lo, a_hi, b_lo, b_hi = spans[node]
                        fn, args, key = checkpoint.node(
                            fn, args, ca[a_lo:a_hi], cb[b_lo:b_hi], leaf=level == 0
                        )
                    specs.append((fn, args, {}))
                    keys.append(key)
                kernels.update(zip(nodes, machine.run_round(specs)))
                machine.release_arrays(inputs)  # only this round reads them
                for index, key in enumerate(keys):
                    if key is not None:
                        checkpoint.record(level, index, key)
            if checkpoint is not None:
                checkpoint.finish()
        finally:
            if checkpoint is not None:
                checkpoint.close()  # on every exit; only finish() records done
        result = kernels[root]
        local = machine.localize(result)
        machine.release_arrays([result])
        return np.asarray(local, dtype=np.int64)
