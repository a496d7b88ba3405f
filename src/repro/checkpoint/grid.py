"""Checkpointing for grid combing (paper Listing 7).

:class:`GridCheckpointer` is the object that
:func:`repro.core.combing.parallel.parallel_hybrid_combing_grid`, the
one Listing 7 grid, accepts via its ``checkpoint=`` parameter (as does
its serial-machine wrapper
:func:`repro.core.combing.hybrid.hybrid_combing_grid`). It
content-addresses every grid node — leaves, the root *and* reduction-tree composes above a size
threshold — by the slices of ``a`` and ``b`` the node covers, so:

- a node persists itself from inside its own task:
  :meth:`GridCheckpointer.node` wraps the node's ``(fn, args)`` spec in
  :func:`run_node`, which returns the verified stored kernel or computes
  the kernel and persists it. The wrapped spec pickles, so a process
  pool ships it like any other spec, and a retried task reads what its
  first attempt committed instead of recomputing it;
- a resumed run recomputes keys from its inputs and hits the store for
  every node a previous (crashed) process completed, in any order —
  resume needs no coordination beyond the filesystem;
- corrupt artifacts are discarded and recomputed
  (:meth:`KernelStore.get_or_compute`), never trusted.

``resume=False`` gives fresh-run semantics: :meth:`GridCheckpointer.node`
discards each node's old artifact before the node's task is submitted,
so the run reads only artifacts it wrote itself, and every persisted
node is computed and written again.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

import numpy as np

from ..errors import CheckpointCorruptionError
from ..types import PermArray
from .journal import RunJournal, make_header
from .store import STORE_VERSION, KernelStore

#: Grid algorithm label used in artifact keys (the paper §5 name of
#: Listing 7).
GRID_ALGORITHM = "semi_hybrid_iterative"

#: Composes whose kernel order (m + n of the merged node) is below this
#: are cheaper to recompute than to persist.
DEFAULT_COMPOSE_MIN_ORDER = 512


def run_node(
    store: KernelStore, key: str, algorithm: str, m: int, n: int,
    fn: Callable[..., PermArray], *args,
) -> PermArray:
    """A checkpointed grid task: the verified kernel stored under *key*,
    else ``fn(*args)``, persisted under *key* before it is returned.

    Module-level, so it pickles as a spec; the arrays in *args* stay
    top-level arguments that a transport can ship as handles."""
    return store.get_or_compute(key, partial(fn, *args), algorithm=algorithm, m=m, n=n)


class GridCheckpointer:
    """Durable checkpointing policy for one grid-combing computation.

    Thread-safe for the in-process parallel machines: store writes are
    atomic renames and journal appends are lock-protected; the grid
    records a round's journal entries (:meth:`record`) from the
    coordinating thread once the round drains.
    """

    def __init__(
        self,
        store: KernelStore,
        *,
        resume: bool = True,
        compose_min_order: int = DEFAULT_COMPOSE_MIN_ORDER,
    ):
        self.store = store
        self.resume = resume
        self.compose_min_order = compose_min_order
        self.journal: RunJournal | None = None
        self.root_key: str | None = None
        self._n_outer = 1

    # -- run lifecycle -------------------------------------------------

    def begin(
        self, ca: np.ndarray, cb: np.ndarray, a_lens: list[int], b_lens: list[int]
    ) -> PermArray | None:
        """Open (or resume) the run's journal. Returns the finished root
        kernel when a previous run already completed this exact problem —
        the caller returns it immediately."""
        self.root_key = self.store.key(ca, cb, GRID_ALGORITHM)
        self._n_outer = len(b_lens)
        header = make_header(
            self.root_key,
            m=ca.size,
            n=cb.size,
            a_lens=a_lens,
            b_lens=b_lens,
            algorithm=GRID_ALGORITHM,
            version=STORE_VERSION,
        )
        path = self.store.journal_path(self.root_key[:32])
        if not self.resume:
            path.unlink(missing_ok=True)
        self.journal = RunJournal(path, header)
        if self.resume:
            try:
                root = self.store.get(self.root_key)
            except CheckpointCorruptionError:
                self.store.discard(self.root_key)
            else:
                if root is not None:
                    self.finish()
                    return root
        return None

    def finish(self) -> None:
        """Mark the journal done and close it. The root kernel persisted
        from its own task (:meth:`node` always persists the root), so a
        fully complete run resumes as one store hit."""
        assert self.root_key is not None, "finish() before begin()"
        self.journal.record_done(self.root_key)
        self.close()

    def close(self) -> None:
        """Close the run's journal without marking it done (idempotent).
        The grid calls it on every exit, so a run that raises
        leaves no open file behind; its journal stays resumable."""
        if self.journal is not None:
            self.journal.close()

    def flush(self) -> None:
        """Make all in-flight bookkeeping durable (store writes already
        are — each artifact commits atomically as its node finishes)."""
        if self.journal is not None:
            self.journal.flush()

    # -- nodes ---------------------------------------------------------

    def node(
        self, fn: Callable[..., PermArray], args: tuple,
        ca_slice: np.ndarray, cb_slice: np.ndarray, *, leaf: bool,
    ) -> tuple[Callable[..., PermArray], tuple, str | None]:
        """Wrap the task ``fn(*args)`` of the grid node that covers
        *ca_slice* x *cb_slice*; call after :meth:`begin`.

        Returns ``(task, task_args, key)``: :func:`run_node` over the
        node's store key, or, for a reduction compose whose order
        ``m + n`` is below ``compose_min_order`` (cheaper to recompute
        than to persist), ``(fn, args, None)`` unchanged. Leaves and the
        root always persist. Under ``resume=False`` the node's old
        artifact is discarded here, before the task runs, so the task
        reads only what this run commits (a retried task reads its own
        first attempt's kernel)."""
        m, n = ca_slice.size, cb_slice.size
        key = self.store.key(ca_slice, cb_slice, GRID_ALGORITHM)
        if not leaf and key != self.root_key and m + n < self.compose_min_order:
            return fn, args, None
        if not self.resume:
            self.store.discard(key)
        return run_node, (self.store, key, GRID_ALGORITHM, m, n, fn, *args), key

    def record(self, level: int, index: int, key: str) -> None:
        """Journal node *index* of plan level *level* as complete: level 0
        holds the leaves in row-major order, level ``k >= 1`` the
        compositions of reduction level *k* (coordinating thread only)."""
        if level == 0:
            self.journal.record_leaf(*divmod(index, self._n_outer), key)
        else:
            self.journal.record_compose(level, index, key)
