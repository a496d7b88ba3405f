"""Durable computation: checkpoint/resume for grid combing.

The ROADMAP's genome-scale runs decompose (paper Listing 7) into an
``m_outer x n_outer`` grid of independently-combed sub-blocks merged by
a reduction tree. Kernel composition makes each node's kernel a
self-contained artifact, so a crash at 90% need not cost 100% of the
work. This package provides the persistence-and-recovery layer:

- :class:`~repro.checkpoint.store.KernelStore` — content-addressed,
  checksum-verified artifact store with atomic commits and
  hit/miss/corrupt counters; corrupt artifacts raise
  :class:`~repro.errors.CheckpointCorruptionError` and are recomputed,
  never silently loaded;
- :class:`~repro.checkpoint.journal.RunJournal` — append-only progress
  ledger (grid topology + completed leaf/merge nodes);
- :class:`~repro.checkpoint.grid.GridCheckpointer` — the ``checkpoint=``
  argument of ``parallel_hybrid_combing_grid`` (the one Listing 7 grid;
  ``hybrid_combing_grid`` runs it on a serial machine); it wraps each
  grid node's task so the task returns the stored kernel or persists
  the one it computes, which also makes a retried task read back what
  it already committed;
- :func:`~repro.checkpoint.signals.flush_on_signals` — SIGINT/SIGTERM
  handlers that flush in-flight bookkeeping before exit.

CLI: ``repro-lcs semilocal/parallel --checkpoint-dir DIR [--resume]``
and ``repro-lcs checkpoint list|verify|gc DIR``. See DESIGN.md §3d for
the durability model.
"""

from __future__ import annotations

from .grid import DEFAULT_COMPOSE_MIN_ORDER, GRID_ALGORITHM, GridCheckpointer
from .journal import RunJournal, load_journal
from .signals import cleanup_on_signals, flush_on_signals
from .store import STORE_VERSION, KernelStore, kernel_key

__all__ = [
    "KernelStore",
    "kernel_key",
    "STORE_VERSION",
    "RunJournal",
    "load_journal",
    "GridCheckpointer",
    "GRID_ALGORITHM",
    "DEFAULT_COMPOSE_MIN_ORDER",
    "flush_on_signals",
    "cleanup_on_signals",
]
