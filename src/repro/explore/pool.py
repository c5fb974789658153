"""Shared kernel worker pools for parallel frontier expansion.

A :class:`KernelPool` ships the compiled
:class:`~repro.core.kernel.KernelTable` rows to each worker **once**, at
pool creation (they pickle as ``(schema, rows)`` and recompile on
arrival); after that, every task payload is just a batch of canonical
states, and every result is the successor batch.  The pool persists
across BFS levels, so per-depth cost is one ``map`` over state batches
with no setup.

Workers are plain ``multiprocessing.Pool`` processes; determinism is
preserved because ``map`` returns batches in submission order and the
explorer merges them exactly like the inline path.  A traced run keeps
its workers: the children call no tracer method (expansion is pure
kernel lookups), so they never write to the sinks they inherit, and the
parent alone records the run's spans, counters and events.
"""

from __future__ import annotations

import multiprocessing

__all__ = ["KernelPool"]

# Per-worker expansion arguments, installed once by the pool initializer.
_ARGS: tuple = ()


def _init_worker(*args) -> None:
    global _ARGS
    _ARGS = args


def _expand_batch(batch) -> list:
    """Expand ``[(digest, state), …]`` with this worker's kernels.

    States travel as the canonical nested tuples (pickle handles them
    natively and faster than a JSON round-trip); results mirror
    ``_expand_state`` exactly, so the merge loop cannot tell a pooled
    expansion from an inline one.
    """
    from .explorer import _expand_state

    tables, net, addrs, symmetry, quad_classes = _ARGS
    return [
        [digest, _expand_state(state, tables, net, addrs, symmetry,
                               quad_classes)]
        for digest, state in batch
    ]


class KernelPool:
    """A persistent pool of kernel workers."""

    def __init__(self, kernels, net, addrs, symmetry, quad_classes,
                 workers: int) -> None:
        self.workers = workers
        ctx = multiprocessing.get_context()
        self._pool = ctx.Pool(
            processes=workers,
            initializer=_init_worker,
            initargs=(kernels, net, addrs, symmetry, quad_classes),
        )

    def expand(self, batches: list) -> list:
        """Expand state batches; results come back in submission order."""
        return self._pool.map(_expand_batch, batches)

    def close(self) -> None:
        self._pool.terminate()
        self._pool.join()
