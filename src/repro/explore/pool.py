"""Shared kernel worker pools for parallel frontier expansion.

A :class:`KernelPool` ships the compiled
:class:`~repro.core.kernel.KernelTable` rows to each worker **once**, at
pool creation (they pickle as ``(schema, rows)`` and recompile on
arrival); after that, every task payload is just a batch of encoded
canonical states, and every result is the successor batch.  The pool
persists across BFS levels, so per-depth cost is one ``map`` over state
batches with no setup.

Workers are plain ``multiprocessing.Pool`` processes; determinism is
preserved because ``map`` returns batches in submission order and the
explorer merges them exactly like the inline path.  The pool is only
ever created with telemetry disabled (the explorer forces ``workers=1``
under an enabled tracer), so children never write to inherited sinks.
"""

from __future__ import annotations

import multiprocessing

__all__ = ["KernelPool"]

# Per-worker globals, installed once by the pool initializer.
_SIM = None
_ADDRS = None
_SYMMETRY = None
_QUAD_CLASSES = None


def _init_worker(kernels, channels, config, home_map) -> None:
    from ..core.kernel import KernelSystem
    from . import explorer as _ex

    global _SIM, _ADDRS, _SYMMETRY, _QUAD_CLASSES
    system = KernelSystem(kernels, {config.assignment: channels})
    _SIM = _ex._build_simulator(system, config, home_map,
                                tables=system.tables)
    _ADDRS = _ex._addrs(config)
    _SYMMETRY = config.symmetry
    _QUAD_CLASSES = _ex._quad_classes(config)


def _expand_batch(batch) -> list:
    """Expand ``[(digest, state), …]`` on this worker's kernel simulator.

    States travel as the canonical nested tuples (pickle handles them
    natively and faster than a JSON round-trip); results mirror
    ``_expand_state`` exactly, so the merge loop cannot tell a pooled
    expansion from an inline one.
    """
    from . import explorer as _ex

    return [
        [digest, _ex._expand_state(_SIM, state, _ADDRS, _SYMMETRY,
                                   _QUAD_CLASSES)]
        for digest, state in batch
    ]


class KernelPool:
    """A persistent pool of kernel-simulator workers."""

    def __init__(self, kernels, channels, config, home_map,
                 workers: int) -> None:
        self.workers = workers
        ctx = multiprocessing.get_context()
        self._pool = ctx.Pool(
            processes=workers,
            initializer=_init_worker,
            initargs=(kernels, channels, config, home_map),
        )

    def expand(self, batches: list) -> list:
        """Expand state batches; results come back in submission order."""
        return self._pool.map(_expand_batch, batches)

    def close(self) -> None:
        self._pool.terminate()
        self._pool.join()
