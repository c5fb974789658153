"""Execution of independent work units: inline, or in watchdogged children.

:func:`run_units` picks the mode from its inputs:

* ``workers == 1`` and no ``timeout`` — every unit runs inline in the
  caller, one after another.  No fork, no pickling; an ``Exception``
  raised by a unit becomes a ``crashed`` outcome, while
  ``KeyboardInterrupt`` still stops the run (a journaled campaign
  resumes from its last checkpoint).
* otherwise — one child process per unit, bounded to ``workers``
  concurrent children.  A watchdog polls the children; a unit that
  exceeds its per-unit ``timeout`` is killed and recorded as a
  ``timeout`` outcome, and a child that dies without reporting —
  segfault, OOM kill, ``os._exit`` — becomes a ``crashed`` outcome.
  Either way the rest of the run keeps going.

In both modes an exception raised by the unit function is captured as a
``crashed`` :class:`UnitResult` instead of propagating and discarding
every sibling.  Results come back in submission order; ``on_result``
fires in completion order as each unit finishes, which is where
checkpoint journaling hooks in.

**Telemetry relay.**  When the parent's tracer is recording, every unit
runs under a :class:`~repro.telemetry.context.TraceContext`
(``run_id``/``unit_id``/``worker_id``) so its events arrive attributed.
Inline units record straight into the parent tracer (``worker_id``
``"inline"``); process workers each install a
:class:`~repro.telemetry.relay.RelayTracer` spooling their spans, SQL
statements, and metric mutations through a
:class:`~repro.telemetry.sinks.JsonlSink` to a private JSONL file,
which the parent merges into the main tracer as each unit finishes
(:func:`~repro.telemetry.relay.merge_spool`) — including the partial
spools of crashed, SIGKILLed, and timed-out workers, whose events up to
the moment of death survive because the spool is flushed per event.
Both modes emit ``unit.started`` / ``unit.finished`` / ``unit.timeout``
lifecycle events, which is what ``repro watch`` consumes live.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import tempfile
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Optional, Sequence

__all__ = ["UnitResult", "run_units"]

#: the ``worker_id`` of units run inline in the caller.
INLINE_WORKER = "inline"

#: seconds the watchdog grants a terminated child to exit before
#: escalating to SIGKILL, and a reporting child to finish exiting.
_REAP_GRACE = 5.0


@dataclass
class UnitResult:
    """The outcome of one unit: its function's return ``value`` on
    ``"ok"``, otherwise an ``error`` string for ``"crashed"`` /
    ``"timeout"``."""

    unit_id: Any
    outcome: str  # "ok" | "crashed" | "timeout"
    value: Any = None
    error: Optional[str] = None
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.outcome == "ok"


def _describe(exc: BaseException) -> str:
    """The one-line ``crashed`` error string for an exception."""
    return f"{type(exc).__name__}: {exc}".splitlines()[0]


def _child_main(conn, fn, payload, relay: Optional[dict] = None) -> None:
    """Child-process entry: run one unit and send its result back.

    ``relay`` carries the parent's telemetry arrangement: a spool path
    plus the unit's trace context.  Without it (parent not recording)
    the child silences its inherited tracer; with it the child records
    everything to the spool for the parent-side merge."""
    from ..telemetry import (
        NULL_TRACER,
        JsonlSink,
        RelayTracer,
        TraceContext,
        set_context,
        set_tracer,
    )

    tracer = NULL_TRACER
    if relay is None:
        set_tracer(NULL_TRACER)
    else:
        tracer = RelayTracer(
            sinks=[JsonlSink(relay["spool"])],
            slow_sql_seconds=relay.get("slow_sql_seconds", 0.05))
        set_tracer(tracer)
        set_context(TraceContext(
            run_id=relay["run_id"], unit_id=relay["unit_id"],
            worker_id=relay["worker_id"]))
    t0 = time.perf_counter()
    try:
        value = fn(payload)
        tracer.close()  # flush the spool before reporting success
        conn.send(("ok", value, None, time.perf_counter() - t0))
    except BaseException as exc:  # the whole point: nothing escapes
        try:
            tracer.close()
        except Exception:
            pass
        try:
            conn.send(("crashed", None, _describe(exc),
                       time.perf_counter() - t0))
        except Exception:
            pass
    finally:
        conn.close()


@dataclass
class _Running:
    proc: Any
    conn: Any
    index: int
    unit_id: Any
    started: float
    deadline: Optional[float]
    worker_id: Optional[str] = None
    spool: Optional[str] = None


class _Relay:
    """Parent-side bookkeeping of the telemetry relay for one pool run.

    Inactive (every method a no-op) when the parent tracer is not
    recording, so the disabled-telemetry path stays allocation-free."""

    def __init__(self, run_id: Optional[str], spool: bool) -> None:
        from ..telemetry import get_tracer, new_run_id

        self.tracer = get_tracer()
        self.enabled = self.tracer.enabled
        self.run_id = run_id or (new_run_id() if self.enabled else None)
        self._spool_dir: Optional[str] = None
        self._spawned = 0
        if self.enabled and spool:
            self._spool_dir = tempfile.mkdtemp(prefix="repro-spool-")

    def child_relay(self, unit_id: Any, index: int) -> Optional[dict]:
        """The pickled relay arrangement for one child, or ``None``."""
        if self._spool_dir is None:
            return None
        self._spawned += 1
        worker_id = f"proc-{self._spawned - 1}"
        return {
            "spool": os.path.join(self._spool_dir, f"u{index}.jsonl"),
            "run_id": self.run_id,
            "unit_id": unit_id,
            "worker_id": worker_id,
            "slow_sql_seconds": self.tracer.slow_sql_seconds,
        }

    def merge(self, spool: Optional[str]) -> None:
        """Fold one finished (or killed) child's spool into the parent
        tracer, then discard the spool file."""
        if spool is None or not self.enabled:
            return
        from ..telemetry import merge_spool

        merge_spool(self.tracer, spool, remove=True)

    def emit(self, event_type: str, **fields: Any) -> None:
        if self.enabled:
            self.tracer.emit(event_type, run_id=self.run_id, **fields)

    def close(self) -> None:
        if self._spool_dir is not None:
            shutil.rmtree(self._spool_dir, ignore_errors=True)
            self._spool_dir = None


def _run_units_inline(
    units: Sequence[tuple[Any, Any]],
    fn: Callable[[Any], Any],
    on_result: Optional[Callable[[UnitResult], None]],
    relay: _Relay,
) -> list[UnitResult]:
    from ..telemetry import TraceContext, use_context

    results: list[UnitResult] = []
    for unit_id, payload in units:
        relay.emit("unit.started", unit_id=unit_id, worker_id=INLINE_WORKER)
        t0 = time.perf_counter()
        with use_context(TraceContext(run_id=relay.run_id or "",
                                      unit_id=unit_id,
                                      worker_id=INLINE_WORKER)):
            try:
                result = UnitResult(unit_id, "ok", value=fn(payload),
                                    seconds=time.perf_counter() - t0)
            except Exception as exc:  # KeyboardInterrupt stops the run
                result = UnitResult(unit_id, "crashed", error=_describe(exc),
                                    seconds=time.perf_counter() - t0)
        relay.emit("unit.finished", unit_id=unit_id,
                   worker_id=INLINE_WORKER, outcome=result.outcome,
                   seconds=result.seconds)
        results.append(result)
        if on_result is not None:
            on_result(result)
    return results


def _reap(rec: _Running) -> None:
    """Join a finished child, escalating to kill if it lingers."""
    rec.proc.join(_REAP_GRACE)
    if rec.proc.is_alive():
        rec.proc.kill()
        rec.proc.join()
    rec.conn.close()


def _try_recv(conn) -> Optional[tuple]:
    """Receive a child's report if one is waiting, else ``None``."""
    try:
        if not conn.poll():
            return None
        return conn.recv()
    except (EOFError, OSError):
        return None


def _run_units_processes(
    units: Sequence[tuple[Any, Any]],
    fn: Callable[[Any], Any],
    workers: int,
    timeout: Optional[float],
    on_result: Optional[Callable[[UnitResult], None]],
    relay: _Relay,
) -> list[UnitResult]:
    ctx = multiprocessing.get_context()
    queue: deque = deque(
        (i, unit_id, payload) for i, (unit_id, payload) in enumerate(units))
    running: dict[Any, _Running] = {}  # keyed by proc.sentinel
    results: list[Optional[UnitResult]] = [None] * len(units)

    def finish(result: UnitResult, rec: _Running) -> None:
        # Merge before reporting: when on_result checkpoints the unit,
        # its telemetry is already part of the parent's stream.
        relay.merge(rec.spool)
        relay.emit("unit.finished", unit_id=result.unit_id,
                   worker_id=rec.worker_id, outcome=result.outcome,
                   seconds=result.seconds)
        results[rec.index] = result
        if on_result is not None:
            on_result(result)

    def finish_reported(report: tuple, rec: _Running) -> None:
        outcome, value, error, seconds = report
        finish(UnitResult(rec.unit_id, outcome, value=value, error=error,
                          seconds=seconds), rec)

    try:
        while queue or running:
            while queue and len(running) < workers:
                index, unit_id, payload = queue.popleft()
                child_relay = relay.child_relay(unit_id, index)
                parent_conn, child_conn = ctx.Pipe(duplex=False)
                proc = ctx.Process(
                    target=_child_main,
                    args=(child_conn, fn, payload, child_relay),
                    daemon=True)
                proc.start()
                child_conn.close()
                now = time.monotonic()
                worker_id = (child_relay["worker_id"]
                             if child_relay else None)
                running[proc.sentinel] = _Running(
                    proc=proc, conn=parent_conn, index=index,
                    unit_id=unit_id, started=now,
                    deadline=now + timeout if timeout is not None else None,
                    worker_id=worker_id,
                    spool=child_relay["spool"] if child_relay else None)
                relay.emit("unit.started", unit_id=unit_id,
                           worker_id=worker_id)

            # Wake on the earlier of: a child reporting/exiting, or the
            # nearest watchdog deadline.
            wait_for: list[Any] = []
            for rec in running.values():
                wait_for.append(rec.proc.sentinel)
                wait_for.append(rec.conn)
            deadlines = [rec.deadline for rec in running.values()
                         if rec.deadline is not None]
            wait_timeout = None
            if deadlines:
                wait_timeout = max(0.0, min(deadlines) - time.monotonic())
            ready = mp_connection.wait(wait_for, timeout=wait_timeout)

            finished: list[_Running] = []
            for waitable in ready:
                rec = None
                for candidate in running.values():
                    if waitable is candidate.proc.sentinel \
                            or waitable is candidate.conn:
                        rec = candidate
                        break
                if rec is not None and rec not in finished:
                    finished.append(rec)
            for rec in finished:
                running.pop(rec.proc.sentinel, None)
                elapsed = time.monotonic() - rec.started
                report = _try_recv(rec.conn)
                _reap(rec)
                if report is not None:
                    finish_reported(report, rec)
                else:
                    finish(UnitResult(
                        rec.unit_id, "crashed",
                        error=(f"worker exited without reporting "
                               f"(exit code {rec.proc.exitcode})"),
                        seconds=elapsed), rec)

            # The watchdog: kill anything past its deadline.
            now = time.monotonic()
            for sentinel, rec in list(running.items()):
                if rec.deadline is None or now < rec.deadline:
                    continue
                running.pop(sentinel)
                # The unit may have reported in the window between
                # mp_connection.wait returning and this check — a
                # completed verdict beats a timeout.
                report = _try_recv(rec.conn)
                if report is not None:
                    _reap(rec)
                    finish_reported(report, rec)
                    continue
                rec.proc.terminate()
                _reap(rec)
                relay.emit("unit.timeout", unit_id=rec.unit_id,
                           worker_id=rec.worker_id,
                           seconds=now - rec.started)
                finish(UnitResult(
                    rec.unit_id, "timeout",
                    error=f"unit exceeded its {timeout:g}s wall-clock timeout",
                    seconds=now - rec.started), rec)
    finally:
        # An exception (or KeyboardInterrupt) must not leak children.
        for rec in running.values():
            rec.proc.terminate()
            _reap(rec)
    return [r for r in results if r is not None]


def run_units(
    units: Sequence[tuple[Any, Any]],
    fn: Callable[[Any], Any],
    workers: int = 4,
    timeout: Optional[float] = None,
    on_result: Optional[Callable[[UnitResult], None]] = None,
    run_id: Optional[str] = None,
) -> list[UnitResult]:
    """Run ``fn(payload)`` for every ``(unit_id, payload)`` in ``units``.

    Returns one :class:`UnitResult` per unit, in submission order.  With
    ``workers == 1`` and no ``timeout`` the units run inline in the
    caller; otherwise each runs in its own child process, at most
    ``workers`` at a time, so ``fn`` and each payload must be picklable
    (``fn`` a module-level function) and ``timeout`` bounds each unit's
    wall clock.

    When the active tracer is recording, every unit executes under a
    trace context and process workers spool their telemetry for the
    parent-side merge (see the module docstring); ``run_id`` overrides
    the generated fan-out identifier so callers can correlate the pool's
    events with their own."""
    if not units:
        return []
    inline = workers <= 1 and timeout is None
    relay = _Relay(run_id, spool=not inline)
    try:
        if inline:
            return _run_units_inline(units, fn, on_result, relay)
        return _run_units_processes(
            units, fn, max(1, min(workers, len(units))), timeout,
            on_result, relay)
    finally:
        relay.close()
