"""The fixed reference kernel that every timing is drift-adjusted by.

The host this benchmark runs on changes speed within seconds (shared
cores, frequency scaling), so raw wall times of identical code drift by
10% and more between runs, and CPU time drifts with them.  One round of
the kernel below does a fixed amount of the kinds of work the measured
operations do:

* set-based SQL that ``sqlite3`` runs with the interpreter lock
  released, on two threads at once (the deadlock analyzer's snapshot
  path runs two threads) and on one;
* restoring a serialized database image, as every op's clone does;
* single-threaded pure-Python dict updates and small-object churn.

A round is read two ways, keyed by the number of threads the measured
work runs on: ``1`` is the round's single-threaded part, ``2`` the whole
round.  The two drift apart: when the host squeezes both of this
machine's cores onto one, the two-thread join takes twice as long while
single-threaded work barely slows, so scaling single-threaded work by
the whole round would under-report it by up to a third.

Each op is bracketed by two samples, and a timing is reported as
``raw * R0_MS[threads] / reference[threads]``.  A short sample is
dominated by the host's sub-second jitter, so a sample spans a number of
rounds proportional to the time it brackets (see :meth:`Reference.sample`).

It imports nothing from ``repro``: a change to the program must never
change the yardstick.
"""

from __future__ import annotations

import math
import sqlite3
import threading
import time

#: the time of each reading of one round, in ms, that adjusted timings
#: are scaled to; constants so that adjusted values stay comparable
#: across runs and PRs.
R0_MS = {1: 40.0, 2: 65.0}

#: reference time spent per second of bracketed work, on each side.
SAMPLE_SHARE = 0.15

_ROWS = 3000
_GROUPS = 97
_IMAGE_ROWS = 20_000
_DICT_ITERS = 40_000


def _table(conn: sqlite3.Connection, rows: int) -> None:
    conn.execute("CREATE TABLE r (k INTEGER PRIMARY KEY, g INTEGER,"
                 " v INTEGER, s TEXT)")
    conn.executemany(
        "INSERT INTO r VALUES (?, ?, ?, ?)",
        ((i, i % _GROUPS, (i * 7919) % 1009, f"row{i % 311}")
         for i in range(rows)))
    conn.execute("CREATE INDEX r_g ON r (g)")
    conn.commit()


def factor(before: dict[int, float], after: dict[int, float],
           threads: int) -> float:
    """What a raw time of work on ``threads`` threads, bracketed by the
    samples ``before`` and ``after``, is multiplied by."""
    return R0_MS[threads] / ((before[threads] + after[threads]) / 2)


class Reference:
    """Owns the kernel's private in-memory databases; :meth:`sample`
    times rounds of the kernel."""

    def __init__(self) -> None:
        self._conns = []
        for _ in range(2):
            conn = sqlite3.connect(":memory:", check_same_thread=False)
            _table(conn, _ROWS)
            self._conns.append(conn)
        with sqlite3.connect(":memory:") as source:
            _table(source, _IMAGE_ROWS)
            self._image = source.serialize()
        self._round_s = self._round()[2]

    def close(self) -> None:
        for conn in self._conns:
            conn.close()

    @staticmethod
    def _join(conn: sqlite3.Connection) -> None:
        conn.execute("SELECT count(*), sum(a.v * b.v % 13) FROM r a"
                     " JOIN r b ON a.g = b.g AND a.k < b.k").fetchone()

    def _restore(self) -> None:
        conn = sqlite3.connect(":memory:")
        try:
            conn.deserialize(self._image)
            conn.execute("SELECT g, count(*), max(s) FROM r WHERE v < 500"
                         " GROUP BY g").fetchall()
        finally:
            conn.close()

    @staticmethod
    def _dict_loop() -> int:
        counts: dict[int, int] = {}
        for i in range(_DICT_ITERS):
            k = i % 1021
            counts[k] = counts.get(k, 0) + i
        return len(counts)

    def _round(self) -> dict[int, float]:
        t0 = time.perf_counter()
        threads = [threading.Thread(target=self._join, args=(c,))
                   for c in self._conns]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        t1 = time.perf_counter()
        self._join(self._conns[0])
        self._restore()
        self._restore()
        self._dict_loop()
        t2 = time.perf_counter()
        return {1: t2 - t1, 2: t2 - t0}

    def mean_round_ms(self, rounds: int) -> dict[int, float]:
        """Both readings of one round, in ms, averaged over ``rounds``
        rounds."""
        times = [self._round() for _ in range(rounds)]
        mean = {k: 1000.0 * sum(t[k] for t in times) / rounds
                for k in (1, 2)}
        self._round_s = mean[2] / 1000.0
        return mean

    def sample(self, bracketed_s: float = 0.0) -> dict[int, float]:
        """Both readings of one round, in ms, over enough rounds to span
        :data:`SAMPLE_SHARE` of ``bracketed_s`` (at least one)."""
        return self.mean_round_ms(max(1, math.ceil(
            SAMPLE_SHARE * bracketed_s / self._round_s)))
