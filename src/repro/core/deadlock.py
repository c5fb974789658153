"""Static deadlock detection via virtual-channel dependency graphs
(paper sections 4.1–4.2).

Pipeline, following the paper step by step:

1. A **virtual channel assignment** ``V`` is a table ``(m, s, d, v)``:
   message ``m`` from source ``s`` to destination ``d`` travels on virtual
   channel ``v``.  Channels may be marked *dedicated* (the paper's fix for
   the Figure 4 deadlock adds "a dedicated hardware path from directory
   controller to the home memory controller for mread requests");
   dedicated channels are unbounded and excluded from the VCG.

2. For each controller table, an **individual controller dependency
   table** is built: one row per (incoming assignment, outgoing
   assignment) pair, i.e. processing message ``m1`` on ``vc1`` requires
   emitting ``m2`` on ``vc2``.

3. The exact tables correspond to the placement L!=H!=R; **four more
   sets** are derived for the other quad placements by substituting merged
   node roles in the source/destination fields.

4. Tables are composed **pairwise** within each placement (output
   assignment of one row matches input assignment of another; optionally
   ignoring messages, which captures transaction interleavings).  The
   union of everything is the **protocol dependency table**.

5. Every row contributes an edge ``in_vc -> out_vc`` to the **VCG**; a
   cycle is a potential deadlock and is reported with witness rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence

from ..telemetry import get_tracer, span

from ..analysis.cycles import cyclic_vertices, find_cycles
from .assignment import (
    ChannelAssignment,
    ControllerMessageSpec,
    MessageTriple,
    MissingAssignmentError,
    VCAssignment,
)
from .database import IndexSpec, ProtocolDatabase
from .quad import ALL_PLACEMENTS, Placement
from .report import CheckResult, Report
from .sqlgen import quote_ident, quote_value

__all__ = [
    "VCAssignment",
    "ChannelAssignment",
    "MissingAssignmentError",
    "MessageTriple",
    "ControllerMessageSpec",
    "DependencyRow",
    "DeadlockAnalyzer",
    "DeadlockAnalysis",
    "VCG",
    "CandidateScorer",
]


@dataclass(frozen=True)
class DependencyRow:
    """One row of a dependency table: input assignment, output assignment,
    plus provenance for witness reports."""

    in_msg: str
    in_src: str
    in_dst: str
    in_vc: str
    out_msg: str
    out_src: str
    out_dst: str
    out_vc: str
    controller: str
    placement: str
    derived: str  # 'direct' or 'composed'

    def edge(self) -> tuple[str, str]:
        return (self.in_vc, self.out_vc)

    def __str__(self) -> str:
        return (
            f"({self.in_msg}, {self.in_src}, {self.in_dst}, {self.in_vc} | "
            f"{self.out_msg}, {self.out_src}, {self.out_dst}, {self.out_vc}) "
            f"[{self.controller}, {self.placement}, {self.derived}]"
        )


_DEP_COLUMNS = (
    "in_msg",
    "in_src",
    "in_dst",
    "in_vc",
    "out_msg",
    "out_src",
    "out_dst",
    "out_vc",
    "controller",
    "placement",
    "derived",
)


def _dedup_index(table: str) -> IndexSpec:
    """The index the composition rounds probe to skip a candidate row the
    dependency table ``table`` already holds; without it the dedup is
    quadratic (profiled: it dominated the whole analysis)."""
    return IndexSpec(table, ("placement", "in_msg", "in_vc", "out_msg", "out_vc"),
                     name=table + "_dedup")


_ROLES = ("in_src", "in_dst", "out_src", "out_dst")


def _triple_sql(tri: MessageTriple, side: str) -> str:
    """``tri``'s columns of the controller table ``t`` as ``<side>_msg``,
    ``<side>_src``, ``<side>_dst``."""
    return ", ".join(
        f"t.{quote_ident(c)} AS {side}_{part}" for c, part in
        zip((tri.msg, tri.src, tri.dst), ("msg", "src", "dst")))


def _exact_sql(specs: Sequence[ControllerMessageSpec]) -> str:
    """The channel-independent exact-placement (L!=H!=R) dependency rows
    of ``specs``: one per controller row and complete output triple of a
    row whose input triple is complete, with the controller's name, its
    input and output triples, and the order keys ``(c, r, k)`` (spec
    index, rowid, output-triple index) of a row-at-a-time visit.  Both
    consumers read these rows: the analyzer joins them to V,
    the repair search's :class:`CandidateScorer` keeps their distinct
    assignments."""
    return "\nUNION ALL\n".join(
        f"SELECT {c} AS c, t.rowid AS r, {k} AS k, "
        f"{quote_value(spec.name)} AS controller, "
        f"{_triple_sql(spec.input_triple, 'in')}, {_triple_sql(ot, 'out')} "
        f"FROM {quote_ident(spec.controller.table_name)} t "
        f"WHERE {_complete(spec.input_triple, ot)}"
        for c, spec in enumerate(specs)
        for k, ot in enumerate(spec.output_triples))


def _placed_sql(source: str, placements: Sequence[Placement]) -> str:
    """``source``'s rows once per placement: its columns, the placement
    index ``p`` and name, and each role with the placement's merged node
    roles substituted as ``p_<role>`` (channels unchanged — exactly how
    the paper rewrites R2 to R2')."""
    return "\nUNION ALL\n".join(
        f"SELECT x.*, {i} AS p, {quote_value(placement.value)} AS placement, "
        + ", ".join(f"{_role_sql(c, placement)} AS p_{c}" for c in _ROLES)
        + f" FROM {source} x"
        for i, placement in enumerate(placements))


def _lookups(db: ProtocolDatabase,
             specs: Sequence[ControllerMessageSpec]) -> list[tuple]:
    """Every V lookup a row-at-a-time walk of ``specs`` makes, first
    occurrences only, in its visiting order: per controller row, the
    input triple (``k = 0``) of each row whose input is complete, then
    each complete output triple of such a row.  The order key ``(c, r,
    k)`` is packed into one integer so that ``MIN`` finds each triple's
    first visit."""
    arms = []
    for c, spec in enumerate(specs):
        it = spec.input_triple
        for k, tri in enumerate((it, *spec.output_triples)):
            arms.append(
                f"SELECT ({c} << 40 | t.rowid) << 8 | {k} AS key, "
                f"{_triple_sql(tri, 'v')} "
                f"FROM {quote_ident(spec.controller.table_name)} t "
                f"WHERE {_complete(it, *((tri,) if k else ()))}")
    union = "\nUNION ALL\n".join(arms)
    return db.query_tuples(
        f"SELECT v_msg, v_src, v_dst FROM ({union}) "
        f"GROUP BY v_msg, v_src, v_dst ORDER BY MIN(key)")


def _check_lookups(channels: ChannelAssignment, lookups: Iterable[tuple]) -> None:
    """The V check of both SQL consumers: raise
    :class:`MissingAssignmentError` for the first lookup ``channels``
    has no entry for, as a row-at-a-time walk would (inner joins with V
    would silently drop its rows)."""
    for key in lookups:
        channels.lookup(*key)


def _complete(*triples: MessageTriple) -> str:
    """SQL condition: every column of every triple (of the controller
    table aliased ``t``) is non-NULL."""
    return " AND ".join(f"t.{quote_ident(c)} IS NOT NULL"
                        for tri in triples for c in (tri.msg, tri.src, tri.dst))


def _role_sql(column: str, placement: Placement) -> str:
    """``column`` with ``placement``'s merged node roles CASE-substituted."""
    q = quote_ident(column)
    arms = " ".join(f"WHEN {quote_value(a)} THEN {quote_value(b)}"
                    for a, b in placement.substitution.items() if a != b)
    return f"CASE {q} {arms} ELSE {q} END" if arms else q


def _compose_on(dedicated: Iterable[str], pair: bool = True,
                match_messages: bool = False) -> str:
    """The condition composing row ``a`` with row ``b``: same placement,
    and ``a``'s output assignment (roles as placed, channel, and with
    ``match_messages`` the message) is ``b``'s input assignment; with
    ``pair``, between different controllers.

    A composition whose matched intermediate assignment rides a
    dedicated channel is excluded: a dedicated (unbounded) path cannot
    back-pressure its producer, so a wait chain never propagates through
    it — this is precisely why the paper's "dedicated hardware path ...
    for mread requests" fix removes the Figure 4 deadlock.
    """
    terms = ["a.placement = b.placement"]
    if pair:
        terms.append("a.controller != b.controller")
    terms += ["a.out_src IS b.in_src", "a.out_dst IS b.in_dst",
              "a.out_vc IS b.in_vc"]
    if match_messages:
        terms.append("a.out_msg IS b.in_msg")
    ded = sorted(dedicated)
    if ded:
        terms.append(f"a.out_vc NOT IN ({', '.join(map(quote_value, ded))})")
    return " AND ".join(terms)


class DeadlockAnalyzer:
    """Builds the protocol dependency table and the VCG for one channel
    assignment over a set of controller tables.

    :meth:`analyze` runs steps 2–4 entirely inside the database: one
    statement joins the channel-independent exact rows (:func:`_exact_sql`)
    to V and derives every placement with CASE substitutions
    (:func:`_placed_sql`), and composition is an indexed self-join.  Rows
    never round-trip through Python.  The tests' row-at-a-time parity
    oracle (``tests/core/deadlock_oracle.py``) overrides steps 2–3
    (:meth:`_build_direct`) and keeps the rest.
    """

    def __init__(
        self,
        db: ProtocolDatabase,
        specs: Sequence[ControllerMessageSpec],
        channels: ChannelAssignment,
    ) -> None:
        self.db = db
        self.specs = tuple(specs)
        self.channels = channels

    # -- steps 2-3 in SQL: direct extraction + placement derivation -------------
    def _direct_rows_sql(self, v_table: str,
                         placements: Sequence[Placement], table: str) -> str:
        """INSERT…SELECT writing every placement's direct rows into
        ``table``: the exact rows are joined to V once (the inner joins
        drop nothing, V having passed :func:`_check_lookups`), then fanned
        out per placement, in placement, controller, row, triple order."""
        v = quote_ident(v_table)
        probes = " ".join(
            f"JOIN {v} {a} ON {a}.m = e.{side}_msg AND {a}.s = e.{side}_src "
            f"AND {a}.d = e.{side}_dst"
            for a, side in (("vi", "in"), ("vo", "out")))
        return (
            f"INSERT INTO {quote_ident(table)}\n"
            f"WITH x AS MATERIALIZED (\n"
            f"SELECT e.*, vi.v AS in_vc, vo.v AS out_vc "
            f"FROM ({_exact_sql(self.specs)}) e {probes})\n"
            f"SELECT in_msg, p_in_src, p_in_dst, in_vc, "
            f"out_msg, p_out_src, p_out_dst, out_vc, "
            f"controller, placement, 'direct' FROM (\n"
            f"{_placed_sql('x', placements)}\n) ORDER BY p, c, r, k"
        )

    # -- step 4: pairwise composition (in SQL, like the paper) ------------------
    def _compose_round_stmts(self, table: str, ignore_messages: bool,
                             closure: bool) -> list[str]:
        """Statements performing one composition round on ``table``.

        Row R of controller T1 composes with row S of controller T2 (same
        placement, different controllers) when R's output assignment
        matches S's input assignment; the result is (R.input, S.output).
        The closure variant composes any row with direct rows instead.

        Many controller rows carry identical message assignments, so each
        join side is first collapsed to its DISTINCT assignment rows in an
        indexed scratch table (1475 -> 240 rows on ASURA v5); the join
        then runs over the collapsed relations and the dedup index on
        ``table`` is probed once per distinct candidate.  The final
        content of ``table`` is identical to composing the raw rows.
        """
        t = quote_ident(table)
        assignment_cols = ("in_msg, in_src, in_dst, in_vc, "
                           "out_msg, out_src, out_dst, out_vc")
        cand = quote_ident(f"{table}__cand")
        cand_in = quote_ident(f"{table}__cand_in")
        stmts = [
            f"DROP TABLE IF EXISTS {cand}",
            f"CREATE TABLE {cand} AS SELECT DISTINCT {assignment_cols}, "
            f"controller, placement FROM {t} WHERE derived = 'direct'",
            f"CREATE INDEX {cand_in} ON {cand} "
            f"(placement, in_src, in_dst, in_vc)",
        ]
        if closure:
            # The a-side ranges over every row; its controller/derived
            # provenance is irrelevant (the result says 'closure').
            a_side = quote_ident(f"{table}__cand_any")
            tail = "'closure' AS controller, a.placement AS placement"
            stmts += [
                f"DROP TABLE IF EXISTS {a_side}",
                f"CREATE TABLE {a_side} AS SELECT DISTINCT "
                f"{assignment_cols}, placement FROM {t}",
            ]
        else:
            a_side = cand
            tail = ("a.controller || '+' || b.controller AS controller, "
                    "a.placement AS placement")
        stmts.append(f"""
            INSERT INTO {t}
            SELECT * FROM (
                SELECT DISTINCT
                    a.in_msg AS in_msg, a.in_src AS in_src,
                    a.in_dst AS in_dst, a.in_vc AS in_vc,
                    b.out_msg AS out_msg, b.out_src AS out_src,
                    b.out_dst AS out_dst, b.out_vc AS out_vc,
                    {tail},
                    'composed' AS derived
                FROM {a_side} a JOIN {cand} b
                  ON {_compose_on(self.channels.dedicated, not closure,
                                  not ignore_messages)}
            ) n
            WHERE NOT EXISTS (
                SELECT 1 FROM {t} c
                WHERE c.in_msg IS n.in_msg AND c.in_src IS n.in_src
                  AND c.in_dst IS n.in_dst AND c.in_vc IS n.in_vc
                  AND c.out_msg IS n.out_msg AND c.out_src IS n.out_src
                  AND c.out_dst IS n.out_dst AND c.out_vc IS n.out_vc
                  AND c.placement IS n.placement
            )
            """)
        stmts.append(f"DROP TABLE {cand}")
        if closure:
            stmts.append(f"DROP TABLE {a_side}")
        return stmts

    def _compose_sql(self, table: str, ignore_messages: bool,
                     closure: bool) -> int:
        """Pairwise composition, inserted back into ``table``: one round,
        or with ``closure`` rounds to a fixpoint — the transitive closure
        the paper's footnote 2 tried and abandoned for its spurious
        cycles, composing any row (direct or composed) with direct rows
        until no new dependencies appear.  Returns ``table``'s row
        count."""
        stmts = self._compose_round_stmts(table, ignore_messages, closure)
        rows = self.db.row_count(table)
        while True:
            for stmt in stmts:
                self.db.execute(stmt)
            before, rows = rows, self.db.row_count(table)
            get_tracer().incr("deadlock.compositions", rows - before)
            if rows == before or not closure:
                return rows

    # -- the full pipeline -------------------------------------------------------
    def _build_direct(self, table: str,
                      placements: Sequence[Placement]) -> None:
        """Steps 2-3 set-based: one statement extracts, joins V and
        derives every placement's direct rows inside the database, which
        afterwards holds only the dependency table (V is scratch)."""
        with span("deadlock.direct", assignment=self.channels.name):
            _check_lookups(self.channels, _lookups(self.db, self.specs))
            v_table = f"__v_{table}"
            try:
                self.channels.to_table(self.db, v_table)
                self.db.create_index(v_table, ("m", "s", "d", "v"),
                                     name=v_table + "_msd")
                self.db.create_table(table, _DEP_COLUMNS)
                self.db.execute(
                    self._direct_rows_sql(v_table, placements, table))
            finally:
                self.db.drop_table(v_table)

        with span("deadlock.materialize", table=table):
            self.db.create_index(_dedup_index(table))

    def analyze(
        self,
        placements: Sequence[Placement] = ALL_PLACEMENTS,
        ignore_messages: bool = True,
        closure: bool = False,
        table_name: Optional[str] = None,
    ) -> "DeadlockAnalysis":
        """Build the protocol dependency table and its VCG."""
        table = table_name or f"pdt_{self.channels.name}"
        with span("deadlock.analyze", assignment=self.channels.name,
                  closure=closure) as sp:
            self._build_direct(table, placements)
            with span("deadlock.compose", table=table, closure=closure):
                n_rows = self._compose_sql(table, ignore_messages, closure)
            # Pull only the aggregates the VCG needs; the full rows stay
            # in the database until a witness report asks.
            edge_pairs = self.db.query_tuples(
                f"SELECT DISTINCT in_vc, out_vc FROM {quote_ident(table)}")
        tracer = get_tracer()
        if tracer.enabled:
            tracer.gauge("deadlock.dependency_rows", n_rows)
        return DeadlockAnalysis(self.channels, table, self.db, n_rows,
                                edge_pairs, build_seconds=sp.seconds)


class VCG(NamedTuple):
    """A virtual channel dependency graph: its channels and its distinct
    ``(in_vc, out_vc)`` edges, both sorted."""

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]


def _vcg(channels: ChannelAssignment,
         pairs: Iterable[tuple[str, str]]) -> VCG:
    """The VCG of the ``(in_vc, out_vc)`` pairs.  Dedicated channels are
    unbounded hardware paths and contribute no vertices or edges."""
    blocking = channels.blocking_channels()
    return VCG(tuple(sorted(blocking)), tuple(sorted(
        {(a, b) for a, b in pairs if a in blocking and b in blocking})))


class DeadlockAnalysis:
    """The protocol dependency table plus the VCG derived from it.

    The dependency rows stay in the database and are loaded only when
    something (a witness report, typically) first touches
    :attr:`dependency_rows`; the VCG and row count come from cheap
    aggregates captured at analysis time.  Rerunning ``analyze()`` with
    the same ``table_name`` replaces the underlying table, so pass
    distinct names (or touch ``dependency_rows`` first) when comparing
    two analyses of the same assignment.
    """

    def __init__(
        self,
        channels: ChannelAssignment,
        table_name: str,
        db: ProtocolDatabase,
        n_rows: int,
        edge_pairs: Iterable[tuple[str, str]],
        build_seconds: float = 0.0,
    ) -> None:
        self.channels = channels
        self.table_name = table_name
        self.db = db
        self.n_rows = n_rows
        self.build_seconds = build_seconds
        #: the virtual channel dependency graph (see :func:`_vcg`).
        self.vcg = _vcg(channels, edge_pairs)
        self._rows: Optional[list[DependencyRow]] = None

    @property
    def dependency_rows(self) -> list[DependencyRow]:
        """Every row of the protocol dependency table (loaded from the
        database on first access)."""
        if self._rows is None:
            cursor = self.db.execute(
                "SELECT " + ", ".join(_DEP_COLUMNS) +
                f" FROM {quote_ident(self.table_name)}"
            )
            cursor.row_factory = None  # plain tuples: DependencyRow(*row)
            self._rows = [DependencyRow(*r) for r in cursor.fetchall()]
        return self._rows

    def cycles(self) -> list[tuple[str, ...]]:
        """All elementary cycles of the VCG, canonical and sorted."""
        return find_cycles(self.vcg.edges)

    def cyclic_channels(self) -> set[str]:
        return cyclic_vertices(self.vcg.edges)

    def is_deadlock_free(self) -> bool:
        return not self.cyclic_channels()

    # -- witnesses ---------------------------------------------------------------
    def witnesses(
        self, cycle: Sequence[str], per_edge: int = 3
    ) -> dict[tuple[str, str], list[DependencyRow]]:
        """Dependency rows justifying each edge of a cycle, direct rows
        first (they point at concrete controller-table transitions)."""
        out: dict[tuple[str, str], list[DependencyRow]] = {}
        n = len(cycle)
        for i in range(n):
            edge = (cycle[i], cycle[(i + 1) % n])
            rows = [r for r in self.dependency_rows if r.edge() == edge]
            rows.sort(key=lambda r: (r.derived != "direct", r.placement))
            # Distinct assignments only: many controller rows share the
            # same message exchange and would repeat in the report.
            seen: set[tuple] = set()
            unique: list[DependencyRow] = []
            for r in rows:
                key = (r.in_msg, r.in_src, r.in_dst, r.out_msg, r.out_src,
                       r.out_dst, r.derived)
                if key not in seen:
                    seen.add(key)
                    unique.append(r)
            out[edge] = unique[:per_edge]
        return out

    def scenario(self, cycle: Sequence[str]) -> str:
        """A Figure-4-style narrative for one cycle."""
        lines = [f"Potential deadlock: cycle {' -> '.join(cycle)} -> {cycle[0]}"]
        for edge, rows in self.witnesses(cycle).items():
            lines.append(f"  {edge[0]} waits on {edge[1]}:")
            for r in rows:
                lines.append(
                    f"    processing {r.in_msg}({r.in_src}->{r.in_dst}) on "
                    f"{r.in_vc} requires emitting {r.out_msg}"
                    f"({r.out_src}->{r.out_dst}) on {r.out_vc} "
                    f"[{r.controller}, {r.placement}, {r.derived}]"
                )
        return "\n".join(lines)

    def report(self) -> Report:
        report = Report(f"deadlock analysis for V={self.channels.name}")
        cycles = self.cycles()
        get_tracer().gauge("deadlock.cycles", len(cycles))
        report.add(
            CheckResult(
                name="vcg-acyclic",
                passed=not cycles,
                description=(
                    f"{len(self.vcg.nodes)} channels, "
                    f"{len(self.vcg.edges)} dependencies, "
                    f"{len(cycles)} cycle(s)"
                ),
                details=[self.scenario(c) for c in cycles],
                seconds=self.build_seconds,
            )
        )
        return report


class CandidateScorer:
    """The VCG cycles of many candidate assignments over one set of
    controller tables — the repair search's inner loop.

    Only V differs between candidates, so the channel-independent part of
    the default analysis (every placement, messages ignored, one pairwise
    round) is built once, in SQL, from the tables as they are now: the
    distinct rows of :func:`_exact_sql` under :func:`_placed_sql`, each
    assignment's triples as extracted plus its substituted roles.  Scoring
    a candidate runs :func:`_check_lookups`, rewrites one scratch V table
    and runs one query — the direct edges UNION the edges composed under
    :func:`_compose_on` — whose edges go to the VCG cycle finder.  The
    cycles equal a full :meth:`DeadlockAnalyzer.analyze`'s.  :meth:`close` drops the scratch
    tables.
    """

    def __init__(self, db: ProtocolDatabase,
                 specs: Sequence[ControllerMessageSpec]) -> None:
        self.db = db
        self.deps, self.v_table = "__score_deps", "__score_v"
        self.lookups = _lookups(db, specs)
        assignment = ("controller, in_msg, in_src, in_dst, "
                      "out_msg, out_src, out_dst")
        db.create_table_as(self.deps, (
            f"SELECT placement, {assignment}, "
            f"{', '.join(f'p_{c}' for c in _ROLES)} FROM ("
            + _placed_sql(f"(SELECT DISTINCT {assignment} "
                          f"FROM ({_exact_sql(specs)}))", ALL_PLACEMENTS)
            + ")"))
        db.create_table(self.v_table, ("m", "s", "d", "v"))
        db.create_index(self.v_table, ("m", "s", "d", "v"),
                        name=self.v_table + "_msd")

    def cycles(self, channels: ChannelAssignment) -> list[tuple[str, ...]]:
        """All elementary cycles of ``channels``' VCG, canonical and
        sorted, as :meth:`DeadlockAnalysis.cycles` returns them."""
        with span("deadlock.score", assignment=channels.name):
            _check_lookups(channels, self.lookups)
            v = quote_ident(self.v_table)
            self.db.execute(f"DELETE FROM {v}")
            self.db.executemany(f"INSERT INTO {v} VALUES (?, ?, ?, ?)", {
                (a.message, a.src, a.dst, a.channel)
                for a in channels.assignments})
            pairs = self.db.query_tuples(f"""
                WITH r AS (
                    SELECT DISTINCT x.placement, x.controller,
                           x.p_in_src AS in_src, x.p_in_dst AS in_dst,
                           x.p_out_src AS out_src, x.p_out_dst AS out_dst,
                           vi.v AS in_vc, vo.v AS out_vc
                    FROM {quote_ident(self.deps)} x
                    JOIN {v} vi ON vi.m = x.in_msg AND vi.s = x.in_src
                               AND vi.d = x.in_dst
                    JOIN {v} vo ON vo.m = x.out_msg AND vo.s = x.out_src
                               AND vo.d = x.out_dst)
                SELECT in_vc, out_vc FROM r
                UNION
                SELECT a.in_vc, b.out_vc FROM r a JOIN r b
                  ON {_compose_on(channels.dedicated)}""")
            return find_cycles(_vcg(channels, pairs).edges)

    def close(self) -> None:
        self.db.drop_table(self.deps)
        self.db.drop_table(self.v_table)
