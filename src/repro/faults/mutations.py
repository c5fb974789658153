"""The mutation engine: seedable, realistic protocol faults.

Seven fault classes model the table errors the paper reports being seeded
(and caught) during the ASURA bring-up, plus the virtual-channel mistakes
its deadlock chapter debugs:

======================  ====================================================
``flip-next-state``     one next-state cell rewritten to another legal value
``drop-row``            one transition row deleted
``duplicate-row``       one transition row inserted twice
``swap-output-message`` one output message replaced by a different message
``corrupt-pv-update``   a presence-vector update output corrupted
``reassign-channel``    one (message, src, dst) moved to another virtual
                        channel in V
``relax-constraint``    one output column constraint weakened to TRUE and
                        the table regenerated
======================  ====================================================

A :class:`MutationEngine` samples :class:`Mutation` objects from a *clean*
system deterministically: the same seed yields the same mutants, and the
first ``n`` draws of a longer campaign are exactly the shorter campaign
(``--count 25`` is a prefix of ``--count 50``), which is what lets CI run
a cheap smoke slice against the committed full baseline.  Mutations are
applied to cloned systems (the campaign's per-campaign template attached
to a :meth:`ProtocolDatabase.deserialize` of its snapshot), never to the
system they were sampled from.  Clones share their constraint sets, so
``relax-constraint`` edits a copy of the one it relaxes.

Every fault class derives its targets from the *live* system — schemas,
deadlock-spec message triples, constraint sets, and the variant's own
channel assignment — so the engine is family-clean by construction:
``reassign-channel`` draws from whatever V the member defines (including
MOESI's ``owb`` entries and the VC6 split of ``mesi-vc6``), and
``corrupt-pv-update`` targets the ``nxtdirpv``/``nxtbdirpv`` columns
present in every member's directory schema.  Nothing hardcodes MESI
state or message names.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..core.expr import TRUE
from ..core.generator import TableGenerator
from ..core.sqlgen import quote_ident, quote_value

__all__ = ["FAULT_CLASSES", "Mutation", "MutationEngine"]

#: every fault class the engine knows, in canonical order.
FAULT_CLASSES = (
    "flip-next-state",
    "drop-row",
    "duplicate-row",
    "swap-output-message",
    "corrupt-pv-update",
    "reassign-channel",
    "relax-constraint",
)


@dataclass(frozen=True)
class Mutation:
    """One sampled fault, ready to apply to a cloned system.

    SQL-backed classes carry ``statements`` run against the clone's
    database; ``reassign-channel`` carries ``channel_moves`` applied to
    the named V ``assignment``; ``relax-constraint`` names the
    ``relaxed_column`` whose constraint is replaced by TRUE before the
    target table is regenerated in the clone."""

    mutant_id: int
    fault_class: str
    target: str
    description: str
    statements: tuple[str, ...] = ()
    channel_moves: tuple[tuple[tuple[str, str, str], str], ...] = ()
    assignment: Optional[str] = None
    relaxed_column: Optional[str] = None

    @property
    def tables(self) -> tuple[str, ...]:
        """The controller tables this mutation writes: its target, or
        none for a channel move (which edits V in memory)."""
        return () if self.channel_moves else (self.target,)

    def apply_to(self, system) -> None:
        """Apply this mutation to ``system`` in place.

        ``system`` must be a private clone — the whole point of the
        snapshot/deserialize machinery is that the pristine system is
        never touched."""
        for stmt in self.statements:
            system.db.execute(stmt)
        if self.channel_moves:
            base = system.channel_assignments[self.assignment]
            system.channel_assignments[self.assignment] = base.reassigned(
                f"{self.assignment}~mut{self.mutant_id}",
                dict(self.channel_moves),
            )
        if self.relaxed_column is not None:
            # Copy-on-write: clones share their constraint sets.
            cs = system.constraint_sets[self.target].copy()
            system.constraint_sets[self.target] = cs
            cs.replace(self.relaxed_column, TRUE)
            result = TableGenerator(
                system.db, cs, table_name=self.target
            ).generate_incremental()
            system.tables[self.target] = result.table

    def to_dict(self) -> dict:
        """JSON-friendly form (used by the detection-matrix report)."""
        return {
            "mutant_id": self.mutant_id,
            "fault_class": self.fault_class,
            "target": self.target,
            "description": self.description,
        }


class MutationEngine:
    """Samples deterministic mutations from a clean generated system.

    ``classes`` restricts the fault classes (default: all of
    :data:`FAULT_CLASSES`); ``tables`` restricts table-backed classes to
    the named controllers (``reassign-channel`` targets V, so a table
    filter disables it); ``assignment`` names the V that channel
    reassignments perturb.  Classes that have no eligible target under the
    filters are pruned; an empty result raises ``ValueError``."""

    def __init__(
        self,
        system,
        seed: int = 0,
        classes: Optional[Sequence[str]] = None,
        tables: Optional[Sequence[str]] = None,
        assignment: str = "v5d",
    ) -> None:
        self.system = system
        self.assignment = assignment
        self._rng = random.Random(seed)
        requested = tuple(classes) if classes else FAULT_CLASSES
        unknown = sorted(set(requested) - set(FAULT_CLASSES))
        if unknown:
            raise ValueError(
                f"unknown fault classes {unknown}; "
                f"known: {', '.join(FAULT_CLASSES)}"
            )
        self._tables = tuple(tables) if tables else tuple(system.tables)
        self._index_targets()
        self.classes = tuple(
            c for c in FAULT_CLASSES
            if c in requested and self._eligible(c)
        )
        if not self.classes:
            raise ValueError(
                f"no requested fault class is applicable to tables "
                f"{self._tables}"
            )

    # -- target discovery ---------------------------------------------------
    def _index_targets(self) -> None:
        """Precompute the (table, column) targets of each fault class from
        the clean system's schemas, in deterministic order."""
        sys_ = self.system
        self._nxt_cols = []
        self._msg_cols = []
        self._pv_cols = []
        self._relaxable = []
        spec_triples = {}
        for spec in sys_.deadlock_specs():
            name = spec.controller.table_name
            spec_triples[name] = [t.msg for t in spec.output_triples]
        for name in self._tables:
            schema = sys_.tables[name].schema
            cs = sys_.constraint_sets[name]
            for col in schema.output_names:
                column = schema.column(col)
                if col.startswith("nxt"):
                    self._nxt_cols.append((name, col))
                if col in ("nxtdirpv", "nxtbdirpv"):
                    self._pv_cols.append((name, col))
                if col in spec_triples.get(name, ()):
                    self._msg_cols.append((name, col))
                nontrivial = not isinstance(cs.get(col).expr, type(TRUE))
                if nontrivial and len(column.domain) > 1:
                    self._relaxable.append((name, col))

    def _eligible(self, fault_class: str) -> bool:
        """Whether a fault class has at least one target under the filters."""
        if fault_class in ("drop-row", "duplicate-row"):
            return bool(self._tables)
        if fault_class == "flip-next-state":
            return bool(self._nxt_cols)
        if fault_class == "swap-output-message":
            return bool(self._msg_cols)
        if fault_class == "corrupt-pv-update":
            return bool(self._pv_cols)
        if fault_class == "relax-constraint":
            return bool(self._relaxable)
        # reassign-channel targets V, not a controller table.
        return not (self._tables != tuple(self.system.tables))

    # -- sampling -----------------------------------------------------------
    def sample(self, count: int) -> list[Mutation]:
        """Draw ``count`` mutations; sequential draws from one seeded RNG,
        so a longer sample extends a shorter one item for item."""
        return [self._draw(i) for i in range(count)]

    def _draw(self, mutant_id: int) -> Mutation:
        fault_class = self._rng.choice(self.classes)
        builder = getattr(self, "_" + fault_class.replace("-", "_"))
        return builder(mutant_id)

    # -- sampling helpers ---------------------------------------------------
    def _rowids(self, table: str, where: str = "") -> list[int]:
        sql = f"SELECT rowid AS rid FROM {quote_ident(table)}"
        if where:
            sql += f" WHERE {where}"
        sql += " ORDER BY rowid"
        return [r["rid"] for r in self.system.db.query(sql)]

    def _cell(self, table: str, col: str, rid: int):
        row = self.system.db.query(
            f"SELECT {quote_ident(col)} AS v FROM {quote_ident(table)} "
            f"WHERE rowid = ?", (rid,),
        )
        return row[0]["v"]

    def _update(self, table: str, col: str, rid: int, value) -> str:
        return (f"UPDATE {quote_ident(table)} "
                f"SET {quote_ident(col)} = {quote_value(value)} "
                f"WHERE rowid = {rid}")

    def _rewrite_cell(self, mutant_id: int, fault_class: str,
                      targets: list, null_ok: bool) -> Mutation:
        """Common body of the three rewrite-one-cell classes: pick a
        target column, a row where it is populated, and a different legal
        value (NULL allowed only when ``null_ok``)."""
        start = self._rng.randrange(len(targets))
        for offset in range(len(targets)):
            table, col = targets[(start + offset) % len(targets)]
            rids = self._rowids(table, f"{quote_ident(col)} IS NOT NULL")
            if rids:
                break
        rid = self._rng.choice(rids)
        current = self._cell(table, col, rid)
        domain = self.system.tables[table].schema.column(col).domain
        choices = [v for v in domain
                   if v != current and (null_ok or v is not None)]
        value = self._rng.choice(choices)
        return Mutation(
            mutant_id=mutant_id,
            fault_class=fault_class,
            target=table,
            description=(f"{table}.{col} row {rid}: "
                         f"{current!r} -> {value!r}"),
            statements=(self._update(table, col, rid, value),),
        )

    # -- fault-class builders ------------------------------------------------
    def _flip_next_state(self, mutant_id: int) -> Mutation:
        return self._rewrite_cell(
            mutant_id, "flip-next-state", self._nxt_cols, null_ok=True)

    def _swap_output_message(self, mutant_id: int) -> Mutation:
        return self._rewrite_cell(
            mutant_id, "swap-output-message", self._msg_cols, null_ok=False)

    def _corrupt_pv_update(self, mutant_id: int) -> Mutation:
        return self._rewrite_cell(
            mutant_id, "corrupt-pv-update", self._pv_cols, null_ok=True)

    def _drop_row(self, mutant_id: int) -> Mutation:
        table = self._rng.choice(self._tables)
        rid = self._rng.choice(self._rowids(table))
        return Mutation(
            mutant_id=mutant_id,
            fault_class="drop-row",
            target=table,
            description=f"{table}: transition row {rid} deleted",
            statements=(
                f"DELETE FROM {quote_ident(table)} WHERE rowid = {rid}",
            ),
        )

    def _duplicate_row(self, mutant_id: int) -> Mutation:
        table = self._rng.choice(self._tables)
        rid = self._rng.choice(self._rowids(table))
        return Mutation(
            mutant_id=mutant_id,
            fault_class="duplicate-row",
            target=table,
            description=f"{table}: transition row {rid} duplicated",
            statements=(
                f"INSERT INTO {quote_ident(table)} "
                f"SELECT * FROM {quote_ident(table)} WHERE rowid = {rid}",
            ),
        )

    def _reassign_channel(self, mutant_id: int) -> Mutation:
        base = self.system.channel_assignments[self.assignment]
        entry = self._rng.choice(base.assignments)
        blocking = sorted(base.blocking_channels())
        choices = [ch for ch in blocking if ch != entry.channel]
        channel = self._rng.choice(choices)
        key = (entry.message, entry.src, entry.dst)
        return Mutation(
            mutant_id=mutant_id,
            fault_class="reassign-channel",
            target=f"V:{self.assignment}",
            description=(f"V[{self.assignment}] {key}: "
                         f"{entry.channel} -> {channel}"),
            channel_moves=((key, channel),),
            assignment=self.assignment,
        )

    def _relax_constraint(self, mutant_id: int) -> Mutation:
        table, col = self._rng.choice(self._relaxable)
        return Mutation(
            mutant_id=mutant_id,
            fault_class="relax-constraint",
            target=table,
            description=(f"{table}.{col}: column constraint relaxed to "
                         f"TRUE, table regenerated"),
            relaxed_column=col,
        )
