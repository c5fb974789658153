"""Assembly of a full 8-controller protocol for one family member.

:class:`FamilySystem` is the spec-parameterized generalization of the
historical ``AsuraSystem`` (which is now its MESI-pinned subclass):
generate all eight controller tables from their column constraints into
one central database, wire up the invariant checker and the deadlock
analyzer.  Four of the controllers — memory, RAC, network interface,
protocol engine — are variant-independent and reuse the original
builders unchanged; the cache, node, directory and I/O controllers are
generated from the family-parameterized constraints.

A non-MESI database is stamped with a one-row ``__family_variant``
marker table so :func:`attach` (and the CLI's ``--db`` loading and
the explorer) can recover the right spec
from the file alone.  MESI databases carry no marker — their on-disk
bytes are identical to what the pre-family code produced.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Sequence

from ...telemetry import span
from ...core.assignment import ControllerMessageSpec, MessageTriple
from ...core.constraints import ConstraintSet
from ...core.database import ProtocolDatabase
from ...core.generator import GenerationResult, TableGenerator
from ...core.quad import ALL_PLACEMENTS, Placement
from ...core.report import CheckResult, Report
from ...core.table import ControllerTable
from . import cache, channels, directory, io, node
from . import spec as F
from .spec import BUSY_STATE_HELPER_TABLE, MESI, FamilySpec, get_spec

if TYPE_CHECKING:
    from ...core.deadlock import DeadlockAnalysis
    from ...core.invariants import InvariantChecker
    from ...core.kernel import KernelTable

__all__ = [
    "FamilySystem",
    "controller_builders",
    "VARIANT_META_TABLE",
    "read_variant_marker",
    "write_variant_marker",
]

#: One-row marker table naming the family member a database holds.
#: Absent for MESI so the baseline database bytes never change.
VARIANT_META_TABLE = "__family_variant"


def controller_builders(spec: FamilySpec) -> dict[str, Callable[[], ConstraintSet]]:
    """name -> constraint-set builder for each of the 8 controllers."""
    # Imported lazily: the asura package's __init__ pulls in the
    # MESI-pinned system, which imports this module — a module-level
    # import here would be circular.  By the time a system is *built*
    # both packages are fully initialized.
    from ..asura import memory, netif, pengine, rac

    return {
        "D": lambda: directory.directory_constraints(spec),
        "M": memory.memory_constraints,
        "C": lambda: cache.cache_constraints(spec),
        "N": lambda: node.node_constraints(spec),
        "RAC": rac.rac_constraints,
        "IO": lambda: io.io_constraints(spec),
        "NI": netif.netif_constraints,
        "PE": pengine.pengine_constraints,
    }


def write_variant_marker(db: ProtocolDatabase, spec: FamilySpec) -> None:
    """Stamp a non-MESI database with its variant key (MESI: no-op)."""
    if spec.key == MESI.key:
        return
    db.create_table_from_rows(VARIANT_META_TABLE, ("key",), [{"key": spec.key}])


def read_variant_marker(db: ProtocolDatabase) -> str:
    """The variant key a database was generated for (``mesi`` when
    unmarked — every pre-family database)."""
    if not db.table_exists(VARIANT_META_TABLE):
        return MESI.key
    rows = db.query(f'SELECT key FROM "{VARIANT_META_TABLE}"')
    return rows[0]["key"] if rows else MESI.key


class FamilySystem:
    """A generated protocol-family member: 8 controller tables in one
    database plus the member's channel assignments and invariants."""

    def __init__(self, spec: FamilySpec | str = MESI,
                 db: Optional[ProtocolDatabase] = None) -> None:
        if isinstance(spec, str):
            spec = get_spec(spec)
        self.spec = spec
        self.db = db or ProtocolDatabase()
        self._suite: Optional[InvariantChecker] = None
        self._kernels: Optional[tuple] = None
        self.constraint_sets: dict[str, ConstraintSet] = {}
        self.generation_results: dict[str, GenerationResult] = {}
        self.tables: dict[str, ControllerTable] = {}
        builders = controller_builders(spec)
        with span("system.build", controllers=len(builders),
                  variant=spec.key) as sp:
            for name, builder in builders.items():
                cs = builder()
                self.constraint_sets[name] = cs
                result = TableGenerator(self.db, cs, table_name=name).generate_incremental()
                self.generation_results[name] = result
                self.tables[name] = result.table
        self.generation_seconds = sp.seconds
        self._create_helper_tables()
        write_variant_marker(self.db, spec)
        self.channel_assignments = channels.channel_assignments(spec)

    @classmethod
    def from_database(cls, db: ProtocolDatabase,
                      spec: Optional[FamilySpec | str] = None) -> "FamilySystem":
        """Attach to a database that already holds the 8 generated
        controller tables — a ``--db`` file or a ``deserialize()``'d
        snapshot — without regenerating anything.

        When ``spec`` is omitted it is recovered from the database's
        variant marker (absent marker = the MESI baseline).  Raises
        :class:`~repro.core.schema.SchemaError` when the database lacks a
        controller table or its columns, so callers get a clean
        diagnostic for a wrong or corrupt file."""
        if spec is None:
            spec = read_variant_marker(db)
        if isinstance(spec, str):
            spec = get_spec(spec)
        template = cls.__new__(cls)
        template.spec, template.db, template._suite = spec, None, None
        builders = controller_builders(spec)
        with span("system.attach", controllers=len(builders),
                  variant=spec.key):
            template.constraint_sets = {
                name: builder() for name, builder in builders.items()}
            template.channel_assignments = channels.channel_assignments(spec)
            self = template.attach(db)
            if not db.table_exists(BUSY_STATE_HELPER_TABLE):
                self._create_helper_tables()
        return self

    def attach(self, db: ProtocolDatabase) -> "FamilySystem":
        """This system over ``db`` (a snapshot of its database), sharing
        the constraint sets, channel assignments and compiled invariant
        suite: a mutation replaces a dict entry, never edits one.  Tables
        are checked as on attach."""
        self.invariant_checker()  # build the suite once, for every clone
        other = type(self).__new__(type(self))
        other.spec, other.db, other._suite = self.spec, db, self._suite
        other._kernels = None
        other.constraint_sets = dict(self.constraint_sets)
        other.channel_assignments = dict(self.channel_assignments)
        other.generation_results, other.generation_seconds = {}, 0.0
        other.tables = {
            name: ControllerTable(db, cs.schema, name)
            for name, cs in other.constraint_sets.items()}
        return other

    def _create_helper_tables(self) -> None:
        self.db.create_table_from_rows(
            BUSY_STATE_HELPER_TABLE,
            ("name",),
            [{"name": n} for n in F.busy_names(self.spec)],
        )

    # -- accessors ------------------------------------------------------------
    @property
    def directory(self) -> ControllerTable:
        return self.tables["D"]

    def table(self, name: str) -> ControllerTable:
        return self.tables[name]

    def kernels(self) -> dict[str, KernelTable]:
        """The simulated tables compiled into dispatch kernels, shared by
        every simulator and explorer over this system.

        Compiled on first use and again only when the table state moved:
        the database's schema version or change count differs (a row
        edited or deleted, a table regenerated) or a simulated table was
        rebound in :attr:`tables`.  A clone :meth:`attach` makes compiles
        its own.
        """
        from ...core.kernel import SIMULATED_TABLES, compile_system_kernels

        stamp = self.db.change_stamp()
        bound = tuple(self.tables.get(name) for name in SIMULATED_TABLES)
        memo = self._kernels
        if (memo is None or memo[0] != stamp
                or any(a is not b for a, b in zip(memo[1], bound))):
            memo = self._kernels = (stamp, bound,
                                    compile_system_kernels(self))
        return memo[2]

    # -- static checks ----------------------------------------------------------
    def invariant_checker(self) -> InvariantChecker:
        """The member's invariant suite over this system's database, built
        and compiled once and shared with every clone :meth:`attach`
        makes."""
        if self._suite is None:
            # The engines load with the first check, not with set-up.
            from ...core.invariants import InvariantChecker
            from . import invariants as family_invariants

            self._suite = InvariantChecker(None)
            self._suite.extend(family_invariants.build_invariants(self.spec))
        return self._suite.bound_to(self.db)

    def check_invariants(self,
                         tables: Optional[Sequence[str]] = None) -> Report:
        """Run the suite, then :meth:`check_determinism`; with ``tables``,
        only the checks reading one of them, judging changed rows where a
        check looks at one row, or one pair, at a time."""
        report = self.invariant_checker().check_all(
            f"{self.spec.title} protocol invariants", tables=tables)
        report.extend(self.check_determinism(tables=tables))
        return report

    def check_determinism(self, tables: Optional[Sequence[str]] = None
                          ) -> list[CheckResult]:
        """Per controller (or per one of ``tables``, counting only pairs
        with a row changed from the clean copy): no two rows match the
        same concrete input."""
        from ...core.invariants import tally

        results = []
        for name, table in self.tables.items():
            if tables is not None and name not in tables:
                continue
            with span("invariant.determinism", table=name) as sp:
                count, overlaps = table.overlapping_pairs(
                    limit=5, changed=tables is not None)
            tally(count)
            results.append(CheckResult(
                name=f"{name}-deterministic",
                passed=not count,
                description=f"no two rows of {name} match the same input",
                details=overlaps,
                seconds=sp.seconds,
            ))
        return results

    # -- deadlock analysis ----------------------------------------------------------
    def deadlock_specs(self) -> list[ControllerMessageSpec]:
        """Message-column specs for the controllers that exchange
        network messages (the others are on-chip only)."""
        return [
            ControllerMessageSpec(
                controller=self.tables["D"],
                input_triple=MessageTriple("inmsg", "inmsgsrc", "inmsgdst"),
                output_triples=(
                    MessageTriple("locmsg", "locmsgsrc", "locmsgdst"),
                    MessageTriple("remmsg", "remmsgsrc", "remmsgdst"),
                    MessageTriple("memmsg", "memmsgsrc", "memmsgdst"),
                ),
            ),
            ControllerMessageSpec(
                controller=self.tables["M"],
                input_triple=MessageTriple("inmsg", "inmsgsrc", "inmsgdst"),
                output_triples=(
                    MessageTriple("outmsg", "outmsgsrc", "outmsgdst"),
                ),
            ),
            ControllerMessageSpec(
                controller=self.tables["N"],
                input_triple=MessageTriple("inmsg", "inmsgsrc", "inmsgdst"),
                output_triples=(
                    MessageTriple("netmsg", "netmsgsrc", "netmsgdst"),
                ),
            ),
            ControllerMessageSpec(
                controller=self.tables["IO"],
                input_triple=MessageTriple("inmsg", "inmsgsrc", "inmsgdst"),
                output_triples=(
                    MessageTriple("netmsg", "netmsgsrc", "netmsgdst"),
                ),
            ),
        ]

    def analyze_deadlocks(
        self,
        assignment: str = "v5",
        placements: Sequence[Placement] = ALL_PLACEMENTS,
        ignore_messages: bool = True,
        closure: bool = False,
        table_name: Optional[str] = None,
    ) -> DeadlockAnalysis:
        """Run the section 4.1 analysis for one channel assignment
        (``v4``, ``v5`` or ``v5d``) on the set-based SQL engine."""
        from ...core.deadlock import DeadlockAnalyzer

        channels_ = self.channel_assignments[assignment]
        analyzer = DeadlockAnalyzer(
            self.db, self.deadlock_specs(), channels_)
        return analyzer.analyze(
            placements=placements,
            ignore_messages=ignore_messages,
            closure=closure,
            table_name=table_name,
        )

    # -- statistics --------------------------------------------------------------------
    def stats(self) -> dict:
        """Protocol-wide statistics (the section 3/6 size claims)."""
        per_table = {n: t.stats() for n, t in self.tables.items()}
        out = {
            "controllers": len(self.tables),
            "total_rows": sum(s.n_rows for s in per_table.values()),
            "total_columns": sum(s.n_columns for s in per_table.values()),
            "busy_states": len(F.busy_names(self.spec)),
            "directory_rows": per_table["D"].n_rows,
            "directory_columns": per_table["D"].n_columns,
            "generation_seconds": self.generation_seconds,
            "per_table": per_table,
        }
        if self.spec.key != MESI.key:
            # Stamped only off-baseline so the MESI stats payload (and the
            # benchmark JSON built from it) stays byte-identical.
            out["variant"] = self.spec.key
        return out
