"""The full invariant suite: it passes on the clean protocol, and — the
paper's whole point — it *catches* seeded specification errors."""

import re

import pytest

from repro.core.invariants import InvariantChecker
from repro.core.sqlgen import quote_ident
from repro.core.table import write_clean_copy
from repro.protocols.family import MESI
from repro.protocols.family.invariants import build_invariants


class TestCleanProtocol:
    def test_about_fifty_invariants(self, system):
        # Paper section 4.3: "All of the protocol invariants (around 50)".
        assert 45 <= len(build_invariants(MESI)) <= 100

    def test_all_invariants_hold(self, system):
        report = system.check_invariants()
        assert report.passed, report.render()

    def test_well_under_paper_time_envelope(self, system):
        # Paper: checked "within 5 minutes" on a Sparc 10.
        report = system.invariant_checker().check_all()
        assert report.total_seconds < 60

    def test_every_invariant_has_description(self):
        assert all(inv.description for inv in build_invariants(MESI))

    def test_invariant_names_unique(self):
        names = [inv.name for inv in build_invariants(MESI)]
        assert len(names) == len(set(names))

    def test_each_table_selects_every_invariant_naming_it(self,
                                                          fresh_system):
        """A table-scoped sweep runs every invariant whose SQL names the
        table, whichever table of a join it is (sqlite reports what a
        raw-SQL query reads; nothing is declared by hand)."""
        system = fresh_system
        for name in system.tables:
            write_clean_copy(system.db, name)
        checker = system.invariant_checker()
        for name in system.tables:
            named = re.compile(rf'\b(?:FROM|JOIN)\s+"?{name}"?(?:\s|\)|$)')
            expected = [inv.name for inv in checker.invariants
                        if inv.table == name
                        or named.search(inv.violation_sql or "")]
            ran = [r.name for r in checker.check_all(tables=[name]).results]
            assert ran == expected, name


def _checker(sys_):
    checker = InvariantChecker(sys_.db)
    checker.extend(build_invariants(MESI))
    return checker


def _failing_names(sys_):
    return {r.name for r in _checker(sys_).check_all().results if not r.passed}


def _update(sys_, table, set_clause, where):
    sys_.db.execute(f"UPDATE {quote_ident(table)} SET {set_clause} WHERE {where}")


class TestSeededBugDetection:
    """Corrupt the debugged tables the way a designer's typo would, and
    assert the right invariant fires — early error detection at work."""

    def test_pv_inconsistency_detected(self, fresh_system):
        _update(fresh_system, "D", "dirpv = 'gone'",
                "dirst = 'MESI'")
        assert "dir-pv-consistency" in _failing_names(fresh_system)

    def test_mutual_exclusion_violation_detected(self, fresh_system):
        _update(fresh_system, "D", "dirst = 'SI', dirpv = 'one'",
                "bdirst = 'Busy-w-m'")
        failing = _failing_names(fresh_system)
        assert "dir-bdir-mutual-exclusion" in failing

    def test_missing_retry_detected(self, fresh_system):
        _update(fresh_system, "D", "locmsg = NULL",
                "locmsg = 'retry' AND inmsg = 'readex'")
        assert "serialize-retry-when-busy" in _failing_names(fresh_system)

    def test_premature_dealloc_detected(self, fresh_system):
        # Deallocate the busy entry while still waiting for data.
        _update(fresh_system, "D", "nxtbdirst = 'I'",
                "inmsg = 'idone' AND bdirst = 'Busy-xs-sd'")
        assert "serialize-dealloc-on-completion" in _failing_names(fresh_system)

    def test_spurious_retry_detected(self, fresh_system):
        _update(fresh_system, "D", "locmsg = 'retry'",
                "inmsg = 'read' AND bdirlookup = 'miss' AND dirst = 'I'")
        assert "retry-only-when-busy" in _failing_names(fresh_system)

    def test_lost_message_routing_detected(self, fresh_system):
        _update(fresh_system, "D", "locmsgdst = 'remote'",
                "locmsg = 'cdata'")
        assert "locmsg-routing" in _failing_names(fresh_system)

    def test_missing_write_strobe_detected(self, fresh_system):
        _update(fresh_system, "D", "dirwr = NULL",
                "nxtdirst = 'MESI'")
        assert "dirwr-no-missing-strobe" in _failing_names(fresh_system)

    def test_unanswered_snoop_detected(self, fresh_system):
        _update(fresh_system, "N", "netmsg = NULL",
                "inmsg = 'sinv' AND linest = 'I'")
        assert "node-snoops-always-answered" in _failing_names(fresh_system)

    def test_synchronous_retry_reemission_detected(self, fresh_system):
        # The exact bug class behind retry-induced channel deadlocks.
        _update(fresh_system, "N", "netmsg = 'read'",
                "inmsg = 'retry' AND pend = 'rd'")
        assert "node-retry-absorbed" in _failing_names(fresh_system)

    def test_silent_dirty_drop_detected(self, fresh_system):
        _update(fresh_system, "C", "nodemsg = 'flush_victim'",
                "op = 'evict' AND cachest = 'M'")
        assert "cache-no-silent-dirty-drop" in _failing_names(fresh_system)

    def test_unacked_writeback_detected(self, fresh_system):
        _update(fresh_system, "M", "outmsg = NULL",
                "inmsg = 'wbmem'")
        assert "mem-writeback-acknowledged" in _failing_names(fresh_system)

    def test_interface_mismatch_detected(self, fresh_system):
        # D emits a snoop the node controller does not understand.
        _update(fresh_system, "D", "remmsg = 'sflush'",
                "remmsg = 'sread'")
        assert "xc-dir-snoops-node-handles" in _failing_names(fresh_system)

    def test_unreachable_busy_state_detected(self, fresh_system):
        _update(fresh_system, "D", "nxtbdirst = 'Busy-r-d'",
                "nxtbdirst = 'Busy-rs-d'")
        assert "every-busy-state-reachable" in _failing_names(fresh_system)

    def test_stuck_busy_state_detected(self, fresh_system):
        # Remove the only transition out of Busy-w-m.
        fresh_system.db.execute(
            "DELETE FROM \"D\" WHERE bdirst = 'Busy-w-m' AND inmsg = 'mdone'"
        )
        assert "every-busy-state-completable" in _failing_names(fresh_system)

    def test_ni_credit_violation_detected(self, fresh_system):
        _update(fresh_system, "NI", "action = 'send'",
                "event = 'tx' AND credst = 'empty'")
        assert "ni-no-send-without-credit" in _failing_names(fresh_system)
