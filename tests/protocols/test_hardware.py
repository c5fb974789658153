"""Tests for the section-5 hardware mapping of D."""

import pytest

from repro.protocols.asura.hardware import (
    HardwareMapping,
    build_hardware_mapping,
    partition_specs,
)
from repro.protocols.family import SPECS, build_variant
from repro.protocols.messages import REQUEST_NAMES


@pytest.fixture(scope="module")
def hw(system):
    return build_hardware_mapping(
        system.db, system.tables["D"], system.constraint_sets["D"],
    )


class TestExtendedTable:
    def test_ed_adds_three_columns(self, hw, system):
        d_cols = set(system.tables["D"].schema.column_names)
        ed_cols = set(hw.ed.schema.column_names)
        assert ed_cols - d_cols == {"Qstatus", "Dqstatus", "Fdback"}

    def test_impinmsg_includes_dfdback(self, hw):
        assert "dfdback" in hw.ed.schema.column("inmsg").values

    def test_ed_larger_than_d(self, hw, system):
        assert hw.ed.row_count > 2 * system.tables["D"].row_count

    def test_full_queue_requests_retry(self, hw):
        rows = hw.ed.match_rows({"inmsg": "readex", "Qstatus": "Full"})
        assert rows
        for r in rows:
            assert r["locmsg"] == "retry"
            assert r["remmsg"] is None and r["memmsg"] is None
            assert r["nxtbdirst"] is None

    def test_notfull_requests_behave_as_debugged(self, hw, system):
        d_row = system.tables["D"].lookup(
            inmsg="readex", inmsgsrc="local", inmsgdst="home",
            inmsgres="reqq", dirst="I", dirpv="zero", dirlookup="miss",
            bdirst="I", bdirpv="zero", bdirlookup="miss", reqinpv=None,
        )
        ed_row = hw.ed.lookup(
            inmsg="readex", inmsgsrc="local", inmsgdst="home",
            inmsgres="reqq", dirst="I", dirpv="zero", dirlookup="miss",
            bdirst="I", bdirpv="zero", bdirlookup="miss", reqinpv=None,
            Qstatus="NotFull", Dqstatus="NotFull",
        )
        for col in system.tables["D"].schema.output_names:
            assert ed_row[col] == d_row[col], col

    def test_full_update_queue_feeds_back(self, hw):
        # A response needing a directory write with Dqstatus = Full
        # generates the Dfdback request instead of writing.
        rows = [
            r for r in hw.ed.match_rows({"inmsg": "compl",
                                         "Dqstatus": "Full"})
            if r["bdirst"] == "Busy-x-c"
        ]
        assert rows
        for r in rows:
            assert r["Fdback"] == "Dfdback"
            assert r["nxtdirst"] is None and r["nxtdirpv"] is None

    def test_dqstatus_not_consulted_for_requests(self, hw):
        # "Dqstatus is not consulted for requests."
        for dq in ("Full", "NotFull"):
            row = hw.ed.lookup(
                inmsg="read", inmsgsrc="local", inmsgdst="home",
                inmsgres="reqq", dirst="I", dirpv="zero", dirlookup="miss",
                bdirst="I", bdirpv="zero", bdirlookup="miss", reqinpv=None,
                Qstatus="NotFull", Dqstatus=dq,
            )
            assert row["memmsg"] == "mread"
            assert row["Fdback"] is None

    def test_dfdback_rows_only_write_directory(self, hw):
        rows = hw.ed.match_rows({"inmsg": "dfdback", "Qstatus": "NotFull"})
        assert rows
        for r in rows:
            assert r["dirwr"] == "yes"
            assert r["locmsg"] is None and r["memmsg"] is None


class TestPartitions:
    def test_nine_implementation_tables(self, hw):
        # Paper: "Nine implementation tables are generated for D".
        assert len(partition_specs(hw.requests)) == 9
        assert len(hw.partitions) == 9

    def test_request_tables_hold_imp_requests_only(self, hw):
        reqs = set(hw.requests)
        for r in hw.partitions["Request_remmsg"].rows():
            assert r["inmsg"] in reqs

    def test_response_tables_hold_responses_only(self, hw):
        reqs = set(hw.requests)
        for r in hw.partitions["Response_locmsg"].rows():
            assert r["inmsg"] not in reqs

    def test_response_memmsg_contains_figure4_row(self, hw):
        rows = hw.partitions["Response_memmsg"].match_rows({"inmsg": "idone"})
        assert any(r["memmsg"] == "mread" for r in rows)


class TestPreservation:
    def test_reconstruction_contains_d(self, hw):
        result = hw.check_preserved()
        assert result.passed, result.details[:5]

    def test_broken_partition_detected(self, system):
        # A fresh mapping whose Response_memmsg table loses the Figure 4
        # row must fail the preservation check.
        from repro.protocols.asura import build_system
        sys2 = build_system()
        hw2 = build_hardware_mapping(
            sys2.db, sys2.tables["D"], sys2.constraint_sets["D"],
        )
        sys2.db.execute(
            "DELETE FROM \"Response_memmsg\" WHERE inmsg = 'idone'"
        )
        rec = hw2.mapper.reconstruct(
            hw2.ed.schema, hw2.partitions, hw2.plan, table_name="rec_broken",
        )
        assert not hw2.mapper.check_preserved(rec, hw2.plan).passed


@pytest.mark.parametrize("variant", tuple(SPECS))
def test_every_member_maps_preserving_d(variant):
    """The section-5 flow maps each family member's own D: ED extends
    that D's constraints and request set, so the reconstruction holds D."""
    member = build_variant(variant)
    try:
        hw = build_hardware_mapping(
            member.db, member.tables["D"], member.constraint_sets["D"],
        )
        result = hw.check_preserved()
        assert result.passed, result.details[:5]
        assert set(hw.requests) - {"dfdback"} == set(
            member.constraint_sets["D"].schema.column("inmsg").values
        ) & set(REQUEST_NAMES)
    finally:
        member.db.close()
