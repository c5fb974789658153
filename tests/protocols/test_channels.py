"""Tests for the virtual-channel assignments V4/V5/V5D."""

import pytest

from repro.core.deadlock import MissingAssignmentError
from repro.protocols.family import MESI
from repro.protocols.family.channels import channel_assignments


@pytest.fixture(scope="module")
def assignments():
    return channel_assignments(MESI)


class TestStructure:
    def test_three_assignments(self, assignments):
        assert set(assignments) == {"v4", "v5", "v5d"}

    def test_v4_has_four_protocol_channels(self, assignments):
        vcs = {c for c in assignments["v4"].channels() if c.startswith("VC")}
        assert vcs == {"VC0", "VC1", "VC2", "VC3", "VC5"}

    def test_v5_adds_vc4(self, assignments):
        assert "VC4" in assignments["v5"].channels()
        assert assignments["v5"].lookup("mread", "home", "home") == "VC4"

    def test_v5d_dedicates_response_triggered_memory_path(self, assignments):
        v5d = assignments["v5d"]
        assert v5d.lookup("mread", "home", "home") in v5d.dedicated
        assert v5d.lookup("mwrite", "home", "home") in v5d.dedicated
        # The request-triggered writeback stays on the finite VC4.
        assert v5d.lookup("wbmem", "home", "home") == "VC4"

    def test_cpu_and_dev_always_dedicated(self, assignments):
        for v in assignments.values():
            assert {"CPU", "DEV"} <= v.dedicated

    def test_paper_channel_semantics_in_v5(self, assignments):
        # VC0: local->home requests; VC1: home->remote; VC2: responses
        # into home; VC3: home->local responses; VC4: dir->mem.
        v5 = assignments["v5"]
        assert v5.lookup("readex", "local", "home") == "VC0"
        assert v5.lookup("sinv", "home", "remote") == "VC1"
        assert v5.lookup("idone", "remote", "home") == "VC2"
        assert v5.lookup("mdone", "home", "home") == "VC2"  # shared!
        assert v5.lookup("retry", "home", "local") == "VC3"
        assert v5.lookup("wbmem", "home", "home") == "VC4"


class TestCoverage:
    def test_every_controller_message_routed(self, system, assignments):
        """Every (msg, src, dst) a deadlock-spec'd controller exchanges
        must have a V entry — otherwise the analysis would be blind."""
        for v in assignments.values():
            for spec in system.deadlock_specs():
                triples = [spec.input_triple, *spec.output_triples]
                for row in spec.controller.rows():
                    for t in triples:
                        m, s, d = row[t.msg], row[t.src], row[t.dst]
                        if m is None or s is None or d is None:
                            continue
                        v.lookup(m, s, d)  # raises if missing

    def test_missing_message_raises(self, assignments):
        with pytest.raises(MissingAssignmentError):
            assignments["v5"].lookup("poison", "home", "local")
