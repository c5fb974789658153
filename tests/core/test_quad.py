"""Unit tests for quad placement relations."""

import pytest

from repro.core.quad import ALL_PLACEMENTS, NodeRole, Placement

from .deadlock_oracle import placed_role


class TestPlacements:
    def test_five_placements(self):
        assert len(ALL_PLACEMENTS) == 5

    def test_all_distinct_is_identity(self):
        p = Placement.ALL_DISTINCT
        for role in ("local", "home", "remote"):
            assert placed_role(p, role) == role

    def test_all_same_merges_everything(self):
        p = Placement.ALL_SAME
        assert {placed_role(p, r) for r in ("local", "home", "remote")} == {"home"}

    def test_home_remote_merge(self):
        # The paper's L != H = R rewrites remote to home (section 4.2).
        p = Placement.HOME_REMOTE
        assert placed_role(p, "remote") == "home"
        assert placed_role(p, "local") == "local"

    def test_local_home_merge(self):
        p = Placement.LOCAL_HOME
        assert placed_role(p, "local") == "home"
        assert placed_role(p, "remote") == "remote"

    def test_local_remote_merge(self):
        p = Placement.LOCAL_REMOTE
        assert placed_role(p, "remote") == "local"
        assert placed_role(p, "home") == "home"

    def test_substitution_idempotent(self):
        for p in ALL_PLACEMENTS:
            for role in ("local", "home", "remote"):
                once = placed_role(p, role)
                assert placed_role(p, once) == once

    def test_non_quad_roles_pass_through(self):
        for p in ALL_PLACEMENTS:
            assert placed_role(p, "cache") == "cache"
            assert placed_role(p, "dev") == "dev"

    def test_merges_reports_classes(self):
        assert Placement.ALL_DISTINCT.merges() == frozenset()
        assert Placement.HOME_REMOTE.merges() == frozenset(
            {frozenset({"home", "remote"})}
        )
        (cls,) = Placement.ALL_SAME.merges()
        assert cls == frozenset({"local", "home", "remote"})

    def test_node_role_strings(self):
        assert str(NodeRole.LOCAL) == "local"
