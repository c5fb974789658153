"""Unit tests for the channel fabric: routing through V and capacities.

The channel contents live in the transition relation's state tuple
(:mod:`repro.sim.models`); the fabric only routes and sizes them.
"""

import pytest

from repro.core.deadlock import ChannelAssignment, VCAssignment
from repro.sim.channel import ChannelFabric


@pytest.fixture()
def fabric():
    v = ChannelAssignment("v", [
        VCAssignment("req", "local", "home", "VC0"),
        VCAssignment("resp", "home", "local", "VC3"),
        VCAssignment("mread", "home", "home", "PDM"),
    ], dedicated=("PDM",))
    return ChannelFabric(v, default_capacity=2, capacities={"VC3": 5})


class TestFabric:
    def test_routing_via_assignment(self, fabric):
        assert fabric.channel_for("req", "local", "home") == "VC0"

    def test_default_and_override_capacities(self, fabric):
        assert fabric.capacity("VC0") == 2
        assert fabric.capacity("VC3") == 5

    def test_dedicated_channels_unbounded(self, fabric):
        assert fabric.capacity("PDM") is None

    def test_capacity_zero_override(self):
        v = ChannelAssignment("v", [
            VCAssignment("req", "local", "home", "VC0"),
        ])
        fabric = ChannelFabric(v, default_capacity=2,
                               capacities={"VC0": 0})
        assert fabric.capacity("VC0") == 0

    def test_unknown_route_raises_lookup(self, fabric):
        from repro.core.table import LookupError_
        with pytest.raises((KeyError, LookupError_, LookupError)):
            fabric.channel_for("bogus-msg", "local", "home")
