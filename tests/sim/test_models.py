"""Unit tests for the transition relation, one controller at a time.

Each test builds a state tuple, fires moves through
:func:`repro.sim.models.step`, and reads the successor state and the
step's effects.
"""

import pytest

from repro.sim.models import (
    FREE,
    SimProtocolError,
    abstract_pv,
    cache_line,
    dir_line,
    initial_state,
    preset_line,
    quad_of,
    queue_op,
    step,
)
from repro.sim.system import SimConfig, Simulator


class TestHelpers:
    def test_quad_of_node(self):
        assert quad_of("node:2.1") == 2

    def test_quad_of_dir_and_mem(self):
        assert quad_of("dir:3") == 3
        assert quad_of("mem:0") == 0

    def test_abstract_pv(self):
        assert abstract_pv(set()) == "zero"
        assert abstract_pv({"n"}) == "one"
        assert abstract_pv({"a", "b"}) == "gone"
        assert abstract_pv({"a", "b", "c"}) == "gone"


#: three quads of two nodes; line A is homed at quad 0.
CONFIG = SimConfig(n_quads=3, nodes_per_quad=2, default_capacity=4,
                   home_map={"A": 0})
NODES = [f"node:{q}.{i}" for q in range(3) for i in range(2)]


@pytest.fixture(scope="module")
def net(system):
    return CONFIG.network(system.channel_assignments["v5d"], NODES)


@pytest.fixture(scope="module")
def tables(system):
    return system.tables


@pytest.fixture()
def state():
    return initial_state(NODES, 3)


def send(state, net, env):
    """``state`` with ``env`` at the head of its channel instance."""
    key = (net.fabric.channel_for(env[0], env[4], env[5]), quad_of(env[2]))
    channels = dict(state[0])
    channels[key] = (env,) + channels.get(key, ())
    return (tuple(sorted(channels.items())),) + state[1:], key


def deliver(state, env, tables, net, refresh=False):
    state, key = send(state, net, env)
    return step(state, ("deliver",) + key, tables, net, refresh)


def msgs(fx):
    return [s[0] for s in fx.sends]


def busy(state, addr, quad=0):
    return next((b for b in state[1][quad][2] if b[0] == addr), None)


def request(msg, src="node:1.0", addr="A"):
    return (msg, src, "dir:0", addr, "local", "home")


def reply(msg, src="mem:0", addr="A"):
    return (msg, src, "dir:0", addr, "home", "home")


class TestDirectoryModel:
    def test_initial_line_state(self, state):
        assert dir_line(state, 0, "A") == ("I", set())

    def test_preset(self, state, net):
        state = preset_line(state, net, "A", "SI", {"node:0.1": "S"})
        assert dir_line(state, 0, "A") == ("SI", {"node:0.1"})

    def test_read_miss_plan(self, state, tables, net):
        succ, fx = deliver(state, request("read"), tables, net)
        assert msgs(fx) == ["mread"]
        assert busy(succ, "A")[1] == "Busy-r-d"
        assert busy(succ, "A")[3] == "node:1.0"

    def test_readex_at_si_snoops_all_sharers(self, state, tables, net):
        state = preset_line(state, net, "A", "SI",
                            {"node:0.1": "S", "node:2.0": "S"})
        succ, fx = deliver(state, request("readex"), tables, net)
        assert sorted(msgs(fx)) == ["mread", "sinv", "sinv"]
        targets = {s[2] for s in fx.sends if s[0] == "sinv"}
        assert targets == {"node:0.1", "node:2.0"}
        assert busy(succ, "A")[2] == ("node:0.1", "node:2.0")
        assert dir_line(succ, 0, "A") == ("I", set())  # moved to busy

    def test_busy_line_retries(self, state, tables, net):
        state, _ = deliver(state, request("read"), tables, net)
        _, fx = deliver(state, request("readex", src="node:0.1"), tables, net)
        assert msgs(fx) == ["retry"]
        assert fx.sends[0][2] == "node:0.1"

    def test_completion_addressed_to_original_requester(self, state, tables,
                                                         net):
        state, _ = deliver(state, request("read", src="node:1.0"), tables,
                           net)
        _, fx = deliver(state, reply("data"), tables, net)
        assert msgs(fx)[0] == "cdata"
        assert fx.sends[0][2] == "node:1.0"

    def test_ack_rewrites_directory(self, state, tables, net):
        state, _ = deliver(state, request("read"), tables, net)
        state, _ = deliver(state, reply("data"), tables, net)
        ack = ("compl", "node:1.0", "dir:0", "A", "local", "home")
        state, _ = deliver(state, ack, tables, net)
        assert dir_line(state, 0, "A") == ("SI", {"node:1.0"})
        assert busy(state, "A") is None

    def test_unknown_situation_raises_protocol_error(self, state, tables,
                                                     net):
        bogus = ("idone", "node:0.1", "dir:0", "A", "remote", "home")
        with pytest.raises(SimProtocolError, match="no transition"):
            deliver(state, bogus, tables, net)  # idone with no busy entry


NODE = "node:0.0"


def node(state, net, nid=NODE):
    return state[2][net.node_pos[nid]]


def queue(state, net, *ops, nid=NODE):
    for op, addr in ops:
        state = queue_op(state, net.node_pos[nid], op, addr)
    return state


def cpu(state, tables, net, nid=NODE):
    return step(state, ("cpu", nid), tables, net)


def snoop(msg, addr="A"):
    return (msg, "dir:1", NODE, addr, "home", "remote")


def to_local(msg, addr="A"):
    return (msg, "dir:1", NODE, addr, "home", "local")


class TestNodeModel:
    def test_load_hit_no_messages(self, state, tables, net):
        state = preset_line(state, net, "A", "SI", {NODE: "S"})
        succ, fx = cpu(queue(state, net, ("ld", "A")), tables, net)
        assert fx.sends == []
        assert node(succ, net)[4] == () and (NODE, "hits") in fx.counts

    def test_load_miss_issues_read(self, state, tables, net):
        succ, fx = cpu(queue(state, net, ("ld", "A")), tables, net)
        assert msgs(fx) == ["read"]
        miss = node(succ, net)[2]
        assert miss[0] == "rd" and miss[1] == "A"

    def test_second_op_waits_for_register(self, state, tables, net):
        state, _ = cpu(queue(state, net, ("ld", "A"), ("st", "A")),
                       tables, net)
        succ, _ = cpu(state, tables, net)
        assert succ is None  # same-line transaction in flight

    def test_wb_uses_separate_buffer(self, state, tables, net):
        state = preset_line(state, net, "A", "MESI", {NODE: "M"})
        state = queue(state, net, ("evict", "A"), ("st", "B"))
        state, _ = cpu(state, tables, net)      # evict -> wb buffer
        assert node(state, net)[3][0] == "wbp"
        succ, fx = cpu(state, tables, net)      # concurrent store miss
        assert succ is not None and msgs(fx) == ["readex"]

    def test_evict_of_absent_line_is_noop(self, state, tables, net):
        succ, fx = cpu(queue(state, net, ("evict", "A")), tables, net)
        assert fx.sends == []
        assert node(succ, net)[4] == ()

    def test_snoop_answers_from_victim_buffer(self, state, tables, net):
        state = preset_line(state, net, "A", "MESI", {NODE: "M"})
        state, _ = cpu(queue(state, net, ("evict", "A")), tables, net)
        succ, fx = deliver(state, snoop("sinv"), tables, net)
        assert msgs(fx) == ["ddata"]             # buffered dirty data
        assert node(succ, net)[3] == FREE        # writeback cancelled

    def test_fill_replays_processor_op(self, state, tables, net):
        state, _ = cpu(queue(state, net, ("st", "A")), tables, net)
        state, fx = deliver(state, to_local("cdata"), tables, net)
        assert msgs(fx) == ["compl"]             # the acknowledgment
        assert node(state, net)[4] == (("st", "A"),)   # replayed
        assert cache_line(state, net, NODE, "A") == "E"
        # The replayed store completes through the silent E -> M upgrade.
        state, _ = cpu(state, tables, net)
        assert cache_line(state, net, NODE, "A") == "M"

    def test_retry_sets_backoff(self, system, state, tables, net):
        state, _ = cpu(queue(state, net, ("ld", "A")), tables, net)
        retried, fx = deliver(state, to_local("retry"), tables, net)
        assert fx.retry == (NODE, 0) and node(retried, net)[2][4]
        _, fx = step(retried, ("reissue", NODE), tables, net)
        assert msgs(fx) == ["read"]
        # The simulator holds the re-issue back for its backoff delay:
        # from the read outstanding (nothing in flight), a retry
        # delivered at step 10 re-issues at step 10 + reissue_delay.
        sim = Simulator(system, "v5d", CONFIG)
        sim.state, key = send(((),) + state[1:], sim.net, to_local("retry"))
        sim._channels_seen.add(key)
        sim.now = 10
        sim.step()                              # delivers the retry
        sim.now = 10 + sim.config.reissue_delay - 1
        sim.step()
        assert sim.trace == []
        sim.step()
        first = sim.trace[0]
        assert (first.step, first.msg) == (10 + sim.config.reissue_delay,
                                           "read")

    def test_upgrade_reissue_rederives_readex(self, state, tables, net):
        state = preset_line(state, net, "A", "SI", {NODE: "S"})
        state, _ = cpu(queue(state, net, ("st", "A")), tables, net)
        assert node(state, net)[2][2] == "miss_wr"
        # The line is invalidated while our upgrade is outstanding
        # (an earlier transaction's snoop).
        state, _ = deliver(state, snoop("sinv"), tables, net)
        assert cache_line(state, net, NODE, "A") == "I"
        state, _ = deliver(state, to_local("retry"), tables, net)
        _, fx = step(state, ("reissue", NODE), tables, net)
        assert msgs(fx) == ["readex"]  # no longer an upgrade


def mem(msg):
    return (msg, "dir:0", "mem:0", "A", "home", "home")


class TestMemoryModel:
    def test_mread_returns_data(self, state, tables, net):
        _, fx = deliver(state, mem("mread"), tables, net)
        assert msgs(fx) == ["data"]
        assert fx.counts == [("mem:0", "reads")]

    def test_wbmem_acknowledged_and_versioned(self, state, tables, net):
        _, fx = deliver(state, mem("wbmem"), tables, net)
        assert msgs(fx) == ["mdone"]
        assert fx.written == "A"

    def test_mwrite_posted(self, state, tables, net):
        _, fx = deliver(state, mem("mwrite"), tables, net)
        assert fx.sends == []

    def test_refresh_holds_requests(self, state, tables, net):
        succ, fx = deliver(state, mem("mread"), tables, net, refresh=True)
        assert succ is None and fx.counts == [("mem:0", "stalls")]
        succ, _ = deliver(state, mem("mread"), tables, net)
        assert succ is not None
