"""Tests for the sequence-diagram trace renderer."""

from repro.sim import figure2_scenario
from repro.sim.system import TraceEvent
from repro.sim.trace import render_sequence, transaction_slice


def ev(msg, src, dst, addr="X", step=0, seq=1):
    return TraceEvent(step, seq, msg, src, dst, addr, "VC0")


class TestSlice:
    def test_filters_by_address(self):
        events = [ev("read", "node:0.0", "dir:0", addr="A"),
                  ev("read", "node:0.0", "dir:0", addr="B")]
        assert len(transaction_slice(events, "A")) == 1


class TestRender:
    def test_empty(self):
        assert render_sequence([]) == "(no messages)"

    def test_header_contains_endpoints(self):
        text = render_sequence([ev("read", "node:0.0", "dir:0")])
        header = text.splitlines()[0]
        assert "node:0.0" in header and "dir:0" in header

    def test_numbered_arcs(self):
        events = [ev("read", "node:0.0", "dir:0"),
                  ev("cdata", "dir:0", "node:0.0")]
        text = render_sequence(events)
        assert "1 read(X)" in text and "2 cdata(X)" in text

    def test_arrow_direction(self):
        events = [ev("read", "node:0.0", "dir:0"),
                  ev("cdata", "dir:0", "node:0.0")]
        lines = render_sequence(events).splitlines()
        assert lines[2].rstrip().endswith(">")   # left-to-right
        assert lines[3].lstrip().startswith("<")  # right-to-left

    def test_nodes_column_before_directory(self):
        text = render_sequence([ev("cdata", "dir:0", "node:1.0")])
        header = text.splitlines()[0]
        assert header.index("node:1.0") < header.index("dir:0")

    def test_figure2_diagram(self, system):
        workload = figure2_scenario(system)
        result = workload.run()
        text = render_sequence(result.trace, addr="X")
        assert "1 readex(X)" in text
        assert "sinv(X)" in text and "mread(X)" in text
        # The diagram mentions every participant of Figure 2.
        header = text.splitlines()[0]
        for ep in ("node:1.0", "node:0.1", "dir:0", "mem:0"):
            assert ep in header


class TestOfflineReplay:
    def test_recorded_stream_renders_like_the_live_trace(self, system,
                                                         tmp_path):
        """The documented recipe (docs/OBSERVABILITY.md): a
        ``simulate --trace-out`` stream, read back through
        ``events_from_telemetry``, draws the same diagram as the run's
        in-memory trace."""
        from repro.cli import main
        from repro.sim.trace import events_from_telemetry
        from repro.telemetry import read_jsonl

        path = tmp_path / "events.jsonl"
        assert main(["simulate", "--workload", "fig2", "--assignment",
                     "v5d", "--trace-out", str(path), "--quiet"]) == 0
        replayed = events_from_telemetry(read_jsonl(str(path)))
        live = figure2_scenario(system, assignment="v5d").run().trace
        assert replayed and replayed == list(live)
        assert render_sequence(replayed) == render_sequence(live)
        assert (render_sequence(replayed, addr="X")
                == render_sequence(live, addr="X"))
