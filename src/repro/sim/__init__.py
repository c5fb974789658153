"""Table-driven protocol simulator.

The debugged controller tables are executable: :func:`models.step` fires
one transition of a quad topology — nodes, directories, memories, I/O
controllers and finite virtual channels routed by a channel assignment
V — driving every controller *from its generated table* (the whole
point of the paper's methodology — the artifact that was verified is the
artifact that runs).  The :class:`Simulator` schedules and times those
steps; the bounded explorer enumerates them.

A controller consumes an input message only when every output channel the
transition requires has free space; with capacity-1 channels and the
Figure 4 schedule this reproduces the paper's deadlock dynamically, and
the monitor reports the channel wait-for cycle.
"""

from .channel import ChannelFabric
from .system import SimConfig, SimResult, Simulator
from .trace import render_sequence, transaction_slice
from .workloads import (
    IO_OPS,
    ensure_recorder,
    figure2_scenario,
    figure4_scenario,
    guided_workload,
    random_workload,
    Workload,
    WorkloadOp,
)

__all__ = [
    "ChannelFabric",
    "SimConfig",
    "SimResult",
    "Simulator",
    "Workload",
    "WorkloadOp",
    "IO_OPS",
    "ensure_recorder",
    "figure2_scenario",
    "figure4_scenario",
    "guided_workload",
    "random_workload",
    "render_sequence",
    "transaction_slice",
]
