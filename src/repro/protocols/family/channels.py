"""Virtual-channel assignments, parameterized over the protocol family.

The three-assignment debugging history (paper sections 4.1–4.2) is
reproduced for every family member:

* ``v4`` — the initial four-channel assignment.  Directory-to-memory
  requests share VC0 with incoming requests; the analysis finds several
  cycles involving the home directory and memory controllers.
* ``v5`` — VC4 added for the directory-to-memory requests.  Exactly the
  Figure 4 deadlock remains: VC2 (responses into home) and VC4 depend on
  each other.
* ``v5d`` — the production fix: a dedicated path from the directory to
  the home memory controller for the memory requests that response
  processing generates.  Dedicated paths are unbounded and leave the
  VCG; the assignment is deadlock-free.

The family axes move two things only:

* the local-to-home request list follows ``spec.dir_request_inputs``
  (MOESI rides its ``owb`` on VC0 with the other requests; a no-DMA
  member has no ``ior``/``iow``);
* the snoop replies ride ``spec.reply_channel`` — the
  virtual-channel-count axis (``mesi-vc6`` splits them onto VC6).

Instantiated with the MESI spec this reproduces the historical
assignments exactly.
"""

from __future__ import annotations

from ...core.assignment import ChannelAssignment, VCAssignment
from .spec import FamilySpec

__all__ = ["channel_assignments", "RESPONSE_TRIGGERED_MEM"]

_L, _H, _R = "local", "home", "remote"

_SNOOPS_HR = ("sinv", "sread")
_REPLIES_RH = ("idone", "ddata", "sdone")
_RESPONSES_HL = ("cdata", "compl", "retry", "data", "nack")
_DIR_MEM = ("mread", "mwrite", "wbmem", "dwrite")
_MEM_DIR = ("data", "mdone")
_CACHE_SIDE = ("miss_rd", "miss_wr", "wb_victim", "flush_victim")
_DEV_SIDE = ("io_read", "io_write", "dev_intr")

#: Memory requests generated while *processing responses* — the ones the
#: paper's dedicated hardware path must carry (section 4.2).
RESPONSE_TRIGGERED_MEM = ("mread", "mwrite", "dwrite")


def _base(spec: FamilySpec, dir_mem_channel: dict[str, str]) -> list[VCAssignment]:
    v: list[VCAssignment] = []
    v += [VCAssignment(m, _L, _H, "VC0") for m in spec.dir_request_inputs]
    # Completion acknowledgments ride their own channel: the directory
    # sinks them unconditionally (the ack transition emits nothing), so
    # VC5 is a leaf of every VCG.
    v.append(VCAssignment("compl", _L, _H, "VC5"))
    v += [VCAssignment(m, _H, _R, "VC1") for m in _SNOOPS_HR]
    v += [VCAssignment(m, _R, _H, spec.reply_channel) for m in _REPLIES_RH]
    v += [VCAssignment(m, _H, _L, "VC3") for m in _RESPONSES_HL]
    v += [VCAssignment(m, _H, _H, dir_mem_channel[m]) for m in _DIR_MEM]
    v += [VCAssignment(m, _H, _H, "VC2") for m in _MEM_DIR]
    v += [VCAssignment(m, "cache", _L, "CPU") for m in _CACHE_SIDE]
    v += [VCAssignment(m, "dev", _L, "DEV") for m in _DEV_SIDE]
    return v


def channel_assignments(spec: FamilySpec) -> dict[str, ChannelAssignment]:
    """The three assignments of the paper's debugging history for one
    family member."""
    always_dedicated = ("CPU", "DEV")

    v4 = ChannelAssignment(
        "v4",
        _base(spec, {m: "VC0" for m in _DIR_MEM}),
        dedicated=always_dedicated,
    )
    v5 = ChannelAssignment(
        "v5",
        _base(spec, {m: "VC4" for m in _DIR_MEM}),
        dedicated=always_dedicated,
    )
    v5d = ChannelAssignment(
        "v5d",
        _base(
            spec,
            {
                m: ("PDM" if m in RESPONSE_TRIGGERED_MEM else "VC4")
                for m in _DIR_MEM
            }
        ),
        dedicated=always_dedicated + ("PDM",),
    )
    return {"v4": v4, "v5": v5, "v5d": v5d}
