"""Parameterized protocol-family specifications.

The generator/constraint machinery is protocol-agnostic; everything that
distinguishes MESI from MOESI from MESIF in the controller tables is a
handful of state-set parameters.  :class:`FamilySpec` captures them:

* ``cache_states`` — the per-line cache-state alphabet, most-privileged
  first.  The MESI baseline keeps the exact historical ordering
  ``("M", "E", "S", "I")`` so its generated tables stay byte-identical.
* ``dirty_states`` — states whose data differs from memory.  MOESI adds
  the Owned state ``O``: a dirty line that is simultaneously shared.
* ``forward_state`` / ``forward_dirty`` — the designated-responder state
  coexisting with ``S``: MOESI's dirty ``O``, MESIF's clean ``F``.
* ``downgrade_to`` — where a snoop read lands an owner: MESI ``M/E -> S``,
  MOESI ``M -> O`` (the dirty copy survives as Owned), MESIF ``M/E -> F``.
* ``owned_wb`` — whether evicting the forwarder needs an *acknowledged*
  writeback of dirty-shared data.  Only MOESI: the ``owb`` request and
  the 21st busy state ``Busy-wo-m`` exist only in its tables.
* ``coherent_io`` — whether devices issue coherent DMA (``ior``/``iow``).
  Disabling it drops six busy states and the I/O transaction flows — the
  busy-state-count axis.
* ``reply_channel`` — the virtual channel carrying snoop replies — the
  virtual-channel-count axis (``mesi-vc6`` splits them onto VC6).

The directory abstraction is deliberately shared across the family: the
directory still tracks I / SI / MESI (exactly one exclusive owner) plus
the {zero, one, gone} presence vector, because O/F holders are *tracked
sharers* from the directory's point of view.  Only MOESI's owned
writeback adds directory transitions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .. import states as S

__all__ = [
    "FamilySpec",
    "MESI",
    "MOESI",
    "MESIF",
    "SPECS",
    "get_spec",
    "busy_states",
    "busy_names",
    "bdir_states",
    "busy_awaiting",
    "busy_pv_domain",
    "BUSY_STATE_HELPER_TABLE",
]

#: Helper table (created by the system assembly) listing every busy state
#: of the member, used by the coverage invariants.
BUSY_STATE_HELPER_TABLE = "busy_state_names"


@dataclass(frozen=True)
class FamilySpec:
    """All parameters distinguishing one protocol-family member."""

    key: str
    title: str
    cache_states: tuple = ("M", "E", "S", "I")
    dirty_states: tuple = ("M",)
    forward_state: Optional[str] = None
    forward_dirty: bool = False
    #: snoop-read downgrade targets as ((owner_state, landing_state), ...)
    downgrade_to: tuple = (("M", "S"), ("E", "S"))
    owned_wb: bool = False
    coherent_io: bool = True
    reply_channel: str = "VC2"

    # -- derived state sets (ordering follows ``cache_states``) -------------
    @property
    def upgrade_states(self) -> tuple:
        """Cache states from which a store upgrades in place (vs readex)."""
        return ("S",) + ((self.forward_state,) if self.forward_state else ())

    @property
    def clean_evict_states(self) -> tuple:
        """Non-dirty states whose eviction is a bare flush notification."""
        return tuple(s for s in self.cache_states
                     if s not in self.dirty_states and s != "I")

    @property
    def promote_states(self) -> tuple:
        """States a ``promote`` command may find the line in (S-likes, a
        silently-exclusive E, or I when a snoop squashed the upgrade)."""
        return self.upgrade_states + ("E", "I")

    @property
    def dir_request_inputs(self) -> tuple:
        reqs = ("read", "readex", "upgrade", "wb")
        if self.owned_wb:
            reqs += ("owb",)
        reqs += ("flush",)
        if self.coherent_io:
            reqs += ("ior", "iow")
        return reqs

    @property
    def dir_inputs(self) -> tuple:
        return self.dir_request_inputs + (
            "data", "mdone", "idone", "sdone", "ddata", "compl")

    @property
    def node_requests(self) -> tuple:
        """Requests the node controller can place on the network."""
        reqs = ("read", "readex", "upgrade", "wb")
        if self.owned_wb:
            reqs += ("owb",)
        return reqs + ("flush",)


#: The seed protocol.  Every field keeps the exact historical value; the
#: golden-snapshot test pins its generated tables byte-identical.
MESI = FamilySpec(key="mesi", title="MESI")

MOESI = FamilySpec(
    key="moesi",
    title="MOESI",
    cache_states=("M", "O", "E", "S", "I"),
    dirty_states=("M", "O"),
    forward_state="O",
    forward_dirty=True,
    downgrade_to=(("M", "O"), ("E", "S")),
    owned_wb=True,
)

MESIF = FamilySpec(
    key="mesif",
    title="MESIF",
    cache_states=("M", "E", "S", "F", "I"),
    forward_state="F",
    downgrade_to=(("M", "F"), ("E", "F")),
)

#: MESI with snoop replies split onto their own seventh virtual channel —
#: the virtual-channel-count axis.
MESI_VC6 = FamilySpec(key="mesi-vc6", title="MESI/VC6", reply_channel="VC6")

#: MESI without coherent DMA: the I/O controller only delivers interrupts
#: and the directory drops the six I/O busy states (20 -> 14) — the
#: busy-state-count axis.
MESI_NOIO = FamilySpec(key="mesi-noio", title="MESI/no-DMA", coherent_io=False)

SPECS: dict[str, FamilySpec] = {
    spec.key: spec for spec in (MESI, MOESI, MESIF, MESI_VC6, MESI_NOIO)
}


def get_spec(key: str) -> FamilySpec:
    """The registered :class:`FamilySpec` for ``key`` (e.g. ``moesi``);
    unknown keys raise with the list of known members."""
    try:
        return SPECS[key]
    except KeyError:
        raise KeyError(
            f"unknown protocol-family variant {key!r}; "
            f"known: {', '.join(sorted(SPECS))}"
        ) from None


# ---------------------------------------------------------------------------
# Busy-directory states, parameterized by spec
# ---------------------------------------------------------------------------

#: MOESI's owned-writeback busy state: the O holder evicted its dirty-
#: shared line; the remaining sharer set is parked in the busy entry
#: (LOADX) until memory acknowledges, then restored as SI (or dropped
#: when the owner was the last holder).
_BUSY_WO_M = S.BusyState(
    "Busy-wo-m", "owb", S.DIR_SI, "m",
    "owned writeback, awaiting memory acknowledge; holds the surviving "
    "sharer set")

#: Busy states that exist only for coherent DMA.
_IO_BUSY = ("Busy-ior-d", "Busy-iow-m", "Busy-iors-d", "Busy-iorm-s",
            "Busy-iows-s", "Busy-iowm-s")


def busy_states(spec: FamilySpec) -> tuple:
    """The busy-directory states of one family member.

    The MESI ordering is the historical one; ``Busy-wo-m`` slots in right
    after ``Busy-w-m`` (both are writeback transactions), and the I/O
    states drop out wholesale when DMA is not coherent.
    """
    out = []
    for b in S.BUSY_STATES:
        if not spec.coherent_io and b.name in _IO_BUSY:
            continue
        out.append(b)
        if b.name == "Busy-w-m" and spec.owned_wb:
            out.append(_BUSY_WO_M)
    return tuple(out)


def busy_names(spec: FamilySpec) -> tuple:
    """The names of :func:`busy_states`, in the same pinned order."""
    return tuple(b.name for b in busy_states(spec))


def bdir_states(spec: FamilySpec) -> tuple:
    """The busy-directory column domain: I (no entry) plus every busy state."""
    return (S.DIR_I,) + busy_names(spec)


def busy_awaiting(spec: FamilySpec, response: str) -> tuple:
    """Busy states in which ``response`` is a legal incoming message.

    The spec-aware analogue of :func:`repro.protocols.states.busy_awaiting`
    — identical for MESI, extended where the family member adds states or
    (for a dirty forwarder) new responders: an Owned holder answers
    ``sinv`` with ``ddata`` in every snoop-collecting busy state.
    """
    states = busy_states(spec)
    if response == "data":
        return tuple(b.name for b in states if "d" in b.pending)
    if response == "mdone":
        return tuple(b.name for b in states if "m" in b.pending)
    if response == "idone":
        return tuple(
            b.name for b in states
            if "s" in b.pending and b.txn in ("readex", "upgrade", "iow")
        )
    if response == "ddata":
        if spec.forward_state and spec.forward_dirty:
            # A dirty-shared holder may be among the snooped sharers of
            # any invalidating transaction, not just the old M/E owner.
            return tuple(
                b.name for b in states
                if "s" in b.pending and b.txn in ("readex", "upgrade", "iow")
            )
        return tuple(b.name for b in states
                     if b.name in ("Busy-xm-s", "Busy-iowm-s"))
    if response == "sdone":
        return tuple(
            b.name for b in states
            if "s" in b.pending and b.txn in ("read", "ior")
        )
    if response == "compl":
        return tuple(b.name for b in states if b.pending == "c")
    raise ValueError(f"unknown response message {response!r}")


def busy_pv_domain(spec: FamilySpec, busy: str) -> tuple:
    """Legal busy-directory presence-vector values in a busy state.

    The spec-aware analogue of
    :func:`repro.protocols.states.busy_pv_domain`; ``Busy-wo-m`` carries
    the surviving sharer set, which may well be empty (the owner was the
    only holder).
    """
    if busy == "Busy-wo-m":
        return (S.PV_ZERO, S.PV_ONE, S.PV_GONE)
    return S.busy_pv_domain(busy)
