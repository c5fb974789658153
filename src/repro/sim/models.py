"""The transition relation: one table-driven step over a state tuple.

A *state* is everything that determines future protocol behaviour, as
one nested tuple ``(channels, dirs, nodes, ios)``:

* ``channels`` — ``((vc, dst_quad), envelopes)`` for every non-empty
  channel instance, sorted by key; an envelope is ``(msg, src, dst,
  addr, src_role, dst_role)`` and the tuple keeps FIFO order;
* ``dirs`` — ``(quad, lines, busy)`` per quad in quad order: directory
  entries ``(addr, st, pv)`` and busy-directory entries ``(addr, st,
  pv, requester)``, both sorted by address, ``pv`` a sorted tuple of
  node ids;
* ``nodes`` — ``(nid, cache, miss, wb, cpu_ops)`` sorted by node id:
  the cached lines ``(addr, st)`` (``I`` lines absent), the miss
  register and the writeback buffer ``(pend, addr, cache_req,
  issue_linest, retry)``, and the queued processor operations;
* ``ios`` — ``(quad, iost, pend_op, pend_addr, retry, dev_ops)`` per
  quad in quad order.

:func:`step` fires one move — deliver a channel head, advance a
processor or device operation, re-issue a retried request, or inject a
fresh processor operation — and returns the successor state plus the
step's :class:`Effects`.  Every transition is a row of a generated
controller table: the step computes a row's input columns, looks the
row up through the table mapping it is given — the system's compiled
:class:`~repro.core.kernel.KernelTable` objects, or the SQL-backed
:class:`~repro.core.table.ControllerTable` objects the parity tests
pass — and applies its outputs.  A
missing row is a protocol hole and raises :class:`SimProtocolError`.

A transition commits only when every output channel instance has room
for every message it emits; the input message occupies its slot until
then.  A refused commit returns no successor, and its effects name the
channels that were full.

Each move reads one component besides the channels — a directory line
and its busy entry, a node, an I/O controller, or nothing but the
envelope at a memory — and everything it does there is a function of
that *footprint*.  :func:`step` splits every handler accordingly: a
pure local part, remembered per footprint in the caller's
:class:`StepMemo`, and the shared commit, which reads channel occupancy
and runs every time.  Retry timers are a bit per register: the
explorer treats a set bit as immediately due, the simulator keeps the
deadlines beside the state.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from ..core.table import LookupError_, NoMatchError
from ..protocols import messages as M
from ..protocols import states as S
from .channel import ChannelFabric

__all__ = [
    "SimProtocolError",
    "Network",
    "Effects",
    "FREE",
    "StepMemo",
    "step",
    "initial_state",
    "preset_line",
    "queue_op",
    "queue_dev",
    "cache_line",
    "dir_line",
    "pending_work",
    "coherence_violation",
    "directory_violation",
    "quad_of",
    "abstract_pv",
]


class SimProtocolError(RuntimeError):
    """The generated tables have no transition for a reachable situation."""


def quad_of(endpoint: str) -> int:
    """Endpoint ids are ``node:<quad>.<idx>``, ``dir:<quad>``, ``mem:<quad>``."""
    kind, rest = endpoint.split(":", 1)
    if kind == "node":
        return int(rest.split(".", 1)[0])
    return int(rest)


def abstract_pv(pv) -> str:
    """Abstract a concrete sharer set to the table encoding zero/one/gone."""
    if not pv:
        return S.PV_ZERO
    if len(pv) == 1:
        return S.PV_ONE
    return S.PV_GONE


class Network:
    """The fixed facts a step reads beside the state: channel routing
    and capacities (V), the home quad of every line, and where each
    node's entry sits in the state's node tuple."""

    def __init__(self, fabric: ChannelFabric, n_quads: int,
                 node_ids: Iterable[str], home_map=None) -> None:
        self.fabric = fabric
        self.n_quads = n_quads
        self.home_map = dict(home_map or {})
        self.node_pos = {nid: i for i, nid in enumerate(sorted(node_ids))}

    def home(self, addr: str) -> int:
        if addr in self.home_map:
            return self.home_map[addr]
        return sum(addr.encode()) % self.n_quads


class Effects:
    """What a step did besides changing the state.

    ``rows`` and the ``stalls`` count are recorded whenever a row is
    looked up, even if the commit is then refused; everything else only
    when the step commits."""

    __slots__ = ("rows", "sends", "blocked", "counts", "retry", "written",
                 "device")

    def __init__(self) -> None:
        self.rows: list = []      # (table, rowid) per lookup
        self.sends: list = []     # (msg, src, dst, addr, (vc, dq)) per output
        self.blocked: list = []   # channel keys without room for the outputs
        self.counts: list = []    # (endpoint, statistic) increments
        #: (endpoint, register) whose retry bit this step set; the
        #: register is 0 (miss) or 1 (writeback) at a node, 0 at an IO
        self.retry: Optional[tuple] = None
        self.written: Optional[str] = None   # line written to memory
        self.device: Optional[tuple] = None  # (quad, devmsg, addr)


#: a register holding no transaction.
FREE = ("none", None, None, None, False)

#: cache requests held in the miss register (the rest use the
#: writeback buffer).
_MISS_REQS = ("miss_rd", "miss_wr")

_SNOOPS = ("sinv", "sread")


# -- state construction and queries --------------------------------------------
def initial_state(node_ids: Iterable[str], n_quads: int) -> tuple:
    """Empty channels, directories, caches and controllers."""
    return (
        (),
        tuple((q, (), ()) for q in range(n_quads)),
        tuple((nid, (), FREE, FREE, ()) for nid in sorted(node_ids)),
        tuple((q, "idle", None, None, False, ()) for q in range(n_quads)),
    )


def _find(entries: tuple, addr: str):
    for entry in entries:
        if entry[0] == addr:
            return entry
    return None


def _put(entries: tuple, addr: str, entry) -> tuple:
    """``entries`` with ``addr``'s entry replaced (dropped for None)."""
    out = [e for e in entries if e[0] != addr]
    if entry is not None:
        out.append(entry)
        out.sort()
    return tuple(out)


def _at(items: tuple, pos: int, item) -> tuple:
    return items[:pos] + (item,) + items[pos + 1:]


def _line(cache: tuple, addr: str) -> str:
    entry = _find(cache, addr)
    return entry[1] if entry else "I"


def _set_line(cache: tuple, addr: str, st: Optional[str]) -> tuple:
    if st is None:
        return cache
    return _put(cache, addr, None if st == "I" else (addr, st))


def cache_line(state: tuple, net: Network, nid: str, addr: str) -> str:
    """A node's cache state for a line (``I`` when absent)."""
    return _line(state[2][net.node_pos[nid]][1], addr)


def dir_line(state: tuple, quad: int, addr: str) -> tuple[str, set]:
    """A directory's entry for a line: ``(state, sharer set)``."""
    entry = _find(state[1][quad][1], addr)
    return (entry[1], set(entry[2])) if entry else (S.DIR_I, set())


def preset_line(state: tuple, net: Network, addr: str, dirst: str,
                sharers: dict[str, str]) -> tuple:
    """Install a coherent starting configuration of one line: the
    directory entry at its home quad and the sharers' cache states."""
    channels, dirs, nodes, ios = state
    quad, lines, busy = dirs[net.home(addr)]
    entry = (None if dirst == S.DIR_I
             else (addr, dirst, tuple(sorted(sharers))))
    dirs = _at(dirs, quad, (quad, _put(lines, addr, entry), busy))
    for nid, st in sharers.items():
        pos = net.node_pos[nid]
        n = nodes[pos]
        nodes = _at(nodes, pos, (n[0], _set_line(n[1], addr, st)) + n[2:])
    return (channels, dirs, nodes, ios)


def queue_op(state: tuple, pos: int, op: str, addr: str) -> tuple:
    """Append a processor operation to the node at ``pos``."""
    channels, dirs, nodes, ios = state
    n = nodes[pos]
    return (channels, dirs,
            _at(nodes, pos, n[:4] + (n[4] + ((op, addr),),)), ios)


def queue_dev(state: tuple, quad: int, op: str, addr: str) -> tuple:
    """Append a device-initiated operation to a quad's I/O controller."""
    channels, dirs, nodes, ios = state
    io = ios[quad]
    return (channels, dirs, nodes,
            _at(ios, quad, io[:5] + (io[5] + ((op, addr),),)))


# -- checks ---------------------------------------------------------------------
def pending_work(state: tuple) -> bool:
    """Whether anything already started still has to finish: messages
    in flight, outstanding or retried transactions, queued operations."""
    channels, dirs, nodes, ios = state
    if channels:
        return True
    for nid, cache, miss, wb, cpu_ops in nodes:
        if cpu_ops or miss[0] != "none" or wb[0] != "none" \
                or miss[4] or wb[4]:
            return True
    for quad, iost, pend_op, pend_addr, retry, dev_ops in ios:
        if iost != "idle" or retry or dev_ops:
            return True
    return False


def coherence_violation(state: tuple,
                        fwd: Optional[str] = None) -> Optional[str]:
    """Single-writer/multiple-reader: never two owners of a line, and
    never an owner coexisting with shared copies.

    ``fwd`` is the family member's forwarder state (MOESI ``O``, MESIF
    ``F``): it counts as a shared copy, may coexist with ``S`` holders
    but never with an exclusive owner, and is unique per line.
    """
    holders: dict[str, list[tuple[str, str]]] = {}
    for nid, cache, miss, wb, cpu_ops in state[2]:
        for addr, st in cache:
            holders.setdefault(addr, []).append((nid, st))
    for addr, hs in sorted(holders.items()):
        owners = [nid for nid, st in hs if st in ("M", "E")]
        sharers = [nid for nid, st in hs
                   if st == "S" or (fwd is not None and st == fwd)]
        if len(owners) > 1:
            return f"line {addr}: multiple owners {sorted(owners)}"
        if owners and sharers:
            return (f"line {addr}: owner {owners[0]} coexists with "
                    f"sharers {sorted(sharers)}")
        if fwd is not None:
            forwarders = [nid for nid, st in hs if st == fwd]
            if len(forwarders) > 1:
                return (f"line {addr}: multiple forwarders ({fwd}) "
                        f"{sorted(forwarders)}")
    return None


def directory_violation(state: tuple,
                        home: Callable[[str], int]) -> Optional[str]:
    """Directory/cache agreement, for a state with nothing in flight.

    The busy directory must be empty.  The presence vector may
    *overcount* (a node answering a snoop from its victim buffer stays
    tracked until the next invalidate — the standard conservative
    directory) but must never undercount, and ownership must be tracked
    exactly.
    """
    channels, dirs, nodes, ios = state
    dir_lines: dict[str, tuple[str, frozenset]] = {}
    for quad, lines, busy in dirs:
        if busy:
            addrs = sorted(a for a, *_ in busy)
            return f"dir:{quad} still busy on {addrs} at quiescence"
        for addr, st, pv in lines:
            if home(addr) == quad:
                dir_lines[addr] = (st, frozenset(pv))
    cached: dict[str, dict[str, str]] = {}
    for nid, cache, miss, wb, cpu_ops in nodes:
        for addr, st in cache:
            cached.setdefault(addr, {})[nid] = st
    for addr in sorted(cached):
        dirst, pv = dir_lines.get(addr, (S.DIR_I, frozenset()))
        holders = set(cached[addr])
        if not holders <= pv:
            return (f"line {addr}: directory pv {sorted(pv)} misses cached "
                    f"copies {sorted(holders - pv)}")
        owners = [nid for nid, st in cached[addr].items() if st in ("M", "E")]
        if owners and dirst != "MESI":
            return (f"line {addr}: owned by {sorted(owners)} but directory "
                    f"says {dirst}")
        if dirst == "MESI" and owners and set(owners) != pv:
            return (f"line {addr}: directory owner {sorted(pv)} != cache "
                    f"owner {sorted(owners)}")
    return None


# -- the step -------------------------------------------------------------------
class StepMemo:
    """Local transitions already worked out, keyed by their footprint.

    A handler's local part depends only on what it reads: the move or
    the delivered envelope, plus the addressed directory line and busy
    entry, the node, the IO controller, or the memory's refresh window.
    From that footprint it yields the rows it looks up, the messages it
    emits and their channel instances, its counts and timer effects, and
    its component's next value (for a protocol hole, the error).  The
    memo maps footprints to those outcomes, so a transition met again in
    another global state costs one dict probe.  Only :func:`_commit`
    runs on every step, because whether the outputs fit reads the
    channels' occupancy.

    Entries hold for the one (tables, network) pair they were computed
    against, so a memo must not outlive that pair: each exploration run
    owns one.  The simulator steps without one: it queues its operations
    up front, so its footprints rarely repeat and a memo costs more than
    it saves.
    """

    __slots__ = ("entries", "hits", "misses")

    def __init__(self) -> None:
        self.entries: dict = {}
        self.hits = 0
        self.misses = 0

    def store(self, key: tuple, local: "_Local") -> None:
        self.misses += 1
        self.entries[key] = local


#: errors that mean "the tables have no row for this reachable input".
_HOLES = (SimProtocolError, LookupError_)


class _Local:
    """A handler's outcome as a function of its footprint.

    ``rows`` are recorded whenever the handler is reached.  With
    ``commit`` set, the outputs (``sends``, placed as ``queue`` with at
    most ``limits`` messages already queued per bounded channel) must
    fit; ``late_rows``/``late_hole`` and everything below apply only
    once they did.  Without a commit, ``counts`` apply either way and
    ``enabled`` says whether the move has a successor.
    """

    __slots__ = ("hole", "rows", "enabled", "commit", "sends", "queue",
                 "limits", "late_rows", "late_hole", "counts", "retry",
                 "written", "device", "next")

    def __init__(self, rows=(), *, enabled=True, outputs=None, next=None,
                 counts=(), retry=None, written=None, device=None,
                 late_rows=(), late_hole=None, hole=None) -> None:
        self.hole = hole
        self.rows = tuple(rows)
        self.enabled = enabled
        self.commit = outputs is not None
        self.sends, self.queue, self.limits = outputs or ((), (), ())
        self.late_rows = tuple(late_rows)
        self.late_hole = late_hole
        self.counts = tuple(counts)
        self.retry = retry
        self.written = written
        self.device = device
        self.next = next


#: a move that cannot fire here, decided before any lookup.
_DISABLED = _Local(enabled=False)


def _outputs(outs: list, net: Network) -> tuple:
    """``(sends, queue, limits)`` of envelopes ``outs``: the sends as
    :attr:`Effects.sends` lists them, each envelope with its channel
    instance, and per bounded instance the most messages it may already
    hold for all of them to fit."""
    fabric = net.fabric
    queue = []
    need: dict = {}
    for env in outs:
        key = (fabric.channel_for(env[0], env[4], env[5]), quad_of(env[2]))
        queue.append((key, env))
        need[key] = need.get(key, 0) + 1
    limits = []
    for key, n in need.items():
        cap = fabric.capacity(key[0])
        if cap is not None:
            limits.append((key, cap - n))
    sends = tuple((env[0], env[1], env[2], env[3], key) for key, env in queue)
    return sends, tuple(queue), tuple(limits)


def _hole(exc: Exception) -> tuple:
    return (type(exc), exc.args)


def _local(memo: Optional[StepMemo], key: tuple, handler,
           *args) -> _Local:
    """``handler(*args)``, looked up by footprint ``key`` first."""
    if memo is None:
        return handler(*args)
    local = memo.entries.get(key)
    if local is not None:
        memo.hits += 1
        return local
    try:
        local = handler(*args)
    except _HOLES as exc:
        memo.store(key, _Local(hole=_hole(exc)))
        raise
    memo.store(key, local)
    return local


def _fire(channels: tuple, local: _Local, fx: "Effects",
          pop: Optional[tuple] = None) -> Optional[tuple]:
    """Apply ``local`` to the step: the channels afterwards, or None when
    the move has no successor."""
    if local.hole is not None:
        cls, args = local.hole
        raise cls(*args)
    fx.rows.extend(local.rows)
    if local.commit:
        fx.sends.extend(local.sends)
        channels = _commit(channels, local, fx, pop)
        if channels is None:
            return None
        if local.late_hole is not None:
            cls, args = local.late_hole
            raise cls(*args)
        fx.rows.extend(local.late_rows)
    fx.counts.extend(local.counts)
    fx.retry = local.retry
    fx.written = local.written
    fx.device = local.device
    return channels if local.enabled else None


def step(state: tuple, move: tuple, tables, net: Network,
         refresh: bool = False,
         memo: Optional[StepMemo] = None) -> tuple[Optional[tuple], Effects]:
    """Fire one move; ``(successor, effects)``, the successor ``None``
    when the move is disabled or its commit is refused.

    Moves: ``("deliver", vc, dst_quad)``, ``("cpu", nid)``,
    ``("inject", nid, op, addr)``, ``("reissue", nid[, register])`` (the
    first retried register unless one is named), ``("reissue_io",
    quad)`` and ``("dev", quad)``.  ``refresh`` puts every memory bank
    in its refresh window, where the table's stall row holds requests.
    ``memo`` is the caller's :class:`StepMemo` for this ``tables`` and
    ``net``; without one the step computes afresh.
    """
    fx = Effects()
    kind = move[0]
    if kind == "deliver":
        return _deliver(state, (move[1], move[2]), tables, net, refresh,
                        fx, memo), fx
    if kind in _NODE_MOVES:
        pos = net.node_pos[move[1]]
        node = state[2][pos]
        local = _local(memo, (move, node), _NODE_MOVES[kind], move, node,
                       tables, net)
        channels = _fire(state[0], local, fx)
        if channels is None:
            return None, fx
        return _with_node(state, pos, local.next, channels), fx
    if kind in _IO_MOVES:
        quad = move[1]
        io = state[3][quad]
        local = _local(memo, (move, io), _IO_MOVES[kind], move, io, tables,
                       net)
        channels = _fire(state[0], local, fx)
        if channels is None:
            return None, fx
        return _with_io(state, quad, local.next, channels), fx
    raise ValueError(f"unknown move kind {kind!r}")


def _commit(channels: tuple, local: _Local, fx: Effects,
            pop: Optional[tuple] = None) -> Optional[tuple]:
    """The channels after popping ``pop``'s head and queueing ``local``'s
    outputs, or None (with ``fx.blocked`` set) when one does not fit."""
    queued = dict(channels)
    for key, most in local.limits:
        if len(queued.get(key, ())) > most:
            fx.blocked.append(key)
    if fx.blocked:
        return None
    if pop is not None:
        rest = queued[pop][1:]
        if rest:
            queued[pop] = rest
        else:
            del queued[pop]
    for key, env in local.queue:
        queued[key] = queued.get(key, ()) + (env,)
    return tuple(sorted(queued.items()))


def _record(rows: list, table, rowid: int) -> None:
    rows.append((table.schema.name, rowid))


def _cache_row(tables, nid: str, op: str, line: str,
               fillmode: Optional[str], rows: list) -> dict:
    table = tables["C"]
    try:
        rowid, row = table.lookup_id(op=op, cachest=line, fillmode=fillmode)
    except NoMatchError as e:
        raise SimProtocolError(
            f"{nid}: cache has no transition for op={op} "
            f"state={line} fillmode={fillmode}"
        ) from e
    _record(rows, table, rowid)
    return row


def _request_row(tables, nid: str, cache_req: str, linest: str,
                 rows: list) -> dict:
    """Node-controller row for a cache-originated request.

    On re-issue after a retry the pending register is already occupied
    by this very transaction, so the lookup constrains everything except
    ``pend``.  Misses re-derive from the *current* line state (an
    upgrade whose line has since been invalidated must become a
    readex); writebacks use the state captured into the victim buffer.
    """
    table = tables["N"]
    matches = table._match({
        "inmsg": cache_req,
        "inmsgsrc": "cache",
        "inmsgdst": "local",
        "linest": linest,
    })
    if len(matches) != 1:
        raise SimProtocolError(
            f"{nid}: {len(matches)} node rows for cache request "
            f"{cache_req} with line state {linest}"
        )
    rowid, row = matches[0]
    _record(rows, table, rowid)
    return row


def _request(row: dict, src: str, addr: str, net: Network) -> tuple:
    """The request envelope a node or IO row sends to the line's home."""
    return (row["netmsg"], src, f"dir:{net.home(addr)}", addr,
            row["netmsgsrc"], row["netmsgdst"])


def _io_row(tables, quad: int, inmsg: str, src: str, dst: str, iost,
            rows: list) -> dict:
    table = tables["IO"]
    try:
        rowid, row = table.lookup_id(inmsg=inmsg, inmsgsrc=src,
                                     inmsgdst=dst, iost=iost)
    except NoMatchError as e:
        raise SimProtocolError(
            f"io:{quad}: no transition for {inmsg} (iost={iost})"
        ) from e
    _record(rows, table, rowid)
    return row


def _register_for(miss: tuple, wb: tuple, addr: str) -> Optional[int]:
    """The register (0 miss, 1 writeback) tracking ``addr``, if any."""
    if miss[1] == addr and miss[0] != "none":
        return 0
    if wb[1] == addr and wb[0] != "none":
        return 1
    return None


def _with_node(state: tuple, pos: int, node: tuple,
               channels: Optional[tuple] = None) -> tuple:
    return (state[0] if channels is None else channels, state[1],
            _at(state[2], pos, node), state[3])


def _with_io(state: tuple, quad: int, io: tuple,
             channels: Optional[tuple] = None) -> tuple:
    return (state[0] if channels is None else channels, state[1], state[2],
            _at(state[3], quad, io))


# -- processor and device side ---------------------------------------------------
# Each handler below is a local part: it reads the move and one
# component and returns a :class:`_Local` whose ``next`` is that
# component's next value.
def _cpu(move, node, tables, net) -> _Local:
    """Progress on a node's oldest processor operation (``inject``
    queues the move's operation first)."""
    nid, cache, miss, wb, cpu_ops = node
    if move[0] == "inject":
        cpu_ops = cpu_ops + ((move[2], move[3]),)
    if not cpu_ops:
        return _DISABLED
    op, addr = cpu_ops[0]
    line = _line(cache, addr)
    if op == "evict" and line == "I":
        # Nothing to victimize (the line left the cache earlier): a
        # workload convenience, not a protocol transition.
        return _Local(next=(nid, cache, miss, wb, cpu_ops[1:]))
    if _register_for(miss, wb, addr) is not None:
        return _DISABLED  # a transaction on this line is already in flight
    rows: list = []
    crow = _cache_row(tables, nid, op, line, None, rows)
    nodemsg = crow["nodemsg"]
    cache = _set_line(cache, addr, crow["nxtst"])
    if nodemsg is None:
        # Pure cache hit (or silent state change).
        return _Local(rows, counts=((nid, "hits"), (nid, "ops")),
                      next=(nid, cache, miss, wb, cpu_ops[1:]))
    idx = 0 if nodemsg in _MISS_REQS else 1
    reg = (miss, wb)[idx]
    if reg[0] != "none":
        return _Local(rows, enabled=False)
    nrow = _request_row(tables, nid, nodemsg, line, rows)
    outputs = _outputs([_request(nrow, nid, addr, net)], net)
    reg = (nrow["nxtpend"], addr, nodemsg, line, reg[4])
    regs = (reg, wb) if idx == 0 else (miss, reg)
    return _Local(rows, outputs=outputs,
                  counts=((nid, "ops"),
                          (nid, "misses" if idx == 0 else "writebacks")),
                  next=(nid, cache, *regs, cpu_ops[1:]))


def _reissue(move, node, tables, net) -> _Local:
    """Re-issue a retried request."""
    nid, cache, miss, wb, cpu_ops = node
    idx = move[2] if len(move) > 2 else None
    if idx is None:
        idx = 0 if miss[4] else 1
    reg = (miss, wb)[idx]
    if not reg[4]:
        return _DISABLED
    rows: list = []
    linest = _line(cache, reg[1]) if idx == 0 else reg[3]
    nrow = _request_row(tables, nid, reg[2], linest, rows)
    outputs = _outputs([_request(nrow, nid, reg[1], net)], net)
    reg = (nrow["nxtpend"],) + reg[1:4] + (False,)
    regs = (reg, wb) if idx == 0 else (miss, reg)
    return _Local(rows, outputs=outputs, next=(nid, cache, *regs, cpu_ops))


def _reissue_io(move, io, tables, net) -> _Local:
    q, iost, pend_op, pend_addr, retry, dev_ops = io
    if not retry:
        return _DISABLED
    rows: list = []
    row = _io_row(tables, q, pend_op, "dev", "local", "idle", rows)
    outputs = _outputs([_request(row, f"io:{q}", pend_addr, net)], net)
    return _Local(rows, outputs=outputs,
                  next=(q, iost, pend_op, pend_addr, False, dev_ops))


def _dev(move, io, tables, net) -> _Local:
    """Progress on an I/O controller's oldest device operation: one
    outstanding I/O transaction at a time; interrupts complete locally."""
    q, iost, pend_op, pend_addr, retry, dev_ops = io
    if not dev_ops:
        return _DISABLED
    op, addr = dev_ops[0]
    rows: list = []
    if op == "dev_intr":
        row = _io_row(tables, q, "dev_intr", "dev", "local", iost, rows)
        return _Local(rows, device=(q, row["devmsg"], addr),
                      counts=((f"io:{q}", "intrs"),),
                      next=(q, iost, pend_op, pend_addr, retry, dev_ops[1:]))
    if iost != "idle":
        return _DISABLED
    row = _io_row(tables, q, op, "dev", "local", "idle", rows)
    outputs = _outputs([_request(row, f"io:{q}", addr, net)], net)
    return _Local(rows, outputs=outputs,
                  counts=((f"io:{q}", "reads" if op == "io_read"
                           else "writes"),),
                  next=(q, row["nxtiost"], op, addr, retry, dev_ops[1:]))


_NODE_MOVES = {"cpu": _cpu, "inject": _cpu, "reissue": _reissue}
_IO_MOVES = {"reissue_io": _reissue_io, "dev": _dev}


# -- network side ------------------------------------------------------------------
def _env_str(env: tuple) -> str:
    return f"{env[0]}({env[3]}) {env[1]}->{env[2]}"


def _deliver(state, key, tables, net, refresh, fx, memo) -> Optional[tuple]:
    """Consume the head of one channel instance at its destination."""
    for k, envs in state[0]:
        if k == key:
            break
    else:
        return None
    env = envs[0]
    kind, _, rest = env[2].partition(":")
    if kind == "dir":
        quad = int(rest)
        channels, dirs, nodes, ios = state
        _, lines, busy = dirs[quad]
        addr = env[3]
        entry = _find(lines, addr)
        b = _find(busy, addr)
        local = _local(memo, (env, entry, b), _at_directory, env, quad,
                       entry, b, tables, net)
        channels = _fire(channels, local, fx, key)
        if channels is None:
            return None
        new_entry, new_b = local.next
        if new_entry != entry:
            lines = _put(lines, addr, new_entry)
        if new_b != b:
            busy = _put(busy, addr, new_b)
        return (channels, _at(dirs, quad, (quad, lines, busy)), nodes, ios)
    if kind == "node":
        pos = net.node_pos[env[2]]
        node = state[2][pos]
        local = _local(memo, (env, node), _at_node, env, node, tables, net)
        channels = _fire(state[0], local, fx, key)
        if channels is None:
            return None
        return _with_node(state, pos, local.next, channels)
    if kind == "mem":
        local = _local(memo, (env, refresh), _at_memory, env, int(rest),
                       refresh, tables, net)
        channels = _fire(state[0], local, fx, key)
        if channels is None:
            return None
        return (channels,) + state[1:]
    if kind == "io":
        quad = int(rest)
        io = state[3][quad]
        local = _local(memo, (env, io), _at_io, env, io, tables, net)
        channels = _fire(state[0], local, fx, key)
        if channels is None:
            return None
        return _with_io(state, quad, local.next, channels)
    raise SimProtocolError(f"unroutable destination {env[2]!r}")


def _at_directory(env, quad, entry, b, tables, net) -> _Local:
    """Table D at a quad's directory and busy directory; ``next`` is the
    line's ``(directory entry, busy entry)``, None where absent."""
    msg, src, _, addr, src_role, _ = env
    dirst, pv = (entry[1], entry[2]) if entry else (S.DIR_I, ())
    bdirst, bpv = (b[1], b[2]) if b else (S.DIR_I, ())
    table = tables["D"]
    try:
        rowid, row = table.lookup_id(
            inmsg=msg,
            inmsgsrc=src_role,
            inmsgdst="home",
            inmsgres="reqq" if M.is_request(msg) else "respq",
            dirst=dirst,
            dirpv=abstract_pv(pv),
            dirlookup="miss" if dirst == S.DIR_I else "hit",
            bdirst=bdirst,
            bdirpv=abstract_pv(bpv),
            bdirlookup="miss" if bdirst == S.DIR_I else "hit",
            reqinpv="yes" if src in pv else "no",
        )
    except NoMatchError as e:
        raise SimProtocolError(
            f"directory {quad}: no transition for {_env_str(env)} "
            f"(dirst={dirst}, pv={sorted(pv)}, bdirst={bdirst}, "
            f"bpv={sorted(bpv)})"
        ) from e
    rows: list = []
    _record(rows, table, rowid)

    # The requester a completion/retry is addressed to.
    requester = b[3] if b is not None and row["locmsg"] != "retry" else src
    me = f"dir:{quad}"
    outs = []
    if row["locmsg"] is not None:
        outs.append((row["locmsg"], me, requester, addr,
                     row["locmsgsrc"], row["locmsgdst"]))
    if row["remmsg"] is not None:
        targets = sorted(set(pv) - {requester})
        if not targets:
            raise SimProtocolError(
                f"directory {quad}: snoop {row['remmsg']} for {addr} "
                f"with no targets (pv={sorted(pv)}, requester={requester})"
            )
        outs.extend((row["remmsg"], me, t, addr, row["remmsgsrc"],
                     row["remmsgdst"]) for t in targets)
    if row["memmsg"] is not None:
        outs.append((row["memmsg"], me, f"mem:{quad}", addr,
                     row["memmsgsrc"], row["memmsgdst"]))
    outputs = _outputs(outs, net)

    # Presence-vector operation, applied to the busy entry's saved
    # sharer set when one exists (the entry migrated to the busy
    # directory), otherwise to the live directory entry.
    base = set(b[2] if b is not None else pv)
    op = row["nxtdirpv"]
    if op == S.PV_INC:
        base.add(requester)
    elif op in (S.PV_DEC, S.PV_DREPL):
        base.discard(src)
    elif op == S.PV_REPL:
        base = {requester}
    nxtdirst = row["nxtdirst"]
    new_entry = entry
    if nxtdirst is not None:
        new_entry = (None if nxtdirst == S.DIR_I
                     else (addr, nxtdirst, tuple(sorted(base))))
    elif op is not None and entry is not None:
        new_entry = (addr, entry[1], tuple(sorted(base)))

    # Busy-directory update.
    bop = row["nxtbdirpv"]
    new_bpv: Optional[set] = None
    if bop == S.BPV_LOAD:
        new_bpv = set(pv)
    elif bop == S.BPV_LOADX:
        new_bpv = set(pv) - {requester}
    elif bop == S.BPV_DEC:
        new_bpv = set(bpv) - {src}
    elif bop == S.BPV_CLR:
        new_bpv = set()
    bpv_after = bpv if new_bpv is None else tuple(sorted(new_bpv))
    nxtb = row["nxtbdirst"]
    new_b = b
    if nxtb is not None:
        if nxtb == S.DIR_I:
            new_b = None
        elif b is None:
            new_b = (addr, nxtb, bpv_after, src)
        else:
            new_b = (addr, nxtb, bpv_after, b[3])
    elif new_bpv is not None and b is not None:
        new_b = (addr, b[1], bpv_after, b[3])
    return _Local(rows, outputs=outputs, next=(new_entry, new_b))


def _at_node(env, node, tables, net) -> _Local:
    """Table N at a node controller; a fill or invalidation drives the
    cache through table C when the transition commits."""
    msg, _, nid, addr, src_role, dst_role = env
    _, cache, miss, wb, cpu_ops = node
    idx = _register_for(miss, wb, addr)
    reg = None if idx is None else (miss, wb)[idx]
    pend = reg[0] if reg is not None else "none"
    line = _line(cache, addr)
    # Snoops also hit the victim buffer: a line evicted but whose
    # writeback/flush has not been accepted yet is still this node's
    # responsibility, answered from the buffered state; the pending
    # writeback is then cancelled (its data travels with the reply).
    snooped_buffer = msg in _SNOOPS and idx == 1 and reg[3] is not None
    table = tables["N"]
    try:
        rowid, nrow = table.lookup_id(
            inmsg=msg,
            inmsgsrc=src_role,
            inmsgdst=dst_role,
            pend=pend,
            linest=reg[3] if snooped_buffer else line,
        )
    except NoMatchError as e:
        raise SimProtocolError(
            f"{nid}: no node transition for {_env_str(env)} "
            f"(pend={pend}, linest={line})"
        ) from e
    rows: list = []
    _record(rows, table, rowid)
    outputs = _outputs([_request(nrow, nid, addr, net)]
                       if nrow["netmsg"] is not None else [], net)

    if snooped_buffer:
        # The snoop reply carries/settles the victim.
        return _Local(rows, outputs=outputs, counts=((nid, "snoops"),),
                      next=(nid, cache, miss, FREE, cpu_ops))
    late_rows: list = []
    if nrow["cachemsg"] is not None:
        try:
            crow = _cache_row(tables, nid, nrow["cachemsg"], line,
                              nrow["fillmode"], late_rows)
        except _HOLES as exc:
            # Raised only if the transition commits.
            return _Local(rows, outputs=outputs, late_hole=_hole(exc))
        cache = _set_line(cache, addr, crow["nxtst"])
    counts = []
    retry = None
    if nrow["nxtpend"] is not None and reg is not None:
        reg = (nrow["nxtpend"],) + reg[1:]
        if reg[0] == "none":
            # Transaction done: replay the processor op that missed, so
            # the store performs through the table (fill-exclusive
            # lands E; the replayed st drives the silent E -> M
            # transition).
            if idx == 0 and reg[2] == "miss_rd":
                cpu_ops = (("ld", addr),) + cpu_ops
            elif idx == 0 and reg[2] == "miss_wr":
                cpu_ops = (("st", addr),) + cpu_ops
            reg = FREE
    if nrow["reissue"] == "yes" and reg is not None:
        reg = reg[:4] + (True,)
        retry = (nid, idx)
        counts.append((nid, "retries"))
    if msg in _SNOOPS:
        counts.append((nid, "snoops"))
    if reg is not None:
        miss, wb = (reg, wb) if idx == 0 else (miss, reg)
    return _Local(rows, outputs=outputs, late_rows=late_rows, counts=counts,
                  retry=retry, next=(nid, cache, miss, wb, cpu_ops))


def _at_memory(env, quad, refresh, tables, net) -> _Local:
    """Table M at a quad's home memory controller."""
    msg, _, _, addr, src_role, dst_role = env
    table = tables["M"]
    try:
        rowid, row = table.lookup_id(
            inmsg=msg, inmsgsrc=src_role, inmsgdst=dst_role,
            inmsgres="memq", bankst="refresh" if refresh else "ready",
        )
    except NoMatchError as e:
        raise SimProtocolError(
            f"memory {quad}: no transition for {_env_str(env)}"
        ) from e
    rows: list = []
    _record(rows, table, rowid)
    if row["stall"] == "yes":
        # Hold the request while the bank refreshes.
        return _Local(rows, counts=((f"mem:{quad}", "stalls"),),
                      enabled=False)
    outs = []
    if row["outmsg"] is not None:
        outs.append((row["outmsg"], f"mem:{quad}", f"dir:{quad}", addr,
                     row["outmsgsrc"], row["outmsgdst"]))
    outputs = _outputs(outs, net)
    if row["arrayop"] == "wr":
        return _Local(rows, outputs=outputs, written=addr,
                      counts=((f"mem:{quad}", "writes"),))
    return _Local(rows, outputs=outputs, counts=((f"mem:{quad}", "reads"),))


def _at_io(env, io, tables, net) -> _Local:
    """Table IO at a quad's I/O controller: completions and retries."""
    msg, _, _, addr, src_role, dst_role = env
    q, iost, pend_op, pend_addr, retry, dev_ops = io
    rows: list = []
    row = _io_row(tables, q, msg, src_role, dst_role, iost, rows)
    device = (q, row["devmsg"], addr) if row["devmsg"] is not None else None
    if row["nxtiost"] is not None:
        iost = row["nxtiost"]
        if iost == "idle":
            pend_addr = pend_op = None
    counts = ()
    timer = None
    if row["reissue"] == "yes":
        retry = True
        timer = (f"io:{q}", 0)
        counts = ((f"io:{q}", "retries"),)
    return _Local(rows, outputs=_outputs([], net), device=device,
                  retry=timer, counts=counts,
                  next=(q, iost, pend_op, pend_addr, retry, dev_ops))
