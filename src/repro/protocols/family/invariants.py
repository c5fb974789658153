"""The protocol invariant suite, parameterized over the protocol family.

The ~90-invariant suite (the paper's four section-4.3 directory
invariants, structural checks on every controller table, busy-state
liveness/coverage, cross-controller interface checks), generalized with
a :class:`~.spec.FamilySpec`:

* "dirty data only from M" becomes "only from a dirty state" —
  MOESI's Owned holders legitimately emit dirty snoop replies;
* the request universe (stale-writeback nacking, request coverage, the
  node's local-role requests) follows the spec's request lists, so
  ``owb`` is covered on MOESI and DMA requests disappear on ``mesi-noio``;
* downgrade landing states follow ``spec.downgrade_to`` (MOESI's M lands
  in O, not S);
* ownership grants may ride a dirty forwarder's ``ddata`` as well as
  ``idone`` when the family member has one;
* the two DMA-transaction I/O invariants are gated on ``coherent_io``.

Instantiated with the MESI spec the suite is check-for-check equivalent
to the historical one.
"""

from __future__ import annotations

from ...core.expr import C, Or
from ...core.invariants import Invariant
from .. import messages as M
from .. import states as S
from . import spec as F
from .spec import BUSY_STATE_HELPER_TABLE, FamilySpec

__all__ = ["build_invariants", "BUSY_STATE_HELPER_TABLE"]


def _msg_group_invariants(table: str, msg: str, fields: tuple) -> list:
    """A message column and its src/dst/res columns are NULL together."""
    out = []
    for f in fields:
        out.append(Invariant(
            name=f"{table}-{msg}-{f}-consistent",
            description=f"{msg} and {f} of {table} are NULL together",
            table=table,
            violation=Or((
                C(msg).is_null() & C(f).not_null(),
                C(msg).not_null() & C(f).is_null(),
            )),
            report_columns=(msg, f),
        ))
    return out


def build_invariants(spec: FamilySpec) -> list[Invariant]:
    """The full invariant suite over all eight controller tables of one
    family member."""
    inv: list[Invariant] = []
    req = C("inmsg").isin(spec.dir_request_inputs)
    resp = C("inmsg").isin(M.DIR_RESPONSE_INPUTS)
    busy = F.busy_states(spec)
    busy_d = tuple(b.name for b in busy if "d" in b.pending)
    busy_s = tuple(b.name for b in busy if "s" in b.pending)
    busy_m = tuple(b.name for b in busy if "m" in b.pending)
    #: Snoop replies that decrement the pending-sharer count; a dirty
    #: forwarder's ddata is one wherever a clean sharer's idone is.
    snoop_replies = ("idone", "ddata")
    grant_replies = (("idone", "ddata") if spec.forward_state
                     and spec.forward_dirty else ("idone",))

    # ------------------------------------------------------------------
    # The paper's four section-4.3 invariants, verbatim.
    # ------------------------------------------------------------------
    inv.append(Invariant(
        name="dir-pv-consistency",
        description=("directory state and presence vector agree: MESI has "
                     "exactly one sharer, SI one or more, I none"),
        table="D",
        violation=Or((
            C("dirst").eq(S.DIR_MESI) & C("dirpv").ne(S.PV_ONE),
            C("dirst").eq(S.DIR_SI) & C("dirpv").notin((S.PV_ONE, S.PV_GONE)),
            C("dirst").eq(S.DIR_I) & C("dirpv").ne(S.PV_ZERO),
        )),
        report_columns=("dirst", "dirpv"),
    ))
    inv.append(Invariant(
        name="dir-bdir-mutual-exclusion",
        description="a line is in the busy directory or the directory, not both",
        table="D",
        violation=C("dirst").ne(S.DIR_I) & C("bdirst").ne(S.DIR_I),
        report_columns=("dirst", "bdirst"),
    ))
    inv.append(Invariant(
        name="serialize-retry-when-busy",
        description="every request hitting a busy line is issued a retry",
        table="D",
        violation=req & C("bdirst").ne(S.DIR_I) & C("locmsg").ne("retry"),
        report_columns=("inmsg", "bdirst", "locmsg"),
    ))
    inv.append(Invariant(
        name="serialize-dealloc-on-completion",
        description=("a busy entry is deallocated only when the transaction "
                     "completes: D receives a compl or sends a compl/cdata"),
        table="D",
        violation=(C("inmsg").ne("compl")
                   & C("locmsg").notin(("compl", "cdata"))
                   & C("bdirst").ne(S.DIR_I) & C("nxtbdirst").eq(S.DIR_I)),
        report_columns=("inmsg", "bdirst", "nxtbdirst", "locmsg"),
    ))

    # ------------------------------------------------------------------
    # Directory controller structure.
    # ------------------------------------------------------------------
    inv.append(Invariant(
        name="retry-only-when-busy",
        description="retries are issued only on a busy-directory hit",
        table="D",
        violation=C("locmsg").eq("retry") & C("bdirlookup").ne("hit"),
        report_columns=("inmsg", "bdirlookup", "locmsg"),
    ))
    inv.append(Invariant(
        name="retry-rows-are-pure",
        description="a retried request has no other side effect",
        table="D",
        violation=C("locmsg").eq("retry") & Or((
            C("remmsg").not_null(), C("memmsg").not_null(),
            C("nxtdirst").not_null(), C("nxtbdirst").not_null(),
            C("nxtdirpv").not_null(), C("nxtbdirpv").not_null(),
        )),
    ))
    tracked = ("wb", "flush", "upgrade")
    if spec.owned_wb:
        tracked = ("wb", "owb", "flush", "upgrade")
    inv.append(Invariant(
        name="stale-writebacks-nacked",
        description=("a writeback/flush from a node the directory no "
                     "longer tracks is refused, never applied"),
        table="D",
        violation=(C("inmsg").isin(tracked)
                   & C("reqinpv").eq("no")
                   & C("bdirlookup").eq("miss") & C("locmsg").ne("nack")),
        report_columns=("inmsg", "reqinpv", "locmsg"),
    ))
    inv.append(Invariant(
        name="stale-requests-have-no-side-effects",
        description="a nacked request changes no directory state",
        table="D",
        violation=C("locmsg").eq("nack") & Or((
            C("remmsg").not_null(), C("memmsg").not_null(),
            C("nxtdirst").not_null(), C("nxtbdirst").not_null(),
            C("nxtdirpv").not_null(), C("nxtbdirpv").not_null(),
        )),
    ))
    inv.append(Invariant(
        name="responses-never-retried",
        description="only requests can be retried",
        table="D",
        violation=resp & C("locmsg").eq("retry"),
        report_columns=("inmsg", "locmsg"),
    ))
    inv.append(Invariant(
        name="requests-arrive-from-local",
        description="directory requests come from the local (requester) role",
        table="D",
        violation=req & C("inmsgsrc").ne("local"),
        report_columns=("inmsg", "inmsgsrc"),
    ))
    inv.append(Invariant(
        name="responses-from-correct-role",
        description=("responses come from memory (home), sharers (remote), "
                     "or — for completion acks — the requester (local)"),
        table="D",
        violation=Or((
            resp & C("inmsg").ne("compl") & C("inmsgsrc").eq("local"),
            C("inmsg").eq("compl") & C("inmsgsrc").ne("local"),
        )),
        report_columns=("inmsg", "inmsgsrc"),
    ))
    inv.append(Invariant(
        name="all-input-addressed-to-home",
        description="every message D processes is addressed to home",
        table="D",
        violation=C("inmsgdst").ne("home"),
        report_columns=("inmsg", "inmsgdst"),
    ))
    inv.append(Invariant(
        name="requests-on-request-queue",
        description="queue discipline: requests on reqq, responses on respq",
        table="D",
        violation=Or((
            req & C("inmsgres").ne("reqq"),
            resp & C("inmsgres").ne("respq"),
        )),
        report_columns=("inmsg", "inmsgres"),
    ))
    inv.append(Invariant(
        name="no-snoop-while-responding",
        description="response processing never issues new snoops",
        table="D",
        violation=resp & C("remmsg").not_null(),
        report_columns=("inmsg", "remmsg"),
    ))
    inv.append(Invariant(
        name="lookup-results-consistent",
        description="lookup hit/miss columns match the entry states",
        table="D",
        violation=Or((
            C("dirst").eq(S.DIR_I) & C("dirlookup").ne("miss"),
            C("dirst").ne(S.DIR_I) & C("dirlookup").ne("hit"),
            C("bdirst").eq(S.DIR_I) & C("bdirlookup").ne("miss"),
            C("bdirst").ne(S.DIR_I) & C("bdirlookup").ne("hit"),
        )),
        report_columns=("dirst", "dirlookup", "bdirst", "bdirlookup"),
    ))

    # Message/src/dst/res consistency for all three output message groups.
    for msg, fields in (
        ("locmsg", ("locmsgsrc", "locmsgdst", "locmsgres")),
        ("remmsg", ("remmsgsrc", "remmsgdst", "remmsgres")),
        ("memmsg", ("memmsgsrc", "memmsgdst", "memmsgres")),
    ):
        inv.extend(_msg_group_invariants("D", msg, fields))

    inv.append(Invariant(
        name="locmsg-routing",
        description="local responses always go home -> local",
        table="D",
        violation=C("locmsg").not_null() & Or((
            C("locmsgsrc").ne("home"), C("locmsgdst").ne("local"),
        )),
    ))
    inv.append(Invariant(
        name="remmsg-routing",
        description="snoops always go home -> remote",
        table="D",
        violation=C("remmsg").not_null() & Or((
            C("remmsgsrc").ne("home"), C("remmsgdst").ne("remote"),
        )),
    ))
    inv.append(Invariant(
        name="memmsg-routing",
        description="memory requests stay within home",
        table="D",
        violation=C("memmsg").not_null() & Or((
            C("memmsgsrc").ne("home"), C("memmsgdst").ne("home"),
        )),
    ))

    # Write strobes.
    inv.append(Invariant(
        name="dirwr-no-missing-strobe",
        description="directory state changes assert the write strobe",
        table="D",
        violation=(Or((C("nxtdirst").not_null(), C("nxtdirpv").not_null()))
                   & C("dirwr").is_null()),
    ))
    inv.append(Invariant(
        name="dirwr-no-spurious-strobe",
        description="the directory write strobe implies a state change",
        table="D",
        violation=(C("dirwr").eq("yes") & C("nxtdirst").is_null()
                   & C("nxtdirpv").is_null()),
    ))
    inv.append(Invariant(
        name="bdirwr-no-missing-strobe",
        description="busy-directory changes assert the write strobe",
        table="D",
        violation=(Or((C("nxtbdirst").not_null(), C("nxtbdirpv").not_null()))
                   & C("bdirwr").is_null()),
    ))
    inv.append(Invariant(
        name="bdirwr-no-spurious-strobe",
        description="the busy-directory write strobe implies a change",
        table="D",
        violation=(C("bdirwr").eq("yes") & C("nxtbdirst").is_null()
                   & C("nxtbdirpv").is_null()),
    ))

    # Completion marking.
    inv.append(Invariant(
        name="cmpl-iff-final-response",
        description="cmpl is asserted exactly on compl/cdata responses",
        table="D",
        violation=Or((
            C("cmpl").eq("yes") & C("locmsg").notin(("compl", "cdata")),
            C("locmsg").isin(("compl", "cdata")) & C("cmpl").is_null(),
        )),
        report_columns=("locmsg", "cmpl"),
    ))
    inv.append(Invariant(
        name="ownership-transfer-sets-mesi",
        description="naming a new owner moves the line to MESI",
        table="D",
        violation=C("nxtowner").not_null() & C("nxtdirst").ne(S.DIR_MESI),
        report_columns=("nxtowner", "nxtdirst"),
    ))
    inv.append(Invariant(
        name="mesi-transfer-names-owner",
        description="an ownership-granting pv replace names the new owner",
        table="D",
        violation=C("nxtdirpv").eq(S.PV_REPL) & C("nxtowner").is_null(),
        report_columns=("nxtdirpv", "nxtowner"),
    ))

    # Busy-directory discipline.
    inv.append(Invariant(
        name="busy-alloc-only-by-requests",
        description="only requests allocate a busy entry",
        table="D",
        violation=(C("bdirst").eq(S.DIR_I) & C("nxtbdirst").not_null()
                   & C("nxtbdirst").ne(S.DIR_I) & ~req),
        report_columns=("inmsg", "nxtbdirst"),
    ))
    inv.append(Invariant(
        name="busy-pv-load-only-at-alloc",
        description="the sharer set is loaded only when the entry is allocated",
        table="D",
        violation=(C("nxtbdirpv").isin((S.BPV_LOAD, S.BPV_LOADX))
                   & C("bdirst").ne(S.DIR_I)),
        report_columns=("bdirst", "nxtbdirpv"),
    ))
    inv.append(Invariant(
        name="busy-pv-dec-only-on-snoop-replies",
        description=("pending-sharer count decrements only on snoop "
                     "replies (idone, or a dirty holder's ddata)"),
        table="D",
        violation=(C("nxtbdirpv").eq(S.BPV_DEC)
                   & C("inmsg").notin(snoop_replies)),
        report_columns=("inmsg", "nxtbdirpv"),
    ))
    inv.append(Invariant(
        name="invalidations-complete-before-transfer",
        description=("ownership is granted only once no sharers remain "
                     "pending — the paper's 'presence vector must be zero'"),
        table="D",
        violation=(C("inmsg").isin(grant_replies)
                   & C("nxtbdirst").isin(("Busy-x-c", "Busy-u-c"))
                   & C("bdirpv").ne(S.PV_ONE)),
        report_columns=("inmsg", "bdirst", "bdirpv", "nxtbdirst"),
    ))
    inv.append(Invariant(
        name="early-data-forward-only-in-busy-sd",
        description="a bare data forward happens only in Busy-xs-sd",
        table="D",
        violation=C("locmsg").eq("data") & C("bdirst").ne("Busy-xs-sd"),
        report_columns=("bdirst", "locmsg"),
    ))
    inv.append(Invariant(
        name="mread-enters-data-pending-state",
        description="issuing mread leaves D awaiting data",
        table="D",
        violation=(C("memmsg").eq("mread")
                   & C("nxtbdirst").notin(busy_d)),
        report_columns=("inmsg", "memmsg", "nxtbdirst"),
    ))
    inv.append(Invariant(
        name="snoop-enters-snoop-pending-state",
        description="issuing a snoop leaves D awaiting snoop responses",
        table="D",
        violation=(C("remmsg").not_null()
                   & C("nxtbdirst").notin(busy_s)),
        report_columns=("remmsg", "nxtbdirst"),
    ))
    # ... and the converse: a snoop-collecting busy entry can only be
    # *allocated* by a transition that actually issued the snoops
    # (catches the "optimize away the invalidations" bug class).
    snoop_alloc = tuple(
        b.name for b in busy
        if b.pending in ("s", "sd") and b.prior in (S.DIR_SI, S.DIR_MESI)
        and b.txn != "owb"
    )
    inv.append(Invariant(
        name="snoop-pending-state-needs-snoop",
        description=("entering a snoop-collecting busy state from idle "
                     "requires snoops to have been sent"),
        table="D",
        violation=(C("bdirst").eq(S.DIR_I)
                   & C("nxtbdirst").isin(snoop_alloc)
                   & C("remmsg").is_null()),
        report_columns=("inmsg", "nxtbdirst", "remmsg"),
    ))
    inv.append(Invariant(
        name="wbmem-enters-ack-pending-state",
        description="acknowledged memory writes leave D awaiting mdone",
        table="D",
        violation=(C("memmsg").isin(("wbmem", "dwrite"))
                   & C("nxtbdirst").notin(busy_m)),
        report_columns=("memmsg", "nxtbdirst"),
    ))

    # Coverage/liveness via the busy-state helper table.
    inv.append(Invariant(
        name="every-busy-state-reachable",
        description="every declared busy state is entered by some transition",
        violation_sql=(
            f"SELECT name FROM {BUSY_STATE_HELPER_TABLE} WHERE name NOT IN "
            "(SELECT nxtbdirst FROM D WHERE nxtbdirst IS NOT NULL)"
        ),
    ))
    inv.append(Invariant(
        name="every-busy-state-completable",
        description=("from every busy state some sequence of responses "
                     "reaches deallocation — no transaction can get stuck "
                     "in the busy directory (recursive reachability in SQL)"),
        violation_sql=(
            "WITH RECURSIVE completable(s) AS ("
            "  SELECT DISTINCT bdirst FROM D"
            "  WHERE nxtbdirst = 'I' AND bdirst != 'I'"
            "  UNION"
            "  SELECT DISTINCT d.bdirst FROM D d"
            "  JOIN completable ON d.nxtbdirst = completable.s"
            ") "
            f"SELECT name FROM {BUSY_STATE_HELPER_TABLE} "
            "WHERE name NOT IN (SELECT s FROM completable)"
        ),
    ))
    request_union = " UNION ".join(
        [f"SELECT '{spec.dir_request_inputs[0]}' AS m"]
        + [f"SELECT '{m}'" for m in spec.dir_request_inputs[1:]]
    )
    inv.append(Invariant(
        name="every-request-handled",
        description="every request message type has transitions in D",
        violation_sql=(
            f"SELECT m FROM ({request_union}) "
            "WHERE m NOT IN (SELECT inmsg FROM D)"
        ),
    ))
    inv.append(Invariant(
        name="every-response-expected",
        description="every response message type has transitions in D",
        violation_sql=(
            "SELECT m FROM (SELECT 'data' AS m UNION SELECT 'mdone' UNION "
            "SELECT 'idone' UNION SELECT 'sdone' UNION SELECT 'ddata' "
            "UNION SELECT 'compl') "
            "WHERE m NOT IN (SELECT inmsg FROM D)"
        ),
    ))

    # ------------------------------------------------------------------
    # Node controller.
    # ------------------------------------------------------------------
    inv.append(Invariant(
        name="node-snoops-always-answered",
        description=("every snoop gets a network reply even if the line "
                     "already left the cache (the Figure 4 race)"),
        table="N",
        violation=C("inmsg").isin(("sinv", "sread")) & C("netmsg").is_null(),
        report_columns=("inmsg", "linest", "netmsg"),
    ))
    inv.append(Invariant(
        name="node-retry-absorbed",
        description=("processing a retry emits nothing on the network — "
                     "the deadlock-avoidance property of response sinking"),
        table="N",
        violation=C("inmsg").eq("retry") & C("netmsg").not_null(),
        report_columns=("inmsg", "netmsg"),
    ))
    inv.append(Invariant(
        name="node-retry-reissues",
        description=("an absorbed retry schedules a re-issue, unless the "
                     "transaction was already cancelled (stale retry)"),
        table="N",
        violation=(C("inmsg").eq("retry") & C("pend").ne("none")
                   & C("reissue").is_null()),
    ))
    inv.append(Invariant(
        name="node-snoop-replies-from-remote-role",
        description="snoop replies carry the remote role as source",
        table="N",
        violation=(C("netmsg").isin(("idone", "ddata", "sdone"))
                   & C("netmsgsrc").ne("remote")),
        report_columns=("netmsg", "netmsgsrc"),
    ))
    inv.append(Invariant(
        name="node-requests-from-local-role",
        description="directory requests carry the local role as source",
        table="N",
        violation=(C("netmsg").isin(spec.node_requests)
                   & C("netmsgsrc").ne("local")),
        report_columns=("netmsg", "netmsgsrc"),
    ))
    inv.append(Invariant(
        name="node-single-outstanding",
        description="cache requests are accepted only with a free pending register",
        table="N",
        violation=(C("inmsg").isin(("miss_rd", "miss_wr", "wb_victim",
                                    "flush_victim"))
                   & C("pend").ne("none")),
        report_columns=("inmsg", "pend"),
    ))
    inv.append(Invariant(
        name="node-fill-has-mode",
        description="every cache fill specifies shared or exclusive",
        table="N",
        violation=C("cachemsg").eq("fill") & C("fillmode").is_null(),
    ))
    inv.append(Invariant(
        name="node-dirty-data-only-from-m",
        description="dirty data leaves a node only from a dirty state",
        table="N",
        violation=C("dataout").eq("dirty") & C("linest").notin(spec.dirty_states),
        report_columns=("inmsg", "linest", "dataout"),
    ))
    inv.append(Invariant(
        name="node-invalidate-clears-cache",
        description="a snoop invalidate of a present line invalidates the cache",
        table="N",
        violation=(C("inmsg").eq("sinv") & C("linest").ne("I")
                   & C("cachemsg").ne("inval")),
        report_columns=("inmsg", "linest", "cachemsg"),
    ))

    # ------------------------------------------------------------------
    # Memory controller.
    # ------------------------------------------------------------------
    inv.append(Invariant(
        name="mem-read-returns-data",
        description="every mread is answered with data",
        table="M",
        violation=C("inmsg").eq("mread") & C("outmsg").ne("data"),
    ))
    inv.append(Invariant(
        name="mem-writeback-acknowledged",
        description="every wbmem/dwrite is answered with mdone",
        table="M",
        violation=(C("inmsg").isin(("wbmem", "dwrite"))
                   & C("outmsg").ne("mdone")),
    ))
    inv.append(Invariant(
        name="mem-posted-write-silent",
        description="posted mwrite generates no response",
        table="M",
        violation=C("inmsg").eq("mwrite") & C("outmsg").not_null(),
    ))
    inv.append(Invariant(
        name="mem-responses-stay-home",
        description="memory responses are routed home -> home",
        table="M",
        violation=C("outmsg").not_null() & Or((
            C("outmsgsrc").ne("home"), C("outmsgdst").ne("home"),
        )),
    ))

    # ------------------------------------------------------------------
    # Cache controller (single-writer correctness).
    # ------------------------------------------------------------------
    inv.append(Invariant(
        name="cache-inval-goes-invalid",
        description="an invalidate always lands in I",
        table="C",
        violation=(C("op").eq("inval")
                   & C("nxtst").ne("I") & C("cachest").ne("I")),
        report_columns=("op", "cachest", "nxtst"),
    ))
    inv.append(Invariant(
        name="cache-dirty-data-only-from-m",
        description="dirty data leaves the cache only from a dirty state",
        table="C",
        violation=C("dataout").eq("dirty") & C("cachest").notin(spec.dirty_states),
        report_columns=("op", "cachest", "dataout"),
    ))
    inv.append(Invariant(
        name="cache-no-silent-dirty-drop",
        description="evicting a modified line always writes it back",
        table="C",
        violation=(C("op").eq("evict") & C("cachest").isin(spec.dirty_states)
                   & C("nodemsg").ne("wb_victim")),
        report_columns=("op", "cachest", "nodemsg"),
    ))
    inv.append(Invariant(
        name="cache-hit-or-miss-not-both",
        description="a processor op either answers or misses, never both",
        table="C",
        violation=(C("op").isin(("ld", "st"))
                   & C("procresp").not_null() & C("nodemsg").not_null()),
        report_columns=("op", "cachest", "procresp", "nodemsg"),
    ))
    inv.append(Invariant(
        name="cache-store-needs-ownership",
        description="stores complete only in M or E",
        table="C",
        violation=(C("op").eq("st") & C("procresp").eq("st_resp")
                   & C("cachest").notin(("M", "E"))),
        report_columns=("op", "cachest", "procresp"),
    ))
    # Downgrade landing states per spec.downgrade_to group — one
    # invariant per landing state (MESI/MESIF have a single group).
    down_groups: dict[str, list] = {}
    for src, tgt in spec.downgrade_to:
        down_groups.setdefault(tgt, []).append(src)
    for tgt, srcs in down_groups.items():
        name = ("cache-downgrade-lands-shared" if len(down_groups) == 1
                else f"cache-downgrade-lands-{tgt.lower()}")
        inv.append(Invariant(
            name=name,
            description=f"a downgrade of {'/'.join(srcs)} lands in {tgt}",
            table="C",
            violation=(C("op").eq("down") & C("cachest").isin(tuple(srcs))
                       & C("nxtst").ne(tgt)),
            report_columns=("op", "cachest", "nxtst"),
        ))

    # ------------------------------------------------------------------
    # RAC, I/O, NI, PE controllers.
    # ------------------------------------------------------------------
    inv.append(Invariant(
        name="rac-dirty-victims-written-back",
        description="a dirty RAC victim is always written back home",
        table="RAC",
        violation=C("victim").eq("dirty") & C("wbneeded").is_null(),
    ))
    inv.append(Invariant(
        name="rac-lookup-result-consistent",
        description="lookup hit/miss matches the entry state",
        table="RAC",
        violation=Or((
            C("op").eq("lookup") & C("racst").eq("inv") & C("result").ne("miss"),
            C("op").eq("lookup") & C("racst").ne("inv") & C("result").ne("hit"),
        )),
    ))
    if spec.coherent_io:
        inv.append(Invariant(
            name="io-retry-absorbed",
            description="the I/O controller also absorbs retries",
            table="IO",
            violation=C("inmsg").eq("retry") & C("netmsg").not_null(),
        ))
        inv.append(Invariant(
            name="io-single-outstanding",
            description="device requests accepted only while idle",
            table="IO",
            violation=(C("inmsg").isin(("io_read", "io_write"))
                       & C("iost").ne("idle")),
        ))
    inv.append(Invariant(
        name="io-interrupts-always-acked",
        description="device interrupts are acknowledged unconditionally",
        table="IO",
        violation=C("inmsg").eq("dev_intr") & C("devmsg").ne("intr_ack"),
    ))
    inv.append(Invariant(
        name="ni-no-send-without-credit",
        description="frames are never transmitted with an empty credit pool",
        table="NI",
        violation=C("credst").eq("empty") & C("action").eq("send"),
    ))
    inv.append(Invariant(
        name="ni-delivery-returns-credit",
        description="every delivered frame returns a credit",
        table="NI",
        violation=C("event").eq("rx") & C("linkmsg").ne("creditret"),
    ))
    inv.append(Invariant(
        name="pe-responses-never-starved",
        description="a pending response is granted within two arbitrations",
        table="PE",
        violation=(C("resppend").eq("yes") & C("grant").eq("req")
                   & C("lastgrant").eq("req")),
        report_columns=("reqpend", "resppend", "lastgrant", "grant"),
    ))
    inv.append(Invariant(
        name="pe-no-idle-grant",
        description="nothing is granted when both queues are empty",
        table="PE",
        violation=(C("reqpend").eq("no") & C("resppend").eq("no")
                   & C("grant").not_null()),
    ))

    # ------------------------------------------------------------------
    # Cross-controller interface invariants (SQL joins across tables).
    # ------------------------------------------------------------------
    inv.append(Invariant(
        name="xc-dir-snoops-node-handles",
        description="every snoop D emits is a legal node-controller input",
        violation_sql=("SELECT DISTINCT remmsg FROM D WHERE remmsg IS NOT NULL "
                       "AND remmsg NOT IN (SELECT inmsg FROM N)"),
    ))
    inv.append(Invariant(
        name="xc-node-replies-dir-expects",
        description="every snoop reply the node emits is a legal D input",
        violation_sql=("SELECT DISTINCT netmsg FROM N WHERE netmsg IN "
                       "('idone','ddata','sdone') "
                       "AND netmsg NOT IN (SELECT inmsg FROM D)"),
    ))
    inv.append(Invariant(
        name="xc-node-requests-dir-expects",
        description="every request the node emits is a legal D input",
        violation_sql=("SELECT DISTINCT netmsg FROM N WHERE netmsg IS NOT NULL "
                       "AND netmsg NOT IN (SELECT inmsg FROM D)"),
    ))
    inv.append(Invariant(
        name="xc-dir-memmsgs-mem-handles",
        description="every memory request D emits is a legal M input",
        violation_sql=("SELECT DISTINCT memmsg FROM D WHERE memmsg IS NOT NULL "
                       "AND memmsg NOT IN (SELECT inmsg FROM M)"),
    ))
    inv.append(Invariant(
        name="xc-mem-responses-dir-expects",
        description="every memory response is a legal D input",
        violation_sql=("SELECT DISTINCT outmsg FROM M WHERE outmsg IS NOT NULL "
                       "AND outmsg NOT IN (SELECT inmsg FROM D)"),
    ))
    inv.append(Invariant(
        name="xc-dir-responses-node-handles",
        description="every local response D emits is a node or I/O input",
        violation_sql=("SELECT DISTINCT locmsg FROM D WHERE locmsg IS NOT NULL "
                       "AND locmsg NOT IN (SELECT inmsg FROM N) "
                       "AND locmsg NOT IN (SELECT inmsg FROM IO)"),
    ))
    inv.append(Invariant(
        name="xc-node-cache-commands-cache-handles",
        description="every cache command the node emits is a legal C input",
        violation_sql=("SELECT DISTINCT cachemsg FROM N WHERE cachemsg IS NOT NULL "
                       "AND cachemsg NOT IN (SELECT op FROM C)"),
    ))
    inv.append(Invariant(
        name="xc-cache-misses-node-handles",
        description="every miss/evict the cache emits is a legal N input",
        violation_sql=("SELECT DISTINCT nodemsg FROM C WHERE nodemsg IS NOT NULL "
                       "AND nodemsg NOT IN (SELECT inmsg FROM N)"),
    ))
    inv.append(Invariant(
        name="xc-io-requests-dir-expects",
        description="every I/O request is a legal D input",
        violation_sql=("SELECT DISTINCT netmsg FROM IO WHERE netmsg IS NOT NULL "
                       "AND netmsg NOT IN (SELECT inmsg FROM D)"),
    ))

    return inv
