"""Hardware implementation of the directory controller (paper section 5).

Figure 5's implementation introduces finite queues around D (locmsg /
remmsg / memmsg output queues, directory lookup/update queues, request and
response input queues), splits D into a request controller and a response
controller running in parallel, and adds a feedback path.  Concretely:

* ``Qstatus`` says whether any output queue (or the busy directory) is
  full: a request then receives a ``retry`` and has no other effect.
* ``Dqstatus`` says whether the directory *update* queue is full: a
  response that needs to write the directory then emits the
  implementation-defined ``dfdback`` request through the feedback path
  instead of writing; the request controller performs the deferred write.
* ``Impinmsg`` extends the inmsg column table with ``dfdback``.

ED is regenerated from the modified constraints, partitioned into the
paper's **nine implementation tables** (one per output port of the two
sub-controllers), and the reconstruction check proves D is preserved.
"""

from __future__ import annotations

from ...core.constraints import ConstraintSet
from ...core.database import ProtocolDatabase
from ...core.expr import BoolExpr, C, Or, cases, when
from ...core.mapping import (
    ExtensionSpec,
    ImplementationMapper,
    PartitionSpec,
    ReconstructionBranch,
    ReconstructionPlan,
)
from ...core.report import CheckResult
from ...core.schema import Column, Role, TableSchema
from ...core.table import ControllerTable
from .. import messages as M

__all__ = [
    "ED_TABLE_NAME",
    "imp_requests",
    "extension_spec",
    "partition_specs",
    "reconstruction_plan",
    "build_hardware_mapping",
    "HardwareMapping",
]

ED_TABLE_NAME = "ED"

_QCOLS = (
    Column("Qstatus", ("Full", "NotFull"), Role.INPUT, nullable=False,
           doc="any output queue or the busy directory is full"),
    Column("Dqstatus", ("Full", "NotFull"), Role.INPUT, nullable=False,
           doc="the directory update queue is full"),
    Column("Fdback", ("Dfdback",), Role.OUTPUT,
           doc="deferred directory update fed back as a request"),
)


def imp_requests(d_schema: TableSchema) -> tuple[str, ...]:
    """Requests as seen by the implementation: the requests in D's
    ``inmsg`` domain plus the feedback request (the paper's Impinmsg
    column table)."""
    requests = set(M.REQUEST_NAMES)
    return tuple(v for v in d_schema.column("inmsg").values
                 if v in requests) + ("dfdback",)


def extension_spec(base: ConstraintSet) -> ExtensionSpec:
    """The D -> ED extension of section 5, over D's constraints ``base``."""
    imp_req = C("inmsg").isin(imp_requests(base.schema))
    q_full = imp_req & C("Qstatus").eq("Full")
    # "On a response, if the directory controller needs to update the
    # directory and Dqstatus = Full then the controller generates the
    # Dfdback request."  The condition must be stated over *inputs* (the
    # override below suppresses the write outputs, so referencing them
    # would be self-contradictory): in this protocol the only responses
    # that write the directory are the completion acknowledgments.
    dir_writing_response = (
        C("inmsg").eq("compl")
        & C("bdirst").isin(("Busy-r-c", "Busy-x-c", "Busy-u-c"))
    )
    fdback_needed = dir_writing_response & C("Dqstatus").eq("Full")

    overrides: dict[str, BoolExpr] = {}
    # A request finding the output queues full is retried and has no other
    # effect; the dfdback feedback request only performs the deferred
    # directory write.
    squelched = ("remmsg", "memmsg", "nxtbdirst", "nxtbdirpv")
    overrides["locmsg"] = cases(
        (q_full, C("locmsg").eq("retry")),
        (C("inmsg").eq("dfdback"), C("locmsg").is_null()),
        default=base.get("locmsg").expr,
    )
    for col in squelched:
        overrides[col] = cases(
            (q_full, C(col).is_null()),
            (C("inmsg").eq("dfdback"), C(col).is_null()),
            default=base.get(col).expr,
        )
    for col in ("nxtdirst", "nxtdirpv"):
        overrides[col] = cases(
            (q_full, C(col).is_null()),
            # The deferred update is carried by the feedback request; on
            # the response itself the write is suppressed.
            (C("inmsg").eq("dfdback"), C(col).is_null()),
            (fdback_needed, C(col).is_null()),
            default=base.get(col).expr,
        )
    overrides["Fdback"] = when(
        fdback_needed, C("Fdback").eq("Dfdback"), C("Fdback").is_null(),
    )
    # The feedback request's only action is the directory array write.
    overrides["dirwr"] = cases(
        (C("inmsg").eq("dfdback") & C("Qstatus").eq("NotFull"),
         C("dirwr").eq("yes")),
        (Or((C("nxtdirst").not_null(), C("nxtdirpv").not_null())),
         C("dirwr").eq("yes")),
        default=C("dirwr").is_null(),
    )
    return ExtensionSpec(
        name=ED_TABLE_NAME,
        extra_columns=_QCOLS,
        constraints=overrides,
        domain_extensions={"inmsg": ("dfdback",)},
    )


def partition_specs(requests: tuple[str, ...]) -> tuple[PartitionSpec, ...]:
    """The nine implementation tables: one per output port of the request
    and response controllers (paper: "Nine implementation tables are
    generated for D by partitioning ED using SQL"); ``requests`` is
    :func:`imp_requests` of the mapped D."""
    imp_req = C("inmsg").isin(requests)
    is_resp = ~imp_req
    loc = ("locmsg", "locmsgsrc", "locmsgdst", "locmsgres")
    rem = ("remmsg", "remmsgsrc", "remmsgdst", "remmsgres")
    mem = ("memmsg", "memmsgsrc", "memmsgdst", "memmsgres")
    return (
        PartitionSpec("Request_locmsg", loc, imp_req),
        PartitionSpec("Request_remmsg", rem, imp_req),
        PartitionSpec("Request_memmsg", mem, imp_req),
        PartitionSpec("Request_dirupd",
                      ("nxtdirst", "nxtdirpv", "dirwr", "nxtowner"), imp_req),
        PartitionSpec("Request_bdirupd",
                      ("nxtbdirst", "nxtbdirpv", "bdirwr", "cmpl"), imp_req),
        PartitionSpec("Response_locmsg", loc + ("cmpl",), is_resp),
        PartitionSpec("Response_memmsg", mem, is_resp),
        PartitionSpec("Response_dirupd",
                      ("nxtdirst", "nxtdirpv", "dirwr", "nxtowner", "Fdback"),
                      is_resp),
        PartitionSpec("Response_bdirupd",
                      ("nxtbdirst", "nxtbdirpv", "bdirwr"), is_resp),
    )


def reconstruction_plan() -> ReconstructionPlan:
    """How ED is rebuilt from the nine tables and compared against D.

    Requests never feed back (``Fdback`` NULL); responses never snoop
    (``remmsg`` group NULL — a checked invariant).  Restricting to
    NotFull queue states and protocol (non-dfdback) messages must yield a
    superset of the debugged table D.
    """
    request_branch = ReconstructionBranch(
        partitions=("Request_locmsg", "Request_remmsg", "Request_memmsg",
                    "Request_dirupd", "Request_bdirupd"),
        constants={"Fdback": None},
    )
    response_branch = ReconstructionBranch(
        partitions=("Response_locmsg", "Response_memmsg",
                    "Response_dirupd", "Response_bdirupd"),
        constants={"remmsg": None, "remmsgsrc": None,
                   "remmsgdst": None, "remmsgres": None},
    )
    restrict = (
        C("Qstatus").eq("NotFull")
        & C("Dqstatus").eq("NotFull")
        & C("inmsg").ne("dfdback")
    )
    return ReconstructionPlan(
        branches=(request_branch, response_branch),
        restrict=restrict,
    )


class HardwareMapping:
    """The complete section-5 flow for one database."""

    def __init__(
        self,
        db: ProtocolDatabase,
        d_table: ControllerTable,
        d_constraints: ConstraintSet,
    ) -> None:
        self.mapper = ImplementationMapper(db, d_table, d_constraints)
        self.requests = imp_requests(d_constraints.schema)
        self.spec = extension_spec(d_constraints)
        self.ed_result = self.mapper.extend(self.spec)
        self.ed = self.ed_result.table
        self.partitions = self.mapper.partition(
            self.ed, partition_specs(self.requests))
        self.plan = reconstruction_plan()
        self.reconstructed = self.mapper.reconstruct(
            self.ed.schema, self.partitions, self.plan,
        )

    def check_preserved(self) -> CheckResult:
        """The section-5 preservation check: D is contained in the
        reconstruction of the nine implementation tables."""
        return self.mapper.check_preserved(self.reconstructed, self.plan)


def build_hardware_mapping(
    db: ProtocolDatabase,
    d_table: ControllerTable,
    d_constraints: ConstraintSet,
) -> HardwareMapping:
    """Run the complete section-5 flow against an existing debugged D and
    the constraints it was generated from."""
    return HardwareMapping(db, d_table, d_constraints)
