"""Code generation from implementation tables (paper section 5: "Code is
automatically generated from these tables using SQL report generation").

Three targets:

* :func:`generate_python` — a plain-Python decision function equivalent to
  the table (stored NULL inputs are wildcards, NULL outputs are noops).
  The generated source is executable; :func:`compile_python` returns the
  callable so tests can cross-check it against ``ControllerTable.lookup``.

* :func:`generate_dispatch_source` — an integer-indexed dispatch kernel
  over a snapshot of a table's rows (:func:`compile_dispatch` execs it):
  every input column is encoded over its domain (the same "code 0 is NULL"
  convention the Verilog backend uses), rows are grouped by their
  wildcard mask, and each group becomes a dict keyed by the packed
  mixed-radix code of its concrete columns.  A probe is a handful of
  dict lookups regardless of row count — this is what the compiled
  explorer kernel (:mod:`repro.core.kernel`) executes.

* :func:`generate_verilog` — a synthesizable-flavoured Verilog skeleton:
  value encodings as localparams and one casez arm per table row.  It is a
  faithful rendering of what Fujitsu's flow emitted, sufficient to eyeball
  timing/area structure; we do not simulate it.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

from .schema import TableSchema
from .table import ControllerTable

__all__ = [
    "generate_python",
    "compile_python",
    "generate_dispatch_source",
    "compile_dispatch",
    "generate_verilog",
]


def _py_ident(name: str) -> str:
    out = "".join(ch if ch.isalnum() else "_" for ch in name)
    if not out or out[0].isdigit():
        out = "_" + out
    return out


def generate_python(
    table: ControllerTable, function_name: Optional[str] = None
) -> str:
    """Render the table as a Python function ``f(**inputs) -> dict``.

    Rows are emitted in storage order; wildcard (NULL) inputs produce no
    condition, so for deterministic tables order is irrelevant.  Inputs
    with no matching row raise ``LookupError``.
    """
    fn = function_name or f"{_py_ident(table.schema.name)}_next"
    inputs = table.schema.input_names
    outputs = table.schema.output_names
    args = ", ".join(_py_ident(c) for c in inputs)
    lines = [
        f"def {fn}({args}):",
        f'    """Generated from controller table {table.schema.name!r}',
        f"    ({table.row_count} rows); do not edit by hand.\"\"\"",
    ]
    rows = table.rows()
    if not rows:
        lines.append("    raise LookupError('empty controller table')")
        return "\n".join(lines) + "\n"
    for row in rows:
        conds = [
            f"{_py_ident(c)} == {row[c]!r}" for c in inputs if row[c] is not None
        ]
        cond = " and ".join(conds) if conds else "True"
        result = ", ".join(f"{c!r}: {row[c]!r}" for c in outputs)
        lines.append(f"    if {cond}:")
        lines.append(f"        return {{{result}}}")
    lines.append(
        "    raise LookupError('no transition for inputs: %r' % locals())"
    )
    return "\n".join(lines) + "\n"


def compile_python(
    table: ControllerTable, function_name: Optional[str] = None
) -> Callable[..., dict]:
    """Exec the generated source and return the controller function."""
    fn = function_name or f"{_py_ident(table.schema.name)}_next"
    src = generate_python(table, fn)
    namespace: dict = {}
    exec(compile(src, f"<generated:{table.schema.name}>", "exec"), namespace)
    return namespace[fn]


def generate_dispatch_source(
    schema: TableSchema,
    rows: Sequence[tuple[int, dict]],
    function_name: Optional[str] = None,
) -> str:
    """Render ``rows`` of ``schema`` as an indexed dispatch function.

    ``rows`` is a sequence of ``(rowid, row_dict)`` in storage order (see
    :meth:`ControllerTable.rows_with_ids`).  The generated function takes
    the input columns positionally in schema order and returns the list
    of matching row *indexes* (positions in ``rows``, not rowids).

    Encoding: each input column maps its values to small integers; code 0
    is reserved for NULL and for values outside the encoded domain, so an
    unknown (or ``None``) probe value matches only rows that leave that
    column as a wildcard — exactly the SQL ``col IS NULL OR col IS ?``
    semantics.  The domain is the schema domain plus any out-of-domain
    values a mutated table actually stores.  Rows sharing a wildcard mask
    form one group dict keyed by the packed mixed-radix code of the
    mask's columns; since real codes are >= 1 and every factor exceeds
    its digit, packing is injective and a probe never aliases.
    """
    fn = function_name or f"{_py_ident(schema.name)}_dispatch"
    inputs = schema.input_names
    enc: dict[str, dict] = {}
    for col in schema.inputs:
        stored = {row[col.name] for _, row in rows if row[col.name] is not None}
        extra = sorted(stored - set(col.values), key=repr)
        enc[col.name] = {
            v: i + 1 for i, v in enumerate((*col.values, *extra))
        }
    radix = {c: len(enc[c]) + 1 for c in inputs}
    pos = {c: i for i, c in enumerate(inputs)}

    groups: dict[tuple, dict[int, list[int]]] = {}
    for idx, (_rowid, row) in enumerate(rows):
        mask = tuple(c for c in inputs if row[c] is not None)
        key = 0
        for c in mask:
            key = key * radix[c] + enc[c][row[c]]
        groups.setdefault(mask, {}).setdefault(key, []).append(idx)

    used = sorted(
        {c for mask in groups for c in mask}, key=lambda c: pos[c]
    )
    lines = [
        f"# Generated dispatch kernel for controller table "
        f"{schema.name!r} ({len(rows)} rows); do not edit by hand.",
        "# Code 0 is reserved for NULL and out-of-domain probe values;",
        "# rows are grouped by wildcard mask and indexed by the packed",
        "# mixed-radix code of the mask's concrete columns.",
    ]
    for c in used:
        items = ", ".join(f"{v!r}: {code}" for v, code in enc[c].items())
        lines.append(f"_E_{_py_ident(c)} = {{{items}}}")
    ordered = sorted(groups, key=lambda m: tuple(pos[c] for c in m))
    for j, mask in enumerate(ordered):
        body = ", ".join(
            f"{key}: {tuple(groups[mask][key])!r}"
            for key in sorted(groups[mask])
        )
        lines.append(f"_G_{j} = {{{body}}}  # mask: {mask!r}")
    args = ", ".join(_py_ident(c) for c in inputs)
    lines.append(f"def {fn}({args}):")
    lines.append(
        f'    """Generated dispatch for {schema.name!r}; returns matching'
        ' row indexes."""'
    )
    for c in used:
        i = _py_ident(c)
        lines.append(f"    c_{i} = _E_{i}.get({i}, 0)")
    lines.append("    m = []")
    for j, mask in enumerate(ordered):
        if mask:
            expr = f"c_{_py_ident(mask[0])}"
            for c in mask[1:]:
                expr = f"({expr}) * {radix[c]} + c_{_py_ident(c)}"
        else:
            expr = "0"
        lines.append(f"    r = _G_{j}.get({expr})")
        lines.append("    if r is not None:")
        lines.append("        m += r")
    lines.append("    return m")
    return "\n".join(lines) + "\n"


def compile_dispatch(
    schema: TableSchema,
    rows: Sequence[tuple[int, dict]],
    function_name: Optional[str] = None,
) -> Callable[..., list]:
    """Exec the generated dispatch source and return the probe function."""
    fn = function_name or f"{_py_ident(schema.name)}_dispatch"
    src = generate_dispatch_source(schema, rows, fn)
    namespace: dict = {}
    exec(compile(src, f"<kernel:{schema.name}>", "exec"), namespace)
    return namespace[fn]


def _bits_for(n: int) -> int:
    return max(1, math.ceil(math.log2(max(n, 2))))


def generate_verilog(
    table: ControllerTable, module_name: Optional[str] = None
) -> str:
    """Render the table as a Verilog module with one casez arm per row.

    Every column gets a binary encoding over its domain (NULL encodes as
    all-don't-care ``?`` bits on inputs and as the all-zero noop code on
    outputs).
    """
    name = module_name or _py_ident(table.schema.name)
    enc: dict[str, dict] = {}
    width: dict[str, int] = {}
    for col in table.schema.columns:
        width[col.name] = _bits_for(col.domain_size)
        # Code 0 is reserved for NULL; real values start at 1.
        enc[col.name] = {v: i + 1 for i, v in enumerate(col.values)}

    inputs = table.schema.inputs
    outputs = table.schema.outputs
    lines = [f"// Generated from controller table {table.schema.name}; do not edit.",
             f"module {name} ("]
    ports = [f"    input  wire [{width[c.name]-1}:0] {_py_ident(c.name)}," for c in inputs]
    ports += [f"    output reg  [{width[c.name]-1}:0] {_py_ident(c.name)}," for c in outputs]
    if ports:
        ports[-1] = ports[-1].rstrip(",")
    lines += ports
    lines.append(");")
    lines.append("")
    for col in table.schema.columns:
        for v, code in enc[col.name].items():
            lines.append(
                f"  localparam [{width[col.name]-1}:0] "
                f"{_py_ident(col.name).upper()}_{_py_ident(v).upper()} = "
                f"{width[col.name]}'d{code};"
            )
    lines.append("")
    in_concat = "{" + ", ".join(_py_ident(c.name) for c in inputs) + "}"
    total_in = sum(width[c.name] for c in inputs)
    lines.append("  always @* begin")
    defaults = "    " + " ".join(
        f"{_py_ident(c.name)} = {width[c.name]}'d0;" for c in outputs
    )
    lines.append(defaults)
    lines.append(f"    casez ({in_concat})")
    for row in table.rows():
        pattern_parts = []
        for c in inputs:
            w = width[c.name]
            v = row[c.name]
            if v is None:
                pattern_parts.append("?" * w)
            else:
                pattern_parts.append(format(enc[c.name][v], f"0{w}b"))
        pattern = f"{total_in}'b" + "_".join(pattern_parts)
        assigns = []
        for c in outputs:
            v = row[c.name]
            code = 0 if v is None else enc[c.name][v]
            assigns.append(f"{_py_ident(c.name)} = {width[c.name]}'d{code};")
        lines.append(f"      {pattern}: begin {' '.join(assigns)} end")
    lines.append("      default: ; // no transition: inputs are illegal")
    lines.append("    endcase")
    lines.append("  end")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"
