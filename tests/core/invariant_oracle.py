"""The one-SELECT-per-invariant parity oracle of the batched sweep.

:meth:`~repro.core.invariants.InvariantChecker.check_all` runs a suite
as a handful of batched queries: bit masks per table for the expression
invariants, one ``UNION ALL`` for the raw-SQL ones.  :func:`check` runs
one invariant the way the paper states it (section 4.3),
``[Select cols from D where <bad-combination>] = empty``: its own
SELECT, whose rows are its violations.  :func:`per_invariant` does that
for a whole suite, so the parity tests can compare the two result for
result.

Only the tests use this module: no option or argument of the package
selects it.
"""

from repro.core.invariants import MAX_VIOLATIONS, InvariantViolation
from repro.core.report import CheckResult
from repro.core.sqlgen import quote_ident, to_sql


def query(invariant):
    """The SELECT returning ``invariant``'s violating rows."""
    if invariant.violation_sql is not None:
        return invariant.violation_sql
    cols = (", ".join(quote_ident(c) for c in invariant.report_columns)
            or "*")
    return (f"SELECT {cols} FROM {quote_ident(invariant.table)} "
            f"WHERE {to_sql(invariant.violation)}")


def check(db, invariant):
    """``invariant`` judged by its own query over ``db``."""
    rows = db.query(query(invariant))
    return CheckResult(
        name=invariant.name,
        passed=not rows,
        description=invariant.description,
        details=[InvariantViolation(invariant.name, r)
                 for r in rows[:MAX_VIOLATIONS]],
    )


def per_invariant(checker):
    """``checker``'s suite, one SELECT per invariant, in suite order."""
    return [check(checker.db, inv) for inv in checker.invariants]
