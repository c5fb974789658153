"""Core library: the paper's SQL-based table-driven protocol methodology.

Modules (import the one you need; this package re-exports nothing, so
generating tables never loads the checking engines):

* expression language: :mod:`repro.core.expr` (``C``, ``when``, ``cases``)
* schemas and tables: :mod:`repro.core.schema`, :mod:`repro.core.table`
* the central database: :mod:`repro.core.database`
* constraint solving / table generation: :mod:`repro.core.constraints`,
  :mod:`repro.core.generator`
* channel assignments and message columns: :mod:`repro.core.assignment`
* static checks: :mod:`repro.core.invariants`, :mod:`repro.core.deadlock`
* repair and revisions: :mod:`repro.core.repair`, :mod:`repro.core.revision`
* hardware mapping: :mod:`repro.core.mapping`, :mod:`repro.core.codegen`
"""
