"""Analysis utilities (import the module you need; nothing is
re-exported):

* :mod:`repro.analysis.cycles` — cycle detection over edge lists;
* :mod:`repro.analysis.stats` — protocol statistics (``collect``);
* :mod:`repro.analysis.coverage` — simulator row coverage and its ledger;
* :mod:`repro.analysis.closedloop` — the repair benchmark report.
"""
