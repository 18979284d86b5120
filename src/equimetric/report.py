"""Check reports shared by the verification modules.

A report is an ordered list of named checks; ordering is deterministic
(insertion order, which every producer keeps canonical). ``fail`` statuses
drive exit codes; ``advisory`` never does.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

PASS = "pass"
FAIL = "fail"
ADVISORY = "advisory"

# The one rendering of a float in reports and output files: 9 significant
# digits; "%" formatting writes infinities as 'inf' and '-inf' and a nan of
# either sign as 'nan'.
_FMT9 = "%.9g"


def fmt9(value: float) -> str:
    """Fixed 9-significant-digit rendering, 'inf' for infinities."""
    return _FMT9 % value


def fmt9_lines(table):
    """Each row of a float table as its ``fmt9`` values joined by commas,
    with a newline, one row at a time.

    A table repeats few values, so each distinct value is formatted once:
    the sorted int64 view of the table gives the distinct bit patterns, one
    ``np.searchsorted`` gives each cell the index of its pattern, and each
    row joins the texts at its indices. Keying on bits, not on float
    equality, keeps 0.0 apart from -0.0, which is written '-0', and lets a
    nan match itself. Rows are converted and joined one at a time: one list
    or string for the whole table raised the peak RSS of repeated runs."""
    bits = np.ascontiguousarray(table, dtype=np.float64).view(np.int64)
    keys = np.sort(bits, axis=None)
    distinct = np.ones(keys.size, dtype=bool)
    distinct[1:] = keys[1:] != keys[:-1]
    keys = keys[distinct]
    texts = [_FMT9 % v for v in keys.view(np.float64).tolist()]
    return (",".join([texts[i] for i in row.tolist()]) + "\n" for row in np.searchsorted(keys, bits))


@dataclass
class Check:
    name: str
    status: str
    witnesses: list = field(default_factory=list)
    max_residual: float = 0.0

    def line(self) -> str:
        witness = ";".join(str(w) for w in self.witnesses) if self.witnesses else "-"
        return f"{self.name}\t{self.status}\t{fmt9(self.max_residual)}\t{witness}"


@dataclass
class Report:
    checks: list = field(default_factory=list)

    def add(self, name, status, witnesses=None, max_residual=0.0):
        names = {c.name for c in self.checks}
        if name in names:
            raise ValueError(f"duplicate check name {name!r}")
        self.checks.append(Check(name, status, list(witnesses or []), float(max_residual)))

    def extend(self, other: "Report"):
        for c in other.checks:
            self.add(c.name, c.status, c.witnesses, c.max_residual)

    def __getitem__(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    @property
    def all_pass(self) -> bool:
        return all(c.status != FAIL for c in self.checks)

    def counts(self):
        out = {PASS: 0, FAIL: 0, ADVISORY: 0}
        for c in self.checks:
            out[c.status] += 1
        return out

    def lines(self):
        return [c.line() for c in self.checks]
