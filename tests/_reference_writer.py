"""The per-cell CSV grid writer that cli._emit_grid replaced.

It is slow and kept only as an oracle: every cell goes through its own NA
check and its own f-string, and every u through the fixed-point-then-%g
rule, so the tests can check the bytes of the byte-matrix writer, which
rounds most cells with integer arithmetic, against an independent reading
of the output format.
"""

import numpy as np


def grid_text(header, u, columns, places):
    """The CSV text of one grid: a header row, then u and each column's
    value per grid point (a column of None is all NA)."""
    rows = [
        [_fmt_u(x, places)] + [_fmt(None if col is None else col[i], places) for col in columns]
        for i, x in enumerate(u)
    ]
    return "\n".join([",".join(header)] + [",".join(r) for r in rows]) + "\n"


def _fmt_u(x, places):
    # fixed point, unless that would print a positive u as zero
    cell = _fmt(x, places)
    return f"{x:.{places}g}" if x > 0.0 and float(cell) == 0.0 else cell


def _fmt(value, places):
    if value is None or (isinstance(value, float) and not np.isfinite(value)):
        return "NA"
    return f"{value:.{places}f}"
