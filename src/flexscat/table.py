"""The row format of every text table flexscat writes or reads.

A row is one line of scalars joined by a separator.  Writers pass Python
scalars (``ndarray.tolist()`` or ``float``), so each value is written by
``str``: a float as its shortest round-trip repr, which ``float`` reads
back bit for bit.  A column may also arrive already formatted, as the
``str`` values that ``Mesh.node_text`` and ``SolutionField.value_text``
share between the artifacts; ``str`` passes those through unchanged.
"""

from __future__ import annotations

from itertools import chain


def format_rows(*columns, sep: str = ",") -> str:
    """One newline-terminated line per row of the equal-length ``columns``."""
    values = tuple(chain.from_iterable(zip(*columns)))
    # one %-format over all rows: "%s" is str(value), without a call per value
    row = sep.replace("%", "%%").join(["%s"] * len(columns)) + "\n"
    return row * (len(values) // max(len(columns), 1)) % values


def parse_rows(numbered_lines, types, layout: str, error: type[Exception],
               sep: str | None = None) -> list[list]:
    """Typed columns of ``(line number, text)`` rows split on ``sep``.

    Each row holds one token per entry of ``types``, converted by it;
    otherwise ``error`` is raised naming the first bad line and ``layout``.
    """
    columns = [[] for _ in types]
    for no, text in numbered_lines:
        tokens = text.split(sep)
        if len(tokens) != len(types):
            raise error(f"line {no}: expected {layout}")
        for column, kind, token in zip(columns, types, tokens):
            try:
                column.append(kind(token))
            except ValueError:
                raise error(f"line {no}: bad value {token!r} in {layout}") from None
    return columns
