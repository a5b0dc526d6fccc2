"""The shared row format, and malformed mesh and field files."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexscat.geometry import Circle, MeshError, export_mesh, generate_mesh, import_mesh
from flexscat.postproc import PostprocError, field_csv, read_field_csv
from flexscat.solve import SolutionField
from flexscat.table import format_rows, parse_rows

MESH = generate_mesh(Circle(0.3), 0.6, 2, 8)  # 24 nodes
MESH_TEXT = export_mesh(MESH)
_X, _Y = MESH.nodes.T
FIELD_TEXT = field_csv(SolutionField(p=_X + 1j * _Y, q=_Y - 2j * _X,
                                     u_inc=np.exp(1j * _X), residual=0.0), MESH)


def test_rows_round_trip_and_name_the_first_bad_line():
    columns = [[1, -2], [0.1, -0.0], ["I", "T"]]
    text = format_rows(*columns, sep=" ")
    assert text == "1 0.1 I\n-2 -0.0 T\n"
    # rows are one %-format: a "%" in a value or in sep is written as is
    assert format_rows(["5%", "x"], ["%s", 2], sep="%") == "5%%%s\nx%2\n"
    assert format_rows() == ""
    rows = list(enumerate(text.splitlines(), start=5))
    types, layout = (int, float, str), "'<n> <x> <c>'"
    assert parse_rows(rows, types, layout, ValueError) == columns
    with pytest.raises(ValueError, match="^line 9: expected '<n> <x> <c>'$"):
        parse_rows([*rows, (9, "3 0.5")], types, layout, ValueError)
    with pytest.raises(ValueError, match="^line 9: bad value 'x' in '<n> <x> <c>'$"):
        parse_rows([*rows, (9, "3 x I")], types, layout, ValueError)


_TOKENS = ["-1", "nan", "1e999", "x", "9" * 30]


@st.composite
def _mutated(draw, text: str, sep: str | None):
    """``text`` with one to three lines dropped, duplicated, swapped or
    given a bad token."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i, j = (draw(st.integers(0, len(lines) - 1)) for _ in range(2))
        kind = draw(st.sampled_from(["drop", "duplicate", "swap", "token"]))
        if kind == "drop":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(j, lines[i])
        elif kind == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        else:
            tokens = lines[i].split(sep)
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(_TOKENS))
            lines[i] = (sep or " ").join(tokens)
    return "".join(line + "\n" for line in lines)


@settings(max_examples=100, deadline=None)
@given(_mutated(MESH_TEXT, None), _mutated(FIELD_TEXT, ","))
def test_mutated_mesh_and_field_files_fail_cleanly(mesh_text, field_text):
    try:
        import_mesh(mesh_text)
    except MeshError:
        pass
    try:
        read_field_csv(field_text, MESH)
    except PostprocError:
        pass
