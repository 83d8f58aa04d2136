"""A hypothesis strategy that damages the lines of a TSV file, for the tests
that check how readers and commands take bad input."""

from __future__ import annotations

from hypothesis import strategies as st


def cell_pool(lines: list[str], id_columns: int) -> list[str]:
    """Replacement cells: an empty, a non-numeric, a NaN, a negative and a large
    cell, the reserved annotator id, and every id in the first `id_columns`
    columns of the data lines."""
    ids = {cell for line in lines[1:] for cell in line.split("\t")[:id_columns]}
    return ["", "x", "nan", "-1", "99", "ALL", *sorted(ids)]


@st.composite
def mutated_lines(draw, lines: list[str], pool: list[str]) -> list[str]:
    """`lines` (the header first) after 1-4 edits, each one of: a data cell
    replaced from `pool`, a data line duplicated (anywhere after the header),
    dropped or cut short, or a blank line inserted."""
    lines = list(lines)
    edits = ["cell", "duplicate", "drop", "truncate", "blank"]
    for _ in range(draw(st.integers(1, 4))):
        edit = draw(st.sampled_from(edits)) if len(lines) > 1 else "blank"
        at = 0 if edit == "blank" else draw(st.integers(1, len(lines) - 1))
        if edit == "cell":
            cells = lines[at].split("\t")
            cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(pool))
            lines[at] = "\t".join(cells)
        elif edit == "duplicate":
            lines.insert(draw(st.integers(1, len(lines))), lines[at])
        elif edit == "drop":
            del lines[at]
        elif edit == "truncate":
            lines[at] = lines[at][: draw(st.integers(0, max(0, len(lines[at]) - 1)))]
        else:
            lines.insert(draw(st.integers(0, len(lines))), "")
    return lines
