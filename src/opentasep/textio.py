"""CSV/JSON emission helpers shared by the table types and the CLI.

CSV files carry a header row, UTF-8, LF line endings, and floats in the
shortest representation that round-trips to the same double.
"""

from __future__ import annotations

import json
from typing import Iterable, Sequence


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write rows of Python ints, floats and strs (as ndarray.tolist() gives
    them); str of a float is its shortest round-trip repr."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(str, row)) + "\n")


def write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
