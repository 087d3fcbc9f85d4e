"""Thin JSON and JSON-lines file helpers.

Every writer is deterministic (sorted keys, fixed separators) so files
produced from the same data are byte-identical. ``write_lines`` is the one
path to a file; it also writes lines that the caller encoded itself, such
as the training streams of ``datagen.emit_training_records``.
"""
from __future__ import annotations

import itertools
import json
import os
from collections.abc import Iterable
from pathlib import Path


def write_lines(path: "str | Path", lines: "Iterable[str]") -> None:
    """Write ``lines``, each already ending in a newline, as the whole file.

    The file is replaced in place: truncating on open costs 10-70 ms on
    ext4 mounted with ``discard`` once the old blocks were written back."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", encoding="utf-8") as fh:
        fh.write("".join(lines))
        fh.truncate()


def write_jsonl(path: "str | Path", rows: "list[dict]") -> None:
    write_lines(path, (json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n" for r in rows))


def read_jsonl(path: "str | Path") -> list[dict]:
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append(json.loads(line))
            except (json.JSONDecodeError, RecursionError) as e:  # or nested too deeply
                raise ValueError(f"{path}:{lineno}: bad JSON line: {e}") from e
    return rows


def row_line(path: "str | Path", index: int) -> int:
    """The 1-based file line of row ``index`` of ``read_jsonl(path)``."""
    with open(path, encoding="utf-8") as fh:
        lines = (n for n, line in enumerate(fh, start=1) if line.strip())
        return next(itertools.islice(lines, index, None))


def write_json(path: "str | Path", obj: dict) -> None:
    write_lines(path, [json.dumps(obj, sort_keys=True, indent=2) + "\n"])
