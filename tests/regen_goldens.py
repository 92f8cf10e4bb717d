"""Rewrite the golden documents of tests/test_cli.py from the program as it
stands: each document of _GOLDEN_RUNS, with the reference draws put in for
their placeholders, and each of _GOLDEN_PLANES on the first draw.  A
regeneration is a deliberate change of the documents, to be read in the
diff of tests/golden before it is committed.

    PYTHONPATH=src python tests/regen_goldens.py

Prints each document's name and whether its bytes changed; exits 1, and
writes nothing, when a command line does not end in its expected code.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

from conftest import REFERENCE_TARGETS
from test_cli import _GOLDEN_PLANES, _GOLDEN_RUNS, golden_argv
from touching_conics.cli import EXIT_OK, run
from touching_conics.surface import find_valid_params

GOLDEN = Path(__file__).parent / "golden"


def main() -> int:
    draws = [find_valid_params(target) for target in REFERENCE_TARGETS]
    runs = [(name, golden_argv(argv, draws), code) for name, argv, code in _GOLDEN_RUNS.values()]
    for name, flags in _GOLDEN_PLANES.items():
        runs.append((f"{name}.json", golden_argv(["--params", "DRAW0", *flags], draws), EXIT_OK))
    documents = {}
    for name, argv, code in runs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            got = run(argv)
        if got != code:
            print(f"{name}: exit {got}, expected {code}; nothing written", file=sys.stderr)
            return 1
        documents[name] = out.getvalue().encode("utf-8")
    for name, data in documents.items():
        path = GOLDEN / name
        changed = not path.exists() or path.read_bytes() != data
        if changed:
            path.write_bytes(data)
        print(f"{'rewrote' if changed else 'unchanged'} {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
