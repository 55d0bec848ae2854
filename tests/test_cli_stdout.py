"""Stdout guard: a fixed set of CLI commands keeps its exit code and the
sha256 of its stdout, byte for byte.

tests/data/cli_stdout.json holds, for each command, its argv, its exit code
and the sha256 of what it printed. The commands run in process. To rewrite
the file from the current source, run from the repository root:

    PYTHONPATH=src python tests/test_cli_stdout.py
"""

import functools
import hashlib
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from ostrowski.cli import main

GUARD = Path(__file__).parent / "data" / "cli_stdout.json"

#: --theorem tag -> its flags besides --a 0.5 --b 2.5
_BOUND_FLAGS = {
    "t20": "--x 0.8 --s 0.37 --da 0.3 --db 2",
    "teo1": "--x 0.8 --s 0.37 --p 3 --da 0.3 --db 2",
    "t21": "--x 0.8 --s 0.37 --p 3 --da 0.3 --dx 0.9 --db 2",
    "z": "--x 0.8 --s 0.37 --p 3 --da 0.3 --db 2",
    "t22": "--x 0.8 --s 0.37 --q 1.5 --da 0.3 --db 2",
    "eq11": "--x 0.8 --m 2.5",
    "ee": "--x 0.8 --s 0.37 --p 3 --m 2.5",
    "eq14": "--da 0.3 --db 2",
    "eq15": "--da 0.3 --db 2 --p 3",
    "eq16": "--da 0.3 --db 2 --p 3",
}

#: --fn spec -> its interval
_QUAD_FUNCTIONS = {
    "poly:0.3,-1,0.5,1.2": "--a=-0.5 --b 1.5",
    "breckner:0.5,1,0.25,0.5": "--a 0.25 --b 2",
    "powabs:2.5": "--a=-1 --b 1.5",
}

CASES = (
    ["verify"],
    ["identity"],
    "means --a 1 --b 2 --s 0.5".split(),
    "means --a 0.5 --b 3 --s 0.25 --p 3 --q 1.5".split(),
    "means --a 1 --b 1.000001 --s 0.75".split(),
    *(f"quad --fn {spec} {iv} --target 1e-3 {variant}".split()
      for spec, iv in _QUAD_FUNCTIONS.items()
      for variant in ("--variant p4 --p 2.5", "--variant p5", "--variant p6 --q 1.5")),
    *(f"bound --theorem {tag} --a 0.5 --b 2.5 {flags}".split()
      for tag, flags in _BOUND_FLAGS.items()),
    # the flat formats: one command of each kind per format, the sweep with
    # a failing check so the human report names its first failure
    *(f"{command} --format {fmt}".split()
      for fmt in ("csv", "human")
      for command in (
          "verify --functions poly:0,-3,0,1 --x-points 5 --s-grid 0.5",
          "identity",
          "means --a 1 --b 2 --s 0.5",
          f"quad --fn poly:0.3,-1,0.5,1.2 {_QUAD_FUNCTIONS['poly:0.3,-1,0.5,1.2']} "
          "--target 1e-3 --variant p5",
          f"bound --theorem teo1 --a 0.5 --b 2.5 {_BOUND_FLAGS['teo1']}",
      )),
)


def replay(argv):
    """(exit code, sha256 of stdout) of one command run in process."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(list(argv))
    return code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


@functools.cache
def _guard():
    return {" ".join(row["argv"]): row for row in json.loads(GUARD.read_text())}


def test_guard_covers_every_case():
    assert list(_guard()) == [" ".join(argv) for argv in CASES]


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_stdout_is_unchanged(argv):
    row = _guard()[" ".join(argv)]
    assert replay(argv) == (row["exit"], row["sha256"])


if __name__ == "__main__":
    rows = []
    for argv in CASES:
        code, digest = replay(argv)
        rows.append({"argv": list(argv), "exit": code, "sha256": digest})
    GUARD.write_text("[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n")
