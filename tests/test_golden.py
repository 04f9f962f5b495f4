"""Report bytes must match the committed golden files exactly.

Each case is a fixed config; each (case, command, format) triple has one file
under `tests/golden/`. To write the files afresh from the `mschain` that is
first on the import path, run this module as a script:

    PYTHONPATH=src python tests/test_golden.py

Regenerate only when a report is meant to change, and say why in CHANGES.md.
"""

import csv
import io
import math
from pathlib import Path

import pytest

from mschain.cli import COMMANDS, FORMATS, config_from_dict, execute, render_report

GOLDEN_DIR = Path(__file__).parent / "golden"

_PHASE = 2.0
CASES = {
    "symmetric": {"n_env": 2, "env_overlap": 0.5, "trials": 2000},
    # |a1|^2 = 1e-6: the rare branch of the Born and gemenge paths
    "edge_weight": {"a1": 1e-3, "a2": -math.sqrt(1.0 - 1e-6), "n_env": 1,
                    "env_overlap": 0.0, "seed": 3, "trials": 2000},
    "complex_gemenge": {"a1": math.sqrt(0.3),
                        "a2": [math.sqrt(0.7) * math.cos(_PHASE), math.sqrt(0.7) * math.sin(_PHASE)],
                        "input_kind": "gemenge", "n_env": 3, "env_overlap": 0.9,
                        "seed": 7, "trials": 2000},
    # Born counts over three chunks of 2**16 trials and a remainder
    "chunks_pure": {"a1": math.sqrt(0.3), "a2": -math.sqrt(0.7), "seed": 5,
                    "trials": 3 * 2**16 + 1234},
    "chunks_gemenge": {"a1": math.sqrt(0.3),
                       "a2": [math.sqrt(0.7) * math.cos(_PHASE), math.sqrt(0.7) * math.sin(_PHASE)],
                       "input_kind": "gemenge", "seed": 6, "trials": 3 * 2**16 + 1234},
    # the 4096-dim cap: 8 chain dims times 2**9 environment dims
    "cap": {"a1": math.sqrt(0.3),
            "a2": [math.sqrt(0.7) * math.cos(_PHASE), math.sqrt(0.7) * math.sin(_PHASE)],
            "n_env": 9, "env_overlap": 0.5, "seed": 11},
}
CASE_COMMANDS = {
    "symmetric": COMMANDS,
    "edge_weight": COMMANDS,
    "complex_gemenge": ("all",),
    "chunks_pure": ("born",),
    "chunks_gemenge": ("born",),
    "cap": ("decohere",),
}
_SUFFIX = {"structured-text": "json", "csv": "csv"}

GOLDEN = [(case, command, fmt) for case, commands in CASE_COMMANDS.items()
          for command in commands for fmt in FORMATS]


def golden_path(case: str, command: str, fmt: str) -> Path:
    return GOLDEN_DIR / f"{case}.{command}.{_SUFFIX[fmt]}"


def render(case: str, command: str, fmt: str) -> bytes:
    config = config_from_dict(dict(CASES[case]), override_command=command)
    return render_report(execute(config), fmt).encode("ascii")


@pytest.mark.parametrize("case,command,fmt", GOLDEN)
def test_report_bytes_match_golden(case, command, fmt):
    assert render(case, command, fmt) == golden_path(case, command, fmt).read_bytes()


@pytest.mark.parametrize("case,command", [(c, m) for c, m, fmt in GOLDEN if fmt == "csv"])
def test_csv_rows_are_as_wide_as_their_header(case, command):
    header, *rows = csv.reader(io.StringIO(render(case, command, "csv").decode("ascii")))
    assert rows
    assert all(len(row) == len(header) for row in rows)


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for triple in GOLDEN:
        golden_path(*triple).write_bytes(render(*triple))
