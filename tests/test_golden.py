"""Report bytes must match the committed golden files exactly.

Each case is a fixed config; each (case, command, format) triple has one file
under `tests/golden/`. To write the files afresh from the `mschain` that is
first on the import path, run this module as a script:

    PYTHONPATH=src python tests/test_golden.py

Regenerate only when a report is meant to change, and say why in CHANGES.md.
"""

import csv
import io
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import report_hashes

import mschain
from mschain.cli import COMMANDS, FORMATS, config_from_dict, execute, render_report

GOLDEN_DIR = Path(__file__).parent / "golden"
# the lines `report_hashes.py` prints, one `label sha256` per report
HASHES_PATH = Path(__file__).parent / "report_hashes.txt"

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


def test_report_hashes_match_the_committed_file():
    # every report of the hash script's seeded configs, byte for byte as committed
    want = HASHES_PATH.read_text(encoding="ascii").splitlines()
    got = list(report_hashes.hash_lines())
    if got == want:
        return
    want_by_label, got_by_label = (dict(line.split(" ", 1) for line in lines)
                                   for lines in (want, got))
    changed = [label for label, digest in got_by_label.items()
               if want_by_label.get(label, digest) != digest]
    gone = [label for label in want_by_label if label not in got_by_label]
    new = [label for label in got_by_label if label not in want_by_label]
    pytest.fail(f"{len(changed)} of {len(want)} report hashes differ from {HASHES_PATH.name}, "
                f"first {changed[:5]}; {len(gone)} labels gone, first {gone[:5]}; "
                f"{len(new)} new, first {new[:5]}; the same labels in another order "
                f"when all three are empty")


# Run in a child process: the dispatch target numpy's complex multiply runs on,
# and the names of the golden files whose bytes the child renders differently.
_CHILD = """
import json
import numpy as np
from test_golden import GOLDEN, golden_path, render
info = np.lib.introspect.opt_func_info(func_name="^multiply$", signature="complex128")
differs = [golden_path(*t).name for t in GOLDEN if render(*t) != golden_path(*t).read_bytes()]
print(json.dumps({"current": info["multiply"]["DDD"]["current"], "differs": differs}))
"""


def _kernel_switch_unavailable() -> str:
    """Why the kernel switches cannot be exercised here, or "" when they can:
    they need an x86-64 CPU and a numpy built against an OpenBLAS that
    selects its kernels at run time."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return ("OpenBLAS's Sandybridge kernels and numpy's x86-64 SIMD targets "
                "exist on x86-64 only")
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    if "openblas" not in str(blas.get("name", "")).lower():
        return f"numpy is built against {blas.get('name', 'an unknown BLAS')}, not OpenBLAS"
    if "DYNAMIC_ARCH" not in blas.get("openblas configuration", "DYNAMIC_ARCH"):
        return "numpy's OpenBLAS is built for one kernel set and cannot switch"
    return ""


def _simd_targets() -> str:
    """numpy's non-baseline targets for complex multiply, such as X86_V3."""
    info = np.lib.introspect.opt_func_info(func_name="^multiply$", signature="complex128")
    return " ".join(t for t in info["multiply"]["DDD"]["available"].split()
                    if not t.startswith("baseline"))


@pytest.mark.skipif(bool(_kernel_switch_unavailable()), reason=_kernel_switch_unavailable())
def test_goldens_render_alike_under_other_cpu_kernels():
    # OpenBLAS's Sandybridge kernels do not fuse multiply-add, and numpy's baseline
    # loops use no AVX2 or FMA: each child renders every golden case under one switch
    # and must reproduce the committed bytes. Each switch must be seen to take effect.
    path = os.pathsep.join([str(Path(mschain.__file__).parents[1]), str(Path(__file__).parent),
                            os.environ.get("PYTHONPATH", "")])
    switches = {"sandybridge": {"OPENBLAS_CORETYPE": "Sandybridge", "OPENBLAS_VERBOSE": "2"},
                "numpy_baseline": {"NPY_DISABLE_CPU_FEATURES": _simd_targets()}}
    results = {}
    for name, switch in switches.items():
        child = subprocess.run([sys.executable, "-c", _CHILD],
                               env={**os.environ, **switch, "PYTHONPATH": path},
                               capture_output=True, text=True, timeout=300)
        assert child.returncode == 0, child.stderr
        results[name] = (json.loads(child.stdout), child.stderr)
    sandybridge, err = results["sandybridge"]
    cores = [line for line in err.splitlines() if line.startswith("Core: ")]
    assert cores and set(cores) == {"Core: Sandybridge"}, err
    baseline, _ = results["numpy_baseline"]
    assert baseline["current"].startswith("baseline("), baseline["current"]
    assert (sandybridge["differs"], baseline["differs"]) == ([], [])


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for triple in GOLDEN:
        golden_path(*triple).write_bytes(render(*triple))
