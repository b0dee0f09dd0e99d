"""Byte-for-byte reports of ``confdim modulus`` on fixed inputs.

Each case runs the command in a fresh interpreter, once with one BLAS thread
and once with two, and compares stdout and the exit code with the files in
``tests/golden``.  After a change that is meant to alter a report, rewrite
the expected files with ``python tests/test_golden.py`` (``src`` on the path)
and list the fields that changed.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import confdim

GOLDEN = Path(__file__).parent / "golden"

#: name -> (input file, arguments after the input, expected exit code)
CASES = {
    "five_piece_q2": ("five_piece.json", ["--q", "2"], 0),
    "five_piece_grid_csv": ("five_piece.json", ["--q-grid", "1:3:0.5", "--format", "csv"], 0),
    "six_piece_q2": ("six_piece.json", ["--q", "2"], 0),
    "annulus_8x8_q1.5": ("annulus_8x8.json", ["--q", "1.5"], 0),
    "annulus_12x12_grid": ("annulus_12x12.json", ["--q-grid", "1:3:0.5"], 0),
    "annulus_4x2_q1_csv": ("annulus_4x2.json", ["--q", "1", "--format", "csv"], 0),
}


def run_case(name: str, blas_threads: int) -> subprocess.CompletedProcess:
    source, extra, _ = CASES[name]
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(confdim.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads), PYTHONPATH=src_dir)
    argv = [sys.executable, "-m", "confdim.cli", "modulus", "--input", str(GOLDEN / source)]
    return subprocess.run(
        argv + extra, env=env, capture_output=True, text=True, timeout=300
    )


@pytest.mark.parametrize("blas_threads", [1, 2])
@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes(name, blas_threads):
    done = run_case(name, blas_threads)
    assert done.returncode == CASES[name][2], done.stderr
    assert done.stdout == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")


if __name__ == "__main__":
    for case in sorted(CASES):
        done = run_case(case, 2)
        if done.returncode != CASES[case][2]:
            sys.exit(f"{case}: exit code {done.returncode}\n{done.stderr}")
        (GOLDEN / f"{case}.out").write_text(done.stdout, encoding="utf-8")
        print(f"wrote {case}.out")
