"""Byte-for-byte reports of ``confdim`` commands on fixed inputs.

Each case runs one command line in a fresh interpreter, from the
``tests/golden`` directory, once with one BLAS thread and once with two, and
compares stdout and the exit code with the files there.  After a change that
is meant to alter a report, rewrite the expected files with
``python tests/test_golden.py`` (``src`` on the path) and list the fields
that changed.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import confdim

GOLDEN = Path(__file__).parent / "golden"

#: name -> (command line, expected exit code); input paths are relative to GOLDEN
CASES = {
    "five_piece_q2": (["modulus", "--input", "five_piece.json", "--q", "2"], 0),
    "five_piece_grid_csv": (
        ["modulus", "--input", "five_piece.json", "--q-grid", "1:3:0.5", "--format", "csv"],
        0,
    ),
    "six_piece_q2": (["modulus", "--input", "six_piece.json", "--q", "2"], 0),
    "annulus_8x8_q1.5": (["modulus", "--input", "annulus_8x8.json", "--q", "1.5"], 0),
    "annulus_12x12_grid": (["modulus", "--input", "annulus_12x12.json", "--q-grid", "1:3:0.5"], 0),
    "annulus_4x2_q1_csv": (
        ["modulus", "--input", "annulus_4x2.json", "--q", "1", "--format", "csv"],
        0,
    ),
    "reducible_q_gamma": (["q-gamma", "--input", "reducible.json"], 0),
    "reducible_q_gamma_csv": (["q-gamma", "--input", "reducible.json", "--format", "csv"], 0),
    # two irreducible blocks of 180 and 60 curves, above the dense-eig size
    "sparse_240_q_gamma": (["q-gamma", "--input", "sparse_240.json"], 0),
    "catalog_q_map": (["q-map", "--input", "catalog.json"], 3),
    "catalog_q_map_csv": (["q-map", "--input", "catalog.json", "--format", "csv"], 3),
    "growth_check": (["verify", "growth-check"], 0),
    "growth_check_grid_csv": (
        ["verify", "growth-check", "--q-grid", "1.5:3:0.5", "--format", "csv"],
        0,
    ),
    "scaling_check": (["verify", "scaling-check"], 0),
    "scaling_check_grid_csv": (
        ["verify", "scaling-check", "--q-grid", "1.5:3:0.5", "--format", "csv"],
        0,
    ),
}


def run_case(name: str, blas_threads: int) -> subprocess.CompletedProcess:
    argv, _ = CASES[name]
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(confdim.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads), PYTHONPATH=src_dir)
    return subprocess.run(
        [sys.executable, "-m", "confdim.cli", *argv],
        cwd=GOLDEN,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("blas_threads", [1, 2])
@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes(name, blas_threads):
    done = run_case(name, blas_threads)
    assert done.returncode == CASES[name][1], done.stderr
    assert done.stdout == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")


if __name__ == "__main__":
    for case in sorted(CASES):
        done = run_case(case, 2)
        if done.returncode != CASES[case][1]:
            sys.exit(f"{case}: exit code {done.returncode}\n{done.stderr}")
        (GOLDEN / f"{case}.out").write_text(done.stdout, encoding="utf-8")
        print(f"wrote {case}.out")
