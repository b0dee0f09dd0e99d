"""End-to-end command-line behavior: exit codes, formats, determinism."""

from __future__ import annotations

import json
import time

import pytest

from confdim.cli import run
from confdim.spectral import ConvergenceError


def write_json(path, payload) -> str:
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.fixture
def lattes_file(tmp_path):
    return write_json(
        tmp_path / "lattes.json",
        {
            "schema_version": 1,
            "curves": ["g1"],
            "map_degree": 4,
            "preimages": {
                "g1": [
                    {"degree": 2, "class": {"essential": "g1"}},
                    {"degree": 2, "class": {"essential": "g1"}},
                ]
            },
        },
    )


@pytest.fixture
def levy_file(tmp_path):
    return write_json(
        tmp_path / "levy.json",
        {
            "schema_version": 1,
            "curves": ["a"],
            "preimages": {
                "a": [
                    {"degree": 1, "class": {"essential": "a"}},
                    {"degree": 2, "class": {"essential": "a"}},
                ]
            },
        },
    )


@pytest.fixture
def ring_cover_file(tmp_path):
    return write_json(
        tmp_path / "ring.json",
        {
            "schema_version": 1,
            "pieces": 10,
            "curves": [[0, 1, 2, 3]],
            "family": "explicit",
        },
    )


@pytest.fixture
def annulus_file(tmp_path):
    return write_json(
        tmp_path / "annulus.json",
        {
            "schema_version": 1,
            "family": {"oracle": "annulus", "circumference": 4, "height": 2},
        },
    )


class TestQGamma:
    def test_finite_json(self, lattes_file, capsys):
        assert run(["q-gamma", "--input", lattes_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "finite"
        assert payload["q"] == pytest.approx(2.0, abs=1e-9)
        assert payload["achieved_lambda"] == pytest.approx(1.0, abs=1e-9)

    def test_finite_csv(self, lattes_file, capsys):
        assert run(["q-gamma", "--input", lattes_file, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "kind,q,achieved_lambda,iterations"
        assert lines[1].startswith("finite,2,")

    def test_levy_exit_code(self, levy_file, capsys):
        assert run(["q-gamma", "--input", levy_file]) == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "levy_obstructed"
        assert payload["q"] is None

    def test_finite_json_bytes(self, lattes_file, capsys):
        assert run(["q-gamma", "--input", lattes_file]) == 0
        assert capsys.readouterr().out == (
            '{"kind": "finite", "q": 2, "achieved_lambda": 1, "iterations": 2}\n'
        )

    def test_finite_csv_bytes(self, lattes_file, capsys):
        assert run(["q-gamma", "--input", lattes_file, "--format", "csv"]) == 0
        assert capsys.readouterr().out == "kind,q,achieved_lambda,iterations\nfinite,2,1,2\n"

    def test_levy_json_bytes(self, levy_file, capsys):
        assert run(["q-gamma", "--input", levy_file]) == 3
        assert capsys.readouterr().out == (
            '{"kind": "levy_obstructed", "q": null, "achieved_lambda": 1, "iterations": 1}\n'
        )

    def test_schema_violation_exits_2(self, tmp_path, capsys):
        bad = write_json(tmp_path / "bad.json", {"schema_version": 9, "curves": ["a"]})
        assert run(["q-gamma", "--input", bad]) == 2
        assert "schema error" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert run(["q-gamma", "--input", str(tmp_path / "nope.json")]) == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "mangled.json"
        bad.write_text("{", encoding="utf-8")
        assert run(["q-gamma", "--input", str(bad)]) == 2

    def test_degree_past_float_range_exits_2(self, tmp_path, capsys):
        """10^400 used to raise an uncaught OverflowError in the solve."""
        path = write_json(
            tmp_path / "huge_degree.json",
            {
                "schema_version": 1,
                "curves": ["a"],
                "preimages": {"a": [{"degree": 10**400, "class": {"essential": "a"}}]},
            },
        )
        assert run(["q-gamma", "--input", path]) == 2
        err = capsys.readouterr().err
        assert "schema error" in err and "$.preimages.a[0].degree" in err


class TestQMap:
    def test_catalog_lower_bound(self, tmp_path, lattes_file, capsys):
        catalog = write_json(
            tmp_path / "catalog.json",
            {
                "schema_version": 1,
                "multicurves": [
                    "lattes.json",
                    {
                        "schema_version": 1,
                        "curves": ["a"],
                        "preimages": {"a": [{"degree": 2, "class": "peripheral"}]},
                    },
                ],
            },
        )
        assert run(["q-map", "--input", catalog]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["conformal_dimension_lower_bound"] == pytest.approx(2.0, abs=1e-9)
        assert [r["kind"] for r in payload["results"]] == ["finite", "zero"]
        assert payload["levy_obstructed"] is False

    def test_levy_member_sets_flag_and_exit(self, tmp_path, lattes_file, levy_file, capsys):
        catalog = write_json(
            tmp_path / "catalog.json",
            {"schema_version": 1, "multicurves": ["lattes.json", "levy.json"]},
        )
        assert run(["q-map", "--input", catalog]) == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["levy_obstructed"] is True
        assert payload["conformal_dimension_lower_bound"] == pytest.approx(2.0, abs=1e-9)

    def test_empty_catalog_exits_2(self, tmp_path, capsys):
        catalog = write_json(
            tmp_path / "catalog.json", {"schema_version": 1, "multicurves": []}
        )
        assert run(["q-map", "--input", catalog]) == 2

    def test_csv_has_summary_columns(self, tmp_path, lattes_file, capsys):
        catalog = write_json(
            tmp_path / "catalog.json",
            {"schema_version": 1, "multicurves": ["lattes.json"]},
        )
        assert run(["q-map", "--input", catalog, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].endswith("conformal_dimension_lower_bound,levy_obstructed")
        assert lines[1].endswith("false")


class TestModulus:
    def test_single_q_json(self, ring_cover_file, capsys):
        assert run(["modulus", "--input", ring_cover_file, "--q", "2.0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == pytest.approx(0.25, rel=1e-9)
        assert payload["min_length"] == pytest.approx(1.0, rel=1e-9)
        assert len(payload["optimizer"]) == 10
        assert payload["certificate"]["ok"] is True

    def test_single_q_csv_emits_piece_weight_rows(self, ring_cover_file, capsys):
        assert run(
            ["modulus", "--input", ring_cover_file, "--q", "2.0", "--format", "csv"]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "piece,weight"
        assert len(lines) == 11
        assert lines[1] == "0,0.25"
        assert lines[-1] == "9,0"

    def test_q_grid_json(self, annulus_file, capsys):
        assert run(
            ["modulus", "--input", annulus_file, "--q-grid", "1.5:3.0:0.5"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        qs = [row["q"] for row in payload["results"]]
        assert qs == [1.5, 2.0, 2.5, 3.0]
        values = [row["value"] for row in payload["results"]]
        for q, value in zip(qs, values):
            assert value == pytest.approx(2.0 * 4.0 ** (1.0 - q), rel=1e-6)

    def test_q_grid_csv(self, annulus_file, capsys):
        assert run(
            ["modulus", "--input", annulus_file, "--q-grid", "2:3:1", "--format", "csv"]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "q,value"
        assert len(lines) == 3

    def test_q_one_has_no_certificate(self, ring_cover_file, capsys):
        assert run(["modulus", "--input", ring_cover_file, "--q", "1.0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["certificate"] is None
        assert payload["value"] == pytest.approx(1.0, rel=1e-9)

    def test_bad_q_exits_2(self, ring_cover_file, capsys):
        assert run(["modulus", "--input", ring_cover_file, "--q", "0.5"]) == 2

    def test_large_q_is_not_reported_as_bad_input(self, tmp_path, capsys):
        """At Q = 1100 the row lengths underflow inside the solve; Q is valid input."""
        path = write_json(
            tmp_path / "cycle.json",
            {"schema_version": 1, "pieces": 5, "curves": [[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]]},
        )
        assert run(["modulus", "--input", path, "--q", "1100"]) in (0, 4)

    def test_bad_grid_exits_2(self, ring_cover_file, capsys):
        assert run(["modulus", "--input", ring_cover_file, "--q-grid", "2:3"]) == 2

    @pytest.mark.parametrize("grid", ["1:1e9:1e-6", "1:1:1e-20", "1:inf:1", "nan:2:1"])
    def test_grid_over_point_cap_exits_2_before_any_solve(
        self, ring_cover_file, grid, capsys, monkeypatch
    ):
        """1:1e9:1e-6 used to build 10^15 floats before the first solve."""
        calls = []
        monkeypatch.setattr("confdim.cli.modulus", lambda *a, **k: calls.append(a))
        started = time.perf_counter()
        assert run(["modulus", "--input", ring_cover_file, "--q-grid", grid]) == 2
        assert time.perf_counter() - started < 1.0
        assert calls == []
        assert "grid" in capsys.readouterr().err

    def test_q_and_grid_mutually_exclusive(self, ring_cover_file):
        with pytest.raises(SystemExit):
            run(["modulus", "--input", ring_cover_file, "--q", "2", "--q-grid", "2:3:1"])

    def test_over_cap_annulus_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("CONFDIM_MAX_CELLS", raising=False)
        path = write_json(
            tmp_path / "huge.json",
            {
                "schema_version": 1,
                "family": {"oracle": "annulus", "circumference": 400, "height": 400},
            },
        )
        started = time.perf_counter()
        assert run(["modulus", "--input", path, "--q", "2"]) == 2
        assert time.perf_counter() - started < 2.0
        assert "CONFDIM_MAX_CELLS" in capsys.readouterr().err

    def test_over_cap_explicit_cover_exits_2(self, tmp_path, capsys, monkeypatch):
        """A million pieces used to allocate a dense curves x pieces matrix."""
        monkeypatch.delenv("CONFDIM_MAX_CELLS", raising=False)
        path = write_json(
            tmp_path / "huge.json",
            {"schema_version": 1, "pieces": 1000000, "curves": [[0, 1], [2, 3], [4]]},
        )
        assert run(["modulus", "--input", path, "--q", "2"]) == 2
        err = capsys.readouterr().err
        assert "an explicit cover needs 1000000 cells, over the cap of 100000" in err
        assert "CONFDIM_MAX_CELLS" in err

    def test_convergence_failure_exits_4(self, ring_cover_file, capsys, monkeypatch):
        def explode(*args, **kwargs):
            raise ConvergenceError("stalled")

        monkeypatch.setattr("confdim.cli.modulus", explode)
        assert run(["modulus", "--input", ring_cover_file, "--q", "2.0"]) == 4
        assert "did not converge" in capsys.readouterr().err

    def test_reruns_are_byte_identical(self, annulus_file, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out1, out2):
            assert run(
                ["modulus", "--input", annulus_file, "--q", "2.0", "--out", str(out)]
            ) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.read_bytes().endswith(b"\n")

    def test_out_file_leaves_stdout_empty(self, ring_cover_file, tmp_path, capsys):
        out = tmp_path / "result.json"
        assert run(
            ["modulus", "--input", ring_cover_file, "--q", "2.0", "--out", str(out)]
        ) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text())["value"] == pytest.approx(0.25, rel=1e-9)


class TestVerify:
    def test_scaling_check_passes(self, capsys):
        code = run(
            [
                "verify",
                "scaling-check",
                "--grids",
                "3x2,4x2",
                "--degrees",
                "2",
                "--q",
                "2.0",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert len(payload["cases"]) == 2
        for case in payload["cases"]:
            assert case["pass"] is True
            assert case["rel_error"] <= 1e-6

    def test_growth_check_table(self, capsys):
        assert run(["verify", "growth-check", "--levels", "2", "--q", "2.0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [case["level"] for case in payload["cases"]] == [0, 1, 2]
        for case in payload["cases"]:
            assert case["left"] == pytest.approx(case["right"], rel=1e-4)
            assert case["pass"] is True

    def test_pack_check_csv(self, capsys):
        assert run(
            ["verify", "pack-check", "--levels", "3", "--format", "csv"]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "level,cells,constant,pass"
        assert len(lines) == 5
        constants = {line.split(",")[2] for line in lines[1:]}
        assert len(constants) == 1

    def test_props_sweep(self, capsys):
        assert run(["verify", "props", "--cases", "3", "--seed", "11"]) == 0
        payload = json.loads(capsys.readouterr().out)
        labels = [case["case"] for case in payload["cases"]]
        assert labels[0] == "monotonicity-0"
        assert labels[-1] == "subadditivity-2"
        assert all(case["pass"] for case in payload["cases"])

    def test_failed_case_exits_5_with_table(self, capsys, monkeypatch):
        import confdim.cli as cli_module

        real = cli_module.verify_covering_scaling

        def doctored(annulus, d, q, tol=1e-6):
            report = real(annulus, d, q, tol=tol)
            return type(report)(
                ok=False,
                degree=report.degree,
                q=report.q,
                base_value=report.base_value,
                cover_value=report.cover_value,
                expected_cover_value=report.expected_cover_value,
                rel_error=report.rel_error,
            )

        monkeypatch.setattr(cli_module, "verify_covering_scaling", doctored)
        code = run(["verify", "scaling-check", "--grids", "3x2", "--degrees", "2"])
        assert code == 5
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["cases"][0]["pass"] is False

    def test_cell_cap_is_honored(self, capsys, monkeypatch):
        monkeypatch.setenv("CONFDIM_MAX_CELLS", "100")
        assert run(["verify", "growth-check", "--levels", "1"]) == 2
        assert "cap" in capsys.readouterr().err

    def test_pack_check_over_cap_exits_2(self, capsys, monkeypatch):
        monkeypatch.delenv("CONFDIM_MAX_CELLS", raising=False)
        assert run(["verify", "pack-check", "--levels", "9"]) == 2
        assert "CONFDIM_MAX_CELLS" in capsys.readouterr().err

    def test_verify_reruns_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out1, out2):
            assert run(
                [
                    "verify",
                    "props",
                    "--cases",
                    "2",
                    "--seed",
                    "7",
                    "--out",
                    str(out),
                ]
            ) == 0
        assert out1.read_bytes() == out2.read_bytes()
