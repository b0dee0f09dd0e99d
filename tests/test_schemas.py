"""JSON parsing with path diagnostics and deterministic rendering."""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from confdim.modulus import modulus
from confdim.multicurve import Essential, MulticurveSpec, PreimageComponent, lattes_spec
from confdim.schemas import (
    SchemaError,
    parse_catalog,
    parse_cover_family,
    parse_multicurve,
    render_csv,
    render_json,
)


def lattes_json() -> dict:
    return {
        "schema_version": 1,
        "curves": ["g1"],
        "map_degree": 4,
        "preimages": {
            "g1": [
                {"degree": 2, "class": {"essential": "g1"}},
                {"degree": 2, "class": {"essential": "g1"}},
            ]
        },
    }


def two_curve_json() -> dict:
    return {
        "schema_version": 1,
        "curves": ["g1", "g2"],
        "preimages": {
            "g1": [{"degree": 2, "class": {"essential": "g2"}}],
            "g2": [
                {"degree": 3, "class": {"essential": "g1"}},
                {"degree": 1, "class": "peripheral"},
                {"degree": 4, "class": "inessential"},
            ],
        },
    }


class TestParseMulticurve:
    def test_lattes_example(self):
        spec = parse_multicurve(lattes_json())
        assert spec == lattes_spec()

    def test_classes_and_optional_degree(self):
        spec = parse_multicurve(two_curve_json())
        assert spec.curves == ("g1", "g2")
        assert spec.map_degree is None
        assert spec.components_of("g1") == (
            PreimageComponent(degree=2, classification=Essential("g2")),
        )
        assert len(spec.components_of("g2")) == 3

    def test_missing_preimage_key_means_no_components(self):
        data = {
            "schema_version": 1,
            "curves": ["g1", "g2"],
            "preimages": {"g1": [{"degree": 2, "class": "peripheral"}]},
        }
        spec = parse_multicurve(data)
        assert spec.components_of("g2") == ()

    @pytest.mark.parametrize(
        "mutate,path_fragment",
        [
            (lambda d: d.pop("schema_version"), "schema_version"),
            (lambda d: d.update(schema_version=2), "schema_version"),
            (lambda d: d.update(schema_version=True), "schema_version"),
            (lambda d: d.update(extra=1), "$"),
            (lambda d: d.update(curves=[]), "curves"),
            (lambda d: d.update(curves=["g1", "g1"]), "curves[1]"),
            (lambda d: d.update(curves=["g1", 7]), "curves[1]"),
            (lambda d: d.update(map_degree=0), "map_degree"),
            (lambda d: d.update(map_degree=True), "map_degree"),
            (lambda d: d["preimages"].update(bogus=[]), "preimages"),
            (
                lambda d: d["preimages"]["g1"].append({"degree": 0, "class": "peripheral"}),
                "preimages.g1[2].degree",
            ),
            (
                lambda d: d["preimages"]["g1"].append({"degree": 2, "class": "nonsense"}),
                "preimages.g1[2].class",
            ),
            (
                lambda d: d["preimages"]["g1"].append(
                    {"degree": 2, "class": {"essential": "zz"}}
                ),
                "class.essential",
            ),
            (
                lambda d: d["preimages"]["g1"].append({"degree": 2}),
                "class",
            ),
        ],
    )
    def test_rejections_carry_paths(self, mutate, path_fragment):
        data = lattes_json()
        mutate(data)
        with pytest.raises(SchemaError) as exc:
            parse_multicurve(data)
        assert path_fragment in str(exc.value)

    def test_fiber_degree_mismatch_is_schema_error(self):
        data = lattes_json()
        data["map_degree"] = 5
        with pytest.raises(SchemaError):
            parse_multicurve(data)

    def test_non_object_input(self):
        with pytest.raises(SchemaError):
            parse_multicurve([1, 2, 3])

    def test_20000_curves_parse_in_linear_time(self):
        """Names were checked against a list: 10000 curves took 2.5 s."""
        names = [f"g{i}" for i in range(20000)]
        data = {
            "schema_version": 1,
            "curves": names,
            "preimages": {
                name: [{"degree": 2, "class": {"essential": names[(i + 1) % 20000]}}]
                for i, name in enumerate(names)
            },
        }
        started = time.perf_counter()
        assert parse_multicurve(data).size == 20000
        assert time.perf_counter() - started < 2.0


class TestParseCatalog:
    def test_inline_and_file_refs(self, tmp_path):
        ref = tmp_path / "curve.json"
        ref.write_text(json.dumps(two_curve_json()), encoding="utf-8")
        data = {"schema_version": 1, "multicurves": [lattes_json(), "curve.json"]}
        specs = parse_catalog(data, base_dir=str(tmp_path))
        assert len(specs) == 2
        assert specs[0] == lattes_spec()
        assert specs[1].curves == ("g1", "g2")

    def test_empty_catalog_rejected(self):
        with pytest.raises(SchemaError) as exc:
            parse_catalog({"schema_version": 1, "multicurves": []})
        assert "multicurves" in str(exc.value)

    def test_missing_file_names_the_entry(self, tmp_path):
        data = {"schema_version": 1, "multicurves": ["nope.json"]}
        with pytest.raises(SchemaError) as exc:
            parse_catalog(data, base_dir=str(tmp_path))
        assert "multicurves[0]" in str(exc.value)

    def test_invalid_json_in_ref(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        data = {"schema_version": 1, "multicurves": ["bad.json"]}
        with pytest.raises(SchemaError):
            parse_catalog(data, base_dir=str(tmp_path))

    def test_inline_error_includes_entry_index(self):
        broken = lattes_json()
        broken["curves"] = []
        data = {"schema_version": 1, "multicurves": [lattes_json(), broken]}
        with pytest.raises(SchemaError) as exc:
            parse_catalog(data)
        assert "multicurves[1]" in str(exc.value)


class TestParseCoverFamily:
    def test_explicit_round_trip(self):
        data = {
            "schema_version": 1,
            "pieces": 10,
            "curves": [[0, 1, 2, 3]],
            "family": "explicit",
        }
        cover, family = parse_cover_family(data)
        assert cover.piece_count == 10
        result = modulus(cover, family, 2.0)
        assert result.value == pytest.approx(0.25, rel=1e-9)

    def test_family_defaults_to_explicit(self):
        data = {"schema_version": 1, "pieces": 4, "curves": [[0, 1]]}
        cover, family = parse_cover_family(data)
        assert family.is_explicit

    def test_annulus_oracle(self):
        data = {
            "schema_version": 1,
            "family": {"oracle": "annulus", "circumference": 4, "height": 2},
        }
        cover, family = parse_cover_family(data)
        assert cover.piece_count == 8
        assert not family.is_explicit
        assert modulus(cover, family, 2.0).value == pytest.approx(0.5, rel=1e-6)

    def test_annulus_piece_count_cross_checked(self):
        data = {
            "schema_version": 1,
            "pieces": 8,
            "family": {"oracle": "annulus", "circumference": 4, "height": 2},
        }
        parse_cover_family(data)
        data["pieces"] = 9
        with pytest.raises(SchemaError) as exc:
            parse_cover_family(data)
        assert "pieces" in str(exc.value)

    @pytest.mark.parametrize(
        "data,fragment",
        [
            ({"schema_version": 1, "pieces": 4, "curves": [[0, 9]]}, "curves[0]"),
            ({"schema_version": 1, "pieces": 4, "curves": []}, "curves"),
            ({"schema_version": 1, "pieces": 4, "curves": [[]]}, "curves[0]"),
            ({"schema_version": 1, "pieces": 0, "curves": [[0]]}, "pieces"),
            ({"schema_version": 1, "curves": [[0]]}, "pieces"),
            ({"schema_version": 1, "family": "implicit"}, "family"),
            ({"schema_version": 1, "family": {"oracle": "ring"}}, "oracle"),
            (
                {"schema_version": 1, "family": {"oracle": "annulus", "circumference": 4}},
                "height",
            ),
            (
                {
                    "schema_version": 1,
                    "curves": [[0]],
                    "family": {"oracle": "annulus", "circumference": 4, "height": 1},
                },
                "curves",
            ),
        ],
    )
    def test_rejections(self, data, fragment):
        with pytest.raises(SchemaError) as exc:
            parse_cover_family(data)
        assert fragment in str(exc.value)


class TestRendering:
    def test_json_key_order_and_floats(self):
        payload = {"b": 0.1 + 0.2, "a": 1, "flag": True, "none": None}
        text = render_json(payload)
        assert text == '{"b": 0.3, "a": 1, "flag": true, "none": null}\n'

    def test_json_nested_and_numpy(self):
        payload = {"xs": np.array([0.25, 0.5]), "n": np.int64(3)}
        assert render_json(payload) == '{"xs": [0.25, 0.5], "n": 3}\n'

    def test_json_twelve_significant_digits(self):
        text = render_json({"third": 1.0 / 3.0})
        assert text == '{"third": 0.333333333333}\n'

    def test_json_rejects_non_finite(self):
        with pytest.raises(ValueError):
            render_json({"x": float("inf")})

    def test_json_deterministic(self):
        payload = {"values": [1.0 / 7.0, 2.0 / 7.0], "ok": False}
        assert render_json(payload) == render_json(payload)

    def test_csv_shape(self):
        text = render_csv(["a", "b"], [[1, 0.5], [True, None]])
        assert text == "a,b\n1,0.5\ntrue,\n"

    def test_csv_quotes_commas(self):
        text = render_csv(["label"], [["x,y"]])
        assert text == 'label\n"x,y"\n'
