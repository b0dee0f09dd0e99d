"""Command-line interface.

Subcommands cover the two eigenvalue solves (`q-gamma`, `q-map`), the modulus
solver (`modulus`), and the verification batteries (`verify`).  All output is
deterministic: rerunning a command on the same inputs produces the same bytes.

Exit codes: 0 success, 2 bad input or schema violation, 3 obstruction found,
4 solver non-convergence, 5 a verification case failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Optional, Sequence

import numpy as np

from confdim import suites
from confdim.covers import (
    grid_annulus,
    lattes_model,
    quasipacking_check,
    refine,
    verify_covering_scaling,
    verify_growth_bound,
)
from confdim.modulus import modulus, verify_subadditivity
from confdim.multicurve import LEVY_OBSTRUCTED, q_of_map, q_of_multicurve
from confdim.schemas import (
    SchemaError,
    parse_catalog,
    parse_cover_family,
    parse_multicurve,
    render_csv,
    render_json,
)
from confdim.spectral import ConvergenceError

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_OBSTRUCTED = 3
EXIT_NO_CONVERGENCE = 4
EXIT_CHECK_FAILED = 5

#: most exponents an ``--q-grid`` may list; a longer grid exits 2 before any solve
MAX_GRID_POINTS = 10_000


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _emit(args: argparse.Namespace, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"expected start:stop:step, got {text!r}")
    start, stop, step = (float(p) for p in parts)
    if not all(math.isfinite(x) for x in (start, stop, step)):
        raise ValueError(f"grid bounds and step must be finite, got {text!r}")
    if step <= 0:
        raise ValueError("grid step must be positive")
    # The loop below keeps every point up to stop + 1e-12, so count that slack too.
    if (stop - start + 1e-12) / step >= MAX_GRID_POINTS:
        raise ValueError(f"exponent grid {text!r} has more than {MAX_GRID_POINTS} points")
    values = []
    k = 0
    while True:
        value = start + k * step
        if value > stop + 1e-12:
            break
        values.append(value)
        k += 1
    if not values:
        raise ValueError(f"empty exponent grid {text!r}")
    return values


def _q_values(args: argparse.Namespace) -> list[float]:
    if getattr(args, "q_grid", None):
        return _parse_grid(args.q_grid)
    return [args.q]


def _qresult_payload(result) -> dict:
    return {
        "kind": result.kind,
        "q": result.q,
        "achieved_lambda": result.achieved_lambda,
        "iterations": result.iterations,
    }


def _cmd_q_gamma(args: argparse.Namespace) -> int:
    spec = parse_multicurve(_load_json(args.input))
    result = q_of_multicurve(spec, tol=args.tol)
    if args.format == "json":
        _emit(args, render_json(_qresult_payload(result)))
    else:
        _emit(
            args,
            render_csv(
                ["kind", "q", "achieved_lambda", "iterations"],
                [[result.kind, result.q, result.achieved_lambda, result.iterations]],
            ),
        )
    return EXIT_OBSTRUCTED if result.kind == LEVY_OBSTRUCTED else EXIT_OK


def _cmd_q_map(args: argparse.Namespace) -> int:
    base_dir = os.path.dirname(os.path.abspath(args.input))
    catalog = parse_catalog(_load_json(args.input), base_dir=base_dir)
    report = q_of_map(catalog, tol=args.tol)
    if args.format == "json":
        payload = {
            "results": [_qresult_payload(r) for r in report.results],
            "conformal_dimension_lower_bound": report.overall,
            "levy_obstructed": report.levy_flag,
        }
        _emit(args, render_json(payload))
    else:
        header = [
            "index",
            "kind",
            "q",
            "achieved_lambda",
            "iterations",
            "conformal_dimension_lower_bound",
            "levy_obstructed",
        ]
        rows = [
            [i, r.kind, r.q, r.achieved_lambda, r.iterations, report.overall, report.levy_flag]
            for i, r in enumerate(report.results)
        ]
        _emit(args, render_csv(header, rows))
    return EXIT_OBSTRUCTED if report.levy_flag else EXIT_OK


def _certificate_payload(certificate) -> Optional[dict]:
    if certificate is None:
        return None
    return {
        "ok": certificate.ok,
        "kkt_residual": certificate.kkt_residual,
        "active_count": len(certificate.active_curves),
        "min_length": certificate.min_length,
    }


def _cmd_modulus(args: argparse.Namespace) -> int:
    cover, family = parse_cover_family(_load_json(args.input))
    values = _q_values(args)
    results = [(q, modulus(cover, family, q, tol=args.tol)) for q in values]

    if len(results) == 1:
        q, result = results[0]
        if args.format == "json":
            payload = {
                "q": q,
                "value": result.value,
                "min_length": result.min_length,
                "optimizer": [float(w) for w in result.optimizer.rho],
                "certificate": _certificate_payload(result.certificate),
            }
            _emit(args, render_json(payload))
        else:
            rows = [[i, float(w)] for i, w in enumerate(result.optimizer.rho)]
            _emit(args, render_csv(["piece", "weight"], rows))
    else:
        if args.format == "json":
            payload = {
                "results": [
                    {
                        "q": q,
                        "value": r.value,
                        "min_length": r.min_length,
                        "certificate_ok": None if r.certificate is None else r.certificate.ok,
                    }
                    for q, r in results
                ]
            }
            _emit(args, render_json(payload))
        else:
            _emit(args, render_csv(["q", "value"], [[q, r.value] for q, r in results]))
    return EXIT_OK


def _parse_grids(text: str) -> list[tuple[int, int]]:
    grids = []
    for token in text.split(","):
        c_text, _, h_text = token.partition("x")
        grids.append((int(c_text), int(h_text)))
    return grids


def _verify_scaling_rows(args: argparse.Namespace) -> list[dict]:
    rows = []
    degrees = [int(d) for d in args.degrees.split(",")]
    for c, h in _parse_grids(args.grids):
        annulus = grid_annulus(c, h)
        for d in degrees:
            for q in _q_values(args):
                report = verify_covering_scaling(annulus, d, q, tol=args.tol)
                rows.append(
                    {
                        "grid": f"{c}x{h}",
                        "degree": d,
                        "q": q,
                        "base": report.base_value,
                        "cover": report.cover_value,
                        "expected": report.expected_cover_value,
                        "rel_error": report.rel_error,
                        "pass": report.ok,
                    }
                )
    return rows


def _verify_growth_rows(args: argparse.Namespace) -> list[dict]:
    dynamics, spec = lattes_model(args.levels)
    rows = []
    for q in _q_values(args):
        report = verify_growth_bound(dynamics, spec, q, n_max=args.levels, tol=args.tol)
        for row in report.rows:
            rows.append(
                {
                    "q": q,
                    "level": row.level,
                    "annuli": row.annuli_count,
                    "left": row.left_sum,
                    "right": row.right_bound,
                    "max_scaling_rel_error": row.max_scaling_rel_error,
                    "containment": row.containment_ok,
                    "disjoint": row.disjoint_ok,
                    "pass": row.ok,
                }
            )
    return rows


def _verify_pack_rows(args: argparse.Namespace) -> list[dict]:
    base = grid_annulus(4, 2)
    rows = []
    for level in range(args.levels + 1):
        cover = base if level == 0 else refine(base, 2**level)
        result = quasipacking_check(cover)
        rows.append(
            {
                "level": level,
                "cells": cover.piece_count,
                "constant": result.constant,
                "pass": result.ok,
            }
        )
    return rows


def _verify_props_rows(args: argparse.Namespace) -> list[dict]:
    rng = np.random.default_rng(args.seed)
    rows = []
    for i in range(args.cases):
        cover = suites.random_cover(rng)
        inner, outer = suites.random_nested_pair(rng, cover.piece_count)
        small = modulus(cover, inner, args.q, tol=args.tol).value
        large = modulus(cover, outer, args.q, tol=args.tol).value
        rows.append(
            {
                "case": f"monotonicity-{i}",
                "lhs": small,
                "rhs": large,
                "pass": small <= large + 2.0 * args.tol,
            }
        )
    for i in range(args.cases):
        cover = suites.random_cover(rng)
        families = [suites.random_family(rng, cover.piece_count) for _ in range(2)]
        report = verify_subadditivity(cover, families, args.q, tol=args.tol)
        ok = report.subadditive and report.additive_when_disjoint in (None, True)
        rows.append(
            {
                "case": f"subadditivity-{i}",
                "lhs": report.union_value,
                "rhs": report.sum_of_values,
                "pass": ok,
            }
        )
    return rows


def _cmd_verify(args: argparse.Namespace) -> int:
    builders = {
        "scaling-check": _verify_scaling_rows,
        "growth-check": _verify_growth_rows,
        "pack-check": _verify_pack_rows,
        "props": _verify_props_rows,
    }
    rows = builders[args.check](args)
    all_ok = all(row["pass"] for row in rows)
    if args.format == "json":
        _emit(args, render_json({"check": args.check, "cases": rows, "ok": all_ok}))
    else:
        header = list(rows[0].keys())
        _emit(args, render_csv(header, [[row[key] for key in header] for row in rows]))
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def _add_common(parser: argparse.ArgumentParser, tol: float) -> None:
    parser.add_argument("--tol", type=float, default=tol, help="numerical tolerance")
    parser.add_argument(
        "--format", choices=("json", "csv"), default="json", help="output format"
    )
    parser.add_argument("--out", help="write output to this file instead of stdout")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="confdim",
        description="Critical exponents of multicurves and combinatorial moduli.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    q_gamma = sub.add_parser("q-gamma", help="critical exponent of one multicurve")
    q_gamma.add_argument("--input", required=True, help="multicurve JSON file")
    _add_common(q_gamma, tol=1e-10)
    q_gamma.set_defaults(handler=_cmd_q_gamma)

    q_map = sub.add_parser("q-map", help="catalog sweep with the best lower bound")
    q_map.add_argument("--input", required=True, help="catalog JSON file")
    _add_common(q_map, tol=1e-10)
    q_map.set_defaults(handler=_cmd_q_map)

    mod = sub.add_parser("modulus", help="Q-modulus of a curve family on a cover")
    mod.add_argument("--input", required=True, help="cover/family JSON file")
    group = mod.add_mutually_exclusive_group(required=True)
    group.add_argument("--q", type=float, help="single exponent")
    group.add_argument("--q-grid", help="exponent grid start:stop:step")
    _add_common(mod, tol=1e-8)
    mod.set_defaults(handler=_cmd_modulus)

    verify = sub.add_parser("verify", help="verification tables with exit code 5 on failure")
    verify.add_argument(
        "check", choices=("scaling-check", "growth-check", "pack-check", "props")
    )
    group = verify.add_mutually_exclusive_group()
    group.add_argument("--q", type=float, default=2.0, help="single exponent")
    group.add_argument("--q-grid", help="exponent grid start:stop:step")
    verify.add_argument("--degrees", default="2,3", help="covering degrees (scaling-check)")
    verify.add_argument(
        "--grids", default="3x2,4x2,4x4", help="annulus grids CxH (scaling-check)"
    )
    verify.add_argument("--levels", type=int, default=2, help="levels (growth/pack checks)")
    verify.add_argument("--seed", type=int, default=0, help="RNG seed (props)")
    verify.add_argument("--cases", type=int, default=10, help="random cases (props)")
    _add_common(verify, tol=1e-6)
    verify.set_defaults(handler=_cmd_verify)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except ConvergenceError as exc:
        print(f"did not converge: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(run())
