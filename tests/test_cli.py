"""Command line driver: configs, artifacts, exit codes, determinism."""

import ast
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import ccspectral as cc
from ccspectral.cli import RunConfig, SegmentConfig, _write_csv, build_problem

GRUSHIN_SPECTRUM = {
    "structure": {"kind": "grushin"},
    "grid": {"nx": 24, "ny": 48},
    "bc": "neumann",
    "solver": {"k": 4, "seed": 0},
}

GRUSHIN_CHEEGER = {
    "structure": {"kind": "grushin"},
    "grid": {"nx": 24, "ny": 48},
    "bc": "neumann",
    "solver": {"k": 4, "seed": 0},
    "cheeger": {"levels": 16, "certificate": {"phi": ["x", "0"], "mode": "dirichlet"}},
}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(args):
    return cc.main([str(a) for a in args])


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def test_spectrum_artifacts(tmp_path):
    cfg = write_config(tmp_path, GRUSHIN_SPECTRUM)
    out = tmp_path / "run"
    assert run(["spectrum", "--config", cfg, "--out", out, "--quiet"]) == 0

    lines = (out / "eigenvalues.csv").read_text().splitlines()
    assert lines[0] == "index,lambda,residual"
    assert len(lines) == 5
    lam = [float(row.split(",")[1]) for row in lines[1:]]
    assert abs(lam[0]) <= 1e-9
    assert lam[1] == pytest.approx(0.325, abs=5e-3)
    assert all(float(row.split(",")[2]) <= 1e-8 for row in lines[1:])

    for i in range(1, 5):
        assert (out / f"eig_{i}.pgm").read_bytes().startswith(b"P5\n24 48\n255\n")
        assert (out / f"nodal_{i}.pgm").exists()
    report = json.loads((out / "nodal_report.json").read_text())
    assert report["ok"] is True
    assert [e["index"] for e in report["entries"]] == [1, 2, 3, 4]
    assert report["entries"][0]["n_domains"] == 1


def test_spectrum_deterministic(tmp_path):
    cfg = write_config(tmp_path, GRUSHIN_SPECTRUM)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["spectrum", "--config", cfg, "--out", out1, "--quiet"]) == 0
    assert run(["spectrum", "--config", cfg, "--out", out2, "--quiet"]) == 0
    for p1 in sorted(out1.iterdir()):
        p2 = out2 / p1.name
        assert p1.read_bytes() == p2.read_bytes(), p1.name


def test_spectrum_quiet_silences_stdout(tmp_path, capsys):
    cfg = write_config(tmp_path, GRUSHIN_SPECTRUM)
    run(["spectrum", "--config", cfg, "--out", tmp_path / "q", "--quiet"])
    assert capsys.readouterr().out == ""
    run(["spectrum", "--config", cfg, "--out", tmp_path / "v"])
    assert "lambda" in capsys.readouterr().out


@pytest.mark.parametrize("command, doc, k", [("spectrum", GRUSHIN_SPECTRUM, 4),
                                             ("cheeger", GRUSHIN_CHEEGER, 2)],
                         ids=["spectrum", "cheeger"])
def test_spectrum_names_the_inverse_on_stdout_only(tmp_path, capsys, command, doc, k):
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "run"
    assert run([command, "--config", cfg, "--out", out]) == 0
    stdout = capsys.readouterr().out
    assert ("structure grushin-cylinder, grid 24x48, bc neumann, "
            f"k={k}, solver shift-invert (k = {k} < n_active - 1 = 1151), inverse fft-y "
            "(A + eps M is invariant under y-translation), ncv 20, ") in stdout
    assert re.search(r"\), ncv 20, [1-9][0-9]* inverse applies\n", stdout)
    assert "factor nnz" not in stdout  # the FFT inverse factors no sparse matrix
    for path in out.iterdir():
        data = path.read_bytes()
        assert b"fft-y" not in data and b"ncv" not in data and b"applies" not in data, path.name


def test_cheeger_names_the_factor_fill_on_stdout_only(tmp_path, capsys):
    doc = {"structure": {"kind": "euclidean"}, "grid": {"nx": 8, "ny": 8}, "bc": "dirichlet"}
    out = tmp_path / "run"
    assert run(["cheeger", "--config", write_config(tmp_path, doc), "--out", out]) == 0
    stdout = capsys.readouterr().out
    line = re.search(r"inverse splu \(chart not periodic in y\), factor nnz ([0-9]+), "
                     r"ncv 20, ([0-9]+) inverse applies\n", stdout)
    assert line and int(line[1]) >= 6 * 6 and int(line[2]) > 0
    for path in out.iterdir():
        assert b"factor nnz" not in path.read_bytes(), path.name


def test_spectrum_labels_each_eigenfunction_once(tmp_path, monkeypatch):
    import ccspectral.cli as cli
    import ccspectral.nodal as nodal

    calls = []
    original = nodal.nodal_domains

    def counting(grid, u, *args, **kwargs):
        calls.append(1)
        return original(grid, u, *args, **kwargs)

    # count calls under every name the package binds the function to
    for module in (cc, cli, nodal):
        if getattr(module, "nodal_domains", None) is original:
            monkeypatch.setattr(module, "nodal_domains", counting)
    cfg = write_config(tmp_path, GRUSHIN_SPECTRUM)
    assert run(["spectrum", "--config", cfg, "--out", tmp_path / "run", "--quiet"]) == 0
    assert len(calls) == GRUSHIN_SPECTRUM["solver"]["k"]


def test_spectrum_custom_structure(tmp_path):
    doc = {
        "structure": {
            "kind": "custom",
            "chart": {"x_range": [0, 1], "y_range": [0, 6.283185307179586],
                      "periodic_y": True},
            "fields": [["1", "0"], ["0", "x"]],
            "density": "1",
        },
        "grid": {"nx": 24, "ny": 48},
        "bc": "neumann",
        "solver": {"k": 2, "seed": 0},
    }
    out = tmp_path / "run"
    assert run(["spectrum", "--config", write_config(tmp_path, doc),
                "--out", out, "--quiet"]) == 0
    lam2 = float((out / "eigenvalues.csv").read_text().splitlines()[2].split(",")[1])
    assert lam2 == pytest.approx(0.325, abs=5e-3)


def test_spectrum_mixed_bc(tmp_path):
    doc = {
        "structure": {"kind": "euclidean"},
        "grid": {"nx": 24, "ny": 24},
        "bc": [{"edge": "x_min", "condition": "dirichlet"}],
        "solver": {"k": 1, "seed": 0},
    }
    out = tmp_path / "run"
    assert run(["spectrum", "--config", write_config(tmp_path, doc),
                "--out", out, "--quiet"]) == 0
    lam1 = float((out / "eigenvalues.csv").read_text().splitlines()[1].split(",")[1])
    # one Dirichlet side of the unit square: lambda_1 = pi^2 / 4
    assert lam1 == pytest.approx(np.pi**2 / 4.0, rel=2e-2)


# ---------------------------------------------------------------------------
# cheeger
# ---------------------------------------------------------------------------

def test_cheeger_neumann_presumes_upper_bound(tmp_path):
    cfg = write_config(tmp_path, GRUSHIN_CHEEGER)
    out = tmp_path / "run"
    assert run(["cheeger", "--config", cfg, "--out", out, "--quiet"]) == 0

    report = json.loads((out / "inequality_report.json").read_text())
    assert report["kind"] == "neumann"
    # the configured certificate is dirichlet-mode, so it cannot feed the
    # neumann inequality; the best upper bound is presumed instead
    assert report["h_source"] == "upper_bound_presumed"
    assert report["certificate_valid"] is True
    assert report["h_upper"] == pytest.approx(1.0 / np.pi, abs=0.02)
    assert report["satisfied"] is True
    assert report["lambda"] == pytest.approx(0.325, abs=5e-3)

    cuts = (out / "cuts.csv").read_text().splitlines()
    assert cuts[0] == "kind,sigma,vol1,vol2,ratio"
    kinds = {row.split(",")[0] for row in cuts[1:]}
    assert {"vertical_circle", "line_pair", "level_set"} <= kinds

    cert = json.loads((out / "certificate.json").read_text())
    assert cert["mode"] == "dirichlet" and cert["valid"] is True
    assert cert["h_certified"] == pytest.approx(1.0, abs=1e-9)
    assert cert["sampling"] == "nodes" and cert["supplies_h_lower"] is True


def test_cheeger_dirichlet_uses_certificate(tmp_path):
    doc = dict(GRUSHIN_CHEEGER, bc="dirichlet")
    out = tmp_path / "run"
    assert run(["cheeger", "--config", write_config(tmp_path, doc),
                "--out", out, "--quiet"]) == 0
    report = json.loads((out / "inequality_report.json").read_text())
    assert report["kind"] == "dirichlet"
    assert report["h_source"] == "certificate"
    assert report["h_lower"] == pytest.approx(1.0, abs=1e-9)
    assert report["lower_bound"] == pytest.approx(0.25, abs=1e-9)
    assert report["satisfied"] is True


@pytest.mark.parametrize("bc", ["dirichlet", [{"edge": "x_max", "condition": "dirichlet"}],
                                "neumann"], ids=["dirichlet", "mixed", "neumann"])
def test_cheeger_prints_the_cut_that_sets_h_upper(tmp_path, capsys, bc):
    # Dirichlet reads sigma/vol1; at 32x64 the least two-sided ratio is about
    # 4.13 while h_upper is about 2.14, and the printed best cut must be the latter
    doc = dict(GRUSHIN_CHEEGER, grid={"nx": 32, "ny": 64}, bc=bc)
    out = tmp_path / "run"
    assert run(["cheeger", "--config", write_config(tmp_path, doc), "--out", out]) == 0
    report = strict_json(out / "inequality_report.json")
    best = [line for line in capsys.readouterr().out.splitlines() if "candidate cuts; best" in line]
    assert len(best) == 1
    assert best[0].endswith(f" ratio = {report['h_upper']:.9g}")


MIXED_X_MAX = [{"edge": "x_max", "condition": "dirichlet"}]


@pytest.mark.parametrize("doc", [
    GRUSHIN_CHEEGER,
    dict(GRUSHIN_CHEEGER, bc=MIXED_X_MAX),
    {"structure": {"kind": "euclidean"}, "grid": {"nx": 20, "ny": 20}, "bc": "dirichlet",
     "cheeger": {"certificate": {"phi": ["x", "0"]}}},
], ids=["neumann-grushin", "mixed-grushin", "dirichlet-euclidean"])
def test_cheeger_deterministic(tmp_path, doc):
    cfg = write_config(tmp_path, doc)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["cheeger", "--config", cfg, "--out", out1, "--quiet"]) == 0
    assert run(["cheeger", "--config", cfg, "--out", out2, "--quiet"]) == 0
    assert sorted(p.name for p in out1.iterdir()) == sorted(p.name for p in out2.iterdir())
    for p1 in sorted(out1.iterdir()):
        assert p1.read_bytes() == (out2 / p1.name).read_bytes(), p1.name


@pytest.mark.parametrize("bc", ["dirichlet", MIXED_X_MAX, "neumann"],
                         ids=["dirichlet", "mixed", "neumann"])
def test_cheeger_builds_each_level_once(tmp_path, monkeypatch, bc):
    import ccspectral.cheeger as cheeger

    calls = []
    original = cheeger._level_segments

    def counting(grid, values2d, t, *args, **kwargs):
        calls.append((values2d.tobytes(), float(t)))
        return original(grid, values2d, t, *args, **kwargs)

    monkeypatch.setattr(cheeger, "_level_segments", counting)
    doc = dict(GRUSHIN_CHEEGER, bc=bc)
    out = tmp_path / "run"
    assert run(["cheeger", "--config", write_config(tmp_path, doc),
                "--out", out, "--quiet"]) == 0
    assert len(calls) > 10 and len(set(calls)) == len(calls)
    rows = [line.split(",") for line in (out / "cuts.csv").read_text().splitlines()[1:]]
    level_rows = [r for r in rows if r[0] == "level_set"]
    report = json.loads((out / "inequality_report.json").read_text())
    if bc == "neumann":  # the best level cut, beside the closed-form families
        assert len(level_rows) == 1 and len(rows) == 31 + 16 + 1
        assert report["h_upper"] == min(float(r[4]) for r in rows)
    elif bc == "dirichlet":  # min sigma/vol1 over the very level sets listed in cuts.csv
        assert rows == level_rows and len(rows) == len(calls)
        assert report["h_upper"] == min(float(r[1]) / float(r[2]) for r in rows)
    else:  # the two-sided level cuts alone
        assert rows == level_rows and len(rows) <= len(calls)
        assert report["h_upper"] == min(float(r[4]) for r in rows)


@pytest.mark.parametrize("excess, code", [(1e-6, 3), (1e-10, 0)])
def test_cheeger_certificate_above_upper_bound_is_a_solver_error(tmp_path, monkeypatch,
                                                                 capsys, excess, code):
    import dataclasses

    import ccspectral.cheeger as cheeger

    cfg = write_config(tmp_path, dict(GRUSHIN_CHEEGER, bc="dirichlet"))
    assert run(["cheeger", "--config", cfg, "--out", tmp_path / "plain", "--quiet"]) == 0
    h_upper = json.loads((tmp_path / "plain" / "inequality_report.json").read_text())["h_upper"]
    certify = cheeger.mfmc_certify
    monkeypatch.setattr(cheeger, "mfmc_certify", lambda *args: dataclasses.replace(
        certify(*args), h_certified=h_upper * (1.0 + excess)))
    capsys.readouterr()
    out = tmp_path / "run"
    assert run(["cheeger", "--config", cfg, "--out", out, "--quiet"]) == code
    err = capsys.readouterr().err
    if code:
        # a relative excess beyond 1e-9 contradicts the cuts: one line, no report
        assert err.startswith("solver error:") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not (out / "inequality_report.json").exists()
    else:
        assert err == ""
        assert json.loads((out / "inequality_report.json").read_text())["h_source"] == "certificate"


def test_cheeger_neumann_certificate_never_supplies_h_lower(tmp_path, monkeypatch):
    # A field inward on the whole boundary has min div V <= 0, so a valid
    # neumann-mode certificate with h > 0 can only be a node-sampling artifact.
    import dataclasses

    import ccspectral.cheeger as cheeger

    doc = json.loads(json.dumps(GRUSHIN_CHEEGER))
    doc["cheeger"]["certificate"]["mode"] = "neumann"
    certify = cheeger.mfmc_certify
    monkeypatch.setattr(cheeger, "mfmc_certify", lambda *args: dataclasses.replace(
        certify(*args), valid=True, h_certified=0.2))
    out = tmp_path / "run"
    assert run(["cheeger", "--config", write_config(tmp_path, doc),
                "--out", out, "--quiet"]) == 0
    report = json.loads((out / "inequality_report.json").read_text())
    assert report["kind"] == "neumann" and report["certificate_valid"] is True
    assert report["h_upper"] > 0.2
    assert report["h_source"] == "upper_bound_presumed"
    assert report["h_lower"] == report["h_upper"]
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["mode"] == "neumann" and cert["h_certified"] == 0.2
    assert cert["supplies_h_lower"] is False


def test_cheeger_without_certificate(tmp_path):
    doc = {
        "structure": {"kind": "euclidean"},
        "grid": {"nx": 24, "ny": 24},
        "bc": "dirichlet",
        "solver": {"k": 1, "seed": 0},
        "cheeger": {"levels": 12},
    }
    out = tmp_path / "run"
    assert run(["cheeger", "--config", write_config(tmp_path, doc),
                "--out", out, "--quiet"]) == 0
    assert not (out / "certificate.json").exists()
    report = json.loads((out / "inequality_report.json").read_text())
    assert report["h_source"] == "upper_bound_presumed"
    assert report["satisfied"] is True


ALL_EDGES_DIRICHLET = [{"edge": e, "condition": "dirichlet"}
                       for e in ("x_min", "x_max", "y_min", "y_max")]


@pytest.mark.parametrize("structure, bc, flavor", [
    ({"kind": "grushin"}, [], "neumann"),
    ({"kind": "grushin"}, [{"edge": "x_min", "condition": "neumann"}], "neumann"),
    ({"kind": "euclidean"}, ALL_EDGES_DIRICHLET, "dirichlet"),
    ({"kind": "grushin"}, [{"edge": "x_max", "condition": "dirichlet"}], "mixed"),
])
def test_cheeger_flavor_follows_the_boundary(tmp_path, structure, bc, flavor):
    def artifacts(bc_value, name):
        doc = {"structure": structure, "grid": {"nx": 12, "ny": 16}, "bc": bc_value,
               "solver": {"k": 1, "seed": 0}, "cheeger": {"levels": 12}}
        out = tmp_path / name
        assert run(["cheeger", "--config", write_config(tmp_path, doc, name + ".json"),
                    "--out", out, "--quiet"]) == 0
        return {path.name: path.read_bytes() for path in out.iterdir()}

    given = artifacts(bc, "given")
    report = json.loads(given["inequality_report.json"])
    assert report["kind"] == flavor and report["satisfied"] is True
    if flavor != "mixed":
        # the same boundary named by its flavor gives the same run
        assert given == artifacts(flavor, "named")


TORUS = {"kind": "euclidean", "chart": {"periodic_x": True, "periodic_y": True}}


@pytest.mark.parametrize("structure, bc, flavor", [
    ({"kind": "euclidean"}, "neumann", "neumann"),
    ({"kind": "euclidean"}, "dirichlet", "dirichlet"),
    ({"kind": "grushin"}, "dirichlet", "dirichlet"),  # no edge on the periodic axis
    ({"kind": "euclidean"}, [], "neumann"),
    ({"kind": "euclidean"}, ALL_EDGES_DIRICHLET, "dirichlet"),
    ({"kind": "euclidean"},
     [{"edge": "y_min", "condition": "dirichlet", "range": [0.25, 0.75]}], "mixed"),
    (TORUS, "neumann", "neumann"),
    (TORUS, [], "neumann"),
])
def test_forms_flavor(structure, bc, flavor):
    config = RunConfig.from_dict({"structure": structure, "grid": {"nx": 6, "ny": 6}, "bc": bc})
    _, forms = build_problem(config)
    assert forms.flavor == flavor


def test_cheeger_ignores_solver_k(tmp_path):
    # the default k = 6 exceeds the 4 active nodes; cheeger solves for lambda_1 alone
    doc = {"structure": {"kind": "euclidean"}, "grid": {"nx": 4, "ny": 4}, "bc": "dirichlet"}
    out = tmp_path / "run"
    assert run(["cheeger", "--config", write_config(tmp_path, doc),
                "--out", out, "--quiet"]) == 0
    assert strict_json(out / "inequality_report.json")["kind"] == "dirichlet"


def test_cheeger_certified_bound_above_lambda_is_reported_violated(tmp_path, monkeypatch,
                                                                  capsys):
    # A valid certificate h >= 9 on a 2x2-node interior, where lambda = 15 and
    # h_upper = 10.99: 9 <= h_upper, so the bounds agree, but 15 < 9^2/4.
    import dataclasses

    import ccspectral.cheeger as cheeger

    certify = cheeger.mfmc_certify
    monkeypatch.setattr(cheeger, "mfmc_certify", lambda *args: dataclasses.replace(
        certify(*args), valid=True, h_certified=9.0))
    doc = {"structure": {"kind": "euclidean"}, "grid": {"nx": 4, "ny": 4}, "bc": "dirichlet",
           "cheeger": {"certificate": {"phi": ["x", "0"], "mode": "dirichlet"}}}
    out = tmp_path / "run"
    assert run(["cheeger", "--config", write_config(tmp_path, doc), "--out", out]) == 0
    report = strict_json(out / "inequality_report.json")
    assert report["h_source"] == "certificate" and report["h_lower"] == 9.0
    assert report["satisfied"] is False and report["h_upper"] > 9.0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].startswith("lambda = 15 >= 20.25 = h_lower^2/4")
    assert lines[-1].endswith("(VIOLATED)")


def test_cheeger_presumed_bound_is_not_reported_violated(tmp_path, capsys):
    # Without a certificate h_lower is the best cut's ratio, presumed sharp.
    # On a 2x2-node interior the 3 level cuts overstate h, so lambda falls
    # short of h_upper^2/4; that is the presumption failing, not the inequality.
    doc = {"structure": {"kind": "euclidean"}, "grid": {"nx": 4, "ny": 4}, "bc": "dirichlet"}
    out = tmp_path / "run"
    assert run(["cheeger", "--config", write_config(tmp_path, doc), "--out", out]) == 0
    stdout = capsys.readouterr().out
    report = strict_json(out / "inequality_report.json")
    assert report["h_source"] == "upper_bound_presumed" and report["satisfied"] is False
    assert "VIOLATED" not in stdout
    assert "(fails for the presumed h_lower = h_upper: that bound is not sharp" in stdout


@pytest.mark.parametrize("nx, ny", [(4, 4), (6, 6)])
def test_cheeger_dirichlet_grid_too_coarse_for_a_level_set(tmp_path, capsys, nx, ny):
    doc = {"grid": {"nx": nx, "ny": ny}, "bc": "dirichlet", "solver": {"k": 1, "seed": 0}}
    out = tmp_path / "run"
    assert run(["cheeger", "--config", write_config(tmp_path, doc), "--out", out]) == 3
    err = capsys.readouterr().err
    assert err.startswith("solver error:") and err.count("\n") == 1
    assert f"{nx}x{ny} grid with 40 levels" in err
    assert not (out / "inequality_report.json").exists()


@pytest.mark.parametrize("nx, ny", [(4, 4), (3, 3)])
def test_cheeger_mixed_grid_too_coarse_for_a_cut(tmp_path, capsys, nx, ny):
    doc = {"grid": {"nx": nx, "ny": ny}, "bc": [{"edge": "x_max", "condition": "dirichlet"}],
           "solver": {"k": 1}}
    out = tmp_path / "run"
    assert run(["cheeger", "--config", write_config(tmp_path, doc), "--out", out]) == 3
    err = capsys.readouterr().err
    assert err.startswith("solver error:") and err.count("\n") == 1
    assert f"{nx}x{ny} grid with 40 levels" in err
    assert not (out / "inequality_report.json").exists()


def assert_grid_error(capsys, out, grid_text, cause):
    """One stderr line naming the cause and the grid; no report written."""
    err = capsys.readouterr().err
    assert err.startswith(f"solver error: {cause}") and err.count("\n") == 1
    assert f"{grid_text} grid with 40 levels" in err
    assert not (out / "inequality_report.json").exists()


def test_cheeger_neumann_grid_too_coarse_for_a_cut(tmp_path, capsys):
    # no quantile level of lambda_2's eigenfunction cuts this 4x4 grid in two
    doc = {"structure": {"kind": "custom", "chart": {"periodic_y": True},
                         "fields": [["1", "0"], ["0", "x"]]},
           "grid": {"nx": 4, "ny": 4}}
    out = tmp_path / "run"
    assert run(["cheeger", "--config", write_config(tmp_path, doc), "--out", out]) == 3
    assert_grid_error(capsys, out, "4x4", "no level produced a two-sided cut")


def test_cheeger_density_singularity_on_a_cut(tmp_path, capsys):
    # rho = |x - 0.55|^(-1/2) is integrable, but on a cut through x = 0.55
    # the perimeter's midpoint rule converges like h^(1/2) and gives up
    doc = {"structure": {"kind": "custom", "chart": {}, "fields": [["1", "0"], ["0", "1"]],
                         "density": "1/sqrt(abs(x-0.55))"},
           "grid": {"nx": 5, "ny": 5}, "bc": "dirichlet"}
    out = tmp_path / "run"
    assert run(["cheeger", "--config", write_config(tmp_path, doc), "--out", out]) == 3
    assert_grid_error(capsys, out, "5x5", "perimeter quadrature did not reach")


def test_cheeger_sample_error_on_a_cut_is_a_config_error(tmp_path, monkeypatch, capsys):
    # a SampleError is a ValueError, but the structure is at fault, not the grid
    import ccspectral.cheeger as cheeger

    def failing(structure, segments):
        raise cc.SampleError("density", structure.density, "not finite",
                             np.array([np.nan]), 0.5, 0.5)

    monkeypatch.setattr(cheeger, "horizontal_perimeter", failing)
    doc = {"grid": {"nx": 8, "ny": 16}, "bc": "dirichlet", "cheeger": {"levels": 4}}
    out = tmp_path / "run"
    assert run(["cheeger", "--config", write_config(tmp_path, doc), "--out", out]) == 2
    assert capsys.readouterr().err.startswith("config error: density is not finite")
    assert not (out / "inequality_report.json").exists()


def strict_json(path):
    """The JSON document at path; NaN, Infinity and -Infinity are errors."""
    def reject(constant):
        raise ValueError(f"{path.name} holds {constant}")
    return json.loads(path.read_text(), parse_constant=reject)


def test_cheeger_artifact_keys(tmp_path):
    out = tmp_path / "run"
    assert run(["cheeger", "--config", write_config(tmp_path, GRUSHIN_CHEEGER),
                "--out", out, "--quiet"]) == 0
    assert sorted(strict_json(out / "certificate.json")) == [
        "boundary_inward_min", "h_certified", "max_coeff_norm", "min_divergence", "mode",
        "sampling", "supplies_h_lower", "tol", "valid"]
    assert sorted(strict_json(out / "inequality_report.json")) == [
        "certificate_valid", "h_lower", "h_source", "h_upper", "kind", "lambda",
        "lower_bound", "satisfied", "slack"]


def test_certificate_on_a_torus_has_no_boundary_pairing(tmp_path):
    doc = {"structure": {"kind": "euclidean",
                         "chart": {"periodic_x": True, "periodic_y": True}},
           "grid": {"nx": 8, "ny": 8},
           "cheeger": {"certificate": {"phi": ["0", "0"], "mode": "neumann"}}}
    out = tmp_path / "run"
    assert run(["cheeger", "--config", write_config(tmp_path, doc),
                "--out", out, "--quiet"]) == 0
    cert = strict_json(out / "certificate.json")
    assert cert["boundary_inward_min"] is None and cert["valid"] is True
    assert strict_json(out / "inequality_report.json")["h_source"] == "upper_bound_presumed"


def test_json_artifacts_refuse_non_finite_numbers(tmp_path):
    from ccspectral.cli import _write_json

    with pytest.raises(ValueError):
        _write_json({"h_upper": float("inf")}, tmp_path / "report.json")


# ---------------------------------------------------------------------------
# grushin-table
# ---------------------------------------------------------------------------

def test_table_plain(tmp_path):
    doc = {"table": {"max_n": 1, "max_m": 1}}
    out = tmp_path / "run"
    assert run(["grushin-table", "--config", write_config(tmp_path, doc),
                "--out", out, "--quiet"]) == 0
    lines = (out / "grushin_table.csv").read_text().splitlines()
    assert lines[0] == "n,m,lambda,multiplicity"
    assert len(lines) == 5
    rows = {tuple(map(int, row.split(",")[:2])): row.split(",") for row in lines[1:]}
    assert float(rows[(0, 1)][2]) == pytest.approx(np.pi**2, abs=1e-6)
    assert float(rows[(1, 0)][2]) == pytest.approx(0.325, abs=5e-3)
    assert rows[(1, 0)][3] == "2"


@pytest.mark.parametrize("bc, max_m, shift", [("dirichlet", 3, 1), ("neumann", 4, 0)])
def test_table_needs_no_search_window(tmp_path, bc, max_m, shift):
    # the top row (4 pi)^2 ~ 158 lies past the window [0, 120] searched before
    doc = {"table": {"max_n": 1, "max_m": max_m, "bc": bc}}
    out = tmp_path / "run"
    assert run(["grushin-table", "--config", write_config(tmp_path, doc),
                "--out", out, "--quiet"]) == 0
    lines = (out / "grushin_table.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 * (max_m + 1)
    rows = {tuple(map(int, row.split(",")[:2])): float(row.split(",")[2]) for row in lines[1:]}
    for m in range(max_m + 1):
        floor = ((m + shift) * np.pi) ** 2
        assert rows[(0, m)] == pytest.approx(floor, abs=1e-7)
        # min-max: the potential n^2 x^2 lies in [0, n^2] on (0, 1)
        assert floor < rows[(1, m)] < floor + 1.0


def test_table_tolerance_below_the_double_spacing(tmp_path):
    doc = {"table": {"max_n": 0, "max_m": 1, "tol": 1e-17}}
    out = tmp_path / "run"
    assert run(["grushin-table", "--config", write_config(tmp_path, doc),
                "--out", out, "--quiet"]) == 0
    rows = (out / "grushin_table.csv").read_text().splitlines()[1:]
    assert float(rows[1].split(",")[2]) == pytest.approx(np.pi**2, abs=1e-8)


# mode 2 is only solved for by --cross-validate, for complete_below
@pytest.mark.parametrize("moved_n, extra", [(0, []), (1, []), (2, ["--cross-validate"])])
def test_table_unconfirmed_root_exits_3(tmp_path, capsys, monkeypatch, moved_n, extra):
    import ccspectral.grushin as grushin

    collocation = grushin._collocation_roots

    def moved(problem, count):  # the top root of one mode, 1e-6 relative off
        roots = collocation(problem, count)
        if problem.n == moved_n:
            roots[-1] *= 1.0 + 1e-6
        return roots

    monkeypatch.setattr(grushin, "_collocation_roots", moved)
    doc = {"grid": {"nx": 8, "ny": 16}, "table": {"max_n": 1, "max_m": 1}}
    out = tmp_path / "run"
    assert run(["grushin-table", "--config", write_config(tmp_path, doc),
                "--out", out, "--quiet", *extra]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"solver error: mode n={moved_n} (neumann): ") and err.count("\n") == 1
    assert not (out / "grushin_table.csv").exists()


@pytest.mark.parametrize("command", ["spectrum", "cheeger", "grushin-table", "carnot"])
@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
def test_out_that_cannot_be_a_directory_is_a_config_error(tmp_path, capsys, monkeypatch,
                                                          command, under):
    import ccspectral.cli as cli

    def no_solve(*args, **kwargs):
        raise AssertionError("--out is refused before any solve")

    monkeypatch.setattr(cli, "build_problem", no_solve)
    monkeypatch.setattr(cli, "heisenberg_spec", no_solve)
    monkeypatch.setattr(cli, "_make_out", no_solve)
    path = tmp_path / "taken"
    path.write_text("keep")
    out = path / "sub" if under else path
    assert run([command, "--out", out, "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: --out {out}: {path} exists and is not a directory\n"
    assert path.read_text() == "keep"


def test_out_that_mkdir_refuses_is_a_config_error(tmp_path, capsys, monkeypatch):
    def refuse(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, "mkdir", refuse)
    out = tmp_path / "run"
    assert run(["carnot", "--out", out, "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: --out {out}: ") and err.count("\n") == 1
    assert "Permission denied" in err and not out.exists()


@pytest.mark.parametrize("command", ["spectrum", "cheeger", "grushin-table", "carnot"])
@pytest.mark.parametrize("exists", [True, False], ids=["out", "under-out"])
def test_out_in_an_unwritable_directory_is_a_config_error(tmp_path, capsys, monkeypatch,
                                                          command, exists):
    import ccspectral.cli as cli

    def no_solve(*args, **kwargs):
        raise AssertionError("--out is refused before any solve")

    monkeypatch.setattr(cli, "build_problem", no_solve)
    monkeypatch.setattr(cli, "heisenberg_spec", no_solve)
    monkeypatch.setattr(cli, "_make_out", no_solve)
    # os.access stands in for chmod, which cannot lock out a root user
    locked = tmp_path / "locked"
    locked.mkdir()
    monkeypatch.setattr(os, "access", lambda path, mode: Path(path) != locked)
    out = locked if exists else locked / "run"
    assert run([command, "--out", out, "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: --out {out}: no write and search permission on {locked}\n"
    assert list(locked.iterdir()) == []


@pytest.mark.parametrize("command, doc", [
    ("spectrum", {"grid": {"nx": 8, "ny": 16}, "solver": {"k": 2}}),
    ("cheeger", {"grid": {"nx": 16, "ny": 32}, "cheeger": {"levels": 8}}),
    ("grushin-table", {"table": {"max_n": 1, "max_m": 1}}),
    ("carnot", {})])
def test_out_that_refuses_an_artifact_is_a_config_error(tmp_path, capsys, monkeypatch,
                                                        command, doc):
    def refuse(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    config = write_config(tmp_path, doc)
    monkeypatch.setattr(Path, "write_text", refuse)
    out = tmp_path / "run"
    assert run([command, "--config", config, "--out", out, "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: --out {out}: [Errno 13] Permission denied: ")
    assert err.count("\n") == 1 and list(out.iterdir()) == []


def test_table_lambda_window_is_an_unknown_key(tmp_path, capsys):
    cfg = write_config(tmp_path, {"table": {"lambda_window": [5, 120]}})
    assert run(["grushin-table", "--config", cfg, "--out", tmp_path / "run"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: unknown key(s) ['lambda_window'] in table")
    assert not (tmp_path / "run").exists()


def test_table_cross_validate_marks_uncovered(tmp_path):
    doc = {"grid": {"nx": 24, "ny": 48},
           "table": {"max_n": 1, "max_m": 1},
           "solver": {"seed": 0}}
    out = tmp_path / "run"
    assert run(["grushin-table", "--config", write_config(tmp_path, doc),
                "--out", out, "--cross-validate", "--quiet"]) == 0
    lines = (out / "grushin_table.csv").read_text().splitlines()
    assert lines[0] == "n,m,lambda,multiplicity,rel_error_2d"
    cells = {tuple(map(int, row.split(",")[:2])): row.split(",")[4] for row in lines[1:]}
    # lambda_{2,0} ~ 1.20 interleaves below pi^2, so only the entries under
    # it can be matched against the 2D spectrum
    assert cells[(0, 0)] != "" and cells[(1, 0)] != ""
    assert cells[(0, 1)] == "" and cells[(1, 1)] == ""
    assert float(cells[(1, 0)]) <= 1e-2


# ---------------------------------------------------------------------------
# artifact format
# ---------------------------------------------------------------------------

def test_only_cli_and_pgm_write_files():
    # the library computes; the CLI writes the CSV and JSON artifacts and
    # pgm.write_pgm the images
    writers = {}
    for path in sorted(Path(cc.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            func = getattr(node, "func", None)
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name in ("open", "write_text", "write_bytes"):
                writers.setdefault(path.stem, set()).add(name)
    assert set(writers) <= {"cli", "pgm"}, writers


def test_write_csv_cells(tmp_path):
    path = tmp_path / "cells.csv"
    rows = [(np.float64(0.1) + 0.2, np.int64(3), None, "level_set", np.float32(0.1), math.inf),
            (1.0, 2, "", "x", 0.0, -0.0)]
    _write_csv(path, "a,b,c,d,e,f", rows)
    assert path.read_bytes() == (b"a,b,c,d,e,f\n"
                                 b"0.30000000000000004,3,,level_set,0.10000000149011612,inf\n"
                                 b"1.0,2,,x,0.0,-0.0\n")


# each CSV artifact: its header and which of its columns hold floats
CSV_ARTIFACTS = {
    "eigenvalues.csv": ("index,lambda,residual", {"lambda", "residual"}),
    "cuts.csv": ("kind,sigma,vol1,vol2,ratio", {"sigma", "vol1", "vol2", "ratio"}),
    "grushin_table.csv": ("n,m,lambda,multiplicity,rel_error_2d", {"lambda", "rel_error_2d"}),
}


def test_csv_artifacts_share_one_format(tmp_path):
    doc = dict(GRUSHIN_SPECTRUM, cheeger={"levels": 8}, table={"max_n": 1, "max_m": 1})
    cfg, out = write_config(tmp_path, doc), tmp_path / "run"
    for command in (["spectrum"], ["cheeger"], ["grushin-table", "--cross-validate"]):
        assert run([*command, "--config", cfg, "--out", out, "--quiet"]) == 0
    empty = []
    for name, (header, float_columns) in CSV_ARTIFACTS.items():
        data = (out / name).read_bytes()
        assert b"\r" not in data and data.endswith(b"\n"), name
        lines = data.decode("utf-8").split("\n")[:-1]
        assert lines[0] == header and len(lines) > 1, name
        for line in lines[1:]:
            for column, cell in zip(header.split(","), line.split(","), strict=True):
                if cell == "":
                    empty.append((name, column))
                elif column in float_columns:
                    assert repr(float(cell)) == cell, (name, column, cell)
                elif column != "kind":
                    assert str(int(cell)) == cell, (name, column, cell)
    # lambda_{2,0} ~ 1.20 interleaves below pi^2: the m = 1 rows are not covered
    assert empty == [("grushin_table.csv", "rel_error_2d")] * 2


# ---------------------------------------------------------------------------
# carnot
# ---------------------------------------------------------------------------

def test_carnot_output(tmp_path):
    out = tmp_path / "run"
    assert run(["carnot", "--config", write_config(tmp_path, {}),
                "--out", out, "--quiet"]) == 0
    doc = json.loads((out / "carnot.json").read_text())
    assert doc["n"] == 1
    assert doc["topological_dimension"] == 3
    assert doc["Q"] == 4
    assert abs(doc["alpha"] - 3.0 / np.pi) <= 1e-12
    assert doc["omega"]["1"] == pytest.approx(2.0, abs=1e-15)
    assert doc["omega"]["2"] == pytest.approx(np.pi, abs=1e-15)
    assert doc["omega"]["3"] == pytest.approx(4.0 * np.pi / 3.0, abs=1e-14)


@pytest.mark.parametrize("n", [200, 1000])
def test_carnot_large_n(tmp_path, n):
    # omega_(2n+1) underflows to 0 from n = 200 on; alpha has a closed form
    out = tmp_path / "run"
    assert run(["carnot", "--config", write_config(tmp_path, {"carnot": {"n": n}}),
                "--out", out, "--quiet"]) == 0
    doc = json.loads((out / "carnot.json").read_text())
    assert doc["alpha"] == (2 * n + 1) / np.pi
    assert len(doc["omega"]) == 2 * n + 1
    assert all(np.isfinite(w) and w >= 0.0 for w in doc["omega"].values())


def test_carnot_survives_a_closed_stdout(tmp_path):
    # the reader closes the pipe after one line (``| head -1``); the 6000
    # lines left overflow the pipe buffer, so later writes meet the closed pipe
    root = Path(__file__).resolve().parents[1]
    out = tmp_path / "run"
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "ccspectral", "carnot", "--out", str(out),
         "--config", write_config(tmp_path, {"carnot": {"n": 3000}})],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"Heisenberg group of dimension 6001\n"
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert proc.wait(timeout=120) == 0
    assert stderr == b""
    doc = json.loads((out / "carnot.json").read_text())
    assert doc["n"] == 3000 and len(doc["omega"]) == 6001


def test_carnot_json_bytes(tmp_path):
    out = tmp_path / "run"
    assert run(["carnot", "--out", out, "--quiet"]) == 0
    assert (out / "carnot.json").read_text() == """{
  "Q": 4,
  "alpha": 0.954929658551372,
  "n": 1,
  "omega": {
    "1": 2.0,
    "2": 3.141592653589793,
    "3": 4.1887902047863905
  },
  "topological_dimension": 3
}
"""


def test_carnot_is_linear_in_n(tmp_path):
    # one pass of the omega recurrence; a per-dimension loop took 12 s here
    cfg = write_config(tmp_path, {"carnot": {"n": 16000}})
    start = time.perf_counter()
    assert run(["carnot", "--config", cfg, "--out", tmp_path / "run", "--quiet"]) == 0
    assert time.perf_counter() - start < 2.0
    assert len(json.loads((tmp_path / "run" / "carnot.json").read_text())["omega"]) == 32001


# ---------------------------------------------------------------------------
# error handling
# ---------------------------------------------------------------------------

def test_convergence_error_is_a_solver_error(tmp_path, monkeypatch, capsys):
    import ccspectral.eigensolver as eigensolver

    def fail(*args, **kwargs):
        raise eigensolver.ConvergenceError("residuals [1.0] exceed tol=1e-08")

    monkeypatch.setattr(eigensolver, "solve_smallest", fail)
    out = tmp_path / "run"
    assert run(["spectrum", "--config", write_config(tmp_path, GRUSHIN_SPECTRUM),
                "--out", out]) == 3
    assert capsys.readouterr().err == "solver error: residuals [1.0] exceed tol=1e-08\n"
    assert cc.ConvergenceError is eigensolver.ConvergenceError


# Dirichlet across a thin strip that is long in y: the lowest eigenvalues
# crowd together, so one Lanczos restart per mode converges none of them.
CROWDED = {"structure": {"kind": "euclidean",
                         "chart": {"x_range": [0, 0.1], "y_range": [0, 30], "periodic_y": True}},
           "grid": {"nx": 6, "ny": 100}, "bc": "dirichlet", "solver": {"k": 4}}


@pytest.mark.parametrize("case, cause", [
    ("one restart per mode", "shift-invert Lanczos converged 0 of 4 modes within 4 iterations"),
    ("residual tolerance 1e-300", "residuals ["),
    ("vectors scaled by 1.1", "M-orthonormality defect 2.100e-01 exceeds 1e-8"),
])
def test_solve_smallest_failures_are_solver_errors(tmp_path, monkeypatch, capsys, case, cause):
    # each ConvergenceError that solve_smallest raises, through main
    import ccspectral.eigensolver as eigensolver

    doc = json.loads(json.dumps(CROWDED))
    if case == "one restart per mode":
        monkeypatch.setattr(eigensolver, "MAXITER_PER_MODE", 1)
    elif case == "residual tolerance 1e-300":
        doc["solver"]["tol"] = 1e-300
    else:
        solve = eigensolver._solve_iterative

        def scaled(forms, k, seed):
            w, V, stats = solve(forms, k, seed)
            return w, 1.1 * V, stats

        monkeypatch.setattr(eigensolver, "_solve_iterative", scaled)
    out = tmp_path / "run"
    assert run(["spectrum", "--config", write_config(tmp_path, doc), "--out", out]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"solver error: {cause}") and err.count("\n") == 1, err
    assert not (out / "eigenvalues.csv").exists()


def test_missing_config_file(tmp_path, capsys):
    assert run(["spectrum", "--config", tmp_path / "nope.json",
                "--out", tmp_path]) == 2
    assert "config error" in capsys.readouterr().err


def test_invalid_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert run(["spectrum", "--config", path, "--out", tmp_path]) == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_keys_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, {"grid": {"nx": 24, "ny": 24, "nz": 4}})
    assert run(["spectrum", "--config", cfg, "--out", tmp_path]) == 2
    err = capsys.readouterr().err
    assert "nz" in err
    cfg2 = write_config(tmp_path, {"mesh": {}}, name="c2.json")
    assert run(["spectrum", "--config", cfg2, "--out", tmp_path]) == 2


def test_bad_expression_reports_position(tmp_path, capsys):
    doc = {
        "structure": {"kind": "custom",
                      "chart": {"x_range": [0, 1], "y_range": [0, 1]},
                      "fields": [["1", "0"], ["0", "x +"]]},
    }
    assert run(["spectrum", "--config", write_config(tmp_path, doc),
                "--out", tmp_path]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "^" in err


# Each of these overflowed Python's recursion limit, in parsing or (the
# sum) in evaluation, and ended in a traceback.
NESTED = {
    "3000 parentheses": "(" * 3000 + "1" + ")" * 3000,
    "300 parentheses": "(" * 300 + "1" + ")" * 300,
    "3000 signs": "-" * 3000 + "1",
    "3000-term power chain": "^".join(["1"] * 3000),
    "5000-term sum": "+".join(["1"] * 5000),
}


@pytest.mark.parametrize("source", list(NESTED.values()), ids=list(NESTED))
def test_deeply_nested_expression_is_a_config_error(tmp_path, capsys, source):
    doc = {"structure": {"kind": "custom",
                         "chart": {"x_range": [0, 1], "y_range": [0, 1]},
                         "fields": [["1", "0"], ["0", source]]},
           "grid": {"nx": 8, "ny": 8}}
    assert run(["spectrum", "--config", write_config(tmp_path, doc),
                "--out", tmp_path / "run"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: bad coefficient expression:")
    assert err.count("config error") == 1 and "Traceback" not in err
    assert "expression nests deeper than 100 levels at position " in err


def test_long_expression_error_is_echoed_around_the_position(tmp_path, capsys):
    source = "x*" + "0" * 2000 + "+q*" + "1" * 2000  # 4005 characters
    doc = {"structure": {"kind": "custom",
                         "chart": {"x_range": [0, 1], "y_range": [0, 1]},
                         "fields": [["1", "0"], ["0", source]]},
           "grid": {"nx": 8, "ny": 8}}
    assert run(["spectrum", "--config", write_config(tmp_path, doc),
                "--out", tmp_path / "run"]) == 2
    err = capsys.readouterr().err
    assert len(err.encode()) <= 300, err
    assert "unknown name 'q' at position 2003" in err
    shown, pointer = err.splitlines()[-2:]
    assert shown.startswith("  ...") and shown.endswith("...")
    assert pointer.strip() == "^" and shown[pointer.index("^")] == "q"


def test_dirichlet_on_a_torus_is_a_config_error(tmp_path, capsys):
    doc = {"structure": {"kind": "euclidean",
                         "chart": {"periodic_x": True, "periodic_y": True}},
           "grid": {"nx": 8, "ny": 8}, "bc": "dirichlet", "solver": {"k": 2}}
    out = tmp_path / "run"
    assert run(["spectrum", "--config", write_config(tmp_path, doc), "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: bc 'dirichlet'") and err.count("\n") == 1, err
    assert "periodic in both x and y" in err
    assert not out.exists()


SINGULAR = {
    "structure": {"kind": "custom", "chart": {"x_range": [0, 1], "y_range": [0, 1]},
                  "fields": [["1", "0"], ["0", "1"]], "density": "1"},
    "grid": {"nx": 8, "ny": 8},
    "bc": "dirichlet",
    "solver": {"k": 1, "seed": 0},
}


@pytest.mark.parametrize("command, change, expected", [
    ("spectrum", {"density": "1/x"},
     ["density '1/x' is not finite at (x, y) = (0.0, 0.0): sample inf",
      "sample inf; / by 0.0 gives inf"]),
    ("spectrum", {"density": "1+1/0"},
     ["density '1+1/0' is not finite at (x, y) = (", "sample inf; / by 0.0 gives inf"]),
    ("spectrum", {"density": "x-0.5"}, ["density 'x-0.5' is not positive at (x, y) = ("]),
    ("spectrum", {"fields": [["1", "0"], ["0", "sqrt(x-0.5)"]]},
     ["field 1 component 1 'sqrt(x-0.5)' is not finite at (x, y) = (", "sample nan",
      "; sqrt of -0.469"]),
    ("cheeger", {"density": "1+log(x)^2"},
     ["density '1+log(x)^2' is not finite at (x, y) = (0.0, ", "sample inf",
      "; log of 0.0 gives -inf"]),
    ("cheeger", {"certificate": ["log(x)", "0"]},
     ["cheeger.certificate.phi[0] 'log(x)' is not finite at (x, y) = (0.0, ", "sample -inf",
      "; log of 0.0 gives -inf"]),
    # On this grid the Grushin cylinder's Dirichlet cut sweep fails (exit 3),
    # so the certificate is checked before anything is solved.
    ("cheeger", {"structure": {"kind": "grushin"}, "certificate": ["x"]},
     ["certificate needs 2 phi expressions (one per generating field), got 1"]),
    ("cheeger", {"structure": {"kind": "grushin"}, "certificate": ["x", "sin("]},
     ["bad certificate expression:\nexpected a value, found 'end of input' at position 4\n"
      "  sin(\n      ^"]),
])
def test_singular_expression_is_a_config_error(tmp_path, capsys, command, change, expected):
    doc = json.loads(json.dumps(SINGULAR))
    change = dict(change)
    if "certificate" in change:
        doc["cheeger"] = {"certificate": {"phi": change.pop("certificate")}}
    doc["structure"] = change.pop("structure", doc["structure"])
    doc["structure"].update(change)
    cfg = write_config(tmp_path, doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
        assert run([command, "--config", cfg, "--out", tmp_path / "run"]) == 2
    err = capsys.readouterr().err
    # one line, besides the lines of an echoed expression
    assert err.startswith("config error:")
    assert err.count("\n") == 1 + sum(text.count("\n") for text in expected)
    for text in expected:
        assert text in err


UNIT = [["1", "0"], ["0", "1"]]


@pytest.mark.parametrize("chart, fields, density", [
    ({"periodic_y": True}, [["0", "0"]], "1"),  # zero: the FFT inverse had no symbol to factor
    ({}, [["1e-300", "0"]], "1"),  # squares underflow to a zero form
    ({}, [["1e200", "0"]], "1"),  # squares overflow to an infinite form
    ({}, UNIT, "1e-310"),  # a subnormal trace: the shift left K singular
    ({"x_range": [0, 10], "y_range": [0, 10]}, UNIT, "1e307"),  # the trace sum overflows
])
def test_zero_or_non_finite_energy_is_a_config_error(tmp_path, capsys, chart, fields, density):
    doc = {"structure": {"kind": "custom", "chart": chart, "fields": fields, "density": density},
           "grid": {"nx": 5, "ny": 5}, "solver": {"k": 1}}
    cfg = write_config(tmp_path, doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
        assert run(["spectrum", "--config", cfg, "--out", tmp_path / "run"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: solver: the energy form is zero or not finite")
    assert err.count("\n") == 1


def test_bad_structure_kind(tmp_path, capsys):
    cfg = write_config(tmp_path, {"structure": {"kind": "minkowski"}})
    assert run(["spectrum", "--config", cfg, "--out", tmp_path]) == 2
    assert "minkowski" in capsys.readouterr().err


def test_carnot_level_validation(tmp_path, capsys):
    cfg = write_config(tmp_path, {"carnot": {"n": 0}})
    assert run(["carnot", "--config", cfg, "--out", tmp_path]) == 2


def test_bc_segment_on_periodic_edge(tmp_path, capsys):
    doc = dict(GRUSHIN_SPECTRUM, bc=[{"edge": "y_min", "condition": "dirichlet"}])
    assert run(["spectrum", "--config", write_config(tmp_path, doc),
                "--out", tmp_path]) == 2
    assert "periodic" in capsys.readouterr().err


@pytest.mark.parametrize("segment, expected", [
    ({"edge": "x_mid", "condition": "dirichlet"},
     "bc[0].edge must be one of x_min, x_max, y_min, y_max, got 'x_mid'"),
    ({"edge": "x_min", "condition": "dirichlet", "range": [0.5, 0.2]},
     "bc[0].range must have lo <= hi, got [0.5, 0.2]"),
])
def test_bad_bc_segment_names_its_path(tmp_path, capsys, segment, expected):
    doc = {"structure": {"kind": "euclidean"}, "grid": {"nx": 8, "ny": 8}, "bc": [segment]}
    assert run(["spectrum", "--config", write_config(tmp_path, doc),
                "--out", tmp_path / "run"]) == 2
    assert capsys.readouterr().err == f"config error: {expected}\n"


@pytest.mark.parametrize("solver", [{"k": 20}, {"k": 17}])
def test_k_too_large_for_grid(tmp_path, capsys, solver):
    # a 4x4 periodic-y Neumann grid has 16 active nodes
    doc = dict(GRUSHIN_SPECTRUM, grid={"nx": 4, "ny": 4}, solver=solver)
    assert run(["spectrum", "--config", write_config(tmp_path, doc),
                "--out", tmp_path / "run"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "k must be between 1 and 16" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# config round-trips
# ---------------------------------------------------------------------------

def test_config_roundtrip_defaults():
    config = RunConfig.from_dict({})
    assert RunConfig.from_dict(config.to_dict()) == config


def test_config_roundtrip_full():
    doc = {
        "structure": {"kind": "custom",
                      "chart": {"x_range": [0, 2], "y_range": [-1, 1],
                                "periodic_y": True},
                      "fields": [["1", "0"], ["0", "x^2"]],
                      "density": "1 + x"},
        "grid": {"nx": 17, "ny": 33},
        "bc": [{"edge": "x_min", "condition": "dirichlet"},
               {"edge": "x_max", "condition": "neumann", "range": [-0.5, 0.5]}],
        "solver": {"k": 3, "tol": 1e-9, "seed": 7},
        "nodal": {"rel_threshold": 1e-5, "gap_rel_tol": 1e-5},
        "cheeger": {"levels": 20, "certificate": {"phi": ["x", "y"],
                                                  "mode": "neumann"}},
        "table": {"max_n": 3, "max_m": 1, "bc": "dirichlet", "tol": 1e-7},
        "carnot": {"n": 2},
    }
    config = RunConfig.from_dict(doc)
    again = RunConfig.from_dict(config.to_dict())
    assert again == config
    assert config.bc == (SegmentConfig("x_min", "dirichlet"),
                         SegmentConfig("x_max", "neumann", (-0.5, 0.5)))
    assert config.solver.k == 3 and config.table.max_n == 3


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "ccspectral", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for sub in ("spectrum", "cheeger", "grushin-table", "carnot"):
        assert sub in proc.stdout


def test_benchmark_tracer_spans_the_layers(tmp_path):
    # benchmarks/spans.py wraps the package's layer entry points by name;
    # a renamed or bypassed entry point would silently drop its span.
    root = Path(__file__).resolve().parents[1]
    cfg = write_config(tmp_path, GRUSHIN_SPECTRUM)
    script = (
        "import json, sys\n"
        "from spans import Tracer, instrument\n"
        "import ccspectral.cli as cli\n"
        "tracer = Tracer()\n"
        "instrument(tracer)\n"
        "code = cli.main(sys.argv[1:])\n"
        "print(json.dumps({'code': code, 'names': sorted({s['name'] for s in tracer.spans})}))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "benchmarks"), str(root / "src")]))
    proc = subprocess.run([sys.executable, "-c", script, "spectrum", "--config", cfg,
                           "--out", str(tmp_path / "run"), "--quiet"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0
    assert {"cli.load_config", "cli.cmd", "discretization.assemble",
            "eigensolver.solve_smallest", "nodal.nodal_domains",
            "nodal.check_courant"} <= set(result["names"])
