"""Command line driver: configs, artifacts, exit codes, determinism."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import ccspectral as cc
from ccspectral.cli import RunConfig, SegmentConfig, build_problem

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


def test_spectrum_names_the_inverse_on_stdout_only(tmp_path, capsys):
    cfg = write_config(tmp_path, GRUSHIN_SPECTRUM)
    out = tmp_path / "run"
    assert run(["spectrum", "--config", cfg, "--out", out]) == 0
    stdout = capsys.readouterr().out
    assert "solver shift-invert (k = 4 < n_active - 1 = 1151), inverse fft-y" in stdout
    assert "), ncv 20\n" in stdout
    for path in out.iterdir():
        assert b"fft-y" not in path.read_bytes() and b"ncv" not in path.read_bytes(), path.name


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


def test_cheeger_dirichlet_builds_each_level_once(tmp_path, monkeypatch):
    import ccspectral.cheeger as cheeger

    calls = []
    original = cheeger._level_segments

    def counting(grid, values2d, t, *args, **kwargs):
        calls.append((values2d.tobytes(), float(t)))
        return original(grid, values2d, t, *args, **kwargs)

    monkeypatch.setattr(cheeger, "_level_segments", counting)
    doc = dict(GRUSHIN_CHEEGER, bc="dirichlet")
    out = tmp_path / "run"
    assert run(["cheeger", "--config", write_config(tmp_path, doc),
                "--out", out, "--quiet"]) == 0
    assert calls and len(set(calls)) == len(calls)
    # h_upper is min sigma/vol1 over the very level sets listed in cuts.csv
    rows = [line.split(",") for line in (out / "cuts.csv").read_text().splitlines()[1:]]
    assert len(rows) == len(calls)
    report = json.loads((out / "inequality_report.json").read_text())
    assert report["h_upper"] == min(float(r[1]) / float(r[2]) for r in rows)


@pytest.mark.parametrize("excess, code", [(1e-6, 3), (1e-10, 0)])
def test_cheeger_certificate_above_upper_bound_is_a_solver_error(tmp_path, monkeypatch,
                                                                 capsys, excess, code):
    import dataclasses

    import ccspectral.cli as cli

    cfg = write_config(tmp_path, dict(GRUSHIN_CHEEGER, bc="dirichlet"))
    assert run(["cheeger", "--config", cfg, "--out", tmp_path / "plain", "--quiet"]) == 0
    h_upper = json.loads((tmp_path / "plain" / "inequality_report.json").read_text())["h_upper"]
    certify = cli.mfmc_certify
    monkeypatch.setattr(cli, "mfmc_certify", lambda *args: dataclasses.replace(
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

    import ccspectral.cli as cli

    doc = json.loads(json.dumps(GRUSHIN_CHEEGER))
    doc["cheeger"]["certificate"]["mode"] = "neumann"
    certify = cli.mfmc_certify
    monkeypatch.setattr(cli, "mfmc_certify", lambda *args: dataclasses.replace(
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


# ---------------------------------------------------------------------------
# error handling
# ---------------------------------------------------------------------------

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
])
def test_singular_expression_is_a_config_error(tmp_path, capsys, command, change, expected):
    doc = json.loads(json.dumps(SINGULAR))
    if "certificate" in change:
        doc["cheeger"] = {"certificate": {"phi": change["certificate"]}}
    else:
        doc["structure"].update(change)
    cfg = write_config(tmp_path, doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
        assert run([command, "--config", cfg, "--out", tmp_path / "run"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
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
