"""Output checks for benchmark jobs against values stored in reference.json.

Every check is seed independent.  Eigenvalues are compared, never the
eigenvector images byte for byte: degenerate eigenspaces give different
eigenvectors (and so different ``eig_<i>.pgm``) for different Lanczos start
vectors while the eigenvalues agree to roundoff.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from jobs import Job

EIG_RTOL = 1e-10        # |lambda - ref| <= EIG_RTOL * max(1, |ref|)
VALUE_RTOL = 1e-9       # cut ratios, certificate values, table errors
REFERENCE = Path(__file__).with_name("reference.json")

_ARTIFACTS = {
    "spectrum": ("eigenvalues.csv", "nodal_report.json"),
    "cheeger": ("cuts.csv", "certificate.json", "inequality_report.json"),
    "grushin-table": ("grushin_table.csv",),
    "carnot": ("carnot.json",),
}


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def _close(value: float, ref: float, rtol: float) -> bool:
    return abs(value - ref) <= rtol * max(1.0, abs(ref))


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def read_lambdas(job: Job, out_dir: Path) -> list[float]:
    """The eigenvalues a job reports: all of a spectrum, lambda of a cheeger run."""
    if job.command == "spectrum":
        return [float(r["lambda"]) for r in read_csv(out_dir / "eigenvalues.csv")]
    if job.command == "cheeger":
        return [float(read_json(out_dir / "inequality_report.json")["lambda"])]
    return []


def _check_pgm(path: Path, width: int, height: int) -> str | None:
    expected = f"P5\n{width} {height}\n255\n".encode("ascii")
    data = path.read_bytes()
    if not data.startswith(expected) or len(data) != len(expected) + width * height:
        return f"{path.name}: not a {width}x{height} 8-bit PGM"
    return None


def _check_spectrum(job: Job, out_dir: Path, ref: dict) -> list[str]:
    problems = []
    rows = read_csv(out_dir / "eigenvalues.csv")
    lambdas = [float(r["lambda"]) for r in rows]
    if len(lambdas) != len(ref["lambdas"]):
        return [f"{len(lambdas)} eigenvalues, expected {len(ref['lambdas'])}"]
    tol = job.config["solver"].get("tol", 1e-8)
    for i, (row, lam, lam_ref) in enumerate(zip(rows, lambdas, ref["lambdas"]), 1):
        if not _close(lam, lam_ref, EIG_RTOL):
            problems.append(f"lambda_{i} = {lam!r}, reference {lam_ref!r}")
        if not float(row["residual"]) <= tol:
            problems.append(f"residual_{i} = {row['residual']} exceeds tol {tol}")
    report = read_json(out_dir / "nodal_report.json")
    if report["ok"] != ref["nodal_ok"]:
        problems.append(f"nodal_report.ok = {report['ok']}, reference {ref['nodal_ok']}")
    nx, ny = job.config["grid"]["nx"], job.config["grid"]["ny"]
    for i in range(1, len(lambdas) + 1):
        for stem in ("eig", "nodal"):
            path = out_dir / f"{stem}_{i}.pgm"
            problem = _check_pgm(path, nx, ny) if path.exists() else f"{path.name} missing"
            if problem:
                problems.append(problem)
    return problems


def _check_cheeger(job: Job, out_dir: Path, ref: dict) -> list[str]:
    problems = []
    report = read_json(out_dir / "inequality_report.json")
    if not _close(report["lambda"], ref["lambda"], EIG_RTOL):
        problems.append(f"lambda = {report['lambda']!r}, reference {ref['lambda']!r}")
    for key in ("satisfied", "h_source", "certificate_valid"):
        if report[key] != ref[key]:
            problems.append(f"{key} = {report[key]!r}, reference {ref[key]!r}")
    if not _close(report["h_upper"], ref["h_upper"], VALUE_RTOL):
        problems.append(f"h_upper = {report['h_upper']!r}, reference {ref['h_upper']!r}")
    certificate = read_json(out_dir / "certificate.json")
    if not _close(certificate["h_certified"], ref["h_certified"], VALUE_RTOL):
        problems.append(f"h_certified = {certificate['h_certified']!r}, "
                        f"reference {ref['h_certified']!r}")
    if len(read_csv(out_dir / "cuts.csv")) != ref["n_cuts"]:
        problems.append(f"cuts.csv does not hold {ref['n_cuts']} cuts")
    return problems


def _check_table(job: Job, out_dir: Path, ref: dict) -> list[str]:
    rows = read_csv(out_dir / "grushin_table.csv")
    if len(rows) != len(ref["rows"]):
        return [f"{len(rows)} table rows, expected {len(ref['rows'])}"]
    problems = []
    for row, (n, m, lam, mult, err) in zip(rows, ref["rows"]):
        if (int(row["n"]), int(row["m"]), int(row["multiplicity"])) != (n, m, mult):
            problems.append(f"row n={row['n']} m={row['m']}: expected n={n} m={m} x{mult}")
        if not _close(float(row["lambda"]), lam, EIG_RTOL):
            problems.append(f"lambda_{n},{m} = {row['lambda']}, reference {lam!r}")
        got_err = row.get("rel_error_2d")
        if err is None:
            if got_err:
                problems.append(f"rel_error_2d_{n},{m} = {got_err}, expected blank")
        elif not got_err or abs(float(got_err) - err) > VALUE_RTOL:
            problems.append(f"rel_error_2d_{n},{m} = {got_err!r}, reference {err!r}")
    return problems


def _check_carnot(job: Job, out_dir: Path, ref: dict) -> list[str]:
    doc = read_json(out_dir / "carnot.json")
    problems = []
    if not _close(doc["alpha"], 3.0 / math.pi, 1e-14):
        problems.append(f"alpha = {doc['alpha']!r}, expected 3/pi")
    if doc["Q"] != ref["Q"] or doc["omega"].keys() != ref["omega"].keys():
        problems.append("Q/omega keys differ from the reference")
    else:
        problems += [f"omega_{a} = {doc['omega'][a]!r}, reference {w!r}"
                     for a, w in ref["omega"].items()
                     if not _close(doc["omega"][a], w, 1e-14)]
    return problems


_CHECKS = {"spectrum": _check_spectrum, "cheeger": _check_cheeger,
           "grushin-table": _check_table, "carnot": _check_carnot}


def check_job(job: Job, out_dir: Path, exit_code: int, reference: dict) -> list[str]:
    """Every way the job's outcome differs from its reference; empty if none."""
    ref = reference["jobs"][job.name]
    if exit_code != ref["exit_code"]:
        return [f"exit code {exit_code}, expected {ref['exit_code']}"]
    missing = [name for name in _ARTIFACTS[job.command] if not (out_dir / name).exists()]
    if missing:
        return [f"missing artifact(s) {missing}"]
    try:
        return _CHECKS[job.command](job, out_dir, ref)
    except (KeyError, ValueError, TypeError) as exc:
        return [f"malformed artifact: {exc!r}"]


def lambda_table_error(job: Job, out_dir: Path, reference: dict) -> float | None:
    """Largest relative error of a Grushin job's eigenvalues against the
    separated-mode values (absolute error for the zero mode); None when the
    job has no Grushin eigenvalues."""
    if job.grushin_bc is None:
        return None
    modes = reference["modes"][job.grushin_bc]
    lambdas = read_lambdas(job, out_dir)
    if len(lambdas) > len(modes):
        raise ValueError(f"{job.name}: {len(lambdas)} eigenvalues, "
                         f"only {len(modes)} reference modes")
    return max(abs(lam - ref) / (ref if ref > 1e-9 else 1.0)
               for lam, ref in zip(lambdas, modes))
