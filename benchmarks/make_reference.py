"""Regenerate reference.json, the expected outputs every benchmark run is
checked against.

    python3 benchmarks/make_reference.py

Runs each job once through the CLI with seed 0 and records the values the
checker compares (eigenvalues, flags, bounds, table rows), plus the Grushin
cylinder's separated-mode eigenvalues from ``build_table``: the reference
for ``lambda_err_table``.  Only run it at a commit whose outputs are trusted.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from checks import REFERENCE, read_csv, read_json, read_lambdas
from jobs import WORKLOADS, Job, workload_jobs, write_configs
from run import SRC, WORK, child_env, run_child


def separated_modes(bc: str, max_n: int, max_m: int) -> list[float]:
    """Ascending cylinder eigenvalues (with multiplicity) from the mode table,
    cut where higher angular modes or higher radial indices could interleave."""
    from ccspectral import ModeProblem, build_table, find_eigenvalues

    table = build_table(max_n, max_m, bc=bc)
    complete_below = min(
        min(max(e.lam for e in table.entries if e.n == n) for n in range(max_n + 1)),
        float(find_eigenvalues(ModeProblem(n=max_n + 1, bc=bc), 1)[0]))
    return [e.lam for e in table.expanded() if e.lam < complete_below]


def expected(job: Job, out: Path, exit_code: int) -> dict:
    ref: dict = {"exit_code": exit_code}
    if job.command == "spectrum":
        ref["lambdas"] = read_lambdas(job, out)
        ref["nodal_ok"] = read_json(out / "nodal_report.json")["ok"]
    elif job.command == "cheeger":
        report = read_json(out / "inequality_report.json")
        ref.update({key: report[key] for key in
                    ("lambda", "h_upper", "satisfied", "h_source", "certificate_valid")})
        ref["h_certified"] = read_json(out / "certificate.json")["h_certified"]
        ref["n_cuts"] = len(read_csv(out / "cuts.csv"))
    elif job.command == "grushin-table":
        ref["rows"] = [[int(r["n"]), int(r["m"]), float(r["lambda"]), int(r["multiplicity"]),
                        float(r["rel_error_2d"]) if r.get("rel_error_2d") else None]
                       for r in read_csv(out / "grushin_table.csv")]
    else:
        doc = read_json(out / "carnot.json")
        ref.update(Q=doc["Q"], omega=doc["omega"])
    return ref


def main() -> int:
    sys.path.insert(0, str(SRC))
    env = child_env()
    reference = {"modes": {"neumann": separated_modes("neumann", 4, 3),
                           "dirichlet": separated_modes("dirichlet", 4, 2)},
                 "jobs": {}}
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        for workload in WORKLOADS:
            jobs = workload_jobs(workload, seed=0)
            configs = write_configs(jobs, Path(tmp) / "configs")
            for job, config in zip(jobs, configs):
                out = Path(tmp) / job.name
                code, _ = run_child([sys.executable, "-m", "ccspectral",
                                     *job.argv(config, out)], env, Path(tmp) / "log")
                reference["jobs"][job.name] = expected(job, out, code)
                print(f"{job.name}: exit {code}")
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
