"""Workload definitions: the CLI jobs each workload runs, built from a seed.

A job is one ``ccspectral`` subcommand with a JSON config.  The benchmark
seed only enters through ``solver.seed`` (the Lanczos start vector), so the
expected outputs do not depend on it: eigenvalues agree across seeds to
roundoff, which is what lets ``checks.py`` compare against values stored
once in ``reference.json``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

GRUSHIN = {"kind": "grushin"}

# Custom structure for the cheeger workload: a y-dependent second field and
# a non-constant density, so cuts spend their time in expression evaluation
# and perimeter quadrature rather than in closed-form Grushin coefficients.
CUSTOM = {
    "kind": "custom",
    "chart": {"x_range": [0, 1], "y_range": [0, 6.283185307179586],
              "periodic_y": True},
    "fields": [["1", "0"], ["0", "x*(1+0.25*sin(y))"]],
    "density": "1+0.5*cos(y)^2",
}

CERTIFICATE = {"phi": ["x", "0"], "mode": "dirichlet"}

MIXED_X_MAX = [{"edge": "x_max", "condition": "dirichlet"}]


@dataclass(frozen=True)
class Job:
    """One CLI invocation: ``ccspectral <command> --config <cfg> [extra]``."""

    name: str
    command: str
    config: dict
    extra: tuple[str, ...] = ()
    # "neumann" or "dirichlet" when the job's eigenvalues are the Grushin
    # cylinder's, which have separated-mode reference values.
    grushin_bc: str | None = None

    def argv(self, config_path: Path, out_dir: Path) -> list[str]:
        return [self.command, "--config", str(config_path), "--out", str(out_dir),
                "--quiet", *self.extra]


def _spectrum(name, grid, seed, bc="neumann", structure=GRUSHIN, k=6):
    grushin_bc = bc if structure is GRUSHIN and isinstance(bc, str) else None
    return Job(name, "spectrum",
               {"structure": structure, "grid": {"nx": grid[0], "ny": grid[1]},
                "bc": bc, "solver": {"k": k, "seed": seed}},
               grushin_bc=grushin_bc)


def _cheeger(name, grid, bc, structure, levels, seed, k=None):
    grushin_bc = bc if structure is GRUSHIN and isinstance(bc, str) else None
    solver = {"seed": seed} if k is None else {"k": k, "seed": seed}
    return Job(name, "cheeger",
               {"structure": structure, "grid": {"nx": grid[0], "ny": grid[1]},
                "bc": bc, "solver": solver,
                "cheeger": {"levels": levels, "certificate": CERTIFICATE}},
               grushin_bc=grushin_bc)


def workload_jobs(workload: str, seed: int) -> list[Job]:
    """The jobs of ``workload``, in run order, with ``solver.seed = seed``."""
    if workload == "spectrum-large":
        return [_spectrum("spectrum-256x512", (256, 512), seed=seed)]
    if workload == "cheeger-custom":
        return [
            _cheeger("cheeger-custom-dirichlet", (128, 256), "dirichlet", CUSTOM, 120, seed, k=1),
            _cheeger("cheeger-custom-mixed", (128, 256), MIXED_X_MAX, CUSTOM, 120, seed, k=1),
        ]
    if workload == "small-batch":
        return [
            _spectrum("spectrum-24x48", (24, 48), seed=seed),
            _spectrum("spectrum-31x64-k8", (31, 64), k=8, seed=seed),
            _spectrum("spectrum-custom-40x40-mixed", (40, 40), bc=MIXED_X_MAX,
                      structure=CUSTOM, seed=seed),
            Job("grushin-table", "grushin-table", {"solver": {"seed": seed}}),
            Job("grushin-table-dirichlet-xval", "grushin-table",
                {"grid": {"nx": 24, "ny": 48}, "table": {"bc": "dirichlet"},
                 "solver": {"seed": seed}},
                extra=("--cross-validate",)),
            _cheeger("cheeger-grushin-32x64", (32, 64), "dirichlet", GRUSHIN, 40, seed),
            Job("carnot", "carnot", {"solver": {"seed": seed}}),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose one of {WORKLOADS}")


WORKLOADS = ("spectrum-large", "cheeger-custom", "small-batch")


def write_configs(jobs: list[Job], directory: Path) -> list[Path]:
    """Write each job's config as ``<directory>/<job>.json``; return the paths."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for job in jobs:
        path = directory / f"{job.name}.json"
        path.write_text(json.dumps(job.config, indent=1), encoding="utf-8")
        paths.append(path)
    return paths
