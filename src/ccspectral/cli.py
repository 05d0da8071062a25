"""Batch command line front end.

Four subcommands drive the library end to end from a JSON configuration:

  spectrum       lowest eigenvalues, eigenfunction/nodal images, Courant report
  cheeger        candidate cuts, level-set sweeps, flow certificates and the
                 lambda >= h^2/4 report
  grushin-table  separated 1D mode table by shooting, optional 2D cross-check
  carnot         homogeneous-group constants for the Heisenberg groups

Every subcommand accepts ``--config <path>``, ``--out <dir>`` and
``--quiet``.  Exit codes: 0 on success, 2 on a configuration error, 3 when
a solver or root finder fails to converge or a certified lower Cheeger bound
contradicts the upper bound from cuts.  CSV artifacts use the shortest
round-trip decimal representation for floats so identical runs produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .carnot import hausdorff_constant_heisenberg, heisenberg_spec, \
    homogeneous_dimension, unit_ball_volume
from .cheeger import candidate_cuts_grushin, dirichlet_cheeger_upper, \
    mfmc_certify, superlevel_cuts, sweep_level_sets, verify_inequality, \
    write_cuts_csv
from .discretization import AssembledForms, BCSegment, BoundarySpec, Grid2D, \
    assemble, build_grid
from .eigensolver import DENSE_THRESHOLD, ConvergenceError, Eigenpairs, solve_smallest
from .expressions import ExpressionError, compile_expression
from .geometry import CCStructure, Chart2D, HorizontalField, SampleError, \
    builtin_euclidean, builtin_grushin_cylinder
from .grushin import ModeProblem, ModeTable, WindowExhaustedError, \
    build_table, cross_validate, find_eigenvalues, write_table_csv
from .nodal import check_courant, write_labels_pgm
from .pgm import field_to_gray, write_pgm

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3


class ConfigError(ValueError):
    """A malformed or inconsistent run configuration."""


# ---------------------------------------------------------------------------
# configuration schema
# ---------------------------------------------------------------------------

def _check_keys(d: dict, allowed: tuple[str, ...], where: str) -> None:
    extra = sorted(set(d) - set(allowed))
    if extra:
        raise ConfigError(f"unknown key(s) {extra} in {where}; allowed: {sorted(allowed)}")


def _as_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return value


def _as_float(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    return float(value)


def _as_bool(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{where} must be true or false, got {value!r}")
    return value


def _as_str(value, where: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{where} must be a string, got {value!r}")
    return value


def _as_pair(value, where: str) -> tuple[float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{where} must be a pair [lo, hi], got {value!r}")
    return (_as_float(value[0], where + "[0]"), _as_float(value[1], where + "[1]"))


@dataclass(frozen=True)
class ChartConfig:
    x_range: tuple[float, float] = (0.0, 1.0)
    y_range: tuple[float, float] = (0.0, 1.0)
    periodic_x: bool = False
    periodic_y: bool = False

    @classmethod
    def from_dict(cls, d: dict) -> "ChartConfig":
        _check_keys(d, ("x_range", "y_range", "periodic_x", "periodic_y"), "structure.chart")
        out = cls(
            x_range=_as_pair(d.get("x_range", (0.0, 1.0)), "chart.x_range"),
            y_range=_as_pair(d.get("y_range", (0.0, 1.0)), "chart.y_range"),
            periodic_x=_as_bool(d.get("periodic_x", False), "chart.periodic_x"),
            periodic_y=_as_bool(d.get("periodic_y", False), "chart.periodic_y"),
        )
        if not out.x_range[1] > out.x_range[0]:
            raise ConfigError(f"chart.x_range must increase, got {list(out.x_range)}")
        if not out.y_range[1] > out.y_range[0]:
            raise ConfigError(f"chart.y_range must increase, got {list(out.y_range)}")
        return out

    def to_dict(self) -> dict:
        return {"x_range": list(self.x_range), "y_range": list(self.y_range),
                "periodic_x": self.periodic_x, "periodic_y": self.periodic_y}


@dataclass(frozen=True)
class StructureConfig:
    kind: str = "grushin"
    chart: ChartConfig | None = None
    fields: tuple[tuple[str, str], ...] | None = None
    density: str = "1"

    @classmethod
    def from_dict(cls, d: dict) -> "StructureConfig":
        _check_keys(d, ("kind", "chart", "fields", "density"), "structure")
        kind = _as_str(d.get("kind", "grushin"), "structure.kind")
        if kind not in ("grushin", "euclidean", "custom"):
            raise ConfigError(f"structure.kind must be grushin, euclidean or custom, got {kind!r}")
        chart = None
        if "chart" in d:
            if kind == "grushin":
                raise ConfigError("structure.chart cannot be overridden for kind 'grushin'")
            chart = ChartConfig.from_dict(d["chart"])
        fields = None
        if "fields" in d:
            if kind != "custom":
                raise ConfigError("structure.fields is only valid for kind 'custom'")
            raw = d["fields"]
            if not isinstance(raw, list) or not raw:
                raise ConfigError("structure.fields must be a non-empty list of [a_x, a_y] pairs")
            pairs = []
            for i, pair in enumerate(raw):
                if not isinstance(pair, list) or len(pair) != 2:
                    raise ConfigError(f"structure.fields[{i}] must be a pair of expressions")
                pairs.append((_as_str(pair[0], f"structure.fields[{i}][0]"),
                              _as_str(pair[1], f"structure.fields[{i}][1]")))
            fields = tuple(pairs)
        if kind == "custom":
            if chart is None:
                raise ConfigError("structure.chart is required for kind 'custom'")
            if fields is None:
                raise ConfigError("structure.fields is required for kind 'custom'")
        density = _as_str(d.get("density", "1"), "structure.density")
        if "density" in d and kind != "custom":
            raise ConfigError("structure.density is only valid for kind 'custom'")
        return cls(kind=kind, chart=chart, fields=fields, density=density)

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.chart is not None:
            out["chart"] = self.chart.to_dict()
        if self.fields is not None:
            out["fields"] = [list(pair) for pair in self.fields]
        if self.kind == "custom":
            out["density"] = self.density
        return out


@dataclass(frozen=True)
class GridConfig:
    nx: int = 64
    ny: int = 128

    @classmethod
    def from_dict(cls, d: dict) -> "GridConfig":
        _check_keys(d, ("nx", "ny"), "grid")
        nx = _as_int(d.get("nx", 64), "grid.nx")
        ny = _as_int(d.get("ny", 128), "grid.ny")
        if nx < 3 or ny < 3:
            raise ConfigError(f"grid must have nx, ny >= 3, got {nx}x{ny}")
        return cls(nx=nx, ny=ny)

    def to_dict(self) -> dict:
        return {"nx": self.nx, "ny": self.ny}


@dataclass(frozen=True)
class SegmentConfig:
    edge: str
    condition: str
    lo: float | None = None
    hi: float | None = None

    @classmethod
    def from_dict(cls, d: dict, where: str) -> "SegmentConfig":
        _check_keys(d, ("edge", "condition", "range"), where)
        if "edge" not in d or "condition" not in d:
            raise ConfigError(f"{where} needs 'edge' and 'condition'")
        edge = _as_str(d["edge"], where + ".edge")
        condition = _as_str(d["condition"], where + ".condition")
        lo = hi = None
        if "range" in d:
            lo, hi = _as_pair(d["range"], where + ".range")
        return cls(edge=edge, condition=condition, lo=lo, hi=hi)

    def to_dict(self) -> dict:
        out: dict = {"edge": self.edge, "condition": self.condition}
        if self.lo is not None or self.hi is not None:
            out["range"] = [self.lo, self.hi]
        return out


@dataclass(frozen=True)
class BCConfig:
    kind: str = "neumann"  # neumann | dirichlet | segments
    segments: tuple[SegmentConfig, ...] = ()

    @classmethod
    def from_value(cls, value) -> "BCConfig":
        if isinstance(value, str):
            if value not in ("neumann", "dirichlet"):
                raise ConfigError(f"bc must be 'neumann', 'dirichlet' or a segment list, got {value!r}")
            return cls(kind=value)
        if isinstance(value, list):
            segs = tuple(SegmentConfig.from_dict(s, f"bc[{i}]") if isinstance(s, dict)
                         else _bad_segment(i) for i, s in enumerate(value))
            return cls(kind="segments", segments=segs)
        raise ConfigError(f"bc must be a string or a list of segments, got {value!r}")

    def to_value(self):
        if self.kind == "segments":
            return [s.to_dict() for s in self.segments]
        return self.kind


def _bad_segment(i: int):
    raise ConfigError(f"bc[{i}] must be an object with edge/condition")


@dataclass(frozen=True)
class SolverConfig:
    k: int = 6
    tol: float = 1e-8
    seed: int = 0
    dense_threshold: int = DENSE_THRESHOLD
    method: str = "auto"

    @classmethod
    def from_dict(cls, d: dict) -> "SolverConfig":
        _check_keys(d, ("k", "tol", "seed", "dense_threshold", "method"), "solver")
        out = cls(
            k=_as_int(d.get("k", 6), "solver.k"),
            tol=_as_float(d.get("tol", 1e-8), "solver.tol"),
            seed=_as_int(d.get("seed", 0), "solver.seed"),
            dense_threshold=_as_int(d.get("dense_threshold", DENSE_THRESHOLD), "solver.dense_threshold"),
            method=_as_str(d.get("method", "auto"), "solver.method"),
        )
        if out.k < 1:
            raise ConfigError(f"solver.k must be >= 1, got {out.k}")
        if out.method not in ("auto", "dense", "shift-invert"):
            raise ConfigError(f"solver.method must be auto, dense or shift-invert, got {out.method!r}")
        if not out.tol > 0.0:
            raise ConfigError(f"solver.tol must be positive, got {out.tol}")
        return out

    def to_dict(self) -> dict:
        return {"k": self.k, "tol": self.tol, "seed": self.seed,
                "dense_threshold": self.dense_threshold, "method": self.method}


@dataclass(frozen=True)
class NodalConfig:
    rel_threshold: float = 1e-6
    gap_rel_tol: float = 1e-6

    @classmethod
    def from_dict(cls, d: dict) -> "NodalConfig":
        _check_keys(d, ("rel_threshold", "gap_rel_tol"), "nodal")
        return cls(rel_threshold=_as_float(d.get("rel_threshold", 1e-6), "nodal.rel_threshold"),
                   gap_rel_tol=_as_float(d.get("gap_rel_tol", 1e-6), "nodal.gap_rel_tol"))

    def to_dict(self) -> dict:
        return {"rel_threshold": self.rel_threshold, "gap_rel_tol": self.gap_rel_tol}


@dataclass(frozen=True)
class CertificateConfig:
    phi: tuple[str, ...]
    mode: str = "dirichlet"

    @classmethod
    def from_dict(cls, d: dict) -> "CertificateConfig":
        _check_keys(d, ("phi", "mode"), "cheeger.certificate")
        if "phi" not in d or not isinstance(d["phi"], list) or not d["phi"]:
            raise ConfigError("cheeger.certificate.phi must be a non-empty list of expressions")
        phi = tuple(_as_str(p, f"cheeger.certificate.phi[{i}]") for i, p in enumerate(d["phi"]))
        mode = _as_str(d.get("mode", "dirichlet"), "cheeger.certificate.mode")
        if mode not in ("dirichlet", "neumann"):
            raise ConfigError(f"certificate mode must be dirichlet or neumann, got {mode!r}")
        return cls(phi=phi, mode=mode)

    def to_dict(self) -> dict:
        return {"phi": list(self.phi), "mode": self.mode}


@dataclass(frozen=True)
class CheegerConfig:
    levels: int = 40
    certificate: CertificateConfig | None = None

    @classmethod
    def from_dict(cls, d: dict) -> "CheegerConfig":
        _check_keys(d, ("levels", "certificate"), "cheeger")
        levels = _as_int(d.get("levels", 40), "cheeger.levels")
        if levels < 1:
            raise ConfigError(f"cheeger.levels must be >= 1, got {levels}")
        certificate = None
        if "certificate" in d and d["certificate"] is not None:
            if not isinstance(d["certificate"], dict):
                raise ConfigError("cheeger.certificate must be an object")
            certificate = CertificateConfig.from_dict(d["certificate"])
        return cls(levels=levels, certificate=certificate)

    def to_dict(self) -> dict:
        out: dict = {"levels": self.levels}
        if self.certificate is not None:
            out["certificate"] = self.certificate.to_dict()
        return out


@dataclass(frozen=True)
class TableConfig:
    max_n: int = 2
    max_m: int = 2
    bc: str = "neumann"
    lambda_window: tuple[float, float] = (0.0, 120.0)
    tol: float = 1e-8

    @classmethod
    def from_dict(cls, d: dict) -> "TableConfig":
        _check_keys(d, ("max_n", "max_m", "bc", "lambda_window", "tol"), "table")
        out = cls(
            max_n=_as_int(d.get("max_n", 2), "table.max_n"),
            max_m=_as_int(d.get("max_m", 2), "table.max_m"),
            bc=_as_str(d.get("bc", "neumann"), "table.bc"),
            lambda_window=_as_pair(d.get("lambda_window", (0.0, 120.0)), "table.lambda_window"),
            tol=_as_float(d.get("tol", 1e-8), "table.tol"),
        )
        if out.max_n < 0 or out.max_m < 1:
            raise ConfigError(f"table needs max_n >= 0 and max_m >= 1, got {out.max_n}, {out.max_m}")
        if out.bc not in ("neumann", "dirichlet"):
            raise ConfigError(f"table.bc must be neumann or dirichlet, got {out.bc!r}")
        return out

    def to_dict(self) -> dict:
        return {"max_n": self.max_n, "max_m": self.max_m, "bc": self.bc,
                "lambda_window": list(self.lambda_window), "tol": self.tol}


@dataclass(frozen=True)
class CarnotConfig:
    n: int = 1

    @classmethod
    def from_dict(cls, d: dict) -> "CarnotConfig":
        _check_keys(d, ("n",), "carnot")
        n = _as_int(d.get("n", 1), "carnot.n")
        if n < 1:
            raise ConfigError(f"carnot.n must be >= 1, got {n}")
        return cls(n=n)

    def to_dict(self) -> dict:
        return {"n": self.n}


@dataclass(frozen=True)
class RunConfig:
    """Validated run manifest; every command reads only the parts it needs."""

    structure: StructureConfig = StructureConfig()
    grid: GridConfig = GridConfig()
    bc: BCConfig = BCConfig()
    solver: SolverConfig = SolverConfig()
    nodal: NodalConfig = NodalConfig()
    cheeger: CheegerConfig = CheegerConfig()
    table: TableConfig = TableConfig()
    carnot: CarnotConfig = CarnotConfig()

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"configuration must be a JSON object, got {type(data).__name__}")
        _check_keys(data, ("structure", "grid", "bc", "solver", "nodal",
                           "cheeger", "table", "carnot"), "the top level")

        def section(key):
            val = data.get(key, {})
            if not isinstance(val, dict):
                raise ConfigError(f"'{key}' must be an object")
            return val

        return cls(
            structure=StructureConfig.from_dict(section("structure")),
            grid=GridConfig.from_dict(section("grid")),
            bc=BCConfig.from_value(data.get("bc", "neumann")),
            solver=SolverConfig.from_dict(section("solver")),
            nodal=NodalConfig.from_dict(section("nodal")),
            cheeger=CheegerConfig.from_dict(section("cheeger")),
            table=TableConfig.from_dict(section("table")),
            carnot=CarnotConfig.from_dict(section("carnot")),
        )

    def to_dict(self) -> dict:
        return {
            "structure": self.structure.to_dict(),
            "grid": self.grid.to_dict(),
            "bc": self.bc.to_value(),
            "solver": self.solver.to_dict(),
            "nodal": self.nodal.to_dict(),
            "cheeger": self.cheeger.to_dict(),
            "table": self.table.to_dict(),
            "carnot": self.carnot.to_dict(),
        }


def load_config(path) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return RunConfig.from_dict(data)


# ---------------------------------------------------------------------------
# config -> computational objects
# ---------------------------------------------------------------------------

def build_structure(cfg: StructureConfig) -> CCStructure:
    if cfg.kind == "grushin":
        return builtin_grushin_cylinder()
    if cfg.kind == "euclidean":
        c = cfg.chart if cfg.chart is not None else ChartConfig()
        return builtin_euclidean(c.x_range, c.y_range, c.periodic_x, c.periodic_y)
    c = cfg.chart
    chart = Chart2D(c.x_range, c.y_range, periodic_x=c.periodic_x, periodic_y=c.periodic_y)
    try:
        coeffs = tuple((compile_expression(ax), compile_expression(ay))
                       for ax, ay in cfg.fields)
        density = compile_expression(cfg.density)
    except ExpressionError as exc:
        raise ConfigError(f"bad coefficient expression:\n{exc}") from exc
    return CCStructure(chart=chart, field_coeffs=coeffs, density=density, name="custom")


def build_problem(config: RunConfig) -> tuple[CCStructure, Grid2D, BoundarySpec]:
    """Validate the geometric part of a config into concrete objects."""
    try:
        structure = build_structure(config.structure)
        grid = build_grid(structure.chart, config.grid.nx, config.grid.ny)
        if config.bc.kind == "neumann":
            bc = BoundarySpec.all_neumann()
        elif config.bc.kind == "dirichlet":
            bc = BoundarySpec.all_dirichlet(structure.chart)
        else:
            bc = BoundarySpec(tuple(BCSegment(s.edge, s.condition, s.lo, s.hi)
                                    for s in config.bc.segments))
        bc.dirichlet_mask(grid)  # runs the edge/range validation up front
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return structure, grid, bc


def _solve(config: RunConfig, forms: AssembledForms, k: int) -> Eigenpairs:
    s = config.solver
    try:
        return solve_smallest(forms, k=k, tol=s.tol, method=s.method,
                              dense_threshold=s.dense_threshold, seed=s.seed)
    except np.linalg.LinAlgError:  # a ValueError, but numerical, not the config's
        raise
    except ValueError as exc:  # k or method does not fit this grid
        raise ConfigError(f"solver: {exc}") from exc


# ---------------------------------------------------------------------------
# artifact writers
# ---------------------------------------------------------------------------

def _write_eigenvalues_csv(pairs: Eigenpairs, path: Path) -> None:
    lines = ["index,lambda,residual"]
    for i in range(pairs.k):
        lines.append(f"{i + 1},{float(pairs.lambdas[i])!r},{float(pairs.residuals[i])!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_json(obj: dict, path: Path) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _say(quiet: bool, message: str) -> None:
    if not quiet:
        print(message)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_spectrum(config: RunConfig, out: Path, quiet: bool = False) -> int:
    structure, grid, bc = build_problem(config)
    forms = assemble(structure, grid, bc)
    pairs = _solve(config, forms, config.solver.k)

    out.mkdir(parents=True, exist_ok=True)
    _write_eigenvalues_csv(pairs, out / "eigenvalues.csv")
    info = pairs.info
    inverse = f", inverse {info['inverse']} ({info['inverse_reason']})" if "inverse" in info else ""
    _say(quiet, f"structure {structure.name}, grid {grid.nx}x{grid.ny}, "
                f"bc {config.bc.kind}, k={pairs.k}, solver {info['path']} "
                f"({info['reason']}){inverse}")
    report = check_courant(pairs, forms, rel_threshold=config.nodal.rel_threshold,
                           gap_rel_tol=config.nodal.gap_rel_tol)
    for i, entry in enumerate(report.entries):
        full = forms.expand(pairs.vectors[:, i])
        write_pgm(field_to_gray(full.reshape(grid.nx, grid.ny)), out / f"eig_{i + 1}.pgm")
        write_labels_pgm(grid, entry.decomposition, out / f"nodal_{i + 1}.pgm")
        _say(quiet, f"  {i + 1:3d}  lambda = {pairs.lambdas[i]:.12g}  "
                    f"residual = {pairs.residuals[i]:.3e}  domains = {entry.n_domains}")

    _write_json({
        "ok": report.ok,
        "rel_threshold": config.nodal.rel_threshold,
        "entries": [{"index": e.index, "eigenvalue": e.eigenvalue,
                     "n_domains": e.n_domains, "bound": e.bound, "ok": e.ok}
                    for e in report.entries],
    }, out / "nodal_report.json")
    _say(quiet, f"courant check: {'ok' if report.ok else 'VIOLATED'}")
    _say(quiet, f"wrote eigenvalues.csv, {pairs.k} eig/nodal PGM pairs, "
                f"nodal_report.json in {out}")
    return EXIT_OK


def _certificate_field(config: RunConfig, structure: CCStructure,
                       grid: Grid2D) -> HorizontalField:
    cert = config.cheeger.certificate
    if len(cert.phi) != structure.m:
        raise ConfigError(f"certificate needs {structure.m} phi expressions "
                          f"(one per generating field), got {len(cert.phi)}")
    try:
        exprs = [compile_expression(p) for p in cert.phi]
    except ExpressionError as exc:
        raise ConfigError(f"bad certificate expression:\n{exc}") from exc
    X, Y = grid.meshes()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        phi = np.stack([e(X.ravel(), Y.ravel()) for e in exprs])
    if not np.all(np.isfinite(phi)):
        i = np.argwhere(~np.isfinite(phi))[0][0]
        raise SampleError(f"cheeger.certificate.phi[{i}]", exprs[i], "not finite",
                          phi[i], X.ravel(), Y.ravel())
    return HorizontalField(grid=grid, phi=phi)


def cmd_cheeger(config: RunConfig, out: Path, quiet: bool = False) -> int:
    structure, grid, bc = build_problem(config)
    flavor = {"neumann": "neumann", "dirichlet": "dirichlet"}.get(config.bc.kind, "mixed")
    forms = assemble(structure, grid, bc)
    k = max(config.solver.k, 2 if flavor == "neumann" else 1)
    pairs = _solve(config, forms, k)
    out.mkdir(parents=True, exist_ok=True)

    index = 1 if flavor == "neumann" else 0
    lam = float(pairs.lambdas[index])
    u = forms.expand(pairs.vectors[:, index])
    if flavor == "neumann":
        cuts = (candidate_cuts_grushin(structure, grid)
                if structure.name == "grushin-cylinder" else [])
        cuts.append(sweep_level_sets(structure, grid, u, n_levels=config.cheeger.levels))
        h_upper = min(c.ratio for c in cuts)
    else:
        # cuts.csv lists the two-sided level cuts; the Dirichlet bound reads them all
        level_cuts = superlevel_cuts(structure, grid, u, n_levels=config.cheeger.levels)
        cuts = [c for c in level_cuts if np.isfinite(c.ratio)]
        if flavor == "dirichlet":
            h_upper = dirichlet_cheeger_upper(structure, grid, u, cuts=level_cuts)
        else:
            h_upper = min((c.ratio for c in cuts), default=float("inf"))

    write_cuts_csv(cuts, out / "cuts.csv")
    best = min(cuts, key=lambda c: c.ratio) if cuts else None
    if best is not None:
        _say(quiet, f"{len(cuts)} candidate cuts; best: {best.kind} "
                    f"ratio = {best.ratio:.9g}")
    _say(quiet, f"upper bound for h_{flavor}: {h_upper:.9g}")

    h_lower = 0.0
    h_source = "none"
    certificate_valid = None
    if config.cheeger.certificate is not None:
        V = _certificate_field(config, structure, grid)
        certificate = mfmc_certify(structure, grid, V, config.cheeger.certificate.mode)
        _write_json(certificate.to_dict(), out / "certificate.json")
        certificate_valid = certificate.valid
        if not certificate.valid:
            _say(quiet, "certificate INVALID (see certificate.json)")
        elif certificate.mode == flavor:
            h_lower = certificate.h_certified
            h_source = "certificate"
            _say(quiet, f"certificate valid: h >= {h_lower:.9g}")
            if h_lower > h_upper * (1.0 + 1e-9):
                print(f"solver error: certified lower bound h >= {h_lower!r} exceeds "
                      f"the upper bound h <= {h_upper!r}", file=sys.stderr)
                return EXIT_SOLVER
        else:
            _say(quiet, f"certificate valid for mode {certificate.mode}; "
                        f"not used for the {flavor} inequality")
    if h_source == "none" and np.isfinite(h_upper):
        # No certified lower bound: presume the best upper bound is sharp,
        # so the report still exercises lambda >= h^2/4 with a concrete h.
        h_lower = h_upper
        h_source = "upper_bound_presumed"

    report = verify_inequality(lam, h_lower, flavor)
    doc = report.to_dict()
    doc["h_upper"] = h_upper
    doc["h_source"] = h_source
    doc["certificate_valid"] = certificate_valid
    _write_json(doc, out / "inequality_report.json")
    _say(quiet, f"lambda = {lam:.9g} >= {report.lower_bound:.9g} = h_lower^2/4: "
                f"slack {report.slack:.9g} ({'ok' if report.satisfied else 'VIOLATED'})")
    return EXIT_OK


def cmd_grushin_table(config: RunConfig, out: Path, quiet: bool = False,
                      do_cross_validate: bool = False) -> int:
    t = config.table
    table = build_table(t.max_n, t.max_m, bc=t.bc, lambda_window=t.lambda_window,
                        tol=t.tol)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "grushin_table.csv"

    if not do_cross_validate:
        write_table_csv(table, path)
        for e in table.entries:
            _say(quiet, f"  n={e.n} m={e.m}  lambda = {e.lam:.9g}  x{e.multiplicity}")
        _say(quiet, f"wrote {path}")
        return EXIT_OK

    structure = builtin_grushin_cylinder()
    grid = build_grid(structure.chart, config.grid.nx, config.grid.ny)
    bc = BoundarySpec.all_neumann() if t.bc == "neumann" \
        else BoundarySpec.all_dirichlet(structure.chart)
    forms = assemble(structure, grid, bc)
    threshold = _table_complete_below(table, t)
    covered = [e for e in table.expanded()
               if e.lam < threshold - 1e-9 * max(1.0, threshold)]
    if not covered:
        raise ConfigError("table is too small for a 2D cross-check: higher "
                          "angular modes interleave below every entry; "
                          "increase table.max_n")
    k = min(len(covered), forms.n_active)
    pairs = _solve(config, forms, k)
    report = cross_validate(table, pairs.lambdas[:k])

    worst: dict[tuple[int, int], float] = {}
    for _lam2d, _lam_mode, n, m, err in report.pairs:
        key = (n, m)
        worst[key] = max(worst.get(key, 0.0), err)
    lines = ["n,m,lambda,multiplicity,rel_error_2d"]
    for e in table.entries:
        err = worst.get((e.n, e.m))
        cell = "" if err is None else repr(float(err))
        lines.append(f"{e.n},{e.m},{e.lam!r},{e.multiplicity},{cell}")
        shown = "not covered by the 2D solve" if err is None else f"rel err 2d = {err:.3e}"
        _say(quiet, f"  n={e.n} m={e.m}  lambda = {e.lam:.9g}  x{e.multiplicity}  {shown}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    _say(quiet, f"max relative error over the {k} eigenvalues below "
                f"{threshold:.6g} vs the {grid.nx}x{grid.ny} grid: "
                f"{report.max_rel_error:.3e}")
    _say(quiet, f"wrote {path}")
    return EXIT_OK


def _table_complete_below(table: ModeTable, t: TableConfig) -> float:
    """Largest lambda below which the expanded table lists every eigenvalue.

    Each listed mode n covers its spectrum up to its last entry, and modes
    beyond max_n only contribute above the first eigenvalue of mode
    max_n + 1 (the lowest eigenvalue grows with the angular frequency).
    """
    per_mode_last = min(max(e.lam for e in table.entries if e.n == n)
                        for n in range(t.max_n + 1))
    problem = ModeProblem(n=t.max_n + 1, bc=t.bc, lambda_window=t.lambda_window)
    try:
        next_first = float(find_eigenvalues(problem, 1, tol=t.tol)[0])
    except WindowExhaustedError:
        next_first = float("inf")
    return min(per_mode_last, next_first)


def cmd_carnot(config: RunConfig, out: Path, quiet: bool = False) -> int:
    n = config.carnot.n
    spec = heisenberg_spec(n)
    q = homogeneous_dimension(spec)
    omegas = {str(a): unit_ball_volume(a) for a in range(1, q)}
    alpha = hausdorff_constant_heisenberg(n)
    doc = {"n": n, "topological_dimension": 2 * n + 1, "Q": q,
           "omega": omegas, "alpha": alpha}
    out.mkdir(parents=True, exist_ok=True)
    _write_json(doc, out / "carnot.json")
    _say(quiet, f"Heisenberg group of dimension {2 * n + 1}")
    _say(quiet, f"  homogeneous dimension Q = {q}")
    for a in range(1, q):
        _say(quiet, f"  omega_{a} = {omegas[str(a)]:.12g}")
    _say(quiet, f"  alpha_(Q-1) = 2*omega_{2 * n - 1}/omega_{q - 1} = {alpha:.12g}")
    _say(quiet, f"wrote {out / 'carnot.json'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccspectral",
        description="Spectra and Cheeger bounds for 2D Carnot-Caratheodory structures.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("spectrum", "solve for the lowest eigenvalues and nodal reports"),
            ("cheeger", "candidate cuts, certificates and the lambda >= h^2/4 report"),
            ("grushin-table", "separated 1D mode table for the Grushin cylinder"),
            ("carnot", "homogeneous-group constants for Heisenberg groups")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="PATH", default=None,
                       help="JSON run configuration (defaults apply when omitted)")
        p.add_argument("--out", metavar="DIR", default=".",
                       help="output directory for artifacts (default: current)")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
        if name == "grushin-table":
            p.add_argument("--cross-validate", action="store_true",
                           help="solve the 2D problem and append relative errors")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out = Path(args.out)
    try:
        config = load_config(args.config) if args.config else RunConfig()
        if args.command == "spectrum":
            return cmd_spectrum(config, out, quiet=args.quiet)
        if args.command == "cheeger":
            return cmd_cheeger(config, out, quiet=args.quiet)
        if args.command == "grushin-table":
            return cmd_grushin_table(config, out, quiet=args.quiet,
                                     do_cross_validate=args.cross_validate)
        return cmd_carnot(config, out, quiet=args.quiet)
    except (ConfigError, ExpressionError, SampleError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConvergenceError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except WindowExhaustedError as exc:
        print(f"root-finding error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    raise SystemExit(main())
