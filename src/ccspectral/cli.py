"""Batch command line front end.

Four subcommands drive the library end to end from a JSON configuration:

  spectrum       lowest eigenvalues, eigenfunction/nodal images, Courant report
  cheeger        candidate cuts, level-set sweeps, flow certificates and the
                 lambda >= h^2/4 report
  grushin-table  separated 1D mode table by shooting, optional 2D cross-check;
                 the min-max principle bounds the lambda range it scans
  carnot         homogeneous-group constants for the Heisenberg groups

Every subcommand accepts ``--config <path>``, ``--out <dir>`` and
``--quiet``.  Exit codes: 0 on success, 2 on a configuration error, 3 when
the eigensolver fails to converge, a certified lower Cheeger bound
contradicts the upper bound from cuts, a Dirichlet grid is too coarse for
any level set to enclose a region, or a mixed grid is too coarse for any
level set to cut it in two.  CSV artifacts use the shortest
round-trip decimal representation for floats so identical runs produce
byte-identical files.
"""

import argparse
import json
import math
import operator
import sys
import types
import typing
from contextlib import suppress
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from .carnot import hausdorff_constant_heisenberg, heisenberg_spec, \
    homogeneous_dimension, unit_ball_volume
from .cheeger import candidate_cuts_grushin, dirichlet_cheeger_upper, \
    mfmc_certify, superlevel_cuts, sweep_level_sets, verify_inequality, \
    write_cuts_csv
from .discretization import _CONDITIONS, _EDGES, AssembledForms, BCSegment, \
    BoundarySpec, Grid2D, assemble, build_grid
from .eigensolver import ConvergenceError, Eigenpairs, solve_smallest
from .expressions import ExpressionError, compile_expression
from .geometry import CCStructure, Chart2D, HorizontalField, SampleError, _sample, \
    builtin_euclidean, builtin_grushin_cylinder
from .grushin import ModeProblem, ModeTable, build_table, cross_validate, \
    find_eigenvalues, write_table_csv
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
#
# The dataclasses below are the schema: a field's name is its JSON key, its
# annotation the JSON type (``_parse``), its default what an omitted key
# means, and its metadata the range or enum rules of ``_RULES``.  JSON null
# is a value only where the metadata says ``nullable``; it means omitted.

# metadata key -> (test the parsed value must pass, what the error says)
_RULES = {
    # a bc segment list is not one of the named choices
    "choices": (lambda v, c: not isinstance(v, str) or v in c,
                lambda c: "must be one of " + ", ".join(c)),
    "min": (operator.ge, "must be >= {}".format),
    "gt": (operator.gt, "must be > {}".format),
    "max": (operator.le, "must be <= {}".format),
    "increasing": (lambda v, _: v[0] < v[1], lambda _: "must increase"),
    "ordered": (lambda v, _: v[0] <= v[1], lambda _: "must have lo <= hi"),
    "nonempty": (lambda v, _: len(v) > 0, lambda _: "must not be empty"),
}

# JSON scalar type -> (Python types accepted for it, its name in errors)
_SCALARS = {bool: ((bool,), "true or false"), int: ((int,), "an integer"),
            float: ((int, float), "a number"), str: ((str,), "a string")}


def _spec(default=MISSING, **rules):
    """A schema field with its default, the ``_RULES`` it must pass and
    whether it is ``nullable``."""
    return field(default=default, metadata=rules)


def _parse(tp, value, path: str):
    """``value``, decoded from JSON, as an instance of the annotation ``tp``;
    ``path`` names it in errors (``structure.chart.x_range[1]``)."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        # members are tried in order and the last one's error is reported,
        # so the structured member goes last
        *first, last = [a for a in args if a is not type(None)]
        for member in first:
            with suppress(ConfigError):
                return _parse(member, value, path)
        return _parse(last, value, path)
    if is_dataclass(tp):
        return _parse_object(tp, value, path)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path} must be a list, got {value!r}")
        if args[-1] is Ellipsis:
            args = (args[0],) * len(value)
        elif len(value) != len(args):
            raise ConfigError(f"{path} must be a list of {len(args)}, got {value!r}")
        return tuple(_parse(a, v, f"{path}[{i}]") for i, (a, v) in enumerate(zip(args, value)))
    accepted, noun = _SCALARS[tp]
    if not isinstance(value, accepted) or (isinstance(value, bool) and tp is not bool):
        raise ConfigError(f"{path} must be {noun}, got {value!r}")
    if tp is not float:
        return value
    # json.loads accepts NaN and Infinity; no number in the schema may be either
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{path} must be finite, got {value!r}")
    return number


def _parse_object(cls, value, path: str):
    where = path or "configuration"
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object, got {value!r}")
    names = [f.name for f in fields(cls)]
    extra = sorted(set(value) - set(names))
    if extra:
        raise ConfigError(f"unknown key(s) {extra} in {where}; allowed: {sorted(names)}")
    kwargs = {}
    for f in fields(cls):
        key = f"{path}.{f.name}" if path else f.name
        if f.name not in value:
            if f.default is MISSING:
                raise ConfigError(f"{key} is required")
            continue
        if value[f.name] is None and f.metadata.get("nullable"):
            continue
        kwargs[f.name] = parsed = _parse(f.type, value[f.name], key)
        for rule, (passes, says) in _RULES.items():
            if rule in f.metadata and not passes(parsed, f.metadata[rule]):
                raise ConfigError(f"{key} {says(f.metadata[rule])}, got {value[f.name]!r}")
    return cls(**kwargs)


def _to_json(value):
    """Inverse of ``_parse``: omitted optional keys stay omitted."""
    if is_dataclass(value):
        return {k: _to_json(v) for k, v in vars(value).items() if v is not None}
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    return value


@dataclass(frozen=True)
class ChartConfig:
    x_range: tuple[float, float] = _spec((0.0, 1.0), increasing=True)
    y_range: tuple[float, float] = _spec((0.0, 1.0), increasing=True)
    periodic_x: bool = False
    periodic_y: bool = False


@dataclass(frozen=True)
class StructureConfig:
    kind: str = _spec("grushin", choices=("grushin", "euclidean", "custom"))
    chart: ChartConfig | None = None
    fields: tuple[tuple[str, str], ...] | None = _spec(None, nonempty=True)
    density: str | None = None

    def __post_init__(self):
        # Which keys each kind takes; build_structure relies on these.
        custom = self.kind == "custom"
        if self.kind == "grushin" and self.chart is not None:
            raise ConfigError("structure.chart cannot be overridden for kind 'grushin'")
        for name in ("chart", "fields"):
            if custom and getattr(self, name) is None:
                raise ConfigError(f"structure.{name} is required for kind 'custom'")
        for name in ("fields", "density"):
            if not custom and getattr(self, name) is not None:
                raise ConfigError(f"structure.{name} is only valid for kind 'custom'")
        if custom and self.density is None:
            object.__setattr__(self, "density", "1")


@dataclass(frozen=True)
class GridConfig:
    nx: int = _spec(64, min=3)
    ny: int = _spec(128, min=3)


@dataclass(frozen=True)
class SegmentConfig:
    edge: str = _spec(choices=_EDGES)
    condition: str = _spec(choices=_CONDITIONS)
    range: tuple[float, float] | None = _spec(None, ordered=True)


@dataclass(frozen=True)
class SolverConfig:
    k: int = _spec(6, min=1)
    tol: float = _spec(1e-8, gt=0.0)
    seed: int = 0


@dataclass(frozen=True)
class NodalConfig:
    rel_threshold: float = _spec(1e-6, min=0.0, max=0.1)
    gap_rel_tol: float = _spec(1e-6, min=0.0)


@dataclass(frozen=True)
class CertificateConfig:
    phi: tuple[str, ...] = _spec(nonempty=True)
    mode: str = _spec("dirichlet", choices=("dirichlet", "neumann"))


@dataclass(frozen=True)
class CheegerConfig:
    levels: int = _spec(40, min=1)
    certificate: CertificateConfig | None = _spec(None, nullable=True)


@dataclass(frozen=True)
class TableConfig:
    max_n: int = _spec(2, min=0)
    max_m: int = _spec(2, min=1)
    bc: str = _spec("neumann", choices=("neumann", "dirichlet"))
    # bisection stops once its bracket is narrower than tol
    tol: float = _spec(1e-8, gt=0.0)


@dataclass(frozen=True)
class CarnotConfig:
    n: int = _spec(1, min=1)


@dataclass(frozen=True)
class RunConfig:
    """Validated run manifest; every command reads only the parts it needs."""

    structure: StructureConfig = StructureConfig()
    grid: GridConfig = GridConfig()
    bc: str | tuple[SegmentConfig, ...] = _spec("neumann", choices=("neumann", "dirichlet"))
    solver: SolverConfig = SolverConfig()
    nodal: NodalConfig = NodalConfig()
    cheeger: CheegerConfig = CheegerConfig()
    table: TableConfig = TableConfig()
    carnot: CarnotConfig = CarnotConfig()

    @classmethod
    def from_dict(cls, data) -> "RunConfig":
        return _parse(cls, data, "")

    def to_dict(self) -> dict:
        return _to_json(self)


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
    c = cfg.chart or ChartConfig()
    if cfg.kind == "euclidean":
        return builtin_euclidean(c.x_range, c.y_range, c.periodic_x, c.periodic_y)
    chart = Chart2D(c.x_range, c.y_range, periodic_x=c.periodic_x, periodic_y=c.periodic_y)
    try:
        coeffs = tuple((compile_expression(ax), compile_expression(ay))
                       for ax, ay in cfg.fields)
        density = compile_expression(cfg.density)
    except ExpressionError as exc:
        raise ConfigError(f"bad coefficient expression:\n{exc}") from exc
    return CCStructure(chart=chart, field_coeffs=coeffs, density=density, name="custom")


def build_problem(config: RunConfig) -> tuple[CCStructure, AssembledForms]:
    """The structure a config names and its forms on the config's grid and bc."""
    try:
        structure = build_structure(config.structure)
        grid = build_grid(structure.chart, config.grid.nx, config.grid.ny)
        forms = assemble(structure, grid, _boundary_spec(config.bc, structure.chart))
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return structure, forms


def _boundary_spec(bc: str | tuple[SegmentConfig, ...], chart: Chart2D) -> BoundarySpec:
    """The conditions a ``bc`` value names: "neumann", "dirichlet" or segments."""
    if bc == "neumann":
        return BoundarySpec.all_neumann()
    if bc == "dirichlet":
        if chart.periodic_x and chart.periodic_y:
            raise ConfigError("bc 'dirichlet' has no edge to hold it: "
                              "the chart is periodic in both x and y")
        return BoundarySpec.all_dirichlet(chart)
    return BoundarySpec(tuple(BCSegment(s.edge, s.condition, *(s.range or (None, None)))
                              for s in bc))


def _solve(config: RunConfig, forms: AssembledForms, k: int) -> Eigenpairs:
    s = config.solver
    try:
        return solve_smallest(forms, k=k, tol=s.tol, seed=s.seed)
    except np.linalg.LinAlgError:  # a ValueError, but numerical, not the config's
        raise
    except ValueError as exc:  # k exceeds the active nodes of this grid
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
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8")


def _say(quiet: bool, message: str) -> None:
    if not quiet:
        print(message)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_spectrum(config: RunConfig, out: Path, quiet: bool = False) -> int:
    structure, forms = build_problem(config)
    grid = forms.grid
    pairs = _solve(config, forms, config.solver.k)

    out.mkdir(parents=True, exist_ok=True)
    _write_eigenvalues_csv(pairs, out / "eigenvalues.csv")
    info = pairs.info
    inverse = (f", inverse {info['inverse']} ({info['inverse_reason']}), ncv {info['ncv']}"
               if "inverse" in info else "")
    _say(quiet, f"structure {structure.name}, grid {grid.nx}x{grid.ny}, "
                f"bc {forms.flavor}, k={pairs.k}, solver {info['path']} "
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
    X, Y = (c.ravel() for c in grid.meshes())
    phi = np.stack([_sample(f"cheeger.certificate.phi[{i}]", e, X, Y)
                    for i, e in enumerate(exprs)])
    return HorizontalField(grid=grid, phi=phi)


def cmd_cheeger(config: RunConfig, out: Path, quiet: bool = False) -> int:
    structure, forms = build_problem(config)
    grid, flavor = forms.grid, forms.flavor
    index = 1 if flavor == "neumann" else 0
    pairs = _solve(config, forms, index + 1)  # lambda_2 for neumann, else lambda_1 alone
    out.mkdir(parents=True, exist_ok=True)

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
        try:  # too coarse a grid for any admissible level set
            if flavor == "dirichlet":
                h_upper = dirichlet_cheeger_upper(structure, grid, u, level_cuts)
            elif cuts:
                h_upper = min(c.ratio for c in cuts)
            else:
                raise ValueError("no level produced a two-sided cut")
        except ValueError as exc:
            print(f"solver error: {exc} on the {grid.nx}x{grid.ny} grid with "
                  f"{config.cheeger.levels} levels", file=sys.stderr)
            return EXIT_SOLVER

    write_cuts_csv(cuts, out / "cuts.csv")
    best = min(cuts, key=lambda c: c.ratio) if cuts else None
    if best is not None:
        _say(quiet, f"{len(cuts)} candidate cuts; best: {best.kind} "
                    f"ratio = {best.ratio:.9g}")
    _say(quiet, f"upper bound for h_{flavor}: {h_upper:.9g}")

    # Unless a certificate bounds h from below, presume the best upper bound
    # is sharp, so the report still exercises lambda >= h^2/4 with a concrete h.
    h_lower = h_upper
    h_source = "upper_bound_presumed"
    certificate_valid = None
    if config.cheeger.certificate is not None:
        V = _certificate_field(config, structure, grid)
        certificate = mfmc_certify(structure, grid, V, config.cheeger.certificate.mode)
        _write_json(certificate.to_dict(), out / "certificate.json")
        certificate_valid = certificate.valid
        if not certificate.valid:
            _say(quiet, "certificate INVALID (see certificate.json)")
        elif not certificate.supplies_h_lower:
            _say(quiet, f"certificate valid for mode {certificate.mode}, which certifies "
                        f"no positive h; not used as h_lower")
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
    table = build_table(t.max_n, t.max_m, bc=t.bc, tol=t.tol)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "grushin_table.csv"

    if not do_cross_validate:
        write_table_csv(table, path)
        for e in table.entries:
            _say(quiet, f"  n={e.n} m={e.m}  lambda = {e.lam:.9g}  x{e.multiplicity}")
        _say(quiet, f"wrote {path}")
        return EXIT_OK

    _, forms = build_problem(replace(config, structure=StructureConfig(), bc=t.bc))
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
    write_table_csv(table, path, errors=worst)
    for e in table.entries:
        err = worst.get((e.n, e.m))
        shown = "not covered by the 2D solve" if err is None else f"rel err 2d = {err:.3e}"
        _say(quiet, f"  n={e.n} m={e.m}  lambda = {e.lam:.9g}  x{e.multiplicity}  {shown}")
    _say(quiet, f"max relative error over the {k} eigenvalues below "
                f"{threshold:.6g} vs the {forms.grid.nx}x{forms.grid.ny} grid: "
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
    next_first = find_eigenvalues(ModeProblem(n=t.max_n + 1, bc=t.bc), 1, tol=t.tol)[0]
    return min(per_mode_last, float(next_first))


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


if __name__ == "__main__":
    raise SystemExit(main())
