"""Batch command line front end.

Four subcommands drive the library end to end from a JSON configuration:

  spectrum       lowest eigenvalues, eigenfunction/nodal images, Courant report
  cheeger        candidate cuts, level-set sweeps, flow certificates and the
                 lambda >= h^2/4 report
  grushin-table  separated 1D mode table: collocation gives the digits,
                 and shooting confirms each root; optional 2D cross-check
  carnot         homogeneous-group constants for the Heisenberg groups

Every subcommand accepts ``--config <path>``, ``--out <dir>`` and
``--quiet``.  Exit codes, which ``main`` alone maps: 0 on success, 2 on a
configuration error (also a config file that is unreadable, not UTF-8,
nested too deeply to decode or holding an integer too long for int(), a
grid or ``cheeger.levels`` too large to size or allocate, a run that
does not fit in memory, a ``table.max_m`` above 999 or a ``table.max_n``
above 1000, or an ``--out`` at or under an existing file or in an
unwritable directory, refused before any solve, or that cannot be made or
take an artifact), and 3 exactly when a layer raises ``ConvergenceError``,
whose docstring lists every such failure: the eigensolve, the cuts that
bound h from above, the Grushin modes, and a certified lower bound on h
above the upper one.  A stdout closed early (``| head``) stops the progress lines, not
the run: every artifact is still written and the exit code is the
command's own.  Artifacts are written only here, images through
``pgm.write_pgm`` and every CSV file through ``_write_csv`` (shortest
round-trip floats, so identical runs give byte-identical files).

Loading a config needs numpy only.  Each command imports the layers it
uses when it runs, so ``carnot`` loads no scipy, and ``cheeger`` and
``grushin-table`` load neither the nodal layer nor ``scipy.sparse.csgraph``.
"""

import argparse
import json
import math
import operator
import os
import sys
import types
import typing
from contextlib import contextmanager, suppress
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from .carnot import hausdorff_constant_heisenberg, heisenberg_spec, \
    homogeneous_dimension, unit_ball_volumes
from .discretization import _CONDITIONS, _EDGES, AssembledForms, BCSegment, \
    BoundarySpec, Grid2D, assemble, build_grid
from .expressions import ExpressionError, compile_expression
from .geometry import CCStructure, Chart2D, ConvergenceError, SampleError, _sample, \
    builtin_euclidean, builtin_grushin_cylinder

if typing.TYPE_CHECKING:  # imported inside the commands that use them
    from .eigensolver import Eigenpairs

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
            raise ConfigError(f"{path} must be a list, got {_echo(value)}")
        if args[-1] is Ellipsis:
            args = (args[0],) * len(value)
        elif len(value) != len(args):
            raise ConfigError(f"{path} must be a list of {len(args)}, got {_echo(value)}")
        return tuple(_parse(a, v, f"{path}[{i}]") for i, (a, v) in enumerate(zip(args, value)))
    accepted, noun = _SCALARS[tp]
    if not isinstance(value, accepted) or (isinstance(value, bool) and tp is not bool):
        raise ConfigError(f"{path} must be {noun}, got {_echo(value)}")
    if tp is not float:
        return value
    # json.loads accepts NaN and Infinity; no number in the schema may be either
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{path} must be finite, got {_echo(value)}")
    return number


def _parse_object(cls, value, path: str):
    where = path or "configuration"
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object, got {_echo(value)}")
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
                raise ConfigError(f"{key} {says(f.metadata[rule])}, got {_echo(value[f.name])}")
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
    seed: int = _spec(0, min=0)


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
    # the shooting mismatch grows like e^{n/2}: |shoot| at lambda = n is
    # 1.5e206 at n = 1000, and RK45 fails by n = 1600.  complete_below also
    # solves mode max_n + 1
    max_n: int = _spec(2, min=0, max=1000)
    max_m: int = _spec(2, min=1, max=999)  # grushin solves at most 1000 roots per mode
    bc: str = _spec("neumann", choices=("neumann", "dirichlet"))
    # collocation gives each root's digits, the plain bisection of its
    # SCAN_STEP cell to width tol; shooting confirms each root
    tol: float = _spec(1e-8, gt=0.0)


@dataclass(frozen=True)
class CarnotConfig:
    # carnot.json lists omega_1 ... omega_(2n+1), and every omega_a with
    # a >= 452 is 0.0 in double precision: n = 10^5 writes 3.7 MB, and a
    # larger n only lengthens the run with more zeros
    n: int = _spec(1, min=1, max=100_000)


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
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also an integer past int()'s digit limit
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
    except (OverflowError, MemoryError) as exc:  # too many nodes to size or to allocate
        counts = " x ".join(map(_count, (config.grid.nx, config.grid.ny)))
        raise ConfigError(f"grid.nx x grid.ny = {counts} is too large: {exc}") from exc
    return structure, forms


def _count(n: int) -> str:
    """An integer for a message: its digits, or only how many there are
    from 10^12 on (a sign kept)."""
    return str(n) if abs(n) < 10 ** 12 else f"{'-' * (n < 0)}<{len(str(abs(n)))} digits>"


def _echo(value) -> str:
    """A config value for a message: its repr, with each integer as _count shows it."""
    if isinstance(value, list):
        return f"[{', '.join(map(_echo, value))}]"
    return _count(value) if type(value) is int else repr(value)


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


def _solve(config: RunConfig, forms: AssembledForms, k: int) -> "Eigenpairs":
    from .eigensolver import solve_smallest

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

def _write_csv(path: Path, header: str, rows) -> None:
    """Write every CSV artifact: floats (numpy's too) as shortest round-trip
    decimals, ints as digits, None as an empty cell; LF line ends, UTF-8."""
    def cell(value) -> str:
        if isinstance(value, (float, np.floating)):
            return repr(float(value))
        return "" if value is None else str(value)

    lines = [header] + [",".join(map(cell, row)) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _write_json(obj: dict, path: Path) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8")


def _make_out(out: Path) -> None:
    """Make the --out directory; main maps an OSError to a config error."""
    out.mkdir(parents=True, exist_ok=True)


@contextmanager
def _closable_stdout():
    """Stop writing to a stdout whose reader has gone (``| head``): point it
    at os.devnull, as the SIGPIPE note in Python's signal docs advises, so
    that neither a later line nor the flush at exit meets the closed pipe."""
    try:
        yield
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _say(quiet: bool, message: str) -> None:
    """A progress line; a closed stdout stops the lines, not the run."""
    if not quiet:
        with _closable_stdout():
            print(message)


def _solve_line(structure: CCStructure, forms: AssembledForms, pairs: "Eigenpairs") -> str:
    """The progress line that names the problem, the solver path, the
    inverse, why and what it cost (the LU fill, the Lanczos basis size and
    the count of inverse applies); stdout only, never an artifact."""
    info = pairs.info
    inverse = ""
    if "inverse" in info:
        fill = f", factor nnz {info['factor_nnz']}" if "factor_nnz" in info else ""
        inverse = (f", inverse {info['inverse']} ({info['inverse_reason']}){fill}, "
                   f"ncv {info['ncv']}, {info['opinv_applies']} inverse applies")
    return (f"structure {structure.name}, grid {forms.grid.nx}x{forms.grid.ny}, "
            f"bc {forms.flavor}, k={pairs.k}, solver {info['path']} ({info['reason']}){inverse}")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_spectrum(config: RunConfig, out: Path, quiet: bool = False) -> int:
    from .nodal import check_courant
    from .pgm import field_to_gray, labels_to_gray, write_pgm

    structure, forms = build_problem(config)
    grid = forms.grid
    pairs = _solve(config, forms, config.solver.k)

    _make_out(out)
    _write_csv(out / "eigenvalues.csv", "index,lambda,residual",
               zip(range(1, pairs.k + 1), pairs.lambdas, pairs.residuals))
    _say(quiet, _solve_line(structure, forms, pairs))
    report = check_courant(pairs, forms, rel_threshold=config.nodal.rel_threshold,
                           gap_rel_tol=config.nodal.gap_rel_tol)
    for i, entry in enumerate(report.entries):
        full = forms.expand(pairs.vectors[:, i])
        write_pgm(field_to_gray(full.reshape(grid.nx, grid.ny)), out / f"eig_{i + 1}.pgm")
        labels = entry.decomposition.labels.reshape(grid.nx, grid.ny)
        write_pgm(labels_to_gray(labels), out / f"nodal_{i + 1}.pgm")
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


def _certificate_field(cert: CertificateConfig, structure: CCStructure,
                       grid: Grid2D) -> np.ndarray:
    """The certificate's phi sampled on the grid nodes, shape (m, n_nodes)."""
    if len(cert.phi) != structure.m:
        raise ConfigError(f"certificate needs {structure.m} phi expressions "
                          f"(one per generating field), got {len(cert.phi)}")
    try:
        exprs = [compile_expression(p) for p in cert.phi]
    except ExpressionError as exc:
        raise ConfigError(f"bad certificate expression:\n{exc}") from exc
    X, Y = (c.ravel() for c in grid.meshes())
    return np.stack([_sample(f"cheeger.certificate.phi[{i}]", e, X, Y)
                     for i, e in enumerate(exprs)])


def cmd_cheeger(config: RunConfig, out: Path, quiet: bool = False) -> int:
    from .cheeger import mfmc_certify, upper_bound, verify_inequality

    structure, forms = build_problem(config)
    grid, flavor = forms.grid, forms.flavor
    cert, levels = config.cheeger.certificate, config.cheeger.levels
    # a bad certificate or level count is a config error, found before any solve
    phi = None if cert is None else _certificate_field(cert, structure, grid)
    try:  # one level-sized array, before any solve; main maps the sweep's MemoryError
        np.empty(levels)
    except (ValueError, MemoryError) as exc:  # past numpy's size limit or the address space
        raise ConfigError(f"cheeger.levels = {_count(levels)} is too large: {exc}") from exc
    index = 1 if flavor == "neumann" else 0
    pairs = _solve(config, forms, index + 1)  # lambda_2 for neumann, else lambda_1 alone
    _make_out(out)
    _say(quiet, _solve_line(structure, forms, pairs))

    lam = float(pairs.lambdas[index])
    u = forms.expand(pairs.vectors[:, index])
    cuts, best, h_upper = upper_bound(structure, grid, flavor, u, levels)

    _write_csv(out / "cuts.csv", "kind,sigma,vol1,vol2,ratio",
               ((c.kind, c.sigma, c.vol1, c.vol2, c.ratio) for c in cuts))
    _say(quiet, f"{len(cuts)} candidate cuts; best for h_{flavor}: {best.kind} "
                f"ratio = {h_upper:.9g}")
    _say(quiet, f"upper bound for h_{flavor}: {h_upper:.9g}")

    # Unless a certificate bounds h from below, presume the best upper bound
    # is sharp, so the report still exercises lambda >= h^2/4 with a concrete h.
    h_lower, h_source, certificate_valid = h_upper, "upper_bound_presumed", None
    if phi is not None:
        certificate = mfmc_certify(structure, grid, phi, cert.mode)
        _write_json(certificate.to_dict(), out / "certificate.json")
        certificate_valid = certificate.valid
        certified = certificate.h_lower_for(flavor)
        if certified is None:
            _say(quiet, f"certificate {'valid' if certificate.valid else 'INVALID'} for mode "
                        f"{certificate.mode}; not used for the {flavor} inequality")
        else:
            h_lower, h_source = certified, "certificate"
            _say(quiet, f"certificate valid: h >= {h_lower:.9g}")
            if h_lower > h_upper * (1.0 + 1e-9):
                raise ConvergenceError(f"certified lower bound h >= {h_lower!r} exceeds "
                                       f"the upper bound h <= {h_upper!r}")

    report = verify_inequality(lam, h_lower, flavor)
    _write_json({**report.to_dict(), "h_upper": h_upper, "h_source": h_source,
                 "certificate_valid": certificate_valid}, out / "inequality_report.json")
    if report.satisfied:
        verdict = "ok"
    elif h_source == "certificate":
        verdict = "VIOLATED"
    else:  # the true h may lie anywhere below h_upper
        verdict = "fails for the presumed h_lower = h_upper: that bound is not sharp on this grid"
    _say(quiet, f"lambda = {lam:.9g} >= {report.lower_bound:.9g} = h_lower^2/4: "
                f"slack {report.slack:.9g} ({verdict})")
    return EXIT_OK


def cmd_grushin_table(config: RunConfig, out: Path, quiet: bool = False,
                      do_cross_validate: bool = False) -> int:
    from .grushin import build_table, complete_below, cross_validate

    t = config.table
    table = build_table(t.max_n, t.max_m, bc=t.bc, tol=t.tol)
    threshold = complete_below(table, t.tol) if do_cross_validate else None
    _make_out(out)
    path = out / "grushin_table.csv"

    worst = None  # (n, m) -> relative error of the 2D cross-check
    if do_cross_validate:
        _, forms = build_problem(replace(config, structure=StructureConfig(), bc=t.bc))
        covered = [e for e in table.expanded()
                   if e.lam < threshold - 1e-9 * max(1.0, threshold)]
        k = min(len(covered), forms.n_active)
        worst = cross_validate(table, _solve(config, forms, k).lambdas[:k])

    header = "n,m,lambda,multiplicity"
    rows = [(e.n, e.m, e.lam, e.multiplicity) for e in table.entries]
    if worst is not None:  # None, an empty cell, for a mode the 2D solve does not cover
        header += ",rel_error_2d"
        rows = [row + (worst.get(row[:2]),) for row in rows]
    _write_csv(path, header, rows)
    for e in table.entries:
        shown = ""
        if worst is not None:
            err = worst.get((e.n, e.m))
            shown = ("  not covered by the 2D solve" if err is None
                     else f"  rel err 2d = {err:.3e}")
        _say(quiet, f"  n={e.n} m={e.m}  lambda = {e.lam:.9g}  x{e.multiplicity}{shown}")
    if worst is not None:
        _say(quiet, f"max relative error over the {k} eigenvalues below "
                    f"{threshold:.6g} vs the {forms.grid.nx}x{forms.grid.ny} grid: "
                    f"{max(worst.values(), default=0.0):.3e}")
    _say(quiet, f"wrote {path}")
    return EXIT_OK


def cmd_carnot(config: RunConfig, out: Path, quiet: bool = False) -> int:
    n = config.carnot.n
    spec = heisenberg_spec(n)
    q = homogeneous_dimension(spec)
    omegas = unit_ball_volumes(q)
    alpha = hausdorff_constant_heisenberg(n)
    doc = {"n": n, "topological_dimension": 2 * n + 1, "Q": q,
           "omega": {str(a): omegas[a] for a in range(1, q)}, "alpha": alpha}
    _make_out(out)
    _write_json(doc, out / "carnot.json")
    _say(quiet, f"Heisenberg group of dimension {2 * n + 1}")
    _say(quiet, f"  homogeneous dimension Q = {q}")
    for a in range(1, q):
        _say(quiet, f"  omega_{a} = {omegas[a]:.12g}")
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
        # --out at or under a non-directory, or in an unwritable one: refused before any solve
        nearest = next((p for p in (out, *out.parents) if os.path.lexists(p)), out)
        if not os.path.isdir(nearest):
            raise ConfigError(f"--out {out}: {nearest} exists and is not a directory")
        if not os.access(nearest, os.W_OK | os.X_OK):
            raise ConfigError(f"--out {out}: no write and search permission on {nearest}")
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
    except OSError as exc:  # making --out or writing an artifact into it
        print(f"config error: --out {out}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # a solve or a level sweep sized past the memory there is
        print(f"config error: out of memory ({str(exc) or 'MemoryError'}); lower grid.nx, "
              f"grid.ny, solver.k or cheeger.levels", file=sys.stderr)
        return EXIT_CONFIG
    except ConvergenceError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    finally:
        with _closable_stdout():  # the lines still buffered, before the exit code
            sys.stdout.flush()


if __name__ == "__main__":
    raise SystemExit(main())
