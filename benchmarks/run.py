"""Benchmark of the ccspectral CLI: named workloads, checked outputs,
end-to-end metrics and a separate traced pass for per-layer metrics.

Usage (from the repository root):

    python3 benchmarks/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

WORKLOAD is spectrum-large, cheeger-custom, small-batch or all.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it name every metric with
its unit and record the environment.  The exit code is 0 when the run
completed (whether or not every output was correct) and 2 when the program
could not be run at all, e.g. when ``src/ccspectral`` is missing.

--trace 0 measures closed-loop, one-client end-to-end performance: this
process starts ``python -m ccspectral`` as a fresh child per job, one job at
a time, and repeats whole passes of the workload while another pass still
fits in --seconds (always at least one).  Every job's outputs are checked
against reference.json after the pass, outside the timed interval.  setup_s
is the median of at least five children that only ``import ccspectral``:
one before the first pass, one after each pass, the rest at the end.

--trace 1 runs the same jobs twice in one child process each through
``ccspectral.cli.main``: once plain and once with the span wrappers of
spans.py.  Per-layer metrics come from the traced pass; the difference of
the two in-process wall times is reported as the tracing overhead.  Import
times come from ``python -X importtime -c "import ccspectral"``.

Which end-to-end metric each layer metric should move, and where:

  layer           per-layer metrics                  moves
  import          import.*                           setup_s everywhere;
                                                     wall_s most on small-batch
  cli             cli.*                              wall_s, all workloads
  discretization  discretization.*                   wall_s, peak_rss_mb on
                                                     spectrum-large
  eigensolver     factorizations, factor_fill,       wall_s on spectrum-large
                  factor.s                           and cheeger-custom; not
                                                     on small-batch
                  dense.calls, dense.n_max           wall_s on small-batch only
  nodal           nodal.*                            wall_s on spectrum-large;
                                                     not on cheeger-custom
  cheeger         cheeger.*                          wall_s on cheeger-custom;
                                                     not on spectrum-large
  geometry        geometry.*                         wall_s on cheeger-custom
  expressions     expressions.*                      wall_s on cheeger-custom
  grushin         grushin.*                          wall_s on small-batch
  pgm             pgm.*                              wall_s on spectrum-large
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from pathlib import Path

from checks import check_job, lambda_table_error, load_reference, read_json
from jobs import WORKLOADS, Job, workload_jobs, write_configs
from spans import covered_time, self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_runs"

# One BLAS/OpenMP thread in every child: the sparse factorization does not
# use more, and a single thread narrows the run-to-run spread of the dense
# and Lanczos paths on a shared machine.
THREADS = 1
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 80.0
IMPORT_SAMPLES = 3
# Reported for a metric that a workload has no job for (h_upper without a
# cheeger job, lambda_err_table without a Grushin eigenvalue); constant, so
# it can never register as a change.
NOT_APPLICABLE = 1.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "1",
    "lambda_err_table": "1",
    "h_upper": "1",
}

# The spans a spectrum job should spend nearly all of its time in.
SPECTRUM_STAGES = ("discretization.assemble", "eigensolver.solve_smallest",
                   "nodal.nodal_domains", "pgm.write_pgm")

PROBE = """
import json, sys
import numpy, scipy, ccspectral
blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "openblas": blas.get("version"),
                  "ccspectral": ccspectral.__file__}))
"""


class SetupError(RuntimeError):
    """The program under test cannot be imported or started."""


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # children reuse cached bytecode
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(THREADS)
    return env


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text(encoding="utf-8").strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "ccspectral").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def probe_environment(env: dict) -> dict:
    """Import ccspectral once in a child (which also warms the bytecode and
    file caches) and record what the results were measured with."""
    if not (SRC / "ccspectral" / "__init__.py").is_file():
        raise SetupError(f"no ccspectral package under {SRC}")
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env,
                          capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SetupError(f"cannot import ccspectral:\n{proc.stderr}")
    info = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(info.pop("ccspectral")).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"ccspectral was not imported from {SRC}")
    info.update(nproc=os.cpu_count(), threads=int(env["OPENBLAS_NUM_THREADS"]),
                commit=_git_commit(), src_sha256=_src_digest())
    return info


# ---------------------------------------------------------------------------
# children
# ---------------------------------------------------------------------------

def run_child(argv: list[str], env: dict, log_path: Path):
    """Run one child to completion; return (exit code, its resource usage).

    A child still running after CHILD_TIMEOUT_S is killed (and so fails),
    which keeps a hung job from stalling the whole run."""
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=log)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def time_import(env: dict, log_path: Path) -> float:
    start = time.perf_counter()
    code, _ = run_child([sys.executable, "-c", "import ccspectral"], env, log_path)
    elapsed = time.perf_counter() - start
    if code != 0:
        raise SetupError(f"import ccspectral failed: {log_path.read_text()}")
    return elapsed


def import_breakdown(env: dict) -> dict[str, float]:
    """Cumulative import times, median of IMPORT_SAMPLES ``-X importtime`` runs."""
    modules = {"import.ccspectral.s": "ccspectral",
               "import.scipy_integrate.s": "scipy.integrate",
               "import.cli.s": "ccspectral.cli"}
    samples = defaultdict(list)
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ccspectral"],
                              env=env, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            raise SetupError(f"import ccspectral failed:\n{proc.stderr}")
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.removeprefix("import time:").split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
        for metric, module in modules.items():
            samples[metric].append(cumulative.get(module, 0.0))
    return {metric: statistics.median(values) for metric, values in samples.items()}


# ---------------------------------------------------------------------------
# end-to-end pass
# ---------------------------------------------------------------------------

class Outcome:
    """Checked results of one run of every job of a workload."""

    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0
        self.lambda_err: float | None = None
        self.h_upper: float | None = None

    def add(self, job: Job, out_dir: Path, exit_code: int, reference: dict) -> None:
        self.attempted += 1
        problems = check_job(job, out_dir, exit_code, reference)
        if problems:
            self.failed += 1
            self.problems += [f"{job.name}: {p}" for p in problems]
            return
        err = lambda_table_error(job, out_dir, reference)
        if err is not None:
            self.lambda_err = max(err, self.lambda_err or 0.0)
        if job.command == "cheeger":
            h = read_json(out_dir / "inequality_report.json")["h_upper"]
            self.h_upper = max(h, self.h_upper or 0.0)


def run_pass(jobs: list[Job], configs: list[Path], work: Path, env: dict,
             reference: dict) -> tuple[float, float, float, Outcome]:
    """One closed-loop pass; returns (wall s, CPU s of the jobs, largest job
    peak RSS MB, outcome)."""
    work.mkdir(parents=True)
    codes, cpu, rss = [], 0.0, 0.0
    start = time.perf_counter()
    for job, config in zip(jobs, configs):
        code, usage = run_child([sys.executable, "-m", "ccspectral",
                                 *job.argv(config, work / job.name)],
                                env, work / f"{job.name}.log")
        codes.append(code)
        cpu += usage.ru_utime + usage.ru_stime
        rss = max(rss, usage.ru_maxrss / 1024.0)
    wall = time.perf_counter() - start
    outcome = Outcome()
    for job, code in zip(jobs, codes):
        outcome.add(job, work / job.name, code, reference)
    shutil.rmtree(work)
    return wall, cpu, rss, outcome


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def measure_end_to_end(workload: str, seed: int, seconds: float, env: dict,
                       work: Path) -> tuple[dict, int, int, list[str]]:
    jobs = workload_jobs(workload, seed)
    configs = write_configs(jobs, work / "configs")
    reference = load_reference()
    # Import samples are taken between passes, not back to back: import time
    # drifts over seconds, so spread samples give a steadier median.
    import_log = work / "import.log"
    setup = [time_import(env, import_log)]
    walls, cpus, peaks, outcomes = [], [], [], []
    start = time.perf_counter()
    while True:
        wall, cpu, peak, outcome = run_pass(jobs, configs, work / f"pass{len(walls)}",
                                            env, reference)
        walls.append(wall)
        cpus.append(cpu)
        peaks.append(peak)
        outcomes.append(outcome)
        setup.append(time_import(env, import_log))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.mean(walls) > seconds:
            break
    setup += [time_import(env, import_log) for _ in range(SETUP_SAMPLES - len(setup))]

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    errs = [o.lambda_err for o in outcomes if o.lambda_err is not None]
    hs = [o.h_upper for o in outcomes if o.h_upper is not None]
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(peaks),
        "ok_ratio": (attempted - failed) / attempted,
        "lambda_err_table": max(errs) if errs else NOT_APPLICABLE,
        "h_upper": max(hs) if hs else NOT_APPLICABLE,
    }
    q1, q3 = _quartiles(walls)
    s1, s3 = _quartiles(setup)
    notes = {
        "wall_s": f"median of {len(walls)} pass(es) of {len(jobs)} job(s); "
                  f"q1 {q1:.4f}, q3 {q3:.4f}; passes {[round(w, 3) for w in walls]}, "
                  f"job CPU {[round(c, 3) for c in cpus]}",
        "setup_s": f"median of {len(setup)} 'import ccspectral' children around the passes; "
                   f"q1 {s1:.4f}, q3 {s3:.4f}",
        "peak_rss_mb": "largest job peak RSS of a pass, median over passes",
        "ok_ratio": f"fail_ratio = {failed}/{attempted} = {failed / attempted:.4g}",
        "lambda_err_table": "not applicable" if not errs else "worst over passes",
        "h_upper": "not applicable" if not hs else "largest cheeger-job bound",
    }
    lines = [f"{name} = {metrics[name]!r} {unit}   ({notes[name]})"
             for name, unit in END_TO_END.items()]
    problems = [p for o in outcomes for p in o.problems]
    return metrics, attempted, failed, lines + [f"CHECK FAILED {p}" for p in problems]


# ---------------------------------------------------------------------------
# traced pass
# ---------------------------------------------------------------------------

PER_LAYER = {
    "import.ccspectral.s": "s", "import.scipy_integrate.s": "s", "import.cli.s": "s",
    "cli.load_config.s": "s", "cli.cmd.self_s": "s", "cli.artifact_bytes": "bytes",
    "discretization.assemble.s": "s", "discretization.assemble.calls": "count",
    "discretization.nnz": "count",
    "eigensolver.solve_smallest.s": "s", "eigensolver.solve_smallest.calls": "count",
    "eigensolver.factorizations": "count", "eigensolver.factor_fill": "count",
    "eigensolver.factor.s": "s", "eigensolver.dense.calls": "count",
    "eigensolver.dense.n_max": "count", "eigensolver.residual_max": "1",
    "nodal.nodal_domains.s": "s", "nodal.nodal_domains.calls": "count",
    "nodal.check_courant.s": "s", "nodal.label_useful_ratio": "1",
    "cheeger.cut_from_level_set.s": "s", "cheeger.cut_from_level_set.calls": "count",
    "cheeger.dirichlet_cheeger_upper.s": "s",
    "cheeger.horizontal_perimeter.s": "s", "cheeger.horizontal_perimeter.calls": "count",
    "cheeger.region_volume.s": "s", "cheeger.region_volume.calls": "count",
    "cheeger.mfmc_certify.s": "s", "cheeger.level_useful_ratio": "1",
    "geometry.coefficients_at.calls": "count", "geometry.density_at.calls": "count",
    "geometry.points_evaluated": "count", "geometry.eval.s": "s",
    "expressions.eval.calls": "count", "expressions.eval.s": "s",
    "grushin.build_table.s": "s", "grushin.find_eigenvalues.calls": "count",
    "grushin.shoot.calls": "count", "grushin.shoot.s": "s",
    "grushin.cross_validate.s": "s",
    "pgm.write_pgm.s": "s", "pgm.bytes": "bytes",
    "trace.wall_s": "s", "trace.overhead_s": "s", "trace.layer_coverage": "1",
}


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics that come from the spans of one traced pass."""
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
    selfs = self_times(spans)

    def total(*names):
        return sum(s["end"] - s["start"] for n in names for s in by_name[n])

    def calls(name):
        return len(by_name[name])

    def values(name, key):
        return [s[key] for s in by_name[name]]

    def useful(name):
        keys = [s["key"] for s in by_name[name]]
        return len(set(keys)) / len(keys) if keys else 1.0

    job_spans = by_name["job"]
    layer_names = {n for n in by_name if n != "job" and not n.startswith("cli.")}
    return {
        "cli.load_config.s": total("cli.load_config"),
        "cli.cmd.self_s": sum(selfs[s["id"]] for s in by_name["cli.cmd"]),
        "discretization.assemble.s": total("discretization.assemble"),
        "discretization.assemble.calls": calls("discretization.assemble"),
        "discretization.nnz": sum(values("discretization.assemble", "nnz")),
        "eigensolver.solve_smallest.s": total("eigensolver.solve_smallest"),
        "eigensolver.solve_smallest.calls": calls("eigensolver.solve_smallest"),
        "eigensolver.factorizations": calls("eigensolver.factor"),
        "eigensolver.factor_fill": sum(values("eigensolver.factor", "fill")),
        "eigensolver.factor.s": total("eigensolver.factor"),
        "eigensolver.dense.calls": calls("eigensolver.dense"),
        "eigensolver.dense.n_max": max(values("eigensolver.dense", "n"), default=0),
        "eigensolver.residual_max": max(values("eigensolver.solve_smallest", "residual_max"),
                                        default=0),
        "nodal.nodal_domains.s": total("nodal.nodal_domains"),
        "nodal.nodal_domains.calls": calls("nodal.nodal_domains"),
        "nodal.check_courant.s": total("nodal.check_courant"),
        "nodal.label_useful_ratio": useful("nodal.nodal_domains"),
        "cheeger.cut_from_level_set.s": total("cheeger.cut_from_level_set"),
        "cheeger.cut_from_level_set.calls": calls("cheeger.cut_from_level_set"),
        "cheeger.dirichlet_cheeger_upper.s": total("cheeger.dirichlet_cheeger_upper"),
        "cheeger.horizontal_perimeter.s": total("cheeger.horizontal_perimeter"),
        "cheeger.horizontal_perimeter.calls": calls("cheeger.horizontal_perimeter"),
        "cheeger.region_volume.s": total("cheeger.region_volume"),
        "cheeger.region_volume.calls": calls("cheeger.region_volume"),
        "cheeger.mfmc_certify.s": total("cheeger.mfmc_certify"),
        "cheeger.level_useful_ratio": useful("cheeger.level_set"),
        "geometry.coefficients_at.calls": calls("geometry.coefficients_at"),
        "geometry.density_at.calls": calls("geometry.density_at"),
        "geometry.points_evaluated": (sum(values("geometry.coefficients_at", "points"))
                                      + sum(values("geometry.density_at", "points"))),
        "geometry.eval.s": total("geometry.coefficients_at", "geometry.density_at"),
        "expressions.eval.calls": calls("expressions.eval"),
        "expressions.eval.s": total("expressions.eval"),
        "grushin.build_table.s": total("grushin.build_table"),
        "grushin.find_eigenvalues.calls": calls("grushin.find_eigenvalues"),
        "grushin.shoot.calls": calls("grushin.shoot"),
        "grushin.shoot.s": total("grushin.shoot"),
        "grushin.cross_validate.s": total("grushin.cross_validate"),
        "pgm.write_pgm.s": total("pgm.write_pgm"),
        "pgm.bytes": sum(values("pgm.write_pgm", "bytes")),
        "trace.wall_s": total("job"),
        "trace.layer_coverage": covered_time(spans, layer_names, job_spans) / total("job"),
    }


def run_in_process(jobs: list[Job], configs: list[Path], work: Path, env: dict,
                   trace: bool) -> dict:
    work.mkdir(parents=True)
    plan = {"trace": trace,
            "jobs": [{"name": job.name, "argv": job.argv(config, work / job.name)}
                     for job, config in zip(jobs, configs)]}
    plan_path, result_path = work / "plan.json", work / "result.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    code, _ = run_child([sys.executable, str(BENCH / "inproc.py"), str(plan_path),
                         str(result_path)], env, work / "inproc.log")
    if code != 0:
        raise SetupError(f"in-process pass failed:\n{(work / 'inproc.log').read_text()}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def measure_layers(workload: str, seed: int, seconds: float, env: dict,
                   work: Path) -> tuple[dict, int, int, list[str]]:
    jobs = workload_jobs(workload, seed)
    configs = write_configs(jobs, work / "configs")
    reference = load_reference()
    metrics = import_breakdown(env)
    plain = run_in_process(jobs, configs, work / "plain", env, trace=False)
    traced = run_in_process(jobs, configs, work / "traced", env, trace=True)

    outcome = Outcome()
    for run, sub in ((plain, "plain"), (traced, "traced")):
        for job, record in zip(jobs, run["jobs"]):
            outcome.add(job, work / sub / job.name, record["exit_code"], reference)
    spans = traced["spans"]
    metrics.update(layer_metrics(spans))
    metrics["cli.artifact_bytes"] = sum(
        p.stat().st_size for job in jobs for p in (work / "traced" / job.name).iterdir())
    plain_wall = sum(r["wall_s"] for r in plain["jobs"])
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - plain_wall

    job_spans = [s for s in spans if s["name"] == "job"]
    stages = covered_time(spans, SPECTRUM_STAGES, job_spans) / metrics["trace.wall_s"]
    lines = [f"{name} = {metrics[name]!r} {unit}" for name, unit in PER_LAYER.items()]
    lines.append(f"in-process wall: traced {metrics['trace.wall_s']:.4f} s, "
                 f"untraced {plain_wall:.4f} s, overhead {metrics['trace.overhead_s']:+.4f} s")
    lines.append(f"share of traced job time in {', '.join(SPECTRUM_STAGES)} spans: {stages:.4f}")
    lines += [f"CHECK FAILED {p}" for p in outcome.problems]
    return metrics, outcome.attempted, outcome.failed, lines


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    seed = args.seed % 2**32
    env = child_env()
    measure = measure_layers if args.trace else measure_end_to_end

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{seed}-", dir=WORK))
    results = {}
    try:
        info = probe_environment(env)
        print(f"environment: {json.dumps(info, sort_keys=True)}")
        for workload in workloads:
            metrics, attempted, failed, lines = measure(workload, seed, args.seconds,
                                                        env, work / workload)
            print(f"workload {workload}, seed {seed}, trace {args.trace}: "
                  f"{attempted - failed}/{attempted} jobs correct")
            for line in lines:
                print(f"  {line}")
            results[workload] = (metrics, attempted, failed)
    except SetupError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run's files are still there
            pass

    units = PER_LAYER if args.trace else END_TO_END
    prefix = len(workloads) > 1
    out_metrics = {(f"{w}.{name}" if prefix else name): {"value": value, "unit": units[name]}
                   for w, (metrics, _, _) in results.items()
                   for name, value in metrics.items()}
    attempted = sum(r[1] for r in results.values())
    failed = sum(r[2] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
