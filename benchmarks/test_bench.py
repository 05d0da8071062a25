"""Tests of the benchmark's own logic.

    python3 -m pytest benchmarks/test_bench.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from checks import check_job, lambda_table_error, load_reference  # noqa: E402
from jobs import WORKLOADS, workload_jobs, write_configs  # noqa: E402
from run import END_TO_END, PER_LAYER, layer_metrics  # noqa: E402
from spans import Tracer, covered_time, self_times  # noqa: E402


def _span(id_, name, start, end, parent=None, job=0, **attrs):
    return {"id": id_, "name": name, "start": start, "end": end, "parent": parent,
            "job": job, **attrs}


def test_self_time_subtracts_child_coverage():
    spans = [
        _span(0, "job", 0.0, 10.0),
        _span(1, "cli.cmd", 1.0, 9.0, parent=0),
        _span(2, "discretization.assemble", 2.0, 4.0, parent=1, nnz=10),
        _span(3, "eigensolver.solve_smallest", 5.0, 8.0, parent=1, residual_max=1e-13),
        _span(4, "eigensolver.factor", 5.5, 6.5, parent=3, fill=30),
        _span(5, "eigensolver.factor", 6.0, 7.0, parent=3, fill=20),  # overlaps its sibling
    ]
    selfs = self_times(spans)
    assert selfs == pytest.approx({0: 2.0, 1: 3.0, 2: 2.0, 3: 1.5, 4: 1.0, 5: 1.0})
    assert covered_time(spans, {"eigensolver.factor"}, [spans[0]]) == pytest.approx(1.5)
    metrics = layer_metrics(spans)
    assert metrics["cli.cmd.self_s"] == pytest.approx(3.0)
    assert metrics["eigensolver.factorizations"] == 2
    assert metrics["eigensolver.factor_fill"] == 50
    assert metrics["trace.layer_coverage"] == pytest.approx(0.5)


def test_tracer_records_parents_jobs_and_counters():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x * 2,
                        after=lambda span, args, kwargs, result: span.update(n=result))
    outer = tracer.wrap("outer", lambda x: inner(x) + inner(x + 1))
    tracer.job = 7
    assert outer(1) == 6
    names = [(s["name"], s["parent"], s["job"]) for s in tracer.spans]
    assert names == [("outer", None, 7), ("inner", 0, 7), ("inner", 0, 7)]
    assert [s.get("n") for s in tracer.spans] == [None, 2, 4]
    assert all(s["end"] > s["start"] for s in tracer.spans)


def _fake_spectrum_outputs(job, ref, out: Path) -> None:
    out.mkdir()
    lines = ["index,lambda,residual"]
    lines += [f"{i},{lam!r},1e-13" for i, lam in enumerate(ref["lambdas"], 1)]
    (out / "eigenvalues.csv").write_text("\n".join(lines) + "\n")
    (out / "nodal_report.json").write_text(json.dumps({"ok": ref["nodal_ok"]}))
    nx, ny = job.config["grid"]["nx"], job.config["grid"]["ny"]
    for i in range(1, len(ref["lambdas"]) + 1):
        for stem in ("eig", "nodal"):
            (out / f"{stem}_{i}.pgm").write_bytes(
                f"P5\n{nx} {ny}\n255\n".encode() + bytes(nx * ny))


def test_checker_flags_perturbed_eigenvalue_and_wrong_exit_code(tmp_path):
    reference = load_reference()
    job = workload_jobs("small-batch", seed=5)[0]
    ref = reference["jobs"][job.name]
    _fake_spectrum_outputs(job, ref, tmp_path / "good")
    assert check_job(job, tmp_path / "good", 0, reference) == []
    assert 0.0 < lambda_table_error(job, tmp_path / "good", reference) < 0.05

    assert check_job(job, tmp_path / "good", 3, reference) == ["exit code 3, expected 0"]

    perturbed = json.loads(json.dumps(ref))
    perturbed["lambdas"][2] *= 1.0 + 1e-8
    _fake_spectrum_outputs(job, perturbed, tmp_path / "bad")
    problems = check_job(job, tmp_path / "bad", 0, reference)
    assert len(problems) == 1 and problems[0].startswith("lambda_3 =")


def test_checker_flags_missing_artifact(tmp_path):
    reference = load_reference()
    job = workload_jobs("cheeger-custom", seed=0)[0]
    (tmp_path / "out").mkdir()
    assert check_job(job, tmp_path / "out", 0, reference)[0].startswith("missing artifact")


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("seed", [0, 7, 2**32 - 1])
def test_load_config_accepts_every_generated_config(tmp_path, workload, seed):
    from ccspectral.cli import load_config

    jobs = workload_jobs(workload, seed)
    for job, path in zip(jobs, write_configs(jobs, tmp_path)):
        config = load_config(path)
        assert config.solver.seed == seed
        assert job.name in load_reference()["jobs"]


def test_benchmark_json_matches_the_metrics_emitted():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert set(layer_metrics([_span(0, "job", 0.0, 1.0)])) | {
        "import.ccspectral.s", "import.scipy_integrate.s", "import.cli.s",
        "cli.artifact_bytes", "trace.overhead_s"} == set(PER_LAYER)
