"""Run a list of CLI jobs in one process through ``ccspectral.cli.main``.

Usage: python inproc.py PLAN.json RESULT.json

PLAN.json holds ``{"trace": bool, "jobs": [{"name": ..., "argv": [...]},
...]}``; ccspectral is imported from ``PYTHONPATH``.  With ``trace`` the
layer wrappers of ``spans.instrument`` are installed before the first job.
RESULT.json gets each job's exit code and in-process wall time, and the
spans, written once after the last job.
"""

from __future__ import annotations

import json
import sys
import time
import traceback


def main(plan_path: str, result_path: str) -> int:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    import ccspectral.cli as cli
    from spans import Tracer, instrument

    tracer = Tracer()
    if plan["trace"]:
        instrument(tracer)
    jobs = []
    for job_id, job in enumerate(plan["jobs"]):
        tracer.job = job_id
        start = time.perf_counter()
        with tracer.span("job"):
            try:
                code = cli.main(job["argv"])
            except Exception:  # a crash is a failed job, reported by exit code
                traceback.print_exc()
                code = 1
        jobs.append({"name": job["name"], "exit_code": code,
                     "wall_s": time.perf_counter() - start})
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"jobs": jobs, "spans": tracer.spans if plan["trace"] else []}, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(*sys.argv[1:]))
