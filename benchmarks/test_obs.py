"""Benchmark: the observability surface is deterministic and complete.

Runs :mod:`repro.experiments.obs_surface` (full RUBiS stack per seed,
rendered twice from fresh simulations) and gates the serving layer's
headline properties:

* same seed → **byte-identical** OpenMetrics exposition and job-report
  JSON across independent runs;
* the exposition passes the in-tree promtool-style validator with zero
  problems at every seed;
* the RUBiS job report joins trace critical paths with telemetry
  quantiles: every query class carries response-time quantiles AND a
  per-segment critical-path breakdown with a dominant segment.

Emits ``results/BENCH_obs.json`` plus the job-report artifact pair
(``results/job_report_rubis.json`` / ``.txt``) that the ``obs`` row of
the CI ``planes`` job uploads.
"""

import json

from conftest import run_once, write_bench

from repro.analysis.report import format_series
from repro.experiments import obs_surface
from repro.sim.units import SECOND

SEEDS = (1, 2, 3)


def test_obs_surface(benchmark, record, results_dir):
    result = run_once(benchmark,
                      lambda: obs_surface.run(seeds=SEEDS,
                                              duration=2 * SECOND))
    record("obs_surface", format_series(
        "seed", result.xs, result.series,
        title="Observability — exposition determinism and coverage",
    ) + "\n\n" + result.notes)

    write_bench(results_dir, result.name, name="obs", payload={
        "params": result.params,
        "seeds": result.xs,
        "series": result.series,
        "families": result.tables[f"families:{SEEDS[0]}"],
    })

    # Byte-identity and validity at every seed — the hard gate.
    for seed, det, rep_det, errors in zip(
            result.xs, result.series["deterministic"],
            result.series["report_deterministic"],
            result.series["validator_errors"]):
        assert det == 1.0, f"seed {seed}: exposition not byte-identical"
        assert rep_det == 1.0, f"seed {seed}: job report not byte-identical"
        assert errors == 0, (seed, result.tables.get(f"errors:{seed}"))

    # The exposition actually covers the deployed planes.
    families = result.tables[f"families:{SEEDS[0]}"]
    for subsystem in ("backend", "requests", "monitor", "traces",
                      "heartbeat", "alerts", "sim"):
        assert subsystem in families, (subsystem, families)


def test_job_report_artifact(benchmark, record, results_dir):
    """Gate the RUBiS job report and archive it for the CI artifact."""
    from repro.obs.jobreport import JOB_REPORT_SCHEMA_VERSION

    def probe():
        text, report_json = obs_surface.run_one(seed=SEEDS[0],
                                                duration=2 * SECOND)
        return json.loads(report_json), report_json

    payload, report_json = run_once(benchmark, probe)

    (results_dir / "job_report_rubis.json").write_text(report_json + "\n")

    assert payload["schema_version"] == JOB_REPORT_SCHEMA_VERSION
    assert payload["job"] == "rubis"
    assert payload["requests"]["completed"] > 0
    classes = payload["classes"]
    assert len(classes) >= 6  # the RUBiS mix exercises most classes

    for name, block in classes.items():
        rt = block["response_ms"]
        assert 0 < rt["p50"] <= rt["p95"] <= rt["p99"], name
        cp = block["critical_path"]
        # tracing at sample=1.0: every class joins with its traces
        assert cp["traces"] > 0, name
        assert cp["segments"], name
        assert cp["dominant"] in cp["segments"], name

    for block in payload["backends"].values():
        assert "cpu_util" in block and "staleness_ms" in block

    # Archive the rendered form next to the JSON.
    from repro.obs.jobreport import JobReport

    record("job_report_rubis", JobReport(payload).render())
