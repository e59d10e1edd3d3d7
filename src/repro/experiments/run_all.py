"""Regenerate every table and figure from the command line.

Usage::

    python -m repro.experiments.run_all             # quick versions
    python -m repro.experiments.run_all --full      # benchmark-scale
    python -m repro.experiments.run_all fig3 fig6   # a subset
    python -m repro.experiments.run_all --jobs 4 --seeds 1,2,3

Prints each result in the paper's shape and writes it under results/.

With ``--jobs N`` the (experiment × seed) matrix fans out across a
process pool: each worker applies its job's seed as the process-wide
default master seed (:func:`repro.config.set_default_master_seed`) and
runs the experiment in isolation — simulations are single-threaded, so
cores multiply throughput with zero determinism risk (same (experiment,
seed) job → same output regardless of scheduling). The run always
finishes by merging every job's outcome into
``results/BENCH_run_all.json`` (schema v2, one record per job): a
subset run replaces the records of the artifacts it produced and keeps
every other record already in the file.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import pathlib
import sys
import time
from typing import Optional

from repro.analysis.report import format_series, format_table
from repro.experiments import (
    congestion_incast,
    elastic_replay,
    federation_scale,
    fig3_latency,
    obs_surface,
    perf_core,
    fig4_granularity,
    fig5_accuracy,
    fig6_interrupts,
    fig7_zipf,
    fig8_ganglia,
    fig9_finegrained,
    scalability,
    table1_rubis,
    tenant_matrix,
)
from repro.monitoring.registry import SCHEME_NAMES
from repro.sim.units import MILLISECOND, SECOND
from repro.workloads.rubis import RUBIS_QUERIES


def _render_table1(result) -> str:
    headers = ["Query"] + [f"{s} avg" for s in SCHEME_NAMES] + [f"{s} max" for s in SCHEME_NAMES]
    rows = []
    for q in RUBIS_QUERIES:
        row = [q.name]
        row += [f"{result.tables[s][q.name]['avg_ms']:.1f}" for s in SCHEME_NAMES]
        row += [f"{result.tables[s][q.name]['max_ms']:.0f}" for s in SCHEME_NAMES]
        rows.append(row)
    rows.append(["TOTAL(rps)"] + [
        f"{result.tables[s]['__all__']['throughput_rps']:.0f}" for s in SCHEME_NAMES
    ] + [""] * len(SCHEME_NAMES))
    return format_table(headers, rows, title="Table 1 — RUBiS response times (ms)")


def _render_series(result, x_label: str, title: str) -> str:
    return format_series(x_label, result.xs, result.series, title=title)


RUNNERS = {
    "fig3": lambda full: _render_series(
        fig3_latency.run(duration=(3 if full else 1) * SECOND),
        "bg_threads", "Figure 3 — monitoring latency (µs)"),
    "fig4": lambda full: _render_series(
        fig4_granularity.run(app_compute=(400 if full else 150) * MILLISECOND),
        "granularity_ms", "Figure 4 — normalised application delay"),
    "fig5": lambda full: _render_series(
        fig5_accuracy.run(window=(2 if full else 1) * SECOND),
        "load_level", "Figure 5 — deviation of reported load"),
    "fig6": lambda full: _render_series(
        fig6_interrupts.run(duration=(5 if full else 3) * SECOND),
        "scheme", "Figure 6 — pending interrupts per CPU"),
    "table1": lambda full: _render_table1(
        table1_rubis.run(duration=(10 if full else 5) * SECOND)),
    "fig7": lambda full: _render_series(
        fig7_zipf.run(duration=(8 if full else 5) * SECOND,
                      alphas=(0.25, 0.5, 0.75, 0.9) if full else (0.25, 0.9)),
        "alpha", "Figure 7 — RUBiS + Zipf throughput"),
    "fig8": lambda full: _render_series(
        fig8_ganglia.run(duration=(6 if full else 4) * SECOND,
                         granularities_ms=(1, 4, 16, 64) if full else (1, 16)),
        "granularity_ms", "Figure 8 — max RUBiS response with gmetric (ms)"),
    "fig9": lambda full: _render_series(
        fig9_finegrained.run(duration=(8 if full else 5) * SECOND,
                             granularities_ms=(64, 256, 1024, 4096) if full else (64, 1024)),
        "granularity_ms", "Figure 9 — throughput vs granularity (rps)"),
    "scalability": lambda full: _render_series(
        scalability.run(sizes=scalability.DEFAULT_SIZES if full else (2, 8),
                        duration=(3 if full else 2) * SECOND),
        "backends", "Scalability — monitoring fabric vs cluster size"),
    "federation": lambda full: _render_series(
        federation_scale.run(
            sizes=federation_scale.DEFAULT_SIZES if full else (8, 32),
            duration=(250 if full else 120) * MILLISECOND),
        "backends", "Federation — flat vs two-level monitoring fabric"),
    "congestion": lambda full: (lambda r: _render_series(
        r, "backends", "Incast — root-view freshness per congestion arm")
        + "\n" + r.notes)(
        congestion_incast.run(
            sizes=congestion_incast.DEFAULT_SIZES if full else (4, 8),
            duration=(50 if full else 30) * MILLISECOND)),
    "perf_core": lambda full: (lambda r: _render_series(
        r, "backends", "Simulator wall-clock (current core)") + "\n" + r.notes)(
        perf_core.run(sizes=perf_core.DEFAULT_SIZES if full else (64, 128))),
    "tenant_matrix": lambda full: (lambda r: _render_series(
        r, "attack", "Tenancy — monitoring staleness under noisy neighbors")
        + "\n" + r.notes)(
        tenant_matrix.run(
            schemes=None if full else ("rdma-sync", "socket-sync"),
            duration=(240 if full else 120) * MILLISECOND)),
    "replay": lambda full: (lambda r: _render_series(
        r, "view", "Elastic replay — flash-crowd reaction per monitoring view")
        + "\n" + r.notes)(
        elastic_replay.run(duration=(4 if full else 3) * SECOND)),
    "obs": lambda full: (lambda r: _render_series(
        r, "seed", "Observability — exposition determinism and coverage")
        + "\n" + r.notes)(
        obs_surface.run(seeds=(1, 2, 3) if full else (1,),
                        duration=(2 if full else 1) * SECOND)),
}


def _artifact_name(name: str, seed: Optional[int]) -> str:
    """results/ stem for one job; default-seed jobs keep historical names."""
    return name if seed is None else f"{name}__seed{seed}"


def _run_job(name: str, full: bool, seed: Optional[int]) -> dict:
    """One (experiment, seed) job — module-level so worker processes can
    resolve it by reference (no lambda pickling).

    Applies the job's seed as the process-wide default master seed
    before running; every ``SimConfig()`` the experiment builds without
    an explicit ``master_seed=`` then uses it. Exceptions are captured
    into the job record rather than poisoning the pool.
    """
    if seed is not None:
        from repro.config import set_default_master_seed

        set_default_master_seed(seed)
    started = time.time()
    try:
        text = RUNNERS[name](full)
        ok, error = True, ""
    except Exception as exc:  # noqa: BLE001 — job record carries the failure
        text, ok, error = "", False, f"{type(exc).__name__}: {exc}"
    return {
        "experiment": name,
        "seed": seed,
        "artifact": _artifact_name(name, seed),
        "full": full,
        "ok": ok,
        "error": error,
        "wall_s": round(time.time() - started, 3),
        "text": text,
    }


def _merge_bench(out_dir: pathlib.Path, jobs: list, workers: int,
                 full: bool, wall_s: float) -> pathlib.Path:
    """Fold this run's job records into the schema-v2 BENCH_run_all baseline.

    Records already in the file (same schema version) survive unless
    this run produced their artifact again. Each record carries its own
    ``full`` flag, so a quick record never passes for a full one; the
    top-level ``workers`` / ``full`` / ``wall_s`` describe this run.
    """
    from repro.analysis.bench import BENCH_SCHEMA_VERSION, write_bench

    records = [{k: v for k, v in job.items() if k != "text"} for job in jobs]
    produced = {r["artifact"] for r in records}
    try:
        old = json.loads((out_dir / "BENCH_run_all.json").read_text())
    except (OSError, ValueError):
        old = {}
    if old.get("schema_version") == BENCH_SCHEMA_VERSION:
        for record in old.get("jobs", []):
            if record["artifact"] not in produced:
                record.setdefault("full", old.get("full", False))
                records.append(record)
    # Stable artifact order regardless of completion order.
    records.sort(key=lambda r: (str(r["seed"]), r["experiment"]))
    return write_bench(out_dir, "run_all", {
        "workers": workers,
        "full": full,
        "wall_s": round(wall_s, 3),
        "jobs_total": len(records),
        "jobs_failed": sum(1 for r in records if not r["ok"]),
        "jobs": records,
    })


def _parse_seeds(text: str) -> list:
    try:
        return [int(s) for s in text.split(",") if s.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"seeds must be comma-separated integers, got {text!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("experiments", nargs="*", default=[],
                        help=f"subset of {sorted(RUNNERS)} (default: all)")
    parser.add_argument("--full", action="store_true",
                        help="benchmark-scale parameters (slower)")
    parser.add_argument("--results-dir", default="results")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes (default 1 = in-process; "
                             "0 = one per CPU core)")
    parser.add_argument("--seeds", type=_parse_seeds, default=None,
                        metavar="S1,S2,...",
                        help="run every experiment once per seed "
                             "(default: one pass at the built-in seed)")
    args = parser.parse_args(argv)

    chosen = args.experiments or list(RUNNERS)
    unknown = [name for name in chosen if name not in RUNNERS]
    if unknown:
        parser.error(f"unknown experiment(s): {unknown}; choose from {sorted(RUNNERS)}")
    workers = args.jobs if args.jobs > 0 else (os.cpu_count() or 1)
    seeds = args.seeds if args.seeds else [None]

    out_dir = pathlib.Path(args.results_dir)
    out_dir.mkdir(exist_ok=True)
    matrix = [(name, seed) for seed in seeds for name in chosen]
    started = time.time()
    done: list = []
    if workers <= 1:
        for name, seed in matrix:
            done.append(_run_job(name, args.full, seed))
            _report(done[-1], out_dir)
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {pool.submit(_run_job, name, args.full, seed): (name, seed)
                       for name, seed in matrix}
            for future in concurrent.futures.as_completed(futures):
                done.append(future.result())
                _report(done[-1], out_dir)
    bench = _merge_bench(out_dir, done, workers, args.full,
                         time.time() - started)
    failed = [j for j in done if not j["ok"]]
    print(f"\n{len(done)} job(s), {len(failed)} failed; merged -> {bench}")
    for job in failed:
        print(f"  FAILED {job['artifact']}: {job['error']}")
    return 1 if failed else 0


def _report(job: dict, out_dir: pathlib.Path) -> None:
    tag = f"{job['experiment']}" + (
        f" seed={job['seed']}" if job["seed"] is not None else "")
    if not job["ok"]:
        print(f"\n=== {tag} FAILED ({job['wall_s']:.0f}s wall): {job['error']}")
        return
    print(f"\n=== {tag} ({job['wall_s']:.0f}s wall) " + "=" * 40)
    print(job["text"])
    (out_dir / f"{job['artifact']}.txt").write_text(job["text"] + "\n")


if __name__ == "__main__":
    sys.exit(main())
