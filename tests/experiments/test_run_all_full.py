"""CLI coverage: the run_all registry stays in sync with the experiments."""

import pytest

from repro.experiments.run_all import RUNNERS


def test_every_paper_figure_has_a_runner():
    for key in ("fig3", "fig4", "fig5", "fig6", "table1",
                "fig7", "fig8", "fig9", "scalability"):
        assert key in RUNNERS, key


def test_quick_runner_fig6(tmp_path, capsys):
    from repro.experiments.run_all import main

    rc = main(["fig6", "--results-dir", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "fig6.txt").read_text()
    assert "rdma-sync" in text
    assert "pending" in text


def test_quick_runner_fig3(tmp_path, capsys):
    from repro.experiments.run_all import main

    rc = main(["fig3", "--results-dir", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "fig3.txt").read_text()
    assert "socket-sync" in text


# ----------------------------------------------------------------------
# multiprocess fan-out (seeds x experiments -> merged BENCH_run_all)
# ----------------------------------------------------------------------

def test_seed_matrix_fans_out_across_workers(tmp_path, monkeypatch, capsys):
    """(experiment x seed) jobs run in worker processes and merge.

    The stub runner records the process-wide default master seed it ran
    under, proving each worker applied its job's seed before running.
    On Linux the pool forks, so the monkeypatched registry is inherited.
    """
    import json

    from repro.experiments import run_all

    def stub(full):
        from repro.config import SimConfig

        return f"stub-output seed={SimConfig().master_seed} full={full}"

    monkeypatch.setitem(run_all.RUNNERS, "stub", stub)
    rc = run_all.main(["stub", "--jobs", "2", "--seeds", "7,8",
                       "--results-dir", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "stub__seed7.txt").read_text().startswith(
        "stub-output seed=7")
    assert (tmp_path / "stub__seed8.txt").read_text().startswith(
        "stub-output seed=8")
    doc = json.loads((tmp_path / "BENCH_run_all.json").read_text())
    assert doc["schema_version"] == 2
    assert doc["experiment"] == "run_all"
    assert doc["workers"] == 2
    assert doc["jobs_total"] == 2 and doc["jobs_failed"] == 0
    assert [j["artifact"] for j in doc["jobs"]] == [
        "stub__seed7", "stub__seed8"]
    assert all(j["ok"] and "text" not in j for j in doc["jobs"])
    assert "run" in doc and "commit" in doc["run"]


def test_in_process_default_keeps_historical_artifacts(tmp_path, monkeypatch, capsys):
    """--jobs 1 without --seeds: historical file names, BENCH still merged."""
    import json

    from repro.experiments import run_all

    monkeypatch.setitem(run_all.RUNNERS, "stub", lambda full: "plain run")
    rc = run_all.main(["stub", "--results-dir", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "stub.txt").read_text() == "plain run\n"
    doc = json.loads((tmp_path / "BENCH_run_all.json").read_text())
    assert [ (j["experiment"], j["seed"]) for j in doc["jobs"] ] == [("stub", None)]


def test_failed_job_is_recorded_not_fatal(tmp_path, monkeypatch, capsys):
    """A raising experiment fails its job record and the exit code only."""
    import json

    from repro.experiments import run_all

    def boom(full):
        raise RuntimeError("kaboom")

    monkeypatch.setitem(run_all.RUNNERS, "stub", lambda full: "fine")
    monkeypatch.setitem(run_all.RUNNERS, "broken", boom)
    rc = run_all.main(["stub", "broken", "--jobs", "2",
                       "--results-dir", str(tmp_path)])
    assert rc == 1
    assert (tmp_path / "stub.txt").exists()
    assert not (tmp_path / "broken.txt").exists()
    doc = json.loads((tmp_path / "BENCH_run_all.json").read_text())
    assert doc["jobs_failed"] == 1
    failed = [j for j in doc["jobs"] if not j["ok"]]
    assert failed[0]["experiment"] == "broken"
    assert "kaboom" in failed[0]["error"]


def test_seed_override_restores(monkeypatch):
    """set_default_master_seed returns the previous default for restore."""
    from repro.config import SimConfig, set_default_master_seed

    historical = SimConfig().master_seed
    prev = set_default_master_seed(1234)
    try:
        assert prev == historical
        assert SimConfig().master_seed == 1234
        # Explicit arguments always win over the process default.
        assert SimConfig(master_seed=9).master_seed == 9
    finally:
        set_default_master_seed(prev)
    assert SimConfig().master_seed == historical


def test_subset_runs_merge_into_one_bench_file(tmp_path, monkeypatch, capsys):
    """A subset run keeps the records of artifacts it did not produce and
    replaces the ones it did; each record says whether it ran full."""
    import json

    from repro.experiments import run_all

    def boom(full):
        raise RuntimeError("kaboom")

    def jobs():
        doc = json.loads((tmp_path / "BENCH_run_all.json").read_text())
        return doc, {j["artifact"]: j for j in doc["jobs"]}

    monkeypatch.setitem(run_all.RUNNERS, "a", lambda full: "a ran")
    monkeypatch.setitem(run_all.RUNNERS, "b", lambda full: "b ran")
    assert run_all.main(["a", "--results-dir", str(tmp_path)]) == 0
    assert run_all.main(["b", "--full", "--results-dir", str(tmp_path)]) == 0
    doc, by_artifact = jobs()
    assert [j["artifact"] for j in doc["jobs"]] == ["a", "b"]
    assert by_artifact["a"]["full"] is False and by_artifact["b"]["full"] is True
    assert doc["jobs_total"] == 2 and doc["jobs_failed"] == 0

    monkeypatch.setitem(run_all.RUNNERS, "a", boom)
    assert run_all.main(["a", "--results-dir", str(tmp_path)]) == 1
    doc, by_artifact = jobs()
    assert [j["artifact"] for j in doc["jobs"]] == ["a", "b"]
    assert not by_artifact["a"]["ok"] and "kaboom" in by_artifact["a"]["error"]
    assert by_artifact["b"]["ok"]
    assert doc["jobs_total"] == 2 and doc["jobs_failed"] == 1
