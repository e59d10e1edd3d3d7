"""Benchmark provenance: ``run.commit`` names the tree that was measured."""

import shutil
import subprocess

import pytest

from repro.analysis.bench import _git_commit

pytestmark = pytest.mark.skipif(shutil.which("git") is None,
                                reason="needs the git executable")


def _git(cwd, *args):
    return subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@example.com",
         *args], cwd=cwd, check=True, capture_output=True, text=True,
    ).stdout.strip()


def test_commit_stamp_marks_a_dirty_tree(tmp_path, monkeypatch):
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
    repo = tmp_path / "repo"
    repo.mkdir()
    _git(repo, "init", "-q")
    (repo / "a.txt").write_text("one\n")
    _git(repo, "add", "a.txt")
    _git(repo, "commit", "-q", "-m", "first")
    _git(repo, "tag", "v1")
    head = _git(repo, "rev-parse", "--short=7", "HEAD")
    assert _git_commit(repo) == head
    (repo / "untracked.txt").write_text("not part of the tree\n")
    assert _git_commit(repo) == head
    (repo / "a.txt").write_text("two\n")
    assert _git_commit(repo) == f"{head}-dirty"


def test_commit_stamp_outside_a_work_tree(tmp_path, monkeypatch):
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
    plain = tmp_path / "plain"
    plain.mkdir()
    assert _git_commit(plain) == "unknown"
