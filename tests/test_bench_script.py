"""scripts/bench.py's pairing of parent and change runs (no benchmark is run)."""

import contextlib
import importlib.util
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_script", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(workload, work, p50, correct=True, trace=0):
    metrics = {"work_per_s": {"value": work}, "op_p50_s": {"value": p50}}
    return {"workload": workload, "trace": trace, "result": {"correct": correct, "metrics": metrics}}


def test_pair_stats_ratios_and_wins(bench):
    parent = [_run("pointwise", 10.0, 0.2), _run("pointwise", 10.0, 0.2),
              _run("pointwise", 10.0, 0.2), _run("pointwise", 10.0, 0.2)]
    change = [_run("pointwise", 12.5, 0.1), _run("pointwise", 10.0, 0.25),
              _run("pointwise", 9.0, 0.2, correct=False), _run("pointwise", 11.0, 0.3),
              _run("pointwise", 99.0, 0.01, trace=1)]  # the traced run pairs with nothing
    stats = bench.pair_stats(parent, change)["pointwise"]
    work, p50 = stats["work_per_s"], stats["op_p50_s"]
    assert work["pairs"] == 4 and p50["pairs"] == 4
    assert work["ratios"] == [1.25, 1.0, None, 1.1]
    assert work["change_better"] == 2  # higher is better; the tie counts for neither side
    assert p50["ratios"] == [0.5, 1.25, None, pytest.approx(1.5)]
    assert p50["change_better"] == 1  # lower is better
    assert stats["pass_ratio"]["ratios"] == [None] * 4  # a metric the runs lack


def test_tree_state_counts_src_lines(bench, tmp_path):
    package = tmp_path / "src" / "spikesep"
    (package / "kernels").mkdir(parents=True)
    (package / "__init__.py").write_text("a = 1\nb = 2\n")
    (package / "kernels" / "twopole.py").write_text("x = 1\n\ny = 2\nz = 3\n")
    (package / "kernels" / "notes.txt").write_text("not counted\n")
    (tmp_path / "src" / "other.py").write_text("not counted\n")
    state = bench.tree_state(tmp_path)
    assert state["src_lines"] == 6


def test_tree_state_dirty_covers_src_and_perfbench(bench, tmp_path):
    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args],
                       cwd=tmp_path, check=True, capture_output=True)

    (tmp_path / "src" / "spikesep").mkdir(parents=True)
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "src" / "spikesep" / "a.py").write_text("a = 1\n")
    (tmp_path / "perfbench" / "run.py").write_text("b = 1\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    assert bench.tree_state(tmp_path)["dirty"] is False
    (tmp_path / "notes.md").write_text("outside the measured trees\n")
    assert bench.tree_state(tmp_path)["dirty"] is False
    for path in (tmp_path / "perfbench" / "run.py", tmp_path / "src" / "spikesep" / "a.py"):
        original = path.read_text()
        path.write_text(original + "c = 2\n")
        assert bench.tree_state(tmp_path)["dirty"] is True, path.name
        path.write_text(original)
        assert bench.tree_state(tmp_path)["dirty"] is False


def test_checkout_clones_a_revision_and_removes_it(bench, tmp_path):
    def git(*args):
        return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args],
                              cwd=tmp_path, check=True, capture_output=True, text=True).stdout

    (tmp_path / "src" / "spikesep").mkdir(parents=True)
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text("b = 1\n")
    (tmp_path / "src" / "spikesep" / "a.py").write_text("a = 1\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "first")
    first = git("rev-parse", "HEAD").strip()
    (tmp_path / "src" / "spikesep" / "a.py").write_text("a = 1\nb = 2\n")
    git("commit", "-q", "-am", "second")
    (tmp_path / "src" / "spikesep" / "a.py").write_text("uncommitted = 1\n")  # never measured
    with contextlib.ExitStack() as clones:
        assert bench.checkout(str(tmp_path), tmp_path, clones) == tmp_path.resolve()
        parent = bench.checkout("HEAD~1", tmp_path, clones)
        change = bench.checkout("HEAD", tmp_path, clones)
        assert bench.tree_state(parent) == {"commit": first, "dirty": False, "src_lines": 1}
        assert bench.tree_state(change)["src_lines"] == 2
        assert bench.tree_state(change)["dirty"] is False
        with pytest.raises(ValueError, match="neither a directory nor a git revision"):
            bench.checkout("no-such-revision", tmp_path, clones)
    assert not parent.exists() and not change.exists()
