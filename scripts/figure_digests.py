#!/usr/bin/env python3
"""Render the seven figure presets and check them against their recorded digests.

    python3 scripts/figure_digests.py                    # render, compare with the record
    python3 scripts/figure_digests.py --against HEAD~1   # and how far each moved CSV curve moved
    python3 scripts/figure_digests.py --record           # rewrite the record from this tree

The presets are rendered by `render`, which
tests/test_harness.py::test_all_figure_presets_emit_csv_and_svg calls too
(fig1 at 3000 trials, the rest at their full settings), so the two render
the same files.  Each file's sha256 is compared with
tests/data/figure_digests.json.  --against takes a directory or a git
revision of this repository (a revision is cloned into a temporary
directory by scripts/bench.py's `checkout` and removed afterwards) and
renders the presets from that tree's src/ too; for each CSV file that
differs it prints, per curve, max |new - old| / max |old|.  --record
rewrites the JSON from this tree's files, with the numpy and scipy
versions.  The exit status is 1 when a file differs from the record (and
--record is not given), else 0.
"""

import argparse
import contextlib
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
RECORD = REPO / "tests" / "data" / "figure_digests.json"
PRESETS = ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7")


def render(outdir) -> dict:
    """run_figure's result for each preset, written to outdir: fig1 with 3000
    trials, the rest at their full settings."""
    from spikesep.harness.figures import run_figure

    return {name: run_figure(name, outdir, **({"trials": 3000} if name == "fig1" else {}))
            for name in PRESETS}


def digests(outdir: Path) -> dict:
    """sha256 of every file in outdir, by name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(outdir.iterdir()) if p.is_file()}


def read_curves(path) -> dict:
    """A figure CSV's value columns by header name (its `#` lines skipped)."""
    lines = [line for line in Path(path).read_text().splitlines() if line and line[0] != "#"]
    names = lines[0].split(",")[1:]
    values = np.array([[float(v) for v in line.split(",")[1:]] for line in lines[1:]])
    return {name: values[:, i] for i, name in enumerate(names)}


def curve_deltas(old_path, new_path) -> dict:
    """max |new - old| / max |old| of each curve the two CSVs share (inf where
    the old curve is all zero and the new one is not, or the lengths differ)."""
    old, new = read_curves(old_path), read_curves(new_path)
    out = {}
    for name in old.keys() & new.keys():
        a, b = old[name], new[name]
        if a.shape != b.shape:
            out[name] = float("inf")
            continue
        delta, scale = float(np.max(np.abs(b - a), initial=0.0)), float(np.max(np.abs(a), initial=0.0))
        out[name] = delta / scale if scale else (0.0 if delta == 0 else float("inf"))
    return dict(sorted(out.items()))


def render_tree(src: Path, outdir: Path) -> None:
    """Render the presets into outdir with the package under src, in a child process."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import figure_digests as f; f.render(sys.argv[2])"
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-c", code, str(Path(__file__).resolve().parent), str(outdir)],
                   env=env, cwd=src.parent, check=True)


def _bench_checkout():
    spec = importlib.util.spec_from_file_location("bench_script", REPO / "scripts" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.checkout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", help="directory or git revision to render and compare with")
    parser.add_argument("--record", action="store_true", help="rewrite " + str(RECORD.relative_to(REPO)))
    args = parser.parse_args(argv)
    with contextlib.ExitStack() as stack:
        here = Path(stack.enter_context(tempfile.TemporaryDirectory(prefix="figures-")))
        render_tree(REPO / "src", here)
        got = digests(here)
        if args.against:
            try:
                other = _bench_checkout()(args.against, REPO, stack)
            except ValueError as err:
                parser.error(str(err))
            there = Path(stack.enter_context(tempfile.TemporaryDirectory(prefix="figures-")))
            render_tree(other / "src", there)
            theirs = digests(there)
            for name in sorted(got.keys() | theirs.keys()):
                if got.get(name) == theirs.get(name):
                    continue
                if name not in got or name not in theirs:
                    print(f"{name}: only in {'this tree' if name in got else args.against}")
                elif name.endswith(".csv"):
                    for curve, ratio in curve_deltas(there / name, here / name).items():
                        print(f"{name} {curve}: max |delta|/max {ratio:.3g}")
                else:
                    print(f"{name}: differs")
        if args.record:
            import scipy

            record = {"numpy": np.__version__, "scipy": scipy.__version__, "sha256": got}
            RECORD.write_text(json.dumps(record, indent=2) + "\n")
            print(f"wrote {RECORD.relative_to(REPO)}")
            return 0
        recorded = json.loads(RECORD.read_text())["sha256"]
        moved = sorted(name for name in got.keys() | recorded.keys()
                       if got.get(name) != recorded.get(name))
        for name in moved:
            print(f"{name}: differs from the record")
        matched = sum(got.get(name) == digest for name, digest in recorded.items())
        print(f"{matched} of {len(recorded)} recorded files match")
        return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
