"""Check that the CLI writes byte-identical files at the working tree and at a git revision.

    python tools/golden_diff.py [--rev REV]

`git archive REV` is extracted into a temporary directory. For the working
tree and for that copy, every pipeline runs on each benchmark config (those of
the working tree, so only the program differs) in a subprocess with
PYTHONPATH=<tree>/src, PYTHONDONTWRITEBYTECODE=1 and BLAS pinned to one thread
(OPENBLAS_NUM_THREADS=1, OMP_NUM_THREADS=1), writing into the same temporary
directory. A split well's eigensolve pins itself to one BLAS thread, but the
one-block FGH path (an asymmetric or undeclared well, or a box off the
minimum) runs at the host's count, and so does every split solve at a base
revision older than that pin; at one thread on both sides their bits match,
and they are those of perfbench, which pins the same. The classical,
wkbj and compare pipelines also run on a copy of each benchmark config that
asks for states 0..63, written into the temporary directory, so that the
quantizer moves many levels in each of its rounds; the fgh and compare
pipelines run on a copy with the explicit box fgh.box = [-20, 25], off the
minimum, so that the CLI's box parse and the one-block FGH path are covered
too. The two output trees are
then compared file by file. For each CSV whose bytes differ, the worst
|new - old| / max|old| of every column both headers share is printed, and
each column one header lacks is named with the side that has it. One line
per set of configs gives its count of byte-identical files. Exit status 0
only when both trees hold the same files with the same bytes; nothing is
written outside the temporary directory. The line totals of
src/semibound/*.py at REV and in the working tree are printed too, so a
refactor can show in one run that src/ shrank and no output moved.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import yaml

REPO = Path(__file__).resolve().parents[1]
CONFIGS = ("benchmark_a", "benchmark_b")
PIPELINES = ("classical", "wkbj", "fgh", "compare")
#: the pipelines that quantize, run once more on each benchmark config at states 0..MANY_STATES
MANY_LEVEL_PIPELINES = ("classical", "wkbj", "compare")
MANY_STATES = 63
#: the pipelines that build an FGH grid, run once more on each benchmark config at EXPLICIT_BOX
BOX_PIPELINES = ("fgh", "compare")
#: an explicit box off the minimum x = 0 of both benchmark wells: one FGH block, not two
EXPLICIT_BOX = [-20, 25]


def _copies(root: Path, name: str, edit) -> list:
    """Each benchmark config as edit(doc) leaves its parsed YAML, written as
    root/name/<config>.yaml."""
    paths = []
    for cfg in CONFIGS:
        doc = yaml.safe_load((REPO / "configs" / f"{cfg}.yaml").read_text(encoding="utf-8"))
        edit(doc)
        path = root / name / f"{cfg}.yaml"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(yaml.safe_dump(doc, sort_keys=False), encoding="utf-8")
        paths.append(path)
    return paths


def config_sets(root: Path) -> dict:
    """set name -> (config paths, pipelines): the benchmark configs, and their copies that
    ask for states 0..MANY_STATES or solve on EXPLICIT_BOX, written under root."""
    return {"benchmark configs": ([REPO / "configs" / f"{cfg}.yaml" for cfg in CONFIGS],
                                  PIPELINES),
            f"states 0..{MANY_STATES}": (
                _copies(root, "many", lambda doc: doc.update(states={"range": [0, MANY_STATES]})),
                MANY_LEVEL_PIPELINES),
            f"fgh.box {EXPLICIT_BOX}": (
                _copies(root, "box", lambda doc: doc["fgh"].update(box=EXPLICIT_BOX)),
                BOX_PIPELINES)}


def run_pipelines(tree: Path, out_root: Path, configs: list, pipelines: tuple) -> None:
    """The pipelines on every config with the package under tree/src, at 1 BLAS thread."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1",
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    out_root.mkdir(parents=True)
    for cfg in configs:
        for pipeline in pipelines:
            subprocess.run(
                [sys.executable, "-m", "semibound.cli", "solve", "--config", str(cfg),
                 "--pipeline", pipeline, "--out", str(out_root / f"{cfg.stem}-{pipeline}")],
                env=env, cwd=out_root, check=True, stdout=subprocess.DEVNULL)


def src_lines(tree: Path) -> int:
    """Line total of tree/src/semibound/*.py, counted as `wc -l` does (newlines)."""
    return sum(p.read_bytes().count(b"\n") for p in (tree / "src" / "semibound").glob("*.py"))


def _cell(text: str) -> float:
    """A CSV cell as a float; `null` (the writer's non-finite sentinel) is NaN."""
    return math.nan if text == "null" else float(text)


def column_deltas(old: Path, new: Path) -> dict:
    """Worst |new - old| / max|old| per column the two CSV headers share, matched by name.

    A column whose finite old values are all 0 is compared absolutely; a cell
    that is null on one side only, or a row count that differs, counts as inf.
    A column in one header only maps to the side that has it, "rev" (old) or
    "tree" (new), in place of a delta.
    """
    with old.open(newline="", encoding="utf-8") as f:
        old_rows = list(csv.reader(f))
    with new.open(newline="", encoding="utf-8") as f:
        new_rows = list(csv.reader(f))
    new_index = {name: j for j, name in enumerate(new_rows[0])}
    deltas = {}
    for i, name in enumerate(old_rows[0]):
        if name not in new_index:
            deltas[name] = "rev"
            continue
        j = new_index[name]
        a = [_cell(row[i]) for row in old_rows[1:]]
        b = [_cell(row[j]) for row in new_rows[1:]]
        if len(a) != len(b):
            deltas[name] = math.inf
            continue
        scale = max((abs(x) for x in a if math.isfinite(x)), default=0.0) or 1.0
        worst = 0.0
        for x, y in zip(a, b):
            if math.isnan(x) and math.isnan(y):
                continue
            d = abs(y - x) if math.isfinite(x) and math.isfinite(y) else math.inf
            worst = max(worst, d / scale)
        deltas[name] = worst
    for name in new_rows[0]:
        deltas.setdefault(name, "tree")
    return deltas


def compare_trees(old: Path, new: Path) -> tuple:
    """(files compared, byte-identical files, one report line per difference)."""
    old_files = {p.relative_to(old) for p in old.rglob("*") if p.is_file()}
    new_files = {p.relative_to(new) for p in new.rglob("*") if p.is_file()}
    lines = [f"only at {side}: {path}" for side, only in (("rev", old_files - new_files),
                                                          ("tree", new_files - old_files))
             for path in sorted(only)]
    common = sorted(old_files & new_files)
    identical = 0
    for path in common:
        if (old / path).read_bytes() == (new / path).read_bytes():
            identical += 1
            continue
        lines.append(f"differs: {path}")
        if path.suffix == ".csv":
            for name, delta in column_deltas(old / path, new / path).items():
                if isinstance(delta, str):
                    lines.append(f"  only at {delta}: {name}")
                elif delta:
                    lines.append(f"  {name}: worst |delta|/max|column| = {delta:.3e}")
    return len(old_files | new_files), identical, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", default="HEAD", help="git revision to compare against")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="golden-diff-") as tmp:
        root = Path(tmp)
        archive = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", args.rev],
                                 check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(root / "rev", filter="data")
        (root / "configs").mkdir()
        lines, totals, same = [], [], True
        for i, (name, (configs, pipelines)) in enumerate(config_sets(root / "configs").items()):
            for side, tree in (("rev", root / "rev"), ("tree", REPO)):
                run_pipelines(tree, root / f"out-{side}" / str(i), configs, pipelines)
            total, identical, diffs = compare_trees(root / "out-rev" / str(i),
                                                    root / "out-tree" / str(i))
            lines += diffs
            totals.append(f"{identical}/{total} files byte-identical to {args.rev} ({name})")
            same &= identical == total
        sizes = (f"src/semibound/*.py: {src_lines(root / 'rev')} lines at {args.rev}, "
                 f"{src_lines(REPO)} in the working tree")
    print("\n".join(lines + [sizes] + totals))
    return 0 if same else 1

if __name__ == "__main__":
    sys.exit(main())
