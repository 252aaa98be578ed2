"""The column comparison and the src line counter of tools/golden_diff.py, on tiny trees
(no git, no CLI)."""

import importlib.util
import math
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "golden_diff.py"
_spec = importlib.util.spec_from_file_location("golden_diff", TOOL)
golden_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_diff)


def _tree(root: Path, files: dict) -> Path:
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return root


def test_identical_trees(tmp_path):
    files = {"a/summary.csv": "n,e\n0,1.5\n", "a/report.json": "{}\n"}
    old, new = _tree(tmp_path / "old", files), _tree(tmp_path / "new", files)
    assert golden_diff.compare_trees(old, new) == (2, 2, [])


def test_worst_column_delta_relative_to_column_maximum(tmp_path):
    old = _tree(tmp_path / "old", {"d.csv": "x,rho,z\n0,2,0\n1,4,0\n2,null,0\n"})
    new = _tree(tmp_path / "new", {"d.csv": "x,rho,z\n0,2.5,0\n1,4,1e-3\n2,null,0\n"})
    deltas = golden_diff.column_deltas(old / "d.csv", new / "d.csv")
    assert deltas == {"x": 0.0, "rho": 0.5 / 4, "z": 1e-3}
    total, identical, lines = golden_diff.compare_trees(old, new)
    assert (total, identical) == (1, 0)
    assert lines == ["differs: d.csv",
                     "  rho: worst |delta|/max|column| = 1.250e-01",
                     "  z: worst |delta|/max|column| = 1.000e-03"]


def test_null_on_one_side_and_missing_files(tmp_path):
    old = _tree(tmp_path / "old", {"d.csv": "x,rho\n0,null\n", "only_old.csv": "x\n"})
    new = _tree(tmp_path / "new", {"d.csv": "x,rho\n0,1\n", "only_new.csv": "x\n"})
    assert golden_diff.column_deltas(old / "d.csv", new / "d.csv")["rho"] == math.inf
    total, identical, lines = golden_diff.compare_trees(old, new)
    assert (total, identical) == (3, 0)
    assert lines[:2] == ["only at rev: only_old.csv", "only at tree: only_new.csv"]
    assert "differs: d.csv" in lines


def test_header_change_is_reported(tmp_path):
    old = _tree(tmp_path / "old", {"d.csv": "x,rho_cl\n0,1\n"})
    new = _tree(tmp_path / "new", {"d.csv": "x,rho_fgh\n0,1\n"})
    assert golden_diff.column_deltas(old / "d.csv", new / "d.csv") == {
        "x": 0.0, "rho_cl": "rev", "rho_fgh": "tree"}
    assert golden_diff.compare_trees(old, new) == (1, 0, [
        "differs: d.csv", "  only at rev: rho_cl", "  only at tree: rho_fgh"])


def test_removed_column_leaves_shared_columns_compared_by_name(tmp_path):
    old = _tree(tmp_path / "old", {"d.csv": "x,rho,rho_avg\n0,2,3\n1,null,4\n"})
    new = _tree(tmp_path / "new", {"d.csv": "x,rho\n0,2\n1,null\n",
                                   "e.csv": "rho,x\n2,0\n5,1\n"})
    _tree(tmp_path / "old", {"e.csv": "x,rho\n0,2\n1,4\n"})
    assert golden_diff.column_deltas(old / "d.csv", new / "d.csv") == {
        "x": 0.0, "rho": 0.0, "rho_avg": "rev"}
    assert golden_diff.column_deltas(old / "e.csv", new / "e.csv") == {"x": 0.0, "rho": 0.25}
    total, identical, lines = golden_diff.compare_trees(old, new)
    assert (total, identical) == (2, 0)
    assert lines == ["differs: d.csv", "  only at rev: rho_avg",
                     "differs: e.csv", "  rho: worst |delta|/max|column| = 2.500e-01"]


def test_src_lines_counts_package_modules_like_wc(tmp_path):
    tree = _tree(tmp_path, {"src/semibound/a.py": "x = 1\ny = 2\n",
                            "src/semibound/b.py": "z = 3",  # no final newline: wc -l says 0
                            "src/semibound/notes.txt": "not\ncounted\n",
                            "src/semibound/sub/c.py": "not counted\n",
                            "tests/test_a.py": "not counted\n"})
    assert golden_diff.src_lines(tree) == 2
