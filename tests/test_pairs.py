import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "pairs.py"


def test_one_init_pair_of_one_tree_reports_every_field():
    result = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), str(ROOT), "--kind", "init",
         "--pairs", "1"], capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    doc = json.loads(result.stdout)
    assert (doc["kind"], doc["pairs"], doc["failed_runs"]) == ("init", 1, 0)
    run, = doc["runs"]
    assert (run["pair"], run["first"]) == (0, "parent")
    assert run["parent"]["ok"] and run["change"]["ok"]
    verdict = doc["summary"]["init_params_s"]
    assert verdict["better"] == "lower" and verdict["pairs"] == 1
    for side in ("parent", "change"):
        value = run[side]["metrics"]["init_params_s"]
        assert value > 0
        assert verdict[side] == {"q1": value, "median": value, "q3": value}
    assert verdict["parent_iqr"] == 0.0
    assert verdict["median_gap"] == (verdict["change"]["median"]
                                     - verdict["parent"]["median"])
    assert verdict["change_wins"] == int(verdict["median_gap"] < 0)
    assert verdict["gain"] == (verdict["median_gap"] < 0)


def test_a_directory_that_is_not_a_source_tree_is_refused(tmp_path):
    result = subprocess.run(
        [sys.executable, str(TOOL), str(tmp_path), str(ROOT), "--kind",
         "init", "--pairs", "1"], capture_output=True, text=True, timeout=60)
    assert result.returncode == 2
    assert "not a source tree" in result.stderr
    assert result.stdout == ""
