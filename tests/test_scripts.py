"""The replay scripts run end to end.

Each wraps a private ffax name from outside the package, so a changed
signature breaks the script without failing any other test.
"""

import json
import subprocess
import sys

import pytest

from conftest import FIXTURES

SCRIPTS = FIXTURES.parent / "scripts"


@pytest.mark.parametrize("script", ["replay_oracle_calls.py", "replay_hitting_sets.py"])
def test_replay_script_runs_on_an_interop_row(script):
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / script), "--interop", "7", "--repeats", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    assert out["calls"] > 0
    if script == "replay_oracle_calls.py":
        assert 0 < out["searches"] <= out["calls"]
        # row 7's sessions answer 219 one-sided trials from their stores
        assert 0 < out["store_answers"] < out["calls"]


def test_oracle_replay_of_explain_counts_one_bound_search_per_row():
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "replay_oracle_calls.py"), "--explain", "0-4", "--repeats", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    assert out["bound_calls"] == out["bound_searches"] == 5
    assert 0 < out["searches"] <= out["calls"]
