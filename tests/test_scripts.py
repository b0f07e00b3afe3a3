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
