"""``tools/startup_split.py`` runs end to end: one round on this checkout."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_one_round_reports_every_command():
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "startup_split.py"),
                           "--rounds", "1", str(ROOT)],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    split = json.loads(done.stdout)["startup_split"]
    tree = split["trees"][str(ROOT)]
    assert tree["revision"] is None
    for name in ("pass", "stdlib", "import_cli", "warm_frob",
                 "warm_frob_teardown"):
        q = tree[name]
        assert 0 < q["q1"] == q["median"] == q["q3"], name
    # the teardown is a part of the process that runs the same query
    assert tree["warm_frob_teardown"]["median"] < tree["warm_frob"]["median"]
