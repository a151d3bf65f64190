"""``tools/stage_profile.py`` reports every pipeline stage."""

import os
import subprocess
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_reports_each_stage():
    env = dict(os.environ, PYTHONPATH=os.path.join(_ROOT, "src"))
    done = subprocess.run(
        [sys.executable, os.path.join(_ROOT, "tools", "stage_profile.py"),
         "--cells", "busy", "--length", "40", "--warmup", "300",
         "--widths", "4"],
        stdout=subprocess.PIPE, text=True, env=env, check=True)
    rows = {line.split()[0]: line.split()[1:]
            for line in done.stdout.splitlines() if line.startswith("_")}
    assert set(rows) == {"_process_events", "_commit", "_select",
                         "_rename", "_fetch"}
    assert "9 cells" in done.stdout and "360 commits" in done.stdout
    for seconds, calls, per_commit in rows.values():
        assert float(seconds) >= 0 and int(calls) > 0
        assert float(per_commit) == round(int(calls) / 360, 3)
