"""The narrative demos run to completion against this copy of the package."""

import os
import subprocess
import sys

import pytest

import spikeradar

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(
    name for name in os.listdir(os.path.join(ROOT, "demos")) if name.endswith(".py")
)


def test_every_demo_is_listed():
    assert len(DEMOS) == 4, DEMOS


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    # The demo runs in tmp_path, where a relative PYTHONPATH names nothing,
    # so hand it the absolute root this process imported spikeradar from.
    root = os.path.dirname(os.path.dirname(os.path.abspath(spikeradar.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout
