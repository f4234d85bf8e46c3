"""Smoke: every runnable example the README lists exits 0.

Each script runs in its own interpreter, as a reader would run it, with
``REPRO_RESULTS_DIR`` pointed at a scratch directory so nothing lands
in the tree.
"""

import glob
import os
import re
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))
EXAMPLES = sorted(glob.glob(os.path.join(REPO, "examples", "*.py")))


def test_the_readme_lists_every_example():
    with open(os.path.join(REPO, "README.md")) as fh:
        listed = re.findall(r"python (examples/\S+\.py)", fh.read())
    assert sorted(set(listed)) == [os.path.relpath(path, REPO)
                                   for path in EXAMPLES]


@pytest.mark.parametrize("path", EXAMPLES, ids=os.path.basename)
def test_example_runs(path, tmp_path):
    env = dict(os.environ)
    src = os.path.join(REPO, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    env["REPRO_RESULTS_DIR"] = str(tmp_path)
    proc = subprocess.run([sys.executable, path], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip()
