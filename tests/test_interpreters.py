"""The pinned outputs agree on every other interpreter that runs here.

``pyproject.toml`` admits Python 3.10 and later, and the rest of the suite
runs on one interpreter. For each minor version from 3.10 to 3.13 other than
the running one, this test looks for ``python3.X`` on ``PATH``, then in
pyenv's versions directory (``$PYENV_ROOT/versions/3.X.*/bin/python3``, by
default under ``~/.pyenv``), and keeps the first candidate that starts as
that version; one that fails to start is passed over. It runs
``tests/pins.py`` under every kept interpreter at once: the generated-corpus
digests, the six-area bundle digests, the statistics kernel digest and the
fixture40 goldens must all match. The test skips when no other interpreter
starts.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PINS = Path(__file__).resolve().parent / "pins.py"
MINORS = range(10, 14)
TIMEOUT_S = 60


def _candidates(minor):
    on_path = shutil.which(f"python3.{minor}")
    if on_path:
        yield on_path
    pyenv = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv") / "versions"
    yield from map(str, sorted(pyenv.glob(f"3.{minor}.*/bin/python3")))


def _starts_as(python, minor):
    """Whether ``python`` starts and is Python 3.``minor``."""
    try:
        proc = subprocess.run([python, "-c", "import sys; print(*sys.version_info[:2])"],
                              capture_output=True, text=True, timeout=TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired):
        return False
    return proc.returncode == 0 and proc.stdout.split() == ["3", str(minor)]


def other_interpreters():
    """The first candidate that starts, for each other minor version."""
    found = []
    for minor in MINORS:
        if minor != sys.version_info.minor:
            first = next((python for python in _candidates(minor) if _starts_as(python, minor)),
                         None)
            if first:
                found.append(first)
    return found


def test_pins_hold_on_other_interpreters():
    pythons = other_interpreters()
    if not pythons:
        pytest.skip("no other Python 3.10-3.13 interpreter starts here")
    runs = [subprocess.Popen([python, str(PINS)], stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True) for python in pythons]
    failures = {}
    try:
        for python, proc in zip(pythons, runs):
            out, _ = proc.communicate(timeout=TIMEOUT_S)
            if proc.returncode != 0:
                failures[python] = out
    finally:
        for proc in runs:
            proc.kill()
            proc.wait()
    assert not failures, failures
