"""The demo scripts' stdout, byte for byte.

Each demo runs in a fresh interpreter in its own working directory (demo
03 writes ``bimodal_scan.csv`` there), and its stdout's SHA-256 must be
the one pinned here.  A change that means to move a printed number
updates the digest and says which lines moved.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

STDOUT = {
    "01_canonical_forms.py": "744a0624b7921c7ce717968a465b7a12f770f207d43aec2cf2d4c3c9c2ac24b6",
    "02_sign_certificates.py": "1b89d5d94f225d3d19f44a7ef995af175109d117e27cb090addb4ffc1ccff03a",
    "03_bimodal_scan.py": "2da395a4852fda60712a9ad09d451d69cb17acb4a06c3120d849cd9c1e427de6",
    "04_interpolation_concavity.py": "3fe5dcc678e81fab195f49be8c2e33236c10c315b7fbc019020d90d1c762547f",
}


def test_every_demo_is_pinned():
    assert sorted(STDOUT) == sorted(p.name for p in (ROOT / "demos").glob("0*.py"))


@pytest.mark.parametrize("name", STDOUT)
def test_demo_stdout_is_pinned(name, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        check=True,
    )
    assert run.stderr == b""
    assert hashlib.sha256(run.stdout).hexdigest() == STDOUT[name]
