"""The demos run and print exactly what they printed when their digest was recorded.

Each demo runs in a fresh interpreter that imports the same ruleforge package
as this test process. A change that alters a demo's output on purpose updates
its digest and says so.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ruleforge

DEMOS = Path(__file__).resolve().parents[1] / "demos"

STDOUT_SHA256 = {
    "01_parse_roundtrip.py": "d3327e452aaf58a5bcaee677a320d85ae6a511238f88200e0dfd2707fa8af3ee",
    "02_generate_rules.py": "a4f0f8e117efb313e472c1c2a3f3c45ef19a540d7bd1257511f9437f6066d3be",
    "03_cluster_rules.py": "97b42ba6695c74851bfe877df237534047cc4fc4ec8f13b3993169673693fb0f",
    "04_evaluate_model.py": "3485499bb5c155cec025cb25b32b0df6d03e0f539bd6e63965c3ddb5fb8ba56f",
}


def test_every_demo_has_a_digest():
    assert sorted(path.name for path in DEMOS.glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_stdout(name):
    package_root = str(Path(ruleforge.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(DEMOS / name)],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == STDOUT_SHA256[name]
