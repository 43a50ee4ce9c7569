"""The demos run and print exactly what they printed when their digest was recorded.

Each demo runs in a fresh interpreter that imports the same ruleforge package
as this test process. A change that alters a demo's output on purpose updates
its digest and says so. The README's library quick start runs the same way.
"""

import hashlib
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ruleforge

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"

STDOUT_SHA256 = {
    "01_parse_roundtrip.py": "d3327e452aaf58a5bcaee677a320d85ae6a511238f88200e0dfd2707fa8af3ee",
    "02_generate_rules.py": "a4f0f8e117efb313e472c1c2a3f3c45ef19a540d7bd1257511f9437f6066d3be",
    "03_cluster_rules.py": "97b42ba6695c74851bfe877df237534047cc4fc4ec8f13b3993169673693fb0f",
    "04_evaluate_model.py": "3485499bb5c155cec025cb25b32b0df6d03e0f539bd6e63965c3ddb5fb8ba56f",
}


def test_every_demo_has_a_digest():
    assert sorted(path.name for path in DEMOS.glob("*.py")) == sorted(STDOUT_SHA256)


def run_python(args, cwd=None) -> subprocess.CompletedProcess:
    """Run a fresh interpreter on args, importing this process's ruleforge package."""
    package_root = str(Path(ruleforge.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert done.returncode == 0, done.stderr.decode()
    return done


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_stdout(name):
    done = run_python([str(DEMOS / name)])
    assert hashlib.sha256(done.stdout).hexdigest() == STDOUT_SHA256[name]


def test_readme_quick_start_runs(tmp_path):
    """The python blocks of "Quick start (library)" run in order, on the sample rules."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Quick start (library)\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) == 2
    shutil.copyfile(ROOT / "tests" / "data" / "sample_netbios.rules", tmp_path / "netbios.rules")
    done = run_python(["-c", "".join(blocks)], cwd=tmp_path)
    assert b"NETBIOS Generated rule alert from ID-250001" in done.stdout
