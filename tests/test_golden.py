"""Golden outputs: the exact bytes each CLI command writes for the sample ruleset.

A refactor that keeps behaviour must keep these sha256 digests. A change that
alters an output format on purpose updates the digest and says so.
"""

import hashlib

import pytest

from ruleforge import SmoothedModel
from ruleforge.cli import run

SEED_SID = "7209"

GOLDEN = {
    "train": "8008bd74720943dec360b5866d2fc0b353877cf737118f1ce2b1468ebf03fa9e",
    "generate": "0fbc9c3a03e65ce728d5556d63f26aade05bd8e6a176df6bb495c93330dd45ca",
    "abduce": "1f6fe70569e9daaa011aa6f62dcb7a8ee82168d9d68eca13e67bf8051af94842",
    "sweep": "4f1d3a353ee0829810f128c87c15143bdc6116e56437b97640672712ec837b0b",
    "cluster": "58ec0b3bacc4d88a44879a2caa020f9830222fb7f55aecfcbdb36c86ceb3643e",
    "evaluate": "389f0e088e3b9bfa6af4edd7487bb83e2a2f8ad536b8c3b0113c21e7473405fd",
    "evaluate_train_only": "1c26fb8af39c984d9c1c033eb6d2b246567f4a6ba0069b7b9b2491f636d284e0",
    "evaluate_plain": "61b8901e1c4aa172f0e25f22b5997d053cb72d46b56dda4893df7cfc8e77023c",
    "evaluate_flags": "c89fe7c4e88ccb819a307d97afc93e376bcf3764c606d84efe465f710b0d33ce",
}


@pytest.fixture(scope="module")
def model_path(tmp_path_factory, sample_corpus_path):
    path = tmp_path_factory.mktemp("golden") / "model.json"
    assert run(["train", "--rules", str(sample_corpus_path), "--out", str(path)]) == 0
    return path


def _command(name: str, rules: str, model: str) -> list[str]:
    seeded = ["--model", model, "--rules", rules, "--seed-sid", SEED_SID]
    return {
        "generate": ["generate", *seeded],
        "abduce": ["abduce", *seeded],
        "sweep": ["sweep", *seeded],
        "cluster": ["cluster", "--rules", rules],
        "evaluate": ["evaluate", "--rules", rules, "--folds", "3", "--with-clusters"],
        "evaluate_train_only": [
            "evaluate", "--rules", rules, "--folds", "3", "--with-clusters", "--cluster-train-only",
        ],
        "evaluate_plain": ["evaluate", "--rules", rules, "--folds", "3"],
        "evaluate_flags": [
            "evaluate", "--rules", rules, "--folds", "3", "--skip-unk-evidence", "--with-prior",
            "--smoothing", "conventional", "--alpha", "0.5",
        ],
    }[name]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes(name, tmp_path, sample_corpus_path, model_path):
    if name == "train":
        out = model_path
    else:
        out = tmp_path / f"{name}.out"
        argv = _command(name, str(sample_corpus_path), str(model_path))
        assert run([*argv, "--out", str(out)]) == 0
    data = out.read_bytes()
    assert data, f"{name} wrote nothing"
    assert hashlib.sha256(data).hexdigest() == GOLDEN[name]


def test_committed_model_file_reads_back(tmp_path, sample_corpus_path):
    """The committed model file is what train writes; it loads, saves and scores as written."""
    committed = sample_corpus_path.with_name("sample_netbios.model.json")
    data = committed.read_bytes()
    assert hashlib.sha256(data).hexdigest() == GOLDEN["train"]
    saved = tmp_path / "saved.json"
    SmoothedModel.load(str(committed)).save(str(saved))
    assert saved.read_bytes() == data
    out = tmp_path / "abduce.out"
    argv = _command("abduce", str(sample_corpus_path), str(committed))
    assert run([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN["abduce"]
