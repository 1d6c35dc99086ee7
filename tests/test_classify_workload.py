"""The benchmark's classify_corpus operations print what they printed before.

``benchmark/corpus.py`` builds the ``classify`` operations of a seed: a
seeded corpus of spec families with their layout variants, through the
analytic path only (parse, the three series tests and the type-III
branches).  Their outputs are pinned byte for byte, one digest per
operation kind, so a refactor of the templates, the cluster reports or
the series rules cannot change what a classification prints.
"""

import hashlib
from collections import Counter

import pytest

from conftest import run_benchmark_ops

# sha256 over (exit code, stdout with the work directory written "<work>")
# of each seed-5 operation of a kind, in corpus order
SEED_5_DIGESTS = {
    "const_power": "4331094f4b23e74929a4d342d9491d1b485921fb6d4181a82d5264d6b4c3f733",
    "const_dense": "9c5dc77379783983a9d180aef38582fa1a65f3ce68f6d753e8cbe23b63d4ac77",
    "uniform": "b6209ccb0d77458065858c1b3a119773add24659fec50724ddee1749a69bace6",
    "weight": "72392dbfb1d0e17f142c5c7c68d1edf897ed37fb9c094f8974814518cc3444a4",
    "capped": "3e6725db2d39c94925d3b3fd2a74c9fcc8b80c4a51bc50e3200c7f81dab4e991",
    "float_exp": "648fc6b6eae6a068a03767cc23320b38ef31c1461b3d84be9c30bd4d6282ec59",
    "float_zero_one": "6d092833c5ceab8abe8d337e258464dc221f0a03e05560982cbe2fc7bff01b69",
    "geometric_dense": "d6d7b0fb7671996a9304ee7a480ebeba8ad48082ea1525675c00afe3fdb454a7",
    "big_lambda": "de28e9bd78e17219eed4164f7b05cf898d92c67f431cd01da4dd4adce895e268",
    "geometric_single_ratio":
        "7fe6c4c913d38f9ae3abac4f56cd245dba4d01a08a46cc5d945a57f728811903",
}


def kind_digests(runs, work) -> dict:
    digests = {}
    for op, code, stdout in runs:
        h = digests.setdefault(op.kind, hashlib.sha256())
        h.update(f"{code}\n{stdout.replace(str(work), '<work>')}\n".encode())
    return {kind: h.hexdigest() for kind, h in digests.items()}


@pytest.fixture(scope="module")
def seed_5_runs(tmp_path_factory):
    work = tmp_path_factory.mktemp("classify_corpus")
    _, runs = run_benchmark_ops("classify_corpus", 5, work)
    return work, runs


def test_classify_corpus_covers_every_kind(seed_5_runs):
    _, runs = seed_5_runs
    counts = Counter(op.kind for op, _, _ in runs)
    assert set(counts) == set(SEED_5_DIGESTS)
    assert sum(counts.values()) == 318


def test_classify_corpus_outputs_are_byte_identical(seed_5_runs):
    work, runs = seed_5_runs
    assert kind_digests(runs, work) == SEED_5_DIGESTS
