"""The benchmark's witness_exact operations pass the benchmark's own checks.

``benchmark/corpus.py`` builds the operations of a seed and
``benchmark/checks.py`` checks each witness and oracle output against
its own block enumeration.  Running them here on one seed makes a
search that returns a wrong, non-minimal or late witness fail in this
suite, not first in a benchmark run.  The same outputs are pinned byte
for byte, so a speed-up of the search cannot change what it prints.
"""

import json

import pytest

from conftest import output_digests, run_benchmark_ops

# (kind, exit code, sha256 of stdout with the work directory written
# "<work>") of each seed-5 operation, in corpus order
SEED_5_OUTPUTS = [
    ("witness_miss/powers_half", 2,
     "9cebb5901ecafc6b96380f3d36d98e3d00fa83b1621a2dbdc4d167a96cd30730"),
    ("witness_miss/powers_half", 2,
     "c86632425e57c65fddb9a435a6ea6dd447a007158b03d11adba2ef4f0fe42d86"),
    ("witness_miss/powers_half", 2,
     "e981b32ce9f501e3c8fe1b229babcbf5cead4e4228133fe944a40757a4e00b1c"),
    ("witness_reach/powers_half", 0,
     "24af3183ddf011b6f1316bc3b8aeb0e8af5676bf43fc1634ae24dfa918a5fd67"),
    ("witness_miss/interleave_2_3", 2,
     "b355cf91d2bdaaf1a58c727f0783216aaf369cf8421b40fd0bb4927a8b5f1686"),
    ("witness_miss/interleave_2_3", 2,
     "cb75c505741cc1d1bdf4e982a4cb22e5788aaede9d2933b47e32154056bc84c9"),
    ("witness_miss/interleave_2_3", 2,
     "b229bdeebba7ee4cf8951d3211f5795674505f732c3f33c1e40612cb83e10fb9"),
    ("witness_reach/interleave_2_3", 0,
     "47394780114176e8b765da26bf43ab0a4630f0e90e4e9aca21f6e2111839fffa"),
    ("witness_miss/three_class", 2,
     "093a4181a28522106476daa3d548e071fccee3160e31dc72105a8e3c54b03be0"),
    ("witness_miss/three_class", 2,
     "932a440acc67f9aa3918a03ee2e2c578199609139899f7eb6d94c6fa30386750"),
    ("witness_miss/three_class", 2,
     "362207bbdb5cf333a052440eb202b4a33d11bc44bafb0c4a48de2decaa7ec0a1"),
    ("witness_reach/three_class", 0,
     "0527b4ca35e4ea1b9bd9d8b32c24e0691ed04f4eea26cb9848a8e88368afb59d"),
    ("witness_miss/explicit_7532", 2,
     "5c3351bb0f79bd378fa8562fc9851d5cb40b28a6f10426dad0c1635c32bed413"),
    ("witness_miss/explicit_7532", 2,
     "455ef6ccf7b82b06851f081a00308f9b0ffcbced0f618549b706ecb9ddaed305"),
    ("witness_miss/explicit_7532", 2,
     "9b539775a536b0ebf102a17c0f3c56d4a732e95b29f4ef80e8b9f0c870c3cee6"),
    ("witness_miss/geom_half", 2,
     "1c7be1f38292f5758ecb17baaba8cfc08abde419a4610c6659fff46630df503e"),
    ("witness_miss/geom_half", 2,
     "f41c208d2337b69b5e4451072a9a025e4e5ee035cb32b3c19d1e51e5167d5bca"),
    ("witness_miss/geom_half", 2,
     "42f216cdfa077c2a4a4994a184949c6caeefc0336d8c74e324e557e80cd092dc"),
    ("witness_miss/capped_half_deep", 2,
     "51f9aaaf9e709e18a54752780a8304a37cf0481477462e3f6075af9d7d207fd9"),
    ("witness_miss/capped_half_deep", 2,
     "74a63d01ea17c874f216aae7a1185f934ed44370bd388cfc12b50c8159c4cfcf"),
    ("witness_miss/capped_half_deep", 2,
     "0332a85f16ad6d58c709c1cc82997eb694dad335008a71ff77c2b8bcb01992e4"),
    ("oracle/explicit_7532", 0,
     "6fe4283c71333aaed2d763761a850ce346ab4ba9a9f3380758026bc86a7893a8"),
    ("oracle/three_class", 0,
     "8c330f47732304125d288790ad7af424a643fa5d5c90b6e6044f3bfe6e23d272"),
]


@pytest.fixture(scope="module")
def seed_5_runs(tmp_path_factory):
    """The checks module, the work directory and (op, exit code, stdout) per op."""
    work = tmp_path_factory.mktemp("witness_exact")
    checks, runs = run_benchmark_ops("witness_exact", 5, work)
    return checks, work, runs


def test_witness_exact_ops_pass_the_benchmark_checks(seed_5_runs):
    checks, _, runs = seed_5_runs
    kinds = {op.kind.split("/")[0] for op, _, _ in runs}
    assert kinds == {"witness_miss", "witness_reach", "oracle"}
    for op, code, stdout in runs:
        out = json.loads(stdout)
        p = op.params
        if op.kind.startswith("oracle"):
            assert code == 0
            assert checks.oracle_problems(op.doc, out, p["start"], p["length"],
                                          p["targets"]) == [], op.argv
        else:
            assert code == (2 if out["witness"] is None else 0)
            if op.kind.startswith("witness_reach"):
                assert out["witness"] is not None, op.argv
            problems, _ = checks.witness_problems(op.doc, out, p["start"], p["max_block"],
                                                  p["target"], p["eps"])
            assert problems == [], op.argv


def test_witness_exact_outputs_are_byte_identical(seed_5_runs):
    _, work, runs = seed_5_runs
    assert output_digests(runs, work) == SEED_5_OUTPUTS
