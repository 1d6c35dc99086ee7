"""Pinned ``--format json`` output of every command on every shipped spec,
and the text output of classify and report.

Byte-identical JSON is part of the interface: a change that alters the
printed document of any command, even where its verdict stands, changes
one of these sha256 digests of stdout (or the exit code) and must say so.
"""

import hashlib
import json

import pytest

from kriegerlab.cli import main

from conftest import SPEC_DIR

ARGS = {
    "classify": [],
    "witness": ["--target", "1/3", "--eps", "1/1000", "--max-block", "9"],
    "oracle": ["--length", "4", "--targets", "1/2", "1/3", "7/10"],
    "sample": ["--samples", "200"],
    "report": ["--samples", "200"],
}

# capped_half's alphabets have about as many symbols as the coordinate
# index; sampling at the default start 1000 would dominate the suite
START = {("capped_half.spec", "sample"): "200", ("capped_half.spec", "report"): "200"}

GOLDEN = {
    "capped_half.spec": {
        "classify": (0, "f0c7a966aafe6f49f799e7d94ee5278e16ec5eae96e4fc41f110d32bcf62ea42"),
        "witness": (2, "e6bde610da5a880cd279d1ab10f1c2f8e5f395fc517262b84fdbd3c1141d0c7b"),
        "oracle": (0, "2afe68499855114de9ce75bf226ea8fe1b50ea39b529e1c8db0036f29cd67c93"),
        "sample": (0, "11d679ac3855392b98a07c4a81074846c87414bb326ee37a35173f37db2303e0"),
        "report": (0, "eb93f844fd513f31895eeec114d247d2d7b1df396834b8f19bcccca39b0a7218"),
    },
    "geom_half.spec": {
        "classify": (0, "5507dc1d1a850be328e83c73611fb533714f7ce5f786c4c8755591319c215ecf"),
        "witness": (2, "d24e2c1544e6e1e0af15bfae0d2df2954af1fef1a75a80e642dda859771c0531"),
        "oracle": (0, "4a4af1c7a5ec19f65918fd3a30bcd167a465aae09a2c646db026e7799351d868"),
        "sample": (0, "364c2853c30eb734e56e7a1dd896d21428403a026de8b85f218401afe1cd7532"),
        "report": (0, "65e4b6590d435eb4013358a55e0dfc91e6a343ba04d3e01b9b73a1692fa68fd0"),
    },
    "interleave_2_3.spec": {
        "classify": (0, "ce5147be63c032385976bbb029f68b6dd1f0854ce578073fc45c0e3ac5ee78ec"),
        "witness": (0, "0b631e8ad79ca859e3650706df67d8a8bf1194c544b58d111e4e4cdb82d30c69"),
        "oracle": (0, "1ee9b169e1eac56fee7859e3964d0cf87b467570fc9fbfb5ff1532d3e773e7b2"),
        "sample": (0, "6ea5684abb052b7670c179b149b9c44f5688ae23c9cd2a970e4c574ce0b67e32"),
        "report": (0, "ec24c50ba6d97c6db75949979412b94808f741f3eaa6111d69af0176832b5c22"),
    },
    "lambda_zero_one.spec": {
        "classify": (0, "a6c9a18bfad21773a6edd38b32e785735d0c9e1a5f96659d41b635335137b2ce"),
        "witness": (0, "c5b44bc53d961915c24263fde43a06b567addbdb25dfdd8cc3b5435569e6bc82"),
        "oracle": (0, "9a090c091c1cc14b946ff80121409a98748ac5c79013bcdba7f078d77a1eee13"),
        "sample": (0, "1ae6bae7e139b4e43192a863799da399bbb437bba7bdfa424fe7f253b8b30d19"),
        "report": (0, "6ed426e69d4ebdaf0dc93659d99ba1bf47fba88da0c3bf4f767ab7b3bffb4cad"),
    },
    "powers_half.factor": {
        "classify": (0, "1ac8dcb4b0676c9018d990aababfb66f51e5870d627bf2e8bb3782391e733812"),
        "witness": (2, "d38a4e66fe4cfea34390aa44a7f86b3e667395e929a8a2b2acfa44154f8748c5"),
        "oracle": (0, "a99bffe5b4d646f63c54e4bb28120513a34b63c9a7f0f2d9f83d9db1e31b1bae"),
        "sample": (0, "f6b514e35f2bb287e28202e4f9ce7992d66b3137106f74eee5ff561498d793e6"),
        "report": (0, "18ec75fbe30142afd49ce62572aa98f002847e4f2af2d9ffc2e2c6086011a9f5"),
    },
    "powers_half.spec": {
        "classify": (0, "3e6f5ca4445a767bce7b4c2e39d35615ebebcbe8896d694fc681ee2bedc535ce"),
        "witness": (2, "73f5a1acf122f2d4207303ecb9ad5e3e3d5850c4db0a2413d9ab5d91919b59b3"),
        "oracle": (0, "92357be58872675f952a87ac239b4b011e28c9157e88c54e640d7614fb94de7c"),
        "sample": (0, "652c8ad82d22f5b3c83c07f2a54233965649bc61468512a8a1b0a8057a8c5872"),
        "report": (0, "67e54d293c0cf7e617a15fa279a681c9021e73360f4d28651bd9a2697cd628dc"),
    },
    "two_inf.spec": {
        "classify": (0, "d699f47e307bf5524c2da57df2d905f182726c0c9ab0df602391cd0ec8d2c1fe"),
        "witness": (2, "9b69be5097eaba54fbec1bcf219f2635aa30774c4a02d789d8f8a508036f5199"),
        "oracle": (0, "d85b42a16a1425242707bd56079b61564be2b9fde9f888001cd5261530336607"),
        "sample": (0, "165cdc2dbc056edda2e744a5cc690169bd0310448d0db4624fa4180ddd67100b"),
        "report": (0, "769f0bc3745a9d5815b73e8a716f482e138e1da0649875de8f5c23f02df63a51"),
    },
    "type_one.spec": {
        "classify": (0, "0b5fc10e21ddb3d33ea86699a21c38408bcf5f7630212262690a669b3221e084"),
        "witness": (0, "e7372898933be2d27df95c02ba329b387faba2b9378a12b6c2751aad7c68f60a"),
        "oracle": (0, "11d0a92e5c90e5e2ef1e5d3b60ec37f543cefaea42ec00a259bc5206377860d4"),
        "sample": (0, "721363a8ddbc08966383aa3b15cfd27c11e00c9443fcbddecbbfbe4f5bba660c"),
        "report": (0, "0bdb557eeadc8fcbce83705494d89ef4401f1c5fb3526fcd3ba592c2c849448b"),
    },
    "uniform.spec": {
        "classify": (0, "54a8c15275b78c5b0181b46609cd3196dd4ae5d3ba261c86396a32e4734e9606"),
        "witness": (2, "6dd2dedf1a19768021d209a0c2e6521957b8ac6696379aa82d4802277da5d1a4"),
        "oracle": (0, "b5515cf19ea0967de4eeb2cbcf71ecfcac2621591c1f4d5fba0d5ba4d7683165"),
        "sample": (0, "89d1a244dd87242e5f3a2f64ab17980b391115cbcb9882b06f9d6b13f9417560"),
        "report": (0, "b4a4cb0ea5799a81359e865c612b73d5416438ddf401fe0025d38460c756a62f"),
    },
}


# the text renders of classify and report, same flags as their JSON above
TEXT_GOLDEN = {
    "capped_half.spec": {
        "classify": (0, "ac18fc6c5e4fb9234f7049ff8ac9dbd76bbd9d20f24bfb66b5624b3028e86ca9"),
        "report": (0, "2dbb2e7eb98293c602d9769c14f3a9b38210f93a1d9ded13fef7a70910c057fe"),
    },
    "geom_half.spec": {
        "classify": (0, "da3f78b53e143b95da7dac59b5a3652517ade2a0b51a6020491905258be21a98"),
        "report": (0, "8703cc4c40fa48adc11077fbeb3279766dfcdb7efbe8f875164a0077c90f2c61"),
    },
    "interleave_2_3.spec": {
        "classify": (0, "cd3e37f3753c129d96328cc3846f1ead410ed2c4ae558ed339a01d499b1bc9b9"),
        "report": (0, "415f10d2f481f53bea78b6079c9dc5ef7548633a1471bd26d801e0afa949c1ae"),
    },
    "lambda_zero_one.spec": {
        "classify": (0, "228e0994d9ff3f71d131ed2f6607e74835896c84a3c5228a836531a673762b72"),
        "report": (0, "eaef15391c024c8ba36b03c7ed65c3c38c7b2f89a22cf7f307194c670ffd2ae2"),
    },
    "powers_half.factor": {
        "classify": (0, "38e792fd2c962134e911c15ff6fe9679dabba497f8723d51243f1e9bae45be86"),
        "report": (0, "2dbb2e7eb98293c602d9769c14f3a9b38210f93a1d9ded13fef7a70910c057fe"),
    },
    "powers_half.spec": {
        "classify": (0, "38e792fd2c962134e911c15ff6fe9679dabba497f8723d51243f1e9bae45be86"),
        "report": (0, "2dbb2e7eb98293c602d9769c14f3a9b38210f93a1d9ded13fef7a70910c057fe"),
    },
    "two_inf.spec": {
        "classify": (0, "1919424422b6d10cdce8da3d3e245287182778f3f673998dc4482b1ee1b12c13"),
        "report": (0, "9c3dc057ee8c3b85e166ccb109b0ac0085bda4c8814199446ac5729c5006e5c8"),
    },
    "type_one.spec": {
        "classify": (0, "88acc936d982720717044cce6bf0c4ea870175f2a9ab5ab63a7176f538cc050b"),
        "report": (0, "4e7ea7db59d1afdd789e0e7936dcb0b7ebf5e49e4cd49d78ed8e5e0d7007aa5b"),
    },
    "uniform.spec": {
        "classify": (0, "606b28e96a33d7d885aaa05a1a7c0a5276a242d62547b859b765677bb737f217"),
        "report": (0, "a3c27b5da6e8812323a17bf3d4491e027f5632faa1129dd870b0b01a8894d7a9"),
    },
}

# sampling far out at another seed: type_one's and two_inf's weights have
# about 3000 bits there, and geom_half's truncated tail keeps retained < 1
WIDE_SAMPLE_ARGS = ["--samples", "200", "--start", "3000", "--seed", "7"]

WIDE_SAMPLE = {
    "geom_half.spec": (0, "3cd9415d40e0845d4f6d4fa0df39011cfe4089ad3489b02231cc8b4c0bae4131"),
    "two_inf.spec": (0, "8c86c6e837b3cc638d8c4f4083e54cfed1ffb4ea043258f14ed2bb74aeffc1c6"),
    "type_one.spec": (0, "b8bc5dcdf2738cf409ac7652228625f96fc8dbc0b40c2de9ae7d6a52daee1a4b"),
}


@pytest.mark.parametrize("spec, command", [
    (spec, command) for spec, digests in GOLDEN.items() for command in digests])
def test_json_output_pinned(monkeypatch, capsys, spec, command):
    # the document records the spec path as given: run from the spec
    # directory so that it does not depend on where the checkout lies
    monkeypatch.chdir(SPEC_DIR)
    argv = [command, spec, *ARGS[command], "--format", "json"]
    if (spec, command) in START:
        argv += ["--start", START[spec, command]]
    code = main(argv)
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == GOLDEN[spec][command]


@pytest.mark.parametrize("spec, command", [
    (spec, command) for spec, digests in TEXT_GOLDEN.items() for command in digests])
def test_text_output_pinned(monkeypatch, capsys, spec, command):
    monkeypatch.chdir(SPEC_DIR)
    argv = [command, spec, *ARGS[command]]
    if (spec, command) in START:
        argv += ["--start", START[spec, command]]
    code = main(argv)
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == TEXT_GOLDEN[spec][command]

@pytest.mark.parametrize("spec", sorted(WIDE_SAMPLE))
def test_wide_weight_samples_pinned(monkeypatch, capsys, spec):
    monkeypatch.chdir(SPEC_DIR)
    code = main(["sample", spec, *WIDE_SAMPLE_ARGS, "--format", "json"])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == WIDE_SAMPLE[spec]


def _tail_spec(base, ratio, prefix=(), mode="rational"):
    return {"mode": mode, "prefix": [list(vec) for vec in prefix],
            "classes": [{"indices": {"start": len(prefix) + 1, "step": 1},
                         "template": {"kind": "geometric_tail", "base": list(base),
                                      "ratio": ratio}}]}


# geometric tails whose type-III value is the truncated pairwise sum
# over up to 200 symbols: exact at four ratios, and one float-mode tail
# that pins the float summation order
TAIL_SPECS = {
    "tail_2_3": (_tail_spec(["1", "3/5"], "2/3", [["2/3", "1/3"]]),
                 "61c58da2e51aabd3116d7bd1497183da11af06679a54df2eca91de415afb8769"),
    "tail_3_4": (_tail_spec(["1", "2/7"], "3/4", [["1/2", "1/4", "1/4"]]),
                 "7501ce01fcf203a45a8a705c1e5967cdbd6d6b919d49bc05ffbf7b0e40a5d4a9"),
    "tail_4_5": (_tail_spec(["1", "5/11"], "4/5", [["3/5", "2/5"], ["1/3", "1/3", "1/3"]]),
                 "38eb6b962581d00b23746998e6444d6400f0c7e6c8f62272c70725286c26e131"),
    "tail_5_7": (_tail_spec(["1", "7/13"], "5/7", [["5/6", "1/6"]]),
                 "58ce667dd4af9f22ded6bedf13a571f2da18ec1996dbffa7d44afab2b980d321"),
    "tail_float": (_tail_spec([0.2], 0.8, mode="float"),
                   "077b386d2a1df88d25821d9463859bdcd3c2d1da8e8c19609713b2dac3227021"),
}


@pytest.mark.parametrize("name", sorted(TAIL_SPECS))
def test_geometric_tail_classify_pinned(monkeypatch, capsys, tmp_path, name):
    doc, digest = TAIL_SPECS[name]
    (tmp_path / f"{name}.spec").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                                           encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code = main(["classify", f"{name}.spec", "--format", "json"])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, digest)


def _classes_doc(*templates):
    # one class per template, interleaved over the coordinates
    return {"mode": "rational", "prefix": [],
            "classes": [{"indices": {"start": 1 + k, "step": len(templates)}, "template": t}
                        for k, t in enumerate(templates)]}


def _const(lam):
    return {"kind": "two_point", "lambda": {"form": "const", "value": lam}}


# the exact witness search through whole scopes: ratio groups of rank 4
# (explicit weights 7, 5, 3, 2 over 17), 3 (lambda 1/2, 1/3 and 2/5 on
# three classes) and 1 (a geometric tail of ratio 1/2); each shape is
# searched once for a target it misses at eps 1/10**12 and once with a
# looser eps that pins which pair is nearest
WITNESS_SHAPES = {
    "explicit_7532": (_classes_doc({"kind": "explicit",
                                    "weights": ["7/17", "5/17", "3/17", "2/17"]}), "11"),
    "three_class": (_classes_doc(_const("1/2"), _const("1/3"), _const("2/5")), "21"),
    "geom_half": (_classes_doc({"kind": "geometric_tail", "base": ["1/2"],
                               "ratio": "1/2"}), "13"),
}

WITNESS_RUNS = {
    ("explicit_7532", "1000/1013", "1/1000000000000"):
        (2, "442ae36f3f2a164ebed3665d325eba29ed562232bbaa4fc2ed85545d3c50f66b"),
    ("explicit_7532", "1000/1013", "1/1000"):
        (0, "889711dc670a40021d06ded4b51d664ab5150a97254866e6e1499a63914c8c28"),
    ("three_class", "1000/1013", "1/1000000000000"):
        (2, "3a197fedc8d71fdf6431ec156b8a269c743c0b8dc2e529ac9b2ff0ed3a5a9cd9"),
    ("three_class", "1000/1013", "1/1000"):
        (0, "c30dd7bc61295ddb42243f9550213384ac03081fe383f8f9b46265945bc498bc"),
    ("geom_half", "1000/1013", "1/1000000000000"):
        (2, "3372fca9c8ae285b45e9816b57fbb92630f64a974a5d057895e3dba9a1249b06"),
    ("geom_half", "1/3", "1/10"):
        (0, "c28778194b9f03c091bda7e98ecec65f345ca3a061e6da12b80b0fcd950eee08"),
}

ORACLE_RUN = (["--length", "6", "--targets", "1000/1013", "22/7", "1/3"],
              (0, "2cb3f6255c71277937201f45ba1c7fb71b451663bffd1bb801f632045d7926d6"))


def _write_shape(tmp_path, name):
    doc, max_block = WITNESS_SHAPES[name]
    (tmp_path / f"{name}.spec").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                                           encoding="utf-8")
    return max_block


@pytest.mark.parametrize("name, target, eps", sorted(WITNESS_RUNS))
def test_witness_shapes_pinned(monkeypatch, capsys, tmp_path, name, target, eps):
    max_block = _write_shape(tmp_path, name)
    monkeypatch.chdir(tmp_path)
    code = main(["witness", f"{name}.spec", "--target", target, "--eps", eps,
                 "--max-block", max_block, "--format", "json"])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == WITNESS_RUNS[name, target, eps]


def test_oracle_explicit_pinned(monkeypatch, capsys, tmp_path):
    _write_shape(tmp_path, "explicit_7532")
    monkeypatch.chdir(tmp_path)
    args, expected = ORACLE_RUN
    code = main(["oracle", "explicit_7532.spec", *args, "--format", "json"])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == expected
