"""The benchmark's report_sampling operations print what they printed before.

``benchmark/corpus.py`` builds the ``report`` operations of a seed: every
shipped spec under seeded sampling, and ``capped_half`` at coordinate 200,
where each alphabet holds about 200 symbols.  Their outputs are pinned
byte for byte, so a speed-up of the sampler, the truncation or the
witness grid cannot change what a report prints.
"""

from conftest import output_digests, run_benchmark_ops

# (spec, exit code, sha256 of stdout with the work directory written
# "<work>") of each seed-5 operation, in corpus order
SEED_5_OUTPUTS = [
    ("powers_half.spec", 0,
     "a6a790c112e7b04cd7b97888c590bce7dbdfbb3e1be2938fa665c50a871328c3"),
    ("powers_half.spec", 0,
     "f2fdfcd1d98cfbe40226c3fcbc6b4eeecaf3e137239ddf70c62b1c5f943b73b2"),
    ("powers_half.spec", 0,
     "b69a8ea806003c376e7936eb8bfb879fcc4bb542d665fafcc8409fd1f9703e13"),
    ("powers_half.factor", 0,
     "ba6ee95da25d03cdc5a0298fb28cdc89e897189b4fb68aafa8b037ca8ad09d8c"),
    ("powers_half.factor", 0,
     "815e77c16e6fed2e41f4d7870537d673fb0d1486f69f981445b2ce441e7bab7c"),
    ("powers_half.factor", 0,
     "4fe22bf39b93469fa7951086c9766ab0de4cabc559233ba81da1a57ef0a9885e"),
    ("uniform.spec", 0,
     "ad840c2d4f6596f00220928dc31ae838f4636e92e6232d81a924064fb7dd20ed"),
    ("uniform.spec", 0,
     "d403821123dd271de1bcd6cef4a227206b677cd4228be975dc316ca1432a686d"),
    ("uniform.spec", 0,
     "a2d2e376506e62c854ee60d4e2afcde5beb620c1c402b015c8d54ed578375161"),
    ("geom_half.spec", 0,
     "b971e3283a5963d68928e6c34ca02425da9f2d9a31e2b09d688462c52eee54ea"),
    ("geom_half.spec", 0,
     "90931e19bc5ae346535989f931accbf0010c0b47a3d152cf5a98a557196b4088"),
    ("geom_half.spec", 0,
     "acc76b2848518e4beeb8609c05e7b34de6999d87476586844dfb52ba40b29cee"),
    ("interleave_2_3.spec", 0,
     "801510072a10e43196b615ddf9e7e77be5da4d1a537bbd9f953b24553c5f1ec4"),
    ("interleave_2_3.spec", 0,
     "47e1ee9fda90d53aa5c70d684a621ad7c2a9e5b9a847d1289f3a9d68a75e6aa4"),
    ("interleave_2_3.spec", 0,
     "d56103305961c4df75ca084b5f65207f8b62647a00620409c0e1038945e9ec18"),
    ("lambda_zero_one.spec", 0,
     "00c7882835f646247dbc07262f4f56e99b6464afbf0850e74217337aeac691e1"),
    ("lambda_zero_one.spec", 0,
     "0c2d3842a3010c940f607212a10fb4efbcf2532b44939c4c2e7f04e9b5e698ee"),
    ("lambda_zero_one.spec", 0,
     "fb4efd0bd33b0f1f47b0cf361944c913ceaaa4b049a32c067c09e90d9f4d94ce"),
    ("two_inf.spec", 0,
     "f5a539dc67173c1cf0edc77d48e675411da5eb3fb9bae33f31f84c20682941d9"),
    ("two_inf.spec", 0,
     "e53ee384aff7c1c7668125e29b64644286f259c4297a52ce8b0ccedd650b5486"),
    ("two_inf.spec", 0,
     "9e7d42563b20de58b5b0efbe468be51e601d0cd505b7a6d6a07f745a9429a039"),
    ("type_one.spec", 0,
     "55ee4a64c376a651d3b56134687de3ba1ad285ab77ec79a995201f9d06bd0b37"),
    ("type_one.spec", 0,
     "6b8cd1d8fa624e7119ad6bf5bea2a17f6cc2d4e9edbe4cda2235923774726d93"),
    ("type_one.spec", 0,
     "49bf5fd6ee6c2837d382cb6cb6e0c410f4e810666611510d329001eb289e216f"),
    ("capped_half.spec", 0,
     "c9c2f24e431f1eebf84f5826a78e3dca85f061fd00a16840e9f4826232696aba"),
]


def test_report_sampling_outputs_are_byte_identical(tmp_path):
    _, runs = run_benchmark_ops("report_sampling", 5, tmp_path)
    assert output_digests(runs, tmp_path) == SEED_5_OUTPUTS
