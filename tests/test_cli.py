import functools
import json
import subprocess
import sys

import pytest

from kriegerlab.cli import main

from conftest import SPEC_DIR, F


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# classify

def test_classify_powers(capsys):
    code, out, _ = run_cli(capsys, "classify", str(SPEC_DIR / "powers_half.spec"))
    assert code == 0
    assert out.splitlines()[0] == "III_lambda lambda=1/2"


def test_classify_uniform(capsys):
    code, out, _ = run_cli(capsys, "classify", str(SPEC_DIR / "uniform.spec"))
    assert code == 0
    assert out.splitlines()[0] == "II_1"


def test_classify_inconclusive_exit_code(tmp_path, capsys):
    path = tmp_path / "three.spec"
    path.write_text(json.dumps({
        "mode": "rational",
        "classes": [{"indices": {"start": 1, "step": 1},
                     "template": {"kind": "explicit",
                                  "weights": ["4/7", "2/7", "1/7"]}}]}))
    code, out, _ = run_cli(capsys, "classify", str(path))
    assert code == 2
    assert out.splitlines()[0] == "inconclusive"


def test_classify_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.spec"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "classify", str(path))
    assert code == 1
    assert "line" in err


def test_classify_missing_file(capsys):
    code, _, err = run_cli(capsys, "classify", "/nonexistent/x.spec")
    assert code == 1


def test_classify_invalid_weights(tmp_path, capsys):
    path = tmp_path / "neg.spec"
    path.write_text(json.dumps({
        "mode": "rational",
        "classes": [{"indices": {"start": 1, "step": 1},
                     "template": {"kind": "explicit", "weights": ["1", "0"]}}]}))
    code, _, err = run_cli(capsys, "classify", str(path))
    assert code == 1


def test_classify_json_replayable(capsys):
    code, out, _ = run_cli(capsys, "classify", str(SPEC_DIR / "powers_half.spec"),
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"]["label"] == "III_lambda"
    assert doc["verdict"]["lambda"] == "1/2"
    from kriegerlab import replay
    assert replay(doc["verdict"]) == ("III_lambda", "1/2")


# ---------------------------------------------------------------------------
# witness

def test_zero_flag_is_exact_for_rationals(tmp_path, capsys):
    # 1/10**10 is a rational cluster value, not 0: the flag agrees with the verdict
    path = tmp_path / "tiny_lambda.spec"
    path.write_text(json.dumps({"mode": "rational", "classes": [
        {"indices": {"start": 1, "step": 2},
         "template": {"kind": "two_point", "lambda": {"form": "const", "value": "1/10000000000"}}},
        {"indices": {"start": 2, "step": 2},
         "template": {"kind": "two_point", "lambda": {"form": "const", "value": "1/100"}}}]}))
    code, out, _ = run_cli(capsys, "classify", str(path), "--format", "json")
    assert code == 0
    verdict = json.loads(out)["verdict"]
    assert (verdict["label"], verdict["lambda"]) == ("III_lambda", "1/100")
    clusters = verdict["certificate"]["evidence"]["two_point"]["lambda_report"]["clusters"]
    assert clusters["contains_zero"] is False


def test_witness_found(capsys):
    code, out, _ = run_cli(capsys, "witness", str(SPEC_DIR / "powers_half.spec"),
                           "--target", "0.5", "--eps", "1e-3")
    assert code == 0
    assert "witness" in out


def test_witness_none_in_scope(capsys):
    code, out, _ = run_cli(capsys, "witness", str(SPEC_DIR / "powers_half.spec"),
                           "--target", "0.3333", "--eps", "0.01",
                           "--max-block", "12")
    assert code == 2
    assert "no witness in scope" in out


def test_witness_geometric(capsys):
    code, out, _ = run_cli(capsys, "witness", str(SPEC_DIR / "geom_half.spec"),
                           "--target", "0.25", "--eps", "1e-6")
    assert code == 0


def test_witness_bad_flags(capsys):
    code, _, err = run_cli(capsys, "witness", str(SPEC_DIR / "powers_half.spec"),
                           "--target", "0.5", "--eps", "0.9")
    assert code == 1


def test_witness_eps_range_is_the_searchs(capsys):
    # eps above 1 is fine below the target; the one message is the library's
    spec = str(SPEC_DIR / "powers_half.spec")
    code, out, _ = run_cli(capsys, "witness", spec, "--target", "4", "--eps", "3/2",
                           "--format", "json")
    assert code == 0
    witness = json.loads(out)["witness"]
    assert (witness["coordinates"], witness["value"]) == ([1, 2], "4")
    code, out, err = run_cli(capsys, "witness", spec, "--target", "4", "--eps", "5")
    assert (code, out) == (1, "")
    assert "eps must lie in (0, target)" in err


def test_witness_beyond_its_state_cap_is_inconclusive(capsys):
    spec = str(SPEC_DIR / "interleave_2_3.spec")
    argv = ["witness", spec, "--target", "1/7", "--eps", "1/1000000000000",
            "--max-block", "20", "--state-cap", "50"]
    assert run_cli(capsys, *argv, "--format", "json")[:2] == (2, json.dumps({
        "budget_exceeded": "enumeration exceeded the state cap of 50",
        "command": "witness",
        "eps": "1/1000000000000",
        "scope": {"delta": "1/1000", "max_block": 20, "start": 0, "state_cap": 50},
        "spec": spec,
        "target": "1/7",
        "witness": None}, indent=2, sort_keys=True) + "\n")
    assert run_cli(capsys, *argv) == (2, "no witness in scope (max_block=20, delta=1/1000)\n"
                                         "  note: enumeration exceeded the state cap of 50\n", "")


# ---------------------------------------------------------------------------
# sample / oracle

def test_sample_writes_export_and_lattice(tmp_path, capsys):
    out_file = tmp_path / "samples.txt"
    code, out, _ = run_cli(capsys, "sample", str(SPEC_DIR / "powers_half.spec"),
                           "--samples", "200", "--window", "16", "--seed", "7",
                           "--start", "0", "--out", str(out_file))
    assert code == 0
    assert "lattice: period 0.693147180" in out
    lines = out_file.read_text().splitlines()
    assert len(lines) == 200
    idx, log_d, num, den = lines[0].split(", ")
    int(num), int(den)


def test_sample_with_one_nonzero_sample_leaves_the_lattice_undecided(capsys):
    spec = str(SPEC_DIR / "powers_half.spec")
    argv = ["sample", spec, "--samples", "1", "--window", "3", "--start", "0"]
    reason = "need at least two nonzero samples to discriminate lattice from non-lattice"
    assert run_cli(capsys, *argv) == (0, "0, 0.69314718055994529, 2, 1\n"
                                         f"lattice: undecided ({reason})\n", "")
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert (code, json.loads(out)) == (0, {
        "command": "sample", "delta": "1/1000", "lattice": None, "lattice_error": reason,
        "n_samples": 1, "records": ["0, 0.69314718055994529, 2, 1"],
        "seed": 4770246926087303473, "spec": spec, "start": 0, "window": 3})


def test_sample_records_beyond_the_int_str_digit_limit(tmp_path, capsys):
    # each coordinate's ratio has 1000-digit terms, so a sampled ratio over
    # 60 coordinates passes Python's default int-to-str limit
    from decimal import Decimal
    from kriegerlab import load_spec, mc_sample_cocycle, normalize, validate
    a, b = 10 ** 1000 + 7, 10 ** 1000 - 3
    path = tmp_path / "big_weights.spec"
    path.write_text(json.dumps({"mode": "rational", "classes": [
        {"indices": {"start": 1, "step": 1},
         "template": {"kind": "explicit", "weights": [f"{a}/{a + b}", f"{b}/{a + b}"]}}]}))
    code, out, err = run_cli(capsys, "sample", str(path), "--samples", "20",
                             "--window", "60", "--start", "0", "--seed", "7")
    assert code == 0, err
    samples = mc_sample_cocycle(validate(normalize(load_spec(path)).spec), seed=7,
                                n_samples=20, window=60, start=0, delta=F(1, 1000))
    records = out.splitlines()[:20]
    assert max(len(r) for r in records) > 2 * 4300
    for i, (record, ratio) in enumerate(zip(records, samples.ratios, strict=True)):
        idx, _, num, den = record.split(", ")
        assert int(idx) == i
        assert F(int(Decimal(num)), int(Decimal(den))) == ratio


def test_oracle_distances(capsys):
    code, out, _ = run_cli(capsys, "oracle", str(SPEC_DIR / "powers_half.spec"),
                           "--length", "3", "--targets", "1/3", "1/2")
    assert code == 0
    lines = out.splitlines()
    assert "min distance 1/12" in lines[0]
    assert "min distance 0" in lines[1]


def test_oracle_beyond_its_state_cap_is_inconclusive(monkeypatch, capsys):
    import kriegerlab.cli as cli_mod
    from kriegerlab import brute_force_block

    monkeypatch.setattr(cli_mod, "brute_force_block",
                        functools.partial(brute_force_block, state_cap=10 ** 3))
    code, out, err = run_cli(capsys, "oracle", str(SPEC_DIR / "geom_half.spec"),
                             "--length", "8", "--delta", "1/1000000000", "--targets", "1/2")
    assert (code, out, err) == (2, "", "inconclusive: enumeration exceeded the state cap of 1000\n")


# ---------------------------------------------------------------------------
# report / convert

def test_report_agreement(capsys):
    code, out, _ = run_cli(capsys, "report", str(SPEC_DIR / "powers_half.spec"),
                           "--samples", "400", "--window", "16", "--start", "100",
                           "--seed", "7")
    assert code == 0
    assert "agreement: true" in out


def test_report_json_structure(capsys):
    code, out, _ = run_cli(capsys, "report", str(SPEC_DIR / "uniform.spec"),
                           "--samples", "100", "--window", "8", "--start", "10",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["analytic"]["label"] == "II_1"
    assert doc["empirical"]["label"] == "II-like"
    assert doc["agreement"] is True


def test_convert_round_trip(tmp_path, capsys):
    out_file = tmp_path / "converted.spec"
    code, _, _ = run_cli(capsys, "convert", str(SPEC_DIR / "powers_half.factor"),
                         "--from", "factor", "--out", str(out_file))
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["data"] == "scheme"
    assert doc["classes"][0]["template"]["weights"] == ["2/3", "1/3"]
    # and back
    back_file = tmp_path / "back.factor"
    code, _, _ = run_cli(capsys, "convert", str(out_file), "--from", "scheme",
                         "--out", str(back_file))
    assert code == 0
    back = json.loads(back_file.read_text())
    assert back["data"] == "factor"
    assert back["classes"][0]["template"]["weights"] == ["2/3", "1/3"]


# ---------------------------------------------------------------------------
# determinism of structured output

@pytest.mark.parametrize("argv", [
    ("classify", "powers_half.spec", "--format", "json"),
    ("witness", "powers_half.spec", "--target", "0.5", "--eps", "1e-3",
     "--format", "json"),
    ("sample", "uniform.spec", "--samples", "50", "--window", "8",
     "--start", "5", "--seed", "11", "--format", "json"),
    ("report", "interleave_2_3.spec", "--samples", "100", "--window", "10",
     "--start", "20", "--seed", "3", "--format", "json"),
])
def test_structured_output_byte_identical(capsys, argv):
    argv = [argv[0], str(SPEC_DIR / argv[1]), *argv[2:]]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2
    assert out1 == out2


def test_main_keeps_no_state_between_calls(capsys):
    # one parser serves every call of main in a process: each call must give
    # what it gives in a fresh interpreter, whatever ran before it
    argvs = [
        ["classify", str(SPEC_DIR / "powers_half.spec"), "--no-such-flag"],
        ["classify", str(SPEC_DIR / "powers_half.spec"), "--format", "json"],
        ["report", str(SPEC_DIR / "interleave_2_3.spec"), "--samples", "100",
         "--window", "10", "--start", "20", "--seed", "3", "--format", "json"],
    ]
    in_sequence = [run_cli(capsys, *argv)[:2] for argv in argvs]
    assert [code for code, _ in in_sequence] == [1, 0, 0]
    for argv, result in zip(argvs, in_sequence):
        proc = subprocess.run([sys.executable, "-m", "kriegerlab.cli", *argv],
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == result


@pytest.mark.parametrize("name", ["powers_half.spec", "powers_half.factor"])
def test_spec_validated_once_per_command(monkeypatch, capsys, name):
    from kriegerlab.scheme import ValidatedScheme
    checks = []
    check = ValidatedScheme._check

    def counting_check(self):
        checks.append(self)
        check(self)

    monkeypatch.setattr(ValidatedScheme, "_check", counting_check)
    code, _, _ = run_cli(capsys, "classify", str(SPEC_DIR / name))
    assert code == 0
    assert len(checks) == 1


def test_installed_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "kriegerlab.cli", "classify",
         str(SPEC_DIR / "uniform.spec")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "II_1"


@pytest.mark.parametrize("argv", [
    ["classify", str(SPEC_DIR / "powers_half.spec")],
    ["report", str(SPEC_DIR / "interleave_2_3.spec"), "--format", "json"],
])
def test_closed_stdout_exits_141_and_writes_no_error(argv):
    # the reader closes before the program starts to write, as `| head`
    # may: that ends the command with 141 and nothing on stderr, not with
    # an internal error
    proc = subprocess.Popen([sys.executable, "-m", "kriegerlab.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), stderr) == (141, b"")


def test_agreement_rejects_lambda_beyond_tolerance():
    from kriegerlab.cli import _labels_agree
    from kriegerlab import classify
    from kriegerlab.specfile import load_spec
    verdict = classify(load_spec(str(SPEC_DIR / "powers_half.spec")))
    good = {"label": "III_lambda-like", "lambda": 0.5}
    assert _labels_agree(verdict, good)
    off = {"label": "III_lambda-like", "lambda": 0.52}
    assert not _labels_agree(verdict, off)
    wrong_kind = {"label": "III_1-like", "lambda": None}
    assert not _labels_agree(verdict, wrong_kind)


@pytest.mark.parametrize("analytic, empirical", [
    (F(1, 2), None), (F(1, 2), 0.0), (F(1, 2), -0.5), (1.0, 0.5)])
def test_agreement_rejects_lambdas_without_a_log_ratio(analytic, empirical):
    from kriegerlab.classify import TypeVerdict
    from kriegerlab.cli import _labels_agree
    verdict = TypeVerdict("III_lambda", analytic, None)
    assert _labels_agree(verdict, {"label": "III_lambda-like", "lambda": empirical}) is False


def test_budget_flags_validated(capsys):
    code, _, err = run_cli(capsys, "witness", str(SPEC_DIR / "powers_half.spec"),
                           "--target", "0.5", "--eps", "1e-3", "--max-block", "0")
    assert code == 1
    # --samples, --window and --length carry the library's one range message
    for argv, message in ((["sample", "--samples", "0"], "n_samples must be >= 1"),
                          (["report", "--samples", "0"], "n_samples must be >= 1"),
                          (["sample", "--window", "0"], "block length must be >= 1"),
                          (["report", "--window", "0"], "block length must be >= 1"),
                          (["oracle", "--length", "0", "--targets", "1/2"],
                           "block length must be >= 1")):
        code, _, err = run_cli(capsys, argv[0], str(SPEC_DIR / "powers_half.spec"), *argv[1:])
        assert (code, err) == (1, f"error: {message}\n")


def test_subcommand_options_are_pinned():
    # the type-III cap C and the lattice tolerance are constants, not flags
    import argparse
    from kriegerlab.cli import build_parser
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    options = {name: sorted(o for a in p._actions for o in a.option_strings)
               for name, p in sub.choices.items()}
    common = ["--format", "--help", "-h"]
    sampling = ["--delta", "--samples", "--seed", "--start", "--window"]
    assert options == {
        "classify": common,
        "witness": sorted(common + ["--delta", "--eps", "--max-block", "--start",
                                    "--state-cap", "--target"]),
        "sample": sorted(common + sampling + ["--out"]),
        "oracle": sorted(common + ["--delta", "--length", "--start", "--targets"]),
        "report": sorted(common + sampling + ["--max-block"]),
        "convert": ["--from", "--help", "--out", "-h"],
    }


DELTA_ARGS = {
    "witness": ["--target", "1/2", "--eps", "1/1000"],
    "oracle": ["--targets", "1/2"],
    "sample": ["--samples", "10"],
    "report": ["--samples", "10"],
}


@pytest.mark.parametrize("command", sorted(DELTA_ARGS))
def test_delta_out_of_range_has_one_message(capsys, command):
    # the truncation check is the one range check of --delta, on every command
    for delta in ("0", "3/4", "2"):
        code, _, err = run_cli(capsys, command, str(SPEC_DIR / "powers_half.spec"),
                               *DELTA_ARGS[command], "--delta", delta)
        assert (delta, code, err) == (
            delta, 1, "error: truncation budget delta must be in (0, 1/2]\n")


def test_report_flags_disagreement_for_geometric_tail(capsys):
    # every achievable ratio of this scheme is a power of 2, which the
    # sampling probe sees as a lattice; the analytic branch labels it by
    # the vanishing-liminf rule, and the report must expose the conflict
    code, out, _ = run_cli(capsys, "report", str(SPEC_DIR / "geom_half.spec"),
                           "--samples", "400", "--window", "12", "--start", "50",
                           "--seed", "7", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["analytic"]["label"] == "III_1"
    assert doc["empirical"]["label"] == "III_lambda-like"
    assert abs(doc["empirical"]["lambda"] - 0.5) < 1e-6
    assert doc["agreement"] is False


def test_internal_error_exit_code(monkeypatch, capsys):
    import kriegerlab.cli as cli_mod

    def boom(*args, **kwargs):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(cli_mod, "classify", boom)
    code, _, err = run_cli(capsys, "classify", str(SPEC_DIR / "uniform.spec"))
    assert code == 3
    assert "internal error" in err


def test_lambda_values_beyond_the_int_str_digit_limit(tmp_path, capsys):
    # 2**14001 has 4215 digits: a valid spec, whose ratios overflow a float
    # and whose printed values pass Python's default int-to-str limit
    doc = json.loads((SPEC_DIR / "interleave_2_3.spec").read_text())
    doc["classes"][0]["template"]["lambda"]["value"] = f"1/{2 ** 14000}"
    doc["classes"][1]["template"]["lambda"]["value"] = f"1/{2 ** 14001}"
    path = str(tmp_path / "big_lambda.spec")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    code, out, _ = run_cli(capsys, "classify", path)
    assert code == 0
    assert out.splitlines()[0] == "III_lambda lambda=1/2"
    for argv in (["report", path, "--samples", "50"],
                 ["witness", path, "--target", "1/2", "--eps", "1/10"],
                 ["oracle", path, "--targets", "1/2"]):
        assert run_cli(capsys, *argv)[0] == 0


def test_witness_on_float_mode_spec(capsys):
    code, out, _ = run_cli(capsys, "witness", str(SPEC_DIR / "lambda_zero_one.spec"),
                           "--target", "0.9", "--eps", "0.05",
                           "--start", "4", "--max-block", "6")
    assert code in (0, 2)


def test_report_with_half_block_values_below_the_smallest_double(tmp_path, capsys):
    # type_one's weights near coordinate 3000 are about 2**-3000: float grid
    # targets must meet such half-block values in exact arithmetic
    type_one = json.loads((SPEC_DIR / "type_one.spec").read_text())
    doc = {"mode": "rational", "classes": [
        {"indices": {"start": 1, "step": 4},
         "template": {"kind": "two_point", "lambda": {"form": "const", "value": "1/2"}}},
        {"indices": {"start": 3, "step": 4},
         "template": {"kind": "explicit", "weights": ["1/2", "1/2"]}},
        {"indices": {"start": 2, "step": 2},
         "template": type_one["classes"][0]["template"]}]}
    path = tmp_path / "three_classes.spec"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "report", str(path), "--samples", "200",
                           "--start", "3000")
    assert code == 0, err


# ---------------------------------------------------------------------------
# float underflow far out

def _float_spec(tmp_path, template):
    from kriegerlab import IndexClass, Indices, SchemeSpec, dump_spec
    path = tmp_path / "float.spec"
    path.write_text(dump_spec(SchemeSpec("float", (), (IndexClass(Indices(1, 1), template),))),
                    encoding="utf-8")
    return str(path)


def test_float_weight_underflow_is_an_input_error(tmp_path, capsys):
    # eps_n = 2**-(n+1) is 0.0 as a float beyond n = 1074
    from kriegerlab import Deviation, TwoPoint
    path = _float_spec(tmp_path, TwoPoint("weight", None, Deviation(
        "geometric", rho=F(1, 2), coeff=F(1, 2))))
    for argv in (["sample", path, "--samples", "5", "--window", "4", "--start", "1100"],
                 ["oracle", path, "--start", "1100", "--targets", "1/2"],
                 ["witness", path, "--start", "1100", "--target", "1/2", "--eps", "1/10"]):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert "underflows to 0 in float mode" in err


def test_float_witness_skips_block_values_that_underflow(tmp_path, capsys):
    # ratio**3 = 2**-657 is a move of every coordinate past the third, and
    # two such moves multiply to 0.0
    from kriegerlab import CappedGeometric
    path = _float_spec(tmp_path, CappedGeometric(F(1, 2 ** 219), 3))
    code, out, _ = run_cli(capsys, "witness", path, "--target", "1/3", "--eps", "1/1000",
                           "--max-block", "4", "--start", "10")
    assert code == 2
    assert "no witness in scope" in out


@pytest.mark.parametrize("template, label", [
    ({"kind": "two_point", "lambda": {"form": "const", "value": "1/3"}},
     "III_lambda lambda=1/3"),
    ({"kind": "explicit", "weights": ["1/2", "1/2"]}, "II_inf"),     # II_1 tensor I_inf
])
def test_geometric_tail_on_a_finite_class_is_classified(tmp_path, capsys, template, label):
    # finitely many coordinates of infinite alphabets add summable terms
    # with no total, and fail the finite-alphabet precondition of II_1
    path = tmp_path / "finite_tail.spec"
    path.write_text(json.dumps({
        "mode": "rational",
        "classes": [{"indices": {"list": [1]},
                     "template": {"kind": "geometric_tail", "base": ["1/2"],
                                  "ratio": "1/2"}},
                    {"indices": {"start": 2, "step": 1}, "template": template}]}))
    code, out, _ = run_cli(capsys, "classify", str(path))
    assert (code, out.splitlines()[0]) == (0, label)
    code, out, _ = run_cli(capsys, "report", str(path), "--samples", "50")
    assert (code, out.splitlines()[0]) == (0, f"analytic:  {label}")
    assert run_cli(capsys, "sample", str(path), "--samples", "5", "--window", "4")[0] == 0


BEYOND_FLOAT = {
    "witness": ["--target", "1e400", "--eps", "1/2"],
    "oracle": ["--targets", "1e400"],
}


@pytest.mark.parametrize("command", sorted(BEYOND_FLOAT))
def test_scalar_beyond_the_float_range_is_an_input_error(capsys, command):
    # a float-mode spec converts the flag to a double, which 1e400 exceeds
    code, out, err = run_cli(capsys, command, str(SPEC_DIR / "lambda_zero_one.spec"),
                             *BEYOND_FLOAT[command])
    assert (code, out) == (1, "")
    assert err == "error: 1E+400 lies beyond the range of a float; use rational mode\n"
