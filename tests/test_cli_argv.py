"""The CLI reads a plain argv from argparse's own tables without running
argparse: the namespace must equal argparse's, and every other argv must
go to argparse, so that its usage texts, errors and exit codes stay its own."""

import io
import itertools
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from kriegerlab import cli
from kriegerlab.cli import _PARSER, _plain_args, main

from conftest import SPEC_DIR, _load_benchmark_module

SPEC = "s.spec"

# every single-value option of each command, with a valid value
OPTIONS = {
    "classify": [("--format", "json")],
    "witness": [("--target", "1/2"), ("--eps", "1/100"), ("--start", "3"),
                ("--max-block", "4"), ("--delta", "1/10"), ("--state-cap", "9"),
                ("--format", "json")],
    "sample": [("--out", "o.txt"), ("--samples", "10"), ("--window", "5"), ("--start", "7"),
               ("--seed", "0x10"), ("--delta", "1/4"), ("--format", "text")],
    "oracle": [("--start", "1"), ("--length", "2"), ("--delta", "1/8"), ("--format", "json")],
    "report": [("--max-block", "3"), ("--samples", "10"), ("--window", "5"), ("--start", "7"),
               ("--seed", "12"), ("--delta", "1/4"), ("--format", "json")],
    "convert": [("--from", "factor"), ("--out", "o.spec")],
}

# argv that are not plain, each parsed or refused by argparse
ODD = [
    [], ["bogus", SPEC], ["class", SPEC], ["-h"], ["--help"], ["classify", "-h"],
    ["classify", SPEC, "--help"], ["classify"], ["classify", SPEC, "extra"],
    ["classify", SPEC, "--format"], ["classify", SPEC, "--form", "json"],
    ["classify", SPEC, "--format=json"], ["classify", SPEC, "--format", "xml"],
    ["classify", SPEC, "--format", ""], ["classify", "--", SPEC], ["classify", SPEC, "--"],
    ["classify", "-", "--format", "json"], ["classify", "--format", "json", SPEC],
    ["classify", SPEC, "--bogus", "1"], ["classify", SPEC, "-x", "1"],
    ["witness", SPEC, "--target", "1/2"], ["witness", "--target", "1/2", "--eps", "1/100"],
    ["witness", SPEC, "--tar", "1/2", "--eps", "1/100"],
    ["witness", SPEC, "--target", "x", "--eps", "1/100"],
    ["witness", SPEC, "--target", "-1/2", "--eps", "1/100"],
    ["witness", SPEC, "--target", "1/2", "--eps", "1/0"],
    ["witness", SPEC, "--target", "1/2", "--eps", "1/100", "--start", "-1"],
    ["witness", SPEC, "--target", "1/2", "--eps", "1/100", "--max", "3"],
    ["witness", SPEC, "--target", "1/2", "--eps", "1/100", "--state-cap", "1.5"],
    ["sample", SPEC, "--seed", str(1 << 64)], ["sample", SPEC, "--seed", "x"],
    ["sample", SPEC, "--samples", ""], ["sample", SPEC, "--out", "--format"],
    ["sample", SPEC, "--seed=5"],
    ["oracle", SPEC], ["oracle", SPEC, "--targets", "1/2"],
    ["oracle", SPEC, "--targets", "1/2", "1/3", "--format", "json"],
    ["oracle", SPEC, "--format", "json", "--targets", "1/2", "1/3"],
    ["oracle", SPEC, "--targets", "x"], ["oracle", SPEC, "--length", "2"],
    ["report", SPEC, "--max-block", "-3"], ["report", SPEC, "--delta", "1/0"],
    ["convert", SPEC], ["convert", SPEC, "--from", "table"], ["convert", SPEC, "--fr", "factor"],
    ["convert", "--from", "factor"], ["convert", SPEC, "--from", "factor", "--out"],
]


def _argparse(argv):
    """vars() of argparse's namespace, or None where argparse exits."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return vars(_PARSER.parse_args(argv))
        except SystemExit:
            return None


def _assert_agrees(argv):
    fast = _plain_args(argv)
    expected = _argparse(argv)
    if expected is None:
        assert fast is None, argv
    elif fast is not None:
        assert vars(fast) == expected, argv
    return fast


@pytest.mark.parametrize("command", sorted(OPTIONS))
def test_plain_forms_in_every_order(command):
    required = {"witness": 2, "convert": 1}.get(command, 0)   # the first pairs
    pairs = OPTIONS[command]
    plain = 0
    for order in itertools.permutations(pairs):
        argv = [command, SPEC, *itertools.chain.from_iterable(order)]
        plain += _assert_agrees(argv) is not None
        # each option again with a later value: the last one counts
        again = [command, SPEC, *itertools.chain.from_iterable(order), *order[0]]
        _assert_agrees(again)
    # the command's own defaults, from its positional and required options alone
    base = [command, SPEC, *itertools.chain.from_iterable(pairs[:required])]
    plain += _assert_agrees(base) is not None
    assert plain == (0 if command == "oracle" else 1 + len(list(itertools.permutations(pairs))))


def test_repeated_options_keep_the_last_value():
    argv = ["report", SPEC, "--start", "1", "--seed", "3", "--start", "2"]
    assert vars(_assert_agrees(argv))["start"] == 2


def test_an_empty_value_is_plain():
    assert vars(_assert_agrees(["sample", "", "--out", ""]))["out"] == ""


@pytest.mark.parametrize("argv", ODD, ids=lambda argv: " ".join(argv) or "empty")
def test_other_argv_goes_to_argparse(argv):
    assert _assert_agrees(argv) is None


def test_main_without_argv_reads_sys_argv(monkeypatch, capsys):
    argv = ["classify", str(SPEC_DIR / "powers_half.spec"), "--format", "json"]
    assert main(argv) == 0
    expected = capsys.readouterr()

    def refuse(*args, **kwargs):
        raise AssertionError("a plain argv reached argparse")

    monkeypatch.setattr(sys, "argv", ["kriegerlab", *argv])
    monkeypatch.setattr(cli._PARSER, "parse_args", refuse)
    assert main() == 0
    assert capsys.readouterr() == expected


def _workload_argvs(workload, tmp_path):
    with pytest.MonkeyPatch.context() as monkeypatch:
        _load_benchmark_module(monkeypatch, "checks")
        corpus = _load_benchmark_module(monkeypatch, "corpus")
        return [op.argv for op in corpus.build(workload, 1, tmp_path, SPEC_DIR)]


@pytest.mark.parametrize("workload", ["classify_corpus", "report_sampling", "witness_exact"])
def test_every_benchmark_argv_but_a_target_list_is_plain(workload, tmp_path):
    # an oracle's --targets list is argparse's to parse
    for argv in _workload_argvs(workload, tmp_path):
        fast = _assert_agrees(argv)
        assert (fast is None) == ("--targets" in argv), argv
