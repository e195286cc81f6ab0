import argparse
import collections
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from maxclass import cli
from maxclass.cli import main
from maxclass.lazard import BchTable
from maxclass.verify import scan_conjecture1

SRC = Path(__file__).resolve().parents[1] / "src"
README = Path(__file__).resolve().parents[1] / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_jacobi_text_and_exit(capsys):
    code, out, _ = run(capsys, "jacobi", "--p", "5", "--i", "7", "--coeff", "1")
    assert code == 0
    assert "lambda = 24" in out and "3i+3-p = 19" in out


def test_jacobi_json_deterministic(capsys):
    code1, out1, _ = run(capsys, "jacobi", "--p", "5", "--i", "7", "--coeff", "1",
                         "--format", "json")
    code2, out2, _ = run(capsys, "jacobi", "--p", "5", "--i", "7", "--coeff", "1",
                         "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2
    obj = json.loads(out1)
    assert obj["lambda"] == {"exact": True, "value": 24}


def test_jacobi_rejects_zero_coefficients(capsys):
    code, _, err = run(capsys, "jacobi", "--p", "5", "--i", "7", "--coeff", "0")
    assert code == 2
    assert "Hhat" in err


@pytest.mark.parametrize("command", [["jacobi"], ["build", "--m", "5"]])
@pytest.mark.parametrize("value", ["x", "1.5", "", "1,2"])
def test_bad_coeff_names_the_flag(capsys, command, value):
    # a value that is not one integer per coefficient is a config error that names --coeff
    code, out, err = run(capsys, *command, "--p", "5", "--i", "3", "--coeff", value)
    want = f"--coeff {value!r}: expected 1 comma-separated integer(s) c_2..c_{{(p-1)/2}}"
    assert (code, out, err) == (2, "", f"config error: {want}\n")


def test_bad_prime_is_config_error(capsys):
    code, _, err = run(capsys, "jacobi", "--p", "6", "--i", "7", "--coeff", "1")
    assert code == 2


def test_build_mainline_and_branch(capsys):
    code, out, _ = run(capsys, "build", "--p", "5", "--i", "7", "--m", "15", "--coeff", "1")
    assert code == 0 and "mainline" in out
    code, out, _ = run(capsys, "build", "--p", "5", "--i", "7", "--m", "17", "--coeff", "2",
                       "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["classification"] == "branch"
    assert obj["order_exp"] == 11
    assert obj["maximal_class_verified"] is True


def test_build_refuses_m_beyond_lambda(capsys):
    code, _, err = run(capsys, "build", "--p", "5", "--i", "7", "--m", "30", "--coeff", "1")
    assert code == 2 and "lambda" in err


def test_enumerate_writes_outputs(capsys, tmp_path):
    dot = tmp_path / "tree.dot"
    js = tmp_path / "tree.json"
    code, out, _ = run(capsys, "enumerate", "--p", "5", "--i", "7", "--m-max", "17",
                       "--out-dot", str(dot), "--out-json", str(js))
    assert code == 0
    assert dot.read_text().startswith("digraph")
    obj = json.loads(js.read_text())
    assert len(obj["nodes"]) == 11 and len(obj["edges"]) == 10
    assert "membership_shift_note" in obj


def test_enumerate_budget_exhausted_exit_3(capsys):
    code, _, err = run(capsys, "enumerate", "--p", "5", "--i", "7", "--m-max", "12",
                       "--coeff-mod", "3", "--budget", "10")
    assert code == 3 and "budget" in err.lower()


def test_config_file_merging(capsys, tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("p = 5\ni = 7\ncoeff = 1\n# comment\nm-work = 40\n")
    code, out1, _ = run(capsys, "jacobi", "--config", str(cfgfile))
    assert code == 0 and "lambda = 24" in out1
    # explicit flag overrides the file
    code, out2, _ = run(capsys, "jacobi", "--config", str(cfgfile), "--coeff", "2")
    assert code == 0 and "lambda = 24" in out2


def test_config_keys_are_flag_names(capsys, tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("p = 5\ni = 7\ncoeff = 1\nformat = json\n")
    code, out, _ = run(capsys, "jacobi", "--config", str(cfgfile))
    assert code == 0
    assert json.loads(out)["lambda"] == {"exact": True, "value": 24}


@pytest.mark.parametrize("line", ["inject-fault = bhc", "fmt = json", "m_work = 40",
                                  "no-such-flag = 1"])
def test_config_errors_exit_like_bad_flags(capsys, tmp_path, line):
    # a bad value or an unknown key fails in the argument parser, as the flag would
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"p = 5\nquick = yes\n{line}\n")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--config", str(cfgfile)])
    assert exc.value.code == 2
    assert "overall" not in capsys.readouterr().out


def test_config_unknown_key_names_file_and_line(capsys, tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("p = 5\ni = 7\n# comment\ncoeff = 1\nfmt = xml\n")
    with pytest.raises(SystemExit) as exc:
        main(["jacobi", "--config", str(cfgfile)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"{cfgfile}:5: unknown key 'fmt'" in err
    assert "maxclass jacobi: error" in err


@pytest.mark.parametrize("value", ["no", "0", "False"])
def test_config_false_quick_reaches_the_parser(capsys, tmp_path, value):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"p = 5\ni = 7\ncoeff = 1\nquick = {value}\n")
    with pytest.raises(SystemExit) as exc:
        main(["jacobi", "--config", str(cfgfile)])
    assert exc.value.code == 2
    assert f"{cfgfile}:4: unknown key 'quick'" in capsys.readouterr().err


@pytest.mark.parametrize("lines, argv, quick", [
    ("quick = no", [], False), ("quick = 0", [], False), ("quick = yes", [], True),
    ("quick = TRUE", [], True), ("", [], False), ("quick = no", ["--quick"], True),
    ("quick = yes", ["--no-quick"], False)])
def test_config_quick_sets_verify_quick(capsys, tmp_path, monkeypatch, lines, argv, quick):
    seen = []
    monkeypatch.setattr(cli.verify_mod, "run_all",
                        lambda p, quick, seed, fault: seen.append(quick) or [])
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"p = 5\n{lines}\n")
    code, _, _ = run(capsys, "verify", "--config", str(cfgfile), *argv)
    assert code == 0 and seen == [quick]


def test_config_quick_bad_value_names_file_and_line(capsys, tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("p = 5\n\nquick = maybe\n")
    code, out, err = run(capsys, "verify", "--config", str(cfgfile))
    assert code == 2 and not out
    assert f"{cfgfile}:3: quick must be" in err and "'maybe'" in err


# each subcommand takes only the flags its command reads; these it used to ignore
DROPPED_FLAGS = [("jacobi", "seed"), ("jacobi", "budget"), ("build", "seed"), ("build", "budget"),
                 ("enumerate", "seed"), ("verify", "m-work"), ("verify", "budget"),
                 ("scan-conjecture1", "seed")]


@pytest.mark.parametrize("command,key", DROPPED_FLAGS, ids=[f"{c}-{k}" for c, k in DROPPED_FLAGS])
def test_flag_the_command_does_not_read_exits_2(capsys, tmp_path, command, key):
    with pytest.raises(SystemExit) as exc:
        main([command, f"--{key}", "3"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: --{key} 3" in capsys.readouterr().err
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"p = 5\n{key} = 3\n")
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(cfgfile)])
    assert exc.value.code == 2
    assert f"{cfgfile}:2: unknown key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    "jacobi --p 5 --i 7 --coeff 1 --m-work 0",
    "build --p 5 --i 7 --m 16 --coeff 1 --m-work 0",
    "enumerate --p 5 --i 7 --m-max 12 --m-work 0",
    "scan-conjecture1 --p 5 --i-max 6 --m-work 0",
])
def test_m_work_zero_is_a_config_error(capsys, argv):
    # an explicit 0 reaches PrimeContext; the derived default applies only to an absent flag
    code, out, err = run(capsys, *argv.split())
    assert code == 2 and not out and "M_work must be >= 1" in err


def test_enumerate_m_max_below_i_exit_2(capsys):
    code, out, err = run(capsys, "enumerate", "--p", "5", "--i", "7", "--m-max", "6")
    assert code == 2 and not out and "below i" in err


@pytest.mark.parametrize("argv", [
    "enumerate --p 5 --i 0 --m-max 5",
    "build --p 5 --i 0 --m 3 --coeff 1",
])
def test_i_zero_exit_2(capsys, argv):
    # L_(0,m)(gamma) is not nilpotent for m >= 2: one line of stderr, no traceback
    code, out, err = run(capsys, *argv.split())
    assert code == 2 and not out
    assert err.count("\n") == 1 and "i >= 1" in err


@pytest.mark.parametrize("content, error", [
    ("[1]", "TypeError"), ('[{"p": 5}]', "KeyError"), ('{"a": 1}', "TypeError"),
    ('[{"p": 7, "prec": 10, "digits": ["1"]}]', "ContextMismatch"),
    ('[{"p": 5, "prec": 30, "digits": ["0", "0", "0", "0", "1"]}]', "5 digits, more than p-1 = 4"),
    ("[]", "expected 1 images, got 0"),
    ('[{"p": 5, "prec": 30, "digits": ["1", "0", "0", "0"]}]',
     "an image lies outside P^7, so the images define no member of Hhat_3"),
    ('[{"p": 5, "prec": 60, "digits": ["0", "0", "0", "125"]}]',
     "probe images do not define a member of Hhat_3"),
    ('[{"p": 5, "prec": 7, "digits": ["0", "0", "0", "0"]}]',
     "image 1 is known only mod P^7; at i = 3 every image needs a precision above 7"),
    ('[{"p": 5, "prec": -2, "digits": ["0", "0", "0", "0"]}]',
     "image 1 is known only mod P^-2; at i = 3 every image needs a precision above 7"),
    ('[{"p": 5, "prec": 30, "digits": "1000"}]', "ValueError: digits must be a list, got '1000'"),
    ('[{"p": 5, "prec": 30, "digits": [1.5, 0, 0, 0]}]',
     "ValueError: digits entry 1.5 is neither an int nor a decimal string of one"),
    ('[{"p": 5, "prec": 30, "digits": [true]}]',
     "ValueError: digits entry True is neither an int nor a decimal string of one"),
    ('[{"p": 5, "prec": 30, "digits": ["1e3"]}]',
     "ValueError: digits entry '1e3' is neither an int nor a decimal string of one"),
    ('[{"p": 5, "prec": 30.9, "digits": ["0"]}]', "ValueError: prec must be an int, got 30.9"),
    ('[{"p": 5, "prec": true, "digits": ["0"]}]', "ValueError: prec must be an int, got True")],
    ids=["int", "missing-keys", "object", "other-prime", "five-digits", "no-images",
         "image-below-target", "not-a-member", "prec-at-shift", "negative-prec",
         "digits-string", "digit-float", "digit-bool", "digit-not-decimal", "prec-float",
         "prec-bool"])
def test_bad_images_json_is_config_error(capsys, tmp_path, content, error):
    # a file that is not a list of probe images of this p, or whose images
    # define no member of Hhat_i, is a config error naming the file, not a
    # traceback with the suite-violation exit code
    path = tmp_path / "images.json"
    path.write_text(content)
    for command in (["jacobi"], ["build", "--m", "8"]):
        code, out, err = run(capsys, *command, "--p", "5", "--i", "3", "--images-json", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"config error: {path}: ") and error in err
        assert err.count("\n") == 1


def test_m_work_at_the_vandermonde_shift_is_a_resource_limit(capsys):
    # the Vandermonde data divide by kappa^{2i+1}: a larger --m-work mends this,
    # so it stays a resource limit, unlike an image file's own precision
    code, out, err = run(capsys, "jacobi", "--p", "5", "--i", "3", "--coeff", "1", "--m-work", "7")
    assert (code, out, err) == (3, "", "resource limit: precision 7 <= shift 7\n")
    code, out, err = run(capsys, "jacobi", "--p", "5", "--i", "3", "--coeff", "1", "--m-work", "8")
    assert code == 0 and err == ""


def test_coeff_and_images_json_are_exclusive(capsys, tmp_path):
    images = tmp_path / "images.json"
    images.write_text("[]")
    with pytest.raises(SystemExit) as exc:
        main(["jacobi", "--p", "7", "--i", "9", "--images-json", str(images), "--coeff", "9,9,9"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


@pytest.mark.parametrize("lines, argv, line, message", [
    ("coeff = 1,3\n", ["--images-json", "F"], 3,
     "argument --images-json: not allowed with argument --coeff"),
    ("images-json = F\n", ["--coeff", "1,3"], 3,
     "argument --coeff: not allowed with argument --images-json"),
    ("coeff = 1,3\n# comment\nimages-json = F\n", [], 5,
     "argument --images-json: not allowed with argument --coeff"),
], ids=["file-coeff", "file-images-json", "file-both"])
def test_config_coeff_images_json_clash_names_the_line(capsys, tmp_path, lines, argv, line,
                                                       message):
    images = tmp_path / "images.json"
    images.write_text("[]")
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("p = 7\ni = 9\n" + lines.replace("F", str(images)))
    argv = [str(images) if a == "F" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(["jacobi", "--config", str(cfgfile), *argv])
    assert exc.value.code == 2
    assert f"maxclass jacobi: error: {cfgfile}:{line}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["help", "config"])
def test_config_help_and_config_are_unknown_keys(capsys, tmp_path, key):
    # as flags, --help would print the help and exit 0, and a second --config would be ignored
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"p = 7\n{key} = 1\n")
    with pytest.raises(SystemExit) as exc:
        main(["jacobi", "--config", str(cfgfile), "--i", "9", "--coeff", "1,3"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert not out.out and f"{cfgfile}:2: unknown key {key!r}" in out.err


def test_scan_i_max_negative_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["scan-conjecture1", "--p", "5", "--i-max", "-1"])
    assert exc.value.code == 2
    assert "argument --i-max: must be >= 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("line, message", [
    ("inject-fault = bhc", "argument --inject-fault: invalid choice: 'bhc'"),
    ("seed = x", "argument --seed: invalid int value: 'x'"),
    ("p = ", "argument --p: invalid int value: ''"),
])
def test_config_bad_value_names_file_and_line(capsys, tmp_path, line, message):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"p = 5\n# comment\nquick = yes\n{line}\n")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--config", str(cfgfile)])
    assert exc.value.code == 2
    assert f"maxclass verify: error: {cfgfile}:4: {message}" in capsys.readouterr().err


def test_help_shows_every_constant_default():
    _, subparsers = cli._build_parser()
    for name, sp in subparsers.items():
        text = " ".join(sp.format_help().split())
        for action in sp._actions:
            if action.default not in (None, argparse.SUPPRESS):
                assert f"(default: {action.default})" in text, (name, action.dest)


def readme_command_line():
    return README.read_text().split("## Command line\n", 1)[1].split("\n## ", 1)[0]


def test_readme_command_lines_parse():
    # every `maxclass ...` line of the README's shell block parses with the real parser
    block = readme_command_line().split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0].strip() for line in block.replace("\\\n", " ").splitlines()]
    commands = [shlex.split(line) for line in lines if line.startswith("maxclass ")]
    ap, subparsers = cli._build_parser()
    for argv in commands:
        ap.parse_args(argv[1:])   # exits 2 on an unknown or malformed flag
    assert {argv[1] for argv in commands} == set(subparsers)


def test_readme_lists_each_subcommands_flags():
    rows = {m[1]: set(re.findall(r"`(--[a-z-]+)`", m[2]))
            for m in re.finditer(r"^\| `([a-z0-9-]+)` \|(.*)\|$", readme_command_line(), re.M)}
    _, subparsers = cli._build_parser()
    assert rows == {name: {opt for a in sp._actions for opt in a.option_strings} - {"-h", "--help"}
                    for name, sp in subparsers.items()}


def test_scan_conjecture1(capsys):
    code, out, _ = run(capsys, "scan-conjecture1", "--p", "5", "--i-max", "6",
                       "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["unresolved_atleast"] == 0
    assert all(e["exact"] for e in obj["entries"])


def test_verify_quick_passes(capsys):
    code, out, _ = run(capsys, "verify", "--p", "5", "--quick")
    assert code == 0
    assert "overall: PASS" in out


def test_verify_fault_injection_fails(capsys):
    code, out, _ = run(capsys, "verify", "--p", "5", "--quick", "--inject-fault", "epsilon")
    assert code == 1
    assert "image_valuations" in out and "FAIL" in out
    code, out, _ = run(capsys, "verify", "--p", "5", "--quick", "--inject-fault", "bch")
    assert code == 1
    assert "overall: FAIL" in out


def test_bch_regen_round_trip(capsys, tmp_path):
    out_file = tmp_path / "bch.json"
    code, out, _ = run(capsys, "bch-regen", "--max-class", "4", "--out", str(out_file))
    assert code == 0
    tab = BchTable.from_json(json.loads(out_file.read_text()))
    assert tab.max_class == 4 and tab.self_test(4)


def test_scan_conjecture1_counts_undecided_membership(capsys):
    # at M_work = 20, 15 grid points have Hhat_i membership undecided
    report = scan_conjecture1(5, 12, m_work=20)
    assert len(report["entries"]) == 55
    assert report["unresolved_atleast"] == 31
    undecided = [e for e in report["entries"] if e["lambda"] is None]
    assert len(undecided) == 15
    assert all(e["exact"] is False and "undecided" in e["flag"] for e in undecided)
    code, out, _ = run(capsys, "scan-conjecture1", "--p", "5", "--i-max", "12",
                       "--m-work", "20")
    assert code == 0 and "55 grid points" in out and "31 unresolved" in out


def test_undecidable_scan_output_pinned(capsys):
    # 55 entries, 31 unresolved: 15 undecided Hhat_i points and 16 AtLeast lambda values
    code, out, _ = run(capsys, "scan-conjecture1", "--p", "5", "--i-max", "12",
                       "--m-work", "20", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "613e06344e846ccfa0bf5e4570fc3bbde381981575e022f6ef90442b406ddddc")


IDENTITY_LIST = [
    ("enumerate --p 5 --i 7 --m-max 20 --coeff-mod 1",
     "bbe330b76cafa1557ab5eca83540841cf30b800f8f1f6e5b284e26a00fea7cd1"),
    ("enumerate --p 5 --i 7 --m-max 20 --coeff-mod 2",
     "e74ba8eee02cccdd18cb19067cd59f7581965f87adb93c8b4ae83fe5cc337ec2"),
    ("build --p 5 --i 7 --m 16 --coeff 1",
     "67eeb9c07f9377f32de98a1c65bb46b7fb94f3fb52836f7f94631267440e5515"),
    ("verify --p 5 --quick",
     "335b527d77c71ebc2a8822323292791bccff1ee211ff0fafd7be68edcd2e18cf"),
    ("jacobi --p 7 --i 9 --coeff 1,3",
     "dfe1692c2b9de1159caac7a83014edb7db60f2685063e075033ab2da7d74bde6"),
    # the perfbench enumerate-p7 job: 7 lines mod P, so it pins the pair order
    # across the classes of the level below, which the one-line p = 5 grids cannot
    ("enumerate --p 7 --i 9 --m-max 18 --coeff-mod 1",
     "2ff70a90cb16b258c188f2bafbcf0756bd1ccad8b48530af22fdb146e97affb4"),
    # the perfbench scan-p7 job: 7 lines mod P per level, so it pins the per-line
    # lambda of the scan, which the one-line p = 5 grids cannot
    ("scan-conjecture1 --p 7 --i-max 14",
     "90376987470adde85218df2cb6522c16440395428ad62db6cf1343a61854278a"),
    # every kept gamma has m_top = 6 > p i = 5, so enumerate_frame sweeps its
    # Lie series for class < p: the one pinned tree that takes that path
    ("enumerate --p 5 --i 1 --coeff-mod 1",
     "0a7f468bfbe879059a5874e81396fba68ca37ec6808671a89b9c345c8833e341"),
    # a scan whose grid digits go beyond digit 0 (25 residues mod P^2), with
    # 155 of its 275 entries unresolved at M_work 20
    ("scan-conjecture1 --p 5 --i-max 12 --m-work 20 --coeff-mod 2",
     "5d4a957b9cae13d8832d3e017227625bd89d9d87df80ea25d3c907a0d56f5454"),
    # lambda at p = 11 on a whole grid: 1,331 lines mod P, four coefficients each
    ("scan-conjecture1 --p 11 --i-max 0",
     "b28ecfaca5b4bf1bd05eb89c51e5fa9120df3a2b7549288780906b4606a33f0c"),
]


def stdlib_json(obj) -> str:
    """The oracle of cli._write_json: the stdlib's indented, key-sorted text."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def written_json(obj) -> str:
    parts = []
    cli._write_json(obj, parts.append)
    return "".join(parts)


@pytest.mark.parametrize("argv,digest", IDENTITY_LIST, ids=[a for a, _ in IDENTITY_LIST])
def test_identity_list_output_pinned(capsys, monkeypatch, argv, digest):
    # sha256 of the `--format json` output; any change in it is a changed answer
    payloads = []
    write_json = cli._write_json
    monkeypatch.setattr(cli, "_write_json", lambda obj, write: payloads.append(obj)
                        or write_json(obj, write))
    code, out, _ = run(capsys, *argv.split(), "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert len(payloads) == 1 and out == stdlib_json(payloads[0])


def test_json_output_never_calls_json_dumps(capsys, monkeypatch):
    # the stdlib's indented encoder is pure Python; --format json must not fall back to it
    def refuse(*args, **kwargs):
        raise AssertionError("json.dumps called")
    monkeypatch.setattr(json, "dumps", refuse)
    argv, digest = IDENTITY_LIST[0]
    code, out, _ = run(capsys, *argv.split(), "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_json_file_outputs_equal_stdout(capsys, tmp_path):
    argv = "enumerate --p 5 --i 7 --m-max 20 --coeff-mod 1 --format json".split()
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out
    f, g = tmp_path / "out.json", tmp_path / "tree.json"
    code, out_f, _ = run(capsys, *argv, "--out", str(f))
    assert code == 0 and out_f == ""
    assert f.read_bytes() == out.encode()
    code, out_g, _ = run(capsys, *argv, "--out-json", str(g))
    assert code == 0 and out_g == out
    assert g.read_bytes() == out.encode()


def test_enumerate_formats_json_once_for_two_destinations(capsys, monkeypatch, tmp_path):
    # --out-json and --format json take the chunks of one _write_json pass, whether
    # the second destination is standard output or --out
    argv = "enumerate --p 5 --i 7 --m-max 20 --coeff-mod 1 --format json".split()
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out
    calls = []
    write_json = cli._write_json
    monkeypatch.setattr(cli, "_write_json", lambda obj, write: calls.append(obj)
                        or write_json(obj, write))
    f, g = tmp_path / "out.json", tmp_path / "tree.json"
    code, out_f, _ = run(capsys, *argv, "--out", str(f), "--out-json", str(g))
    assert code == 0 and out_f == "" and len(calls) == 1
    assert f.read_bytes() == g.read_bytes() == out.encode()
    g.unlink()
    code, out_g, _ = run(capsys, *argv, "--out-json", str(g))
    assert code == 0 and out_g == out and len(calls) == 2
    assert g.read_bytes() == out.encode()


def test_write_json_streams_in_chunks(capsys, monkeypatch):
    code, out, _ = run(capsys, "scan-conjecture1", "--p", "7", "--i-max", "14", "--format", "json")
    assert code == 0
    monkeypatch.setattr(cli, "_FLUSH_EVERY", 100)
    parts = []
    cli._write_json(json.loads(out), parts.append)
    assert "".join(parts) == out
    assert len(parts) > 10 and max(map(len, parts)) < len(out) / 10


# the payloads the commands build: dicts with str keys, lists, tuples, str,
# int (big ones too), bool and None
json_scalars = st.text() | st.integers() | st.integers(min_value=2 ** 64) | st.booleans() | st.none()


def json_containers(children):
    return (st.lists(children, max_size=5) | st.lists(children, max_size=5).map(tuple)
            | st.dictionaries(st.text(), children, max_size=5))


json_values = st.recursive(json_scalars, json_containers, max_leaves=25)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(json_values, st.integers(min_value=1, max_value=8))
def test_write_json_matches_json_dumps(obj, flush_every):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_FLUSH_EVERY", flush_every)
        assert written_json(obj) == stdlib_json(obj)


class Label(str):
    def __repr__(self):
        return "Label()"


class Count(int):
    def __repr__(self):
        return "Count()"


class Ratio(float):
    def __repr__(self):
        return "Ratio()"


class Row(list):
    pass


class Table(dict):
    pass


# fixed ids, so that a case keeps its name when cases are added or moved
@pytest.mark.parametrize("obj", [
    "\x00\x1f\u00e9\u2028\U0001f600\"\\", 10 ** 40, pytest.param([[]], id="obj10"),
    pytest.param([{}], id="obj11"), pytest.param({"a": [[], {}, ()]}, id="obj12"),
    pytest.param((1, (2, ())), id="obj13"), pytest.param([True, False, None], id="obj18")])
def test_write_json_matches_json_dumps_on_edge_cases(obj):
    assert written_json(obj) == stdlib_json(obj)


@pytest.mark.parametrize("obj", [
    object(), [1, {"a": {2, 3}}], {"a": 1, 2: 3}, {(1, 2): 3}, {"x": b"bytes"}, [1j]])
def test_write_json_raises_type_error_where_json_does(obj):
    with pytest.raises(TypeError):
        stdlib_json(obj)
    with pytest.raises(TypeError):
        written_json(obj)


@pytest.mark.parametrize("obj, name", [
    ([Label("a\u00e9"), Count(7), Ratio(0.5), Ratio(float("nan")), Row([Count(1)])], "Label"),
    (Table({Count(2): Label("b"), 3.5: Row(), True: Table()}), "Table"),
    ({Label("k"): collections.OrderedDict(b=1, a=2)}, "OrderedDict"),
    (float("nan"), "float"), (float("inf"), "float"), (-float("inf"), "float"), (-0.0, "float"),
    (1e300, "float"), ({1: 0, 1.5: 1, True: 2}, "int"), ({False: 0, 2: 1}, "bool"),
    ({None: [None]}, "NoneType"), ({float("nan"): 1, float("-inf"): 2}, "float")])
def test_write_json_raises_type_error_off_the_payload_types(obj, name):
    # json writes each of these, but no command builds a float, a value of a
    # subclass or a key that is not a str; the message names the type refused
    with pytest.raises(TypeError, match=rf"\b{name}\b"):
        written_json(obj)


def test_enumerate_text_output_pinned(capsys):
    # the DOT labels hash each class's first member with sha256
    code, out, _ = run(capsys, "enumerate", "--p", "5", "--i", "7", "--m-max", "20",
                       "--coeff-mod", "1")
    assert code == 0 and "digraph frame {" in out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "40bcef2ad1604d8635b102b24f22f1b59aacea1594a180eedad793ea0f597b39"


def test_import_leaves_unused_stdlib_modules_unloaded():
    # under python -S no site hook preloads anything; importing the CLI and
    # loading the packaged BCH table imports none of these
    absent = ("dataclasses", "inspect", "hashlib", "_hashlib", "importlib.resources", "typing")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import maxclass.cli; "
            "from maxclass.lazard import build_bch_table; build_bch_table(6, p=7); "
            "print([m for m in sys.argv[2:] if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(SRC), *absent],
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


def test_enumerate_json_independent_of_hash_seed():
    argv = [sys.executable, "-m", "maxclass.cli", "enumerate", "--p", "5", "--i", "7",
            "--m-max", "20", "--coeff-mod", "1", "--format", "json"]
    path = os.pathsep.join([str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        outs.append(subprocess.run(argv, env=env, capture_output=True, check=True).stdout)
    assert outs[0] and outs[0] == outs[1]


def kappa_denominator_images(tmp_path):
    """A probe-image file at p = 7, i = 9 whose coefficient vector has kappa-denominators."""
    from maxclass import PrimeContext
    ctx = PrimeContext(7, 60)
    images = [ctx.kappa_power(19) * ctx.element(digs)
              for digs in ([1, 2, 0, 3, 0, 1], [2, 0, 1, 0, 4, 0])]
    path = tmp_path / "images.json"
    path.write_text(json.dumps([x.to_json() for x in images]))
    return str(path)


def test_jacobi_images_json_with_kappa_denominators_pinned(capsys, tmp_path):
    # probe images whose coefficient vector has kappa-denominators: lambda takes
    # the nested gamma_eval route, whose AtLeast labels this digest pins
    from maxclass import GammaCoeffs, PrimeContext
    code, out, _ = run(capsys, "jacobi", "--p", "7", "--i", "9",
                       "--images-json", kappa_denominator_images(tmp_path), "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "bffd3571609725fa652a91619927a34c2a7045bacdc76212768115849b7bdc5e"
    g = GammaCoeffs.from_json(PrimeContext(7, 60), json.loads(out)["coeffs"], check=False)
    assert any(c.den_exp > 0 for c in g.coeffs)


@pytest.mark.parametrize("m_work", [12, 19, 20, 30, 40, 45, 55])
def test_images_known_beyond_m_work_are_read_at_m_work(capsys, tmp_path, m_work):
    # images known mod P^60 give what the file reduced to --m-work gives; at
    # or below the shift 2i+1 = 19 the division of the images still fails
    from maxclass import CycElt, PrimeContext
    full, ctx = kappa_denominator_images(tmp_path), PrimeContext(7, 60)
    reduced = tmp_path / "reduced.json"
    reduced.write_text(json.dumps([CycElt.from_json(ctx, obj).reduce_to(m_work).to_json()
                                   for obj in json.loads(Path(full).read_text())]))
    for command in (["jacobi"], ["build", "--m", "16"]):
        argv = [*command, "--p", "7", "--i", "9", "--m-work", str(m_work), "--format", "json",
                "--images-json"]
        got = run(capsys, *argv, full)
        if m_work <= 19:
            assert got == (3, "", f"resource limit: precision {m_work} <= shift 19\n")
        else:
            assert got[1] and not got[2]
            assert got == run(capsys, *argv, str(reduced))


def test_jacobi_bound_undecided_below_it_exits_3(capsys, tmp_path):
    # at --m-work 20 the probe images give only lambda >= 16, which decides
    # nothing about lambda >= 3i+3-p = 23: undecided (null, exit 3), not violated
    argv = ["jacobi", "--p", "7", "--i", "9", "--images-json", kappa_denominator_images(tmp_path)]
    assert run(capsys, *argv, "--m-work", "20") == (3, "J_9(gamma) = P^lambda with lambda >= 16"
                                                    "  (lower bound 3i+3-p = 23, undecided at --m-work 20)\n", "")
    code, out, err = run(capsys, *argv, "--m-work", "20", "--format", "json")
    obj = json.loads(out)
    assert (code, err, obj["lambda"]) == (3, "", {"value": 16, "exact": False})
    assert obj["bound_applicable"] is True and obj["bound_satisfied"] is None
    # a lower bound at or above 23 decides it, as an exact lambda does
    for m_work, lam in (("30", {"value": 26, "exact": False}), ("60", {"value": 26, "exact": True})):
        code, out, _ = run(capsys, *argv, "--m-work", m_work, "--format", "json")
        obj = json.loads(out)
        assert (code, obj["lambda"], obj["bound_satisfied"]) == (0, lam, True)


TABLE_PINS = [
    ("build --p 7 --i 9 --m 16 --images-json F",
     "117d273f8d8985d682fa3d964a8ff1b1d0c443b19df89d197280d123d3f954bd"),
    ("build --p 7 --i 9 --m 24 --images-json F",
     "6c14be3eef39406793b058051e26c50cd872eea30eebc3ba9fffff42e46e8501"),
    ("build --p 11 --i 13 --m 32 --coeff 1,0,0,0",
     "95d19c33667d8a3d724a2b2dca2438f2812b8b4b4179a3b22d9c602bb2fa009a"),
    ("jacobi --p 11 --i 13 --coeff 1,2,3,4",
     "48093c4814861c079221cb4ca0f784d35217914f930ca01faa3d836e7fc4c937"),
]


@pytest.mark.parametrize("argv,digest", TABLE_PINS, ids=[a for a, _ in TABLE_PINS])
def test_bracket_table_outputs_pinned(capsys, tmp_path, argv, digest):
    # rings on the bracket table beyond the identity list: a class-1 and a
    # class-2 ring with kappa-denominators (F is the probe-image file above),
    # a class-2 ring and a lambda at p = 11
    argv = [kappa_denominator_images(tmp_path) if a == "F" else a for a in argv.split()]
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
