import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mmdist import mm_space, observable_distance, read_space, sample_mu_r, write_space
from mmdist.cli import _COMMANDS, build_parser, main
from mmdist.matrixdist import _isomorphisms


@pytest.fixture
def spaces(tmp_path):
    x = tmp_path / "x.json"
    y = tmp_path / "y.json"
    write_space(x, mm_space([0.5, 0.5], [[0, 1], [1, 0]]))
    write_space(y, mm_space([0.5, 0.5], [[0, 2], [2, 0]]))
    return x, y


def run_json(capsys, argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith("{") else out


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def exit_code(argv):
    """Exit status of ``mmdist argv``, whether returned or raised by argparse."""
    try:
        return main([str(a) for a in argv])
    except SystemExit as exc:
        return exc.code


class TestBoxCommand:
    def test_identical_files_give_zero(self, tmp_path, capsys, spaces):
        x, _ = spaces
        code, rep = run_json(capsys, ["box", x, x, "--lambda", "1.0"])
        assert code == 0
        assert rep["result"]["value"] == 0.0

    def test_golden_pair(self, capsys, spaces):
        x, y = spaces
        code, rep = run_json(capsys, ["box", x, y, "--lambda", "1.0"])
        assert code == 0
        assert rep["result"]["value"] == 0.5
        assert rep["result"]["mode"] == "exact"
        assert rep["inputs"]["x"]["sha256"]

    def test_missing_input_exits_one(self, capsys, tmp_path):
        assert main(["box", str(tmp_path / "nope.json"), str(tmp_path / "nope.json")]) == 1

    def test_negative_seed_exits_one_naming_it(self, capsys, spaces):
        # printed numpy's message, which does not name the seed
        x, y = spaces
        assert exit_code(["box", x, y, "--mode", "heuristic", "--seed", "-1"]) == 1
        assert "seed must be nonnegative and a whole number, got -1" in capsys.readouterr().err

    def test_size_limit_exits_two(self, tmp_path, capsys):
        n = 9
        p = tmp_path / "big.json"
        write_space(p, mm_space(np.ones(n) / n, np.ones((n, n)) - np.eye(n)))
        assert main(["box", str(p), str(p), "--max-cells", "64"]) == 2

    @pytest.mark.parametrize("command", ["box", "hlip"])
    @pytest.mark.parametrize("limit", ["0", "-1"])
    def test_max_cells_below_one_exits_one(self, capsys, spaces, command, limit):
        # -1 was passed to the solver and refused as a size limit (exit 2)
        x, y = spaces
        assert exit_code([command, x, y, "--max-cells", limit]) == 1
        assert "--max-cells" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["box", "hlip", "converge-report"])
    def test_fractional_max_cells_names_the_flag(self, capsys, spaces, command):
        # the flag's own argparse type named itself ("invalid _size_limit value")
        x, y = spaces
        files = [x] if command == "converge-report" else [x, y]
        assert exit_code([command, *files, "--max-cells", "2.5"]) == 1
        err = capsys.readouterr().err
        assert "--max-cells must be at least 1 and a whole number, got 2.5" in err
        assert "_size_limit" not in err

    def test_whole_max_cells_is_echoed_as_an_int(self, capsys, spaces):
        x, y = spaces
        code, rep = run_json(capsys, ["box", x, y, "--max-cells", "1e2"])
        assert code == 0 and rep["config"]["max_cells"] == 100
        assert json.dumps(rep["config"]["max_cells"]) == "100"

    def test_invalid_space_exits_one(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"labels": ["a"], "weights": [-1.0], "dist": [[0.0]]}))
        assert main(["box", str(p), str(p)]) == 1


@pytest.mark.parametrize("lam", ["nan", "inf", "-inf"])
def test_non_finite_lambda_exits_one(tmp_path, capsys, spaces, lam):
    x, y = spaces
    f = tmp_path / "f.json"
    f.write_text("[0.3, 0.0]")
    for argv in (
        ["box", x, y],
        ["hlip", x, y],
        ["me", x, "--f", f, "--g", f],
    ):
        assert main([str(a) for a in argv] + [f"--lambda={lam}"]) == 1, argv
        assert "lambda" in capsys.readouterr().err


@pytest.mark.parametrize("lam", ["-inf", "-nan", "-1e-3"])
def test_option_like_lambda_is_a_usage_error(capsys, spaces, lam):
    # argparse reads these values as an option; that is a user error (exit 1),
    # not a size-limit refusal (exit 2)
    x, _ = spaces
    assert exit_code(["box", x, x, "--lambda", lam]) == 1
    assert "expected one argument" in capsys.readouterr().err


def test_missing_arguments_exit_one(capsys, spaces):
    x, _ = spaces
    assert exit_code([]) == 1
    assert exit_code(["box", x]) == 1


def test_unknown_flag_after_subcommand_prints_its_usage(capsys, spaces):
    # the top-level usage was printed
    x, y = spaces
    assert exit_code(["box", x, y, "--bogus"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: mmdist box [-h] ")
    assert "mmdist box: error: unrecognized arguments: --bogus" in err


def test_each_input_file_is_read_once(tmp_path, capsys, spaces, monkeypatch):
    # the digest was taken from one read and the parse from a second one
    x, _ = spaces
    f = tmp_path / "f.json"
    f.write_text("[0.3, 0.0]")
    reads = []
    for name in ("read_bytes", "read_text"):
        real = getattr(Path, name)
        monkeypatch.setattr(
            Path, name, lambda self, *a, real=real, **k: reads.append(self) or real(self, *a, **k)
        )
    code, rep = run_json(capsys, ["me", x, "--f", f, "--g", f])
    assert code == 0
    assert len(reads) == 3
    assert rep["inputs"]["f"]["sha256"] == sha256(f)


class TestCommandTable:
    """The subcommand table must reproduce the hand-written parsers' usage."""

    USAGE = {
        "validate": "usage: mmdist validate [-h] [--out OUT] space\n",
        "box": "usage: mmdist box [-h] [--lambda LAM] [--mode MODE] [--seed SEED]\n"
        "                  [--max-cells MAX_CELLS] [--out OUT]\n"
        "                  x y\n",
        "me": "usage: mmdist me [-h] --f F --g G [--lambda LAM] [--out OUT] space\n",
        "hlip": "usage: mmdist hlip [-h] [--lambda LAM] [--mode MODE] [--seed SEED]\n"
        "                   [--samples SAMPLES] [--max-cells MAX_CELLS] [--out OUT]\n"
        "                   x y\n",
        "matdist": "usage: mmdist matdist [-h] [--r R] [--samples SAMPLES] [--seed SEED]\n"
        "                      [--out OUT]\n"
        "                      space\n",
        "isotest": "usage: mmdist isotest [-h] [--max-r MAX_R] [--out OUT] x y\n",
        "prokhorov": "usage: mmdist prokhorov [-h] --mu MU --nu NU [--out OUT] space\n",
        "witness": "usage: mmdist witness [-h] [--seed SEED] [--out OUT] xn x\n",
        "converge-report": "usage: mmdist converge-report [-h] [--sizes SIZES] [--seed SEED]\n"
        "                              [--max-cells MAX_CELLS] [--out OUT]\n"
        "                              space\n",
        "dominate": "usage: mmdist dominate [-h] [--out OUT] x y\n",
        "homogeneous": "usage: mmdist homogeneous [-h] [--out OUT] space\n",
        "suite": "usage: mmdist suite [-h] [--properties PROPERTIES] [--seed SEED]\n"
        "                    [--samples SAMPLES] [--out OUT]\n",
    }

    def test_usage_lines_are_frozen(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage at the terminal width
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        assert {name: p.format_usage() for name, p in sub.choices.items()} == self.USAGE

    def test_readme_synopsis_lists_every_subcommand(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        synopsis = readme.split("## CLI", 1)[1].split("```")[1]
        listed = [line.split()[1] for line in synopsis.splitlines() if line.startswith("mmdist ")]
        assert sorted(listed) == sorted(_COMMANDS)


class TestValidateCommand:
    def test_valid_space(self, capsys, spaces):
        x, _ = spaces
        code, rep = run_json(capsys, ["validate", x])
        assert code == 0 and rep["result"]["ok"]

    def test_invalid_space_is_reported_not_raised(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(
            json.dumps({"labels": ["a", "b"], "weights": [1, 1], "dist": [[0, 1], [2, 0]]})
        )
        code, rep = run_json(capsys, ["validate", str(p)])
        assert code == 0
        assert not rep["result"]["ok"]
        assert rep["result"]["violations"]

    @pytest.mark.parametrize(
        "weights,dist",
        [
            ([True, True], [[False, True], [True, False]]),  # was "ok": true
            ([0.5, 0.5], [[0, True], [True, 0]]),
            (["0.5", 0.5], [[0, 1], [1, 0]]),  # numpy reads the string as 0.5
            ([0.5, 0.5], [[0, 10**400], [10**400, 0]]),  # an OverflowError traceback
        ],
        ids=["booleans", "boolean-distance", "string", "huge-integer"],
    )
    def test_non_numeric_entry_exits_one(self, tmp_path, capsys, weights, dist):
        p = tmp_path / "s.json"
        p.write_text(json.dumps({"labels": ["a", "b"], "weights": weights, "dist": dist}))
        assert main(["validate", str(p)]) == 1
        assert "non-numeric entry" in capsys.readouterr().err


class TestOtherCommands:
    def test_isotest_distinguishes_golden_pair(self, capsys, spaces):
        x, y = spaces
        code, rep = run_json(capsys, ["isotest", x, y])
        assert code == 0
        assert rep["result"]["verdict"] == "distinguished"
        assert rep["result"]["distinguishing_r"] == 2

    @pytest.mark.parametrize("max_r", ["0", "-2"])
    def test_isotest_nonpositive_max_r_exits_one(self, capsys, spaces, max_r):
        x, y = spaces
        assert exit_code(["isotest", x, y, "--max-r", max_r]) == 1
        assert "--max-r must be at least 1" in capsys.readouterr().err

    def test_me_command(self, tmp_path, capsys, spaces):
        x, _ = spaces
        f = tmp_path / "f.json"
        g = tmp_path / "g.json"
        f.write_text("[0.3, 0.0]")
        g.write_text("[0.0, 0.0]")
        code, rep = run_json(capsys, ["me", x, "--f", f, "--g", g, "--lambda", "1.0"])
        assert code == 0 and rep["result"]["value"] == 0.3
        for name, path in {"space": x, "f": f, "g": g}.items():
            assert rep["inputs"][name] == {"path": str(path), "sha256": sha256(path)}

    def test_hlip_size_limit_exits_two(self, capsys, spaces):
        x, y = spaces
        assert main(["hlip", str(x), str(y), "--lambda", "0", "--max-cells", "3"]) == 2
        assert "exact box solve refuses 4 coupling cells (limit 3)" in capsys.readouterr().err

    def test_hlip_exact0(self, capsys, spaces):
        x, y = spaces
        code, rep = run_json(capsys, ["hlip", x, y, "--lambda", "0"])
        assert code == 0
        assert rep["result"]["value"] == 0.5
        assert rep["result"]["tag"] == "exact"

    def test_observable_distance_default_limit_matches_hlip(self, tmp_path, capsys):
        # observable_distance refused this 5x5 pair under its own default of
        # 16 cells, while hlip answered it under the --max-cells default of 64
        rng = np.random.default_rng(55)
        paths = []
        for name in ("x", "y"):
            d = np.triu(rng.integers(100, 201, size=(5, 5)), 1) * 0.01
            paths.append(tmp_path / f"{name}.json")
            write_space(paths[-1], mm_space(rng.integers(1, 5, size=5) / 4.0, d + d.T))
        code, rep = run_json(capsys, ["hlip", *paths, "--lambda", "0"])
        assert code == 0
        X, Y = (read_space(p) for p in paths)
        res = observable_distance(X, Y, 0.0)
        assert res.tag == "exact" and rep["result"]["value"] == res.value

    def test_prokhorov_command(self, tmp_path, capsys, spaces):
        x, _ = spaces
        mu = tmp_path / "mu.json"
        nu = tmp_path / "nu.json"
        mu.write_text("[0.7, 0.3]")
        nu.write_text("[0.5, 0.5]")
        code, rep = run_json(capsys, ["prokhorov", x, "--mu", mu, "--nu", nu])
        assert code == 0 and abs(rep["result"]["value"] - 0.2) < 1e-9
        for name, path in {"space": x, "mu": mu, "nu": nu}.items():
            assert rep["inputs"][name] == {"path": str(path), "sha256": sha256(path)}

    def test_witness_command(self, capsys, spaces):
        x, _ = spaces
        code, rep = run_json(capsys, ["witness", x, x])
        assert code == 0
        assert rep["result"]["eps"] == 0.0
        assert rep["result"]["box1_upper_bound"] == 0.0

    def test_matdist_command(self, capsys, spaces):
        x, _ = spaces
        code, rep = run_json(capsys, ["matdist", x, "--r", "2"])
        assert code == 0
        assert len(rep["result"]["entries"]) == 2

    def test_matdist_samples_draw_from_the_seed(self, capsys, spaces):
        x, _ = spaces
        code, rep = run_json(capsys, ["matdist", x, "--r", "2", "--samples", "5", "--seed", "7"])
        want = sample_mu_r(read_space(x), 2, 5, seed=7).to_jsonable()
        assert code == 0 and rep["result"] == json.loads(json.dumps(want))

    def test_matdist_large_r_exits_two(self, capsys, spaces):
        # exited 1 on the ValueError of formatting 2 ** 10000 into the message
        x, _ = spaces
        assert exit_code(["matdist", x, "--r", "10000"]) == 2
        assert "size limit: exact_mu_r refuses order r = 10000 on 2 support points" in capsys.readouterr().err

    @pytest.mark.parametrize("r", ["0", "-1"])
    @pytest.mark.parametrize("samples", [[], ["--samples", "5"]])
    def test_matdist_r_below_one_exits_one(self, capsys, spaces, r, samples):
        x, _ = spaces
        assert exit_code(["matdist", x, "--r", r] + samples) == 1
        assert "r must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag", [("matdist", "--r"), ("isotest", "--max-r")])
    def test_fractional_count_flag_names_itself(self, capsys, spaces, command, flag):
        # --r 2.5 met argparse's "invalid int value: '2.5'"
        x, y = spaces
        files = [x] if command == "matdist" else [x, y]
        assert exit_code([command, *files, flag, "2.5"]) == 1
        assert f"{flag} must be at least 1 and a whole number, got 2.5" in capsys.readouterr().err
        assert exit_code([command, *files, flag, "two"]) == 1
        assert f"{flag} must be a number, got 'two'" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, key", [("matdist", "--r", "r"), ("isotest", "--max-r", "max_r")])
    def test_whole_count_flag_is_echoed_as_an_int(self, capsys, spaces, command, flag, key):
        x, y = spaces
        files = [x] if command == "matdist" else [x, y]
        code, rep = run_json(capsys, [command, *files, flag, "2.0"])
        assert code == 0 and json.dumps(rep["config"][key]) == "2"
        assert rep == {**run_json(capsys, [command, *files, flag, "2"])[1], "wall_time_s": rep["wall_time_s"]}

    def test_hlip_zero_samples_draws_none(self, tmp_path, capsys):
        X = mm_space([0.8, 0.3, 0.3], [[0, 1.65, 1.34], [1.65, 0, 1.88], [1.34, 1.88, 0]])
        Y = mm_space([0.7, 0.7], [[0, 1.89], [1.89, 0]])
        x, y = tmp_path / "x.json", tmp_path / "y.json"
        write_space(x, X)
        write_space(y, Y)
        none = observable_distance(X, Y, 1.0, "sampled", samples=0).value
        assert none != observable_distance(X, Y, 1.0, "sampled").value  # 48 samples differ here
        code, rep = run_json(capsys, ["hlip", x, y, "--samples", "0"])
        assert code == 0 and rep["result"]["value"] == none

    @pytest.mark.parametrize("command", ["hlip", "matdist"])
    @pytest.mark.parametrize("samples", ["0.5", "-3"])
    def test_non_whole_samples_exit_one(self, capsys, spaces, command, samples):
        x, y = spaces
        argv = ["hlip", x, y] if command == "hlip" else ["matdist", x]
        assert exit_code(argv + ["--samples", samples]) == 1
        assert "whole number" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        ["[true, false]", '["0.3", 0]', "[null, 0]", f"[{10**400}, 0]"],
        ids=["boolean", "string", "null", "huge-integer"],
    )
    def test_non_numeric_function_exits_one(self, tmp_path, capsys, spaces, text):
        # a JSON boolean was read as 1.0 or 0.0
        x, _ = spaces
        f, g = tmp_path / "f.json", tmp_path / "g.json"
        f.write_text(text)
        g.write_text("[0.0, 0.0]")
        assert main(["me", str(x), "--f", str(f), "--g", str(g), "--lambda", "1"]) == 1
        assert "non-numeric entry" in capsys.readouterr().err

    def test_non_finite_function_exits_one(self, tmp_path, capsys):
        # NaN reached the threshold search and exited 3
        space = tmp_path / "s.json"
        write_space(space, mm_space([0.25, 0.25, 0.5], [[0, 1, 2], [1, 0, 1], [2, 1, 0]]))
        f, g = tmp_path / "f.json", tmp_path / "g.json"
        f.write_text("[0, NaN, 1]")
        g.write_text("[0, 0, 0]")
        for lam in ("0", "1"):
            assert main(["me", str(space), "--f", str(f), "--g", str(g), "--lambda", lam]) == 1
            assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["NaN", "Infinity"])
    def test_non_finite_weighting_exits_one(self, tmp_path, capsys, bad):
        # NaN exited 3; Infinity exited 1 as "requires equal total masses"
        space = tmp_path / "s.json"
        write_space(space, mm_space([0.25, 0.25, 0.5], [[0, 1, 2], [1, 0, 1], [2, 1, 0]]))
        mu, nu = tmp_path / "mu.json", tmp_path / "nu.json"
        mu.write_text(f"[0.5, {bad}, 0.5]")
        nu.write_text("[0.25, 0.5, 0.25]")
        assert main(["prokhorov", str(space), "--mu", str(mu), "--nu", str(nu)]) == 1
        err = capsys.readouterr().err
        assert "finite" in err and "equal total" not in err

    def test_dominate_command(self, capsys, spaces):
        x, y = spaces
        code, rep = run_json(capsys, ["dominate", y, x])
        assert code == 0 and rep["result"]["dominates"]

    def test_dominate_without_a_certificate(self, capsys, spaces):
        # the narrower space cannot dominate the wider one
        x, y = spaces
        code, rep = run_json(capsys, ["dominate", x, y])
        assert code == 0 and rep["result"] == {"dominates": False, "p": None, "c": None}

    @pytest.mark.parametrize(
        "text, value",
        [('[0.3, 0.0]', 0.3), ('{"values": [0.3, 0.0]}', 0.3), ('{"vals": [0.3, 0.0]}', None), ("0.3", None)],
        ids=["array", "values-object", "other-object", "number"],
    )
    def test_vector_file_forms(self, tmp_path, capsys, spaces, text, value):
        # an array, or an object holding one under "values"; anything else is a user error
        x, _ = spaces
        f, g = tmp_path / "f.json", tmp_path / "g.json"
        f.write_text(text)
        g.write_text("[0.0, 0.0]")
        argv = ["me", x, "--f", f, "--g", g, "--lambda", "1"]
        if value is None:
            assert exit_code(argv) == 1
            captured = capsys.readouterr()
            assert f"{f}: expected a JSON array of numbers for f" in captured.err and captured.out == ""
        else:
            code, rep = run_json(capsys, argv)
            assert code == 0 and rep["result"]["value"] == value

    def test_homogeneous_command(self, capsys, spaces):
        x, _ = spaces
        code, rep = run_json(capsys, ["homogeneous", x])
        assert code == 0
        assert rep["result"]["homogeneous"] is True
        assert rep["result"]["isometry_group_order"] == 2

    def test_homogeneous_size_limit_exits_two(self, tmp_path, capsys):
        n = 9
        p = tmp_path / "big.json"
        write_space(p, mm_space(np.ones(n) / n, np.ones((n, n)) - np.eye(n)))
        assert main(["homogeneous", str(p)]) == 2
        assert "isometry_group refuses support size 9 (limit 8)" in capsys.readouterr().err

    def test_homogeneous_searches_isometries_once(self, monkeypatch, capsys, spaces):
        calls = []

        def counted(X, Y):
            calls.append(1)
            return _isomorphisms(X, Y)

        monkeypatch.setattr("mmdist.matrixdist._isomorphisms", counted)
        monkeypatch.setattr("mmdist.limits._isomorphisms", counted)
        x, _ = spaces
        code, rep = run_json(capsys, ["homogeneous", x])
        assert code == 0 and rep["result"]["homogeneous"] is True
        assert len(calls) == 1

    def test_converge_report_csv(self, capsys, spaces):
        x, _ = spaces
        code = main(["converge-report", str(x), "--sizes", "10,100", "--seed", "2"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "N,value,mode"
        assert lines[1].startswith("10,") and lines[2].startswith("100,")

    @pytest.mark.parametrize(
        "sizes,message",
        [
            ("5,2.5", "--sizes must be at least 1 and a whole number, got 2.5"),
            ("5,0", "--sizes must be at least 1 and a whole number, got 0"),
            ("5,ten", "--sizes must be a number, got 'ten'"),
        ],
    )
    def test_converge_report_bad_sizes_name_the_flag(self, capsys, spaces, sizes, message):
        # a fractional or non-numeric size met int() ("invalid literal for int() with base 10")
        x, _ = spaces
        assert main(["converge-report", str(x), "--sizes", sizes]) == 1
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""


class TestSuiteCommand:
    def test_subset_run_passes(self, capsys):
        code, rep = run_json(
            capsys, ["suite", "--properties", "scale-roundtrip,box-triangle", "--samples", "0.4"]
        )
        assert code == 0
        assert rep["result"]["passed"]
        names = [p["name"] for p in rep["result"]["properties"]]
        assert names == ["box-triangle", "scale-roundtrip"]

    def test_zero_samples_scale_is_not_the_default(self, capsys):
        code, rep = run_json(capsys, ["suite", "--properties", "scale-roundtrip", "--samples", "0"])
        assert code == 0
        assert rep["result"]["samples"] == 0.0

    @pytest.mark.parametrize("samples", ["inf", "nan", "-3"])
    def test_bad_samples_scale_exits_one(self, capsys, samples):
        # inf ended in an OverflowError traceback; -3 ran one trial per property
        assert exit_code(["suite", "--properties", "scale-roundtrip", "--samples", samples]) == 1
        assert "samples" in capsys.readouterr().err

    def test_unknown_property_rejected(self, capsys):
        assert main(["suite", "--properties", "not-a-property"]) == 1

    def test_empty_property_selection_rejected(self, capsys):
        # ran no property and reported a pass, with exit 0
        assert main(["suite", "--properties", ","]) == 1
        captured = capsys.readouterr()
        assert "property selection" in captured.err and captured.out == ""

    def test_empty_properties_value_rejected(self, capsys):
        # an empty value read as no flag: all 27 properties ran, exit 0
        assert main(["suite", "--properties", "", "--samples", "0"]) == 1
        captured = capsys.readouterr()
        assert "property selection" in captured.err and captured.out == ""

    def test_lip_factorization_seed_three_finishes(self):
        # the pulled-back pairs of this seed reach supports 7 to 9, where an
        # enumeration of Lipschitz vertices can walk up to C(36, 8) edge
        # subsets; the property compares support closures instead and must
        # finish in seconds (test_lipschitz enumerates the vertices there)
        paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
        argv = ["suite", "--seed", "3", "--properties", "pullback-lip-factorization"]
        proc = subprocess.run(
            [sys.executable, "-m", "mmdist.cli", *argv],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["result"]["passed"] is True

    def test_determinism_excluding_wall_time(self, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        args = ["suite", "--properties", "me-metric,prokhorov-metric", "--seed", "3"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        a = json.loads(out1.read_text())
        b = json.loads(out2.read_text())
        a.pop("wall_time_s")
        b.pop("wall_time_s")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
