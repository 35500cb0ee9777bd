import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from condexp import (
    as_wce,
    proportional_instance,
    random_instance,
    sigma_p_equals_sigma_jp_check,
    symmetric_interval_example,
)
from condexp import cli
from condexp.cli import (
    EXIT_BAD_INPUT,
    EXIT_CHECK_FAILED,
    EXIT_OK,
    build_parser,
    instance_from_json,
    instance_to_json,
    main,
)
from condexp.verification import Tolerances


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSerialization:
    def test_round_trip_is_bit_identical(self):
        original = random_instance(11, 12, 4)
        data = json.loads(json.dumps(instance_to_json(original)))
        restored = instance_from_json(data)
        np.testing.assert_array_equal(restored.space.weights, original.space.weights)
        assert [list(b) for b in restored.algebra.blocks] == [
            list(b) for b in original.algebra.blocks
        ]
        np.testing.assert_array_equal(restored.u.values, original.u.values)
        np.testing.assert_array_equal(restored.w.values, original.w.values)

    def test_real_values_accepted_as_plain_numbers(self):
        data = {
            "weights": [1.0, 2.0],
            "blocks": [[0, 1]],
            "u": [1, 2],
            "w": [[0, 1], 3],
        }
        inst = instance_from_json(data)
        np.testing.assert_array_equal(inst.u.values, [1, 2])
        np.testing.assert_array_equal(inst.w.values, [1j, 3])

    def test_malformed_file_raises(self):
        with pytest.raises(ValueError):
            instance_from_json({"weights": [1.0]})


class TestGen:
    def test_writes_file_that_round_trips(self, capsys, tmp_path):
        out = tmp_path / "inst.json"
        code, _, _ = run_cli(
            capsys,
            ["gen", "--random", "--seed", "3", "--points", "10", "--blocks", "3", "-o", str(out)],
        )
        assert code == EXIT_OK
        reparsed = instance_from_json(json.loads(out.read_text()))
        original = random_instance(3, 10, 3)
        np.testing.assert_array_equal(reparsed.u.values, original.u.values)
        np.testing.assert_array_equal(reparsed.space.weights, original.space.weights)

    def test_stdout_output_is_valid_json(self, capsys):
        code, out, _ = run_cli(capsys, ["gen", "--example", "symmetric", "--n", "4"])
        assert code == EXIT_OK
        data = json.loads(out)
        assert len(data["weights"]) == 8


class TestVerify:
    def test_symmetric_example_passes(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--example", "symmetric", "--n", "12"])
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["summary"]["all_passed"]
        assert report["summary"]["failed"] == 0

    def test_random_seed_42_passes(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["verify", "--random", "--seed", "42", "--points", "16", "--blocks", "4"],
        )
        assert code == EXIT_OK
        assert json.loads(out)["summary"]["all_passed"]

    def test_multiple_random_instances(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "verify", "--random", "--seed", "5", "--points", "8",
                "--blocks", "3", "--count", "3",
            ],
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert len(report["results"]) == 3

    def test_count_runs_every_proportional_seed(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "verify", "--proportional", "--seed", "1", "--points", "8",
                "--blocks", "3", "--count", "3",
            ],
        )
        assert code == EXIT_OK
        labels = [r["instance"] for r in json.loads(out)["results"]]
        assert labels == [f"proportional seed={s}" for s in (1, 2, 3)]

    @pytest.mark.parametrize(
        "argv",
        [
            ["--random", "--count", "0"],
            ["--proportional", "--count", "-1"],
            ["--example", "symmetric", "--n", "4", "--count", "2"],
        ],
    )
    def test_bad_count_is_rejected(self, capsys, argv):
        code, out, err = run_cli(capsys, ["verify", *argv])
        assert code == EXIT_BAD_INPUT
        assert "--count" in err
        assert out == ""

    def test_bad_instance_in_a_count_run_writes_no_report(self, capsys):
        code, out, err = run_cli(
            capsys, ["verify", "--random", "--count", "3", "--points", "2", "--blocks", "5"]
        )
        assert code == EXIT_BAD_INPUT
        assert "n_blocks" in err
        assert out == ""

    def test_count_builds_each_instance_when_it_is_verified(self, capsys, monkeypatch):
        """``--count`` builds one instance, verifies it, then builds the
        next: at the k-th verify_instance call k instances were built."""
        builds, built_at_verify = [], []

        def counted(*args, _original=cli.random_instance, **kwargs):
            builds.append(args[0])
            return _original(*args, **kwargs)

        def recorded(instance, tols, _original=cli.verify_instance):
            built_at_verify.append(len(builds))
            return _original(instance, tols)

        monkeypatch.setattr(cli, "random_instance", counted)
        monkeypatch.setattr(cli, "verify_instance", recorded)
        code, _, _ = run_cli(
            capsys,
            ["verify", "--random", "--seed", "5", "--points", "8", "--blocks", "3", "--count", "3"],
        )
        assert code == EXIT_OK
        assert builds == [5, 6, 7]
        assert built_at_verify == [1, 2, 3]

    def test_count_with_file_is_rejected(self, capsys, tmp_path):
        path = tmp_path / "inst.json"
        run_cli(capsys, ["gen", "--random", "--points", "6", "--blocks", "2", "-o", str(path)])
        code, _, _ = run_cli(capsys, ["verify", str(path), "--count", "2"])
        assert code == EXIT_BAD_INPUT

    def test_file_input(self, capsys, tmp_path):
        out_path = tmp_path / "inst.json"
        run_cli(
            capsys,
            ["gen", "--proportional", "--seed", "1", "--points", "9", "--blocks", "3",
             "-o", str(out_path)],
        )
        code, out, _ = run_cli(capsys, ["verify", str(out_path)])
        assert code == EXIT_OK
        assert json.loads(out)["summary"]["all_passed"]

    @pytest.mark.parametrize("command", ["verify", "classify"])
    def test_w_near_one_under_a_loose_psd_tolerance_is_valid(self, capsys, tmp_path, command):
        """w = 1 + 1e-5 counts as w = 1 at --tol-psd 1e-3 but not at the
        spectrum tolerance: verify must skip the w = 1 analyses, not reject
        the instance."""
        data = instance_to_json(symmetric_interval_example(4))
        data["w"] = [[1.0 + 1e-5, 0.0]] * len(data["w"])
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, [command, str(path), "--tol-psd", "1e-3"])
        assert code in (EXIT_OK, EXIT_CHECK_FAILED), err
        json.loads(out)


class TestBadInput:
    def test_zero_weight_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "weights": [1.0, 0.0],
            "blocks": [[0, 1]],
            "u": [1, 1],
            "w": [1, 1],
        }))
        code, _, err = run_cli(capsys, ["inspect", str(bad)])
        assert code == EXIT_BAD_INPUT
        assert "error" in err

    def test_non_integer_block_index(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "weights": [1.0, 1.0],
            "blocks": [[0, 1.7]],
            "u": [1, 1],
            "w": [1, 1],
        }))
        code, _, err = run_cli(capsys, ["inspect", str(bad)])
        assert code == EXIT_BAD_INPUT
        assert "non-integer" in err

    @pytest.mark.parametrize(
        "key, values",
        [("weights", [True, 1.0]), ("u", [True, 1]), ("w", [1, [1, True]])],
    )
    def test_boolean_value(self, capsys, tmp_path, key, values):
        data = {"weights": [1.0, 1.0], "blocks": [[0, 1]], "u": [1, 1], "w": [1, 1]}
        data[key] = values
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code, _, err = run_cli(capsys, ["inspect", str(bad)])
        assert code == EXIT_BAD_INPUT
        assert "True" in err

    @pytest.mark.parametrize("block", [[0, True], [True, 0]])
    def test_boolean_block_index(self, capsys, tmp_path, block):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "weights": [1.0, 1.0],
            "blocks": [block],
            "u": [1, 1],
            "w": [1, 1],
        }))
        code, _, err = run_cli(capsys, ["inspect", str(bad)])
        assert code == EXIT_BAD_INPUT
        assert "True" in err

    @pytest.mark.parametrize("command", ["inspect", "classify", "spectrum", "verify", "gen"])
    def test_nested_block(self, capsys, tmp_path, command):
        """A block given as a list of lists is not an atom of the partition."""
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "weights": [1, 2, 1, 1],
            "blocks": [[[0, 1], [2, 3]]],
            "u": [1, 2, 3, 1],
            "w": [1, 1, 2, 1],
        }))
        code, out, err = run_cli(capsys, [command, str(bad)])
        assert code == EXIT_BAD_INPUT
        assert out == ""
        assert "block 0" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, ["inspect", str(tmp_path / "nope.json")])
        assert code == EXIT_BAD_INPUT

    def test_invalid_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, _ = run_cli(capsys, ["inspect", str(bad)])
        assert code == EXIT_BAD_INPUT

    def test_no_source_given(self, capsys):
        code, _, err = run_cli(capsys, ["inspect"])
        assert code == EXIT_BAD_INPUT
        assert "instance source" in err

    @pytest.mark.parametrize("command", ["verify", "classify", "spectrum"])
    @pytest.mark.parametrize("flag", ["--tol-psd", "--tol-spec", "--tol-support"])
    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    def test_invalid_tolerance_is_rejected(self, capsys, command, flag, value):
        """A negative tolerance fails every check and an infinite or NaN one
        decides them vacuously: each is invalid input."""
        argv = [command, "--random", "--points", "12", "--blocks", "3", flag, value]
        code, out, err = run_cli(capsys, argv)
        assert code == EXIT_BAD_INPUT
        assert out == ""
        assert "finite and >= 0" in err

    @pytest.mark.parametrize("field", ["psd", "match", "spectrum", "support", "gap"])
    @pytest.mark.parametrize("value", [-1e-9, float("nan"), float("inf")])
    def test_tolerances_reject_invalid_values(self, field, value):
        with pytest.raises(ValueError, match=field):
            Tolerances(**{field: value})

    @pytest.mark.parametrize("command", ["inspect", "classify", "spectrum", "verify", "gen"])
    def test_tolerance_flags_default_to_tolerances(self, command):
        args = build_parser().parse_args([command])
        defaults = Tolerances()
        assert (args.tol_psd, args.tol_spec, args.tol_support) == (
            defaults.psd,
            defaults.spectrum,
            defaults.support,
        )

    @pytest.mark.parametrize("flag", ["--tol-psd", "--tol-spec", "--tol-support"])
    def test_zero_tolerance_is_accepted(self, capsys, flag):
        code, _, _ = run_cli(capsys, ["classify", "--random", "--points", "12", flag, "0"])
        assert code == EXIT_OK


class TestInspect:
    def test_reports_moments_and_norm(self, capsys):
        code, out, _ = run_cli(
            capsys, ["inspect", "--random", "--seed", "1", "--points", "8", "--blocks", "2"]
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["instance"]["points"] == 8
        assert report["instance"]["blocks"] == 2
        assert len(report["moments"]["E_uw"]) == 8
        assert report["norm_closed_form"] > 0

    def test_pretty_mode_is_not_json(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["inspect", "--random", "--seed", "1", "--points", "6", "--blocks", "2", "--pretty"],
        )
        assert code == EXIT_OK
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)
        assert "norm_closed_form" in out


class TestSupports:
    """S = S(E|u|^2), G = S(E|w|^2) and S' = S(E(u)) as the reports give
    them, on an instance where the three differ: E|u|^2 = (1, 1, 0, 2.5, 2.5),
    E|w|^2 = (2.5, 2.5, 9, 0, 0) and E(u) = (0, 0, 0, 1.5, 1.5)."""

    INSTANCE = {
        "weights": [1, 1, 2, 1, 1],
        "blocks": [[0, 1], [2], [3, 4]],
        "u": [1, -1, 0, 2, 1],
        "w": [1, 2, 3, 0, 0],
    }

    def _report(self, capsys, tmp_path, command):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(self.INSTANCE))
        code, out, _ = run_cli(capsys, [command, str(path)])
        assert code == EXIT_OK
        return json.loads(out)

    def test_inspect_lists_the_supports(self, capsys, tmp_path):
        report = self._report(capsys, tmp_path, "inspect")
        assert report["supports"] == {"S": [0, 1, 3, 4], "G": [0, 1, 2], "S_prime": [3, 4]}

    def test_classify_reports_unequal_supports(self, capsys, tmp_path):
        verdicts = self._report(capsys, tmp_path, "classify")["verdicts"]
        a_verdict = next(v for v in verdicts if v["class"] == "A")
        assert a_verdict["supports_equal"] is False

    def test_spectrum_reports_uncovered_supports(self, capsys, tmp_path):
        spectrum = self._report(capsys, tmp_path, "spectrum")["spectrum"]
        assert spectrum["supports_cover_all"] is False
        assert spectrum["zero_in_spectrum"] is True


class TestClassify:
    def test_proportional_instance_verdicts(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["classify", "--proportional", "--seed", "2", "--points", "10", "--blocks", "3"],
        )
        assert code == EXIT_OK
        report = json.loads(out)
        by_class = {v["class"]: v for v in report["verdicts"]}
        assert by_class["quasi_star_A"]["definitional"]
        assert by_class["quasi_star_A"]["sufficient_criterion"]
        assert abs(report["cauchy_schwarz_gap"]["max"]) <= 1e-9

    def test_symmetric_example_includes_normality(self, capsys):
        code, out, _ = run_cli(capsys, ["classify", "--example", "symmetric", "--n", "10"])
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["normality_equivalence"]["is_normal"]
        assert report["normality_equivalence"]["consistent"]

    def test_generic_random_omits_normality(self, capsys):
        code, out, _ = run_cli(
            capsys, ["classify", "--random", "--seed", "0", "--points", "8", "--blocks", "2"]
        )
        assert code == EXIT_OK
        assert "normality_equivalence" not in json.loads(out)


class TestSpectrum:
    def test_symmetric_example(self, capsys):
        code, out, _ = run_cli(capsys, ["spectrum", "--example", "symmetric", "--n", "8"])
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["spectrum"]["match"]
        # u = x^2 - 1 is negative on (0, 1), so all closed-form values are real
        for re, im in report["spectrum"]["closed_form_nonzero"]:
            assert re < 0 and abs(im) < 1e-12
        assert report["spectral_radius_closed_form"] <= report["operator_norm"] + 1e-12

    def test_random_instance_matches(self, capsys):
        code, out, _ = run_cli(
            capsys, ["spectrum", "--random", "--seed", "9", "--points", "12", "--blocks", "4"]
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["spectrum"]["match"]
        assert len(report["spectrum"]["numeric_eigenvalues"]) == 12

    def test_joint_point_spectrum_is_the_check_set(self, capsys):
        code, out, _ = run_cli(
            capsys, ["spectrum", "--proportional", "--seed", "2", "--points", "10", "--blocks", "3"]
        )
        assert code == EXIT_OK
        report = json.loads(out)
        W = as_wce(proportional_instance(2, 10, 3))
        expected = sigma_p_equals_sigma_jp_check(W).joint_point_spectrum
        assert report["joint_point_spectrum"] == [[z.real, z.imag] for z in expected]
        assert "point_spectrum_closed_form" not in report


class TestReportedOnce:
    def test_verify_of_the_guard_mismatch_instance_passes(self, capsys, tmp_path):
        """The instance whose sums fell under expectation_norms' guard but
        not the lines' verifies with every check passed and no traceback."""
        from test_operator_algebra import GUARD_MISMATCH

        path = tmp_path / "instance.json"
        path.write_text(json.dumps(GUARD_MISMATCH), encoding="utf-8")
        code, out, err = run_cli(capsys, ["verify", str(path)])
        assert code == EXIT_OK and "Traceback" not in err
        assert json.loads(out)["summary"]["passed"] == 25

    def test_invalid_input_is_one_stderr_line(self):
        """Invalid input is reported once, as the ``error:`` line, with
        exit code 2, in a process of its own so that no logging setup of
        another test hides a second report."""
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": f"{src}{os.pathsep}{os.environ.get('PYTHONPATH', '')}"}
        argv = ["verify", "--random", "--points", "2", "--blocks", "5"]
        proc = subprocess.run(
            [sys.executable, "-m", "condexp.cli", *argv], capture_output=True, text=True, env=env
        )
        assert proc.returncode == EXIT_BAD_INPUT
        assert proc.stderr.splitlines() == ["error: need 1 <= n_blocks <= n_points"]
