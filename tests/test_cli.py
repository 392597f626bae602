import math
import subprocess
import sys

import numpy as np
import pytest

from qperturb import eigensolver
from qperturb.cli import main
from qperturb.fileio import format_matrix, format_vector, parse_matrix
from qperturb.models import (
    BoxModelSpec,
    box_hamiltonian,
    box_potential_matrix,
    random_hermitian,
)
from qperturb.numkernel import HermitianMatrix

H_TEXT = "2\n0 0\n0 2\n"
HP_TEXT = "2\n0 1\n1 0\n"


@pytest.fixture
def matrix_files(tmp_path):
    h = tmp_path / "H.txt"
    hp = tmp_path / "Hp.txt"
    h.write_text(H_TEXT)
    hp.write_text(HP_TEXT)
    return str(h), str(hp)


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_module(*args):
    """``python -m qperturb`` in a fresh interpreter, output captured."""
    return subprocess.run([sys.executable, "-m", "qperturb", *args], capture_output=True)


def report_value(out, key):
    for line in out.splitlines():
        if line.startswith(f"{key} = "):
            return line.split(" = ", 1)[1]
    raise AssertionError(f"key {key!r} not found in report:\n{out}")


def parse_pairs(field):
    out = []
    for token in field.split(", "):
        re_part, im_part = token.strip("()").split(",")
        out.append(complex(float(re_part), float(im_part)))
    return out


class TestPerturbCommand:
    def test_two_by_two_level_mode(self, capsys, matrix_files):
        h, hp = matrix_files
        code, out, err = run_cli(capsys, "perturb", h, hp, "--x", "0.1", "--level", "0")
        assert code == 0 and err == ""
        assert float(report_value(out, "E1_0")) == 0.0
        assert float(report_value(out, "E_1")) == 2.0
        a = parse_pairs(report_value(out, "a"))
        assert a == pytest.approx([0.0, -0.5], abs=1e-15)
        psi1 = parse_pairs(report_value(out, "psi1"))
        assert psi1 == pytest.approx([1.0, -0.05], abs=1e-15)
        assert float(report_value(out, "residual")) == pytest.approx(
            (0.1**2 / 2) / math.sqrt(1 + 0.1**2 / 4), rel=1e-10
        )

    def test_zero_strength_reproduces_unperturbed(self, capsys, matrix_files):
        h, hp = matrix_files
        code, out, _ = run_cli(capsys, "perturb", h, hp, "--x", "0", "--level", "1")
        assert code == 0
        assert float(report_value(out, "E1")) == 2.0
        assert float(report_value(out, "E")) == 2.0
        assert float(report_value(out, "residual")) <= 1e-12

    def test_state_mode(self, capsys, tmp_path, matrix_files):
        h, hp = matrix_files
        state = tmp_path / "b.txt"
        s = 1 / math.sqrt(2)
        state.write_text(f"2\n{s!r} {s!r}\n")
        code, out, _ = run_cli(capsys, "perturb", h, hp, "--x", "0.1", "--state", str(state))
        assert code == 0
        assert report_value(out, "mode") == "state"
        assert float(report_value(out, "E")) == pytest.approx(1.0, abs=1e-15)
        a = parse_pairs(report_value(out, "a"))
        assert a == pytest.approx([s, -s], abs=1e-14)

    def test_one_hot_state_file_matches_level_mode(self, capsys, tmp_path):
        # The file's one nonzero entry is 8e-9 short of 1, inside the
        # renormalization tolerance: the state is exactly basis state 1.
        h, hp, state = tmp_path / "H.txt", tmp_path / "Hp.txt", tmp_path / "b.txt"
        run_cli(capsys, "model", "box", "--levels", "3", "--width", repr(math.pi),
                "--potential", "linear:1", "--out-h", str(h), "--out-hp", str(hp))
        state.write_text("3\n0 0.99999999235 0\n")
        reports = [
            run_cli(capsys, "perturb", str(h), str(hp), "--x", "0.1", *mode)[1].splitlines()
            for mode in (["--state", str(state)], ["--level", "1"])
        ]
        by_state, by_level = (
            [line for line in report if not line.startswith(("mode = ", "level = "))]
            for report in reports
        )
        assert by_state == by_level

    def test_degenerate_exit_code(self, capsys, tmp_path):
        h = tmp_path / "H.txt"
        hp = tmp_path / "Hp.txt"
        h.write_text("2\n1 0\n0 1\n")
        hp.write_text(HP_TEXT)
        code, out, err = run_cli(capsys, "perturb", str(h), str(hp), "--x", "0.1", "--level", "0")
        assert code == 1
        assert "DegenerateDenominator" in err

    def test_overflowing_state_norm_exit_code(self, capsys, tmp_path):
        # ||H'||_F is finite, but ||b + x a|| overflows: no zero psi1_normalized
        h = tmp_path / "H.txt"
        hp = tmp_path / "Hp.txt"
        h.write_text("4\n1 0 0 0\n0 2 0 0\n0 0 3 0\n0 0 0 4\n")
        tridiagonal = np.eye(4) + np.eye(4, k=1) + np.eye(4, k=-1)
        hp.write_text(format_matrix(HermitianMatrix(1e150 * tridiagonal)))
        with np.errstate(all="ignore"):
            code, out, err = run_cli(
                capsys, "perturb", str(h), str(hp), "--x", "1e10", "--level", "0"
            )
        assert code == 1 and out == ""
        assert err.startswith("error: ValueError: norm of b + x * corrections is not finite")

    @pytest.mark.parametrize("exponent, error", [(600, "ValueError"), (500, "DegenerateDenominator")])
    def test_overflowing_perturbation_norm_is_one_typed_error(self, tmp_path, exponent, error):
        # Levels 0 and 1 of H are degenerate and H' couples them.  At 2^600
        # ||H'||_F overflows, which would let every numerator pass as
        # negligible: the run must fail fast, not print a = 0, and numpy's
        # overflow warning must not reach stderr.
        h = tmp_path / "H.txt"
        hp = tmp_path / "Hp.txt"
        h.write_text("3\n1 0 0\n0 1 0\n0 0 2\n")
        coupling = np.zeros((3, 3))
        coupling[0, 1] = coupling[1, 0] = 2.0**exponent
        hp.write_text(format_matrix(HermitianMatrix(coupling)))
        done = _run_module("perturb", str(h), str(hp), "--x", "1e-300", "--level", "0")
        assert done.returncode == 1 and done.stdout == b""
        lines = done.stderr.decode().splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {error}: ")

    @pytest.mark.parametrize("command", ["perturb", "sweep"])
    def test_overflow_error_is_all_of_stderr(self, tmp_path, command):
        # A fresh interpreter with the default warning filters, where numpy's
        # overflow warnings would reach stderr; the error line must be all of it.
        h = tmp_path / "H.txt"
        hp = tmp_path / "Hp.txt"
        h.write_text("4\n1 0 0 0\n0 2 0 0\n0 0 3 0\n0 0 0 4\n")
        tridiagonal = np.eye(4) + np.eye(4, k=1) + np.eye(4, k=-1)
        hp.write_text(format_matrix(HermitianMatrix(1.5e308 * tridiagonal)))
        flags = ["--x", "0.01", "--level", "0"] if command == "perturb" else []
        done = _run_module(command, str(h), str(hp), *flags)
        assert done.returncode == 1 and done.stdout == b""
        lines = done.stderr.decode().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ValueError: ")

    @pytest.mark.parametrize(
        "h_text, flags, code, expect",
        [
            # H = 1 (default: test_degenerate_exit_code): every denominator is 0,
            # and the numerator 1 passes as noise up to tol_num * ||H'||_F = sqrt(2).
            ("2\n1 0\n0 1\n", ["--tol-num", "1"], 0, "(0,0), (0,0)"),
            ("2\n1 0\n0 1.000001\n", [], 0, None),
            ("2\n1 0\n0 1.000001\n", ["--tol-degen", "1e-3"], 1, None),
            # A tolerance that is NaN, infinite or negative is rejected up front.
            ("2\n1 0\n0 1\n", ["--tol-num", "nan"], 1, "ValueError"),
            ("2\n1 0\n0 1\n", ["--tol-num", "-1"], 1, "ValueError"),
            ("2\n1 0\n0 1\n", ["--tol-num", "inf"], 1, "ValueError"),
            ("2\n0 0\n0 1\n", ["--tol-degen", "nan"], 1, "ValueError"),
            ("2\n0 0\n0 1\n", ["--tol-degen", "-1"], 1, "ValueError"),
            ("2\n0 0\n0 1\n", ["--tol-degen", "inf"], 1, "ValueError"),
        ],
    )
    def test_tolerance_flags(self, capsys, tmp_path, h_text, flags, code, expect):
        """``expect``: the report's ``a`` line on exit 0, the error name on exit 1
        (``DegenerateDenominator`` when None)."""
        h = tmp_path / "H.txt"
        h.write_text(h_text)
        hp = tmp_path / "Hp.txt"
        hp.write_text(HP_TEXT)
        args = ["perturb", str(h), str(hp), "--x", "0.1", "--level", "0", *flags]
        got, out, err = run_cli(capsys, *args)
        assert got == code
        if code:
            lines = err.splitlines()
            assert out == "" and len(lines) == 1
            assert lines[0].startswith(f"error: {expect or 'DegenerateDenominator'}: ")
        else:
            assert err == ""
            if expect is not None:
                assert report_value(out, "a") == expect

    def test_missing_file_exit_code(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "perturb", str(tmp_path / "no.txt"), str(tmp_path / "no.txt"),
            "--x", "0.1", "--level", "0",
        )
        assert code == 1
        assert "error:" in err

    def test_level_out_of_range(self, capsys, matrix_files):
        h, hp = matrix_files
        code, _, err = run_cli(capsys, "perturb", h, hp, "--x", "0.1", "--level", "7")
        assert code == 1
        assert "DimensionMismatch" in err

    def test_dimension_mismatch_between_files(self, capsys, tmp_path, matrix_files):
        h, _ = matrix_files
        hp3 = tmp_path / "Hp3.txt"
        hp3.write_text("3\n0 0 0\n0 0 0\n0 0 0\n")
        code, _, err = run_cli(capsys, "perturb", h, str(hp3), "--x", "0.1", "--level", "0")
        assert code == 1
        assert "DimensionMismatch" in err


class TestSweepCommand:
    def test_default_grid_all_levels(self, capsys, matrix_files):
        h, hp = matrix_files
        code, out, _ = run_cli(capsys, "sweep", h, hp)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x,level,perturbative,exact,abs_error"
        data = [l for l in lines if l and not l.startswith("#")][1:]
        assert len(data) == 10  # 5 strengths x 2 levels
        orders = [l for l in lines if l.startswith("# order")]
        assert len(orders) == 2
        for line in orders:
            slope = float(line.split("slope=")[1])
            assert slope >= 1.8

    def test_identity_perturbation_reports_floored(self, capsys, tmp_path, matrix_files):
        h, _ = matrix_files
        hp = tmp_path / "I.txt"
        hp.write_text("2\n1 0\n0 1\n")
        code, out, _ = run_cli(capsys, "sweep", h, str(hp))
        assert code == 0
        data = [l for l in out.splitlines() if l and not l.startswith(("#", "x,"))]
        for row in data:
            assert float(row.split(",")[4]) <= 1e-12
        assert all("slope=floored" in l for l in out.splitlines() if l.startswith("# order"))

    def test_single_point_grid_rejected(self, capsys, matrix_files):
        h, hp = matrix_files
        code, _, err = run_cli(capsys, "sweep", h, hp, "--points", "1")
        assert code == 1
        assert "InsufficientData" in err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--x-min", "1e-2", "--x-max", "1e-2", "--points", "2"],
            ["--x-min", "0.1"],
            ["--points", "1"],
        ],
        ids=["equal-bounds", "x-min-at-default-x-max", "one-point"],
    )
    def test_one_strength_grid_rejected_before_any_solve(
        self, capsys, monkeypatch, matrix_files, flags
    ):
        def no_solve(*args, **kwargs):
            raise AssertionError("diagonalized before the grid was checked")

        monkeypatch.setattr(eigensolver, "_eigensystems", no_solve)
        code, out, err = run_cli(capsys, "sweep", *matrix_files, *flags)
        assert code == 1 and out == ""
        assert err.startswith("error: InsufficientData: ") and err.count("\n") == 1

    def test_custom_grid(self, capsys, matrix_files):
        h, hp = matrix_files
        code, out, _ = run_cli(
            capsys, "sweep", h, hp, "--x-min", "1e-4", "--x-max", "1e-2", "--points", "4",
            "--level", "0",
        )
        assert code == 0
        data = [l for l in out.splitlines() if l and not l.startswith(("#", "x,"))]
        assert len(data) == 4
        xs = [float(row.split(",")[0]) for row in data]
        assert xs == sorted(xs, reverse=True)
        assert xs[0] == pytest.approx(1e-2)
        assert xs[-1] == pytest.approx(1e-4)

    def test_state_mode_rows(self, capsys, tmp_path, matrix_files):
        h, hp = matrix_files
        state = tmp_path / "b.txt"
        state.write_text(format_vector(np.array([2.0, 1.0]) / math.sqrt(5.0)))
        code, out, _ = run_cli(capsys, "sweep", h, hp, "--state", str(state))
        assert code == 0
        data = [l for l in out.splitlines() if l and not l.startswith(("#", "x,"))]
        assert all(row.split(",")[1] == "-1" for row in data)
        order = [l for l in out.splitlines() if l.startswith("# order")]
        assert order and "level=-1" in order[0]

    def test_numpy_ma_not_imported(self, tmp_path):
        # A fresh interpreter: pytest or hypothesis may have imported numpy.ma here.
        spec = BoxModelSpec(4, math.pi, "linear", 1.0)
        h = tmp_path / "H.txt"
        hp = tmp_path / "Hp.txt"
        h.write_text(format_matrix(box_hamiltonian(spec)))
        hp.write_text(format_matrix(box_potential_matrix(spec)))
        script = (
            "import sys\n"
            "from qperturb import cli\n"
            f"code = cli.main(['sweep', {str(h)!r}, {str(hp)!r}])\n"
            "loaded = [m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']]\n"
            "sys.stderr.write(repr(sorted(loaded)))\n"
            "sys.exit(code)\n"
        )
        done = subprocess.run([sys.executable, "-c", script], capture_output=True)
        assert done.returncode == 0
        assert done.stdout.startswith(b"x,level,perturbative,exact,abs_error\n")
        assert done.stderr == b"[]"

    def test_byte_identical_across_processes(self, tmp_path):
        h = tmp_path / "H.txt"
        hp = tmp_path / "Hp.txt"
        h.write_text(format_matrix(random_hermitian(21, 4)))
        hp.write_text(format_matrix(random_hermitian(22, 4, 0.1)))
        cmd = [sys.executable, "-m", "qperturb", "sweep", str(h), str(hp)]
        first = subprocess.run(cmd, capture_output=True, check=True)
        second = subprocess.run(cmd, capture_output=True, check=True)
        assert first.stdout == second.stdout
        assert first.stdout.decode().startswith("x,level,perturbative,exact,abs_error\n")


class TestSpectrumCommand:
    def test_overflowing_norm_exit_code(self, tmp_path):
        # finite entries whose norm overflows: no silent eigenvalues -1 and 1
        h = tmp_path / "H.txt"
        h.write_text("2\n1 1e200\n1e200 -1\n")
        done = _run_module("spectrum", str(h))
        assert done.returncode == 1 and done.stdout == b""
        assert done.stderr.decode().splitlines() == [
            "error: ValueError: matrix norm overflows: entries too large to diagonalize"
        ]

    @pytest.mark.parametrize("token", ["1_0", "\u0661\u0662"])
    def test_non_plain_number_rejected(self, tmp_path, token):
        # float() reads both as numbers; the file grammar does not
        h = tmp_path / "H.txt"
        h.write_text(f"2\n{token} 0\n0 1\n", encoding="utf-8")
        done = _run_module("spectrum", str(h))
        assert done.returncode == 1 and done.stdout == b""
        [line] = done.stderr.decode().splitlines()
        assert line.startswith("error: ParseError: ")

    def test_reports_levels_and_vectors(self, capsys, matrix_files):
        h, _ = matrix_files
        code, out, _ = run_cli(capsys, "spectrum", h)
        assert code == 0
        assert float(report_value(out, "eigenvalue_0")) == 0.0
        assert float(report_value(out, "eigenvalue_1")) == 2.0
        phi0 = parse_pairs(report_value(out, "phi_0"))
        assert phi0 == pytest.approx([1.0, 0.0], abs=1e-15)


class TestModelCommand:
    def test_box_writes_expected_files(self, capsys, tmp_path):
        out_h = tmp_path / "H.txt"
        out_hp = tmp_path / "Hp.txt"
        code, out, _ = run_cli(
            capsys, "model", "box", "--levels", "3", "--width", repr(math.pi),
            "--potential", "const:1", "--out-h", str(out_h), "--out-hp", str(out_hp),
        )
        assert code == 0
        assert out == f"{out_h}\n{out_hp}\n"
        h = parse_matrix(out_h.read_text())
        np.testing.assert_allclose(h.array, np.diag([0.5, 2.0, 4.5]), atol=1e-12)
        hp = parse_matrix(out_hp.read_text())
        assert np.abs(hp.array - np.eye(3)).max() <= 1e-10

    def test_random_is_deterministic(self, capsys, tmp_path):
        paths = []
        for name in ("a.txt", "b.txt"):
            out_h = tmp_path / name
            code, _, _ = run_cli(
                capsys, "model", "random", "--seed", "7", "--dim", "4",
                "--out-h", str(out_h),
            )
            assert code == 0
            paths.append(out_h.read_text())
        assert paths[0] == paths[1]

    def test_unknown_potential_rejected(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "model", "box", "--levels", "2", "--width", "1.0",
            "--potential", "cubic:1", "--out-h", str(tmp_path / "H.txt"),
            "--out-hp", str(tmp_path / "Hp.txt"),
        )
        assert code == 1
        assert "ParseError" in err

    @pytest.mark.parametrize("out_hp", ["M.txt", "./M.txt"])
    def test_same_output_file_rejected(self, capsys, tmp_path, monkeypatch, out_hp):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(
            capsys, "model", "box", "--levels", "2", "--width", "1.0",
            "--potential", "const:1", "--out-h", "M.txt", "--out-hp", out_hp,
        )
        assert code == 1
        assert out == ""
        assert "ParseError: --out-h and --out-hp name the same file" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "args",
        [
            ["random", "--seed", "1", "--dim", "3", "--scale", "1e308"],
            ["box", "--levels", "3", "--width", "1.35e154", "--potential", "linear:1"],
        ],
        ids=["random-scale", "box-width"],
    )
    def test_overflowing_model_argument_rejected(self, capsys, tmp_path, monkeypatch, args):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "model", *args)
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ValueError: ")
        assert list(tmp_path.iterdir()) == []

    def test_model_files_feed_perturb(self, capsys, tmp_path):
        out_h = tmp_path / "H.txt"
        out_hp = tmp_path / "Hp.txt"
        run_cli(
            capsys, "model", "box", "--levels", "4", "--width", "2.0",
            "--potential", "linear:0.5", "--out-h", str(out_h), "--out-hp", str(out_hp),
        )
        code, out, _ = run_cli(
            capsys, "perturb", str(out_h), str(out_hp), "--x", "0.01", "--level", "0"
        )
        assert code == 0
        # first-order ground level: E_1 + x * strength * L/2
        e0 = math.pi**2 / 8.0
        assert float(report_value(out, "E1_0")) == pytest.approx(e0 + 0.01 * 0.5, abs=1e-8)


class TestRoundTripProperty:
    def test_format_parse_identity_on_random_matrices(self):
        for seed in range(100):
            m = random_hermitian(200 + seed, 1 + seed % 6)
            again = parse_matrix(format_matrix(m))
            assert np.abs(again.array - m.array).max() <= 1e-15

    def test_parse_accepts_own_shorthand(self):
        m = HermitianMatrix(np.diag([1.0, -2.0]))
        assert parse_matrix(format_matrix(m)).dim == 2
