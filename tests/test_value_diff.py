"""``tools/value_diff.py``'s report, assembled from canned corpus outputs
(no subprocess, no git)."""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "value_diff.py"
_SPEC = importlib.util.spec_from_file_location("value_diff", _PATH)
value_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(value_diff)


def _outputs():
    return {
        "random-hermitian": {
            "seed 1 N 2 eigenvalues": np.array([-1.0, 2.0]),
            "seed 1 N 2 eigenvectors": np.eye(2, dtype=complex),
        },
        "cli-box": {"1 spectrum H.txt": np.array("eigenvalue_0=0.5\neigenvalue_1=2\n")},
    }


def test_identical_trees():
    lines, code = value_diff.report(value_diff.compare(_outputs(), _outputs()))
    assert code == 0
    assert lines == [
        "cli-box                1 outputs  identical",
        "random-hermitian       2 outputs  identical",
    ]


def test_numeric_difference_fails_unless_expected():
    change = _outputs()
    change["random-hermitian"]["seed 1 N 2 eigenvalues"] = np.array([-1.0, 2.0 + 2.0**-51])
    comparison = value_diff.compare(_outputs(), change)
    assert comparison["random-hermitian"] == (2, 1, 2.0**-51, 2.0**-52)
    lines, code = value_diff.report(comparison)
    assert code == 1
    assert lines[1] == ("random-hermitian       2 outputs  1 of 2 outputs differ,"
                        " largest absolute 4.44e-16, relative 2.22e-16")
    lines, code = value_diff.report(comparison, ["random-hermitian"])
    assert code == 0 and lines[1].endswith(" (expected)")
    # a family that is expected to change but does not is still identical
    assert value_diff.report(value_diff.compare(_outputs(), _outputs()), ["cli-box"])[1] == 0


def test_signed_zero_differs_by_zero():
    change = _outputs()
    change["random-hermitian"]["seed 1 N 2 eigenvectors"] = np.array([[1, -0.0], [0, 1]], dtype=complex)
    assert value_diff.compare(_outputs(), change)["random-hermitian"] == (2, 1, 0.0, 0.0)


def test_text_differences_are_those_of_its_numbers():
    old = np.array("eigenvalue_0=0.5\neigenvalue_1=2\n")
    assert value_diff.difference(old, old.copy()) is None
    assert value_diff.difference(old, np.array("eigenvalue_0=0.5\neigenvalue_1=2.5\n")) == (0.5, 0.25)
    moved = value_diff.difference(old, np.array("eigenvalue_0=0.5\n"))
    assert all(math.isnan(v) for v in moved)


@pytest.mark.parametrize("side", ["parent", "change"])
def test_output_or_family_on_one_side_differs(side):
    full, short = _outputs(), _outputs()
    del short["random-hermitian"]["seed 1 N 2 eigenvalues"]
    del short["cli-box"]
    parent, change = (short, full) if side == "parent" else (full, short)
    comparison = value_diff.compare(parent, change)
    assert comparison["cli-box"][:2] == (1, 1) and math.isnan(comparison["cli-box"][2])
    assert comparison["random-hermitian"][:2] == (2, 1)
    assert value_diff.report(comparison)[1] == 1


def test_shape_or_type_change_differs_by_nan():
    for new in (np.array([-1.0, 2.0, 3.0]), np.array("-1 2")):
        assert all(math.isnan(v) for v in value_diff.difference(np.array([-1.0, 2.0]), new))


def test_load_reads_what_the_corpus_writes(tmp_path):
    for family, outputs in _outputs().items():
        np.savez(tmp_path / f"{family}.npz", **outputs)
    loaded = value_diff.load(tmp_path)
    assert value_diff.report(value_diff.compare(_outputs(), loaded)) == value_diff.report(
        value_diff.compare(_outputs(), _outputs())
    )
