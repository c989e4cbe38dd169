import numpy as np
import pytest

from dpdetect import ValidationError
from dpdetect.io import read_measurement, read_template


def test_read_skips_blank_lines_and_surrounding_whitespace(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("\n  1.5\n\n\t-2e3  \n+.5\n1_0\n   \n0.1\n")
    y = read_measurement(path)
    np.testing.assert_array_equal(y.samples, [1.5, -2000.0, 0.5, 10.0, 0.1])


def test_read_round_trips_every_bit(tmp_path):
    values = np.random.default_rng(0).standard_normal(1000) * 1e-3
    path = tmp_path / "m.txt"
    path.write_text("\n".join(format(v, ".17g") for v in values) + "\n")
    np.testing.assert_array_equal(read_measurement(path).samples, values)


@pytest.mark.parametrize("token", ["abc", "1 2", "0x10", "1,5"])
def test_read_names_line_of_bad_token(tmp_path, token):
    path = tmp_path / "m.txt"
    path.write_text(f"1.0\n\n2.0\n{token}\n3.0\n")
    with pytest.raises(ValidationError, match=rf"m\.txt:4: not a number: '{token}'"):
        read_measurement(path)


@pytest.mark.parametrize("token", ["nan", "inf", "-Infinity", "1e400"])
def test_read_names_line_of_non_finite_value(tmp_path, token):
    path = tmp_path / "t.txt"
    path.write_text(f"1.0\n2.0\n\n{token}\n")
    with pytest.raises(ValidationError, match=r"t\.txt:4: non-finite value"):
        read_template(path)


def test_read_empty_file_rejected(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("\n  \n")
    with pytest.raises(ValidationError, match="no samples"):
        read_measurement(path)
