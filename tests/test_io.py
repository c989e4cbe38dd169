import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from dpdetect import ValidationError
from dpdetect.io import read_measurement, read_template


def _per_line_reference(path):
    """The checked per-line parse: one finite float() per non-blank line."""
    values = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            v = float(line)
        except ValueError:
            raise ValidationError(f"{path}:{lineno}: not a number: {line!r}") from None
        if not math.isfinite(v):
            raise ValidationError(f"{path}:{lineno}: non-finite value")
        values.append(v)
    if not values:
        raise ValidationError(f"{path}: no samples")
    return np.array(values)


def test_read_skips_blank_lines_and_surrounding_whitespace(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("\n  1.5\n\n\t-2e3  \n+.5\n1_0\n   \n0.1\n")
    y = read_measurement(path)
    np.testing.assert_array_equal(y.samples, [1.5, -2000.0, 0.5, 10.0, 0.1])


@pytest.mark.parametrize(
    "content",
    [
        b"1\n\n2.5\n\n\n",  # blank lines inside and at the end
        b"\n\n1\n2\n",
        b"1.5\r\n-2\r\n\r\n3\r\n",  # CRLF
        b"1\t \n  2  \t\n\t3\n",  # trailing and leading tabs and spaces
        b"1\n2",  # no final newline
        b"# comment\n1\n",
        b"1\n2 3\n4\n",  # two numbers on one line
        b"1 2\n",
        b"1 2\n3 4\n",
        b"1\ninf\n2\n",
        b"1\n-inf\n",
        b"nan\n1\n",
        b"1\n1_0\n",
        b"1\n0x10\n",
        b"",
        b"  \n\t\n\n",
        "\u00a0\n".encode(),  # non-ASCII whitespace only
        "\u00a01\u00a0\n2\n".encode(),
    ],
)
def test_read_matches_per_line_reference(tmp_path, content):
    path = tmp_path / "m.txt"
    path.write_bytes(content)
    try:
        expected = _per_line_reference(path)
    except ValidationError as exc:
        expected = exc
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if isinstance(expected, ValidationError):
            with pytest.raises(ValidationError) as got:
                read_measurement(path)
            assert str(got.value) == str(expected)
        else:
            got = read_measurement(path).samples
            assert got.view(np.uint64).tolist() == expected.view(np.uint64).tolist()


def test_read_round_trips_every_bit(tmp_path):
    # Random bit patterns: every exponent, subnormals and signed zeros.
    bits = np.random.default_rng(0).integers(0, 1 << 64, 100_000, dtype=np.uint64)
    values = bits.view(np.float64)
    values = values[np.isfinite(values)]
    path = tmp_path / "m.txt"
    path.write_text("\n".join(format(v, ".17g") for v in values) + "\n")
    got = read_measurement(path).samples
    assert np.array_equal(got.view(np.uint64), values.view(np.uint64))


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
