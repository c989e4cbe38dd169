import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import dpdetect.io as io_mod
from dpdetect import ValidationError
from dpdetect.io import read_measurement, read_template, write_measurement


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
        # Inside the vectorised reader's grammar: -?D+(.D+)?(e[+-]?D+)?
        b"0\n-0\n-0.0\n0e5\n",
        b"1e400\n",
        b"1\n-1e400\n",
        b"1e-400\n4.9406564584124654e-324\n2.2250738585072009e-308\n",
        b"9223372036854775808\n18446744073709551615\n9999999999999999999\n",
        b"99999999999999999999\n1234567890123456789012345e-5\n",
        # integer parts of 20 or more digits that are 0 modulo 2**64
        b"18446744073709551616\n36893488147419103232\n18446744073709551616.5\n",
        b"0000000000000000000000000.5\n",
        b"9007199254740993\n9007199254740993e-22\n1e22\n1e23\n",
        b"0.30000000000000004\n-1.5e+300\n1.5e-290\n",
        b"1.000000000000000000000000000000000000000000001\n",
        b"1e0000000000000000005\n",
        # Outside it: loadtxt, then the per-line parse, as before
        b"1E5\n",
        b"+1\n",
        b".5\n1.\n",
        b"1e\n",
        b"1e+\n",
        b"--1\n",
        b"1-1\n",
        b"1..2\n",
        b"1.2.3\n",
        b"1e5e5\n",
        b"1e5.3\n",
        b"1e+-3\n",
        b"1\r2\n",
        b"1\r\r\n",
        "1\n\u00e9\n".encode(),
    ],
)
def test_read_matches_per_line_reference(tmp_path, content):
    path = tmp_path / "m.txt"
    path.write_bytes(content)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_reads_as(path, _expect_reference(path))


def _expect_reference(path):
    try:
        return _per_line_reference(path)
    except ValidationError as exc:
        return exc


def _assert_reads_as(path, expected):
    if isinstance(expected, ValidationError):
        with pytest.raises(ValidationError) as got:
            read_measurement(path)
        assert str(got.value) == str(expected)
    else:
        got = read_measurement(path).samples
        assert got.view(np.uint64).tolist() == expected.view(np.uint64).tolist()


def _midpoint_decimals(rng, count):
    """Exact decimals of midpoints between adjacent doubles, and the same
    cut to 17-19 significant digits and moved one unit of the last digit."""
    lines = []
    for v in np.abs(rng.standard_normal(count)) * 2.0 ** rng.integers(-60, 64, count):
        num, den = float(v).as_integer_ratio()
        up, up_den = float(np.nextafter(v, np.inf)).as_integer_ratio()
        num, den = num * up_den + up * den, 2 * den * up_den  # den is a power of two
        k = den.bit_length() - 1
        digits = str(num * 5**k)  # the midpoint is digits * 10**-k exactly
        lines.append(f"{digits}e-{k}")
        cut = int(rng.integers(17, 20))
        head = int(digits[:cut]) + int(rng.integers(-1, 2))
        lines.append(f"{head}e{len(digits) - cut - k}")
    # Integers halfway between doubles above 2**53, and their neighbours.
    for v in np.exp2(rng.uniform(53, 63.9, count)):
        mid = int(v) + int(np.spacing(v)) // 2
        lines += [str(mid - 1), str(mid), str(mid + 1)]
    return lines


def _read_cases(rng):
    """Lines in every form the vectorised reader takes; each reads to its float()."""
    bits = rng.integers(0, 1 << 64, 100_000, dtype=np.uint64).view(np.float64)
    values = bits[np.isfinite(bits)].tolist()  # every exponent, subnormals and signed zeros
    lines = [format(v, ".17g") for v in values]
    lines += [format(v, f) for v in values[:20_000] for f in (".15g", ".6e")]
    lines += [repr(v) for v in values[:20_000]]
    subnormal = rng.integers(0, 1 << 52, 2000, dtype=np.uint64).view(np.float64).tolist()
    lines += [format(v, ".17g") for v in subnormal] + [repr(-v) for v in subnormal]
    lines += ["0", "-0", "0.0", "-0.0", "00", "0e0"]
    lines += [str(i) for i in rng.integers(-(10**18), 10**18, 2000).tolist()]
    # 19-digit mantissas above 2**63, plain, as decimals and with exponents
    big = [int(i) for i in rng.integers(1 << 63, 10**19, 2000, dtype=np.uint64)]
    lines += [str(i) for i in big] + [f"{i}e{e}" for i, e in zip(big, rng.integers(-40, 40, 2000))]
    lines += [f"{str(i)[:p]}.{str(i)[p:]}" for i, p in zip(big, rng.integers(1, 19, 2000))]
    lines += _midpoint_decimals(rng, 2000)
    # 1-25 significant digits, exponents from -330 to 310
    for n in range(1, 26):
        for _ in range(400):
            digits = "".join(map(str, rng.integers(0, 10, n)))
            if n > 1 and rng.random() < 0.5:
                cut = int(rng.integers(1, n))
                digits = f"{digits[:cut]}.{digits[cut:]}"
            sign = rng.choice(["", "-"])
            lines.append(f"{sign}{digits}e{rng.choice(['', '+', '-'])}{rng.integers(0, 331)}")
    return [line for line in lines if math.isfinite(float(line))]


def test_read_round_trips_every_bit(tmp_path, caplog):
    rng = np.random.default_rng(0)
    lines = _read_cases(rng)
    path = tmp_path / "m.txt"
    path.write_text("\n".join(lines) + "\n")
    with caplog.at_level("DEBUG", logger="dpdetect.io"):
        got = read_measurement(path).samples
    expected = np.array([float(line) for line in lines])
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
    assert f"vectorised, {len(lines)} lines, " in caplog.records[-1].getMessage()
    # What write_measurement writes reads back to the same bits.
    values = np.concatenate([expected, rng.standard_normal(1000), np.arange(-50.0, 50.0)])
    write_measurement(values, path)
    with caplog.at_level("DEBUG", logger="dpdetect.io"):
        got = read_measurement(path).samples
    assert np.array_equal(got.view(np.uint64), values.view(np.uint64))
    assert f"vectorised, {values.size} lines, " in caplog.records[-1].getMessage()


_STRIPE = [format(v, ".17g") for v in np.random.default_rng(1).standard_normal(300)]


@pytest.mark.parametrize(
    "content",
    [
        "\n".join(_STRIPE) + "\n",
        "\n".join(_STRIPE),  # no final newline
        "\r\n".join(_STRIPE) + "\r\n",  # outside the grammar: loadtxt reads these two
        "\n\n".join(_STRIPE) + "\n\n",
        "1.5\n",  # one line
        "-2.25",  # one line, no final newline
        "\n".join(_STRIPE) + "\n1_0\n",  # a bad token in the last chunk
        "\n".join(_STRIPE) + "\n0x10",
        "\n".join(_STRIPE) + "\n1e400\n",
        "\n".join(_STRIPE[:10]) + "\n" + "1" * 200 + "\n2\n",  # a line longer than a chunk
    ],
    ids=[
        "stripe", "no-final-newline", "crlf", "blank-lines", "one-line", "one-line-no-newline",
        "bad-token-last", "hex-last", "non-finite-last", "line-over-chunk",
    ],
)
@pytest.mark.parametrize("chunk", [40, 64, 101])
def test_read_lines_across_chunks(tmp_path, monkeypatch, content, chunk):
    # Chunks of a few lines: lines straddle chunks, and every chunk carries
    # the tail of the one before it.
    monkeypatch.setattr(io_mod, "_CHUNK", chunk)
    path = tmp_path / "m.txt"
    path.write_bytes(content.encode())
    _assert_reads_as(path, _expect_reference(path))


def test_read_logs_the_path_that_read_the_file(tmp_path, caplog):
    path = tmp_path / "m.txt"
    with caplog.at_level("DEBUG", logger="dpdetect.io"):
        for text, line in [
            ("1.5\n2e-3\n-7\n", "vectorised, 3 lines, 0 by float()"),
            ("1.5\r\n2e-3\n\n-7\n", "loadtxt, 3 lines"),  # CRLF and blank lines
            ("1.5\n1e-320\n", "vectorised, 2 lines, 1 by float()"),  # a subnormal
            ("1.5\n2E3\n", "loadtxt, 2 lines"),
            ("1.5\n1_0\n", "per-line parse, 2 lines"),
        ]:
            path.write_text(text)
            read_measurement(path)
            assert caplog.records[-1].getMessage() == f"io read {path}: {line}"


def test_cli_import_loads_no_reader_tables():
    # The reader's tables are built on first use, and importing the CLI
    # loads none of the heavier standard modules.
    code = (
        "import sys, dpdetect.cli, dpdetect.io as io; "
        "print(sorted(m for m in ('fractions', 'decimal', 'concurrent.futures', "
        "'multiprocessing') if m in sys.modules), io._powers.cache_info().currsize)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(io_mod.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-B", "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert out.split() == ["[]", "0"]


@pytest.mark.parametrize("n_lines", [1 << 17, 1 << 18])
def test_read_memory_bounded_by_chunk(tmp_path, n_lines):
    # The reader holds one chunk's working arrays and the output, not the
    # file: the same bound at both sizes.
    path = tmp_path / "m.txt"
    write_measurement(np.random.default_rng(2).standard_normal(n_lines), path)
    tracemalloc.start()
    try:
        values = io_mod._read_numeric_lines(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.size == n_lines
    assert peak <= values.nbytes + (8 << 20)


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
