import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from agechemo import csvtext
from agechemo.csvtext import format_rows


def _per_value(block):
    # the text format_rows must reproduce byte for byte
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in block.tolist()).encode()


def _assert_blocks_match(values, cols=8):
    # format the values a writer's block at a time, as _write_csv does
    values = values[: values.size // cols * cols].reshape(-1, cols)
    for lo in range(0, len(values), csvtext.BLOCK):
        block = values[lo : lo + csvtext.BLOCK]
        assert format_rows(block) == _per_value(block), block


def _powers_of_ten_and_neighbours(lo, hi):
    p = 10.0 ** np.arange(lo, hi + 1)
    return np.concatenate([p, np.nextafter(p, 0), np.nextafter(p, np.inf)])


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        st.tuples(st.integers(0, 600), st.integers(1, 9)),
        elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True, width=64),
    )
)
def test_format_rows_matches_per_value_text_on_drawn_blocks(block):
    text = _per_value(block)
    assert format_rows(block) == text
    # as the writer calls it, csvtext.BLOCK rows at a time
    starts = range(0, len(block), csvtext.BLOCK)
    assert b"".join(format_rows(block[lo : lo + csvtext.BLOCK]) for lo in starts) == text


def test_format_rows_matches_per_value_text_on_a_seeded_sweep():
    rng = np.random.default_rng(20171)
    n = 400_000
    bits = rng.integers(0, 2**64 - 1, n, dtype=np.uint64, endpoint=True).view(np.float64)
    sign = rng.choice([-1.0, 1.0], n)
    log_uniform = sign * 10.0 ** rng.uniform(-300.0, 20.0, n)
    uniform = rng.uniform(-3.0, 3.0, n)
    grids = np.concatenate([np.arange(50_000) * 0.005, np.arange(50_000) * (36 / 7200), np.arange(-50_000, 50_000.0)])
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072014e-308])
    powers = _powers_of_ten_and_neighbours(-300, 20)
    values = np.concatenate([bits, log_uniform, uniform, grids, powers, -powers, special])
    assert values.size >= 1_000_000
    _assert_blocks_match(values)


@pytest.mark.parametrize(
    "value, text",
    [
        (0.0001, "0.0001"),  # the last fixed-form exponent
        (9.9999999999999991e-05, "9.9999999999999991e-05"),  # the first exponent-form one
        (np.nextafter(1.0, 0.0), "0.99999999999999989"),  # just below a power of ten
        # below 10^-14 and 10^-70 by less than half a unit of the 17th digit: the
        # scaled value rounds up to 10^17 and carries into the exponent
        (1e-14, "1e-14"),
        (1e-70, "1e-70"),
        (1.0, "1"),
        (-0.5, "-0.5"),
        (1234.5, "1234.5"),
        (9999999999999998.0, "9999999999999998"),
        (1.5e-123, "1.4999999999999999e-123"),  # three exponent digits
        (-2.5e-100, "-2.5e-100"),
        (1e-99, "1e-99"),
        (1.2e-270, "1.2e-270"),  # just above 1e-270, where the fallback takes over
        (0.1, "0.10000000000000001"),
        (0.0, "0"),
        (-0.0, "-0"),  # the sign bit, not v < 0
    ],
)
def test_format_rows_at_the_form_switches(value, text):
    block = np.array([[value, value]])
    assert "%.17g" % value == text
    assert format_rows(block) == (text + "," + text + "\n").encode()


def test_format_rows_fallback_alone_gives_the_same_bytes(monkeypatch):
    rng = np.random.default_rng(5)
    block = np.concatenate([rng.uniform(-2.0, 2.0, (300, 4)), 10.0 ** rng.uniform(-280, 17, (300, 4))], axis=1)
    fast = format_rows(block)
    monkeypatch.setattr(csvtext, "_FAST_MAX", 0.0)  # every value takes "%.17g" % v
    assert format_rows(block) == fast == _per_value(block)


def test_format_rows_of_an_empty_block():
    assert format_rows(np.empty((0, 3))) == b""


def test_zeros_take_the_numpy_path():
    # psi decays to exactly 0, so a long trace's delta column is mostly zeros: none needs "%.17g" % v
    n17, k, exact = csvtext._decimal(np.abs(np.array([0.0, -0.0, 0.0, 1.5])))
    assert exact.all()
    assert n17[:3].tolist() == [0, 0, 0] and k[:3].tolist() == [0, 0, 0]
    block = np.array([[0.0, -0.0, 2.5], [-0.0, 0.0, -0.0]])
    assert format_rows(block) == _per_value(block) == b"0,-0,2.5\n-0,0,-0\n"
