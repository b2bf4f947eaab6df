import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_logsum import reference_slog_sum_columns

from spikesep.logspace import SignedLogValue, slog_sum_columns

finite_floats = st.floats(
    min_value=1e-300, max_value=1e300, allow_nan=False, allow_infinity=False
)
signed_floats = st.one_of(finite_floats, finite_floats.map(lambda x: -x))


def test_zero_invariant():
    z = SignedLogValue.zero()
    assert z.sign == 0 and z.log_magnitude == -math.inf
    with pytest.raises(ValueError):
        SignedLogValue(0, 1.0)
    with pytest.raises(ValueError):
        SignedLogValue(1, -math.inf)
    with pytest.raises(ValueError, match="NaN"):
        SignedLogValue(1, math.nan)
    with pytest.raises(ValueError, match="NaN"):
        SignedLogValue.from_log(-1, math.nan)


@given(signed_floats)
def test_round_trip(x):
    v = SignedLogValue.from_float(x)
    back = v.to_float()
    assert math.copysign(1.0, back) == math.copysign(1.0, x)
    # the stated invariant is on the log magnitude; the value itself picks up
    # |log x| * eps through exp()
    assert abs(v.log_magnitude - math.log(abs(x))) <= 1e-14 * max(1.0, abs(math.log(abs(x))))
    assert back == pytest.approx(x, rel=1e-13)


def test_negation():
    a = SignedLogValue.from_float(-12.5)
    assert (-a).to_float() == pytest.approx(12.5, rel=1e-14)


def test_overflow_materialization_raises():
    with pytest.raises(OverflowError):
        SignedLogValue.from_log(1, 1000.0).to_float()


def test_slog_sum_columns_matches_scalar():
    rng = np.random.default_rng(0)
    logs = rng.uniform(-5, 5, size=(7, 11))
    signs = rng.choice([-1, 1], size=(7, 11)).astype(np.int8)
    s, l = slog_sum_columns(signs, logs)
    for col in range(11):
        ref = math.fsum(float(signs[t, col]) * math.exp(logs[t, col]) for t in range(7))
        got = s[col] * math.exp(l[col])
        assert got == pytest.approx(ref, rel=1e-12)


# ---------------------------------------------------------------------------
# slog_sum_columns against the one-column-at-a-time reference, bit for bit

@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([1, 2, 3, 17, 600]),
    st.sampled_from([1, 5, 15, 16, 40]),  # both sides of the old 16-column cut-off
    st.floats(min_value=0.0, max_value=800.0),
    st.floats(min_value=0.0, max_value=0.5),
    st.booleans(),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_slog_sum_columns_matches_per_column_reference(nterms, npts, spread, zeros, cancel, seed):
    rng = np.random.default_rng(seed)
    logs = rng.uniform(0.0, spread, size=(nterms, npts))
    signs = rng.choice(np.array([-1, 1], dtype=np.int8), size=(nterms, npts))
    signs[rng.random((nterms, npts)) < zeros] = 0
    if cancel and nterms > 1:
        # pair terms with opposite-sign partners a few ulp away, so columns cancel deeply
        half = nterms // 2
        logs[half:2 * half] = logs[:half] + rng.integers(-3, 4, size=(half, npts)) * 1e-15
        signs[half:2 * half] = -signs[:half]
    got = slog_sum_columns(signs, logs)
    want = reference_slog_sum_columns(signs, logs)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def _log_of(value):
    """log(value); for value >= 1/4 a float l with np.exp(l) == value exactly,
    found among the floats next to log(value), so a column sums exact values."""
    lg = math.log(value)
    if value < 0.25:
        return lg
    for step in range(64):
        for cand in (lg + step * math.ulp(lg), lg - step * math.ulp(lg)):
            if np.exp(cand) == value:
                return cand
    raise AssertionError(f"no float log reproduces {value!r}")


U = 2.0**-53
ADVERSARIAL = {
    # exact cancellation to zero
    "cancel": [1.0, -1.0, 0.75, -0.75],
    "cancel pair": [1.0, -1.0],
    # 1 + 2^-53 is an exact tie: round half to even gives 1 (every "tie" column
    # sums to a rounding midpoint)
    "tie": [1.0, 0.5 + U, -0.5],
    "above tie": [1.0, 0.5 + U, -0.5, 2.0**-110],
    "below tie": [1.0, 0.5 + U, -0.5, -(2.0**-110)],
    # 2^-70 from the midpoint 1 + 3u, and 2^-110 - 2^-120 above it
    "near midpoint": [1.0, 0.5 + 3 * U, -0.5, 2.0**-70],
    "near midpoint low": [1.0, 0.5 + 3 * U, -0.5, -(2.0**-70)],
    "within ulp of midpoint": [1.0, 0.5 + 3 * U, -0.5, 2.0**-110, -(2.0**-120)],
    # totals just below a power of two, where the gap below is half the gap above
    "below 2": [1.0, 0.5, 0.5 - U / 2],
    "tie below 2": [1.0, 0.5, 0.5 - U],
    "rounds below 2": [1.0, 0.5, 0.5 - 1.5 * U],
    "tie below 1": [1.0, -0.5, 0.5 - U / 2],
    "rounds below 1": [1.0, -0.5, 0.5 - U / 2, -(2.0**-60)],
    # subnormal totals
    "subnormal": [1.0, -1.0, math.exp(-740.0)],
    "subnormal difference": [1.0, -1.0, math.exp(-730.0), -math.exp(-730.5)],
}


def _adversarial_stack(width):
    """(signs, logs): one adversarial column each, repeated to `width` columns,
    then an all-zero column, a column of -inf logs and a column whose NaN log
    has sign 0."""
    names = list(ADVERSARIAL)
    rows = max(len(v) for v in ADVERSARIAL.values())
    signs = np.zeros((rows, width + 3), dtype=np.int8)
    logs = np.full((rows, width + 3), -np.inf)
    for k in range(width):
        for i, v in enumerate(ADVERSARIAL[names[k % len(names)]]):
            signs[i, k] = 1 if v > 0 else -1
            logs[i, k] = _log_of(abs(v))
    signs[:, -2] = 1
    logs[1, -1] = np.nan
    return signs, logs


@pytest.mark.parametrize("width", [12, 3 * len(ADVERSARIAL)])  # 15 and 48 columns
def test_slog_sum_columns_adversarial_columns(width):
    signs, logs = _adversarial_stack(width)
    sign, log = slog_sum_columns(signs, logs)
    want = reference_slog_sum_columns(signs, logs)
    assert np.array_equal(sign, want[0]) and np.array_equal(log, want[1])
    assert np.all(sign[-3:] == 0) and np.all(log[-3:] == -np.inf)
    names = list(ADVERSARIAL)
    for k in range(width):
        name = names[k % len(names)]
        terms = ADVERSARIAL[name]
        exact = math.fsum(terms)
        # the worst-case error of any summation order of the terms
        bound = (len(terms) - 1) * U * math.fsum(map(abs, terms))
        assert abs(float(sign[k]) * math.exp(log[k]) - exact) <= bound, name
        if abs(exact) > bound:
            assert sign[k] == np.sign(exact), name


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("npts", [1, 20])
def test_slog_sum_columns_rejects_nan_and_inf_logs(bad, npts):
    signs = np.ones((2, npts), dtype=np.int8)
    logs = np.zeros((2, npts))
    logs[1, -1] = bad
    with pytest.raises(ArithmeticError):
        slog_sum_columns(signs, logs)
    # the same log on a sign-0 term is a zero, and -inf logs are zeros
    signs[1, -1] = 0
    sign, log = slog_sum_columns(signs, logs)
    assert sign[-1] == 1 and log[-1] == 0.0
    sign, log = slog_sum_columns(signs, np.full((2, npts), -np.inf))
    assert np.all(sign == 0) and np.all(log == -np.inf)
