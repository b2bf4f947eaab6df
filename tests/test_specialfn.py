import ast
import math
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_genlaguerre, gammaln, ive

from bounded import run_bounded
from raw_polynomials import hermite_raw, laguerre_raw
from reference_recurrence import ReferenceRecurrences, reference_signlog_store
from spikesep import jointpdf, specialfn
from spikesep.harness.config import GridSpec
from spikesep.kernels import ShiftedChiral, ShiftedGUE, SpikedLUE, chiral
from spikesep.specialfn import (
    hermite_weighted_signlog,
    laguerre_line_signlog,
    laguerre_weighted_signlog,
    log_0f1,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def mp_hermite_weighted(n, x, dps=40):
    """Extended-precision recurrence oracle for the weighted Hermite functions."""
    with mpmath.workdps(dps):
        xm = mpmath.mpf(x)
        vals = [mpmath.power(mpmath.pi, mpmath.mpf(-0.25)) * mpmath.e ** (-xm * xm / 2)]
        if n > 1:
            vals.append(mpmath.sqrt(2) * xm * vals[0])
        for p in range(1, n - 1):
            vals.append(mpmath.sqrt(mpmath.mpf(2) / (p + 1)) * xm * vals[p]
                        - mpmath.sqrt(mpmath.mpf(p) / (p + 1)) * vals[p - 1])
        return [float(v) for v in vals]


def mp_laguerre_weighted(n, a, x, dps=40):
    with mpmath.workdps(dps):
        xm, am = mpmath.mpf(x), mpmath.mpf(a)
        vals = [xm ** (am / 2) * mpmath.e ** (-xm / 2) / mpmath.sqrt(mpmath.gamma(am + 1))]
        if n > 1:
            vals.append((am + 1 - xm) / mpmath.sqrt(am + 1) * vals[0])
        for p in range(1, n - 1):
            c1 = (2 * p + am + 1 - xm) / mpmath.sqrt(mpmath.mpf(p + 1) * (p + 1 + am))
            c2 = mpmath.sqrt(mpmath.mpf(p) * (p + am) / ((p + 1) * (p + 1 + am)))
            vals.append(c1 * vals[p] - c2 * vals[p - 1])
        return [float(v) for v in vals]


def _values(signlog):
    """Float values of a (sign, log) stack."""
    signs, logs = signlog
    return signs * np.exp(logs)


def test_hermite_first_value():
    psi0 = _values(hermite_weighted_signlog(1, 0.0))[0, 0]
    assert psi0 == pytest.approx(math.pi ** -0.25, rel=1e-14)
    assert psi0 == pytest.approx(0.7511255, abs=1e-7)


def test_hermite_h2_closed_form():
    # third entry is H_2(1) e^{-1/2} / (pi^{1/4} 2 sqrt(2)); H_2(1) = 2
    got = _values(hermite_weighted_signlog(3, 1.0))[2, 0]
    expect = (4.0 - 2.0) * math.exp(-0.5) / (math.pi**0.25 * 2.0 * math.sqrt(2.0))
    assert got == pytest.approx(expect, rel=1e-14)


def test_hermite_empty_request():
    with pytest.raises(ValueError):
        hermite_weighted_signlog(0, 1.0)


def test_hermite_high_order_vs_extended_precision():
    xs = [0.5, 3.0, 25.0]
    got = _values(hermite_weighted_signlog(501, xs))
    for col, x in enumerate(xs):
        ref = np.array(mp_hermite_weighted(501, x))
        rel = np.abs(got[:, col] - ref) / np.abs(ref)
        assert np.max(rel) < 1e-10


def test_hermite_no_overflow():
    # Cramer's bound |psi_p(x)| <= pi^{-1/4} holds at every order and point
    for n, x in ((1001, 60.0), (2000, 100.0)):
        signs, logs = hermite_weighted_signlog(n, [x])
        assert np.all(signs != 0) and np.all(np.isfinite(logs))
        assert np.all(logs <= -0.25 * math.log(math.pi) + 1e-12)


def test_hermite_signlog_tracks_underflowed_values():
    # at x = 44 the native psi_0 underflows; the signlog variant keeps it
    signs, logs = hermite_weighted_signlog(500, np.array([44.0]))
    assert signs[0, 0] == 1
    assert logs[0, 0] == pytest.approx(-0.25 * math.log(math.pi) - 0.5 * 44.0**2, rel=1e-13)
    mid = np.exp(logs[np.isfinite(logs)])
    assert np.all(np.isfinite(mid))


def test_laguerre_values():
    # second entry proportional to L_1^2(1) = 2
    got = _values(laguerre_weighted_signlog(2, 2.0, 1.0))[:, 0]
    expect = math.sqrt(1.0 / math.gamma(4.0)) * 1.0 * math.exp(-0.5) * 2.0
    assert got[1] == pytest.approx(expect, rel=1e-13)


def test_laguerre_domain_error():
    with pytest.raises(ValueError):
        laguerre_weighted_signlog(3, -1.0, 1.0)
    with pytest.raises(ValueError):
        laguerre_weighted_signlog(3, 0.5, -1.0)


def test_laguerre_vs_extended_precision():
    xs = [0.7, 3.3, 10.0, 19.0]
    got = _values(laguerre_weighted_signlog(50, 0.5, xs))
    for col, x in enumerate(xs):
        ref = np.array(mp_laguerre_weighted(50, 0.5, x))
        rel = np.abs(got[:, col] - ref) / np.abs(ref)
        assert np.max(rel) < 1e-10


def test_laguerre_signlog_matches_native():
    # phi_p in double precision from scipy's L_p^a and the closed-form weight
    x = np.array([0.7, 3.3, 19.0])
    signs, logs = laguerre_weighted_signlog(12, 0.5, x)
    p = np.arange(12)[:, None]
    weight = np.exp(0.5 * (gammaln(p + 1.0) - gammaln(p + 1.5)) + 0.25 * np.log(x) - 0.5 * x)
    native = weight * eval_genlaguerre(p, 0.5, x)
    rec = signs * np.exp(logs)
    assert np.allclose(rec, native, rtol=1e-12, atol=1e-300)


def test_laguerre_line_matches_genlaguerre():
    # T_q(x) = L_q^{M-q}(x) along the fixed-sum line
    x = np.array([0.9, 4.2])
    big_m = 7.5
    signs, logs = laguerre_line_signlog(8, big_m, x)
    for q in range(8):
        ref = eval_genlaguerre(q, big_m - q, x)
        got = signs[q] * np.exp(logs[q])
        assert np.allclose(got, ref, rtol=1e-11)


def _assert_matches_reference(recurrence):
    """recurrence(ns) calls one of the recurrences of the namespace ns: the
    public one must equal the per-row reference with the closed-form steps,
    bit for bit.  Returns the rescale events the reference fired."""
    reference = ReferenceRecurrences()
    with np.errstate(invalid="ignore"):  # NaN grid points
        signs, logs = recurrence(specialfn)
        ref_signs, ref_logs = recurrence(reference)
    assert signs.dtype == ref_signs.dtype and logs.dtype == ref_logs.dtype
    assert np.array_equal(signs, ref_signs)
    assert np.array_equal(logs, ref_logs, equal_nan=True)
    return set(reference.events)


@pytest.mark.parametrize(
    "recurrence, fired",
    [
        # |x| = 45 lies past the oscillatory edge: the carriers grow by ~e^1000;
        # x = 0 makes every odd row exactly zero
        (lambda f: f.hermite_weighted_signlog(
            600, np.array([-45.0, -44.5, -3.0, 0.0, 1e-300, 0.5, 30.0, 45.0])), {"down"}),
        # a NaN column must not hide the rescale another column needs
        (lambda f: f.hermite_weighted_signlog(600, np.array([np.nan, 45.0, 1.0])), {"down"}),
        (lambda f: f.laguerre_weighted_signlog(
            400, 2.5, np.array([1e-6, 0.3, 40.0, 900.0, 2500.0, 4000.0])), {"down"}),
        # past its degree 20 the line at integer M falls like x^(q-20): at
        # x = 1e-300 below 1e-250 within two rows, and at x = 0 it is exactly
        # zero from q = 21 on
        (lambda f: f.laguerre_line_signlog(
            300, 20.0, np.array([0.0, 1e-300, 1e-280, 0.5, 7.0, 60.0, 2500.0])), {"up", "down"}),
        # the spiked LUE's two lines (parameter sums M and M - 1) on one row loop
        (lambda f: f.laguerre_line_signlog(
            300, np.repeat([20.0, 19.0], 7),
            np.tile([1e-300, 1e-280, 0.5, 7.0, 60.0, 2500.0, 4000.0], 2)),
         {"up", "down"}),
    ],
)
def test_recurrence_matches_per_row_reference(recurrence, fired):
    assert fired <= _assert_matches_reference(recurrence)


_J_GUE, _J_CHIRAL = math.sqrt(1000.0), 2.0 * math.sqrt(500.0)


@pytest.mark.parametrize(
    "recurrence",
    [
        # the N = 500 scan grids and merged-pole curves: the GUE and chiral
        # stacks (the merged curves add 120 and 160 rows; the chiral model
        # runs in the squared variable) and the spiked LUE's two lines
        # (M = m + alpha = 500.5 and M - 1) in one call
        lambda f: f.hermite_weighted_signlog(500, GridSpec(0.85 * _J_GUE, 1.42 * _J_GUE, 401).points()),
        lambda f: f.hermite_weighted_signlog(620, GridSpec(-1.1 * _J_GUE, 1.1 * _J_GUE, 501).points()),
        lambda f: f.laguerre_line_signlog(
            500, np.repeat([500.5, 499.5], 501), np.tile(GridSpec(1700.0, 2950.0, 501).points(), 2)),
        lambda f: f.laguerre_line_signlog(
            660, np.repeat([500.5, 499.5], 501), np.tile(GridSpec(1.0, 2100.0, 501).points(), 2)),
        lambda f: f.laguerre_weighted_signlog(
            500, 2.0, GridSpec(0.85 * _J_CHIRAL, 1.45 * _J_CHIRAL, 401).points() ** 2),
        lambda f: f.laguerre_weighted_signlog(660, 2.0, GridSpec(0.05, 1.1 * _J_CHIRAL, 501).points() ** 2),
    ],
)
def test_recurrence_matches_reference_on_benchmark_grids(recurrence):
    _assert_matches_reference(recurrence)


_POINT = st.one_of(st.sampled_from([0.0, 1e-300, math.nan]), st.floats(-4000.0, 4000.0))


@given(
    n=st.integers(1, 700),
    points=st.lists(_POINT, min_size=1, max_size=5),
    a=st.floats(-0.9, 8.0),
    big_m=st.floats(0.0, 900.0),
)
@settings(max_examples=40, deadline=None)
def test_recurrence_matches_reference_on_random_grids(n, points, a, big_m):
    x = np.array(points)
    _assert_matches_reference(lambda f: f.hermite_weighted_signlog(n, x))
    _assert_matches_reference(lambda f: f.laguerre_line_signlog(n, big_m, x))
    _assert_matches_reference(
        lambda f: f.laguerre_line_signlog(n, np.repeat([big_m, big_m - 1.0], x.size), np.tile(x, 2)))
    positive = x[x > 0]
    if positive.size:
        _assert_matches_reference(lambda f: f.laguerre_weighted_signlog(n, a, positive))



def _spy_proofs(monkeypatch):
    """Record (largest pair max, smallest nonzero pair max, rows proven) per run proof."""
    proofs = []
    prove = specialfn._proven_rows

    def spy(bounds, i, v_prev, v_curr):
        rows = prove(bounds, i, v_prev, v_curr)
        mag = np.maximum(np.abs(v_prev), np.abs(v_curr))
        live = mag[mag > 0]  # NaN drops out
        proofs.append((live.max(initial=0.0), live.min(initial=np.inf), rows))
        return rows

    monkeypatch.setattr(specialfn, "_proven_rows", spy)
    return proofs


def _block_store_matches_reference(block, b, d=None):
    """`_signlog_store` on the coefficient block A_0..A_{n-2} (rows of `block`)
    with b and d per step, against the per-row reference; its rescale events."""
    n, ncols = block.shape[0] + 1, block.shape[1]
    vals = np.empty((n, ncols))
    vals[1:] = block
    signs, logs, _ = specialfn._signlog_store(vals, np.zeros(ncols), b, d)

    def step(p, v, v1, xs):
        if p == 0:
            return block[0] * v
        out = block[p] * v - b[p] * v1
        return out if d is None else out / d[p]

    events = []
    ref_signs, ref_logs = reference_signlog_store(n, np.zeros(ncols), np.zeros(ncols), step, events)
    assert np.array_equal(signs, ref_signs)
    assert np.array_equal(logs, ref_logs, equal_nan=True)
    return set(events)


def test_proven_runs_next_to_the_range_keep_every_bit(monkeypatch):
    proofs = _spy_proofs(monkeypatch)
    # from row 2 the pairs of columns 0 and 1 sit at 1e249 and 1e-249; every
    # later step can grow no pair (0.1 + 0.9 <= 1) and shrink it by 0.2 nats,
    # so runs of a few rows start 1.3 nats from each end, until column 1 falls
    # below 1e-250 (0.05 nats a row) and is scaled up
    block = np.full((199, 3), 0.1)
    block[0], block[1] = [1e249, 1e-249, 0.5], 1.0
    b = [0.0, 0.0] + [0.9] * 197
    assert "up" in _block_store_matches_reference(block, b)
    assert any(rows and hi > 1e248 and lo < 1e-248 for hi, lo, rows in proofs)
    # three columns that grow by about 1, 1.35 and 1.6 nats a row rescale on
    # different rows, with divisors that vary by row, and runs between rescales
    proofs.clear()
    block = np.tile([3.0, -4.0, 5.0, 0.5], (1199, 1))
    d = (1.0 + 0.01 * np.arange(1199.0) % 0.3).tolist()
    assert "down" in _block_store_matches_reference(block, [0.5] * 1199, d)
    assert sum(rows for _, _, rows in proofs) > 600


@pytest.mark.parametrize(
    "recurrence",
    [
        # x = 0 puts a zero in the line's b vector, which bars every run
        lambda f: f.laguerre_line_signlog(300, 500.5, np.array([0.0, 2500.0, 0.5, 1700.0])),
        # at x = 1e300 the carriers overflow to inf and then turn NaN: NaN logs
        lambda f: f.hermite_weighted_signlog(200, np.array([1e300, 0.5, -3.0, 20.0])),
        lambda f: f.hermite_weighted_signlog(100, np.array([])),
        lambda f: f.laguerre_line_signlog(100, 20.0, np.array([])),
    ],
)
def test_run_proofs_at_extreme_points(recurrence):
    with np.errstate(over="ignore"):
        _assert_matches_reference(recurrence)


def test_overflowing_column_keeps_its_nan_logs():
    with np.errstate(over="ignore", invalid="ignore"):
        signs, logs = hermite_weighted_signlog(200, np.array([1e300, 0.5]))
    assert np.isnan(logs[-1, 0]) and np.isfinite(logs[:, 1]).all()


def test_grow_continues_the_last_growth(monkeypatch):
    proofs = _spy_proofs(monkeypatch)
    formed = []
    store = specialfn._signlog_store

    def spy(vals, *args):
        formed.append(vals.shape[0])
        return store(vals, *args)

    x = np.array([-40.0, -3.0, 0.5, 7.0, 44.0, 30.0])
    cols = np.array([0, 2, 4])
    for stack, whole in [
        (hermite_weighted_signlog(100, x), hermite_weighted_signlog(600, x[cols])),
        (laguerre_line_signlog(100, 500.5, np.abs(x)), laguerre_line_signlog(600, 500.5, np.abs(x[cols]))),
    ]:
        monkeypatch.setattr(specialfn, "_signlog_store", spy)
        formed.clear()
        grown = [stack.grow(cols, rows) for rows in (180, 600, 150)]
        grown.append(stack.grow(cols[1:], 300))
        monkeypatch.setattr(specialfn, "_signlog_store", store)
        # the second growth forms only its new rows, the third reads the kept
        # ones, and other columns start again from the line's end
        assert formed == [80, 420, 200]
        for (signs, logs), rows, at in zip(grown, (180, 600, 150, 300), (slice(None),) * 3 + (slice(1, None),)):
            assert np.array_equal(signs, whole[0][100:rows, at])
            assert np.array_equal(logs, whole[1][100:rows, at])
    assert sum(rows for _, _, rows in proofs) > 0


def test_run_proofs_cover_the_scan_rows(monkeypatch):
    # the speedup must not fall back to the per-row range test unnoticed
    proofs = _spy_proofs(monkeypatch)
    grid = GridSpec(0.85 * _J_GUE, 1.42 * _J_GUE, 401).points()
    hermite_weighted_signlog(500, grid)
    assert sum(rows for _, _, rows in proofs) >= 0.6 * 499
    density = ShiftedGUE(500, 1, 0.0).respike(1.5).density(grid)
    peak = np.flatnonzero(grid > 1.05 * _J_GUE)[np.argmax(density[grid > 1.05 * _J_GUE])]
    proofs.clear()
    hermite_weighted_signlog(500, np.linspace(grid[peak - 1], grid[peak + 1], 65))
    assert sum(rows for _, _, rows in proofs) >= 0.9 * 499


def test_short_recurrences_make_no_proof(monkeypatch):
    proofs = _spy_proofs(monkeypatch)
    x = np.array([0.5, 3.0])
    stack = hermite_weighted_signlog(32, x)  # 31 rows to form
    stack.grow(np.arange(2), 63)
    laguerre_line_signlog(32, 20.0, x)
    assert not proofs
    hermite_weighted_signlog(33, x)
    assert proofs

def _raises(message, fn, *args):
    with pytest.raises(ValueError, match=message):
        fn(*args)


@pytest.mark.parametrize(
    "call",
    [
        lambda x: _raises("strictly positive", laguerre_weighted_signlog, 3, 0.5, x),
        # the spiked LUE's two lines accept x = 0; the model checks its points
        lambda x: _raises("at x > 0", SpikedLUE(3, 0.5, 1, 0.5).families, x),
    ],
)
def test_laguerre_grids_reject_nan(call):
    for x in ([np.nan], [1.0, np.nan]):
        call(np.array(x))


def test_recurrence_on_an_empty_grid():
    signs, logs = hermite_weighted_signlog(5, np.array([]))
    assert signs.shape == logs.shape == (5, 0)


def test_raw_polynomials_capped():
    assert hermite_raw(2, 1.0) == pytest.approx(2.0)
    assert laguerre_raw(1, 2.0, 1.0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        hermite_raw(31, 0.0)
    with pytest.raises(ValueError):
        laguerre_raw(31, 0.0, 0.0)


def test_log_0f1_consistency():
    for b, z in [(3.0, 4.0), (1.5, 0.2), (7.0, 900.0)]:
        series = mpmath.hyp0f1(b, z)
        assert log_0f1(b, z) == pytest.approx(float(mpmath.log(series)), rel=1e-12)


def test_log_0f1_where_the_bessel_value_underflows():
    # ive(b - 1, 2 sqrt(z)) underflows for b large against z (b = 171, z = 0.01
    # is the chiral residue at r = 170); compared as 0F1 to 1e-12 relative,
    # i.e. log 0F1 to 1e-12 absolute
    for b in (0.5, 1.0, 2.5, 10.0, 50.0, 100.0, 170.0, 171.0, 200.0, 250.0, 300.0):
        for z in np.geomspace(1e-6, 1e4, 21):
            with mpmath.workdps(50):
                ref = float(mpmath.log(mpmath.hyp0f1(b, z)))
            assert abs(log_0f1(b, z) - ref) < 1e-12, (b, z)


def _chiral_density_cases():
    """(model, points) of the chiral density grids of the figures and the
    benchmark, and a test's rank-170 model, whose 0F1 entries underflow ive."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    j = 2.0 * math.sqrt(500.0)
    fig6 = ShiftedChiral(500, 2.0, 1, 0.0)
    cases = [(ShiftedChiral(15, 4.0, 5, 15.0), np.linspace(1e-3, 22.0, 727)),  # fig5, mc-small
             (fig6.respike(1.0), GridSpec(0.05, 1.1 * j, 501).points())]  # fig6 inset
    cases += [(fig6.respike(s), GridSpec(0.85 * j, 1.45 * j, 401).points()) for s in (1.0, 1.2, 2.0)]
    cases += [(base.respike(s), grid.points())
              for fam, base, grid, spikes in workloads.EXACT_SCANS if fam == "chiral" for s in spikes]
    cases += [(model, grid.points()) for tag, model, grid in workloads.EXACT_MERGED
              if tag.startswith("chiral")]
    cases += [(model, grid.points()) for tag, model, grid, _ in workloads.MC_LARGE
              if tag.startswith("chiral")]
    return cases + [(ShiftedChiral(200, 1.0, 170, 0.1), np.array([1.0, 5.0, 15.0]))]


def test_log_0f1_blocks_match_scalar_calls(monkeypatch):
    # every block the chiral residue and f01_unitary form, entry by entry
    blocks = []

    def recorded(b, z):
        out = log_0f1(b, z)
        blocks.append((*np.broadcast_arrays(b, z), out))
        return out

    monkeypatch.setattr(chiral, "log_0f1", recorded)
    monkeypatch.setattr(jointpdf, "log_0f1", recorded)
    for model, x in _chiral_density_cases():
        model.families(x * x)
    jointpdf.f01_unitary(4.5, np.array([0.1, 0.25, 0.4]), np.array([0.15, 0.3, 0.55]))
    b, z, got = (np.concatenate([block[i].ravel() for block in blocks]) for i in range(3))
    assert np.array_equal(got, [log_0f1(*bz) for bz in zip(b.tolist(), z.tolist())])
    fits = ive(b - 1.0, 2.0 * np.sqrt(z)) >= sys.float_info.min
    assert fits.sum() > 7000 and (~fits).sum() > 50  # both the ive and the series side


@pytest.mark.parametrize("at", [0, 3, 5])
@pytest.mark.parametrize("arg, value, match", [
    ("b", math.nan, "finite"), ("z", math.inf, "finite"), ("b", 0.0, "positive"),
    ("b", -2.0, "positive"), ("z", -1e-300, "hyp0f1_complex"),
])
def test_log_0f1_rejects_a_bad_entry_anywhere(at, arg, value, match):
    args = {"b": np.full((2, 3), 3.0), "z": np.full((2, 3), 4.0)}
    args[arg].flat[at] = value
    with pytest.raises(ValueError, match=match):
        log_0f1(args["b"], args["z"])


@pytest.mark.parametrize("b, z", [
    (1.0, math.nan), (math.nan, 1.0), (math.inf, 1.0), (1.0, complex(0.0, math.inf)),
    (0.0, 1.0), (-1.0, 1.0), (-2.0, 0.5j),
])
def test_hyp0f1_complex_rejects_bad_arguments(b, z):
    with pytest.raises(ValueError):
        specialfn.hyp0f1_complex(b, z)
    # a negative b off the integers is fine
    assert specialfn.hyp0f1_complex(-1.5, 0.5j) == pytest.approx(complex(mpmath.hyp0f1(-1.5, 0.5j)), rel=1e-12)


HUGE_Z = [(3.0, 1e18), (1.5, 1e20), (50.0, 1e300), (201.0, 3e17)]


def test_log_0f1_at_huge_z_matches_mpmath():
    # scipy's ive is NaN from 2 sqrt(z) = 2^30; 0F1 read that as underflow and
    # summed about z series terms, so the calls run apart, time- and memory-bound
    b, z = zip(*HUGE_Z)
    code = f"""if True:
        from spikesep.specialfn import log_0f1
        print(repr([log_0f1(b, z) for b, z in {HUGE_Z!r}]))
        print(repr(log_0f1({list(b)!r}, {list(z)!r}).tolist()))
    """
    done = run_bounded(code)
    assert done.returncode == 0, done.stderr
    scalars, block = (ast.literal_eval(line) for line in done.stdout.splitlines())
    assert block == scalars
    for (bk, zk), value in zip(HUGE_Z, scalars):
        with mpmath.workdps(40):
            ref = float(mpmath.log(mpmath.hyp0f1(bk, zk)))
        assert abs(value - ref) <= 1e-12 * abs(ref), (bk, zk)


def test_raw_hermite_rows_are_the_native_loop():
    u = np.linspace(-60.0, 60.0, 701) - 0.37
    signs, logs = specialfn._raw_hermite_signlog(31, u)
    native = np.array([hermite_raw(p, u) for p in range(31)])
    assert np.array_equal(signs, np.sign(native))
    assert np.array_equal(logs, np.log(np.abs(native)))


@pytest.mark.parametrize("n", [200, 300])
def test_raw_hermite_rows_past_the_native_overflow(n):
    # a native loop reads NaN here (inf - inf from k ~ 150 on at |u| = 60)
    u = np.linspace(-60.0, 60.0, 13) + 0.25
    signs, logs = specialfn._raw_hermite_signlog(n, u)
    with mpmath.workdps(40):
        for k in (n // 2, n - 2, n - 1):
            for i, ui in enumerate(u.tolist()):
                ref = mpmath.hermite(k, ui)
                want = float(mpmath.log(abs(ref)))
                assert signs[k, i] == mpmath.sign(ref)
                assert abs(logs[k, i] - want) <= 1e-12 * abs(want), (k, ui)
