"""The scalar secular root-finders, as a test reference.

`spikesep.secular` brackets and refines every root of an equation at once,
over arrays; these versions solve one root at a time with Python loops and
re-evaluate the secular function at one point per call.  Each root sees the
same sequence of floating-point operations, so the two must agree bit for
bit.
"""

import math

import numpy as np


def _solve_bracket(f, fprime, lo, hi, tol):
    """Root of strictly increasing f on (lo, hi): bisection then safeguarded Newton."""
    a, b = lo, hi
    gap = b - a
    while b - a > 1e-3 * gap and b - a > 1e-15 * max(abs(a), abs(b), 1.0):
        mid = 0.5 * (a + b)
        if f(mid) < 0.0:
            a = mid
        else:
            b = mid
    x = 0.5 * (a + b)
    for _ in range(100):
        fx = f(x)
        if fx < 0.0:
            a = x
        else:
            b = x
        dfx = fprime(x)
        step_ok = dfx > 0.0 and math.isfinite(dfx)
        x_new = x - fx / dfx if step_ok else 0.5 * (a + b)
        if not (a < x_new < b):
            x_new = 0.5 * (a + b)
        if abs(x_new - x) <= tol * max(abs(x_new), 1e-300):
            return x_new
        x = x_new
    return x


def reference_secular_eigenvalues(diag, weights, mu, tol=1e-13):
    """Drop-in for `secular_eigenvalues(SecularProblem(diag, weights, mu), tol)`."""
    diag = np.asarray(diag, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if mu == 0.0:
        return np.sort(diag)[::-1].copy()
    if mu < 0.0:
        return -reference_secular_eigenvalues(-diag, weights, -mu, tol)[::-1]

    order = np.argsort(diag)[::-1]
    diag = diag[order]
    weights = weights[order]
    exact = list(diag[weights == 0.0])
    diag = diag[weights > 0.0]
    weights = weights[weights > 0.0]
    merged_a, merged_w = [], []
    for a_i, w_i in zip(diag, weights):
        if merged_a and a_i == merged_a[-1]:
            merged_w[-1] += w_i
            exact.append(a_i)
        else:
            merged_a.append(a_i)
            merged_w.append(w_i)
    a = np.array(merged_a)
    w = np.array(merged_w)

    def f(lam):
        return 1.0 - mu * np.sum(w / (lam - a))

    def fp(lam):
        return mu * np.sum(w / (lam - a) ** 2)

    roots = []
    if a.size:
        total = mu * float(np.sum(w))
        hi = a[0] + total
        if f(hi) < 0.0:
            hi = a[0] + 2.0 * total + 1e-12 * max(1.0, abs(a[0]))
        roots.append(_solve_bracket(f, fp, a[0], hi, tol))
        for i in range(1, a.size):
            roots.append(_solve_bracket(f, fp, a[i], a[i - 1], tol))
    return np.array(sorted(roots + exact, reverse=True))


def reference_chiral_rank_two(singulars, u, v, mu, tol=1e-13, zero_components=None):
    """Drop-in for `chiral_secular_eigenvalues(singulars, u, v, mu, tol=tol,
    zero_components=zero_components)` with positive singular values and mu != 0."""
    lam = np.sort(np.asarray(singulars, dtype=float))
    m = lam.size
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    zsq = 0.0
    if zero_components is not None:
        zsq = float(np.sum(np.abs(np.asarray(zero_components, dtype=complex)) ** 2))

    lam2 = lam**2
    uv = 2.0 * lam * v * np.conj(u)
    vv = 2.0 * np.abs(v) ** 2
    uu = 2.0 * np.abs(u) ** 2

    def g(x):
        d = x**2 - lam2
        a11 = np.sum(uv / d)
        a12 = x * np.sum(vv / d)
        a21 = x * np.sum(uu / d) + (zsq / x if zsq else 0.0)
        return abs(1.0 - mu * a11) ** 2 - mu**2 * a12 * a21

    probes_per_interval = 64
    scale = mu * (float(np.sum(vv)) + float(np.sum(uu))) + zsq * mu
    upper = math.sqrt(lam2[-1] + abs(scale) * lam[-1] + scale**2) + lam[-1] + 1.0
    edges = np.concatenate([[1e-9 * lam[0]], lam, [upper]])
    roots = []
    for k in range(m + 1):
        lo, hi = edges[k], edges[k + 1]
        pad = 1e-9 * (hi - lo)
        xs = np.linspace(lo + pad, hi - pad, probes_per_interval)
        vals = np.array([g(x) for x in xs])
        for i in range(len(xs) - 1):
            if vals[i] == 0.0:
                roots.append(xs[i])
            elif vals[i] * vals[i + 1] < 0.0:
                a_, b_ = xs[i], xs[i + 1]
                for _ in range(200):
                    mid = 0.5 * (a_ + b_)
                    if b_ - a_ <= tol * max(abs(mid), 1e-300):
                        break
                    if g(a_) * g(mid) <= 0.0:
                        b_ = mid
                    else:
                        a_ = mid
                roots.append(0.5 * (a_ + b_))
    return np.array(sorted(roots))
