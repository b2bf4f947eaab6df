"""The scalar secular root-finders, as a test reference.

`spikesep.secular` refines every root of an equation at once, over arrays;
these versions solve one root at a time with Python loops and re-evaluate the
secular function at one point per call.  Each root sees the same sequence of
floating-point operations, the same split sums (`np.add.reduceat` over the
row of terms) included, so the two must agree bit for bit.
"""

import math

import numpy as np

_U = 2.0**-53


def _rank_one_root(a, w, mu, k, width):
    """Root k of 1 = mu sum_j w_j/(lambda - a_j) (distinct descending poles a):
    dlaed4's middle-way step on tau = lambda - a_o, from the midpoint of the
    bracket a_k + (0, width), with Newton and bisection as safeguards."""
    p, o = max(k, 1), k
    side = 1.0 if k == 0 else -1.0
    lo, hi, tau = 0.0, 2.0 * width if k == 0 else width, 0.5 * width
    for step in range(64):
        d = (a - a[o]) - tau
        t = w / d
        phi, psi = np.add.reduceat(t, [0, p])
        dphi, dpsi = np.add.reduceat(t / d, [0, p])
        g = 1.0 / mu + psi + phi
        settled = abs(g) <= 8.0 * _U * (abs(psi) + abs(phi) + 1.0 / mu)
        if g < 0.0:
            lo = tau
        else:
            hi = tau
        if step == 0 and g < 0.0 and not settled and k > 0:
            o, tau, lo, hi = o - 1, tau - width, lo - width, hi - width
        ep, eq = a[p] - a[o], a[p - 1] - a[o]
        dp, dq = ep - tau, eq - tau
        c = g - dp * dpsi - dq * dphi
        sp, sq = dp * (dp * dpsi), dq * (dq * dphi)
        beta, gamma = c * (ep + eq) + sp + sq, sp * eq + sq * ep
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            disc = side * np.sqrt(abs(beta * beta - 4.0 * c * gamma))
            if side * beta >= 0:
                new = (beta + disc) / (2 * c)
            else:
                new = 2 * gamma / (beta - disc)
            if not (new - tau) * g < 0.0:
                new = tau - g / (dpsi + dphi)
        if not lo < new < hi:
            new = 0.5 * (lo + hi)
        if settled:
            new = tau
        moving = abs(new - tau) > 2.0 * _U * abs(a[o] + new)
        tau = new
        if not moving:
            return a[o] + tau
    raise ArithmeticError("root still moving after 64 steps")


def reference_secular_eigenvalues(diag, weights, mu):
    """Drop-in for `secular_eigenvalues(SecularProblem(diag, weights, mu))`."""
    diag = np.asarray(diag, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if mu == 0.0:
        return np.sort(diag)[::-1].copy()
    if mu < 0.0:
        return -reference_secular_eigenvalues(-diag, weights, -mu)[::-1]

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

    roots = []
    if a.size:
        total = mu * float(np.sum(w))
        if a.size == 1:
            roots.append(a[0] + total)
        else:
            roots.append(_rank_one_root(a, w, mu, 0, total))
            for k in range(1, a.size):
                roots.append(_rank_one_root(a, w, mu, k, a[k - 1] - a[k]))
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
