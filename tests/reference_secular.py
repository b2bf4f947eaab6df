"""The scalar secular root-finders, as a test reference.

`spikesep.secular` refines every root of an equation at once, over arrays;
these versions solve one root at a time with Python loops and re-evaluate the
secular function at one point per call.  Each root sees the same sequence of
floating-point operations, the same split sums (`np.add.reduceat` over the
row of terms) included, so the two must agree bit for bit.  The rank-two
reference groups its poles and projects its roots the same way, one at a time.
"""

import numpy as np

_U = 2.0**-53


def _rank_one_root(a, w, mu, k, width):
    """Root k of 1 = mu sum_j w_j/(lambda - a_j) (distinct descending poles a) as
    (o, tau), the root being a_o + tau: dlaed4's middle-way step on tau, from the
    midpoint of the bracket a_k + (0, width), with Newton and bisection as
    safeguards."""
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
            return o, tau
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

    roots = [a[o] + tau for o, tau in _rank_one_roots(a, w, mu)]
    return np.array(sorted(roots + exact, reverse=True))


def _rank_one_roots(a, w, mu):
    """Every root of 1 = mu sum_j w_j/(lambda - a_j), a distinct and descending,
    w > 0 and mu > 0, as (o, tau) pairs."""
    total = mu * float(np.sum(w))
    if a.size == 1:
        return [(0, total)]
    widths = [total] + [a[k - 1] - a[k] for k in range(1, a.size)]
    return [_rank_one_root(a, w, mu, k, width) for k, width in enumerate(widths)]


def reference_chiral_rank_two(singulars, u, v, mu, zero_components=None):
    """Drop-in for `chiral_secular_eigenvalues(singulars, u, v, mu,
    zero_components=zero_components)` with positive singular values and mu != 0:
    two rank-one updates of the Hermitian dilation, one root and one pole at a time."""
    order = np.argsort(singulars)
    lam = np.asarray(singulars, dtype=float)[order]
    m = lam.size
    u = np.asarray(u, dtype=complex)[order]
    v = np.asarray(v, dtype=complex)[order]
    zsq = 0.0
    if zero_components is not None:
        zsq = float(np.sum(np.abs(np.asarray(zero_components, dtype=complex)) ** 2))
    if mu < 0.0:
        u, mu = -u, -mu
    poles = list(lam) + list(-lam) + [0.0]
    g = np.conj(np.concatenate([u + v, u - v, [np.sqrt(zsq)]]))
    h = np.conj(np.concatenate([u - v, u + v, [np.sqrt(zsq)]]))

    # per distinct pole, descending: |g|^2, conj(g) h and |h|^2 summed in order
    gg, gh, hh = np.abs(g) ** 2, np.conj(g) * h, np.abs(h) ** 2
    a, w, cross, rest_poles, rest_weights = [], [], [], [], []
    for p in sorted(set(poles), reverse=True):
        group = [j for j in range(len(poles)) if poles[j] == p]
        w_p, re, im, kept = 0.0, 0.0, 0.0, 0.0
        for j in group:
            w_p, re, im, kept = w_p + gg[j], re + gh[j].real, im + gh[j].imag, kept + hh[j]
        copies = len(group)
        if w_p > 0.0:
            a.append(p)
            w.append(w_p)
            cross.append(re + 1j * im)
            # numpy's complex abs over an array, as the solver takes it (Python's
            # abs(complex) can differ in the last bit)
            kept = max(kept - (np.abs(cross[-1:]) ** 2 / w_p)[0], 0.0)
            copies -= 1
        rest_poles += [p] * copies
        rest_weights += [kept / max(copies, 1)] * copies
    if not a:
        return lam.copy()
    a, w = np.array(a), np.array(w)
    s = np.array(cross) / np.sqrt(w)

    roots, weights = [], []
    for o, tau in _rank_one_roots(a, w, 0.5 * mu):
        y = np.sqrt(w) / ((a - a[o]) - tau)
        y = y / np.max(np.abs(y))
        re, im, norm = (np.sum(y * part) for part in (s.real, s.imag, y))
        roots.append(a[o] + tau)
        weights.append((re * re + im * im) / norm)
    second = reference_secular_eigenvalues(roots + rest_poles, weights + rest_weights, -0.5 * mu)
    return second[m - 1::-1]
