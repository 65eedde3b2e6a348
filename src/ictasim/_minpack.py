"""MINPACK's Levenberg–Marquardt least squares (`lmder`; Moré, "The
Levenberg–Marquardt algorithm: implementation and theory", 1978), driven
as `scipy.optimize.least_squares(method="lm")` drives it: a 2-point
forward-difference Jacobian, scaling by the Jacobian's column norms
(mode 1), factor 100 and ftol = xtol = gtol = 1e-8.

The port repeats that arithmetic step for step, so a fit returns the same
bits.  Every reduction is summed left to right from 0.0, as MINPACK's
loops add, never by numpy's pairwise sum or BLAS: the Jacobian's step of
about 1.5e-8 turns a rounding difference of 1e-16 into one of 1e-8.
Element-by-element numpy arithmetic rounds as the scalar loops do, so
only the sums need care.  Arrays keep MINPACK's layout: `a[i, j]` is
a(i, j), with 0-based indices.

Of MINPACK's exits only 1-5 are ported.  Infos 6-8 test the same
quantities as 1, 2 and 4 against machine epsilon, so at these tolerances
each is caught first by the looser test.
"""

from __future__ import annotations

import math

import numpy as np

EPSMCH = float(np.finfo(float).eps)
DWARF = float(np.finfo(float).tiny)
TOL = 1e-8  # ftol, xtol and gtol
FACTOR = 100.0


def _dot(a, b) -> float:
    """sum(a * b) added left to right from 0.0."""
    if a.size == 0:
        return 0.0
    # + 0.0 turns the -0.0 that an all-(-0.0) accumulate gives into MINPACK's +0.0
    return float(np.add.accumulate(a * b)[-1]) + 0.0


def _enorm(v) -> float:
    return math.sqrt(_dot(v, v))


def _rank(diagonal) -> int:
    """The columns of a triangular factor before its first zero on the
    diagonal: a singular system is solved on those alone."""
    zero = np.flatnonzero(diagonal == 0.0)
    return int(zero[0]) if zero.size else diagonal.size


def _jacobian(fun, x, f0):
    """scipy's `approx_derivative` 2-point rule: step sqrt(eps) * s *
    max(1, |x|) with s = +1 for x >= 0 and -1 otherwise, divided by the
    step as it lands, (x_i + h_i) - x_i."""
    h = math.sqrt(EPSMCH) * np.where(x >= 0, 1.0, -1.0) * np.maximum(1.0, np.abs(x))
    jac = np.empty((f0.size, x.size))
    for i in range(x.size):
        xi = x.copy()
        xi[i] = x[i] + h[i]
        jac[:, i] = (fun(xi) - f0) / (xi[i] - x[i])
    return jac


def _qrfac(a):
    """Householder QR of `a` in place with column pivoting (the first
    largest column wins): R's strict upper triangle, and the Householder
    vectors below it.  Returns (ipvt, rdiag, acnorm): the permutation, R's
    diagonal and the column norms of the input."""
    m, n = a.shape
    acnorm = np.array([_enorm(a[:, j]) for j in range(n)])
    rdiag = acnorm.copy()
    wa = acnorm.copy()
    ipvt = np.arange(n)
    for j in range(min(m, n)):
        kmax = j + int(np.argmax(rdiag[j:]))
        if kmax != j:
            a[:, [j, kmax]] = a[:, [kmax, j]]
            rdiag[kmax] = rdiag[j]
            wa[kmax] = wa[j]
            ipvt[[j, kmax]] = ipvt[[kmax, j]]
        ajnorm = _enorm(a[j:, j])
        if ajnorm != 0.0:
            if a[j, j] < 0.0:
                ajnorm = -ajnorm
            a[j:, j] /= ajnorm
            a[j, j] += 1.0
            for k in range(j + 1, n):
                temp = _dot(a[j:, j], a[j:, k]) / a[j, j]
                a[j:, k] -= temp * a[j:, j]
                if rdiag[k] != 0.0:
                    temp = a[j, k] / rdiag[k]
                    rdiag[k] *= math.sqrt(max(0.0, 1.0 - temp * temp))
                    temp = rdiag[k] / wa[k]
                    if 0.05 * (temp * temp) <= EPSMCH:
                        rdiag[k] = wa[k] = _enorm(a[j + 1 :, k])
        rdiag[j] = -ajnorm
    return ipvt, rdiag, acnorm


def _qrsolv(r, ipvt, diag, qtb):
    """The least-squares solution x of [A; D] x = [b; 0] from A's pivoted
    QR (R in `r`'s upper triangle, Q^T b in `qtb`) by Givens rotations.
    `r`'s strict lower triangle receives S^T, where S^T S = P^T (A^T A +
    D D) P; returns (x, sdiag), sdiag being S's diagonal."""
    n = diag.size
    for j in range(n):
        r[j:, j] = r[j, j:]
    x = np.diag(r).copy()
    wa = qtb.copy()
    sdiag = np.empty(n)
    for j in range(n):
        l = ipvt[j]
        if diag[l] != 0.0:
            sdiag[j:] = 0.0
            sdiag[j] = diag[l]
            qtbpj = 0.0
            for k in range(j, n):
                if sdiag[k] == 0.0:
                    continue
                if abs(r[k, k]) < abs(sdiag[k]):
                    cotan = r[k, k] / sdiag[k]
                    sin = 0.5 / math.sqrt(0.25 + 0.25 * (cotan * cotan))
                    cos = sin * cotan
                else:
                    tan = sdiag[k] / r[k, k]
                    cos = 0.5 / math.sqrt(0.25 + 0.25 * (tan * tan))
                    sin = cos * tan
                r[k, k] = cos * r[k, k] + sin * sdiag[k]
                temp = cos * wa[k] + sin * qtbpj
                qtbpj = -sin * wa[k] + cos * qtbpj
                wa[k] = temp
                column = r[k + 1 :, k].copy()
                r[k + 1 :, k] = cos * column + sin * sdiag[k + 1 :]
                sdiag[k + 1 :] = -sin * column + cos * sdiag[k + 1 :]
        sdiag[j] = r[j, j]
        r[j, j] = x[j]
    nsing = _rank(sdiag)
    wa[nsing:] = 0.0
    for j in range(nsing - 1, -1, -1):
        wa[j] = (wa[j] - _dot(r[j + 1 : nsing, j], wa[j + 1 : nsing])) / sdiag[j]
    x[ipvt] = wa
    return x, sdiag


def _lmpar(r, ipvt, diag, qtb, delta, par):
    """The Levenberg–Marquardt parameter, from `par` on, whose step x has
    |diag * x| within 10% of `delta` (or par = 0 when the Gauss–Newton
    step already fits), in at most 10 iterations.  Returns (par, x)."""
    n = diag.size
    wa1 = qtb.copy()
    nsing = _rank(np.diag(r))
    wa1[nsing:] = 0.0
    for j in range(nsing - 1, -1, -1):
        wa1[j] /= r[j, j]
        wa1[:j] -= r[:j, j] * wa1[j]
    x = np.empty(n)
    x[ipvt] = wa1
    wa2 = diag * x
    dxnorm = _enorm(wa2)
    fp = dxnorm - delta
    if fp <= 0.1 * delta:
        return 0.0, x
    # The Newton step bounds the zero from below unless R is singular.
    parl = 0.0
    if nsing == n:
        wa1 = diag[ipvt] * (wa2[ipvt] / dxnorm)
        for j in range(n):
            wa1[j] = (wa1[j] - _dot(r[:j, j], wa1[:j])) / r[j, j]
        temp = _enorm(wa1)
        parl = ((fp / delta) / temp) / temp
    wa1 = np.array([_dot(r[: j + 1, j], qtb[: j + 1]) for j in range(n)]) / diag[ipvt]
    gnorm = _enorm(wa1)
    paru = gnorm / delta
    if paru == 0.0:
        paru = DWARF / min(delta, 0.1)
    par = min(max(par, parl), paru)
    if par == 0.0:
        par = gnorm / dxnorm
    for iteration in range(1, 11):
        if par == 0.0:
            par = max(DWARF, 0.001 * paru)
        x, sdiag = _qrsolv(r, ipvt, math.sqrt(par) * diag, qtb)
        wa2 = diag * x
        dxnorm = _enorm(wa2)
        temp = fp
        fp = dxnorm - delta
        if abs(fp) <= 0.1 * delta or (parl == 0.0 and fp <= temp < 0.0) or iteration == 10:
            break
        # Newton correction
        wa1 = diag[ipvt] * (wa2[ipvt] / dxnorm)
        for j in range(n):
            wa1[j] /= sdiag[j]
            wa1[j + 1 :] -= r[j + 1 :, j] * wa1[j]
        temp = _enorm(wa1)
        parc = ((fp / delta) / temp) / temp
        if fp > 0.0:
            parl = max(parl, par)
        if fp < 0.0:
            paru = min(paru, par)
        par = max(parl, par + parc)
    return par, x


def lmder(fun, x0, max_nfev: int):
    """Minimize sum(fun(x)**2) from `x0`.  Returns (x, fun(x), info), info
    being MINPACK's exit: 1 (actual and predicted reduction below ftol),
    2 (step below xtol), 3 (both), 4 (gradient below gtol), or 5 (the
    `max_nfev` budget of residual calls, Jacobian calls not counted, is
    spent)."""
    x = np.array(x0, dtype=float)
    n = x.size
    fvec = fun(x)
    nfev = 1
    fnorm = _enorm(fvec)
    par = 0.0
    first = True
    while True:
        fjac = _jacobian(fun, x, fvec)
        ipvt, rdiag, acnorm = _qrfac(fjac)
        if first:
            diag = np.where(acnorm == 0.0, 1.0, acnorm)
            xnorm = _enorm(diag * x)
            delta = FACTOR * xnorm if xnorm != 0.0 else FACTOR
        # qtf: the first n components of Q^T fvec; R's diagonal goes back in place
        wa4 = fvec.copy()
        qtf = np.empty(n)
        for j in range(n):
            if fjac[j, j] != 0.0:
                temp = -_dot(fjac[j:, j], wa4[j:]) / fjac[j, j]
                wa4[j:] += fjac[j:, j] * temp
            fjac[j, j] = rdiag[j]
            qtf[j] = wa4[j]
        gnorm = 0.0
        if fnorm != 0.0:
            for j in range(n):
                l = ipvt[j]
                if acnorm[l] != 0.0:
                    s = _dot(fjac[: j + 1, j], qtf[: j + 1] / fnorm)
                    gnorm = max(gnorm, abs(s / acnorm[l]))
        if gnorm <= TOL:
            return x, fvec, 4
        diag = np.maximum(diag, acnorm)
        r = fjac[:n]
        while True:
            par, step = _lmpar(r, ipvt, diag, qtf, delta, par)
            step = -step
            trial = x + step
            pnorm = _enorm(diag * step)
            if first:
                delta = min(delta, pnorm)
            ftrial = fun(trial)
            nfev += 1
            fnorm1 = _enorm(ftrial)
            actred = -1.0
            if 0.1 * fnorm1 < fnorm:
                temp = fnorm1 / fnorm
                actred = 1.0 - temp * temp
            wa3 = np.zeros(n)
            for j in range(n):
                wa3[: j + 1] += r[: j + 1, j] * step[ipvt[j]]
            temp1 = _enorm(wa3) / fnorm
            temp2 = (math.sqrt(par) * pnorm) / fnorm
            prered = temp1 * temp1 + temp2 * temp2 / 0.5
            dirder = -(temp1 * temp1 + temp2 * temp2)
            ratio = actred / prered if prered != 0.0 else 0.0
            if ratio <= 0.25:
                temp = 0.5 if actred >= 0.0 else 0.5 * dirder / (dirder + 0.5 * actred)
                if 0.1 * fnorm1 >= fnorm or temp < 0.1:
                    temp = 0.1
                delta = temp * min(delta, pnorm / 0.1)
                par /= temp
            elif par == 0.0 or ratio >= 0.75:
                delta = pnorm / 0.5
                par *= 0.5
            if ratio >= 1e-4:
                x, fvec, fnorm = trial, ftrial, fnorm1
                xnorm = _enorm(diag * x)
                first = False
            reduced = abs(actred) <= TOL and prered <= TOL and 0.5 * ratio <= 1.0
            info = reduced + 2 * (delta <= TOL * xnorm)
            if info:
                return x, fvec, info
            if nfev >= max_nfev:
                return x, fvec, 5
            # a NaN ratio leaves the inner loop as well, as MINPACK's test does
            if not ratio < 1e-4:
                break
