"""High-precision twins of closed forms, in 50-digit mpmath arithmetic.

Each twin takes double inputs as the exact binary numbers they are and
returns an mpmath number, so a test can state how many units of relative
error the package's double result carries.  The moduli of ℓ_p^n (n >= 2)
come from their textbook definitions: Clarkson's and Lindenstrauss's
formulas as written, and Hanner's equation solved by 200 bisection steps
in δ, or in ε/2 for the inverse δ⁻¹.  At 50 digits the cancellations and the flat root next to ε = 2
that the double-precision evaluation has to avoid cost digits far below
the double ones.  The derivative of the projection onto a segment or a
ray is an 80-digit secant of the nearest point's parameter, found by
bisection.
"""
import mpmath as mp

DPS = 50


def mp_delta(p, eps):
    """δ(ε) of ℓ_p: Clarkson for p >= 2, Hanner's root for p < 2."""
    with mp.workdps(DPS):
        p, e = mp.mpf(p), mp.mpf(eps)
        if p >= 2:
            return 1 - (1 - (e / 2) ** p) ** (1 / p)
        lo, hi = mp.mpf(0), mp.mpf(1)
        for _ in range(200):
            mid = (lo + hi) / 2
            if (1 - mid + e / 2) ** p + abs(1 - mid - e / 2) ** p > 2:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


def mp_delta_inverse(p, d):
    """ε with δ(ε) = d: Clarkson's formula solved for ε for p >= 2, Hanner's
    equation bisected in ε/2 for p < 2."""
    with mp.workdps(DPS):
        p, d = mp.mpf(p), mp.mpf(d)
        if p >= 2:
            return 2 * (1 - (1 - d) ** p) ** (1 / p)
        lo, hi = mp.mpf(0), mp.mpf(1)
        for _ in range(200):
            mid = (lo + hi) / 2
            if (1 - d + mid) ** p + abs(1 - d - mid) ** p < 2:
                lo = mid
            else:
                hi = mid
        return lo + hi


def mp_rho(p, t):
    """ρ(t) of ℓ_p (Lindenstrauss)."""
    with mp.workdps(DPS):
        p, t = mp.mpf(p), mp.mpf(t)
        if p <= 2:
            return (1 + t ** p) ** (1 / p) - 1
        return (((1 + t) ** p + abs(1 - t) ** p) / 2) ** (1 / p) - 1


def rel_error(value, exact):
    """|value - exact| / |exact| in high precision (0 where both are 0)."""
    with mp.workdps(DPS):
        diff = abs(mp.mpf(float(value)) - exact)
        return float(diff / abs(exact)) if exact != 0 else float(diff)


def _mp_line_param(p, base, d, hi):
    # the nearest point's parameter: the root of the decreasing slope
    # Σ d_i |r_i|^(p-1) sign r_i, r = base - t d, lies between the least and
    # the largest breakpoint base_i / d_i, and clipping it to [0, hi] gives
    # the constrained minimizer of the convex distance
    c = [b / e for b, e in zip(base, d) if e != 0]
    lo, top = min(c), max(c)
    for _ in range(240):
        mid = (lo + top) / 2
        r = [b - mid * e for b, e in zip(base, d)]
        if sum(e * mp.sign(q) * abs(q) ** (p - 1) for e, q in zip(d, r)) > 0:
            lo = mid
        else:
            top = mid
    t = max((lo + top) / 2, 0)
    return t if hi is None else min(t, hi)


def mp_line_derivative(p, origin, d, hi, x, v, h="1e-40"):
    """P'(x; v) for the segment (hi = 1) or the ray (hi = None) {origin + t d}:
    the secant (t(x + h v) - t(x))/h · d in 80-digit arithmetic."""
    with mp.workdps(80):
        p, h = mp.mpf(p), mp.mpf(h)
        d = [mp.mpf(float(e)) for e in d]
        base = [mp.mpf(float(a)) - mp.mpf(float(o)) for a, o in zip(x, origin)]
        moved = [b + h * mp.mpf(float(e)) for b, e in zip(base, v)]
        slope = (_mp_line_param(p, moved, d, hi) - _mp_line_param(p, base, d, hi)) / h
        return [slope * e for e in d]
