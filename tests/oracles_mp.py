"""High-precision twins of closed forms, in 50-digit mpmath arithmetic.

Each twin takes double inputs as the exact binary numbers they are and
returns an mpmath number, so a test can state how many units of relative
error the package's double result carries.  The moduli of ℓ_p^n (n >= 2)
come from their textbook definitions: Clarkson's and Lindenstrauss's
formulas as written, and Hanner's equation solved by 200 bisection steps
in δ.  At 50 digits the cancellations and the flat root next to ε = 2
that the double-precision evaluation has to avoid cost digits far below
the double ones.
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
