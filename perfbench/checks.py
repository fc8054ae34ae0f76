"""Output checks, computed independently of the package's own closed forms.

The reference herald probability of the postselected gate on a signal with
mean photon number a = (1 - loss) |alpha|^2 is the two-level closed form

    p_ref = e^{-a} / 3 * sin^2(phi/2) * (1 + cot^2(phi/2) * a / 3).

It keeps the n = 0 and n = 1 signal sectors exactly.  The gate conserves
photon number and the herald keeps one meter photon, so sectors add without
cross terms, and each n >= 2 sector adds at most its Poisson weight.  Hence
|p - p_ref| <= P(n >= 2) <= a^2 / 2 for any correct simulation, and a row
passes when |p - p_ref| <= HERALD_RTOL * p_ref + a^2 / 2.  At g^2 <= 6 that
bound is below 1e-5 relative; it only matters at small phi, where
cot^2(phi/2) * a is no longer small.
"""

from __future__ import annotations

import json
import math

HERALD_RTOL = 1e-5
# echoed values are recomputed from the same inputs, so they match to rounding
ECHO_RTOL = 1e-9


class CheckFailed(Exception):
    """An output that a correct program cannot produce."""


def reference_herald(phi: float, a: float) -> float:
    s2 = math.sin(phi / 2.0) ** 2
    c2 = math.cos(phi / 2.0) ** 2
    return math.exp(-a) / 3.0 * (s2 + c2 * a / 3.0) if s2 > 0 else math.inf


def phi_of_gain(g2: float) -> float:
    return 2.0 * math.atan(1.0 / math.sqrt(g2))


def close(got: float, want: float, rtol: float, what: str) -> None:
    if got is None or not math.isfinite(got) or abs(got - want) > rtol * abs(want):
        raise CheckFailed(f"{what}: got {got!r}, want {want!r} (rtol {rtol:g})")


def check_herald(p: float, phi: float, a: float, what: str) -> None:
    want = reference_herald(phi, a)
    if p is None or not math.isfinite(p) or \
            abs(p - want) > HERALD_RTOL * want + a * a / 2.0:
        raise CheckFailed(f"{what}: herald probability {p!r} against "
                          f"reference {want!r} at phi={phi!r}, a={a!r}")


def table(text: str) -> list[dict]:
    """Rows of a json result as column -> value dicts."""
    doc = json.loads(text)
    return [dict(zip(doc["columns"], row)) for row in doc["rows"]]


def check_row_count(rows: list, want: int, what: str) -> None:
    if len(rows) != want:
        raise CheckFailed(f"{what}: {len(rows)} rows, want {want}")
