"""Step-by-step reference implementations that the array paths are tested against."""

from mobiusdyn.field_arith import FpElem
from mobiusdyn.mobius_dynamics import MobiusMatrix


def orbit_walk(matrix: MobiusMatrix, xi0: FpElem, limit: int) -> list[int]:
    """xi_1, ..., xi_L with L = min(period, limit), one step of the extended map at a time.

    Raw-int arithmetic with one Fermat inversion per step; the pole goes to
    a/c, and the walk stops at the first return to xi_0.
    """
    a, b, c, d = matrix.entries()
    p = matrix.p
    pole_image = a * pow(c, p - 2, p) % p
    x0 = x = xi0.value
    out = []
    for _ in range(limit):
        den = (c * x + d) % p
        x = (a * x + b) * pow(den, p - 2, p) % p if den else pole_image
        out.append(x)
        if x == x0:
            break
    return out
