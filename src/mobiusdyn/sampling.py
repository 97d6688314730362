"""Deterministic random instances for experiments and tests.

Everything is driven by an explicit random.Random so that shipped configs and
the acceptance suite reproduce bit-identically.  "Admissible" instances are
the ones every verification layer can handle: distinct characteristic roots,
a seed that is not a fixed point, a closed form in normal position, and an
orbit that never visits the pole, so the scalar, linear-lift and closed-form
views agree index by index.  Random rational functions feed the Weil-sum
scans.
"""

from __future__ import annotations

import random

from .char_sums import RationalFunction
from .field_arith import Fp2Elem, FpElem, PrimeModulus, QuadExtension
from .mobius_dynamics import (
    DegenerateSpectral,
    MobiusMatrix,
    SpectralForm,
    Trajectory,
    period,
    spectral_form,
)


def random_sl2(rng: random.Random, modulus: PrimeModulus) -> MobiusMatrix:
    """SL2 matrix with c != 0 and distinct characteristic roots (trace != +-2).

    Draw a, c, d uniformly and solve for b; redraw on a repeated-root trace.
    """
    p = modulus.p
    while True:
        a = modulus.elem(rng.randrange(p))
        c = modulus.elem(rng.randrange(1, p))
        d = modulus.elem(rng.randrange(p))
        b = (a * d - modulus.one) / c
        matrix = MobiusMatrix(a, b, c, d)
        if matrix.trace.value not in (2, p - 2):
            return matrix


_SEED_TRIES = 12  # seeds per matrix before a fresh matrix is drawn


def random_admissible_instance(
    rng: random.Random, modulus: PrimeModulus
) -> tuple[MobiusMatrix, FpElem, Trajectory, SpectralForm]:
    """Draw (A, xi0) until the orbit is admissible; deterministic in rng.

    Matrices whose single projective cycle swallows the whole line leave no
    pole-free seeds, so after _SEED_TRIES failed seeds a fresh matrix is drawn.
    """
    p = modulus.p
    while True:
        matrix = random_sl2(rng, modulus)
        for _ in range(_SEED_TRIES):
            xi0 = modulus.elem(rng.randrange(p))
            traj = period(matrix, xi0)
            if traj.period == 1 or not traj.pole_free:
                continue
            try:
                form = spectral_form(matrix, xi0)
            except DegenerateSpectral:
                continue
            return matrix, xi0, traj, form


def random_rational_function_fp(
    rng: random.Random,
    modulus: PrimeModulus,
    max_degree: int = 3,
) -> RationalFunction:
    """Random h/g over F_p with max(deg g, deg h) >= 1 and h not proportional to g.

    Proportional h = lambda*g makes the additive phase constant and the
    square-root bound vacuous, so such draws are rejected.
    """
    p = modulus.p
    while True:
        dg = rng.randrange(max_degree + 1)
        dh = rng.randrange(max_degree + 1)
        if max(dg, dh) == 0:
            continue
        den = [modulus.elem(rng.randrange(p)) for _ in range(dg)]
        den.append(modulus.elem(rng.randrange(1, p)))
        num = [modulus.elem(rng.randrange(p)) for _ in range(dh)]
        num.append(modulus.elem(rng.randrange(1, p)))
        rf = RationalFunction(tuple(num), tuple(den))
        if not _proportional(rf.numerator, rf.denominator):
            return rf


def random_rational_function_fp2(
    rng: random.Random,
    ext: QuadExtension,
    group_generator: Fp2Elem,
    max_degree: int = 3,
) -> RationalFunction:
    """Random h/g over F_{p^2} whose trace phase actually varies on the norm-one group.

    Rejects draws where Tr(h(z)/g(z)) is constant across a probe of group
    elements (for example h/g = z0*(X^2-1)/X with z0 in F_p), since those
    degenerate sums escape any square-root bound.
    """
    p = ext.p
    probe = [ext.one]
    for _ in range(6):
        probe.append(probe[-1] * group_generator)
    while True:
        dg = rng.randrange(max_degree + 1)
        dh = rng.randrange(max_degree + 1)
        if max(dg, dh) == 0:
            continue
        den = [ext.elem(rng.randrange(p), rng.randrange(p)) for _ in range(dg)]
        den.append(_nonzero_fp2(rng, ext))
        num = [ext.elem(rng.randrange(p), rng.randrange(p)) for _ in range(dh)]
        num.append(_nonzero_fp2(rng, ext))
        rf = RationalFunction(tuple(num), tuple(den))
        if _proportional(rf.numerator, rf.denominator):
            continue
        traces = set()
        for z in probe:
            val = rf.value_at(z)
            if val is not None:
                traces.add(val.trace().value)
        if len(traces) >= 2:
            return rf


def _nonzero_fp2(rng: random.Random, ext: QuadExtension) -> Fp2Elem:
    p = ext.p
    while True:
        z = ext.elem(rng.randrange(p), rng.randrange(p))
        if z:
            return z


def _proportional(num: tuple, den: tuple) -> bool:
    """True when h = lambda * g for some field scalar lambda (h = 0 counts)."""
    if not num:
        return True
    if len(num) != len(den):
        return False
    lam = num[-1] * den[-1].inv()
    return all(c == lam * d for c, d in zip(num, den))
