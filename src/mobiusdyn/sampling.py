"""Deterministic random instances for experiments and tests.

Everything is driven by an explicit random.Random so that shipped configs and
the acceptance suite reproduce bit-identically.  `admissible_instance` admits
the seeds every verification layer can handle, sampled or configured: distinct
characteristic roots, a closed form in normal position (so no fixed point), and
an orbit that never visits the pole, so the scalar, linear-lift and closed-form
views agree index by index.  Random rational functions feed the Weil-sum scans;
they draw raw int coefficients (int pairs over F_{p^2}), and an F_{p^2} draw of
constant trace (a proportional one too) fails its _norm_one_traces probe.
"""

from __future__ import annotations

import random
from functools import lru_cache

import numpy as np

from .char_sums import RationalFunction, _norm_one_traces
from .field_arith import _powers, FpElem, PrimeModulus, norm_group_generator
from .mobius_dynamics import DegenerateSpectral, MobiusMatrix, SpectralForm, Trajectory, period, spectral_form


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


def admissible_instance(matrix: MobiusMatrix, xi0: FpElem) -> tuple[Trajectory, SpectralForm]:
    """(orbit, closed form) of xi0, or DegenerateSpectral for a fixed seed, an affine form or a pole orbit.

    The form comes first, so only a seed it accepts gets an orbit table; a
    pole orbit's table dies with this frame.
    """
    form = spectral_form(matrix, xi0)
    traj = period(matrix, xi0)
    if not traj.pole_free:
        raise DegenerateSpectral("the orbit passes through the pole; pick another seed")
    return traj, form


_SEED_TRIES = 12  # seeds per matrix before a fresh matrix is drawn


def random_admissible_instance(
    rng: random.Random, modulus: PrimeModulus
) -> tuple[MobiusMatrix, FpElem, Trajectory, SpectralForm]:
    """Draw (A, xi0) until admissible_instance accepts it; deterministic in rng.

    Matrices whose single projective cycle swallows the whole line leave no
    pole-free seeds, so after _SEED_TRIES failed seeds a fresh matrix is drawn.
    """
    p = modulus.p
    while True:
        matrix = random_sl2(rng, modulus)
        for _ in range(_SEED_TRIES):
            xi0 = modulus.elem(rng.randrange(p))
            try:
                return (matrix, xi0, *admissible_instance(matrix, xi0))
            except DegenerateSpectral:
                pass


def random_rational_function_fp(rng: random.Random, p: int, max_degree: int = 3) -> RationalFunction:
    """Random h/g over F_p with max(deg g, deg h) >= 1 and h not proportional to g.

    Proportional h = lambda*g makes the additive phase constant and the
    square-root bound vacuous, so such draws are rejected.
    """
    while True:
        dg = rng.randrange(max_degree + 1)
        dh = rng.randrange(max_degree + 1)
        if max(dg, dh) == 0:
            continue
        den = [rng.randrange(p) for _ in range(dg)] + [rng.randrange(1, p)]
        num = [rng.randrange(p) for _ in range(dh)] + [rng.randrange(1, p)]
        rf = RationalFunction(tuple(num), tuple(den), p)
        if not _proportional(rf):
            return rf


def random_rational_function_fp2(rng: random.Random, e: int, p: int, max_degree: int = 3) -> RationalFunction:
    """Random h/g over F_p[Z]/(Z^2 - e*Z + 1) whose trace phase actually varies on the norm-one group.

    Rejects draws where Tr(h(z)/g(z)) is constant on the probe z = g^0..g^6
    (g = norm_group_generator(e, p)) off the poles, for example
    h/g = z0*(X^2-1)/X with z0 in F_p, since those degenerate sums escape any
    square-root bound.  A proportional draw h = lambda*g is one of them: its
    trace is Tr(lambda) at every probe point off the poles.  The extension
    must be irreducible.  The probe is built once per (e, p) and read by the
    norm-one kernel's own _norm_one_traces, as a batch of one function.
    """
    probe = _probe(e % p, p)
    while True:
        dg = rng.randrange(max_degree + 1)
        dh = rng.randrange(max_degree + 1)
        if max(dg, dh) == 0:
            continue
        den = [(rng.randrange(p), rng.randrange(p)) for _ in range(dg)] + [_nonzero_pair(rng, p)]
        num = [(rng.randrange(p), rng.randrange(p)) for _ in range(dh)] + [_nonzero_pair(rng, p)]
        rf = RationalFunction(tuple(num), tuple(den), p, e)
        _, traces = _norm_one_traces([rf], probe)
        if len(set(traces.tolist())) >= 2:
            return rf


@lru_cache(maxsize=64)
def _probe(e: int, p: int) -> np.ndarray:
    """g^0, ..., g^6 for g = norm_group_generator(e, p), as a read-only (2, 7) pair array."""
    probe = _powers(norm_group_generator(e, p), 7, e, p)
    probe.flags.writeable = False
    return probe


def _nonzero_pair(rng: random.Random, p: int) -> tuple[int, int]:
    while True:
        z = (rng.randrange(p), rng.randrange(p))
        if z != (0, 0):
            return z


def _proportional(rf: RationalFunction) -> bool:
    """True when h = lambda * g over F_p for some scalar lambda (h = 0 counts)."""
    num, den, p = rf.numerator, rf.denominator, rf.p
    if not num:
        return True
    if len(num) != len(den):
        return False
    lam = num[-1] * pow(den[-1], -1, p) % p
    return all(c == lam * d % p for c, d in zip(num, den))
