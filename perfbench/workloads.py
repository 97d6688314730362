"""Workload generator: turns (workload name, seed) into CLI invocations.

Every instance the benchmark feeds the program is drawn here from the seed,
and its period and pole status are derived independently of the program:
the projective orbit of a non-fixed seed x under [[a, b], [c, d]] is a cycle
of length ord(mu), mu = theta1/theta2 the ratio of the characteristic roots,
and it passes through infinity (so the scalar orbit passes through the pole
and is one step shorter) exactly when w(x) = (x - r1)/(x - r2) lies in <mu>.
Both tests run in R = F_p[Z]/(Z^2 - eZ + det), which needs no square root
whether or not the characteristic polynomial splits.  The output checker
compares the CLI's periods and term counts against these predictions.

Each invocation carries a callable giving the values the checker expects
to read from its artifact (see check.view): the instance, the term counts and
periods predicted here, and the sums computed by the oracle module.

The default seed reproduces the pinned instances of the shipped configs.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import oracle

DEFAULT_SEED = 1

# Order of scripts/run_shipped.py; configs whose "rng_seed" gets the seed.
SHIPPED = [
    ("verify-spectral", "verify_spectral_p101"),
    ("sum-scan", "sum_scan_p10007"),
    ("sum-scan", "corr_scan_p1009"),
    ("weil-check", "weil_check_small"),
    ("bsz-report", "bsz_report_p1009"),
    ("mobius-check", "mobius_check_1e6"),
]

TWISTED_P = 10007
TWISTED_PINNED = ((614, 6938, 1409, 7104), 6851)
TWISTED_FREQUENCIES = (1, 77)
TWISTED_SCHEDULE = (10**4, 10**5, 10**6, 5 * 10**6)

BSZ_P = 1009
BSZ_PINNED = ((590, 448, 600, 406), 50)
BSZ_N = 4 * 10**6
BSZ_ALPHA = "0.2"

# First prime above 3e5 whose p - 1 and p + 1 each have a prime factor above
# p/10, so a random orbit is long and decimation has real work to do.
ORBIT_P = 300137
ORBIT_CORRELATIONS = ((1, 1, 0, 1), (3, 5, 1, 2), (7, 11, 2, 5))  # (u, v, k, m)
ORBIT_SINGLES_POLE_FREE = ((1, 1), (5, 3), (9, 101))  # (u, m)
# m = 101 is left out on the pole orbit: the O(m) fallback makes it ~10 s.
ORBIT_SINGLES_POLE = ((1, 1), (5, 3))

WORKLOADS = ("shipped", "twisted", "bsz", "orbit")


@dataclass
class Invocation:
    """One CLI child: its command, its config, and what it must report."""

    name: str
    command: str
    config: dict
    mu_cache: bool = False
    expected: Callable[[], dict] | None = None  # -> check.view() of a correct artifact

    def config_bytes(self) -> bytes:
        return (json.dumps(self.config, indent=2) + "\n").encode("utf-8")


@dataclass
class Workload:
    name: str
    seed: int
    invocations: list[Invocation]
    mu_cache_limit: int | None = None
    properties: dict = field(default_factory=dict)


# --- orbit arithmetic, independent of the program ------------------------------


def _factor(n: int) -> list[int]:
    primes, q = [], 2
    while q * q <= n:
        if n % q == 0:
            primes.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        primes.append(n)
    return primes


class _Ring:
    """F_p[Z]/(Z^2 - eZ + det); (x0, x1) stands for x0 + x1*Z."""

    def __init__(self, p: int, e: int, det: int):
        self.p, self.e, self.det = p, e % p, det % p

    def mul(self, x, y):
        p = self.p
        t = x[1] * y[1]
        return ((x[0] * y[0] - self.det * t) % p, (x[0] * y[1] + x[1] * y[0] + self.e * t) % p)

    def pow(self, x, n: int):
        out = (1, 0)
        while n:
            if n & 1:
                out = self.mul(out, x)
            x = self.mul(x, x)
            n >>= 1
        return out

    def norm(self, x) -> int:
        return (x[0] * x[0] + self.e * x[0] * x[1] + self.det * x[1] * x[1]) % self.p

    def ratio_to_conj(self, x):
        """x / conj(x) = x^2 / Nm(x); the caller guarantees Nm(x) != 0."""
        inv = pow(self.norm(x), self.p - 2, self.p)
        sq = self.mul(x, x)
        return (sq[0] * inv % self.p, sq[1] * inv % self.p)


def orbit_period(p: int, matrix: tuple[int, int, int, int], xi0: int) -> tuple[int, bool] | None:
    """(scalar period, orbit passes the pole) for the extended map, or None at a fixed point."""
    a, b, c, d = matrix
    det = (a * d - b * c) % p
    e = (a + d) % p
    ring = _Ring(p, e, det)
    y = ((c * xi0 + d) % p, p - 1)  # c*xi0 + d - Z
    if ring.norm(y) == 0:
        return None  # xi0 is a fixed point
    mu = ring.ratio_to_conj((0, 1))  # Z / conj(Z) = theta1 / theta2
    split = pow((e * e - 4 * det) % p, (p - 1) // 2, p) == 1
    order = p - 1 if split else p + 1
    for q in _factor(order):
        while order % q == 0 and ring.pow(mu, order // q) == (1, 0):
            order //= q
    hits_pole = ring.pow(ring.ratio_to_conj(y), order) == (1, 0)
    return order - hits_pole, hits_pole


def draw_instance(p: int, rng: random.Random, pole: bool) -> tuple[tuple[int, int, int, int], int, int]:
    """SL2 instance whose orbit has the largest possible period, (p +- 1)/2, and the given pole status."""
    while True:
        a, c, d = rng.randrange(p), rng.randrange(1, p), rng.randrange(p)
        if (a + d) % p in (2, p - 2):
            continue  # repeated characteristic root
        b = (a * d - 1) * pow(c, p - 2, p) % p
        xi0 = rng.randrange(p)
        got = orbit_period(p, (a, b, c, d), xi0)
        if got is None:
            continue
        period, hits = got
        if hits == pole and period + hits >= (p - 1) // 2:
            return (a, b, c, d), xi0, period


def _instance(p: int, pinned, workload: str, seed: int, pole: bool = False):
    if seed == DEFAULT_SEED and pinned is not None:
        matrix, xi0 = pinned
        period, hits = orbit_period(p, matrix, xi0)
        return matrix, xi0, period, hits
    matrix, xi0, period = draw_instance(p, random.Random(f"{workload}:{seed}:{pole}"), pole)
    return matrix, xi0, period, pole


def _instance_fields(p, matrix, xi0) -> dict:
    a, b, c, d = matrix
    return {"p": str(p), "matrix": [str(a), str(b), str(c), str(d)], "seed": str(xi0)}


def _cells(kind, p, matrix, xi0, n, u, v=None, k=None, m=None) -> list:
    """The exact cells of one sum_scan.csv row, in check.VIEW_COLUMNS order."""
    return [kind, p, *matrix, xi0, u, v, k, m, n]


def expected_scan(cells: list[list], sums, *args) -> dict:
    """Predicted cells plus the oracle's (re, im, abs) per CSV row; sums(*args) runs at check time."""
    return {"rows": [row + [z.real, z.imag, abs(z)] for row, z in zip(cells, sums(*args), strict=True)]}


def _expected_bsz(instance: list, *args) -> dict:
    return {"instance": instance, "collisions": 0, **oracle.bsz_report(*args)}


# --- the four workloads ---------------------------------------------------------


def shipped(seed: int, root: Path) -> Workload:
    invocations = []
    for command, name in SHIPPED:
        config = json.loads((root / "configs" / f"{name}.json").read_text(encoding="utf-8"))
        if "rng_seed" in config:
            config["rng_seed"] = str(seed)
        invocations.append(Invocation(name, command, config))
    props = {"configs": [name for _, name in SHIPPED], "rng_seed": seed, "mu_cache": "none"}
    return Workload("shipped", seed, invocations, None, props)


def twisted(seed: int, root: Path) -> Workload:
    p = TWISTED_P
    matrix, xi0, period, hits = _instance(p, TWISTED_PINNED, "twisted", seed)
    config = {
        "command": "sum-scan",
        **_instance_fields(p, matrix, xi0),
        "kinds": ["twisted"],
        "frequencies": [str(u) for u in TWISTED_FREQUENCIES],
        "n_schedule": [str(n) for n in TWISTED_SCHEDULE],
        "psi_u": "1",
        "threads": "1",
    }
    cells = [_cells("twisted", p, matrix, xi0, n, u) for u in TWISTED_FREQUENCIES for n in TWISTED_SCHEDULE]
    props = {
        "p": p, "matrix": list(matrix), "xi0": xi0, "period": period, "pole": hits,
        "N": max(TWISTED_SCHEDULE), "frequencies": list(TWISTED_FREQUENCIES),
        "terms": max(TWISTED_SCHEDULE) * len(TWISTED_FREQUENCIES), "mu_cache": "none (sieved per run)",
    }
    expected = functools.partial(
        expected_scan, cells, oracle.twisted_sums, p, matrix, xi0, period, TWISTED_FREQUENCIES, TWISTED_SCHEDULE
    )
    inv = Invocation("twisted", "sum-scan", config, expected=expected)
    return Workload("twisted", seed, [inv], None, props)


def bsz(seed: int, root: Path) -> Workload:
    p = BSZ_P
    matrix, xi0, period, hits = _instance(p, BSZ_PINNED, "bsz", seed)
    config = {
        "command": "bsz-report",
        **_instance_fields(p, matrix, xi0),
        "alpha": BSZ_ALPHA,
        "epsilon": "0.1",
        "n": str(BSZ_N),
        "nu": "mobius",
        "f": "psi_xi",
        "psi_u": "1",
        "threads": "1",
    }
    props = {
        "p": p, "matrix": list(matrix), "xi0": xi0, "period": period, "pole": hits,
        "N": BSZ_N, "alpha": float(BSZ_ALPHA), "mu_cache": f"prebuilt to {BSZ_N} in set-up",
    }
    instance = [p, list(matrix), xi0, period, BSZ_N]
    expected = functools.partial(_expected_bsz, instance, p, matrix, xi0, period, BSZ_N, float(BSZ_ALPHA))
    inv = Invocation("bsz", "bsz-report", config, mu_cache=True, expected=expected)
    return Workload("bsz", seed, [inv], BSZ_N, props)


def orbit(seed: int, root: Path) -> Workload:
    p = ORBIT_P
    invocations, instances = [], []
    for pole, singles in ((False, ORBIT_SINGLES_POLE_FREE), (True, ORBIT_SINGLES_POLE)):
        matrix, xi0, period, _ = _instance(p, None, "orbit", seed, pole)
        points = [
            {"kind": "correlation", "u": str(u), "v": str(v), "k": str(k), "m": str(m)}
            for u, v, k, m in ORBIT_CORRELATIONS
        ] + [{"kind": "single", "u": str(u), "m": str(m)} for u, m in singles]
        config = {
            "command": "sum-scan",
            **_instance_fields(p, matrix, xi0),
            "kinds": ["correlation", "single"],
            "psi_u": "1",
            "points": points,
            "threads": "1",
        }
        cells = [
            _cells("correlation", p, matrix, xi0, period, u, v, k, m) for u, v, k, m in ORBIT_CORRELATIONS
        ] + [_cells("single", p, matrix, xi0, period, u, m=m) for u, m in singles]
        name = "orbit_pole" if pole else "orbit_pole_free"
        expected = functools.partial(
            expected_scan, cells, oracle.decimated_sums, p, matrix, xi0, period, ORBIT_CORRELATIONS, singles
        )
        invocations.append(Invocation(name, "sum-scan", config, expected=expected))
        instances.append({
            "name": name, "matrix": list(matrix), "xi0": xi0, "period": period, "pole": pole,
            "N": period, "correlations (u, v, k, m)": [list(c) for c in ORBIT_CORRELATIONS],
            "singles (u, m)": [list(c) for c in singles],
        })
    props = {"p": p, "instances": instances, "mu_cache": "not used"}
    return Workload("orbit", seed, invocations, None, props)


def build(name: str, seed: int, root: Path) -> Workload:
    return {"shipped": shipped, "twisted": twisted, "bsz": bsz, "orbit": orbit}[name](seed, root)
