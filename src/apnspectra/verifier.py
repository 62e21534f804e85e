"""Claim-level reproduction sweeps.

Each ``verify_*`` function sweeps a parameter grid, runs the fast spectral
path together with the independent oracles, and returns a
:class:`Finding`.  Sweeps are exhaustive for m <= 4 and switch to
fixed-seed sampling of 200 distinct tuples per degree and family above
that; the seed is recorded in the finding, so reruns reproduce identical
counterexample lists.

Outcomes outside the hypotheses that make a claim provable at small m
(degree-2 cases of the cube-curve and full-image-set claims, and the
Zhou-Pott necessity direction at m = 2) are recorded as *boundary*
entries instead of refutations: the claim's counting argument needs
2^(m/2) > 2(2^k - 1), which fails there, and the sweep documents what
actually happens.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import asdict, dataclass, field as dc_field

import numpy as np

from .errors import ParameterError
from .families import (
    Butterfly,
    Carlet11,
    FamilyParams,
    Taniguchi,
    ZhouPott,
    build_function,
    butterfly_degenerate,
    carlet11_degenerate_triple,
    carlet11_is_apn,
    taniguchi_is_apn,
    zhoupott_apn_predicate,
)
from .gf2m import Field, field as canonical_field
from .lincurves import derive_pair, kernel_dimension
from .vbf import (
    component_spectrum_summary,
    component_truth_table,
    differential_spectrum,
    linear_space_dimensions,
    linear_structures,
)

DEFAULT_SEED = 987654321
SAMPLE_SIZE = 200
EXHAUSTIVE_MAX_M = 4

CONFIRMED = "confirmed"
REFUTED = "refuted"
OUT_OF_HYPOTHESIS = "out-of-hypothesis"


@dataclass
class Finding:
    claim: str
    status: str
    grid: dict
    counterexamples: list = dc_field(default_factory=list)
    boundary: list = dc_field(default_factory=list)
    details: dict = dc_field(default_factory=dict)
    elapsed_s: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)


class _Sweep:
    """Collects counterexamples and timing for one claim."""

    def __init__(self, claim: str, grid: dict):
        self.finding = Finding(claim, CONFIRMED, grid)
        self._start = time.perf_counter()
        self.instances = 0

    def refute(self, **payload) -> None:
        self.finding.status = REFUTED
        self.finding.counterexamples.append(payload)

    def boundary(self, **payload) -> None:
        self.finding.boundary.append(payload)

    def done(self, **details) -> Finding:
        self.finding.details.update(details)
        self.finding.details["instances"] = self.instances
        if self.instances == 0 and self.finding.status == CONFIRMED:
            self.finding.status = OUT_OF_HYPOTHESIS
        self.finding.elapsed_s = round(time.perf_counter() - self._start, 3)
        return self.finding


def _coprime_steps(m: int) -> list[int]:
    return [k for k in range(1, m) if math.gcd(k, m) == 1] or [1]


def _classical_bent_count(m: int) -> int:
    return 2 * ((1 << (2 * m)) - 1) // 3


def _nl_from_peaks(m: int, peaks: np.ndarray) -> int:
    return (1 << (2 * m - 1)) - int(peaks.max()) // 2


# ----------------------------------------------------------------------
# parameter grids (shared with the acceptance suite)
# ----------------------------------------------------------------------

def _distinct_draws(draw, count: int, space: int) -> list:
    """count distinct results of draw() in first-drawn order; a repeat is
    skipped and drawn again.  space bounds the distinct results, so a count
    above it is rejected before any draw instead of looping forever."""
    if count > space:
        raise ParameterError(f"cannot sample {count} distinct instances "
                             f"from {space}")
    out: dict = {}
    while len(out) < count:
        out[draw()] = None
    return list(out)


def taniguchi_grid(m: int, seed: int = DEFAULT_SEED) -> list[Taniguchi]:
    f = canonical_field(m)
    if m <= EXHAUSTIVE_MAX_M:
        return [Taniguchi(m, k, a, b) for k in _coprime_steps(m)
                for a in f.nonzero_elements() for b in f.nonzero_elements()]
    rng = random.Random(f"{seed}:taniguchi:{m}")
    return _distinct_draws(
        lambda: Taniguchi(m, rng.choice(_coprime_steps(m)),
                          rng.randrange(1, f.order),
                          rng.randrange(1, f.order)),
        SAMPLE_SIZE, len(_coprime_steps(m)) * (f.order - 1) ** 2)


def carlet11_degenerate_grid(m: int) -> list[Carlet11]:
    f = canonical_field(m)
    out = []
    for i in range(m):
        for j in range(m):
            if math.gcd((i - j) % m, m) != 1:
                continue
            for a in f.nonzero_elements():
                apow = f.frobenius(a, j - i)
                for t in f.nonzero_elements():
                    out.append(Carlet11(m, i, j, f.mul(f.mul(apow, a), t), t,
                                        f.mul(a, t), f.mul(apow, t)))
    return out


def carlet11_sampled_grid(m: int, seed: int = DEFAULT_SEED,
                          count: int = SAMPLE_SIZE) -> list[Carlet11]:
    f = canonical_field(m)
    rng = random.Random(f"{seed}:carlet11:{m}")
    pairs = [(i, j) for i in range(m) for j in range(m)
             if math.gcd((i - j) % m, m) == 1]

    def draw():
        i, j = rng.choice(pairs)
        return Carlet11(m, i, j,
                        rng.randrange(1, f.order), rng.randrange(1, f.order),
                        rng.randrange(f.order), rng.randrange(f.order))

    return _distinct_draws(draw, count,
                           len(pairs) * (f.order - 1) ** 2 * f.order ** 2)


def zhoupott_grid(m: int, js=(0, 1, 2, 3)) -> list[ZhouPott]:
    f = canonical_field(m)
    return [ZhouPott(m, k, j, a) for k in _coprime_steps(m) for j in js
            for a in f.nonzero_elements()]


def butterfly_grid(m: int, seed: int = DEFAULT_SEED) -> list[Butterfly]:
    f = canonical_field(m)
    if m <= EXHAUSTIVE_MAX_M:
        return [Butterfly(m, a, b) for a in f.nonzero_elements()
                for b in f.nonzero_elements()]
    rng = random.Random(f"{seed}:butterfly:{m}")
    out = _distinct_draws(
        lambda: Butterfly(m, rng.randrange(1, f.order),
                          rng.randrange(1, f.order)),
        SAMPLE_SIZE, (f.order - 1) ** 2)
    # make sure the degenerate branch beta = (1+alpha)^3 is exercised
    for a in f.nonzero_elements():
        b = f.pow(a ^ 1, 3)
        if b and Butterfly(m, a, b) not in out:
            out.append(Butterfly(m, a, b))
    return out


# ----------------------------------------------------------------------
# spectrum claims
# ----------------------------------------------------------------------

def verify_taniguchi_spectrum(m_values, seed: int = DEFAULT_SEED,
                              mutate_table=None) -> Finding:
    """All components bent or semibent for every alpha*beta != 0 instance;
    APN instances have exactly the classical bent count.

    The first half is the published claim and is refuted for every m >= 3:
    exactly the instances whose polynomial x^(2^k+1) + alpha*x + beta has
    three roots in GF(2^m) (the most it can have, as gcd(k, m) = 1) get
    4-plateaued components.  A root rules out APN, so these are all
    non-APN; the finding splits the violations by APN status, and in every
    sweep so far the APN half is clean.
    """
    sweep = _Sweep("taniguchi-spectrum",
                   {"m": list(m_values), "seed": seed,
                    "alpha_beta": "nonzero"})
    apn_violations = 0
    for m in m_values:
        for p in taniguchi_grid(m, seed):
            sweep.instances += 1
            fn = build_function(p)
            if mutate_table is not None:
                fn = mutate_table(fn)
            levels, _ = component_spectrum_summary(fn)
            apn = taniguchi_is_apn(m, p.k, p.alpha, p.beta)
            bad = np.nonzero(~np.isin(levels, (0, 2)))[0]
            if bad.size:
                apn_violations += apn
                sweep.refute(params=asdict(p), selector=int(bad[0]) + 1,
                             level=int(levels[bad[0]]), apn=apn,
                             reason="component not bent or semibent")
                continue
            if apn:
                bent = int(np.count_nonzero(levels == 0))
                if bent != _classical_bent_count(m):
                    apn_violations += 1
                    sweep.refute(params=asdict(p), bent_count=bent,
                                 expected=_classical_bent_count(m), apn=True,
                                 reason="APN instance missing classical "
                                        "bent count")
    return sweep.done(apn_violations=apn_violations)


def verify_carlet11(m_values, seed: int = DEFAULT_SEED) -> Finding:
    """Non-degenerate parameters give only bent/semibent components;
    degenerate triples give the exact closed-form nonlinearity.

    Like the Taniguchi claim, the first half is refuted: exactly the
    non-degenerate instances whose polynomial
    s*x^(2^i+2^j) + u*x^(2^i) + v*x^(2^j) + t has three roots get
    4-plateaued components, and a root rules out APN.  The
    degenerate-triple nonlinearity and every APN instance check out, and
    the finding splits the violations by APN status.
    """
    sweep = _Sweep("carlet11", {"m": list(m_values), "seed": seed,
                                "sampled": SAMPLE_SIZE,
                                "degenerate": "exhaustive"})
    apn_violations = 0
    for m in m_values:
        expect_nl = ((1 << (2 * m - 1)) - (1 << (3 * m // 2)) if m % 2 == 0
                     else (1 << (2 * m - 1)) - (1 << ((3 * m - 1) // 2)))
        for p in carlet11_degenerate_grid(m) + carlet11_sampled_grid(m, seed):
            sweep.instances += 1
            degenerate = carlet11_degenerate_triple(
                m, p.i, p.j, p.s, p.t, p.u, p.v) is not None
            levels, peaks = component_spectrum_summary(build_function(p))
            apn = carlet11_is_apn(m, p.i, p.j, p.s, p.t, p.u, p.v)
            if degenerate:
                nl = _nl_from_peaks(m, peaks)
                if nl != expect_nl:
                    sweep.refute(params=asdict(p), nonlinearity=nl,
                                 expected=expect_nl,
                                 reason="degenerate triple nonlinearity")
                if apn:
                    sweep.refute(params=asdict(p),
                                 reason="degenerate triple reported APN")
            else:
                bad = np.nonzero(~np.isin(levels, (0, 2)))[0]
                if bad.size:
                    apn_violations += apn
                    sweep.refute(params=asdict(p), selector=int(bad[0]) + 1,
                                 level=int(levels[bad[0]]), apn=apn,
                                 reason="non-degenerate component not "
                                        "bent or semibent")
    return sweep.done(apn_violations=apn_violations)


def verify_zhoupott(m_values, seed: int = DEFAULT_SEED) -> Finding:
    """APN test against brute force, plus the spectrum split by cube class.

    For even m >= 4: (j even and alpha non-cube) must equal uniformity 2;
    alpha non-cube (or odd m) means only bent/semibent components; alpha a
    cube means nonlinearity 2^(2m-1) - 2^(m+1) with 4-plateaued components.
    At m = 2 the necessity direction is recorded, not asserted.

    The APN halves hold on every grid swept; the published only-bent-or-
    semibent claim for non-cube alpha is refuted at even m >= 4 by the
    odd-j (hence non-APN) instances, which the finding reports.
    """
    sweep = _Sweep("zhoupott", {"m": list(m_values), "j": [0, 1, 2, 3],
                                "seed": seed, "alpha": "nonzero"})
    f_by_m = {}
    for m in m_values:
        f = f_by_m.setdefault(m, canonical_field(m))
        for p in zhoupott_grid(m):
            sweep.instances += 1
            fn = build_function(p)
            levels, peaks = component_spectrum_summary(fn)
            brute_apn = differential_spectrum(fn).is_apn
            if m % 2 == 0:
                predicted = zhoupott_apn_predicate(m, p.k, p.j, p.alpha)
                if predicted != brute_apn:
                    if m == 2:
                        sweep.boundary(params=asdict(p), predicate=predicted,
                                       uniformity_2=brute_apn,
                                       note="necessity argument needs "
                                            "2^(m/2) > 2(2^k - 1)")
                    else:
                        sweep.refute(params=asdict(p), predicate=predicted,
                                     uniformity_2=brute_apn,
                                     reason="APN test mismatch")
            else:
                if brute_apn:
                    sweep.refute(params=asdict(p),
                                 reason="APN instance at odd m")
            cube = f.is_cube(p.alpha)
            if m % 2 == 1 or not cube:
                bad = np.nonzero(~np.isin(levels, (0, 2)))[0]
                if bad.size:
                    sweep.refute(params=asdict(p), selector=int(bad[0]) + 1,
                                 level=int(levels[bad[0]]),
                                 reason="expected only bent/semibent")
            else:
                nl = _nl_from_peaks(m, peaks)
                if nl != (1 << (2 * m - 1)) - (1 << (m + 1)):
                    sweep.refute(params=asdict(p), nonlinearity=nl,
                                 expected=(1 << (2 * m - 1)) - (1 << (m + 1)),
                                 reason="cube-case nonlinearity")
                if int(levels.max()) != 4:
                    sweep.refute(params=asdict(p),
                                 max_level=int(levels.max()),
                                 reason="cube case must reach level 4")
    return sweep.done()


def verify_butterfly(m_values, seed: int = DEFAULT_SEED) -> Finding:
    """Spectrum {0, +-2^m, +-2^(m+1)} off the degenerate branch; on it the
    exact nonlinearity and the (m+1)-dimensional exceptional linear space
    {y = x} union {y = x + 1}."""
    sweep = _Sweep("butterfly", {"m": list(m_values), "seed": seed})
    for m in m_values:
        if m % 2 == 0:
            sweep.boundary(m=m, note="even m outside the family")
            continue
        f = canonical_field(m)
        expect_nl = (1 << (2 * m - 1)) - (1 << ((3 * m - 1) // 2))
        for p in butterfly_grid(m, seed):
            sweep.instances += 1
            fn = build_function(p)
            levels, peaks = component_spectrum_summary(fn)
            if not butterfly_degenerate(m, p.alpha, p.beta):
                bad = np.nonzero(~np.isin(levels, (0, 2)))[0]
                if bad.size:
                    sweep.refute(params=asdict(p), selector=int(bad[0]) + 1,
                                 level=int(levels[bad[0]]),
                                 reason="spectrum left {0,±2^m,±2^(m+1)}")
                continue
            nl = _nl_from_peaks(m, peaks)
            if nl != expect_nl:
                sweep.refute(params=asdict(p), nonlinearity=nl,
                             expected=expect_nl,
                             reason="degenerate-branch nonlinearity")
            high = np.nonzero(levels == m + 1)[0]
            q = f.order
            if high.size != q - 1:
                sweep.refute(params=asdict(p), count=int(high.size),
                             reason="degenerate branch must have exactly "
                                    "2^m - 1 (m+1)-plateaued components")
                continue
            # each exceptional component's linear space is the diagonal
            # plus one shifted diagonal {y = x + w}; scaling the selector
            # scales the kernel polynomial, so w runs over every nonzero
            # element, with w = 1 giving the {y=x} u {y=x+1} space
            offsets = set()
            for c in (int(h) + 1 for h in high):
                tab = component_truth_table(fn, (c & (q - 1), c >> m))
                structs = linear_structures(tab)
                shifts = {(z >> m) ^ (z & (q - 1)) for z in structs}
                if len(structs) != 2 * q or shifts & {0} != {0} or len(shifts) != 2:
                    sweep.refute(params=asdict(p), selector=c,
                                 reason="exceptional linear space is not a "
                                        "pair of shifted diagonals")
                    break
                offsets.add((shifts - {0}).pop())
            else:
                if offsets != set(f.nonzero_elements()):
                    sweep.refute(params=asdict(p),
                                 reason="exceptional spaces miss the "
                                        "{y=x} union {y=x+1} component")
    return sweep.done()


# ----------------------------------------------------------------------
# enumerative claims
# ----------------------------------------------------------------------

def verify_cube_curve(m_values, k_values=None,
                      seed: int = DEFAULT_SEED) -> Finding:
    """x^3 = alpha (t^(2^k) + t) always has the trivial solution; the
    reading with x != 0 and t^(2^k) + t != 0 is enumerated per degree."""
    sweep = _Sweep("cube-curve", {"m": list(m_values), "k": k_values})
    for m in m_values:
        if m % 2:
            sweep.boundary(m=m, note="claim is about even m")
            continue
        f = canonical_field(m)
        cube_values = {f.pow(x, 3) for x in f.elements()}
        for k in (k_values or _coprime_steps(m)):
            if math.gcd(k, m) != 1:
                continue
            hyper = {f.frobenius(t, k) ^ t for t in f.elements()}
            hyper.discard(0)
            for alpha in f.nonzero_elements():
                sweep.instances += 1
                # (0, 0) always solves; the strong reading needs a cube hit
                # on a nonzero hyperplane value (alpha*w != 0 then forces
                # the cube root x != 0)
                nontrivial = any(f.mul(alpha, w) in cube_values
                                 for w in hyper)
                if not nontrivial:
                    if m == 2:
                        sweep.boundary(m=m, k=k, alpha=alpha,
                                       note="no nontrivial solution; the "
                                            "point-count bound is vacuous "
                                            "at m = 2")
                    else:
                        sweep.refute(m=m, k=k, alpha=alpha,
                                     reason="no nontrivial solution")
    return sweep.done()


def excluded_multiplier_set(f: Field, k: int, j: int) -> set:
    """{a^(2^k+1) (t^(2^k)+t)^(1-2^j)} with zero-hyperplane terms skipped.

    Pairs with t^(2^k) + t = 0 would need a negative power of zero; they
    contribute only through a = 0, i.e. the element 0.
    """
    out = {0}
    exp = (1 - (1 << j)) % (f.order - 1)
    seen_w = set()
    for t in f.elements():
        w = f.frobenius(t, k) ^ t
        if w == 0 or w in seen_w:
            continue
        seen_w.add(w)
        wpow = f.pow(w, exp)
        for a in f.nonzero_elements():
            out.add(f.mul(f.mul(f.frobenius(a, k), a), wpow))
    return out


def verify_s_full(m_values, k_values=None, j_values=(0, 1, 2, 3),
                  seed: int = DEFAULT_SEED) -> Finding:
    """For even m and odd j the excluded-multiplier set is the whole field
    (so no alpha makes the family APN); even j gives exactly cubes + {0}."""
    sweep = _Sweep("s-full", {"m": list(m_values), "j": list(j_values),
                              "convention": "skip zero-hyperplane terms "
                                            "unless a = 0"})
    for m in m_values:
        if m % 2:
            sweep.boundary(m=m, note="claim is about even m")
            continue
        f = canonical_field(m)
        whole = set(f.elements())
        cubes0 = {f.pow(x, 3) for x in f.elements()}
        for k in (k_values or _coprime_steps(m)):
            if math.gcd(k, m) != 1:
                continue
            for j in j_values:
                sweep.instances += 1
                s = excluded_multiplier_set(f, k, j)
                if j % 2 == 1:
                    if s != whole:
                        missing = sorted(whole - s)
                        if m == 2:
                            sweep.boundary(m=m, k=k, j=j,
                                           set_size=len(s),
                                           missing=missing,
                                           note="set is proper at m = 2")
                        else:
                            sweep.refute(m=m, k=k, j=j, missing=missing,
                                         reason="odd-j set is not the "
                                                "whole field")
                else:
                    if s != cubes0:
                        sweep.refute(m=m, k=k, j=j,
                                     reason="even-j set is not exactly "
                                            "cubes plus zero")
    return sweep.done()


# ----------------------------------------------------------------------
# oracle agreement
# ----------------------------------------------------------------------

def _instances_for_triangle(m: int, seed: int) -> list[FamilyParams]:
    """The family-by-degree matrix of the headline spectrum claims."""
    out: list[FamilyParams] = []
    if m <= EXHAUSTIVE_MAX_M:
        out += taniguchi_grid(m, seed)
    if 3 <= m <= EXHAUSTIVE_MAX_M:
        out += carlet11_degenerate_grid(m)
        out += carlet11_sampled_grid(m, seed)
    if m % 2 == 0 and m <= EXHAUSTIVE_MAX_M:
        out += zhoupott_grid(m)
    if m % 2 == 1:
        out += butterfly_grid(m, seed)
    return out


def verify_kernel_wht_agreement(m_values, seed: int = DEFAULT_SEED,
                                instances=None, perturb_pair=None,
                                mutate_table=None) -> Finding:
    """Per component: pair kernel dimension == plateau level of the table
    == brute-force linear-space dimension, with zero disagreements.

    The level comes from ``component_spectrum_summary``: GF(2) ranks when
    the table is certified quadratic, the fast transform otherwise (a
    ``mutate_table`` flip takes that path).  A disagreement still reports
    it as ``wht_level``.

    Each instance takes one batched ``derive_pair`` over all its selectors
    c = lam | mu << m and one ``kernel_dimension``.  ``perturb_pair``, if
    given, is called once per instance as perturb_pair(pair, lam, mu) with
    that batched pair and the int arrays lam, mu, and returns the pair to
    reduce.  The first disagreeing selector of an instance is reported, and
    ``components`` counts the selectors compared up to and including it.
    """
    sweep = _Sweep("kernel-wht", {"m": list(m_values), "seed": seed})
    components = 0
    for m in m_values:
        q = 1 << m
        selectors = np.arange(1, q * q)
        lam, mu = selectors & (q - 1), selectors >> m
        for p in (instances if instances is not None
                  else _instances_for_triangle(m, seed)):
            if p.m != m:
                continue
            sweep.instances += 1
            fn = build_function(p)
            if mutate_table is not None:
                fn = mutate_table(fn)
            levels, _ = component_spectrum_summary(fn)
            brute = linear_space_dimensions(fn)
            pair = derive_pair(p, lam, mu)
            if perturb_pair is not None:
                pair = perturb_pair(pair, lam, mu)
            kdim = kernel_dimension(pair.A, pair.B)
            bad = np.nonzero((kdim != levels) | (kdim != brute))[0]
            if bad.size == 0:
                components += len(selectors)
                continue
            i = int(bad[0])
            components += i + 1
            sweep.refute(params=asdict(p), selector=i + 1,
                         kernel_dim=int(kdim[i]), wht_level=int(levels[i]),
                         brute_dim=int(brute[i]),
                         reason="oracle disagreement")
    return sweep.done(components=components)


CLAIMS = {
    "taniguchi-spectrum": verify_taniguchi_spectrum,
    "carlet11": verify_carlet11,
    "zhoupott": verify_zhoupott,
    "cube-curve": verify_cube_curve,
    "s-full": verify_s_full,
    "butterfly": verify_butterfly,
    "kernel-wht": verify_kernel_wht_agreement,
}
