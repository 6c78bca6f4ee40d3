"""Jump measures on (0, infinity) with integrability certificates.

Two standing conditions gate the whole artifact: the summability condition

    int (y & 1) nu(dy) < infinity          (always required)

and the square-root condition

    int (sqrt(y) & 1) nu(dy) < infinity    (required for infinite activity)

Both, and the truncation diagnostic ``int_(0, delta] sqrt(y) nu(dy)``, are
integrals against nu, and one rule serves every such integral. A measure
answers ``_diverges(e)``: whether ``int_0 y^e nu(dy)`` diverges at 0. That
is decided by the *declared* exponent rho of a density on ``(0, inf)``
(density ~ c * y**-(1+rho) as y -> 0, divergent iff rho >= e), never by
numerical probing, since quadrature cannot certify divergence; atoms never
diverge. A measure's ``_integral(g, e, lo, hi)`` is ``int_(lo, hi] g
nu(dy)`` for a ``g`` that behaves like ``y^e`` at 0: the sum over the atoms,
or ``integrate`` of ``g * density``, with the singular exponent ``e - (1 +
rho)`` from 0. ``infinite_activity`` is ``_diverges(0)``, and the
certificates (cached on the measure), ``mass_above`` and ``sqrt_tail`` are
written once on top of the two.

The jump kernel ``int (1 - exp(-y c)) nu(dy)`` is ``one_minus_exp_integral``.
A density on ``(0, inf)`` whose callable has a ``one_minus_exp(c)`` method
(the named kinds of ``config``: exponential, gamma and tempered power) is
evaluated by that closed form. Every other measure -- atoms, any truncated
measure (``lower > 0``, the sampler's law) and a density without a closed
form -- uses a fixed weighted node set ``nodes = (y, w)`` and the one sum
``w . -expm1(-c (x) y)``. For atoms the nodes are the atoms. A density gets
order-16 Gauss-Legendre panels on a geometric grid (edge ratio at most 2)
from ``max(lower, 1e-14)`` to a tail cap, weighted by the density; on
``(0, 1e-14]`` one head atom matches ``int y nu`` and ``int y^2 nu``, so the
kernel is exact there to second order in ``c y``; the mass beyond the cap (at
most 1e-13) sits in one atom at the cap. The panels resolve
``1 - exp(-c y)`` at every scale ``1/c`` above the floor. On tempered-power
densities the relative error of the sum is below 1e-12 for ``c`` up to 1e9
and about 2e-11 at 1e10; beyond that it grows like ``(1e-14 c)^2``, where
the head atom no longer resolves ``1 - exp(-c y)``. The node set is also the
test oracle of the closed forms. It is built once per measure, when a
``TransitionKernels`` that uses it is made, and the product ``c (x) y`` is
formed in blocks of ``BLOCK_ROWS`` rows of ``c`` so its memory stays
bounded. A declared ``rho >= 1`` raises :class:`NonIntegrable` on both
routes, and so does a density whose tail mass stays above the threshold up
to ``TAIL_CAP_MAX``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import InvalidDelta, NonIntegrable, RestrictiveConditionViolated
from .numerics import (QuadratureResult, _hermite, _hermite_weights,
                       gauss_legendre_panels, integrate)

__all__ = [
    "Certificates",
    "JumpMeasure",
    "DiscreteJumpMeasure",
    "DensityJumpMeasure",
    "atoms",
    "density_measure",
    "delta_for_budget",
    "truncation_schedule",
]

NU_TOL = 1e-10          # default absolute tolerance for measure integrals
_TAIL_EPS = 1e-13       # relative mass ignored beyond the tabulated tail
NODE_FLOOR = 1e-14      # lowest panel edge of a density on (0, inf)
NODE_RATIO = 2.0        # largest edge ratio of the geometric density panels
NODE_TAIL = 1e-13       # density mass beyond the cap, kept as one atom
BLOCK_ROWS = 256        # rows of c per block of the c (x) y product
TAIL_CAP_MAX = 1e100    # largest tail cap tried before NonIntegrable
GUIDE = 8192            # buckets in u of the mark table's panel guide
MARK_NODES = 2049       # edges of the mark table's geometric grid


def _one(y):
    return 1.0


def one_minus_exp_sum(nodes, c):
    """``sum_i w_i (1 - exp(-c y_i))`` for scalar or array ``c >= 0``.

    ``nodes`` is ``(y, w)``. The product ``c (x) y`` is formed in one buffer
    of ``BLOCK_ROWS`` rows, reused for every block of ``c``.
    """
    y, w = nodes
    c = np.asarray(c, dtype=float)
    flat = c.ravel()
    out = np.empty(flat.size)
    buf = np.empty((min(flat.size, BLOCK_ROWS), y.size))
    neg_y, neg_w = -y, -w
    for i in range(0, flat.size, BLOCK_ROWS):
        blk = buf[:min(BLOCK_ROWS, flat.size - i)]
        np.multiply.outer(flat[i:i + blk.shape[0]], neg_y, out=blk)
        np.expm1(blk, out=blk)
        blk *= neg_w
        blk.sum(axis=1, out=out[i:i + blk.shape[0]])
    return out.reshape(c.shape) if c.ndim else float(out[0])


@dataclass(frozen=True)
class Certificates:
    """Numerical values of the two gate integrals (inf when divergent)."""

    summable_value: float
    summable_error: float
    sqrt_value: float
    sqrt_error: float


class JumpMeasure:
    """Common interface of the supported jump-measure representations; the
    measure lives on ``(lower, infinity)``."""

    lower = 0.0

    def _diverges(self, e: float) -> bool:
        """Whether ``int_0 y^e nu(dy)`` diverges at 0."""
        raise NotImplementedError

    def _integral(self, g, e: float, lo: float, hi: float,
                  what: Optional[str] = None, breakpoints=()):
        """``int_(lo, hi] g(y) nu(dy)`` for a ``g`` that behaves like
        ``y^e`` at 0. Without ``what`` the :class:`QuadratureResult`; with
        it the value, or :class:`NonIntegrable` naming ``what`` when the
        quadrature did not converge. ``breakpoints`` cut a density's range."""
        raise NotImplementedError

    @property
    def infinite_activity(self) -> bool:
        return self._diverges(0.0)

    @cached_property
    def certificates(self) -> Certificates:
        values = []
        for g, e in ((lambda y: np.minimum(y, 1.0), 1.0),
                     (lambda y: np.minimum(np.sqrt(y), 1.0), 0.5)):
            if self._diverges(e):
                values += [math.inf, 0.0]
            else:
                res = self._integral(g, e, self.lower, math.inf,
                                     breakpoints=(max(self.lower, 1.0),))
                values += [res.value, res.error_estimate]
        return Certificates(*values)

    def mass_above(self, delta: float) -> float:
        """Total mass of (delta, infinity); may be inf at delta == 0."""
        lo = max(self.lower, delta)
        if lo == 0.0 and self._diverges(0.0):
            return math.inf
        return self._integral(_one, 0.0, lo, math.inf, f"mass above {lo:g}",
                              breakpoints=(max(lo, 1.0) * 2,))

    def sqrt_tail(self, delta: float) -> float:
        """Truncation diagnostic ``int_(0, delta] sqrt(y) nu(dy)``."""
        if delta <= self.lower:
            return 0.0
        if self._diverges(0.5):
            return math.inf
        return self._integral(np.sqrt, 0.5, self.lower, delta,
                              f"sqrt tail below {delta:g}")

    @property
    def nodes(self) -> Tuple[np.ndarray, np.ndarray]:
        """Fixed weighted node set ``(y, w)`` of the jump kernel."""
        raise NotImplementedError

    def one_minus_exp_integral(self, c, tol: float = NU_TOL):
        """``int (1 - exp(-y c)) nu(dy)`` for scalar or array ``c >= 0``,
        as the weighted sum over ``nodes``. ``tol`` is accepted for
        interface compatibility; the result has a fixed accuracy."""
        return one_minus_exp_sum(self.nodes, c)

    def truncated(self, delta: float) -> "JumpMeasure":
        """The restriction to (delta, infinity); finite activity."""
        raise NotImplementedError

    def mark_sampler(self, delta: float = 0.0) -> "MarkSampler":
        """Sampler of the normalized restriction to (delta, infinity); one
        of mass 0 without atoms where the restriction has no mass."""
        raise NotImplementedError

    def require_sampling(self, delta: float) -> None:
        if self.infinite_activity:
            if not math.isfinite(self.certificates.sqrt_value):
                raise RestrictiveConditionViolated(
                    "infinite-activity jump measure without square-root "
                    "integrability; exact samplers unavailable")
            if delta <= 0:
                raise InvalidDelta(
                    "infinite-activity measures need a truncation level > 0")


class MarkSampler:
    """The normalized restriction of a measure to (delta, infinity) that
    jump sizes come from: its ``mass``, and either its ``atoms`` (sizes,
    weights), which a sampler draws by count, or ``sample``."""

    mass: float
    atoms: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        raise NotImplementedError


class _DiscreteMarks(MarkSampler):
    def __init__(self, sizes, weights):
        self.atoms = (np.asarray(sizes, dtype=float),
                      np.asarray(weights, dtype=float))
        self.mass = float(self.atoms[1].sum())


class _TableMarks(MarkSampler):
    """Inverse-CDF table on a geometric grid, inverted by cubic Hermite in
    ``u = cdf / cdf[-1]`` with the exact slopes ``dy/du = cdf[-1] / density``,
    capped at three times the secants beside them to keep panels monotone.
    The panel of a u is the guide's panel for its bucket of width 1/GUIDE,
    searched for only where the bucket holds an edge below u. Mass below the
    grid floor and beyond the tail cap (relative size around 1e-12 of the
    total) is folded into the nearest node.
    """

    def __init__(self, density, lo, cap, mass):
        edges = np.geomspace(lo, cap, MARK_NODES)
        nodes, weights = gauss_legendre_panels(edges)
        vals = weights * np.asarray(density(nodes), dtype=float)
        panel_mass = vals.reshape(MARK_NODES - 1, -1).sum(axis=1)
        cdf = np.concatenate(([0.0], np.cumsum(panel_mass)))
        keep = np.concatenate(([True], np.diff(cdf) > 0))
        cdf, edges = cdf[keep], edges[keep]
        self.mass = float(mass)
        self._u, self._y = cdf / cdf[-1], edges
        limit = 3.0 * np.diff(edges) / np.diff(self._u)
        limit = np.minimum(np.append(limit, np.inf), np.append(np.inf, limit))
        self._dy = cdf[-1] / np.maximum(np.asarray(density(edges), dtype=float),
                                        cdf[-1] / limit)
        self._guide = self._u[1:-1].searchsorted(np.arange(GUIDE) / GUIDE, "right")

    def sample(self, rng, size):
        u = rng.random(size)
        k = self._guide[(u * GUIDE).astype(int)]
        far = self._u[k + 1] <= u
        k[far] = self._u[1:-1].searchsorted(u[far], side="right")
        w = _hermite_weights(u, self._u[k], self._u[k + 1])
        return _hermite(w, self._y[k], self._dy[k], self._y[k + 1], self._dy[k + 1])


@dataclass(frozen=True)
class DiscreteJumpMeasure(JumpMeasure):
    """Finite collection of atoms ``(y_k, w_k)`` with finite ``y_k > 0``,
    ``w_k > 0``."""

    points: Tuple[Tuple[float, float], ...]

    def __post_init__(self):
        for y, w in self.points:
            if not (0 < y < math.inf and 0 < w < math.inf):
                raise ValueError("atoms need finite positive location and weight")

    @cached_property
    def _y(self):
        return np.asarray([p[0] for p in self.points], dtype=float)

    @cached_property
    def _w(self):
        return np.asarray([p[1] for p in self.points], dtype=float)

    def _diverges(self, e):
        return False

    def _integral(self, g, e, lo, hi, what=None, breakpoints=()):
        keep = (self._y > lo) & (self._y <= hi)
        value = float(np.sum(self._w[keep]
                             * np.asarray(g(self._y[keep]), dtype=float)))
        return value if what is not None else QuadratureResult(value, 0.0, 1)

    @property
    def nodes(self):
        return self._y, self._w

    def truncated(self, delta):
        pts = tuple(p for p in self.points if p[0] > delta)
        return DiscreteJumpMeasure(pts)

    def mark_sampler(self, delta=0.0):
        keep = self._y > delta
        return _DiscreteMarks(self._y[keep], self._w[keep])


@dataclass(frozen=True)
class DensityJumpMeasure(JumpMeasure):
    """Measure with a density on ``(lower, infinity)``.

    ``rho`` declares the small-y behaviour ``density(y) ~ c * y**-(1+rho)``
    as y -> 0 and decides integrability near zero; leave it ``None`` for
    densities that are integrable at 0 without a declared power (finite
    activity). The density must decay fast enough at infinity for a finite
    mass on [1, infinity).

    A ``density`` object may also supply ``one_minus_exp(c)``, the closed
    form of ``int_0^inf (1 - exp(-c y)) density(y) dy`` for an array ``c``;
    the jump kernel then uses it in place of the node set while
    ``lower == 0``.
    """

    density: Callable[[np.ndarray], np.ndarray]
    rho: Optional[float] = None
    lower: float = 0.0
    label: str = "density"

    def __post_init__(self):
        if self.lower < 0:
            raise ValueError("lower must be nonnegative")

    def _diverges(self, e):
        return self.lower == 0.0 and self.rho is not None and self.rho >= e

    def _integral(self, g, e, lo, hi, what=None, breakpoints=()):
        # the singular exponent of g * density at 0 is e - (1 + rho)
        singular = e - (1.0 + self.rho) \
            if lo == 0.0 and self.rho is not None else None
        res = integrate(lambda y: g(y) * self.density(y), lo, hi, tol=NU_TOL,
                        breakpoints=breakpoints, singular_exponent=singular)
        if what is None:
            return res
        if not res.converged:
            raise NonIntegrable(f"{what} did not converge: estimate {res.value:g} "
                                f"with error {res.error_estimate:g}")
        return res.value

    def _require_summable(self):
        if self._diverges(1.0):
            raise NonIntegrable(
                f"declared exponent rho={self.rho} >= 1: int (y & 1) nu(dy) diverges")

    def one_minus_exp_integral(self, c, tol=NU_TOL):
        """The density's closed form while ``lower == 0``, else the sum over
        ``nodes``."""
        closed = getattr(self.density, "one_minus_exp", None) \
            if self.lower == 0.0 else None
        if closed is None:
            return one_minus_exp_sum(self.nodes, c)
        self._require_summable()
        out = closed(np.asarray(c, dtype=float))
        return out if np.ndim(c) else float(out)

    @cached_property
    def nodes(self):
        """Gauss-Legendre panels weighted by the density, with a head atom
        for ``lower == 0`` and a tail atom at the cap (module docstring)."""
        self._require_summable()
        lo = self.lower if self.lower > 0.0 else NODE_FLOOR
        cap, tail = self._tail_cap(lo, NODE_TAIL)
        n = max(1, math.ceil(math.log(cap / lo) / math.log(NODE_RATIO)))
        y, w = gauss_legendre_panels(np.geomspace(lo, cap, n + 1))
        w = w * np.asarray(self.density(y), dtype=float)
        ys, ws = [y, [cap]], [w, [tail]]
        if self.lower == 0.0:
            m1, m2 = (self._integral(lambda v, k=k: v ** k, k, 0.0, lo,
                                     f"head moment {k} below {lo:g}")
                      for k in (1, 2))
            if m1 > 0.0:
                ys.insert(0, [m2 / m1])
                ws.insert(0, [m1 * m1 / m2])
        return np.concatenate(ys), np.concatenate(ws)

    def _tail_cap(self, lo, threshold):
        """(cap, mass beyond cap): the cap doubles from ``max(2 lo, 1)`` until
        the integral beyond it converges to a value in ``[0, threshold]``
        and the mass on ``[cap, 2 cap]`` is at most ``threshold`` as well.
        The second test guards against the infinite-range rule, which can
        report a converged but far too small tail for a slowly decaying
        density. Raises :class:`NonIntegrable` past ``TAIL_CAP_MAX``."""
        cap = max(2.0 * lo, 1.0)
        while cap <= TAIL_CAP_MAX:
            tail = self._integral(_one, 0.0, cap, math.inf)
            if (tail.converged and 0.0 <= tail.value <= threshold
                    and self._integral(_one, 0.0, cap, 2.0 * cap).value <= threshold):
                return cap, tail.value
            cap *= 2.0
        raise NonIntegrable(
            f"no tail cap up to {TAIL_CAP_MAX:g} leaves a mass of at most "
            f"{threshold:g} beyond it")

    def truncated(self, delta):
        lo = max(self.lower, delta)
        return DensityJumpMeasure(self.density, rho=self.rho, lower=lo,
                                  label=self.label)

    def mark_sampler(self, delta=0.0):
        lo = max(self.lower, delta)
        self.require_sampling(lo)
        total = self.mass_above(lo)
        if not (total > 0):    # no jumps above delta: ITilde is 0
            return _DiscreteMarks((), ())
        if lo == 0.0:
            # integrable singularity allowed: push the floor down until the
            # ignored head mass is negligible
            lo = 1.0
            while True:
                head = self._integral(_one, 0.0, 0.0, lo, f"head mass below {lo:g}")
                if head <= 1e-12 * total or lo < 1e-280:
                    break
                lo /= 16.0
        cap, _ = self._tail_cap(lo, _TAIL_EPS * total)
        return _TableMarks(self.density, lo, cap, total)


def atoms(points: Sequence[Tuple[float, float]]) -> DiscreteJumpMeasure:
    """Finite discrete measure from ``(size, weight)`` pairs."""
    return DiscreteJumpMeasure(tuple((float(y), float(w)) for y, w in points))


def density_measure(density, rho=None, lower=0.0, label="density") -> DensityJumpMeasure:
    return DensityJumpMeasure(density, rho=rho, lower=float(lower), label=label)


def delta_for_budget(nu: JumpMeasure, budget: float) -> float:
    """Largest truncation level whose sqrt-tail diagnostic stays under budget.

    The diagnostic is monotone nondecreasing in delta and tends to 0 with
    delta, so whenever the square-root condition holds a bracket of ``log
    delta`` bisected to 1e-13 applies; its lower end is under the budget.
    Without the square-root condition a summable measure raises
    :class:`RestrictiveConditionViolated`, as an explicit level does.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    if nu._diverges(0.5) and not nu._diverges(1.0):
        # no level helps; raise what an explicit level gets. A non-summable
        # measure walks the bracket down to NonIntegrable below
        nu.require_sampling(1.0)
    target = budget * (1.0 - 1e-6)
    if nu.sqrt_tail(1.0) <= target:
        return 1.0
    # the diagnostic can decay as slowly as delta^(1/2 - rho), so walk the
    # bracket down geometrically; stop before the density itself overflows
    hi, lo = 1.0, 1e-2
    while nu.sqrt_tail(lo) >= target:
        hi, lo = lo, lo * lo
        if lo < 1e-200:
            raise NonIntegrable(
                "no representable truncation level reaches this budget")
    a, b = math.log(lo), math.log(hi)
    while b - a > 1e-13 and a < (mid := 0.5 * (a + b)) < b:
        a, b = (mid, b) if nu.sqrt_tail(math.exp(mid)) < target else (a, mid)
    return math.exp(a)


def truncation_schedule(nu: JumpMeasure, levels: int, base: float = 4.0):
    """Truncation levels ``delta_n`` with diagnostics under ``base**-n``,
    mirroring the geometric schedule used by the limiting construction."""
    out = []
    for n in range(1, levels + 1):
        d = delta_for_budget(nu, base ** (-n))
        out.append((d, nu.sqrt_tail(d)))
    return out
