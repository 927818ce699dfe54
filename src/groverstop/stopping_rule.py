"""Constructive stopping rule for the M-vs-K discrimination problem.

For a triple with M > 0, gamma = theta_K/theta_M, p the nearest odd integer
to 1/(4*(gamma-1)) and s the nearest odd integer to 4*pi/theta_M, the rule
is the odd iteration count l = p*s.  When 0 < M < K < N/2, gamma - 1 <= 1/4
and the size condition sqrt(K) < 16*(gamma-1)^2*sqrt(N) hold, the paper's
theorem says that

    |l*theta_K/(4*pi) - p - 1/4| < 2*(gamma - 1)
    |l*theta_M/(4*pi) - p|       <    gamma - 1
    l <= 4*sqrt(N)/(sqrt(K) - sqrt(M))

Those premises are written once, elementwise, as
``transforms.applicability_flags``, which ``check_applicability`` reports
and ``table``'s ``applicable`` column reads; they do not stop the rule from
being built.  This module builds it for every M > 0 and certifies the
inequalities numerically, for one instance (``construct_rule``,
``certify``) or a column of them (``certified_rules``) with the same
elementwise formulas: ``transforms.l_bound_of`` for the bound on l (the
bound on m is half of it) and ``core_model.failure_kernel``, given l and
the two thetas, for the failure pair.  All inequality checks are exact
floating-point comparisons: the bounds have real slack at desk scale and
hidden tolerances would mask regressions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .core_model import (
    DEFAULT_EPSILON, GroverAngles, ProblemInstance, angles_of, error_bound, failure_kernel,
)
from .transforms import applicability_flags, l_bound_of

__all__ = [
    "Applicability",
    "StoppingRule",
    "CertificateReport",
    "DegenerateM",
    "DEFAULT_EPSILON",
    "check_applicability",
    "nearest_odd",
    "construct_rule",
    "certify",
]

class DegenerateM(ValueError):
    """M = 0: gamma is undefined; use the plain-Grover search path instead."""


@dataclass(frozen=True)
class Applicability:
    ordering_ok: bool  # M < K < N/2
    size_condition_ok: bool  # sqrt(K) < 16*(gamma-1)^2*sqrt(N)
    gamma_small_ok: bool  # gamma - 1 <= 1/4
    # Minimal eps with K < (1 + eps/(2*sqrt(2)))^2 * M: twice sqrt(2)*(sqrt(K/M) - 1),
    # the certified strict upper bound on gamma - 1.
    epsilon_bound: float | None
    all_ok: bool = field(init=False)

    def __post_init__(self) -> None:
        all_ok = self.ordering_ok and self.size_condition_ok and self.gamma_small_ok
        object.__setattr__(self, "all_ok", all_ok)


@dataclass(frozen=True)
class StoppingRule:
    p: int
    s: int
    l: int  # = p*s, odd
    m: int  # = (l-1)//2 iterations before measuring
    residual_K: float  # |l*theta_K/(4*pi) - p - 1/4|
    residual_M: float  # |l*theta_M/(4*pi) - p|
    l_bound: float  # 4*sqrt(N)/(sqrt(K)-sqrt(M))
    m_bound: float  # 2*sqrt(N)/(sqrt(K)-sqrt(M))


@dataclass(frozen=True)
class CertificateReport:
    """Numerical pass/fail of every inequality the rule is supposed to satisfy."""

    epsilon: float
    error_bound: float  # sin^2(2*pi*epsilon)
    fail_K: float
    fail_M: float
    l_odd: bool
    residual_K_ok: bool  # residual_K < 2*(gamma-1)
    residual_M_ok: bool  # residual_M < gamma-1
    epsilon_covers_gamma: bool  # 2*(gamma-1) <= epsilon
    fail_K_ok: bool  # fail_K < sin^2(2*pi*epsilon)
    fail_M_ok: bool
    l_within_bound: bool  # l <= l_bound
    certified: bool = field(init=False)

    def __post_init__(self) -> None:
        certified = (
            self.l_odd
            and self.residual_K_ok
            and self.residual_M_ok
            and self.epsilon_covers_gamma
            and self.fail_K_ok
            and self.fail_M_ok
            and self.l_within_bound
        )
        object.__setattr__(self, "certified", certified)


def check_applicability(instance: ProblemInstance) -> Applicability:
    """Evaluate every precondition flag of the constructive rule; never raises."""
    N, M, K = instance.N, instance.M, instance.K
    gamma = angles_of(instance).gamma
    # M = 0 has no gamma; a NaN in its place fails the two flags that need it.
    return Applicability(
        **applicability_flags(N, K, math.nan if gamma is None else gamma),
        epsilon_bound=None if M == 0 else 2.0 * (math.sqrt(2.0) * (math.sqrt(K / M) - 1.0)),
    )


def nearest_odd(x):
    """Odd integer nearest to x; exact ties (x an even integer) break downward.

    The smaller odd neighbor means a smaller l = p*s, hence fewer oracle calls.
    Elementwise on arrays, giving int64; every step is exact for |x| < 2**52.
    """
    array = isinstance(x, np.ndarray)
    lower = 2 * (np.floor if array else math.floor)((x - 1.0) / 2.0) + 1
    odd = lower + 2 * (x - lower > lower + 2 - x)
    return odd.astype(np.int64) if array else odd


def construct_rule(instance: ProblemInstance) -> StoppingRule:
    """Build the stopping rule (p, s, l, m) with its inequality residuals.

    Built whatever ``check_applicability`` says; ``certify`` judges the
    result.  M = 0 is refused: the construction needs gamma.
    """
    if instance.M == 0:
        raise DegenerateM(
            "M = 0 has no gamma; run the plain-Grover minimal-l search instead"
        )
    l_bound = l_bound_of(instance.N, instance.M, instance.K)
    angles = angles_of(instance)
    p, s, l, residual_K, residual_M = rule_terms(angles.theta_K, angles.theta_M, angles.gamma)
    return StoppingRule(
        p=p,
        s=s,
        l=l,
        m=(l - 1) // 2,
        residual_K=residual_K,
        residual_M=residual_M,
        l_bound=l_bound,
        m_bound=l_bound / 2.0,
    )


def rule_terms(theta_K, theta_M, gamma):
    """(p, s, l, residual_K, residual_M) of the rule, for M > 0.

    Elementwise on arrays, with int64 p, s and l.  Inside the envelope l
    stays below 2**50, so it converts to a double exactly, as a Python int does.
    """
    p = nearest_odd(1.0 / (4.0 * (gamma - 1.0)))
    s = nearest_odd(4.0 * math.pi / theta_M)
    l = p * s
    four_pi = 4.0 * math.pi
    residual_K = abs(l * theta_K / four_pi - p - 0.25)
    residual_M = abs(l * theta_M / four_pi - p)
    return p, s, l, residual_K, residual_M


def certify(
    rule: StoppingRule,
    instance: ProblemInstance,
    epsilon: float = DEFAULT_EPSILON,
) -> CertificateReport:
    """Check every inequality of the construction against this instance.

    Purely a reporting operation; a rule that fails some check still yields a
    report with the corresponding flags false.
    """
    angles = angles_of(instance)
    if angles.gamma is None:
        raise DegenerateM("cannot certify against an instance with M = 0")
    bound = error_bound(epsilon)
    flags = certificate_flags(
        rule.l, rule.residual_K, rule.residual_M, angles.gamma, rule.l_bound, epsilon
    )
    # An even l is a malformed rule; l_odd reports it, so no warning here.
    fail_K, fail_M = failure_kernel(rule.l, angles.theta_K, angles.theta_M)
    fail_K_ok, fail_M_ok = error_flags(fail_K, fail_M, bound)
    return CertificateReport(
        epsilon=epsilon,
        error_bound=bound,
        fail_K=fail_K,
        fail_M=fail_M,
        fail_K_ok=fail_K_ok,
        fail_M_ok=fail_M_ok,
        **flags,
    )


def certificate_flags(l, residual_K, residual_M, gamma, l_bound, epsilon) -> dict:
    """The certificate's flags that need no trig, by ``CertificateReport`` field.

    Elementwise on arrays, so a column of rules skips the trig of every rule
    that one of these flags already fails.
    """
    excess = gamma - 1.0
    return {
        "l_odd": l % 2 == 1,
        "residual_K_ok": residual_K < 2.0 * excess,
        "residual_M_ok": residual_M < excess,
        "epsilon_covers_gamma": 2.0 * excess <= epsilon,
        "l_within_bound": l <= l_bound,
    }


def error_flags(fail_K, fail_M, bound):
    """(fail_K_ok, fail_M_ok): each failure probability below the error bound."""
    return fail_K < bound, fail_M < bound


def certified_rules(rows, angles: GroverAngles, l_bound, epsilon: float):
    """(rows, p, s, l, failure pairs) of the certified rules among the given rows.

    ``construct_rule`` and ``certify`` over columns of angles and l_bound,
    taken at the given rows, which must have M > 0.  The failure pair comes
    from libm, as in ``certify``, and only for the rules that pass every flag
    that needs no trig.
    """
    theta_K, theta_M, gamma = (a[rows] for a in (angles.theta_K, angles.theta_M, angles.gamma))
    p, s, l, residual_K, residual_M = rule_terms(theta_K, theta_M, gamma)
    flags = certificate_flags(l, residual_K, residual_M, gamma, l_bound[rows], epsilon)
    ready = np.flatnonzero(np.logical_and.reduce(list(flags.values())))
    # Each pair is taken apart as it comes, so no list of tuples builds up.
    scalars = (column[ready].tolist() for column in (l, theta_K, theta_M))
    fails = np.fromiter(
        chain.from_iterable(map(failure_kernel, *scalars)), dtype=np.float64
    ).reshape(-1, 2)
    passed = np.logical_and(*error_flags(fails[:, 0], fails[:, 1], error_bound(epsilon)))
    certified = ready[passed]
    return rows[certified], p[certified], s[certified], l[certified], fails[passed]
