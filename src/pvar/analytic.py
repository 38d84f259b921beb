"""Closed-form asymptotic covariances for a tractable special case.

The case is a bivariate two-season PVAR(1) with diagonal coefficient
and covariance matrices and product weak noise of window m + 1.  The
two coordinates then evolve as independent scalar periodic AR(1)
channels, and Omega(v), Psi(v), and both Theta(v) variants have
explicit rational expressions in the channel parameters.

These expressions reproduce a set of published large-sample reference
values for this example to the stated +-0.01.  Two of the original
displayed formulas disagree with those reference values, and this
module follows the values: the second-season Omega carries an extra
factor (1 - 2q), and for even m the middle geometric sum in the
own-channel Psi entries of season one uses the power 3^(m-2i-1).

The published values are not the moments of the process that
noise.simulate draws; pvar.oracle computes those exactly.  Measured
gaps at the default parameters:

- Omega(2) of channel 1 is 1.4535 here and 1.6634 in the process (the
  variance recursion b1 = f1^2 b2 + s1); Omega(1) is 1.7811 here and
  1.8150 in the process.
- The two channels are independent, so the cross entries of Theta
  equal their Theta_S values: Theta(2)[1] is 0.301 in the process,
  1.797 here.
- At m = 2 the process has Theta(1) = [5.138, 1.377, 2.675, 37.15]
  and Theta(2) = [5.004, 0.301, 0.370, 1.580]; here they are
  [2.483, 1.404, 2.677, 13.32] and [9.714, 1.797, 0.565, 8.122].

Acceptance 1 checks these published values; estimators are checked
against pvar.oracle.
"""

from dataclasses import dataclass
import math

import numpy as np

from .errors import NotCausal, UnsupportedOrder
from .lrv import theta_sandwich, theta_strong


@dataclass
class DiagExampleParams:
    """Channel-wise parameters of the diagonal two-season example.

    phi[i][v-1] and sigma[i][v-1] are the AR coefficient and noise
    variance of channel i+1 in season v.  m is the product-noise
    window exponent.
    """

    phi1_s1: float = 0.3
    phi2_s1: float = -0.6
    phi1_s2: float = -0.7
    phi2_s2: float = 0.15
    sig1_s1: float = 1.5
    sig2_s1: float = 2.5
    sig1_s2: float = 1.0
    sig2_s2: float = 0.5
    m: int = 1

    def __post_init__(self):
        for f1, f2 in self.channels():
            if abs(f1 * f2) >= 1.0:
                raise NotCausal("channel coefficient product must be below one")

    def channels(self):
        return ((self.phi1_s1, self.phi1_s2), (self.phi2_s1, self.phi2_s2))

    def variances(self):
        return ((self.sig1_s1, self.sig1_s2), (self.sig2_s1, self.sig2_s2))

    def sigma(self, season):
        v = season - 1
        return np.diag([self.variances()[0][v], self.variances()[1][v]])


def _channel_omega(f1, f2, s1, s2):
    """Season-wise regressor second moments of one scalar channel."""
    q = f1 * f1 * f2 * f2
    o1 = f2 * f2 * s1 + s2 / (1.0 - q)
    o2 = (s1 + s2 * f1 * f1 / (1.0 - q)) * (1.0 - 2.0 * q)
    return o1, o2


def omega_closed(params):
    """Diagonal Omega(1), Omega(2) of the example."""
    cols = [_channel_omega(f1, f2, s1, s2)
            for (f1, f2), (s1, s2) in zip(params.channels(), params.variances())]
    omega1 = np.diag([cols[0][0], cols[1][0]])
    omega2 = np.diag([cols[0][1], cols[1][1]])
    return omega1, omega2


def theta_s_closed(params):
    """Standard (independent-innovation) covariances Theta_S(1), Theta_S(2)."""
    omega1, omega2 = omega_closed(params)
    return (theta_strong(omega1, params.sigma(1)),
            theta_strong(omega2, params.sigma(2)))


def _own_psi_season1(f1, f2, s1, s2, m):
    """Own-channel score long-run variance at season one."""
    q = f1 * f1 * f2 * f2
    top = (m - 1) // 2
    # for even m the summand power drops by one; see the module notes
    drop = 1 if m % 2 == 0 else 0
    mid = sum(3.0 ** (m - 2 * i - drop) * q**i for i in range(top + 1))
    tail = q ** (top + 1) / (1.0 - q)
    return 3.0 ** (m - 1) * f2 * f2 * s1 * s1 + s1 * s2 * (mid + tail)


def _own_psi_season2(f1, f2, s1, s2, m):
    """Own-channel score long-run variance at season two."""
    q = f1 * f1 * f2 * f2
    top = m // 2
    mid = sum(3.0 ** (m - 2 * i + 1) * q**i for i in range(1, top + 1))
    tail = q ** (top + 1) / (1.0 - q)
    return 3.0**m * s1 * s1 + (s2 * s2 / (f2 * f2)) * (mid + tail)


def psi_closed(params):
    """Diagonal Psi(1), Psi(2) of the example; requires m >= 1."""
    if params.m < 1:
        raise UnsupportedOrder("the closed forms are only valid for m >= 1")
    (f11, f12), (f21, f22) = params.channels()
    (s11, s12), (s21, s22) = params.variances()
    q1 = f11 * f11 * f12 * f12
    q2 = f21 * f21 * f22 * f22
    psi1 = np.diag([
        _own_psi_season1(f11, f12, s11, s12, params.m),
        f12 * f12 * s11 * s21 + s21 * s12 / (1.0 - q1),
        f22 * f22 * s11 * s21 + s11 * s22 / (1.0 - q2),
        _own_psi_season1(f21, f22, s21, s22, params.m),
    ])
    psi2 = np.diag([
        _own_psi_season2(f11, f12, s11, s12, params.m),
        s11 * s21 + s22 * s12 * f11 * f11 / (1.0 - q1),
        s11 * s21 + s12 * s22 * f21 * f21 / (1.0 - q2),
        _own_psi_season2(f21, f22, s21, s22, params.m),
    ])
    return psi1, psi2


def theta_closed(params):
    """Sandwich covariances Theta(1), Theta(2) of the example."""
    omega1, omega2 = omega_closed(params)
    psi1, psi2 = psi_closed(params)
    return theta_sandwich(omega1, psi1, 2), theta_sandwich(omega2, psi2, 2)


def example_model(m=1):
    """The example as a PvarModel plus its NoiseSpec, for simulation."""
    from .model import PvarModel
    from .noise import NoiseSpec
    p = DiagExampleParams(m=m)
    (f11, f12), (f21, f22) = p.channels()
    model = PvarModel(
        s=2, d=2,
        phi=[[np.diag([f11, f21])], [np.diag([f12, f22])]],
        sigma=[p.sigma(1), p.sigma(2)],
    )
    return model, NoiseSpec(kind="weak-product", m=m)
