"""Noise generation and model simulation.

Two noise mechanisms are provided.  "strong" draws independent
Gaussian vectors with the season's covariance.  "weak-product" builds
each innovation coordinate as a moving product of m + 1 consecutive
standard normals from a channel-specific stream, then colors the
vector with the season's covariance factor.  The product noise is
uncorrelated in time but not independent, which is the regime the
robust covariance estimators are designed for.  Both kinds colour
every season in one product: each cycle's s d raw draws times the
block-diagonal matrix of the seasons' factors.

simulate runs the recursion on its state x_c, the max_p values that
end cycle c.  With (A, B) = model.cycle_maps(model) and u_c = B e_c, a
cycle renews the last n = min(max_p, s) d values of the state, and
over a block of K = block_cycles(model) cycles these are P x + T g: x
is the state before the block and g stacks the last n entries of its
u_c.  One product per seed takes T g of every block, the loop carries
x through P once per block, and a cycle's first values are u_c + A x_{c-1}.
The maps and the colour are built once per model value (s, d, every Phi
and Sigma) and kept, read-only, for the 8 models last simulated.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import require_int
from .estimate import PeriodicSeries
from .linalg import cholesky_upper
from .model import PvarModel, cycle_maps, require_causal

DEFAULT_BURNIN = 500

BLOCK = 40  # most cycles per block of simulate's recursion
BLOCK_VALUES = 80  # most renewed state values per block, bounding P and T

NOISE_KINDS = ("strong", "weak-product")


@dataclass
class NoiseSpec:
    """How to draw the innovation sequence.

    kind is "strong" or "weak-product"; m is the product-window
    exponent (ignored for strong noise).
    """

    kind: str = "strong"
    m: int = 1

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.kind == "weak-product":
            self.m = require_int("m", self.m, 1)


def colour_matrix(sigmas):
    """The (s, d, s, d) block-diagonal colour of a cycle's s d raw draws:
    block (v, v) is the upper Cholesky factor of sigmas[v], the rest 0."""
    factors = cholesky_upper(np.stack(sigmas))  # one call for every season
    s, d = factors.shape[:2]
    colour = np.zeros((s, d, s, d))
    colour[range(s), :, range(s)] = factors
    return colour


def gen_noise(colour, n_cycles, spec, rng):
    """Draw n_cycles full cycles of innovations, coloured by colour =
    colour_matrix(sigmas): an (n_cycles * s, d) array, row t-1 eps[t]."""
    s, d = colour.shape[:2]
    total = n_cycles * s
    if spec.kind == "strong":
        raw = rng.standard_normal((total, d))
    else:
        # raw[t] = eta[t] * eta[t+1] * ... * eta[t+m], multiplied left to right
        eta = rng.standard_normal((total + spec.m, d))
        raw = eta[:total] * eta[1:1 + total]
        for j in range(2, spec.m + 1):
            raw *= eta[j:j + total]
    # row c of the product holds raw[v] @ factors[v] of cycle c, v = 0..s-1
    return (raw.reshape(n_cycles, s * d) @ colour.reshape(s * d, s * d)
            ).reshape(total, d)


def block_cycles(model):
    """simulate's cycles per block: BLOCK, fewer for a large state.

    K n <= BLOCK_VALUES unless K = 1, where T = I goes unused, so T is at
    most BLOCK_VALUES square, and the loop's P x costs max_p d n per cycle,
    at most what one cycle's A x costs.
    """
    n = min(model.max_p, model.s) * model.d
    return max(1, min(BLOCK, BLOCK_VALUES // max(n, 1)))


def simulate(model, n_cycles, spec=None, seed=0, burnin=DEFAULT_BURNIN):
    """Simulate a causal PVAR from zero initial values.

    Runs burnin extra cycles first and returns a PeriodicSeries whose
    presample holds the max_p values preceding time 1, so estimation
    can use every retained cycle.  seed may be one seed or a sequence;
    a sequence returns one stack of series whose data and presample
    have a leading seed axis, each slice bitwise equal to that seed
    simulated alone with noise from default_rng(seed).  The recursion
    steps once per block_cycles(model) cycles (see the module
    docstring), so it rounds differently from a step-by-step one.
    """
    single = np.ndim(seed) == 0
    seeds = [seed] if single else list(seed)
    require_int("len(seed)", len(seeds), 1)
    n_cycles = require_int("n_cycles", n_cycles, 1)
    burnin = require_int("burnin", burnin, 0)
    spec = spec or NoiseSpec()
    A, B, P, T, colour = _plan(model.s, model.d, tuple(
        tuple(a.tobytes() for a in lags) for lags in model.phi + [model.sigma]))
    R, s, d, max_p = len(seeds), model.s, model.d, model.max_p
    cycles = burnin + n_cycles
    m, n, q, K = max_p * d, min(max_p, s) * d, s * d, block_cycles(model)
    # y[r, max_p + t - 1] is Y[t] of seed r, cyc[r, c] the values of its
    # cycle c and x[r, c] the state before that cycle
    y = np.zeros((R, max_p + cycles * s, d))
    flat = y.reshape(R, -1)
    cyc = flat[:, m:].reshape(R, cycles, q)
    x = np.lib.stride_tricks.sliding_window_view(flat, m, axis=1)[:, ::q]
    for r, sd in enumerate(seeds):
        eps = gen_noise(colour, cycles, spec, np.random.default_rng(sd))
        np.matmul(eps.reshape(cycles, q), B.T, out=cyc[r])
    # every product is per seed, whatever R: a batch rounds as one seed
    g, full = cyc[:, :, q - n:], cycles - cycles % K
    if K > 1:  # T g of every block, the last one maybe short; T = I at K = 1
        g[:, :full] = (g[:, :full].reshape(R, full // K, K * n) @ T.T
                       ).reshape(R, full, n)
        k = cycles - full
        g[:, full:] = (g[:, full:].reshape(R, 1, k * n) @ T[:k * n, :k * n].T
                       ).reshape(R, k, n)
    for c in range(0, cycles, K):
        k = min(K, cycles - c)
        g[:, c:c + k] += (x[:, c, None] @ P[:k * n].T).reshape(R, k, n)
    for r in range(R):  # a cycle's first q - n values
        cyc[r, :, :q - n] += x[r, :cycles] @ A[:q - n].T
    start = max_p + burnin * s
    pick = 0 if single else slice(None)
    return PeriodicSeries(s=s, data=y[pick, start:],
                          presample=y[pick, start - max_p:start])


@lru_cache(maxsize=8)
def _plan(s, d, key):
    """simulate's read-only (A, B, P, T, colour) from a causal model's bytes."""
    *phi, sigma = [[np.frombuffer(a).reshape(d, d) for a in lags] for lags in key]
    model = PvarModel(s, d, phi, sigma)
    require_causal(model)
    A, B = cycle_maps(model)
    m, n, q, K = model.max_p * d, min(model.max_p, s) * d, s * d, block_cycles(model)
    # z = zA[:m] maps (x, g) of a block to the state after its cycle j
    # (zA[q:] of zA = [z; A z]), and [P | T] stacks the last n rows of each
    zA, eye, M = np.eye(m + q, m + K * n), np.eye(n), np.empty((K * n, m + K * n))
    for j in range(K):
        np.matmul(A, zA[:m], out=zA[m:])
        zA[:m] = zA[q:]
        zA[m - n:m, m + j * n:m + j * n + n] += eye
        M[j * n:j * n + n] = zA[m - n:m]
    plan = A, B, *np.split(M, [m], axis=1), colour_matrix(model.sigma)
    for a in plan:
        a.flags.writeable = False
    return plan
