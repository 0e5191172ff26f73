"""Globally coupled lattices of piecewise-expanding circle maps.

The lattice update mixes the image of a local interval map T across all n
sites with strength gamma:

    new_x[i] = (1 - gamma) * T(x[i]) + (gamma / n) * sum_j T(x[j])

Each output component is a convex combination of the T(x[j]), so states stay
in [0, 1).  An optional additive-noise step perturbs every site independently
with eps * uniform(-0.5, 0.5), reduced mod 1.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import BoundaryError, DomainError, MemoryBudgetError


@dataclass(frozen=True)
class LocalMap:
    """Piecewise-affine expanding map of [0, 1), evaluated as a circle map.

    ``boundaries`` partition [0, 1) into branches [b_i, b_{i+1}); on branch i
    the map is x -> (slopes[i] * x + intercepts[i]) mod 1.  A point exactly on
    a boundary belongs to the branch starting there (right-closed convention;
    this pins the derivative at discontinuities).
    """

    boundaries: tuple[float, ...]
    slopes: tuple[float, ...]
    intercepts: tuple[float, ...]
    expansion_bound: float  # lambda: |T'| >= 1/lambda > 1 on every branch

    def __post_init__(self):
        b = np.asarray(self.boundaries, dtype=float)
        if b[0] != 0.0 or b[-1] != 1.0 or np.any(np.diff(b) <= 0):
            raise DomainError("boundaries must increase strictly from 0 to 1")
        if len(self.slopes) != len(b) - 1 or len(self.intercepts) != len(b) - 1:
            raise DomainError("need one (slope, intercept) pair per branch")
        lam = self.expansion_bound
        if not 0.0 < lam < 1.0:
            raise DomainError("expansion bound must lie in (0, 1)")
        if min(abs(s) for s in self.slopes) < 1.0 / lam - 1e-12:
            raise DomainError("|T'| >= 1/lambda violated on some branch")

    @classmethod
    def affine_mod1(cls, slope: int) -> "LocalMap":
        """The full-branch map x -> slope * x mod 1 (slope >= 2)."""
        if slope < 2:
            raise DomainError("slope must be an integer >= 2")
        bounds = tuple(i / slope for i in range(slope)) + (1.0,)
        return cls(
            boundaries=bounds,
            slopes=(float(slope),) * slope,
            intercepts=tuple(-float(i) for i in range(slope)),
            expansion_bound=1.0 / slope,
        )

    def _branch_index(self, x: np.ndarray) -> np.ndarray:
        return np.searchsorted(np.asarray(self.boundaries)[1:-1], x, side="right")

    @cached_property
    def _full_branch_slope(self) -> int | None:
        """s when this map is `affine_mod1(s)`, else None."""
        s = len(self.slopes)
        if s < 2:
            return None
        full = LocalMap.affine_mod1(s)
        same = (self.boundaries, self.slopes, self.intercepts) == (
            full.boundaries, full.slopes, full.intercepts)
        return s if same else None

    def _unchecked(self, arr: np.ndarray) -> np.ndarray:
        idx = self._branch_index(arr)
        s = np.asarray(self.slopes)[idx]
        c = np.asarray(self.intercepts)[idx]
        y = np.mod(s * arr + c, 1.0)
        # mod can return 1.0 for values a hair below an integer
        return np.where(y >= 1.0, 0.0, y)

    def __call__(self, x):
        """Evaluate T on a scalar or array with components in [0, 1)."""
        arr = _check_unit(np.asarray(x, dtype=float), "local map argument")
        y = self._unchecked(arr)
        return y if arr.ndim else float(y)

    def derivative(self, x):
        """T'(x) with the right-closed branch convention."""
        arr = _check_unit(np.asarray(x, dtype=float), "local map argument")
        d = np.asarray(self.slopes)[self._branch_index(arr)]
        return d if arr.ndim else float(d)

    def on_interior_boundary(self, x) -> np.ndarray:
        """True where x coincides exactly with an interior branch boundary."""
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        interior = np.asarray(self.boundaries)[1:-1]
        return np.isin(arr, interior)


@dataclass(frozen=True)
class MapSpec:
    """A coupled lattice: local map T, size n >= 2, coupling gamma in [0, 1)."""

    local_map: LocalMap
    n: int
    gamma: float

    def __post_init__(self):
        if self.n < 2:
            raise DomainError("lattice size n must be >= 2")
        if not 0.0 <= self.gamma < 1.0:
            raise DomainError("coupling gamma must lie in [0, 1)")

    @property
    def ei_hypothesis_ok(self) -> bool:
        """gamma < 1 - lambda, required by the closed-form EI results."""
        return self.gamma < 1.0 - self.local_map.expansion_bound


@dataclass(frozen=True)
class NoiseSpec:
    """Additive per-site noise eps * uniform(-0.5, 0.5), reduced mod 1."""

    epsilon: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.epsilon < np.inf:
            raise DomainError("noise intensity must be finite and >= 0")


@dataclass(frozen=True)
class TrajectoryConfig:
    """Parameters of a single reproducible trajectory."""

    map_spec: MapSpec
    length: int
    noise: NoiseSpec = NoiseSpec(0.0)
    burn_in: int = 0
    seed: int = 0
    initial_state: np.ndarray | None = field(default=None)

    def __post_init__(self):
        if self.length <= 0:
            raise DomainError("trajectory length must be positive")
        if self.burn_in < 0:
            raise DomainError("burn-in must be >= 0")
        if self.initial_state is not None:
            init = np.asarray(self.initial_state, dtype=float)
            if init.shape != (self.map_spec.n,):
                raise DomainError("initial state must have n components")
            _check_unit(init, "initial state components")


def _check_unit(arr: np.ndarray, what: str) -> np.ndarray:
    if not np.all((arr >= 0.0) & (arr < 1.0)):  # rejects NaN too
        raise DomainError(f"{what} must lie in [0, 1)")
    return arr


def validate_state(state: np.ndarray, n: int) -> np.ndarray:
    state = np.asarray(state, dtype=float)
    if state.shape[-1] != n:
        raise DomainError(f"state must have {n} components")
    return _check_unit(state, "state components")


_ONE = np.array(1.0)
_MAX_ENSEMBLE_BYTES = 1_600_000_000  # the ~1.6 GB scale of density._MAX_CELLS
_NOISE_BLOCK_STEPS = 256
_NOISE_BLOCK_ELEMENTS = 1 << 16  # 512 kB of noise per draw at most


def _lattice_update(spec: MapSpec, shape: tuple[int, ...]):
    """The deterministic update as ``update(src, dst)``: dst = T_hat(src).

    Works on arrays of ``shape`` (..., n) without checking them: src must
    lie in [0, 1) and dst must not alias src.  A full-branch map
    x -> s x mod 1 takes ``y = s x; y -= floor(y)``, which equals the branch
    form ``mod(s x - i, 1)`` of `LocalMap.__call__` bit for bit, because
    ``s x - i`` is exact; any other `LocalMap` takes the branch lookup.
    """
    lmap = spec.local_map
    full_slope = lmap._full_branch_slope
    # 0-d arrays: ufuncs take them faster than Python floats
    slope = np.array(float(full_slope or 0))
    keep, share = np.array(1.0 - spec.gamma), np.array(spec.gamma / spec.n)
    coupled = spec.gamma != 0.0
    scratch = np.empty(shape)
    over = np.empty(shape, dtype=bool)

    def update(src, dst):
        if full_slope:
            np.multiply(src, slope, out=dst)
            np.floor(dst, out=scratch)
            np.subtract(dst, scratch, out=dst)
        else:
            dst[...] = lmap._unchecked(src)
        if not coupled:
            return  # gamma = 0: the mix 1.0 * y + 0.0 is y, bit for bit
        # np.add.reduce is the reduction np.sum(y, axis=-1, keepdims=True)
        # runs, without its dispatch cost
        total = np.add.reduce(dst, axis=-1, keepdims=True)
        np.multiply(total, share, out=total)
        np.multiply(dst, keep, out=dst)
        np.add(dst, total, out=dst)
        # convex combination; guard the rare round-up to 1.0
        np.greater_equal(dst, _ONE, out=over)
        np.subtract(dst, _ONE, out=dst, where=over)

    return update


def _kick(dst: np.ndarray, kick: np.ndarray) -> None:
    """Add the noise kick eps * omega to dst in place, mod 1.

    ``y - floor(y)`` rounds once, as ``np.mod(y, 1.0)`` does, to the same
    value.  It gives 1.0 for a sum a hair below 0; that wraps to 0.
    """
    np.add(dst, kick, out=dst)
    np.subtract(dst, np.floor(dst), out=dst)
    np.copyto(dst, 0.0, where=dst >= _ONE)


def _orbit(
    spec: MapSpec,
    x: np.ndarray,
    length: int,
    noise: NoiseSpec,
    rng: np.random.Generator,
    burn_in: int = 0,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """The lattice kernel behind every time loop of the package.

    Returns the orbit of the (R, n) states ``x`` as a (length, R, n) array:
    row 0 is the state ``burn_in`` steps after ``x``, row k the k-th state
    after that.  The states are checked once here, and every step runs
    unchecked.  Noise is drawn in blocks of steps with one
    ``rng.uniform(-0.5, 0.5, size=(block, R, n))`` call, which consumes the
    stream exactly as one draw per step would, and no further than the last
    step taken.  ``out`` receives the orbit when given (a reused buffer);
    otherwise it is allocated here, within `_MAX_ENSEMBLE_BYTES`.
    """
    x = validate_state(x, spec.n)
    if length < 1 or burn_in < 0:
        raise DomainError("need length >= 1 and burn-in >= 0")
    realizations, n = x.shape
    if out is None:
        need = length * realizations * n * 8
        if need > _MAX_ENSEMBLE_BYTES:
            raise MemoryBudgetError(
                f"ensemble of {length} x {realizations} x {n} states needs "
                f"{need / 1e9:.2f} GB, over the "
                f"{_MAX_ENSEMBLE_BYTES / 1e9:.1f} GB budget"
            )
        out = np.empty((length, realizations, n))
    update = _lattice_update(spec, x.shape)
    eps = noise.epsilon
    block = max(1, min(_NOISE_BLOCK_STEPS, _NOISE_BLOCK_ELEMENTS // x.size))
    work = np.empty((2, realizations, n))  # burn-in states, alternating
    prev = work[0]
    prev[...] = x
    if burn_in == 0:
        out[0] = prev
    steps = burn_in + length - 1
    done = 0
    while done < steps:
        todo = min(block, steps - done)
        if eps != 0.0:
            kicks = rng.uniform(-0.5, 0.5, size=(todo, realizations, n))
            np.multiply(kicks, eps, out=kicks)
        for j in range(todo):
            t = done + j + 1  # the step that produces this state
            dst = out[t - burn_in] if t >= burn_in else work[t & 1]
            update(prev, dst)
            if eps != 0.0:
                _kick(dst, kicks[j])
            prev = dst
        done += todo
    return out


def step(state: np.ndarray, spec: MapSpec) -> np.ndarray:
    """One deterministic lattice update.  Works on (..., n) arrays."""
    state = validate_state(state, spec.n)
    out = np.empty_like(state)
    _lattice_update(spec, state.shape)(state, out)
    return out


def step_noisy(
    state: np.ndarray,
    spec: MapSpec,
    noise: NoiseSpec,
    rng: np.random.Generator,
) -> np.ndarray:
    """Deterministic step followed by additive noise, mod 1.

    eps = 0 reproduces `step` exactly and consumes no random numbers.
    """
    out = step(state, spec)
    if noise.epsilon != 0.0:
        _kick(out, noise.epsilon * rng.uniform(-0.5, 0.5, size=out.shape))
    return out


def jacobian_det(state: np.ndarray, spec: MapSpec) -> float:
    """|det D T_hat| = (1-gamma)^(n-1) * prod_k |T'(x_k)| for one step."""
    state = validate_state(state, spec.n)
    if np.any(spec.local_map.on_interior_boundary(state)):
        raise BoundaryError("component sits exactly on a branch discontinuity")
    slopes = np.abs(spec.local_map.derivative(state))
    return (1.0 - spec.gamma) ** (spec.n - 1) * float(np.prod(slopes))


def coupling_matrix(n: int, gamma: float) -> np.ndarray:
    """The symmetric mixing matrix: diag 1-gamma+gamma/n, off-diag gamma/n."""
    if n < 2:
        raise DomainError("n must be >= 2")
    if not 0.0 <= gamma < 1.0:
        raise DomainError("gamma must lie in [0, 1)")
    c = np.full((n, n), gamma / n)
    np.fill_diagonal(c, 1.0 - gamma + gamma / n)
    return c


def coupling_det(n: int, gamma: float) -> float:
    """det of the coupling matrix, in closed form: (1-gamma)^(n-1)."""
    if n < 2:
        raise DomainError("n must be >= 2")
    if not 0.0 <= gamma < 1.0:
        raise DomainError("gamma must lie in [0, 1)")
    return (1.0 - gamma) ** (n - 1)


def _rng_for(seed: int, *indices: int) -> np.random.Generator:
    """Deterministic stream derived from (master seed, indices...)."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, indices)]))


def simulate(config: TrajectoryConfig) -> np.ndarray:
    """Generate a trajectory of shape (length, n).

    Row 0 is the state reached after ``burn_in`` steps from the initial
    state; subsequent rows are successive updates.  With a fixed seed the
    output is bit-identical across runs, and a burn_in=k run equals the tail
    of a burn_in=0 run of length m+k.
    """
    spec = config.map_spec
    rng = _rng_for(config.seed)
    if config.initial_state is not None:
        state = np.asarray(config.initial_state, dtype=float)
    else:
        state = rng.uniform(0.0, 1.0, size=spec.n)
    orbit = _orbit(spec, state.reshape(1, spec.n), config.length,
                   config.noise, rng, config.burn_in)
    return orbit.reshape(config.length, spec.n)


def simulate_ensemble(
    spec: MapSpec,
    realizations: int,
    length: int,
    seed: int,
    noise: NoiseSpec = NoiseSpec(0.0),
    burn_in: int = 1000,
) -> np.ndarray:
    """Vectorized bundle of trajectories, shape (length, realizations, n).

    All realizations advance in lock-step from one seeded stream, so the
    result is deterministic given (seed, realizations, length, burn_in) but
    individual rows are not reproducible in isolation; use `simulate` with a
    derived seed when per-realization streams matter.
    """
    rng = _rng_for(seed)
    states = rng.uniform(0.0, 1.0, size=(realizations, spec.n))
    return _orbit(spec, states, length, noise, rng, burn_in)


def export_trajectory_csv(trajectory: np.ndarray, path) -> None:
    """Write `step,x_1,...,x_n` rows at full double precision."""
    trajectory = np.asarray(trajectory)
    n = trajectory.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step"] + [f"x_{i + 1}" for i in range(n)])
        for k, row in enumerate(trajectory):
            writer.writerow([k] + [f"{v:.17g}" for v in row])
