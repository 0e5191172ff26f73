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
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, MemoryBudgetError


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

    def __post_init__(self):
        b = np.asarray(self.boundaries, dtype=float)
        if b[0] != 0.0 or b[-1] != 1.0 or np.any(np.diff(b) <= 0):
            raise DomainError("boundaries must increase strictly from 0 to 1")
        if len(self.slopes) != len(b) - 1 or len(self.intercepts) != len(b) - 1:
            raise DomainError("need one (slope, intercept) pair per branch")
        if not np.all(np.abs(self.slopes) > 1.0):  # rejects NaN too
            raise DomainError("every branch needs |slope| > 1")

    @property
    def expansion_bound(self) -> float:
        """lambda = 1 / min |T'|, in (0, 1): |T'| >= 1/lambda everywhere."""
        return 1.0 / min(abs(s) for s in self.slopes)

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


def _check_unit(arr: np.ndarray, what: str) -> np.ndarray:
    if not np.all((arr >= 0.0) & (arr < 1.0)):  # rejects NaN too
        raise DomainError(f"{what} must lie in [0, 1)")
    return arr


_ONE = np.array(1.0)
_MAX_ENSEMBLE_BYTES = 1_600_000_000  # ~1.6 GB: a pass and what it fills
_NOISE_BLOCK_STEPS = 256
_NOISE_BLOCK_ELEMENTS = 1 << 16  # 512 kB of noise per draw at most
_CHUNK_ELEMENTS = 1 << 15  # 256 kB of float64 states per lock-step chunk


def _lattice_update(local_map: LocalMap, keep: np.ndarray, share: np.ndarray,
                    blocks: list[tuple[int, int]]):
    """The deterministic update as ``update(src, dst)``: dst = T_hat(src).

    Works on flat arrays of sites without checking them: src must lie in
    [0, 1), and dst, contiguous, must not alias src.  ``blocks`` lists the
    (R, n) of consecutive runs of rows, R rows of an n-site lattice each,
    every row's sites contiguous; an (R, n) array is one block.  ``keep``
    and ``share`` are the mix weights (1 - gamma, gamma / n), 0-d for one
    coupling or one per row for rows with their own; a row with gamma = 0
    mixes with 1.0 and 0.0, which gives its T values bit for bit.

    T, the mix and its guard run once over all sites; only the site sum
    runs once per block, one total per row, scaled by ``share`` before it
    is spread to the sites.  A block of n < 8 sites and R >= 16 (n - 2)
    rows adds its n columns, which costs less than ``np.add.reduce`` over
    its (R, n) view and gives its bits (below 8 terms numpy's pairwise sum
    adds left to right); other blocks take the reduce.  (``reduceat`` adds
    in another order.)  A coupled update writes T into a buffer of its
    own, so that the per-block views the sums read are made once.

    A full-branch map x -> s x mod 1 takes ``y = s x; y -= floor(y)``,
    which equals the branch form ``mod(s x - i, 1)`` of `LocalMap.__call__`
    bit for bit, because ``s x - i`` is exact; any other `LocalMap` takes
    the branch lookup.
    """
    full_slope = local_map._full_branch_slope
    # 0-d arrays: ufuncs take them faster than Python floats
    slope = np.array(float(full_slope or 0))
    coupled = np.any(share != 0.0)
    scratch = np.empty(sum(r * n for r, n in blocks))
    if coupled:
        y = np.empty(scratch.shape)
        over = np.empty(scratch.shape, dtype=bool)
        sites_per_row = np.repeat([n for _, n in blocks],
                                  [r for r, _ in blocks])
        rows = sites_per_row.size
        totals = np.empty(rows)
        row_of_site = np.repeat(np.arange(rows), sites_per_row)
        if keep.ndim:
            keep = np.repeat(keep, sites_per_row)
        reduced, columns = [], []  # per block: its view or columns, its totals
        site = row = 0
        for r, n in blocks:
            view = y[site:site + r * n].reshape(r, n)
            if n < 8 and r >= 16 * (n - 2):
                first, second, *rest = view.T  # its n columns
                columns.append((first, second, rest, totals[row:row + r]))
            else:
                reduced.append((view, totals[row:row + r]))
            site, row = site + r * n, row + r

    def update(src, dst):
        t = y if coupled else dst
        if full_slope:
            np.multiply(src, slope, out=t)
            np.floor(t, out=scratch)
            np.subtract(t, scratch, out=t)
        else:
            t[...] = local_map._unchecked(src)
        if not coupled:
            return  # gamma = 0: the mix 1.0 * y + 0.0 is y, bit for bit
        # np.add.reduce is the reduction np.sum(y, axis=-1) runs, without
        # its dispatch cost
        for view, total in reduced:
            np.add.reduce(view, axis=-1, out=total)
        for first, second, rest, total in columns:
            np.add(first, second, out=total)
            for column in rest:
                np.add(total, column, out=total)
        # `_mix`, with share * total taken per row, not per site
        np.multiply(totals, share, out=totals)
        totals.take(row_of_site, out=scratch, mode="wrap")
        np.multiply(y, keep, out=dst)
        np.add(dst, scratch, out=dst)
        np.greater_equal(dst, _ONE, out=over)
        np.subtract(dst, _ONE, out=dst, where=over)

    return update


def _mix_weights(spec: MapSpec) -> tuple[np.ndarray, np.ndarray]:
    """The weights (1 - gamma, gamma / n) that `_mix` takes, as 0-d arrays."""
    return np.array(1.0 - spec.gamma), np.array(spec.gamma / spec.n)


def _mix(y, total, keep, share, over) -> None:
    """The mean-field mix in place: y = keep * y + share * total.

    ``total`` holds the sum of the sites' T values and broadcasts against
    ``y``; it is scaled in place.  ``over`` is boolean scratch shaped like
    ``y``.  Every output is a convex combination of values in [0, 1), so
    only the rare round-up to 1.0 needs a guard.
    """
    np.multiply(total, share, out=total)
    np.multiply(y, keep, out=y)
    np.add(y, total, out=y)
    np.greater_equal(y, _ONE, out=over)
    np.subtract(y, _ONE, out=y, where=over)


def _kick(dst: np.ndarray, kick: np.ndarray, over: np.ndarray) -> None:
    """Add the noise kick eps * omega to dst in place, mod 1.

    ``y - floor(y)`` rounds once, as ``np.mod(y, 1.0)`` does, to the same
    value.  It gives 1.0 for a sum a hair below 0; that wraps to 0.  A kick
    of 0.0 leaves dst as it is, bit for bit.  ``kick`` is overwritten, and
    ``over`` is boolean scratch shaped like dst.
    """
    np.add(dst, kick, out=dst)
    np.subtract(dst, np.floor(dst, out=kick), out=dst)
    np.greater_equal(dst, _ONE, out=over)
    np.copyto(dst, 0.0, where=over)


def _advance(update, x: np.ndarray, burn_in: int, draw, out: np.ndarray,
             widest: int) -> np.ndarray:
    """The time loop of `lockstep_gaps`, the package's one orbit driver.

    Fills ``out`` (length, S) with the orbit of the checked flat states
    ``x`` (S,) under ``update``: row 0 is the state ``burn_in`` steps
    after ``x``, row k the k-th state after that.  ``draw(steps)`` returns
    the (steps, S) noise kicks of the next ``steps`` steps, or is None
    for a noise-free orbit; it is called once per block of steps, and never
    for a step past the last row.  A block is as many steps as the kicks of
    ``widest`` sites fit `_NOISE_BLOCK_ELEMENTS`, so a pass draws each
    point's kicks in blocks as long as a pass of its block alone would.
    """
    block = _noise_steps(widest)
    work = np.empty((2,) + x.shape)  # burn-in states, alternating
    over = np.empty(x.shape, dtype=bool)  # `_kick`'s scratch
    prev = work[0]
    prev[...] = x
    if burn_in == 0:
        out[0] = prev
    steps = burn_in + len(out) - 1
    done = 0
    while done < steps:
        todo = min(block, steps - done)
        kicks = None if draw is None else draw(todo)
        for j in range(todo):
            t = done + j + 1  # the step that produces this state
            dst = out[t - burn_in] if t >= burn_in else work[t & 1]
            update(prev, dst)
            if kicks is not None:
                _kick(dst, kicks[j], over)
            prev = dst
        done += todo
    return out


def _noise_steps(widest: int) -> int:  # per block of kicks of `_advance`
    return max(1, min(_NOISE_BLOCK_STEPS, _NOISE_BLOCK_ELEMENTS // widest))


def _check_budget(need: int, what: str) -> None:
    if need > _MAX_ENSEMBLE_BYTES:
        raise MemoryBudgetError(
            f"{what} needs {need / 1e9:.2f} GB, over the "
            f"{_MAX_ENSEMBLE_BYTES / 1e9:.1f} GB budget"
        )


@dataclass(frozen=True)
class GridPoint:
    """One grid point of a `lockstep_gaps` pass: ``realizations`` rows of an
    ``n``-site lattice with coupling ``gamma`` and noise ``epsilon``.  The
    stream of ``seed`` gives first the uniform start states of its sites,
    row by row, then the kicks uniform(-0.5, 0.5) * epsilon of each step."""

    n: int
    gamma: float
    epsilon: float
    seed: int
    realizations: int


def _blocks(points: list[GridPoint]) -> list[tuple[int, int]]:
    """The (R, n) of each run of consecutive points of equal n."""
    blocks = []
    for p in points:
        if blocks and blocks[-1][1] == p.n:
            blocks[-1] = (blocks[-1][0] + p.realizations, p.n)
        else:
            blocks.append((p.realizations, p.n))
    return blocks


def _chunk_steps(blocks: list[tuple[int, int]], length: int) -> int:
    """Steps per chunk of a pass: each block's share of a chunk holds about
    `_CHUNK_ELEMENTS` states at most, as a pass of that block alone would."""
    widest = max(r * n for r, n in blocks)
    return max(1, min(length, _CHUNK_ELEMENTS // widest))


def _pass_bytes(points: list[GridPoint], length: int, folded: bool) -> int:
    """What a `lockstep_gaps` pass over ``points`` holds at its peak: the
    series unless folded, the chunk, its values and room for ``gap`` (three
    chunks), per site 58 bytes of states and `_advance` and update buffers,
    per row the weights and totals, and with noise two blocks of kicks (one
    is drawn while one is held) and the draw buffer."""
    rows = sum(p.realizations for p in points)
    sites = sum(p.realizations * p.n for p in points)
    blocks = _blocks(points)
    widest = max(r * n for r, n in blocks)
    per_chunk = _chunk_steps(blocks, length)
    noisy = max([p.realizations * p.n for p in points if p.epsilon != 0.0],
                default=0)  # the widest noisy point's sites
    kicks = _noise_steps(widest) * (2 * sites + noisy) if noisy else 0
    return (8 * (0 if folded else length * rows) + 58 * sites + 32 * rows
            + 8 * per_chunk * (4 * sites + rows) + 8 * kicks)


def split_passes(groups: list[list[GridPoint]], length: int
                 ) -> list[list[list[GridPoint]]]:
    """``groups`` of points in order, cut between groups into consecutive
    runs, each as long as one unfolded `lockstep_gaps` pass over its points
    still fits `_MAX_ENSEMBLE_BYTES`.  A group that cannot fit alone is a
    run of its own, which `lockstep_gaps` refuses before allocating.

    A caller that drops each run's series before it runs the next holds at
    most one budget's worth of series at a time.
    """
    runs = []
    for points in groups:
        if runs and _pass_bytes([p for g in runs[-1] for p in g] + points,
                                length, False) <= _MAX_ENSEMBLE_BYTES:
            runs[-1].append(points)
        else:
            runs.append([points])
    return runs


def _check_points(local_map: LocalMap, points: list[GridPoint],
                  length: int, burn_in: int) -> None:
    """`lockstep_gaps`' checks of its arguments, as `DomainError`."""
    if length < 1 or burn_in < 0 or not points:
        raise DomainError("need length >= 1, burn-in >= 0 and a grid point")
    for p in points:
        MapSpec(local_map, p.n, p.gamma)
        NoiseSpec(p.epsilon)
        if p.realizations < 1:
            raise DomainError(f"a grid point needs >= 1 realization, got "
                              f"{p.realizations}")


def lockstep_gaps(
    local_map: LocalMap,
    points: list[GridPoint],
    length: int,
    burn_in: int,
    gap,
    fold=None,
) -> tuple[np.ndarray | None, list[np.ndarray]]:
    """Every point's orbits in one lock-step pass, whatever their n, reduced
    to one value per row and step on the fly.

    All sites of all ``points`` advance in one flat array, rows in point
    order; each row mixes with its own point's weights, and each noisy
    point adds the kicks of its own stream to its own rows.  So each
    point's rows hold, bit for bit, the orbits that a pass of that point
    alone gives, which `simulate_ensemble` returns.  Consecutive points of
    equal n form a block, and only the site sum of the update runs once per
    block.  The orbit streams through one reused buffer that holds about
    `_CHUNK_ELEMENTS` states of the widest block, and ``gap`` maps each
    block's chunk (m, R_block, n) to (m, R_block) values.

    Returns ``(series, finals)``: ``series`` (R_total, length) holds every
    row's values, and ``finals`` each point's (R, n) last states.  With
    ``fold``, ``fold(values, start)`` receives each chunk's (m, R_total)
    values and the orbit index of its first row instead, and ``series`` is
    None.  With ``gap`` None the fold receives the chunk's raw (m, S)
    states, valid until the next chunk overwrites them.  What the pass
    holds (`_pass_bytes`: the series unless folded, the chunk and the
    kernel's buffers) must fit `_MAX_ENSEMBLE_BYTES`; it is checked before
    anything is allocated.  `split_passes` cuts a grid into passes that
    fit.
    """
    _check_points(local_map, points, length, burn_in)
    rows = sum(p.realizations for p in points)
    _check_budget(
        _pass_bytes(points, length, fold is not None),
        f"lock-step pass of {rows} rows, "
        f"{sum(p.realizations * p.n for p in points)} sites over "
        f"{length} steps")
    rngs = [_rng_for(p.seed) for p in points]
    x = _check_unit(np.concatenate(
        [rng.uniform(0.0, 1.0, size=p.realizations * p.n)
         for rng, p in zip(rngs, points)]), "state components")
    weights = np.repeat([_mix_weights(MapSpec(local_map, p.n, p.gamma))
                         for p in points],
                        [p.realizations for p in points], axis=0)
    blocks = _blocks(points)
    noisy = []  # (sites, stream, eps) of each noisy point
    site = 0
    for p, rng in zip(points, rngs):
        if p.epsilon != 0.0:
            noisy.append((slice(site, site + p.realizations * p.n), rng,
                          p.epsilon))
        site += p.realizations * p.n
    size = x.size
    draw = None
    if noisy:
        widest_noisy = max(s.stop - s.start for s, _, _ in noisy)
        scratch = np.empty(0)

        def draw(steps):
            # Each point's uniforms fill a contiguous buffer (Generator.random
            # takes no strided out) in the order rng.uniform(-0.5, 0.5, size)
            # draws them; r - 0.5 is exact, so the kicks are those of
            # uniform(-0.5, 0.5) * eps, bit for bit.
            nonlocal scratch
            if scratch.size < steps * widest_noisy:
                scratch = np.empty(steps * widest_noisy)
            kicks = np.zeros((steps, size))  # 0.0 leaves a site as it is
            for sites, rng, eps in noisy:
                buf = scratch[:steps * (sites.stop - sites.start)].reshape(
                    steps, -1)
                rng.random(out=buf)
                np.subtract(buf, 0.5, out=buf)
                np.multiply(buf, eps, out=kicks[:, sites])
            return kicks
    update = _lattice_update(local_map, weights[:, 0], weights[:, 1], blocks)
    widest = max(r * n for r, n in blocks)
    per_chunk = _chunk_steps(blocks, length)
    series = np.empty((rows, length)) if fold is None else None
    chunk = np.empty((per_chunk, size))
    skip = burn_in
    for start in range(0, length, per_chunk):
        m = min(per_chunk, length - start)
        states = _advance(update, x, skip, draw, chunk[:m], widest)
        if gap is None:
            values = states
        else:
            values = np.empty((m, rows))
            site = row = 0
            for r, n in blocks:
                values[:, row:row + r] = gap(
                    states[:, site:site + r * n].reshape(m, r, n))
                site, row = site + r * n, row + r
        if fold is None:
            series[:, start:start + m] = values.T
        else:
            fold(values, start)
        x, skip = states[-1], 1
    finals, site = [], 0
    for p in points:
        finals.append(x[site:site + p.realizations * p.n]
                      .reshape(p.realizations, p.n).copy())
        site += p.realizations * p.n
    return series, finals


def step(state: np.ndarray, spec: MapSpec) -> np.ndarray:
    """One deterministic lattice update.  Works on (..., n) arrays."""
    state = _check_unit(np.asarray(state, dtype=float), "state components")
    if state.shape[-1:] != (spec.n,):
        raise DomainError(f"state must have {spec.n} components")
    out = np.empty(state.shape)
    update = _lattice_update(spec.local_map, *_mix_weights(spec),
                             [(state.size // spec.n, spec.n)])
    update(state.reshape(-1), out.reshape(-1))
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
        _kick(out, noise.epsilon * rng.uniform(-0.5, 0.5, size=out.shape),
              np.empty(out.shape, dtype=bool))
    return out


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


def _rng_for(seed: int) -> np.random.Generator:
    """Deterministic stream derived from the master seed."""
    return np.random.default_rng(np.random.SeedSequence([int(seed)]))


def simulate(spec: MapSpec, length: int, noise: NoiseSpec = NoiseSpec(0.0),
             burn_in: int = 0, seed: int = 0) -> np.ndarray:
    """Generate a trajectory of shape (length, n): the one realization of
    `simulate_ensemble` at ``seed``.

    Row 0 is the state reached after ``burn_in`` steps from the initial
    state; subsequent rows are successive updates.  With a fixed seed the
    output is bit-identical across runs, and a burn_in=k run equals the tail
    of a burn_in=0 run of length m+k.
    """
    return simulate_ensemble(spec, 1, length, seed, noise, burn_in)[:, 0]


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
    derived seed when per-realization streams matter.  The orbit is a
    one-point `lockstep_gaps` pass whose fold copies each chunk of states;
    the result and the pass together must fit `_MAX_ENSEMBLE_BYTES`, which
    is checked before anything is allocated.
    """
    point = GridPoint(spec.n, spec.gamma, noise.epsilon, seed, realizations)
    _check_points(spec.local_map, [point], length, burn_in)
    _check_budget(8 * length * realizations * spec.n
                  + _pass_bytes([point], length, True),
                  f"ensemble of {length} x {realizations} x {spec.n} states")
    out = np.empty((length, realizations, spec.n))
    flat = out.reshape(length, -1)

    def fold(states, start):
        flat[start:start + len(states)] = states

    lockstep_gaps(spec.local_map, [point], length, burn_in, None, fold)
    return out


def export_trajectory_csv(trajectory: np.ndarray, path) -> None:
    """Write `step,x_1,...,x_n` rows at full double precision."""
    trajectory = np.asarray(trajectory)
    n = trajectory.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step"] + [f"x_{i + 1}" for i in range(n)])
        for k, row in enumerate(trajectory):
            writer.writerow([k] + [f"{v:.17g}" for v in row])
