"""Exact continuous-time jump-chain simulators.

Gillespie-style simulation of the Moran block counting chain, the
general-measure block counting chain, the killed ancestral selection
graph (absorption frequencies), and the Moran type-frequency chain.
Each path records its seed and RNG algorithm; identical seeds give
bit-identical paths.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import DomainError, EmptyPath, NonAbsorbing, RateOverflow
from .measures import LambdaMeasure, ModelParams, MoranParams, lambda_rate

DELTA = -1  # cemetery marker of the killed ASG
RATE_CAP = 1e12
RNG_ALGORITHM = "PCG64"
STATE_CACHE_CAP = 10_000
_CHUNK = 256  # uniforms converted to Python floats at a time


@dataclass
class JumpPath:
    """Piecewise-constant trajectory: states[i] held for holding_times[i].

    The final entry is the sojourn drawn in the last visited state (or
    +inf at an absorbing state).  DELTA appears only as the final state
    and only for the killed ASG.
    """

    states: np.ndarray
    holding_times: np.ndarray
    seed: int
    model_tag: str
    rng_algorithm: str = RNG_ALGORITHM

    def __post_init__(self):
        if self.states.shape != self.holding_times.shape:
            raise DomainError("states and holding times must align")

    @property
    def n_events(self) -> int:
        return self.states.size - 1

    def to_csv(self, path: str) -> None:
        rows = zip(
            self.states.astype(np.int64).tolist(),
            self.holding_times.astype(float).tolist(),
        )
        with open(path, "w") as fh:
            fh.write("state,holding_time\n" + "".join(f"{s},{h!r}\n" for s, h in rows))


@dataclass
class OccupancyEstimate:
    """Time-weighted empirical distribution of a jump path."""

    weights: dict[int, float]
    total_time: float
    n_events: int

    def distribution(self) -> dict[int, float]:
        return {k: w / self.total_time for k, w in self.weights.items()}

    def tv_distance(self, probs: np.ndarray) -> float:
        """Total variation distance to a pmf indexed from state 1."""
        dist = self.distribution()
        states = set(dist) | set(range(1, probs.size + 1))
        return 0.5 * sum(
            abs(dist.get(k, 0.0) - (probs[k - 1] if 1 <= k <= probs.size else 0.0))
            for k in states
        )

    def to_csv(self, path: str) -> None:
        rows = "".join(f"{s},{float(self.weights[s])!r}\n" for s in sorted(self.weights))
        with open(path, "w") as fh:
            fh.write("state,weight\n" + rows)


class _BlockRng:
    """Pre-drawn exponential/uniform blocks over a PCG64 stream.

    Each block is `block` exponentials followed by `block` uniforms;
    draw i pairs exponential i with uniform i.
    """

    def __init__(self, seed: int, block: int = 1 << 14):
        self.rng = np.random.Generator(np.random.PCG64(seed))
        self.block = block
        self._fill()

    def _fill(self) -> None:
        self._exp = self.rng.exponential(size=self.block)
        self._uni = self.rng.random(size=self.block)
        self._i = 0

    def draw(self) -> tuple[float, float]:
        if self._i >= self.block:
            self._fill()
        i = self._i
        self._i = i + 1
        return self._exp[i], self._uni[i]

    def uniforms(self, exps: list[np.ndarray] | None = None) -> Iterator[float]:
        """Yield the uniforms of the draws from here on, as Python floats.

        Taking a uniform uses up its draw, exponential included.  When
        `exps` is given, the exponentials are appended to it block by
        block: the first n of np.concatenate(exps) belong to the first n
        uniforms taken.  Uniforms are converted _CHUNK at a time, so a
        short path does not pay for a whole block; do not mix with draw().
        """
        while True:
            if self._i >= self.block:
                self._fill()
            if exps is not None:
                exps.append(self._exp[self._i :])
            while self._i < self.block:
                i = self._i
                self._i = min(i + _CHUNK, self.block)
                yield from self._uni[i : self._i].tolist()


TableFn = Callable[[int], tuple[np.ndarray, np.ndarray, float]]
Table = tuple[list[int], list[float], float]


class _RateTables(dict):
    """state -> (targets, cumulative rates, total rate) as Python lists.

    A table is built on the first visit of its state, which is where the
    exit rate is checked against RATE_CAP; at most STATE_CACHE_CAP states
    are kept, the others are rebuilt on every visit.
    """

    def __init__(self, table_for: TableFn):
        super().__init__()
        self.table_for = table_for

    def __missing__(self, state: int) -> Table:
        targets, cum, total = self.table_for(state)
        if total > RATE_CAP:
            raise RateOverflow(f"exit rate {total:.3e} from state {state} exceeds cap")
        cum = cum.tolist()
        if cum:
            # total is a pairwise sum and may exceed the sequential cumsum;
            # then u * total with u close to 1 would pass the last target
            cum[-1] = max(cum[-1], total)
        entry = (targets.tolist(), cum, total)
        if len(self) < STATE_CACHE_CAP:
            self[state] = entry
        return entry


def _run_chain(
    table_for: TableFn,
    start: int,
    max_events: int,
    seed: int,
    tag: str,
) -> JumpPath:
    """Simulate a jump chain from cached per-state rate tables.

    table_for(k) returns (targets, cumulative_rates, total_rate); a zero
    total rate marks an absorbing state (recorded with infinite sojourn).
    Draw i gives the sojourn exp_i / total and the jump to the first
    target whose cumulative rate exceeds u_i * total.
    """
    tables = _RateTables(table_for)
    exps: list[np.ndarray] = []
    states: list[int] = []
    totals: list[float] = []
    state = start
    for u in _BlockRng(seed).uniforms(exps):
        targets, cum, total = tables[state]
        states.append(state)
        if total == 0.0:
            break
        totals.append(total)
        if len(totals) > max_events:
            break
        state = targets[bisect_right(cum, u * total)]
    # one draw per visited state; an absorbing last state gets +inf instead
    n = len(totals)
    holds = np.concatenate(exps)[: len(states)]
    holds[:n] /= totals
    holds[n:] = math.inf
    return JumpPath(np.array(states, dtype=np.int64), holds, seed, tag)


# ----------------------------------------------------------------------
# Rate tables
# ----------------------------------------------------------------------


def moran_L_rates(params: MoranParams, i: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Targets and cumulative rates of the Moran block counting chain."""
    N, s, u0, u1 = params.N, params.s, params.u0, params.u1
    targets = []
    rates = []
    for j in range(1, i - 1):
        targets.append(j)
        rates.append(u0)
    if i >= 2:
        targets.append(i - 1)
        rates.append(i * (i - 1) / N + (i - 1) * u1 + u0)
    if i < N:
        targets.append(i + 1)
        rates.append(i * (N - i) * s / N)
    t = np.array(targets, dtype=np.int64)
    r = np.array(rates, dtype=float)
    return t, np.cumsum(r), float(r.sum())


def lambda_L_rates(
    measure: LambdaMeasure, params: ModelParams, k: int
) -> tuple[np.ndarray, np.ndarray, float]:
    """Targets and cumulative rates of the general block counting chain.

    From k: coalescence to l < k at binom(k, k-l+1) lambda_{k,k-l+1},
    beneficial mutation at theta0 to every l < k, pruning at (k-1) theta1
    to k-1, branching at k sigma to k+1.
    """
    sigma, th0, th1 = params.sigma, params.theta0, params.theta1
    rates = np.empty(k, dtype=float)
    for ell in range(1, k):
        rates[ell - 1] = (
            math.comb(k, k - ell + 1) * lambda_rate(measure, k, k - ell + 1) + th0
        )
    if k >= 2:
        rates[k - 2] += (k - 1) * th1
    rates[k - 1] = k * sigma
    targets = np.arange(1, k + 1, dtype=np.int64)
    targets[k - 1] = k + 1
    return targets, np.cumsum(rates), float(rates.sum())


def killed_asg_rates(
    measure: LambdaMeasure, params: ModelParams, k: int
) -> tuple[np.ndarray, np.ndarray, float]:
    """Killed-ASG rates: branch k sigma, prune k theta1, kill k theta0 to DELTA."""
    sigma, th0, th1 = params.sigma, params.theta0, params.theta1
    targets = list(range(0, k)) + [k + 1, DELTA]
    rates = np.zeros(k + 2, dtype=float)
    for ell in range(1, k):
        rates[ell] = math.comb(k, k - ell + 1) * lambda_rate(measure, k, k - ell + 1)
    rates[k - 1] += k * th1  # prune to k-1 (to 0 when k = 1)
    rates[k] = k * sigma
    rates[k + 1] = k * th0
    t = np.array(targets, dtype=np.int64)
    keep = rates > 0.0
    r = rates[keep]
    return t[keep], np.cumsum(r), float(r.sum())


def moran_X_rates(params: MoranParams, k: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Birth-death rates of the Moran type-frequency chain on 0..N."""
    N, s, u0, u1 = params.N, params.s, params.u0, params.u1
    lam = k * (N - k) * (1.0 + s) / N + (N - k) * u0 if k < N else 0.0
    mu = k * (N - k) / N + k * u1 if k > 0 else 0.0
    targets = []
    rates = []
    if mu > 0:
        targets.append(k - 1)
        rates.append(mu)
    if lam > 0:
        targets.append(k + 1)
        rates.append(lam)
    t = np.array(targets, dtype=np.int64)
    r = np.array(rates, dtype=float)
    return t, np.cumsum(r), float(r.sum())


# ----------------------------------------------------------------------
# Public simulators
# ----------------------------------------------------------------------


def simulate_moran_L(
    params: MoranParams, start: int, max_events: int, seed: int
) -> JumpPath:
    """Exact path of the Moran block counting chain."""
    if not 1 <= start <= params.N:
        raise DomainError("start must lie in 1..N")
    return _run_chain(lambda i: moran_L_rates(params, i), start, max_events, seed, "moran-L")


def simulate_lambda_L(
    measure: LambdaMeasure,
    params: ModelParams,
    start: int,
    max_events: int,
    seed: int,
) -> JumpPath:
    """Exact path of the general-measure block counting chain."""
    if start < 1:
        raise DomainError("start must be a positive block count")
    return _run_chain(
        lambda k: lambda_L_rates(measure, params, k), start, max_events, seed, "lambda-L"
    )


def simulate_moran_X(
    params: MoranParams, start: int, max_events: int, seed: int
) -> JumpPath:
    """Exact path of the Moran type-frequency chain (absorbs when u0 or u1 is 0)."""
    if not 0 <= start <= params.N:
        raise DomainError("start must lie in 0..N")
    return _run_chain(lambda k: moran_X_rates(params, k), start, max_events, seed, "moran-X")


def simulate_killed_asg(
    measure: LambdaMeasure,
    params: ModelParams,
    start: int,
    n_reps: int,
    seed: int,
    max_events_per_rep: int = 10_000_000,
) -> float:
    """Fraction of killed-ASG replicates absorbed at 0 (rather than killed).

    Estimates the stationary moment w_start = P_start(R_inf = 0);
    requires both mutation rates positive so absorption is certain.
    """
    if params.theta0 <= 0 or params.theta1 <= 0:
        raise DomainError("killed-ASG absorption needs theta0 > 0 and theta1 > 0")
    if start < 1:
        raise DomainError("start must be a positive line count")
    tables = _RateTables(lambda k: killed_asg_rates(measure, params, k))
    uniforms = _BlockRng(seed).uniforms()
    absorbed_zero = 0
    for _ in range(n_reps):
        state = start
        for _step, u in zip(range(max_events_per_rep), uniforms):
            targets, cum, total = tables[state]
            state = targets[bisect_right(cum, u * total)]
            if state == 0:
                absorbed_zero += 1
                break
            if state == DELTA:
                break
        else:
            raise NonAbsorbing(
                f"replicate exceeded {max_events_per_rep} events without absorbing"
            )
    return absorbed_zero / n_reps


def occupancy(path: JumpPath, burn_in_fraction: float = 0.2) -> OccupancyEstimate:
    """Time-weighted state histogram after discarding initial burn-in time.

    burn_in_fraction removes that fraction of the total simulated time
    from the front (clipping the straddling sojourn).
    """
    if not 0.0 <= burn_in_fraction < 1.0:
        raise DomainError("burn_in_fraction must lie in [0, 1)")
    finite = np.isfinite(path.holding_times)
    if not np.any(finite):
        raise EmptyPath("path has no finite sojourns")
    states = path.states[finite]
    holds = path.holding_times[finite]
    total = float(holds.sum())
    if total <= 0.0:
        raise EmptyPath("path carries no simulated time")
    cutoff = burn_in_fraction * total
    t_seen = np.concatenate([[0.0], np.cumsum(holds)])
    after = t_seen[1:] > cutoff
    clipped = t_seen[1:][after] - np.maximum(t_seen[:-1][after], cutoff)
    tail = states[after]
    keys = np.unique(tail)
    # bincount adds in path order, as a running sum per state would
    sums = np.bincount(np.searchsorted(keys, tail), weights=clipped)
    by_key = dict(zip(keys.tolist(), sums.tolist()))
    # keys in order of first appearance
    weights = {k: by_key[k] for k in dict.fromkeys(tail.tolist())}
    return OccupancyEstimate(weights, total - cutoff, path.n_events)


def lambda_L_exit_rate(measure: LambdaMeasure, params: ModelParams, k: int) -> float:
    """Closed-form total exit rate from state k, for table validation."""
    sigma, th0, th1 = params.sigma, params.theta0, params.theta1
    coal = sum(
        math.comb(k, k - ell + 1) * lambda_rate(measure, k, k - ell + 1)
        for ell in range(1, k)
    )
    return k * sigma + (k - 1) * th1 + (k - 1) * th0 + coal
