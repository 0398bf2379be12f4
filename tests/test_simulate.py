"""Simulators: determinism, exact rates, occupancy, absorption frequencies."""

import bisect
import functools
import math

import numpy as np
import pytest
import scipy.stats

import blockstat.cli as cli
import blockstat.simulate as sim
from blockstat.duality import solve_w_moments
from blockstat.errors import DomainError, EmptyPath, NonAbsorbing, RateOverflow
from blockstat.geomfix import build_discrete_fixed_point
from blockstat.measures import LambdaMeasure, ModelParams, MoranParams, lambda_rate
from blockstat.recursions import solve_moran
from blockstat.simulate import (
    DELTA,
    JumpPath,
    killed_asg_rates,
    lambda_L_rates,
    moran_L_rates,
    moran_X_rates,
    occupancy,
    simulate_killed_asg,
    simulate_lambda_L,
    simulate_moran_L,
    simulate_moran_X,
)


def test_same_seed_same_path():
    mp = MoranParams(10, 0.5, 0.1, 0.1)
    p1 = simulate_moran_L(mp, 5, 2000, seed=7)
    p2 = simulate_moran_L(mp, 5, 2000, seed=7)
    assert np.array_equal(p1.states, p2.states)
    assert np.array_equal(p1.holding_times, p2.holding_times)
    assert p1.rng_algorithm == "PCG64"
    p3 = simulate_moran_L(mp, 5, 2000, seed=8)
    assert not np.array_equal(p1.states, p3.states)


def test_zero_events_single_state():
    mp = MoranParams(10, 0.5, 0.1, 0.1)
    path = simulate_moran_L(mp, 4, 0, seed=1)
    assert path.states.tolist() == [4]
    assert path.n_events == 0
    assert path.holding_times[0] > 0


def test_moran_L_holding_time_mean():
    # N=2, s=1, u=0: exit rate from state 1 is q(1,2) = 1/2, mean sojourn 2
    mp = MoranParams(2, 1.0)
    path = simulate_moran_L(mp, 1, 10**5, seed=99)
    holds_in_1 = path.holding_times[:-1][path.states[:-1] == 1]
    se = 2.0 / math.sqrt(holds_in_1.size)
    assert holds_in_1.mean() == pytest.approx(2.0, abs=3 * se)
    # from state 2 the only jump is down at rate 1
    holds_in_2 = path.holding_times[:-1][path.states[:-1] == 2]
    assert holds_in_2.mean() == pytest.approx(1.0, abs=3 / math.sqrt(holds_in_2.size))


def lambda_L_exit_rate(measure: LambdaMeasure, params: ModelParams, k: int) -> float:
    """Closed-form total exit rate from state k, for table validation."""
    sigma, th0, th1 = params.sigma, params.theta0, params.theta1
    coal = sum(
        math.comb(k, k - ell + 1) * lambda_rate(measure, k, k - ell + 1)
        for ell in range(1, k)
    )
    return k * sigma + (k - 1) * th1 + (k - 1) * th0 + coal


def _moran_L_rates_loop(params, i):
    """Reference: the rate table with one Python append per target."""
    N, s, u0, u1 = params.N, params.s, params.u0, params.u1
    targets, rates = [], []
    for j in range(1, i - 1):
        targets.append(j)
        rates.append(u0)
    if i >= 2:
        targets.append(i - 1)
        rates.append(i * (i - 1) / N + (i - 1) * u1 + u0)
    if i < N:
        targets.append(i + 1)
        rates.append(i * (N - i) * s / N)
    r = np.array(rates, dtype=float)
    return np.array(targets, dtype=np.int64), np.cumsum(r), float(r.sum())


def test_moran_L_rates_bit_identical_to_loop():
    for params in (MoranParams(2, 1.0), MoranParams(57, 0.4, 0.3, 0.2),
                   MoranParams(10_000, 0.05, 0.5, 0.5)):
        N = params.N
        for i in sorted({1, 2, 3, N - 1, N} | ({9990} if N == 10_000 else set())):
            got, ref = moran_L_rates(params, i), _moran_L_rates_loop(params, i)
            assert got[0].dtype == ref[0].dtype and np.array_equal(got[0], ref[0]), i
            assert got[1].tobytes() == ref[1].tobytes(), i
            assert got[2] == ref[2], i


def test_lambda_L_exit_rate_identity():
    king = LambdaMeasure.kingman(2.0)
    prm = ModelParams(0.5, 0.0, 0.0)
    _, _, total = lambda_L_rates(king, prm, 3)
    assert total == pytest.approx(7.5, rel=1e-14)  # 3 sigma + binom(3,2) m0
    uni = LambdaMeasure.uniform()
    prm = ModelParams(0.8, 0.3, 0.6)
    for k in range(2, 12):
        _, _, total = lambda_L_rates(uni, prm, k)
        assert total == pytest.approx(lambda_L_exit_rate(uni, prm, k), rel=1e-12)


def test_lambda_L_starts_beyond_float_binomials():
    # binom(1100, 550) overflows a double; the rate rows never form it
    prm = ModelParams(1.0, 0.5, 0.5)
    path = simulate_lambda_L(LambdaMeasure.uniform(), prm, 1100, 1000, seed=11)
    assert path.n_events == 1000 and path.states[0] == 1100
    assert np.all(np.isfinite(path.holding_times))
    assert 0.0 <= simulate_killed_asg(LambdaMeasure.uniform(), prm, 1100, 3, seed=11) <= 1.0


def test_star_coalescence_goes_to_one():
    star = LambdaMeasure.star(1.0)
    t, c, total = lambda_L_rates(star, ModelParams(1.0, 0.0, 0.0), 4)
    # only targets 1 (full merger, rate 1) and 5 (branching, rate 4)
    rates = np.diff(np.concatenate([[0.0], c]))
    nonzero = {int(tt): r for tt, r in zip(t, rates) if r > 0}
    assert nonzero == {1: pytest.approx(1.0), 5: pytest.approx(4.0)}


def test_pure_birth_death_when_measure_zero():
    zero = LambdaMeasure.crow_kimura()
    prm = ModelParams(0.7, 0.0, 0.4)
    t, c, total = lambda_L_rates(zero, prm, 5)
    rates = np.diff(np.concatenate([[0.0], c]))
    nonzero = {int(tt): r for tt, r in zip(t, rates) if r > 0}
    assert nonzero == {4: pytest.approx(4 * 0.4), 6: pytest.approx(5 * 0.7)}


def test_rate_overflow():
    star = LambdaMeasure.star(1.0)
    with pytest.raises(RateOverflow):
        simulate_lambda_L(star, ModelParams(1e12, 0.0, 0.0), 10, 10, seed=0)


def test_killed_asg_competing_exponentials():
    # from one line with sigma = 0: absorb at 0 w.p. theta1/(theta0+theta1)
    zero = LambdaMeasure.crow_kimura()
    freq = simulate_killed_asg(zero, ModelParams(0.0, 1.0, 1.0), 1, 40_000, seed=5)
    se = math.sqrt(0.25 / 40_000)
    assert freq == pytest.approx(0.5, abs=3 * se)


def test_killed_asg_quadratic_root():
    zero = LambdaMeasure.crow_kimura()
    w = (3 - math.sqrt(5)) / 2
    freq = simulate_killed_asg(zero, ModelParams(1.0, 1.0, 1.0), 1, 60_000, seed=6)
    assert freq == pytest.approx(w, abs=3 * math.sqrt(w * (1 - w) / 60_000))


def test_killed_asg_strong_killing():
    zero = LambdaMeasure.crow_kimura()
    freq = simulate_killed_asg(zero, ModelParams(0.5, 200.0, 0.1), 6, 2000, seed=7)
    assert freq < 0.02


def test_killed_asg_needs_two_way_mutation():
    with pytest.raises(DomainError):
        simulate_killed_asg(LambdaMeasure.uniform(), ModelParams(1.0, 1.0, 0.0), 1, 10, seed=0)


def test_killed_vs_lambda_first_jump_distribution():
    # theta = 0 makes the two generators identical; chi-square on first jumps
    uni = LambdaMeasure.uniform()
    prm = ModelParams(1.0, 0.0, 0.0)
    rng = np.random.default_rng(123)
    n_draws = 4000
    pvals = []
    for k in range(2, 11):
        tk, ck, totk = killed_asg_rates(uni, prm, k)
        tl, cl, totl = lambda_L_rates(uni, prm, k)
        u1 = rng.random(n_draws) * totk
        u2 = rng.random(n_draws) * totl
        j1 = tk[np.searchsorted(ck, u1, side="right")]
        j2 = tl[np.searchsorted(cl, u2, side="right")]
        cats = sorted(set(j1) | set(j2))
        table = np.array(
            [[np.sum(j1 == c) for c in cats], [np.sum(j2 == c) for c in cats]]
        )
        keep = table.sum(axis=0) > 0
        _, p, _, _ = scipy.stats.chi2_contingency(table[:, keep])
        pvals.append(p)
    assert min(pvals) > 0.001


def test_moran_X_absorption_and_fixation():
    mp = MoranParams(2, 1.0)
    path = simulate_moran_X(mp, 0, 100, seed=0)
    assert path.states.tolist() == [0]
    assert math.isinf(path.holding_times[0])
    # fixation frequency from k=1, N=2, s=1: 2/3
    fixed = 0
    n_rep = 30_000
    for rep in range(n_rep):
        p = simulate_moran_X(mp, 1, 10_000, seed=1000 + rep)
        fixed += p.states[-1] == 2
    se = math.sqrt((2 / 3) * (1 / 3) / n_rep)
    assert fixed / n_rep == pytest.approx(2 / 3, abs=3 * se)


def test_moran_X_stationary_matches_birth_death_product():
    mp = MoranParams(8, 0.5, 0.3, 0.2)
    lam = lambda k: k * (mp.N - k) * (1 + mp.s) / mp.N + (mp.N - k) * mp.u0
    mu = lambda k: k * (mp.N - k) / mp.N + k * mp.u1
    pi = [1.0]
    for k in range(1, mp.N + 1):
        pi.append(pi[-1] * lam(k - 1) / mu(k))
    pi = np.array(pi) / sum(pi)
    path = simulate_moran_X(mp, 4, 3 * 10**5, seed=21)
    occ = occupancy(path, 0.2)
    dist = occ.distribution()
    emp = np.array([dist.get(k, 0.0) for k in range(mp.N + 1)])
    tv = 0.5 * np.abs(emp - pi).sum()
    assert tv < 0.01


def test_occupancy_trivial_cases():
    path = JumpPath(np.array([3]), np.array([2.0]), 0, "test")
    occ = occupancy(path, 0.0)
    assert occ.distribution() == {3: 1.0}
    path2 = JumpPath(np.array([1, 2]), np.array([1.5, 1.5]), 0, "test")
    occ2 = occupancy(path2, 0.0)
    assert occ2.distribution()[1] == pytest.approx(0.5)
    assert occ2.distribution()[2] == pytest.approx(0.5)
    with pytest.raises(EmptyPath):
        occupancy(JumpPath(np.array([1]), np.array([math.inf]), 0, "test"))
    with pytest.raises(DomainError):
        occupancy(path, 1.0)


def test_occupancy_with_no_sojourn_after_cutoff_raises():
    # the cutoff is taken from the pairwise total, the sojourn ends from the
    # sequential cumsum, which can fall short of it: then no sojourn is left
    raised = 0
    for seed in range(40):
        path = simulate_lambda_L(_KING, _PRM, 3, 1000, seed)
        try:
            occ = occupancy(path, 1.0 - 2.0**-53)
        except EmptyPath:
            raised += 1
        else:
            assert occ.weights and sum(occ.weights.values()) > 0.0
    assert raised > 0


def test_negative_max_events_is_domain_error():
    with pytest.raises(DomainError):
        simulate_moran_L(MoranParams(10, 0.5, 0.1, 0.1), 5, -1, seed=1)


@pytest.mark.parametrize("n_reps, max_events", [(0, 10), (-1, 10), (5, 0), (5, -1)])
def test_killed_asg_refuses_bad_counts(n_reps, max_events):
    with pytest.raises(DomainError):
        simulate_killed_asg(
            LambdaMeasure.uniform(), ModelParams(1.0, 1.0, 1.0), 3, n_reps, seed=1,
            max_events_per_rep=max_events,
        )


def test_occupancy_against_moran_solver():
    mp = MoranParams(10, 0.5, 0.1, 0.1)
    path = simulate_moran_L(mp, 5, 200_000, seed=2024)
    occ = occupancy(path, 0.2)
    tv = occ.tv_distance(solve_moran(mp).probs)
    assert tv < 0.02


def test_killed_asg_rates_structure():
    king = LambdaMeasure.kingman(2.0)
    prm = ModelParams(1.0, 0.5, 0.5)
    t, c, total = killed_asg_rates(king, prm, 1)
    rates = dict(zip(t.tolist(), np.diff(np.concatenate([[0.0], c])).tolist()))
    assert rates[0] == pytest.approx(0.5)  # prune 1*theta1 -> absorbed at 0
    assert rates[2] == pytest.approx(1.0)  # branch sigma
    assert rates[DELTA] == pytest.approx(0.5)  # kill 1*theta0
    t3, c3, total3 = killed_asg_rates(king, prm, 3)
    assert total3 == pytest.approx(3 * 1.0 + 3 * 0.5 + 3 * 0.5 + 3 * 2.0, rel=1e-14)


# ----------------------------------------------------------------------
# Bit identity with the per-event numpy loops the simulators replaced
# ----------------------------------------------------------------------


def _ref_chain(table_for, start, max_events, seed):
    """Reference jump chain: one _BlockRng.draw() and one searchsorted per event."""
    rng = sim._BlockRng(seed)
    states, holds = [], []
    state = start
    while True:
        targets, cum, total = table_for(state)
        if total == 0.0:
            states.append(state)
            holds.append(math.inf)
            break
        e, u = rng.draw()
        states.append(state)
        holds.append(e / total)
        if len(states) > max_events:
            break
        state = int(targets[np.searchsorted(cum, u * total, side="right")])
    return np.array(states, dtype=np.int64), np.array(holds, dtype=float)


def _ref_killed_asg(measure, params, start, n_reps, seed, max_events_per_rep=10_000_000):
    """Reference killed-ASG loop, one _BlockRng.draw() per step."""
    rng = sim._BlockRng(seed)
    absorbed_zero = 0
    for _ in range(n_reps):
        state = start
        for _step in range(max_events_per_rep):
            targets, cum, total = killed_asg_rates(measure, params, state)
            _, u = rng.draw()
            state = int(targets[np.searchsorted(cum, u * total, side="right")])
            if state in (0, DELTA):
                absorbed_zero += state == 0
                break
        else:
            raise NonAbsorbing("reference replicate did not absorb")
    return absorbed_zero / n_reps


def _ref_occupancy_weights(path, burn_in_fraction):
    """Reference occupancy: a running sum per sojourn, keys in order of first appearance."""
    finite = np.isfinite(path.holding_times)
    holds = path.holding_times[finite]
    cutoff = burn_in_fraction * float(holds.sum())
    t_seen = np.concatenate([[0.0], np.cumsum(holds)])
    weights = {}
    for s, t0, t1 in zip(path.states[finite], t_seen[:-1], t_seen[1:]):
        if t1 > cutoff:
            weights[int(s)] = weights.get(int(s), 0.0) + (t1 - max(t0, cutoff))
    return weights


_MORAN = MoranParams(50, 0.5, 0.1, 0.1)
_MORAN_BIG = MoranParams(10_000, 0.05, 0.5, 0.5)  # drops from near N to small states
_MORAN_X = MoranParams(10, 0.5, 0.3, 0.3)
_MORAN_X_ABSORBING = MoranParams(10, 0.5)  # u0 = u1 = 0: absorbs at 0 or N
_PRM = ModelParams(1.0, 0.5, 0.5)
_KING = LambdaMeasure.kingman(2.0)
_BETA = LambdaMeasure.beta(2.2, 1.7)

# name -> (simulate(max_events, seed), table_for, start)
_CHAINS = {
    "moran-L": (
        lambda n, sd: simulate_moran_L(_MORAN, 5, n, sd),
        lambda k: moran_L_rates(_MORAN, k),
        5,
    ),
    "lambda-L kingman": (
        lambda n, sd: simulate_lambda_L(_KING, _PRM, 3, n, sd),
        lambda k: lambda_L_rates(_KING, _PRM, k),
        3,
    ),
    "lambda-L beta": (
        lambda n, sd: simulate_lambda_L(_BETA, _PRM, 3, n, sd),
        lambda k: lambda_L_rates(_BETA, _PRM, k),
        3,
    ),
    # large, sparse state labels; the reference reads each table once
    "lambda-L kingman from 1100": (
        lambda n, sd: simulate_lambda_L(_KING, _PRM, 1100, n, sd),
        functools.cache(lambda k: lambda_L_rates(_KING, _PRM, k)),
        1100,
    ),
    "moran-L N=10^4": (
        lambda n, sd: simulate_moran_L(_MORAN_BIG, 9990, n, sd),
        functools.cache(lambda k: moran_L_rates(_MORAN_BIG, k)),
        9990,
    ),
    "moran-X": (
        lambda n, sd: simulate_moran_X(_MORAN_X, 5, n, sd),
        lambda k: moran_X_rates(_MORAN_X, k),
        5,
    ),
    "moran-X absorbing": (
        lambda n, sd: simulate_moran_X(_MORAN_X_ABSORBING, 5, n, sd),
        lambda k: moran_X_rates(_MORAN_X_ABSORBING, k),
        5,
    ),
    "moran-X absorbing start": (
        lambda n, sd: simulate_moran_X(_MORAN_X_ABSORBING, 0, n, sd),
        lambda k: moran_X_rates(_MORAN_X_ABSORBING, k),
        0,
    ),
}


def _assert_matches_reference(path, name, max_events, seed):
    _, table_for, start = _CHAINS[name]
    states, holds = _ref_chain(table_for, start, max_events, seed)
    assert path.states.dtype == np.int64
    assert np.array_equal(path.states, states)
    assert path.holding_times.dtype == holds.dtype
    assert path.holding_times.tobytes() == holds.tobytes()
    if not np.isfinite(holds).any():
        return
    for burn_in in (0.0, 0.2):
        occ = occupancy(path, burn_in)
        ref = _ref_occupancy_weights(path, burn_in)
        assert list(occ.weights) == list(ref)  # first-appearance order
        assert [occ.weights[k] for k in ref] == list(ref.values())


@pytest.mark.parametrize("seed", [1, 20261018])
@pytest.mark.parametrize("max_events", [0, 1, 16383, 16384, 16385])
@pytest.mark.parametrize("name", list(_CHAINS))
def test_paths_and_occupancy_bit_identical_to_reference(name, max_events, seed):
    # 16384 draws fill one RNG block: the edge sits at 16383..16385 events
    path = _CHAINS[name][0](max_events, seed)
    _assert_matches_reference(path, name, max_events, seed)


@pytest.mark.parametrize("seed", [5, 77, 20261018])
@pytest.mark.parametrize(
    "measure, start, n_reps",
    [(_KING, 3, 1), (_KING, 3, 5000), (LambdaMeasure.uniform(), 6, 3000), (_BETA, 1, 4000)],
)
def test_killed_asg_bit_identical_to_reference(measure, start, n_reps, seed):
    prm = ModelParams(1.0, 1.0, 1.0)
    assert simulate_killed_asg(measure, prm, start, n_reps, seed) == _ref_killed_asg(
        measure, prm, start, n_reps, seed
    )


def test_small_state_cache_keeps_paths(monkeypatch):
    monkeypatch.setattr(sim, "STATE_CACHE_CAP", 2)
    path = _CHAINS["moran-L"][0](16385, 3)
    _assert_matches_reference(path, "moran-L", 16385, 3)
    # most states of this path are rebuilt on every visit, and their
    # totals still divide the sojourns
    path = _CHAINS["lambda-L kingman from 1100"][0](16385, 3)
    _assert_matches_reference(path, "lambda-L kingman from 1100", 16385, 3)
    uni = LambdaMeasure.uniform()
    prm = ModelParams(1.0, 1.0, 1.0)
    assert simulate_killed_asg(uni, prm, 6, 2000, 4) == _ref_killed_asg(uni, prm, 6, 2000, 4)


def test_rate_overflow_on_first_visit():
    # state 3 sits below the cap (~7.8e11), state 4 above it (~1.04e12);
    # the branching rate makes 3 -> 4 the first jump
    prm = ModelParams(2.6e11, 0.5, 0.5)
    assert simulate_lambda_L(_KING, prm, 3, 0, seed=1).states.tolist() == [3]
    with pytest.raises(RateOverflow):
        simulate_lambda_L(_KING, prm, 3, 10, seed=1)
    with pytest.raises(RateOverflow):
        simulate_killed_asg(_KING, prm, 3, 10, seed=1)


def test_killed_asg_step_cap_raises_non_absorbing():
    # weak mutation: from 5 lines one step almost never absorbs
    prm = ModelParams(1.0, 1e-3, 1e-3)
    with pytest.raises(NonAbsorbing):
        _ref_killed_asg(_KING, prm, 5, 10, seed=3, max_events_per_rep=1)
    with pytest.raises(NonAbsorbing):
        simulate_killed_asg(_KING, prm, 5, 10, seed=3, max_events_per_rep=1)


def _path_csv(path):
    rows = "".join(f"{int(s)},{float(h)!r}\n" for s, h in zip(path.states, path.holding_times))
    return path.to_csv, "state,holding_time\n" + rows


def _absorbed_path_csv(start, seed, end):
    path = simulate_moran_X(_MORAN_X_ABSORBING, start, 1000, seed=seed)
    assert path.states[-1] == end and math.isinf(path.holding_times[-1])
    return _path_csv(path)


def _occupancy_csv():
    occ = occupancy(simulate_moran_X(_MORAN_X_ABSORBING, 5, 1000, seed=2), 0.2)
    rows = "".join(f"{s},{float(occ.weights[s])!r}\n" for s in sorted(occ.weights))
    return occ.to_csv, "state,weight\n" + rows


def _moments_csv():
    ms = solve_w_moments(LambdaMeasure.uniform(), ModelParams(1.0, 0.5, 0.5))
    rows = "".join(f"{n},{float(wn)!r}\n" for n, wn in enumerate(ms.w))
    return ms.to_csv, "n,w_n\n" + rows


def _atoms_csv():
    mu = build_discrete_fixed_point(0.5, 0.3, 0.05, K=40)
    rows = "".join(f"{int(k)},{float(x)!r},{float(m)!r}\n"
                   for k, x, m in zip(mu.ks, mu.locations, mu.masses))
    return mu.to_csv, "k,location,mass\n" + rows


def _pmf_csv():
    pmf = solve_moran(MoranParams(2000, 1.1, 0.5, 0.4))
    p = pmf.probs
    assert (p == 0).sum() == 979 and ((p > 0) & (p < np.finfo(float).tiny)).sum() == 34
    rows = "".join(f"{n},{float(p)!r},{float(a)!r}\n"
                   for n, p, a in zip(range(1, pmf.truncation_K + 1), pmf.probs, pmf.tails()[1:]))
    return functools.partial(cli._pmf_csv, pmf), "n,p_n,a_n\n" + rows


# name -> () -> (write(path), the text written one row at a time with repr)
_CSV_CASES = {
    "moran-x path absorbed at N": lambda: _absorbed_path_csv(5, 2, 10),
    "moran-x path absorbed at 0": lambda: _absorbed_path_csv(2, 1, 0),
    "path of no events": lambda: _path_csv(simulate_moran_L(_MORAN, 5, 0, seed=1)),
    "occupancy": _occupancy_csv,
    "moments": _moments_csv,
    "fixed-point atoms": _atoms_csv,
    "moran pmf with zero and subnormal tail": _pmf_csv,
}


@pytest.mark.parametrize("case", sorted(_CSV_CASES))
def test_csv_writers_match_per_row_format(tmp_path, case):
    write, text = _CSV_CASES[case]()
    write(str(tmp_path / "out.csv"))
    assert (tmp_path / "out.csv").read_text() == text


def test_jump_with_u_near_one_picks_last_target():
    # the pairwise total exceeds the sequential cumsum by 2.8e-14 here, so
    # u = 1 - 2^-53 would land past the last cumulative rate
    prm = ModelParams(1.0, 0.5, 0.5)
    uniform = LambdaMeasure.uniform()
    _, cum_raw, total_raw = lambda_L_rates(uniform, prm, 56)
    assert total_raw > cum_raw[-1]
    _, _, visit = sim._rate_tables(lambda k: lambda_L_rates(uniform, prm, k))
    targets, cum, total = visit(56)
    u = 1.0 - 2.0**-53
    assert targets[bisect.bisect_right(cum, u * total)] == targets[-1]
    assert total == total_raw and cum[:-1] == cum_raw[:-1].tolist()
