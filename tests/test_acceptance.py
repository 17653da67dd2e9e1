"""Acceptance battery: analytic identities, learning checks, policy orderings.

Each criterion prints one PASS/FAIL line (visible under pytest -s or in the
captured output of a failing run) and then asserts. Scenario runs are cached
session-wide, so the whole battery costs roughly a minute.
"""

import numpy as np
import pytest

from xredge.dqn import DqnAgent, DqnConfig, QNetwork, loss_and_grads
from xredge.energy import Battery, lifetime_projection
from xredge.environment import EnvConfig, XrEnvironment
from xredge.harness import default_scenario, replace_path, run_experiment
from xredge.network import stable_profile

SEEDS = (1, 2, 3)
HORIZON = 1200.0
PACK_WH = 16.6
PACK_J = PACK_WH * 3600.0
K_DRAIN = 3.0


def verdict(tag: str, ok: bool, detail: str) -> None:
    print(f"{tag} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{tag}: {detail}"


def spec_for(policy, profile, horizon=HORIZON, mbps=1000.0):
    return default_scenario(policy, profile, horizon_s=horizon, seeds=SEEDS,
                            stable_mbps=mbps)


# ---------------------------------------------------------------------------
# C1: battery identities
# ---------------------------------------------------------------------------


def test_c1_battery_identities():
    hours = lifetime_projection(100.0, PACK_WH, 20.8, drain_factor=1.0)
    exact = hours == PACK_WH / 20.8
    approx = abs(hours - 0.798) < 5e-4

    batt = Battery(capacity_wh=PACK_WH, soc=100.0, drain_factor=K_DRAIN)
    t, dt = 0.0, 0.05
    while not batt.depleted:
        batt.steps(20.8, dt, 1)
        t += dt
    within = abs(t - 960.0) / 960.0 <= 0.02

    ok = exact and approx and within
    verdict("C1", ok, f"lifetime {hours:.6f} h (16.6/20.8 exact={exact}), "
                      f"k=3 depletion {t:.2f} s vs 960 s")


# ---------------------------------------------------------------------------
# C2: energy conservation on full-horizon runs
# ---------------------------------------------------------------------------


def test_c2_energy_conservation(scenarios):
    worst = 0.0
    for spec in (spec_for("rl", "cycle"), spec_for("local", "stable")):
        for res in scenarios.results(spec):
            m = res.metrics
            lhs = K_DRAIN * m.energy_j
            rhs = (100.0 - m.soc_end_pct) / 100.0 * PACK_J
            worst = max(worst, abs(lhs - rhs) / rhs)
    ok = worst <= 1e-9
    verdict("C2", ok, f"max relative imbalance {worst:.3e} (tolerance 1e-9)")


# ---------------------------------------------------------------------------
# C3: compliance-per-watt identity and LOCAL value
# ---------------------------------------------------------------------------


def test_c3_compliance_per_watt(scenarios):
    identity_worst = 0.0
    for spec in (spec_for("local", "stable"), spec_for("offload", "stable")):
        for res in scenarios.results(spec):
            m = res.metrics
            identity_worst = max(
                identity_worst,
                abs(m.compliance_per_watt - m.compliance_pct / m.avg_power_w),
            )
    local_cpw = scenarios.aggregate(spec_for("local", "stable"))
    cpw = local_cpw["compliance_per_watt"]["median"]
    ok = identity_worst < 1e-12 and abs(cpw - 4.81) <= 0.05
    verdict("C3", ok, f"identity residual {identity_worst:.2e}, "
                      f"LOCAL c/W {cpw:.3f} vs 4.81 +/- 0.05")


# ---------------------------------------------------------------------------
# C4: analytic gradients vs central finite differences
# ---------------------------------------------------------------------------


def test_c4_gradient_check():
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        net = QNetwork(sizes=(4, 12, 6), rng=rng)
        states = rng.uniform(0, 1, size=(8, 4))
        actions = rng.integers(0, 6, size=8)
        targets = rng.normal(size=8)
        _, grad = loss_and_grads(net, states, actions, targets)
        h = 1e-5
        theta = net.theta
        for i in range(theta.size):
            orig = theta[i]
            theta[i] = orig + h
            lp, _ = loss_and_grads(net, states, actions, targets)
            theta[i] = orig - h
            lm, _ = loss_and_grads(net, states, actions, targets)
            theta[i] = orig
            fd = (lp - lm) / (2 * h)
            if abs(fd) < 1e-7 and abs(grad[i]) < 1e-7:
                continue
            worst = max(worst, abs(fd - grad[i]) / max(abs(fd), abs(grad[i]), 1e-8))
    ok = worst < 1e-4
    verdict("C4", ok, f"max relative gradient error {worst:.3e} over 5 seeds")


# ---------------------------------------------------------------------------
# C5: Q-learning recovers a known Bellman fixed point
# ---------------------------------------------------------------------------


def test_c5_two_state_fixed_point():
    # deterministic 2-state, 2-action chain:
    #   s0 --a0--> s0 r=1   s0 --a1--> s1 r=0
    #   s1 --a0--> s0 r=0   s1 --a1--> s1 r=2
    # at gamma = 0.9 value iteration gives Q* = [[17.2, 18], [16.2, 20]]
    transitions = {(0, 0): (0, 1.0), (0, 1): (1, 0.0),
                   (1, 0): (0, 0.0), (1, 1): (1, 2.0)}
    q_star = np.array([[17.2, 18.0], [16.2, 20.0]])
    obs = np.eye(2)

    cfg = DqnConfig(hidden=(32, 32), lr=1e-3, gamma=0.9, batch_size=32, buffer_capacity=5000,
                    target_sync_every=100, eps0=1.0, eps_min=1.0)
    agent = DqnAgent(2, 2, cfg, seed=0)
    state = 0
    for step in range(20_000):
        if step == 15_000:
            agent.optimizer.lr = 1e-5      # anneal to kill residual dithering
        action = agent.select_action(obs[state])
        nxt, reward = transitions[(state, action)]
        agent.record_and_train(obs[state], action, reward, obs[nxt], False)
        state = nxt

    err = float(np.max(np.abs(agent.q_values(obs[0]) - q_star[0])))
    err = max(err, float(np.max(np.abs(agent.q_values(obs[1]) - q_star[1]))))
    ok = err < 1e-3
    verdict("C5", ok, f"max |Q - Q*| = {err:.2e} (tolerance 1e-3)")


# ---------------------------------------------------------------------------
# C6: queue saturation under starved offload
# ---------------------------------------------------------------------------


def test_c6_queue_saturation():
    cfg = EnvConfig(profile=stable_profile(1.0), horizon_s=60.0)
    env = XrEnvironment(cfg, seed=1)
    delivered = compliant = 0
    while not env.done:
        out = env.step(5)                  # HIGH quality offload
        delivered += out.mtp_ms.size
        compliant += int(np.count_nonzero(out.mtp_ms <= cfg.tau_mtp_ms))
    compliance = 100.0 * compliant / delivered if delivered else 0.0
    depth = env.queue.depth
    ok = compliance < 2.0 and depth == cfg.queue_max_depth
    verdict("C6", ok, f"compliance {compliance:.2f}% (< 2), "
                      f"final queue depth {depth} == max {cfg.queue_max_depth}")


# ---------------------------------------------------------------------------
# C7: stable-profile orderings
# ---------------------------------------------------------------------------


def test_c7_stable_orderings(scenarios):
    local = scenarios.aggregate(spec_for("local", "stable"))
    offl = scenarios.aggregate(spec_for("offload", "stable"))
    rl = scenarios.aggregate(spec_for("rl", "stable"))

    c_local = local["compliance_pct"]["median"]
    c_rl = rl["compliance_pct"]["median"]
    c_off = offl["compliance_pct"]["median"]
    p_local = local["avg_power_w"]["median"]
    p_rl = rl["avg_power_w"]["median"]
    p_off = offl["avg_power_w"]["median"]

    ok = (
        c_local == 100.0
        and c_local > c_rl > c_off
        and p_local > p_rl
        and p_rl <= 1.15 * p_off
        and c_rl >= c_off + 5.0
    )
    verdict("C7", ok,
            f"compliance {c_local:.1f} > {c_rl:.1f} > {c_off:.1f} (gap "
            f"{c_rl - c_off:.1f} >= 5), power {p_local:.1f} > {p_rl:.2f} "
            f"<= 1.15*{p_off:.2f}")


# ---------------------------------------------------------------------------
# C8: robustness to the variable profile
# ---------------------------------------------------------------------------


def test_c8_variable_profile_robustness(scenarios):
    rl_s = scenarios.aggregate(spec_for("rl", "stable"))
    rl_c = scenarios.aggregate(spec_for("rl", "cycle"))
    off_s = scenarios.aggregate(spec_for("offload", "stable"))
    off_c = scenarios.aggregate(spec_for("offload", "cycle"))

    drop_rl = rl_s["compliance_pct"]["median"] - rl_c["compliance_pct"]["median"]
    drop_off = off_s["compliance_pct"]["median"] - off_c["compliance_pct"]["median"]

    rl_levels = rl_c["per_level_compliance_pct"]
    off_levels = off_c["per_level_compliance_pct"]
    # a starved policy may never deliver a frame captured in some phase, in
    # which case the level is absent from its map and counts as zero
    per_level_ok = all(
        rl_levels[k] > off_levels.get(k, 0.0) for k in rl_levels
    )
    ok = drop_rl < drop_off and len(rl_levels) == 5 and per_level_ok
    verdict("C8", ok,
            f"drop {drop_rl:.1f} pp < {drop_off:.1f} pp; per-level RL "
            f"{ {k: round(v, 1) for k, v in sorted(rl_levels.items())} } all above "
            f"offload")


# ---------------------------------------------------------------------------
# C9: learned bandwidth-mode anticorrelation
# ---------------------------------------------------------------------------


def mode_fraction_series(modes: list[str], window: int = 30) -> np.ndarray:
    """Rolling fraction of LOCAL decisions over a trailing window."""
    if window < 1:
        raise ValueError(f"window must be >= 1: {window}")
    is_local = np.array([1.0 if m == "LOCAL" else 0.0 for m in modes])
    out = np.empty(len(is_local))
    csum = np.concatenate([[0.0], np.cumsum(is_local)])
    for i in range(len(is_local)):
        lo = max(0, i - window + 1)
        out[i] = (csum[i + 1] - csum[lo]) / (i + 1 - lo)
    return out


def test_mode_fraction_series_hand_values():
    series = mode_fraction_series(["LOCAL", "OFFLOAD", "LOCAL"], window=2)
    assert series.tolist() == [1.0, 0.5, 0.5]
    with pytest.raises(ValueError):
        mode_fraction_series(["LOCAL"], window=0)


def _phase_pooled_local_fraction(decisions, t_min=600.0, window=30):
    """Mean rolling LOCAL fraction in the settled half of each dwell phase."""
    series = mode_fraction_series(decisions["mode"], window)
    pools = {"low": [], "high": []}
    for t, bw, frac in zip(decisions["t"], decisions["bandwidth_mbps"], series):
        if t < t_min:
            continue
        if (t % 60.0) < 30.0:
            continue                     # skip the adjustment half of the phase
        if bw <= 10.0:
            pools["low"].append(frac)
        elif bw >= 500.0:
            pools["high"].append(frac)
    return {k: float(np.mean(v)) for k, v in pools.items()}


def test_c9_mode_bandwidth_anticorrelation(scenarios):
    results = scenarios.results(spec_for("rl", "cycle"))
    lows, highs = [], []
    for res in results:
        stats = _phase_pooled_local_fraction(res.decisions)
        lows.append(stats["low"])
        highs.append(stats["high"])
    lo = float(np.median(lows))
    hi = float(np.median(highs))
    ok = lo > 0.8 and hi < 0.2
    verdict("C9", ok, f"median LOCAL fraction: low-bandwidth phases {lo:.3f} "
                      f"(> 0.8), high-bandwidth phases {hi:.3f} (< 0.2)")


# ---------------------------------------------------------------------------
# C10: baseline behavioral signatures
# ---------------------------------------------------------------------------


def test_c10_baseline_signatures(scenarios):
    greedy = scenarios.results(spec_for("greedy", "stable"))
    fracs = [
        res.metrics.action_histogram[12] / res.metrics.decisions
        for res in greedy
    ]
    greedy_frac = float(np.median(fracs))

    thresh = scenarios.aggregate(spec_for("threshold", "cycle", horizon=2400.0))
    rl = scenarios.aggregate(spec_for("rl", "cycle"))
    t_power = thresh["avg_power_w"]["median"]
    rl_power = rl["avg_power_w"]["median"]
    t_survived = thresh["survived_s"]["max"]

    ok = greedy_frac >= 0.8 and t_power > rl_power and t_survived < 2400.0
    verdict("C10", ok,
            f"greedy action-12 fraction {greedy_frac:.2f} (>= 0.8); threshold "
            f"power {t_power:.1f} W > rl {rl_power:.1f} W, depletes by "
            f"{t_survived:.0f} s < 2400 s")


# ---------------------------------------------------------------------------
# C11: determinism
# ---------------------------------------------------------------------------


def test_c11_determinism(tmp_path, scenarios):
    spec = default_scenario("rl", "cycle", horizon_s=120.0, seeds=(1,))
    a = run_experiment(spec, seed=1, out_dir=tmp_path / "a")
    b = run_experiment(spec, seed=1, out_dir=tmp_path / "b")
    identical = (
        (tmp_path / "a" / "metrics.json").read_bytes()
        == (tmp_path / "b" / "metrics.json").read_bytes()
    )

    results = scenarios.results(spec_for("rl", "cycle"))
    bw_cols = [res.decisions["bandwidth_mbps"] for res in results]
    n = min(len(col) for col in bw_cols)
    same_bw = all(col[:n] == bw_cols[0][:n] for col in bw_cols)

    # timing fields are wall-clock and excluded from the deterministic record
    ok = identical and same_bw and a.metrics.to_metrics_dict() == b.metrics.to_metrics_dict()
    verdict("C11", ok, f"repeat run metrics byte-identical={identical}, "
                       f"bandwidth column shared across seeds={same_bw}")


# ---------------------------------------------------------------------------
# C12: sweep directionality
# ---------------------------------------------------------------------------


def _compliance_at(scenarios, path, value):
    spec = replace_path(spec_for("rl", "cycle"), path, value)
    return scenarios.aggregate(spec)["compliance_pct"]["median"]


def test_c12a_epsilon_decay_monotonicity(scenarios):
    meds = [
        _compliance_at(scenarios, "dqn.eps_decay", v)
        for v in (0.999, 0.9975, 0.995)
    ]
    ok = meds[0] < meds[1] < meds[2]
    verdict("C12a", ok, "compliance medians "
            + " < ".join(f"{m:.2f}" for m in meds)
            + " (faster decay, higher compliance)")


def test_c12b_gamma_ordering(scenarios):
    c99 = _compliance_at(scenarios, "dqn.gamma", 0.99)
    c95 = _compliance_at(scenarios, "dqn.gamma", 0.95)
    ok = c99 >= c95
    verdict("C12b", ok, f"gamma 0.99 compliance {c99:.2f} >= gamma 0.95 {c95:.2f}")


def test_c12c_lambda_insensitivity(scenarios):
    meds = [
        _compliance_at(scenarios, "env.reward.lam", v) for v in (0.5, 1.0, 2.0)
    ]
    spread = max(meds) - min(meds)
    ok = spread <= 10.0
    verdict("C12c", ok, f"lambda sweep compliance spread {spread:.2f} pp (<= 10)")


# ---------------------------------------------------------------------------
# C13: the abstract's claims under the model
# ---------------------------------------------------------------------------


def test_c13_abstract_claims(scenarios):
    # the paper's "up to +163%" lifetime gain is a best case, not a floor, so
    # the verdict reports the model's gain and gates only on its sign
    comp = {mbps: scenarios.aggregate(spec_for("rl", "stable", mbps=mbps))["compliance_pct"]["median"]
            for mbps in (1000.0, 20.0, 10.0)}
    life_rl = scenarios.aggregate(spec_for("rl", "stable"))["projected_lifetime_min"]["median"]
    life_local = scenarios.aggregate(spec_for("local", "stable"))["projected_lifetime_min"]["median"]
    gain = (life_rl / life_local - 1.0) * 100.0
    ok = comp[1000.0] >= 90.0 and life_rl > life_local and comp[20.0] >= 80.0 and comp[10.0] >= 80.0
    verdict("C13", ok,
            f"rl on stable 1000 Mbps: compliance {comp[1000.0]:.1f}% (>= 90), lifetime "
            f"{life_rl:.1f} min > local full quality {life_local:.1f} min ({gain:+.0f}%; "
            f"paper: up to +163%); rl on stable 20 / 10 Mbps: {comp[20.0]:.1f}% / "
            f"{comp[10.0]:.1f}% (>= 80)")
