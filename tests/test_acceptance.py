"""End-to-end acceptance checks for the advertised guarantees.

Each test exercises one guarantee at its stated tolerance and prints exactly
one ``[PASS]``/``[FAIL]`` line (to the real stdout, so the ledger survives
pytest's capture).  The checks are deliberately heavyweight -- Monte Carlo
with 1e7 samples, 50 replicates at n = m = 10^4, 10^4 paired graph draws --
and together take a few minutes.
"""

import itertools
import math
import time

import numpy as np
import pytest
from scipy.stats import chi2, poisson

from rigclust import (
    Degenerate,
    ExperimentConfig,
    LimitLaws,
    ModelParams,
    Pareto,
    attribute_tail_asymptotic,
    clustering_spectrum,
    degree_tail_asymptotic,
    delta_exponent,
    fit_delta,
    graph_from_edges,
    mixing_spec,
    pmf_mixed_poisson,
    pmf_offspring,
    pmf_stopped_sum,
    run,
    sample_biased,
    sample_bipartite,
    tail_from_pmf,
    tail_weight_asymptotics,
)

PARETO_CONFIGS = ((9.0, 5.5), (7.0, 6.0), (6.6, 5.1))


@pytest.fixture()
def announce(capfd):
    """One visible pass/fail line per criterion, piercing pytest's capture."""
    def _announce(ok: bool, label: str, detail: str, elapsed: float) -> None:
        status = "PASS" if ok else "FAIL"
        with capfd.disabled():
            print(f"[{status}] {label}: {detail} ({elapsed:.1f}s)", flush=True)
        assert ok, f"{label}: {detail}"
    return _announce


def pareto_params(alpha: float, gamma: float, beta: float = 1.0) -> ModelParams:
    return ModelParams(100, 100, beta, Pareto(1.0, alpha), Pareto(1.0, gamma))


@pytest.fixture(scope="module")
def sharp_laws():
    """High-resolution numeric laws for the three heavy-tail configurations."""
    return {cfg: LimitLaws(pareto_params(*cfg), k_max=4096, tol=1e-12)
            for cfg in PARETO_CONFIGS}


# ---------------------------------------------------------------------------
# 1. Point-mass weights collapse every law onto Poisson references
# ---------------------------------------------------------------------------

def test_point_mass_weights_match_poisson_references(announce):
    t0 = time.monotonic()
    x0, y0, beta = 1.3, 0.8, 1.7
    params = ModelParams(50, 80, beta, Degenerate(x0), Degenerate(y0))
    mu = math.sqrt(beta) * x0 * y0
    nu = x0 * y0 / math.sqrt(beta)

    worst = 0.0
    grid = np.arange(257)
    for role, rate in (("actor", mu), ("attribute", nu)):
        ref = poisson.pmf(grid, rate)
        for r in range(4):
            got = pmf_mixed_poisson(mixing_spec(params, role, r), 256)
            worst = max(worst, float(np.abs(got.mass - ref).max()),
                        abs(got.tail_mass - float(poisson.sf(256, rate))))

    off = pmf_offspring(params, 256)
    worst = max(worst, float(np.abs(off.mass - poisson.pmf(grid, nu)).max()))

    count = pmf_mixed_poisson(mixing_spec(params, "actor", 0), 256)
    got = pmf_stopped_sum(count, off, 512, 1e-12)
    sgrid = np.arange(513)
    ref = np.zeros(513)
    for i in range(81):  # Poisson(mu) mass beyond 80 is < 1e-100
        ref += poisson.pmf(i, mu) * poisson.pmf(sgrid, i * nu)
    worst = max(worst, float(np.abs(got.mass - ref).max()))

    elapsed = time.monotonic() - t0
    announce(worst <= 1e-10 and elapsed < 1.0,
             "point-mass Poisson references",
             f"worst entrywise gap {worst:.2e} (limit 1e-10)", elapsed)


# ---------------------------------------------------------------------------
# 2. Numeric pmfs agree with direct Monte Carlo at 1e7 samples
# ---------------------------------------------------------------------------

def test_pmfs_match_monte_carlo(announce):
    t0 = time.monotonic()
    params = ModelParams(100, 100, 1.0, Pareto(1, 6), Pareto(1, 6))
    n_samples = 10_000_000
    rng = np.random.default_rng(20240814)

    laws = {}
    for r in (2, 3):
        laws[f"attribute law, order {r}"] = pmf_mixed_poisson(
            mixing_spec(params, "attribute", r), 2048)
    laws["offspring law"] = pmf_offspring(params, 2048)
    for r in (1, 2):
        count = pmf_mixed_poisson(mixing_spec(params, "actor", r), 2048)
        laws[f"degree law, order {r}"] = pmf_stopped_sum(
            count, laws["offspring law"], 4096, 1e-10)

    def draw(name):
        if name.startswith("attribute"):
            return sample_biased(
                mixing_spec(params, "attribute", int(name[-1])), rng, n_samples)
        if name == "offspring law":
            # Following a uniform link size-biases the attribute count; minus
            # the actor we came from, that is the order-1 tilted law.
            return sample_biased(mixing_spec(params, "attribute", 1), rng, n_samples)
        counts = sample_biased(
            mixing_spec(params, "actor", int(name[-1])), rng, n_samples)
        taus = sample_biased(mixing_spec(params, "attribute", 1), rng,
                             int(counts.sum()))
        cum = np.concatenate([[0], np.cumsum(taus)])
        ends = np.cumsum(counts)
        return (cum[ends] - cum[ends - counts]).astype(np.int64)

    worst_tv, worst_name = 0.0, ""
    for name, pmf in laws.items():
        samples = draw(name)
        k = pmf.mass.size
        emp = np.bincount(np.minimum(samples, k), minlength=k + 1) / n_samples
        tv = 0.5 * (np.abs(emp[:k] - pmf.mass).sum() + abs(emp[k] - pmf.tail_mass))
        if tv > worst_tv:
            worst_tv, worst_name = tv, name

    elapsed = time.monotonic() - t0
    announce(worst_tv < 3e-3 and elapsed < 120.0,
             "Monte Carlo cross-check",
             f"worst TV {worst_tv:.2e} ({worst_name}; limit 3e-3)", elapsed)


# ---------------------------------------------------------------------------
# 3. Tail asymptotics meet the numeric pmfs where the grid is still reliable
# ---------------------------------------------------------------------------

def test_tail_asymptotics_meet_numeric_tails(sharp_laws, announce):
    t0 = time.monotonic()
    results = []
    for (alpha, gamma), laws in sharp_laws.items():
        params = laws.params
        targets = {
            "degree order 1": (laws.d1, lambda k: degree_tail_asymptotic(params, 1, k)),
            "degree order 2": (laws.d2, lambda k: degree_tail_asymptotic(params, 2, k)),
            "attribute order 2": (laws.lam2, lambda k: attribute_tail_asymptotic(params, 2, k)),
            "attribute order 3": (laws.lam3, lambda k: attribute_tail_asymptotic(params, 3, k)),
        }
        for name, (pmf, asym) in targets.items():
            # The tail interval's width is the off-grid allowance; find the
            # deepest k where it is still below 10% of the midpoint.
            suffix = np.cumsum(pmf.mass[::-1])[::-1]
            mids = suffix + pmf.tail_mass / 2.0
            widths = np.full_like(mids, pmf.tail_mass)
            ok = np.nonzero(widths < 0.1 * mids)[0]
            k_star = int(ok.max())
            lo, hi = tail_from_pmf(pmf, k_star)
            ratio = asym(k_star) / ((lo + hi) / 2.0)
            results.append((alpha, gamma, name, k_star, ratio))
    worst = max(results, key=lambda rec: max(rec[4] / 1.25, 0.8 / rec[4]))
    ok = all(0.8 <= rec[4] <= 1.25 for rec in results)
    elapsed = time.monotonic() - t0
    announce(ok and elapsed < 300.0, "tail asymptotics vs numeric tails",
             f"worst ratio {worst[4]:.3f} at k={worst[3]} "
             f"({worst[2]}, indices {worst[0]}/{worst[1]}; limits [0.8, 1.25])",
             elapsed)


# ---------------------------------------------------------------------------
# 4. Simulated clustering matches predictions at n = m = 10^4
# ---------------------------------------------------------------------------

def test_simulation_matches_predictions(announce):
    t0 = time.monotonic()
    cfg = ExperimentConfig(
        params=ModelParams(10_000, 10_000, 1.0, Pareto(1, 7), Pareto(1, 6)),
        replicates=50, master_seed=2024, k_min=3, k_max=15)
    report = run(cfg)
    worst_C = max(row["C_gap"] for row in report.rows)
    worst_c = max(row["c_gap"] for row in report.rows)
    complete = not report.failed and all(
        row["c_hat"] is not None and row["c_pred"] is not None
        for row in report.rows)
    elapsed = time.monotonic() - t0
    announce(complete and worst_C <= 0.05 and worst_c <= 0.07 and elapsed < 900.0,
             "pooled simulation vs predictions",
             f"max cumulative gap {worst_C:.4f} (limit 0.05), "
             f"max pointwise gap {worst_c:.4f} (limit 0.07), "
             f"50 replicates at n=m=10^4, degrees 3..15", elapsed)


# ---------------------------------------------------------------------------
# 5. The decay exponent is recovered from both tail routes
# ---------------------------------------------------------------------------

def test_decay_exponent_recovered_from_tail_ratio(sharp_laws, announce):
    t0 = time.monotonic()
    details = []
    ok = True
    for (alpha, gamma), laws in sharp_laws.items():
        params = laws.params
        expect = delta_exponent(alpha, gamma)

        ks = np.geomspace(100.0, 10_000.0, 25)
        pts = []
        for k in ks:
            at, bt = tail_weight_asymptotics(params, k)
            pts.append((k, bt / at))
        slope_a = fit_delta(pts, (100.0, 10_000.0)).slope
        ok &= abs(slope_a - expect) <= 0.05

        # Numeric route: fit over the top of the window where both tail
        # intervals are still narrower than 10% of their midpoints.
        def reliable_max(pmf):
            suffix = np.cumsum(pmf.mass[::-1])[::-1]
            good = np.nonzero(
                pmf.tail_mass < 0.1 * (suffix + pmf.tail_mass / 2.0))[0]
            return int(good.max())

        k_hi = min(reliable_max(laws.closed_law), reliable_max(laws.open_law)) + 2
        fit_ks = np.unique(np.geomspace(max(8, k_hi / 4.0), k_hi, 40).astype(int))
        pts = []
        for k in fit_ks:
            A, B = laws.tail_weights(int(k))
            pts.append((int(k), B.mid / A.mid))
        slope_n = fit_delta(pts, (float(fit_ks[0]), float(fit_ks[-1]))).slope
        ok &= abs(slope_n - expect) <= 0.10
        details.append(f"{alpha}/{gamma}: {slope_a:+.3f}|{slope_n:+.3f} vs {expect:+g}")
    elapsed = time.monotonic() - t0
    announce(ok and elapsed < 300.0, "decay-exponent recovery",
             "slopes asymptotic|numeric " + "; ".join(details)
             + " (limits 0.05|0.10)", elapsed)


# ---------------------------------------------------------------------------
# 6. Spectra equal exhaustive ordered-triple frequencies on random graphs
# ---------------------------------------------------------------------------

def test_spectra_equal_exhaustive_triple_frequencies(announce):
    t0 = time.monotonic()
    rng = np.random.default_rng(20240807)
    checked = 0
    for _ in range(200):
        n = int(rng.integers(3, 31))
        p = float(rng.choice([0.1, 0.2, 0.3, 0.5, 0.7, 0.9]))
        pairs = [(u, v) for u, v in itertools.combinations(range(n), 2)
                 if rng.random() < p]
        edges = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        g = graph_from_edges(n, edges[:, 0], edges[:, 1])
        spec = clustering_spectrum(g)
        adj = [set(g.neighbor_list(v).tolist()) for v in range(n)]
        deg = g.degrees

        top = spec.max_degree
        num = np.zeros(top + 1, dtype=np.int64)
        den = np.zeros(top + 1, dtype=np.int64)
        for v, w, u in itertools.permutations(range(n), 3):
            if w in adj[v] and u in adj[v]:
                den[deg[v]] += 1
                num[deg[v]] += u in adj[w]
        cnum = np.cumsum(num[::-1])[::-1]
        cden = np.cumsum(den[::-1])[::-1]

        for k in range(top + 2):
            c = spec.c_at(k)
            C = spec.C_at(k)
            if k > top or den[k] == 0:
                assert c is None
            else:
                assert c == num[k] / den[k]
                checked += 1
            if k > top or cden[k] == 0:
                assert C is None
            else:
                assert C == cnum[k] / cden[k]
                checked += 1
    elapsed = time.monotonic() - t0
    announce(elapsed < 60.0, "exhaustive triple enumeration",
             f"200 random graphs, {checked} exact ratio matches", elapsed)


# ---------------------------------------------------------------------------
# 7. The two generators agree in law; reports are byte-stable
# ---------------------------------------------------------------------------

def test_generators_agree_and_reports_are_byte_stable(tmp_path, announce):
    t0 = time.monotonic()
    n = m = 300
    params = ModelParams(n, m, 1.0, Pareto(1, 7), Pareto(1, 6))
    n_reps = 10_000
    offsets = np.arange(m, dtype=np.int64) * n

    counts = {}
    for gen in ("reference", "fast"):
        acc = np.zeros(n * m, dtype=np.int64)
        for seed in range(n_reps):
            sample = sample_bipartite(params, seed, gen)
            acc[sample.actors + np.repeat(offsets, np.diff(sample.indptr))] += 1
        counts[gen] = acc

    # Per-pair 2x2 homogeneity statistics, summed; conditioning on shared
    # weights keeps both samples on the exact same per-replicate law.
    c_r, c_f = counts["reference"], counts["fast"]
    pooled = c_r + c_f
    mask = (pooled > 0) & (pooled < 2 * n_reps)
    d = (c_r - c_f).astype(np.float64)
    stat = float((2 * n_reps * d[mask] ** 2
                  / (pooled[mask] * (2 * n_reps - pooled[mask]))).sum())
    df = int(mask.sum())
    p_value = float(chi2.sf(stat, df))

    texts = []
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        cfg = ExperimentConfig(params=params, replicates=6, master_seed=7,
                               k_min=2, k_max=20, output_dir=str(out))
        run(cfg, workers=workers)
        texts.append((out / "report.csv").read_bytes()
                     + (out / "report.json").read_bytes())
    stable = texts[0] == texts[1]

    elapsed = time.monotonic() - t0
    announce(p_value > 0.001 and stable and elapsed < 600.0,
             "generator equality and determinism",
             f"chi-square p = {p_value:.4f} over {df} pairs (limit 0.001); "
             f"reports byte-identical across worker counts: {stable}", elapsed)
