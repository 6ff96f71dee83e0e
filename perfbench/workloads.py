"""The four benchmark workloads, each driving one layer of ``loblab``.

Every workload runs in four phases, each under its own root span:

- ``setup``: derive the model constants and warm up the calls it times;
- ``timed``: call the layer's public function until the time budget is
  spent, timing each call from outside;
- ``gate``: compute the analytic references and the estimates to check
  against them, outside every timed region;
- ``stages`` (traced runs only): extra calls that price the stages of a
  layer whose main call cannot be split from outside.

Why these workloads:

- ``book_renewal`` spends its time in the ``lob_simulator`` event loop at
  n = 10^4 and stops at the first renewal.  It is the workload for a
  faster book representation or a batched renewal engine.
- ``book_path`` runs the same event engine free-running on a recorded grid,
  paying per-grid-point transforms and occupation bookkeeping.  A change
  aimed only at renewal ensembles should leave it unchanged.
- ``limit_renewal`` exercises only ``limit_processes``: the time change,
  excursion decomposition, bracketing overlay and horizon doublings.
- ``analytic_sweep`` exercises only ``analytics``: cold intensity and CF
  table builds for distinct parameter sets, which miss the package's
  caches in a fresh process, then warm CF evaluations.

Both book workloads start the bracketing queues at the pinned levels
(kappa_L, kappa_R) from which the limit system and the analytics start a
renewal.  From the package's default start (0.75, -0.75) the book's
down-fraction at n = 10^4 sits near 0.59, about 0.077 below the analytic
2/3, because the queues first have to relax to their pinned levels.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, replace

import numpy as np

import loblab as lb
import speed
from gate import binomial_band, holds, within

BOOK_MODEL = lb.ModelParams(theta_b=2.0)

# analytic_sweep parameter sets: one symmetric and two asymmetric models
MODEL_SETS = {
    "symmetric": lb.ModelParams(),
    "asym_theta_b": lb.ModelParams(theta_b=2.0),
    "asym_full": lb.ModelParams(a=1.2, b=1.7, lambda0=2.0, theta_b=2.0, theta_s=0.5),
}

# Stated bias allowances for the down-fraction bands.  Measured on 30,000
# limit renewals at dt = 1e-3: 0.6563 +- 0.0027 against 2/3.  Measured on
# 800 book renewals at n = 10^4 from the pinned start: 0.671 +- 0.017.
LIMIT_GRID_ALLOWANCE = 0.02
BOOK_FINITE_N_ALLOWANCE = 0.03

# book_path: the ensemble one-tick fraction at n = 2500, T = 2 measured
# 0.6622 +- 0.0006 against frac_one_tick = 2/3 (300 paths)
ONE_TICK_TOLERANCE = 0.02
DRIFT_SE_LIMIT = 4.0

# renewal_cf(-alpha) must equal conj(renewal_cf(alpha)) to this absolute error
CONJ_TOLERANCE = 1e-12

# stream index far above any timed path index, for warm-up and stage calls;
# warm-ups use seed 0, so set-up does the same work whatever the run's seed
_SPARE_INDEX = 1 << 40


def pinned_start(c: lb.DerivedConstants) -> tuple[float, ...]:
    return (0.75, c.kappa_L, 0.0, 0.0, c.kappa_R, -0.75)


def is_symmetric(params: lb.ModelParams) -> bool:
    """Whether the buy and sell sides mirror each other exactly."""
    return params.a == params.b and params.theta_b == params.theta_s


def _until(seconds: float, min_ops: int, probe):
    """Yield 0, 1, 2, ... until both ``min_ops`` and ``seconds`` are reached.

    The speed probe runs its kernel before the first operation, between
    operations when it is due, and after the last one.
    """
    start = time.perf_counter()
    probe.sample()
    i = 0
    while i < min_ops or time.perf_counter() - start < seconds:
        yield i
        probe.maybe_sample()
        i += 1
    probe.sample()


def quantiles_ms(samples_s) -> tuple[float, float]:
    """(p50, p90) of second-valued samples, in milliseconds."""
    p50, p90 = np.quantile(np.asarray(samples_s), [0.5, 0.9])
    return float(p50) * 1e3, float(p90) * 1e3


class BookRenewal:
    """``run_until_renewal`` over path indices 0, 1, 2, ... at n = 10^4."""

    name = "book_renewal"
    engine = "lob_simulator.run_until_renewal"
    models = {"book": BOOK_MODEL}
    defaults = {"n": 10_000, "horizon": 100.0, "min_ops": 10}

    def __init__(self, n, horizon, min_ops):
        self.n, self.horizon, self.min_ops = n, horizon, min_ops

    def setup(self, seed, tracer):
        with tracer.span("model_params.derive_constants"):
            self.c = lb.derive_constants(BOOK_MODEL)
        self.config = lb.SimConfig(n=self.n, horizon=self.horizon, seed=seed,
                                   initial_scaled_state=pinned_start(self.c))
        with tracer.span(self.engine):
            lb.run_until_renewal(replace(self.config, n=400, seed=0), self.c, _SPARE_INDEX)

    def timed(self, seconds, tracer, probe):
        ops, s_hat, down, misses = [], [], 0, 0
        for i in _until(seconds, self.min_ops, probe):
            t0 = time.perf_counter()
            try:
                with tracer.span(self.engine):
                    record = lb.run_until_renewal(self.config, self.c, i)
            except lb.HorizonExceededError:
                misses += 1
            else:
                s_hat.append(record.s_hat)
                down += record.direction == "down"
            ops.append((t0, time.perf_counter() - t0))
        return {"ops": ops, "s_hat": s_hat, "down": down, "misses": misses}

    def references(self, tracer):
        with tracer.span("analytics.renewal_down_prob"):
            return {"down_prob": lb.renewal_down_prob(self.c)}

    def estimates(self, out, tracer):
        return {"down": out["down"], "trials": len(out["s_hat"])}

    @staticmethod
    def check(est, refs):
        return [binomial_band("book_down_fraction", est["down"], est["trials"],
                              refs["down_prob"], BOOK_FINITE_N_ALLOWANCE)]

    def summarize(self, out, scale):
        latency = [scale(t0, d) for t0, d in out["ops"]]
        busy = sum(latency)
        sim_time = float(sum(out["s_hat"]))
        p50, p90 = quantiles_ms(latency)
        ops = len(latency)
        return {
            "attempted": ops,
            "failed": out["misses"],
            # renewal times are heavy tailed, so renewals per second swings
            # with the sampled work; scaled model time per second does not
            "throughput_per_s": sim_time / busy,
            "op_ms": (p50, p90),
            "named": {
                "book.renewals_per_s": (ops / busy, "1/s"),
                "book.renewal_ms_p50": (p50, "ms"),
                "book.renewal_ms_p90": (p90, "ms"),
                "book.sim_time_per_s": (sim_time / busy, "1/s"),
            },
            "work": {"renewals": ops, "sim_time": sim_time},
            "engine": {"work": self.n * sim_time, "work_unit": "unscaled time",
                       "failures": out["misses"]},
            "layers": {
                f"{self.engine}.calls": (ops, "count"),
                f"{self.engine}.busy_s": (busy, "s"),
                f"{self.engine}.misses": (out["misses"], "count"),
                f"{self.engine}.sim_time": (sim_time, "scaled"),
                f"{self.engine}.us_per_sim_unit": (1e6 * busy / (self.n * sim_time), "us"),
            },
        }


class BookPath:
    """``run_scaled_path`` over path indices 0, 1, 2, ... at n = 2500, T = 2."""

    name = "book_path"
    engine = "lob_simulator.run_scaled_path"
    models = {"book": BOOK_MODEL}
    defaults = {"n": 2500, "horizon": 2.0, "grid_step": 0.01, "min_ops": 10}

    def __init__(self, n, horizon, grid_step, min_ops):
        self.n, self.horizon, self.grid_step, self.min_ops = n, horizon, grid_step, min_ops

    def setup(self, seed, tracer):
        with tracer.span("model_params.derive_constants"):
            self.c = lb.derive_constants(BOOK_MODEL)
        self.config = lb.SimConfig(n=self.n, horizon=self.horizon, seed=seed,
                                   grid_step=self.grid_step,
                                   initial_scaled_state=pinned_start(self.c))
        with tracer.span(self.engine):
            lb.run_scaled_path(replace(self.config, n=400, horizon=0.1, seed=0), self.c,
                               _SPARE_INDEX)

    def timed(self, seconds, tracer, probe):
        ops, bundles = [], []
        for i in _until(seconds, self.min_ops, probe):
            t0 = time.perf_counter()
            with tracer.span(self.engine):
                bundles.append(lb.run_scaled_path(self.config, self.c, i))
            ops.append((t0, time.perf_counter() - t0))
        return {"ops": ops, "bundles": bundles}

    def references(self, tracer):
        return {"frac_one_tick": self.c.frac_one_tick}

    def estimates(self, out, tracer):
        with tracer.span("lob_simulator.occupation_fractions"):
            one_tick = [lb.occupation_fractions(b)["one_tick"] for b in out["bundles"]]
        with tracer.span("lob_simulator.martingale_drift_stat"):
            mean, se = lb.martingale_drift_stat(out["bundles"])
        return {"one_tick": float(np.mean(one_tick)), "paths": len(one_tick),
                "drift_mean": mean, "drift_se": se}

    @staticmethod
    def check(est, refs):
        drift_z = est["drift_mean"] / est["drift_se"] if est["drift_se"] > 0 else 0.0
        return [
            within("path_one_tick_fraction", est["one_tick"], refs["frac_one_tick"],
                   ONE_TICK_TOLERANCE, paths=est["paths"]),
            holds("path_martingale_drift", abs(drift_z) <= DRIFT_SE_LIMIT,
                  mean=est["drift_mean"], se=est["drift_se"], z=drift_z,
                  limit_se=DRIFT_SE_LIMIT),
        ]

    def summarize(self, out, scale):
        latency = [scale(t0, d) for t0, d in out["ops"]]
        busy = sum(latency)
        ops = len(latency)
        grid_points = sum(len(b.times) for b in out["bundles"])
        p50, p90 = quantiles_ms(latency)
        return {
            "attempted": ops,
            "failed": 0,
            "throughput_per_s": ops / busy,
            "op_ms": (p50, p90),
            "named": {
                "path.paths_per_s": (ops / busy, "1/s"),
                "path.path_ms_p50": (p50, "ms"),
                "path.path_ms_p90": (p90, "ms"),
            },
            "work": {"paths": ops, "sim_time": ops * self.horizon, "grid_points": grid_points},
            "engine": {"work": grid_points, "work_unit": "grid points", "failures": 0},
            "layers": {
                f"{self.engine}.calls": (ops, "count"),
                f"{self.engine}.busy_s": (busy, "s"),
                f"{self.engine}.grid_points": (grid_points, "count"),
            },
        }


class LimitRenewal:
    """``simulate_renewal_limit`` over streams ``path_stream(seed, i)``."""

    name = "limit_renewal"
    engine = "limit_processes.simulate_renewal_limit"
    models = {"book": BOOK_MODEL}
    defaults = {"horizon": 1.0, "dt": 1e-3, "stage_paths": 50, "min_ops": 10}
    stage_names = ("limit_processes.sample_two_speed_timechange",
                   "limit_processes.decompose_excursions",
                   "limit_processes.build_bracketing_limits")

    def __init__(self, horizon, dt, stage_paths, min_ops):
        self.grid = lb.GridSpec(horizon=horizon, dt=dt)
        self.stage_paths, self.min_ops = stage_paths, min_ops

    def setup(self, seed, tracer):
        self.seed = seed
        with tracer.span("model_params.derive_constants"):
            self.c = lb.derive_constants(BOOK_MODEL)
        with tracer.span(self.engine):
            lb.simulate_renewal_limit(self.c, self.grid, lb.path_stream(0, _SPARE_INDEX))

    def timed(self, seconds, tracer, probe):
        ops, s_star, down, failures = [], [], 0, 0
        for i in _until(seconds, self.min_ops, probe):
            t0 = time.perf_counter()
            with tracer.span("lob_simulator.path_stream"):
                rng = lb.path_stream(self.seed, i)
            try:
                with tracer.span(self.engine):
                    sample = lb.simulate_renewal_limit(self.c, self.grid, rng)
            except RuntimeError:  # no renewal within the doubling budget
                failures += 1
            else:
                s_star.append(sample.s_star)
                down += sample.direction == "down"
            ops.append((t0, time.perf_counter() - t0))
        return {"ops": ops, "s_star": s_star, "down": down, "failures": failures}

    def references(self, tracer):
        with tracer.span("analytics.renewal_down_prob"):
            return {"down_prob": lb.renewal_down_prob(self.c)}

    def estimates(self, out, tracer):
        return {"down": out["down"], "trials": len(out["s_star"])}

    @staticmethod
    def check(est, refs):
        return [binomial_band("limit_down_fraction", est["down"], est["trials"],
                              refs["down_prob"], LIMIT_GRID_ALLOWANCE)]

    def stages(self, tracer):
        """Price the stages of one renewal attempt on the base grid."""
        two_speed = lb.TwoSpeedParams(self.c.sigma_plus, self.c.sigma_minus)
        for k in range(self.stage_paths):
            rng = lb.path_stream(self.seed, _SPARE_INDEX + 1 + k)
            with tracer.span(self.stage_names[0]):
                gstar = lb.sample_two_speed_timechange(two_speed, self.grid, rng)
            with tracer.span(self.stage_names[1]):
                lb.decompose_excursions(gstar, 2.0 * self.grid.dt)
            with tracer.span(self.stage_names[2]):
                lb.build_bracketing_limits(gstar, self.c, rng)

    def summarize(self, out, scale):
        latency = [scale(t0, d) for t0, d in out["ops"]]
        busy = sum(latency)
        ops = len(latency)
        sim_time = float(sum(out["s_star"]))
        p50, p90 = quantiles_ms(latency)
        return {
            "attempted": ops,
            "failed": out["failures"],
            "throughput_per_s": ops / busy,
            "op_ms": (p50, p90),
            "named": {
                "limit.renewals_per_s": (ops / busy, "1/s"),
                "limit.renewal_ms_p50": (p50, "ms"),
                "limit.renewal_ms_p90": (p90, "ms"),
            },
            "work": {"renewals": ops, "sim_time": sim_time},
            "engine": {"work": sim_time, "work_unit": "scaled time",
                       "failures": out["failures"]},
            "layers": {
                f"{self.engine}.calls": (ops, "count"),
                f"{self.engine}.busy_s": (busy, "s"),
                f"{self.engine}.failures": (out["failures"], "count"),
                f"{self.engine}.sim_time": (sim_time, "scaled"),
            },
        }


class AnalyticSweep:
    """Cold then warm renewal analytics over distinct parameter sets."""

    name = "analytic_sweep"
    engine = "analytics."
    defaults = {"sets": tuple(MODEL_SETS), "alphas": 32}
    flag_names = ("series_cap", "tail_estimate_uncertainty", "quadrature_tolerance")

    def __init__(self, sets, alphas):
        self.set_names, self.n_alphas = tuple(sets), alphas
        self.models = {name: MODEL_SETS[name] for name in self.set_names}

    def setup(self, seed, tracer):
        self.c = {}
        for name in self.set_names:
            with tracer.span("model_params.derive_constants"):
                self.c[name] = lb.derive_constants(MODEL_SETS[name])
        # magnitudes log-uniform on [0.05, 50], one in each of n_alphas equal
        # strata so that every seed covers the range alike; each is paired
        # with its negative
        strata = (np.arange(self.n_alphas)
                  + np.random.default_rng(seed).random(self.n_alphas)) / self.n_alphas
        mags = 0.05 * np.exp(strata * math.log(1000.0))
        self.alphas = [float(s * m) for m in mags for s in (1.0, -1.0)]
        # warms scipy's special functions without touching the CF caches
        with tracer.span("analytics.p_vstar_total"):
            lb.p_vstar_total(1.0, self.c[self.set_names[0]])

    def timed(self, seconds, tracer, probe):
        start = time.perf_counter()
        cold, values = {}, {}
        # each cold call takes seconds, so bracket it with several samples
        probe.sample(speed.BURST)
        for name in self.set_names:
            c, flags = self.c[name], []
            t0 = time.perf_counter()
            with tracer.span("analytics.renewal_down_prob"):
                down = lb.renewal_down_prob(c, flags=flags)
            t1 = time.perf_counter()
            probe.sample(speed.BURST)
            t2 = time.perf_counter()
            with tracer.span("analytics.renewal_cf:cold"):
                values[name, self.alphas[0]] = lb.renewal_cf(self.alphas[0], c, flags=flags)
            t3 = time.perf_counter()
            probe.sample(speed.BURST)
            cold[name] = {"down_prob": down, "intensities": (t0, t1 - t0),
                          "cf": (t2, t3 - t2), "flags": flags}
        # warm evaluations fill the rest of the budget, at least one pass
        warm = []
        pairs = [(name, a) for name in self.set_names for a in self.alphas]
        remaining = max(seconds - (time.perf_counter() - start), 0.0)
        for i in _until(remaining, len(pairs), probe):
            name, a = pairs[i % len(pairs)]
            t0 = time.perf_counter()
            with tracer.span("analytics.renewal_cf:warm"):
                values[name, a] = lb.renewal_cf(a, self.c[name])
            warm.append((t0, time.perf_counter() - t0))
        return {"cold": cold, "warm": warm, "values": values}

    def references(self, tracer):
        at_zero = {}
        for name in self.set_names:
            with tracer.span("analytics.renewal_cf:zero"):
                at_zero[name] = lb.renewal_cf(0.0, self.c[name])
        return {"symmetric_down_prob": 0.5, "cf_at_zero": at_zero}

    def estimates(self, out, tracer):
        return {
            "symmetric_down_probs": {name: v["down_prob"] for name, v in out["cold"].items()
                                     if is_symmetric(MODEL_SETS[name])},
            "values": out["values"],
        }

    @staticmethod
    def check(est, refs):
        checks = []
        for name, p in est["symmetric_down_probs"].items():
            checks.append(holds(f"analytic_symmetric_down_prob[{name}]",
                                p == refs["symmetric_down_prob"], estimate=p,
                                reference=refs["symmetric_down_prob"]))
        for name, cf in refs["cf_at_zero"].items():
            checks.append(holds(f"analytic_cf_at_zero[{name}]", all(z == 1 for z in cf),
                                value=[repr(z) for z in cf]))
        values = est["values"]
        largest = max(abs(z) for cf in values.values() for z in cf)
        checks.append(holds("analytic_cf_modulus", largest <= 1.0, max_abs=largest,
                            evaluations=len(values)))
        conj_err = 0.0
        for (name, a), cf in values.items():
            mirror = values.get((name, -a))
            if mirror is not None:
                conj_err = max(conj_err, max(abs(x - y.conjugate()) for x, y in zip(cf, mirror)))
        checks.append(holds("analytic_cf_conjugate_symmetry", conj_err <= CONJ_TOLERANCE,
                            max_error=conj_err, tolerance=CONJ_TOLERANCE))
        return checks

    def summarize(self, out, scale):
        # a cold set is the intensity build plus the first CF call, each
        # rescaled by the speed samples taken around it
        cold_sets = [scale(*v["intensities"]) + scale(*v["cf"]) for v in out["cold"].values()]
        warm = [scale(t0, d) for t0, d in out["warm"]]
        p50, p90 = quantiles_ms(warm)
        warm_busy = sum(warm)
        layers = {"analytics.renewal_cf.warm_us": (1e3 * p50, "us")}
        for kind, want in (("symmetric", True), ("asymmetric", False)):
            group = [v for name, v in out["cold"].items()
                     if is_symmetric(MODEL_SETS[name]) == want]
            for key, metric in (("intensities", "renewal_intensities"), ("cf", "renewal_cf")):
                times = [scale(*v[key]) for v in group]
                layers[f"analytics.{metric}.cold_s.{kind}"] = (
                    float(np.median(times)) if times else math.nan, "s")
        for flag in self.flag_names:
            layers[f"analytics.flags.{flag}"] = (
                sum(flag in v["flags"] for v in out["cold"].values()), "count")
        ops = len(cold_sets) + len(warm)
        return {
            "attempted": ops,
            "failed": 0,
            # cold sets per second of cold time: one set is the unit result
            # for a new model; warm CF calls are the repeated operation
            "throughput_per_s": len(cold_sets) / sum(cold_sets),
            "op_ms": (p50, p90),
            "named": {
                "analytic.cold_set_s_p50": (float(np.median(cold_sets)), "s"),
                "analytic.cf_evals_per_s": (len(warm) / warm_busy, "1/s"),
                "analytic.cf_ms_p50": (p50, "ms"),
                "analytic.cf_ms_p90": (p90, "ms"),
            },
            "work": {"cold_sets": len(cold_sets), "warm_evals": len(warm)},
            "engine": {"work": ops, "work_unit": "evaluations", "failures": 0},
            "layers": layers,
        }


WORKLOADS = {w.name: w for w in (BookRenewal, BookPath, LimitRenewal, AnalyticSweep)}


def make(name: str, **sizes):
    """Instantiate a workload with its default sizes, overridden by ``sizes``.

    The instance's ``params`` records the sizes and model parameters used.
    """
    cls = WORKLOADS[name]
    unknown = set(sizes) - set(cls.defaults)
    if unknown:
        raise ValueError(f"unknown sizes for {name}: {sorted(unknown)}")
    merged = {**cls.defaults, **sizes}
    workload = cls(**merged)
    workload.params = {**merged, "models": {k: asdict(v) for k, v in workload.models.items()}}
    return workload
