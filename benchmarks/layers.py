"""Per-layer metrics derived from a traced run's spans.

Every time and count is per traced round (one variance study or one fit),
so runs of different length compare. Ratios come with their base counts.
The self times of all layers plus `bench.self_s`, the round's own time
outside every layer span, add up to `bench.traced_round_s`.
"""

from __future__ import annotations

import tracing

# (metric, unit, better): the per_layer list of BENCHMARK.json, in order.
PER_LAYER = (
    ("mathcore.stream_words", "count", "lower"),
    ("mathcore.stream_s", "s", "lower"),
    ("mathcore.ppnd_s", "s", "lower"),
    ("mathcore.special_calls", "count", "lower"),
    ("mathcore.special_s", "s", "lower"),
    ("distributions.self_s", "s", "lower"),
    ("rejection.bank_lookup_s", "s", "lower"),
    ("rejection.bank_builds", "count", "lower"),
    ("rejection.bank_build_s", "s", "lower"),
    ("rejection.bank_cache_lookups", "count", "lower"),
    ("rejection.bank_cache_hit_ratio", "ratio", "higher"),
    ("rejection.bank_cache_entries", "count", "lower"),
    ("rejection.draw_s", "s", "lower"),
    ("rejection.accepted", "count", "higher"),
    ("rejection.trials", "count", "lower"),
    ("rejection.accept_rate", "ratio", "higher"),
    ("estimators.estimates", "count", "higher"),
    ("estimators.estimate_self_s", "s", "lower"),
    ("estimators.profile_self_s", "s", "lower"),
    ("estimators.elbo_evals", "count", "lower"),
    ("estimators.elbo_self_s", "s", "lower"),
    ("estimators.entropy_cache_lookups", "count", "lower"),
    ("estimators.entropy_cache_hit_ratio", "ratio", "higher"),
    ("estimators.entropy_cache_entries", "count", "lower"),
    ("estimators.score_cache_lookups", "count", "lower"),
    ("estimators.score_cache_hit_ratio", "ratio", "higher"),
    ("models.calls", "count", "lower"),
    ("models.log_joint_s", "s", "lower"),
    ("models.grad_latents_s", "s", "lower"),
    ("models.log_joint_batch_s", "s", "lower"),
    ("engine.iterations", "count", "higher"),
    ("engine.failed_iterations", "count", "lower"),
    ("engine.step_s", "s", "lower"),
    ("engine.self_s", "s", "lower"),
    ("bench.self_s", "s", "lower"),
    ("bench.spans", "count", "lower"),
    ("bench.traced_round_s", "s", "lower"),
    ("bench.untraced_round_s", "s", "lower"),
    ("bench.trace_overhead", "ratio", "lower"),
)

# self-time metric -> the span names whose self time it sums
SELF_TIMES = {
    "mathcore.stream_s": ("mathcore.stream",),
    "mathcore.ppnd_s": ("mathcore.ppnd",),
    "mathcore.special_s": ("mathcore.special",),
    "distributions.self_s": ("distributions.call",),
    "rejection.bank_lookup_s": ("rejection.make_bank",),
    "rejection.bank_build_s": ("rejection.bank_build",),
    "rejection.draw_s": ("rejection.draw",),
    "estimators.estimate_self_s": ("estimators.estimate",),
    "estimators.profile_self_s": ("estimators.variance_profile",),
    "estimators.elbo_self_s": ("estimators.elbo",),
    "models.log_joint_s": ("models.log_joint",),
    "models.grad_latents_s": ("models.grad_latents",),
    "models.log_joint_batch_s": ("models.log_joint_batch",),
    "engine.step_s": ("engine.step",),
    "engine.self_s": ("engine.run_rsvi",),
}

# metric prefix -> (module, lru_cache attribute) of the theta-keyed caches
CACHES = {
    "rejection.bank_cache": ("rejection", "_bank_cached"),
    "estimators.entropy_cache": ("estimators", "_entropy_parts_cached"),
    "estimators.score_cache": ("estimators", "_score_consts_cached"),
}


def cache_counts() -> dict:
    """(hits, misses, entries) of each cache; zeros for a cache that is gone."""
    import importlib

    out = {}
    for key, (module, attr) in CACHES.items():
        fn = getattr(importlib.import_module(f"rsvi.{module}"), attr, None)
        info = fn.cache_info() if hasattr(fn, "cache_info") else None
        out[key] = (info.hits, info.misses, info.currsize) if info else (0, 0, 0)
    return out


def layer_metrics(arrs, n_rounds, hits_misses, caches_now, *, iterations, failed_iterations,
                  traced_wall, untraced_wall) -> dict:
    """Every PER_LAYER metric, per round, from the spans of n_rounds traced rounds.

    hits_misses holds each cache's hits and misses during the traced
    rounds; caches_now its (hits, misses, entries) at the end. The wall
    times are the sums over the traced and the untraced rounds, which are
    equal in number.
    """
    selfs = tracing.by_name(arrs, tracing.self_times(arrs))
    a = tracing.by_name(arrs, arrs["a"])
    b = tracing.by_name(arrs, arrs["b"])

    def total(table, span):
        return table.get(span, (0.0, 0))[0]

    def calls(*spans):
        return sum(selfs.get(s, (0.0, 0))[1] for s in spans)

    v = {}
    for metric, spans in SELF_TIMES.items():
        v[metric] = sum(total(selfs, s) for s in spans) / n_rounds
    layer_s = sum(v.values())
    v["mathcore.stream_words"] = total(a, "mathcore.stream") / n_rounds
    v["mathcore.special_calls"] = calls("mathcore.special") / n_rounds
    v["rejection.bank_builds"] = calls("rejection.bank_build") / n_rounds
    accepted, trials = total(a, "rejection.draw"), total(b, "rejection.draw")
    v["rejection.accepted"] = accepted / n_rounds
    v["rejection.trials"] = trials / n_rounds
    v["rejection.accept_rate"] = accepted / trials if trials else 0.0
    v["estimators.estimates"] = calls("estimators.estimate") / n_rounds
    v["estimators.elbo_evals"] = calls("estimators.elbo") / n_rounds
    v["models.calls"] = calls("models.log_joint", "models.grad_latents", "models.log_joint_batch") / n_rounds
    for key in CACHES:
        hits, misses = hits_misses[key]
        lookups = hits + misses
        v[f"{key}_lookups"] = lookups / n_rounds
        v[f"{key}_hit_ratio"] = hits / lookups if lookups else 0.0
        v[f"{key}_entries"] = caches_now[key][2]
    v["engine.iterations"] = iterations / n_rounds
    v["engine.failed_iterations"] = failed_iterations / n_rounds
    v["bench.traced_round_s"] = traced_wall / n_rounds
    v["bench.untraced_round_s"] = untraced_wall / n_rounds
    v["bench.self_s"] = v["bench.traced_round_s"] - layer_s
    v["bench.spans"] = arrs["name"].size / n_rounds
    v["bench.trace_overhead"] = traced_wall / untraced_wall
    units = {name: unit for name, unit, _ in PER_LAYER}
    return {name: {"value": float(v[name]), "unit": units[name]} for name, _, _ in PER_LAYER}
