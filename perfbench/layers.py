"""Which keyhole functions the traced run wraps, and the per-layer metrics.

Layers are keyhole's modules. ``presets`` and ``geometry2d`` do no
measurable work on any workload, so they get no metric. Each metric's
comment names the end-to-end metric and workload it should move.
"""

from __future__ import annotations

import numpy as np

from tracer import Target


def _size(i: int, key: str):
    # ``.size`` rather than np.size, which costs microseconds per call
    def elems(args, kwargs):
        return getattr(args[i] if len(args) > i else kwargs[key], "size", 1)
    return elems


def _rows(notes, args, kwargs, result):
    rows = result[0]
    notes["cli.rows"] += len(rows)
    notes["cli.rows_flagged"] += sum(1 for r in rows if r["status"] != "ok")


def _mc_trials(notes, args, kwargs, result):
    cfg = args[0] if args else kwargs["cfg"]
    notes["mc_trials"] += cfg.trials


def _escape_trials(notes, args, kwargs, result):
    notes["escape_trials.trials"] += args[1] if len(args) > 1 else kwargs["trials"]


def _cone(notes, args, kwargs, result):
    c_out = result[0]
    notes["cone.placed"] += c_out.size
    notes["cone.reached"] += int(np.count_nonzero(c_out >= 0))


TARGETS = [
    Target("keyhole.cli", "run_experiment", "cli.run_experiment", observe=_rows),
    Target("keyhole.channel", "make_channel_model", "channel.make_channel_model"),
    Target("keyhole.channel", "pair_connect_prob_exact", "channel.pair_connect_prob_exact",
           kind="count"),
    Target("keyhole.specfun", "fit_exponential_approx", "specfun.fit_exponential_approx"),
    Target("keyhole.specfun", "marcum_q1", "specfun.marcum_q1", kind="count",
           elems=_size(1, "b")),
    Target("keyhole.specfun", "integrate_adaptive", "specfun.integrate_adaptive"),
    Target("keyhole.specfun", "lower_inc_gamma", "specfun.lower_inc_gamma", kind="count"),
    Target("keyhole.mass2d", "mass_numeric", "mass2d.mass_numeric"),
    Target("keyhole.mass2d", "mass_closed_form", "mass2d.mass_closed_form"),
    Target("keyhole.mass2d", "internal_isolation_first_term", "mass2d.internal_first"),
    Target("keyhole.mass2d", "internal_isolation_bridge_term", "mass2d.internal_bridge"),
    Target("keyhole.escape3d", "mass3d_numeric", "escape3d.mass3d_numeric"),
    Target("keyhole.escape3d", "mass3d_closed_form", "escape3d.mass3d_closed_form"),
    Target("keyhole.transport", "transport_mass_case1", "transport.mass_case1"),
    Target("keyhole.transport", "transport_min_path", "transport.min_path", kind="count"),
    Target("keyhole.transport", "averaged_connect_prob", "transport.averaged_connect_prob"),
    Target("keyhole.montecarlo", "link_probability_table", "montecarlo.link_probability_table"),
    Target("keyhole.montecarlo", "run_escape_isolation", "montecarlo.run_escape_isolation",
           observe=_mc_trials),
    Target("keyhole.montecarlo", "run_transport", "montecarlo.run_transport",
           observe=_mc_trials),
    Target("keyhole._kernels", "escape_trials", "kernels.escape_trials",
           observe=_escape_trials),
    Target("keyhole._kernels", "draws_np", "kernels.draws_np", kind="count",
           elems=_size(2, "index")),
    Target("keyhole._kernels", "table_lookup_np", "kernels.table_lookup_np", kind="count",
           elems=_size(2, "b")),
    # private classifiers, read only for the share of nodes inside the cones
    Target("keyhole._kernels", "_classify_np", "kernels.classify", kind="watch",
           observe=_cone),
    Target("keyhole._kernels", "_classify_radial_np", "kernels.classify_radial",
           kind="watch", observe=_cone),
]

# name -> (unit, better); the order is the order of BENCHMARK.json
PER_LAYER = {
    "cli.run_experiment.s": ("s", "lower"),          # rows_per_s, analytic_sweep
    "cli.self_s": ("s", "lower"),                    # rows_per_s, analytic_sweep
    "cli.rows": ("count", "higher"),                 # error_rate, analytic_sweep
    "cli.rows_flagged": ("count", "lower"),          # error_rate, analytic_sweep
    "channel.make_channel_model.calls": ("count", "lower"),   # setup_s
    "channel.make_channel_model.s": ("s", "lower"),           # setup_s
    "channel.pair_connect_prob_exact.calls": ("count", "lower"),  # wall_s, transport_average
    "channel.pair_connect_prob_exact.s": ("s", "lower"),          # wall_s, transport_average
    "specfun.fit_exponential_approx.calls": ("count", "lower"),   # setup_s
    "specfun.fit_exponential_approx.s": ("s", "lower"),           # setup_s
    # wall_s on transport_average; setup_s on the MC workloads
    "specfun.marcum_q1.calls": ("count", "lower"),
    "specfun.marcum_q1.elems": ("count", "lower"),
    "specfun.marcum_q1.s": ("s", "lower"),
    # rows_per_s and wall_s on analytic_sweep; nothing on mc_isolated3d
    "specfun.integrate_adaptive.calls": ("count", "lower"),
    "specfun.integrate_adaptive.s": ("s", "lower"),
    "specfun.lower_inc_gamma.calls": ("count", "lower"),
    "mass2d.mass_numeric.s": ("s", "lower"),         # rows_per_s
    "mass2d.mass_closed_form.s": ("s", "lower"),     # rows_per_s
    "mass2d.internal_first.s": ("s", "lower"),       # wall_s, analytic_sweep
    "mass2d.internal_bridge.s": ("s", "lower"),      # wall_s, analytic_sweep
    "escape3d.mass3d_numeric.s": ("s", "lower"),     # rows_per_s
    "escape3d.mass3d_closed_form.s": ("s", "lower"), # rows_per_s
    "transport.mass_case1.s": ("s", "lower"),        # rows_per_s
    "transport.min_path.calls": ("count", "lower"),  # wall_s, transport_average
    "transport.min_path.s": ("s", "lower"),          # wall_s, transport_average
    "transport.averaged_connect_prob.s": ("s", "lower"),      # wall_s, transport_average
    "montecarlo.link_probability_table.s": ("s", "lower"),    # setup_s
    "montecarlo.run_escape_isolation.s": ("s", "lower"),      # mc_trials_per_s
    "montecarlo.run_transport.s": ("s", "lower"),             # wall_s, transport_average
    # input property: share of placed nodes inside the reflection cones
    "montecarlo.cone_share": ("ratio", "lower"),
    "kernels.escape_trials.ms_per_trial": ("ms", "lower"),    # mc_trials_per_s
    # union-find on mc_joint2d, pair-index build on mc_isolated3d;
    # mc_trials_per_s on both, peak_rss_mb on mc_isolated3d
    "kernels.escape_trials.self_s": ("s", "lower"),
    "kernels.draws_np.elems_per_trial": ("count", "lower"),   # mc_trials_per_s, mc_isolated3d
    "kernels.draws_np.s": ("s", "lower"),
    "kernels.table_lookup_np.elems_per_trial": ("count", "lower"),  # mc_trials_per_s, mc_joint2d
    "kernels.table_lookup_np.s": ("s", "lower"),
    "tracing_overhead_s": ("s", "lower"),            # traced minus untraced wall_s
}


def layer_values(totals: dict, notes: dict, tracing_overhead_s: float) -> dict:
    """Per-layer metric values from ``Tracer.reduce`` totals and tracer notes."""
    def get(name, key):
        return totals.get(name, {}).get(key, 0)

    def per(num, den):
        return num / den if den else 0.0

    values = {}
    for metric in PER_LAYER:
        layer, _, key = metric.rpartition(".")
        if key in ("s", "calls", "elems"):
            values[metric] = get(layer, key)
    trials = notes.get("mc_trials", 0)
    esc_trials = notes.get("escape_trials.trials", 0)
    values.update({
        "cli.self_s": get("cli.run_experiment", "self_s"),
        "cli.rows": notes.get("cli.rows", 0),
        "cli.rows_flagged": notes.get("cli.rows_flagged", 0),
        "montecarlo.cone_share": per(notes.get("cone.reached", 0), notes.get("cone.placed", 0)),
        "kernels.escape_trials.ms_per_trial": per(1e3 * get("kernels.escape_trials", "s"),
                                                  esc_trials),
        "kernels.escape_trials.self_s": get("kernels.escape_trials", "self_s"),
        "kernels.draws_np.elems_per_trial": per(get("kernels.draws_np", "elems"), trials),
        "kernels.table_lookup_np.elems_per_trial": per(get("kernels.table_lookup_np", "elems"),
                                                       trials),
        "tracing_overhead_s": tracing_overhead_s,
    })
    return {name: values[name] for name in PER_LAYER}
