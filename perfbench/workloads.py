"""The benchmark's workloads.

Every workload is one process with one caller issuing calls back to back (a
closed loop with one client). ``setup`` builds what a user builds once per
process: the channel models with their surrogate fits and, for Monte Carlo
workloads, the Marcum link table. ``pre_run`` does untimed work before the
first round, and ``run_round`` does the workload's fixed work once and checks
its outputs. The workload seed sets every Monte Carlo seed.

Every call into keyhole goes through a module attribute (``cli.run_experiment``
rather than a name bound at import), so the tracer's wrappers see it.
"""

from __future__ import annotations

import copy
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

from keyhole import channel, cli, mass2d, montecarlo, presets, specfun, transport
from keyhole.geometry2d import Geometry2D
from keyhole.mass2d import ClusterInputs
from keyhole.montecarlo import McConfig
from keyhole.transport import TransportGeometry

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Preset masses and p_fc must stay within this relative tolerance of the
# values recorded at the seed commit (reference.json).
MASS_RTOL = 1e-6
MASS_ATOL = 1e-12
# An MC event count may not sit in a binomial tail (under the analytic
# isolation probability) rarer than a one-sided 5-sigma normal tail.
MC_SIGMAS = 5.0
MC_TAIL = 0.5 * math.erfc(MC_SIGMAS / math.sqrt(2.0))
# averaged_connect_prob against the run_transport estimate.
TRANSPORT_ATOL = 0.01

# Reduced trial counts: the presets' 10k trials would take about 49 min
# (fig4) and 4 min (fig9) on the NumPy backend.
JOINT2D_TRIALS = 24
ISOLATED3D_TRIALS = 50

# The tier-1 opposite-gap layout and boxes; 12x24 is averaged_connect_prob's
# default order. A lower order changes the answer (6x12 gives 0.624).
TRANSPORT_ORDER = (12, 24)
TRANSPORT_TRIALS = 400_000
TRANSPORT_BOX0 = (15.0, 15.3, -0.6, -0.4)
TRANSPORT_BOX1 = (14.5, 14.8, 12.0, 14.0)
TRANSPORT_CHANNEL = {"K": 4.0, "beta": 1e-3, "alpha": 0.85, "C": 6}


def transport_geometry() -> TransportGeometry:
    return TransportGeometry(w=10.0, L=100.0, case="opposite", x_l1=15.0,
                             x_l2=15.3, x_u1=14.5, x_u2=14.8,
                             node0=(15.15, -0.5), node1=(14.65, 12.0))


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def close(value, ref) -> bool:
    """``value`` matches a seed reference; ``None`` means the seed had none."""
    if ref is None:
        return True
    return math.isfinite(value) and abs(value - ref) <= MASS_RTOL * abs(ref) + MASS_ATOL


def _binom_pmf(i: int, n: int, p: float) -> float:
    if p in (0.0, 1.0):
        return float(i == (0 if p == 0.0 else n))
    return math.exp(math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
                    + i * math.log(p) + (n - i) * math.log1p(-p))


def mc_count_ok(count: int, trials: int, p: float) -> bool:
    """``count`` events in ``trials`` is not in a tail rarer than MC_TAIL."""
    if not (0.0 <= p <= 1.0 and 0 <= count <= trials):
        return False
    pmf = [_binom_pmf(i, trials, p) for i in range(trials + 1)]
    return min(sum(pmf[:count + 1]), sum(pmf[count:])) >= MC_TAIL


@dataclass
class Tally:
    """Operations attempted and failed, and the work done, in one run."""

    attempted: int = 0
    failed: int = 0
    flagged: list = field(default_factory=list)   # flagged rows and exceptions
    wrong: list = field(default_factory=list)     # failed output checks
    ops: int = 0              # units of work done, behind ops_per_s
    rows: int = 0             # preset rows returned by run_experiment
    experiment_s: float = 0.0 # time inside run_experiment
    trials: int = 0           # Monte Carlo trials run

    def op(self, flagged: str = "", wrong=()) -> None:
        self.attempted += 1
        if flagged:
            self.flagged.append(flagged)
        self.wrong.extend(wrong)
        if flagged or wrong:
            self.failed += 1


def _run_preset(tally: Tally, name: str, cfg: dict, out_dir: Path):
    """run_experiment on one config; returns (rows, seconds), rows None if it raised."""
    t0 = time.perf_counter()
    try:
        rows, _ = cli.run_experiment(cfg, out_dir / f"{name}.csv")
    except Exception as exc:  # every expected row counts as failed
        for value in cfg["sweep"]["values"]:
            tally.op(flagged=f"{name} {value}: {type(exc).__name__}: {exc}")
        return None, 0.0
    return rows, time.perf_counter() - t0


def _count_rows(tally: Tally, rows: list, seconds: float) -> None:
    tally.rows += len(rows)
    tally.experiment_s += seconds


def _row_problems(name: str, row: dict, ref: list) -> tuple:
    """(flag, wrong) for one preset row against its seed reference."""
    label = f"{name} {row['sweep_param']}={row['value']}"
    if row["status"] != "ok":
        return f"{label}: {row['status']}", []
    if ref[0] != row["value"]:
        return "", [f"{label}: reference row is for {ref[0]}"]
    wrong = [f"{label}: {key}={row[key]!r}, seed {want!r}"
             for key, want in zip(("mass_closed", "mass_quadrature"), ref[1:])
             if not close(row[key], want)]
    return "", wrong


class AnalyticSweep:
    """All presets with MC off, plus fig4 first-order full connectivity.

    Its ops are preset rows and full-connectivity points.
    """

    def __init__(self, seed: int, tiny: bool, out_dir: Path, reference: dict):
        self.out_dir = out_dir
        self.reference = reference
        self.configs = {}
        for name in presets.preset_names():
            cfg = presets.get_preset(name)
            cfg["mc"]["enabled"] = False
            if tiny:
                cfg["sweep"]["values"] = cfg["sweep"]["values"][:1]
            self.configs[name] = cfg
        fig4 = presets.get_preset("fig4")
        self.fc_alphas = fig4["sweep"]["values"][:1 if tiny else None]
        self.fc_base = fig4
        self.fc_models = []

    def setup(self) -> None:
        for cfg in self.configs.values():
            ch = cfg["channel"]
            channel.make_channel_model(K=ch["K"], beta=ch["beta"], eta=ch["eta"],
                                       alpha=ch["alpha"], C=ch["C"])
            specfun.fit_exponential_approx(ch["K"], "fixed_two")
        ch = self.fc_base["channel"]
        self.fc_models = [
            (alpha, channel.make_channel_model(K=ch["K"], beta=ch["beta"],
                                               eta=ch["eta"], alpha=alpha, C=ch["C"]))
            for alpha in self.fc_alphas]
        geo = self.fc_base["geometry"]
        self.fc_geometry = Geometry2D(sides=self.fc_base["sides"], **geo)
        self.fc_inputs = ClusterInputs(rho=self.fc_base["rho"], V=geo["w"] * geo["L"])

    def run_round(self, tally: Tally) -> None:
        for name, cfg in self.configs.items():
            rows, seconds = _run_preset(tally, name, cfg, self.out_dir)
            if rows is None:
                continue
            _count_rows(tally, rows, seconds)
            tally.ops += len(rows)
            for row, ref in zip(rows, self.reference["presets"][name]):
                tally.op(*_row_problems(name, row, ref))
        for (alpha, model), ref in zip(self.fc_models, self.reference["fig4_full_connectivity"]):
            label = f"full_connectivity alpha={alpha}"
            try:
                fc = mass2d.full_connectivity_first_order(self.fc_geometry, model,
                                                          self.fc_inputs)
            except Exception as exc:
                tally.op(flagged=f"{label}: {type(exc).__name__}: {exc}")
                continue
            tally.ops += 1
            tally.op(wrong=[] if close(fc.p_fc, ref[1])
                     else [f"{label}: p_fc={fc.p_fc!r}, seed {ref[1]!r}"])

    def pre_run(self, tally: Tally) -> None:
        pass


class McPreset:
    """One MC preset through run_experiment at a reduced trial count.

    Its ops are MC trials.
    """

    def __init__(self, preset: str, trials: int, seed: int, tiny: bool, out_dir: Path,
                 reference: dict):
        self.preset = preset
        self.out_dir = out_dir
        self.reference = reference
        cfg = presets.get_preset(preset)
        cfg["mc"]["trials"] = 2 if tiny else trials
        cfg["mc"]["seed"] = seed
        if tiny:
            cfg["sweep"]["values"] = cfg["sweep"]["values"][:1]
        self.cfg = cfg
        self.first_count = None

    def setup(self) -> None:
        ch = self.cfg["channel"]
        model = channel.make_channel_model(K=ch["K"], beta=ch["beta"], eta=ch["eta"],
                                           alpha=ch["alpha"], C=ch["C"])
        montecarlo.link_probability_table(model)

    def pre_run(self, tally: Tally) -> None:
        """The first sweep point alone, untimed. It gives the event count that
        every round's first point must repeat (same seed), and it takes the
        process's first pair-index build, which is slower than later ones,
        out of the timed rounds."""
        cfg = copy.deepcopy(self.cfg)
        cfg["sweep"]["values"] = cfg["sweep"]["values"][:1]
        rows, _ = _run_preset(tally, f"{self.preset}_first", cfg, self.out_dir)
        if rows is not None:
            self._check_rows(tally, rows)

    def run_round(self, tally: Tally) -> None:
        rows, seconds = _run_preset(tally, self.preset, self.cfg, self.out_dir)
        if rows is None:
            return
        _count_rows(tally, rows, seconds)
        trials = self.cfg["mc"]["trials"]
        tally.trials += trials * len(rows)
        tally.ops += trials * len(rows)
        self._check_rows(tally, rows)

    def _check_rows(self, tally: Tally, rows: list) -> None:
        trials = self.cfg["mc"]["trials"]
        for i, (row, ref) in enumerate(zip(rows, self.reference["presets"][self.preset])):
            flag, wrong = _row_problems(self.preset, row, ref)
            if not flag:
                label = f"{self.preset} {row['value']}"
                count = round(row["mc_p_hat"] * trials)
                if not mc_count_ok(count, trials, row["isolation_analytic"]):
                    wrong.append(f"{label}: {count}/{trials} MC events "
                                 f"vs analytic {row['isolation_analytic']!r}")
                if i == 0 and self.first_count is None:
                    self.first_count = count
                elif i == 0 and count != self.first_count:
                    wrong.append(f"{label}: {count} MC events, {self.first_count} "
                                 f"with the same seed before")
            tally.op(flag, wrong)


class TransportAverage:
    """averaged_connect_prob on the opposite-gap boxes, with run_transport as oracle.

    Its ops are the quadrature's node pairs.
    """

    def __init__(self, seed: int, tiny: bool, out_dir: Path, reference: dict):
        self.seed = seed
        self.reference = reference
        self.geometry = transport_geometry()

    def setup(self) -> None:
        self.model = channel.make_channel_model(**TRANSPORT_CHANNEL)

    def run_round(self, tally: Tally) -> None:
        n_outer, n_inner = TRANSPORT_ORDER
        try:
            p_avg = float(transport.averaged_connect_prob(
                self.geometry, self.model, TRANSPORT_BOX0, TRANSPORT_BOX1,
                n_outer=n_outer, n_inner=n_inner))
        except Exception as exc:
            tally.op(flagged=f"averaged_connect_prob: {type(exc).__name__}: {exc}")
            p_avg = math.nan
        else:
            tally.ops += (n_outer * n_inner) ** 2
            ref = self.reference["averaged_connect_prob"]
            tally.op(wrong=[] if close(p_avg, ref)
                     else [f"averaged_connect_prob={p_avg!r}, seed {ref!r}"])
        try:
            est = montecarlo.run_transport(McConfig(
                scenario="transport", geometry=self.geometry, channel=self.model,
                trials=TRANSPORT_TRIALS, seed=self.seed,
                region0=TRANSPORT_BOX0, region1=TRANSPORT_BOX1)).estimate
        except Exception as exc:
            tally.op(flagged=f"run_transport: {type(exc).__name__}: {exc}")
            return
        tally.trials += TRANSPORT_TRIALS
        if math.isnan(p_avg):      # already counted as failed; nothing to compare
            tally.op()
            return
        tally.op(wrong=[] if abs(p_avg - est.p_hat) <= TRANSPORT_ATOL
                 else [f"averaged_connect_prob={p_avg!r} vs run_transport {est.p_hat!r}"])

    def pre_run(self, tally: Tally) -> None:
        pass


WORKLOADS = {
    "analytic_sweep": AnalyticSweep,
    "mc_joint2d": lambda *args: McPreset("fig4", JOINT2D_TRIALS, *args),
    "mc_isolated3d": lambda *args: McPreset("fig9", ISOLATED3D_TRIALS, *args),
    "transport_average": TransportAverage,
}
