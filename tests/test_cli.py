import json

import pytest

from keyhole import cli, presets
from keyhole.specfun import fit_exponential_approx


@pytest.mark.parametrize("name", presets.preset_names())
def test_preset_rows_are_valid_without_mc(name, tmp_path):
    cfg = presets.get_preset(name)
    cfg["mc"]["enabled"] = False
    rows, _ = cli.run_experiment(cfg, tmp_path / f"{name}.csv")
    assert len(rows) == len(cfg["sweep"]["values"])
    assert [r["status"] for r in rows] == ["ok"] * len(rows)


def test_transport_w_sweep_keeps_node1_above_upper_wall(tmp_path):
    cfg = presets.get_preset("fig13")
    for w in cfg["sweep"]["values"]:
        point = cli._apply_sweep(cfg, "w", w)
        assert point["geometry"]["w"] == w
        assert point["geometry"]["node1"][1] == w + 2.0
    rows, _ = cli.run_experiment(cfg, tmp_path / "fig13.csv")
    # the base width is pinned to independent oracles: the expansion to a
    # 40-digit mpmath evaluation of the same regions, and the Gauss-Legendre
    # mass to a 30-digit mpmath quadrature of their exact radial integral.
    # The code is 1.1e-15 and 7.7e-16 from them, so rel=1e-14 keeps a
    # last-bit change from failing the test without any loss of accuracy
    assert rows[0]["mass_closed"] == pytest.approx(1.66879547815680830, rel=1e-14, abs=0.0)
    assert rows[0]["mass_quadrature"] == pytest.approx(1.68882439008775389, rel=1e-14, abs=0.0)
    assert rows[1]["mass_closed"] == pytest.approx(1.72611, rel=1e-5)
    assert rows[1]["mass_quadrature"] == pytest.approx(1.71897, rel=1e-5)
    assert rows[2]["mass_closed"] == pytest.approx(1.63458, rel=1e-5)
    assert rows[2]["mass_quadrature"] == pytest.approx(1.60844, rel=1e-5)


def test_fit_marcum_prints_fit_and_writes_no_file(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("KEYHOLE_OUTPUT_DIR", str(tmp_path))
    assert cli.main(["fit-marcum", "--k", "4"]) == 0
    printed = json.loads(capsys.readouterr().out)
    fit = fit_exponential_approx(4.0, "free")
    assert (printed["nu"], printed["mu"], printed["sup_error"]) == (fit.nu, fit.mu,
                                                                  fit.sup_error)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("geometry, origin", [
    ("fig13", ["15", "-2"]),            # transport has no tracer
    ("fig9", ["50", "-2"]),             # 3-D needs three coordinates
    ("fig4", ["50", "50", "-2"]),       # 2-D needs two
], ids=["transport", "fig9-2d-origin", "fig4-3d-origin"])
def test_trace_rejects_bad_input(geometry, origin, capsys):
    argv = ["trace", "--geometry", geometry, "--origin", *origin, "--angle", "0.01"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_trace_respects_reflection_budget(capsys):
    argv = ["trace", "--geometry", "fig4", "--origin", "50", "-2", "--angle", "0.01",
            "--max-reflections", "3"]
    assert cli.main(argv) == 0
    path = json.loads(capsys.readouterr().out)
    assert path["reflections"] <= 3
    assert len(path["points"][0]) == 2
