import json
import math

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
    geometry = cli._parse_geometry(cfg)
    for w in cfg["sweep"]["values"]:
        point = geometry.swept("w", w)
        assert point.w == w
        assert point.node1[1] == w + 2.0
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
    ("fig9", ["50", "-2"]),             # 3-D needs three coordinates
    ("fig4", ["50", "50", "-2"]),       # 2-D needs two
    ({"scenario": "escape2d", "geometry": {"w": 20}}, ["50", "-2"]),
], ids=["fig9-2d-origin", "fig4-3d-origin", "missing-geometry-keys"])
def test_trace_rejects_bad_input(geometry, origin, tmp_path, capsys):
    if isinstance(geometry, dict):
        path = tmp_path / "geometry.json"
        path.write_text(json.dumps(geometry), encoding="utf-8")
        geometry = str(path)
    argv = ["trace", "--geometry", geometry, "--origin", *origin, "--angle", "0.01"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_trace_transport_leaves_through_the_receiving_gap(capsys):
    # fig13's direct ray from node 0 (15.15, -2) toward node 1 (14.65, 12):
    # in through [15, 15.3] on the lower wall, out through [14.5, 14.8] on
    # the upper one
    cfg = presets.get_preset("fig13")["geometry"]
    argv = ["trace", "--geometry", "fig13", "--origin", "15.15", "-2",
            "--angle", repr(math.atan2(-0.5, 14.0))]
    assert cli.main(argv) == 0
    path = json.loads(capsys.readouterr().out)
    assert (path["stopped"], path["reflections"]) == ("escaped", 0)
    x_in, y_in = path["points"][1]
    x_out, y_out = path["points"][-1]
    assert y_in == pytest.approx(0.0, abs=1e-12) and cfg["x_l1"] <= x_in <= cfg["x_l2"]
    assert y_out == cfg["w"] and cfg["x_u1"] <= x_out <= cfg["x_u2"]


def test_trace_respects_reflection_budget(capsys):
    argv = ["trace", "--geometry", "fig4", "--origin", "50", "-2", "--angle", "0.01",
            "--max-reflections", "3"]
    assert cli.main(argv) == 0
    path = json.loads(capsys.readouterr().out)
    assert path["reflections"] <= 3
    assert len(path["points"][0]) == 2


def same_side_config():
    cfg = presets.get_preset("fig13")
    cfg["geometry"] = {"w": 10.0, "L": 100.0, "case": "same_side",
                       "x_l1": 14.0, "x_l2": 15.0, "x_l3": 17.0, "x_l4": 18.0,
                       "node0": [14.5, -2.0], "node1": [17.5, -2.0]}
    cfg["sweep"] = {"parameter": "eps", "values": [0.5, 1.0]}
    return cfg


def test_same_side_eps_sweep_resizes_receiving_gap(tmp_path):
    cfg = same_side_config()
    point = cli._parse_geometry(cfg).swept("eps", 0.5)
    assert (point.x_l2, point.x_l4, point.node0[0], point.node1[0]) == (
        14.5, 17.5, 14.25, 17.25)
    rows, _ = cli.run_experiment(cfg, tmp_path / "same_side.csv")
    assert [r["status"] for r in rows] == ["ok", "ok"]
    assert rows[0]["mass_quadrature"] != rows[1]["mass_quadrature"]
    for row in rows:
        # the same-side closed form reaches the CSV next to the quadrature
        assert math.isfinite(row["mass_closed"])
        assert row["mass_closed"] == pytest.approx(row["mass_quadrature"], rel=0.05)


@pytest.mark.parametrize("name, param", [("fig4", "z0"), ("fig9", "eps"),
                                         ("fig14", "gap_radius")])
def test_sweep_parameter_the_scenario_lacks_is_rejected(name, param, tmp_path, capsys):
    cfg = presets.get_preset(name)
    cfg["mc"]["enabled"] = False
    cfg["sweep"] = {"parameter": param, "values": [-1.0, -3.0]}
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert cli.main(["run", str(path), "--output", str(tmp_path / "out.csv")]) == 2
    assert capsys.readouterr().err.startswith("config error: sweep.parameter")
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("edit, message", [
    ("missing", "config error: geometry:"), ("unknown", "config error: geometry:"),
    ("channel", "config error: config key missing: K"),
    ("mc", "config error: config key missing: trials"),
], ids=["missing", "unknown", "channel", "mc"])
def test_bad_config_key_is_a_config_error_before_any_row(edit, message, tmp_path, capsys):
    cfg = presets.get_preset("fig5")
    if edit == "missing":
        del cfg["geometry"]["x0"]
    elif edit == "unknown":
        cfg["geometry"]["z0"] = -2.0
    elif edit == "channel":
        del cfg["channel"]["K"]
    else:
        cfg["mc"] = {"enabled": True, "seed": 1}
    path = tmp_path / "fig5.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert cli.main(["run", str(path), "--output", str(tmp_path / "out.csv")]) == 2
    assert capsys.readouterr().err.startswith(message)
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("rho", [-0.1, math.nan, math.inf, "0.1"])
def test_invalid_rho_is_a_config_error_before_any_row(rho, tmp_path):
    # a negative rho used to print an isolation above 1 (36.42) with status ok
    cfg = presets.get_preset("fig4")
    cfg["mc"]["enabled"] = False
    cfg["rho"] = rho
    with pytest.raises(cli.ConfigError, match="rho must be a finite number >= 0"):
        cli.run_experiment(cfg, tmp_path / "out.csv")
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("field, value", [
    ("eta", math.nan), ("eta", math.inf), ("C", 2.5), ("beta", 0.0),
])
def test_invalid_channel_is_a_config_error_before_any_row(field, value, tmp_path, capsys):
    # fig4 with a NaN eta or C = 2.5 used to write 11 error rows and exit 0
    cfg = presets.get_preset("fig4")
    cfg["mc"]["enabled"] = False
    cfg["channel"][field] = value
    path = tmp_path / "fig4.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert cli.main(["run", str(path), "--output", str(tmp_path / "out.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: channel:") and field in err
    assert not (tmp_path / "out.csv").exists()


def test_swept_alpha_is_checked_row_by_row(tmp_path):
    cfg = presets.get_preset("fig4")
    cfg["mc"]["enabled"] = False
    cfg["channel"]["alpha"] = 7.0            # the sweep replaces it
    cfg["sweep"]["values"] = [0.5, 1.5]
    rows, _ = cli.run_experiment(cfg, tmp_path / "fig4.csv")
    assert rows[0]["status"] == "ok"
    assert rows[1]["status"] == "error: alpha must lie in [0, 1]"


def test_geometry_invalid_at_one_sweep_value_is_an_error_row(tmp_path):
    cfg = presets.get_preset("fig5")
    cfg["sweep"]["values"] = [-1.0, 0.5]     # node 0 above the wall at y0 = 0.5
    rows, _ = cli.run_experiment(cfg, tmp_path / "fig5.csv")
    assert rows[0]["status"] == "ok"
    assert rows[1]["status"].startswith("error: the external node must sit below")


def test_off_axis_row_keeps_its_quadrature_and_mc(tmp_path):
    # the closed form assumes node 0 on the gap axis; the row stands without it
    cfg = presets.get_preset("fig9")
    cfg["sweep"] = {"parameter": "y0", "values": [49.95, 50.0]}
    cfg["mc"]["trials"] = 500
    off, on = cli.run_experiment(cfg, tmp_path / "fig9.csv")[0]
    assert math.isnan(off["mass_closed"])
    assert off["status"] == "no closed form: the closed form assumes a node on the gap axis"
    assert off["mass_quadrature"] == pytest.approx(on["mass_quadrature"], rel=0.01)
    for row in (off, on):
        p = row["isolation_analytic"]
        assert p == pytest.approx(math.exp(-cfg["rho"] * row["mass_quadrature"]))
        assert abs(row["mc_p_hat"] - p) <= 4.0 * math.sqrt(p * (1.0 - p) / 500)
    assert on["status"] == "ok"


@pytest.mark.parametrize("name", ["fig4", "fig9", "fig13"])
def test_layout_rejects_a_parameter_it_does_not_read(name):
    geometry = cli._parse_geometry(presets.get_preset(name))
    with pytest.raises(ValueError, match="no sweep parameter 'L'"):
        geometry.swept("L", 50.0)
