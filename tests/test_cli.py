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
    # the base width is pinned bit for bit; the Gauss-Legendre mass is within
    # 1 ulp of an adaptive tol=1e-13 evaluation (1.6888243900495008), and the
    # expansion 2.4e-16 from a 40-digit one (1.66879547811955404)
    assert rows[0]["mass_closed"] == 1.6687954781195544
    assert rows[0]["mass_quadrature"] == 1.6888243900495006
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
