import importlib.util
import json
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "parity", Path(__file__).resolve().parents[1] / "tools" / "parity.py")
parity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(parity)


def test_compare_prints_each_differing_key_with_both_values(tmp_path, capsys):
    a = {"transport": {"hex": "0x1.4p-1", "counts": [1, 2]}, "only_a": 3}
    b = {"transport": {"hex": "0x1.4p-1", "counts": [1, 4]}, "only_b": {"n": 5}}
    paths = []
    for name, record in (("a.json", a), ("b.json", b)):
        paths.append(str(tmp_path / name))
        Path(paths[-1]).write_text(json.dumps(record), encoding="utf-8")
    assert parity.main(["--compare", *paths]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "only_a: 3 != <missing>",
        "only_b.n: <missing> != 5",
        "transport.counts: [1, 2] != [1, 4]",
    ]
    assert parity.main(["--compare", paths[0], paths[0]]) == 0
    assert capsys.readouterr().out == ""
