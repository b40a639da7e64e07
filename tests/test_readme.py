"""The README's library quickstart runs as written against the package."""

import re
from pathlib import Path

import numpy as np

from oracles import gbm_ohlc_arrays

README = Path(__file__).resolve().parent.parent / "README.md"
ASSETS = ("CL", "ES", "NG")


def quickstart() -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index("## Library quickstart")
    return re.search(r"```python\n(.*?)```", text[start:], re.S).group(1)


def test_readme_quickstart_runs(tmp_path, monkeypatch, capsys):
    data = tmp_path / "data"
    data.mkdir()
    dates = np.arange(np.datetime64("2015-01-05"), np.datetime64("2015-01-05") + 200)
    for seed, asset in enumerate(ASSETS):
        o, h, l, c = gbm_ohlc_arrays(len(dates), 0.2 + 0.1 * seed, seed)
        rows = [f"{d},{row[0]!r},{row[1]!r},{row[2]!r},{row[3]!r}"
                for d, row in zip(dates, np.column_stack([o, h, l, c]).tolist())]
        (data / f"{asset}.csv").write_text("\n".join(["date,open,high,low,close", *rows]) + "\n")
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(quickstart(), str(README), "exec"), namespace)
    assert namespace["panel"].assets == ASSETS
    assert namespace["path"].shape == (21, len(ASSETS))  # as its comment says
    band = namespace["band"]
    assert band.point.shape == (1, 21, len(ASSETS))
    assert np.all(band.lower <= band.upper)
    assert capsys.readouterr().out.strip()
