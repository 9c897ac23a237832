import numpy as np

from opentasep import textio
from opentasep.rng import stream


def _cells(path):
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


def test_float_cells_round_trip(tmp_path):
    rng = stream(99, 0)
    vals = np.concatenate([
        rng.normal(size=200),
        rng.uniform(-1e300, 1e300, size=50),
        [0.0, 1.0, -1.0, 1e-308, np.pi],
    ])
    path = tmp_path / "f.csv"
    textio.write_csv(path, ["v"], ([v] for v in vals.tolist()))
    cells = [float(row[0]) for row in _cells(path)]
    assert len(cells) == vals.size
    for got, want in zip(cells, vals):
        assert got == want


def test_numpy_scalars_and_ints(tmp_path):
    path = tmp_path / "n.csv"
    row = np.array([0.1]).tolist() + np.array([7], dtype=np.int64).tolist() + [3]
    extremes = [1e16, 1e-05, -0.0, 5e-324, "0101"]
    textio.write_csv(path, ["x", "k", "i"], [row, extremes])
    assert _cells(path) == [["0.1", "7", "3"], ["1e+16", "1e-05", "-0.0", "5e-324", "0101"]]


def test_write_csv_lf_and_header(tmp_path):
    path = tmp_path / "t.csv"
    textio.write_csv(path, ["x", "y"], [(1, 0.5), (2, 0.25)])
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.decode().splitlines()[0] == "x,y"
