"""The CSV layer: bytes equal to a per-value formatter, exact round trips, digests."""

import hashlib
import json

import numpy as np
import pytest

from mase.errors import ConfigError
from mase.evolution import SolverConfig, evolve
from mase.grid import Field, Grid, State
from mase.storage import read_columns_csv, write_columns_csv, write_json, write_trajectory

SPECIAL = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -2.5e-310, 2.2250738585072014e-308,
           1e300, -1e300, 1e-300, -1e-300, 1.0, -1.0 / 3.0, 123456789012345.0, 0.1]


def per_value_csv(header, columns) -> bytes:
    """Reference: one "%.12g" call per value, rows joined by newlines."""
    lines = [",".join(header)]
    lines.extend(",".join("%.12g" % float(v) for v in row) for row in zip(*columns))
    return ("\n".join(lines) + "\n").encode()


def same_bits(a, b) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def check_round_trip(path, header, columns):
    digest = write_columns_csv(path, header, columns)
    raw = path.read_bytes()
    assert raw == per_value_csv(header, columns)
    assert digest == hashlib.sha256(raw).hexdigest()
    back = read_columns_csv(path)
    assert list(back) == header
    for name, col in zip(header, columns):
        assert same_bits(back[name], [float("%.12g" % float(v)) for v in col])


def _columns(ncols: int, kind: str):
    rng = np.random.default_rng(ncols)
    if kind == "special":
        return [np.roll(np.array(SPECIAL), i) for i in range(ncols)]
    if kind == "one_row":
        return [np.array([SPECIAL[3 * i + 1]]) for i in range(ncols)]
    if kind == "int":
        return [np.arange(-3, 9, dtype=np.int64) * 10 ** (3 * i) for i in range(ncols)]
    if kind == "python_int":
        return [[2**53 + 1, -7, 0, 10**20] for _ in range(ncols)]
    return [rng.standard_normal(50) * 10.0 ** rng.integers(-300, 300, 50) for _ in range(ncols)]


@pytest.mark.parametrize("kind", ["special", "one_row", "int", "python_int", "random"])
@pytest.mark.parametrize("ncols", [1, 2, 3, 4])
def test_write_matches_per_value_formatter_and_reads_back_exactly(tmp_path, ncols, kind):
    header = ["x", "u", "mean", "sup_norm"][:ncols]
    check_round_trip(tmp_path / "t.csv", header, _columns(ncols, kind))


def test_header_only_file_has_empty_columns(tmp_path):
    path = tmp_path / "empty.csv"
    check_round_trip(path, ["x", "u"], [np.array([]), np.array([])])
    assert path.read_text() == "x,u\n"


def test_read_accepts_crlf_and_missing_trailing_newline(tmp_path):
    path = tmp_path / "crlf.csv"
    path.write_bytes(b"x,u\r\n0,0.5\r\n1,-2e-3\r\n")
    cols = read_columns_csv(path)
    path.write_bytes(b"x,u\n0,0.5\n1,-2e-3")
    assert same_bits(read_columns_csv(path)["u"], cols["u"])
    assert same_bits(cols["x"], [0.0, 1.0]) and same_bits(cols["u"], [0.5, -2e-3])


@pytest.mark.parametrize(
    "text, require",
    [
        ("x,u\n0,1\n1,abc\n", ()),
        ("x,u\n0,1\n1\n2,3\n", ()),
        ("x,u\n0,1\n1,2,3\n", ()),
        ("x,u\n0,1\n1\n2,3,4\n", ()),
        ("x,u\n0,1,2\n1,2,3\n", ()),
        ("x,v\n0,1\n1,2\n", ("x", "u")),
        (None, ()),
    ],
    ids=["non-numeric", "short-row", "long-row", "short-and-long-rows",
         "rows-wider-than-header", "required-column-missing", "no-such-file"],
)
def test_read_rejects_malformed_csv_as_config_error(tmp_path, text, require):
    path = tmp_path / "bad.csv"
    if text is not None:
        path.write_text(text)
    with pytest.raises(ConfigError):
        read_columns_csv(path, require=require)


def test_manifest_digests_are_the_bytes_on_disk(tmp_path):
    grid = Grid(64, 20.0)
    u0 = Field(grid, 0.05 * np.exp(-((grid.points - 10.0) ** 2) / 4.0))
    traj = evolve([State(0.0, u0)], SolverConfig(t_end=0.5, snapshot_interval=0.125))[0]
    extra = {"breaking.json": write_json(tmp_path / "breaking.json", {"detected": False})}
    manifest = write_trajectory(tmp_path, traj, {}, extra_outputs=extra)
    listed = json.loads((tmp_path / "manifest.json").read_text())["outputs"]
    assert listed == manifest["outputs"]
    assert len(listed) == len(traj.snapshots) + 2
    for entry in manifest["outputs"]:
        digest = hashlib.sha256((tmp_path / entry["path"]).read_bytes()).hexdigest()
        assert entry["sha256"] == digest


def test_round_trip_property(tmp_path_factory):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    floats = st.floats(allow_nan=True, allow_infinity=True) | st.integers(-2**62, 2**62)

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(st.integers(1, 4).flatmap(
        lambda ncols: st.lists(st.lists(floats, min_size=ncols, max_size=ncols),
                               min_size=1, max_size=20)))
    def round_trip(rows):
        columns = [[r[i] for r in rows] for i in range(len(rows[0]))]
        header = [f"c{i}" for i in range(len(columns))]
        check_round_trip(tmp_path_factory.mktemp("prop") / "p.csv", header, columns)

    round_trip()
