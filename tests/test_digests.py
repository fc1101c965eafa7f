"""Committed output digests: byte identity of fixed runs as a check.

The sha256 of every file the fixed cases write (run.log excepted, it holds
wall-clock metadata) is pinned per numpy version and machine: the bytes
depend on pocketfft and libm, so any other platform skips.  A change that
moves output bytes regenerates the table, with

    PYTHONPATH=src python tests/test_digests.py

and says why.
"""

import json
import platform
import tempfile
from pathlib import Path

import numpy as np
import pytest
from oracles import sha256_file

from mase.cli import main, run_tw

TW_CASES = {
    "solitary": {"speed": 1.2},
    "periodic": {"speed": 1.2, "energy": -1.580e-4, "wave": "periodic"},
    "peaked": {"speed": -3.0, "integration_constant": -1.0, "wave": "peaked"},
    "cusped": {"speed": -3.0},
}
# the acceptance-12 scenario
SIMULATE = {
    "grid": {"n_points": 128, "length": 40.0},
    "initial": {"kind": "gaussian", "amplitude": 0.05, "width": 2.0},
    "solver": {"t_end": 1.0, "snapshot_interval": 0.25},
    "analysis": {"symmetry": True, "weakform": True, "breaking": True},
}

DIGESTS = {
    ('2.4.6', 'x86_64'): {
        'cusped/profile.csv': 'd1f4660f9b36b4b57cf7d6f4d6640c6a7996bc02a8268c5b93a751094de27ba1',
        'cusped/profile.json': '619e2daa7b634f9409b6cbd4e5e11b51c5d59c3717db14c55889b054336395f4',
        'cusped/profile_residuals.json': '1e7cec5b91436943518799303e7f14d8d0f5895328c373e8a68061fc22baa5e6',
        'peaked/profile.csv': 'c04a8437f2ce16be9d763ce55a4df0581d22dec4f76130d0a77dd25e0137c61f',
        'peaked/profile.json': '884c3e692a6f5b1b4d6330e86002875c38d68ede4bacd3170421b9cceffdd00a',
        'peaked/profile_residuals.json': 'a571b5e458db6d279fa8b561f8e65af3d5d281437b56efd7b147d52350bcb6d7',
        'periodic/profile.csv': '7a241c8268473144b586f5bf2f23c806ea5355bbc2df0393bf7c800b54843591',
        'periodic/profile.json': '0809372cf93ee1f6860c4eabcaeebd0ca8ca147852ba38b0cb00e98897a4063b',
        'periodic/profile_residuals.json': '83dc6b78c98e30d1afbea13d746100d5172da0deabcf7fea9bc5746da57b254b',
        'simulate/breaking.json': '4f903fa2b541930249ae82b54db42acdfbf847ad9c77b258d25d6c193615b010',
        'simulate/diagnostics.csv': '555a1f0a7f114d6d4befd16272760b055f311ab6e7a5dd2bb214116ebe5cbd07',
        'simulate/manifest.json': '030229e51164e32a558646ca14abd6d4941601d499b0b1e7ff3f88c20befbf10',
        'simulate/residuals.json': 'e6ca08e704000c19afa326c1d29b700a8a10f3e1c9c7b36873157c3758bea5ef',
        'simulate/symmetry.json': 'ec94a9e19811e7c3a4b52819a948e885a5ec14cef6e56b186d641f6e7c988846',
        'simulate/t=0.0.csv': '84db681941997fd42a50752efe7a99df98586e46fb4112fe1857615c5d58358e',
        'simulate/t=0.25.csv': '70bee8bb4b4b45f5deef594d3dfe83980ac6587d2960cf9384755b613fe1a928',
        'simulate/t=0.5.csv': 'dbdea0182b964fcaf0253c96688c2887c2c157351392c390d7e65c8ac76eadee',
        'simulate/t=0.75.csv': '5a1b42768ddbe054c542060a048707430bcf71c469ae142845db7065fced40dd',
        'simulate/t=1.0.csv': '1555c52a87e20e9c4ecbc912a86e14f4cbf2940483402934fb9bc0223b6d0af0',
        'solitary/profile.csv': '9123fc0d540242764722d4f0350f6f487bc98dd2c51856b8d12570195dead610',
        'solitary/profile.json': '73ec7d88c54888f6f8882c2e93c09beab127cfe09a07d77591aea16a7068e057',
        'solitary/profile_residuals.json': '18fc8a05ff95da4a2a981b2e6d6b5d620ed5c32b7fd6e0874b5aceecc232a147',
    },
}


def output_digests(root: Path) -> dict[str, str]:
    for name, doc in TW_CASES.items():
        run_tw(doc, root / name / "profile")
    cfg = root / "scenario.json"
    cfg.write_text(json.dumps(SIMULATE))
    assert main(["simulate", "--config", str(cfg), "--out", str(root / "simulate")]) == 0
    cfg.unlink()
    return {
        p.relative_to(root).as_posix(): sha256_file(p)
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name != "run.log"
    }


def test_outputs_match_committed_digests(tmp_path):
    key = (np.__version__, platform.machine())
    if key not in DIGESTS:
        pytest.skip(f"no committed digests for numpy {key[0]} on {key[1]}")
    assert output_digests(tmp_path) == DIGESTS[key]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = output_digests(Path(tmp))
    print(f"    {(np.__version__, platform.machine())!r}: {{")
    for name, digest in table.items():
        print(f"        {name!r}: {digest!r},")
    print("    },")
