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
        'cusped/profile.csv': '07aae11006dcb04e0efcd8156002d0b849daaafbcecab9660daf78abba2dad40',
        'cusped/profile.json': 'c0b3f4d163b797a5f255fd4ad1a60100fa575b19583f3d25df0ca667de122245',
        'cusped/profile_residuals.json': '1e7cec5b91436943518799303e7f14d8d0f5895328c373e8a68061fc22baa5e6',
        'peaked/profile.csv': '14a2c6458386a78375a681d9b1231fd34ab480ce6e0790dbab00761975cc1df5',
        'peaked/profile.json': '7601cf766c6e7309da71017d02e3a0f059a81d09ed1a5b68942121f706aa7079',
        'peaked/profile_residuals.json': 'a571b5e458db6d279fa8b561f8e65af3d5d281437b56efd7b147d52350bcb6d7',
        'periodic/profile.csv': '61d275aca673581b58b468e71c9c430c0697ed4b1d87341188b8809862a624bd',
        'periodic/profile.json': 'e9352884d02b24cf686a74a529cc5af65f677ca75ceffd89afcf714ba7f76501',
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
        'solitary/profile.csv': '5d8ab4b0c233650d5aa3a71eef89e0f911e0a5ee6afae86ed699472e7a37ae17',
        'solitary/profile.json': '7f6ee6f8261f7abce4e8f940a438fcc5995046385400b018845145f4ad174691',
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
