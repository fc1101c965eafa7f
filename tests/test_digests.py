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

from mase.cli import main, run_tw
from mase.storage import sha256_file

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
        'cusped/profile.csv': 'ada4ba61fc8f0cf76c026dc418c34de0fb3f5bd4598eecba1ea86862ee753065',
        'cusped/profile.json': '02e8a3b755e71c5fba8481e5821889376b01d78258a3d24a5bc0629920c531e1',
        'cusped/profile_residuals.json': '9cf81d50e876ed408133510441a32487466a7565689fc98b2657d2e8945869ba',
        'peaked/profile.csv': '3fc209ca4e4feed93aab7d48bb07f8904e264fc5faa2ddb33e34cd6d99d87e06',
        'peaked/profile.json': '3bc84557629759aa301d78616761b4309f29ebd00330c446d52a899fbaab7352',
        'peaked/profile_residuals.json': '38b3d502b43072a43a1017e872d2ba10622d732abeb391709d28faac74010055',
        'periodic/profile.csv': '61d275aca673581b58b468e71c9c430c0697ed4b1d87341188b8809862a624bd',
        'periodic/profile.json': 'e9352884d02b24cf686a74a529cc5af65f677ca75ceffd89afcf714ba7f76501',
        'periodic/profile_residuals.json': '83dc6b78c98e30d1afbea13d746100d5172da0deabcf7fea9bc5746da57b254b',
        'simulate/breaking.json': '84723f5e1cad63c5f3136d0e3726e45724ece08368570ca46dbe345774eab7bd',
        'simulate/diagnostics.csv': '882a2754154e91d6a66d2707e7584f8512dc1d89ed3eae3aa80fe8e534677d31',
        'simulate/manifest.json': 'e3919311ea4d6760b9821d862e99ccfe11ec28169cdad56a7745f901e1a3fef1',
        'simulate/residuals.json': '883eb5444c6ef1e3b8fdf3c1acf05c4f3c0037b027e269a96a6172e5a7635965',
        'simulate/symmetry.json': '545553bffc8a16f07d0a0cca1520baaf3dd30c69800d02fc4a0433f03dc86388',
        'simulate/t=0.000000.csv': '6ef248a45aac4bee66d2e2cdb49eb619f6b82454b83063415663a370877e4d13',
        'simulate/t=0.250000.csv': '40fea9446a455cfeb7e8cf8f47cb1ac364717a57ed16c281f69142d6eba73d6c',
        'simulate/t=0.500000.csv': '8a6cf23416f7a3be4b9ac2fe39115debd80cb561fd1615292a16f58fab3917af',
        'simulate/t=0.750000.csv': '5c2e259e96193c6822cb0111663a442228394ba4a8516bffd7be9581abe7bff4',
        'simulate/t=1.000000.csv': '424246bfd320241c0bab6307bec5c934d3cfcb16be02920b782565797184a5e5',
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
