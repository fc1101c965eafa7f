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
        'simulate/breaking.json': 'f751b1bcf302c110f0bd36f7e5c9c3dc9169ee6229c501de54020b431d106ddb',
        'simulate/diagnostics.csv': '90d53b43db5208427ab73628ea46f1edeb3768f1566b20958262e1cca9aaa594',
        'simulate/manifest.json': '9e48f7316eda2b67993c95fc1617b544715ecf8bf045cc622823570d695083c1',
        'simulate/residuals.json': 'febe31093ee96bed8d632ff5103e80c308f914e19c8af359d0f0a9b5a2669090',
        'simulate/symmetry.json': '60c6a3039e0be0c7e54ce0fc9996cba512ed4d43de33dcf00add08433494abcd',
        'simulate/t=0.0.csv': '6ef248a45aac4bee66d2e2cdb49eb619f6b82454b83063415663a370877e4d13',
        'simulate/t=0.25.csv': '1f1c3908ebc4fae748fd12f91af309ae0f5d86948320e3b62ba4656b2eae85a1',
        'simulate/t=0.5.csv': '08044e45980195a534cb06b7570e80f6d7fe2f61506a1b93a53529e5060382cb',
        'simulate/t=0.75.csv': '1ee6d986e13666eb679a6232c06fc9c6642169b6a90953a25e2171ee0bd79f95',
        'simulate/t=1.0.csv': '40970f9a8c18197304c7dde7ab55f4615d59489edda390a4d9fb99c5f0c8bcbc',
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
