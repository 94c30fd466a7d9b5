"""The bytes of every ``synth`` file, pinned by sha256.

For each map kind, seed 0, n=3 and K of 6 and 7, ``synth`` writes a map,
scenarios and three prediction files. Their digests were recorded before
``io.write_json`` stopped calling ``json.dump``, so the writer, the map and
scenario generators and the toy predictors must all keep their bytes.

Re-record only for a stated change of a fixture's content:

    PYTHONPATH=src python tests/test_fixture_bytes.py --record
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from criteria.cli import EXIT_OK, main

DIGESTS = Path(__file__).parent / "data" / "synth_digests.json"
KINDS = ("STRAIGHT", "T_INTERSECTION", "CROSSROADS")
MODES = (6, 7)


def synth_digests(root: Path) -> dict[str, str]:
    """The sha256 of every file ``synth`` writes under ``root``, keyed by
    ``KIND/K/file``."""
    out = {}
    for kind in KINDS:
        for k in MODES:
            data = root / kind / str(k)
            assert main(["synth", "--kind", kind, "--n", "3", "--seed", "0",
                         "--modes", str(k), "--out", str(data)]) == EXIT_OK
            for path in sorted(data.iterdir()):
                out[f"{kind}/{k}/{path.name}"] = hashlib.sha256(
                    path.read_bytes()).hexdigest()
    return out


def test_synth_files_match_recorded_digests(tmp_path):
    assert synth_digests(tmp_path) == json.loads(DIGESTS.read_text())


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as tmp:
        doc = synth_digests(Path(tmp))
    DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")
