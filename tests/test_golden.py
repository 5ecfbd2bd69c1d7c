"""The program's outputs, byte for byte, against tests/golden/manifest.json,
which tests/record_golden.py recorded: on the platform it was recorded on,
every digest must match. Elsewhere the BLAS kernel may move score bits, and
test_kernel_contract.py states what still holds."""

import json

import pytest

from record_golden import MANIFEST, digests, platform_key


def test_outputs_match_the_golden_manifest(tmp_path):
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    here = platform_key()
    differing = [f"{key} is {here.get(key)!r}, recorded {value!r}"
                 for key, value in manifest["platform"].items() if here.get(key) != value]
    if differing:
        pytest.skip("golden digests recorded on another platform: " + "; ".join(differing))
    recorded, found = manifest["digests"], digests(tmp_path)
    moved = sorted(name for name in recorded.keys() | found.keys()
                   if recorded.get(name) != found.get(name))
    assert not moved, f"{len(moved)} of {len(recorded)} outputs differ from the manifest: {moved}"
