"""The command line's output, byte for byte, against the golden manifest
(see `tests/golden/capture.py`, which rewrites it)."""

import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parent / "golden" / "capture.py"
_SPEC = importlib.util.spec_from_file_location("golden_capture", _PATH)
capture = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(capture)


def test_outputs_equal_the_manifest(monkeypatch):
    monkeypatch.delenv("UMBILIC_SEED", raising=False)
    manifest = json.loads(capture.MANIFEST.read_text())
    here = capture.provenance()
    # the last bits of the numbers depend on the versions: a manifest
    # from other versions proves nothing either way
    assert manifest["provenance"] == here, (
        f"manifest captured under {manifest['provenance']}, this run is "
        f"under {here}; rerun tests/golden/capture.py on the parent commit")
    assert [c["argv"] for c in manifest["commands"]] == capture.commands()
    changed = [" ".join(c["argv"]) for c in manifest["commands"]
               if capture.entry(c["argv"]) != c]
    # every changed command by name, which pytest's truncated diff hides
    assert not changed, "\n".join(
        [f"{len(changed)} commands changed output:"] + changed)
