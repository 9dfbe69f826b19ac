"""Golden outputs of the `umbilic` command line, kept as digests.

Each command of `commands()` runs in-process through `cli.main`, with
`UMBILIC_SEED` unset.  Its record is the UTF-8 JSON text of
`[exit code, stdout, stderr]`; `manifest.json` holds, per command, the
argv and the sha256 and byte length of its record, and the provenance
(Python, numpy, BLAS) of the run that wrote it, since the last bits of
the numbers depend on all three.  `tests/test_golden.py` reruns every
command and names each one whose record changed.

A change that alters output on purpose rewrites the manifest in the same
commit, from the root of a checkout:

    PYTHONPATH=src python3 tests/golden/capture.py
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
from pathlib import Path

import numpy as np

MANIFEST = Path(__file__).with_name("manifest.json")


def commands() -> list[list[str]]:
    """The argv of every golden command, in manifest order."""
    from umbilic.catalog import family_ids

    out = [["verify-all", "--seed", s, "--json", "-"]
           for s in ("42", "0", "7", "1", "315")]
    out += [["verify-all", "--tol-zero", t, "--json", "-"]
            for t in ("1e-15", "1e-17")]
    out.append(["verify-all", "--samples", "5", "--tol-zero", "1e-16",
                "--json", "-"])
    out += [["analyze", "--family", f, "--param", f"m={m}", "--json", "-"]
            for f in ("main1-3", "light1-2") for m in (4, 8, 16)]
    out += [["analyze", "--family", f, "--json", "-"] for f in family_ids()]
    out += [["analyze", "--family", f, "--samples", "4", "--seed", "3"]
            for f in family_ids()]
    out += [["analyze", "--family", "S-theta", "--tol-zero", "1e-16"],
            ["analyze", "--family", "lightcone-L", "--tol-zero", "1e-17"],
            ["moduli", "--a", "0,0.001,0.1,1", "--json", "-"],
            ["catalog", "list"]]
    # non-finite jets or residuals, refused
    out += [["analyze", "--family", f, "--param", p]
            for f, p in (("main1-4", "r=1e150"), ("main1-4", "r=1e100"),
                         ("light1-3", "r=1e160"))]
    return out


def entry(argv: list[str]) -> dict:
    """The manifest entry of one command: its argv, and the sha256 and byte
    length of the UTF-8 JSON text of [exit code, stdout, stderr]."""
    from umbilic import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    blob = json.dumps([code, out.getvalue(), err.getvalue()]).encode()
    return {"argv": list(argv), "sha256": hashlib.sha256(blob).hexdigest(),
            "bytes": len(blob)}


def provenance() -> dict:
    """The Python, numpy and BLAS versions of this process."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas}


def main() -> int:
    os.environ.pop("UMBILIC_SEED", None)
    entries = [json.dumps(entry(argv)) for argv in commands()]
    # one command a line, so that a diff of the manifest names commands
    MANIFEST.write_text(f'{{"provenance": {json.dumps(provenance())},\n'
                        f' "commands": [\n  ' + ",\n  ".join(entries)
                        + "\n]}\n")
    print(f"{len(entries)} commands written to {MANIFEST}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
