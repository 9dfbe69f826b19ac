"""Capture the `catalog` workload's reference from the current code.

    python3 perfbench/capture_reference.py

Runs `umbilic verify-all --seed S` for each seed in DEFAULT_SEEDS (0-15,
42 and 123) and writes `reference/catalog.json`.  Per family: the record
count, the default parameters, the status, flags, ranks and hull class
that every record of the family shares, and the default-parameter
record's `h_norm` and `rho` when no seed moves them by more than
H_NORM_TOL.  Per seed: the values of every other record, with parameters
stored as the keys that differ from the defaults.  Refuses to write when
a family's class differs between records, because the benchmark could
not then check seeds outside the captured set.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from umbilic import catalog, cli  # noqa: E402

from workloads import (H_NORM_TOL, REFERENCE, call_cli,  # noqa: E402
                       json_tail, record_class, record_values, within)

DEFAULT_SEEDS = list(range(16)) + [42, 123]


def capture(seeds) -> dict:
    families, by_seed, default_rows = {}, {}, {}
    for seed in seeds:
        code, text = call_cli(cli, ["verify-all", "--seed", str(seed),
                                    "--json", "-"])
        if code != 0:
            raise SystemExit(f"verify-all --seed {seed} exited {code}")
        rows, counts = [], {}
        for rec in json_tail(text)["records"]:
            fid = rec["family"]
            counts[fid] = counts.get(fid, 0) + 1
            cls = record_class(rec)
            defaults = catalog.get_family(fid).defaults
            fam = families.setdefault(fid, {"class": cls,
                                            "defaults": defaults})
            if fam["class"] != cls:
                raise SystemExit(f"{fid}: class differs at seed {seed}: "
                                 f"{cls} vs {fam['class']}")
            row = _round(record_values(rec))
            row[1] = {k: v for k, v in row[1].items() if defaults[k] != v}
            if not row[1]:
                default_rows.setdefault(fid, {})[seed] = row
            rows.append(row)
        for fid, n in counts.items():
            families[fid]["count"] = n
        by_seed[str(seed)] = rows
    # default-parameter values that no seed moves beyond the check's
    # tolerance are stored once
    for fid, per_seed in default_rows.items():
        first = per_seed[seeds[0]][2:]
        if all(within(a, b, H_NORM_TOL) for row in per_seed.values()
               for a, b in zip(row[2:], first)):
            families[fid]["values"] = first
            for seed in seeds:
                by_seed[str(seed)].remove(per_seed[seed])
    return {"families": families, "seeds": by_seed}


def _round(row):
    fid, params, h_norm, rho = row
    return [fid, params, *(None if v is None else float(f"{v:.12g}")
                           for v in (h_norm, rho))]


def _dumps(reference) -> str:
    """JSON with one line per family and per seed, for readable diffs."""
    def block(items):
        return ",\n".join(f" {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                           for k, v in items)
    families = sorted(reference["families"].items())
    seeds = sorted(reference["seeds"].items(), key=lambda kv: int(kv[0]))
    return ('{"families": {\n' + block(families) + '\n},\n"seeds": {\n'
            + block(seeds) + "\n}}\n")


def main() -> int:
    reference = capture(DEFAULT_SEEDS)
    REFERENCE.parent.mkdir(exist_ok=True)
    REFERENCE.write_text(_dumps(reference))
    print(f"wrote {REFERENCE} for {len(DEFAULT_SEEDS)} seeds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
