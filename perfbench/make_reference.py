"""Regenerate ``reference.json``: the outputs every benchmark run checks.

Run it, from the root of a checkout, only when a change is *meant* to
alter simulated results::

    python3 perfbench/make_reference.py

It runs the sweep grid and the service grid once each with full and with
sampled simulation (about half a minute) and records, per point, the
SHA-256 of the result's canonical JSON and its IPC.  The benchmark itself
never writes this file.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

import grid
import run
import worker


def main() -> int:
    run.use_program()
    from repro.api import Session

    run.WORK.mkdir(exist_ok=True)
    store = tempfile.mkdtemp(prefix="reference-", dir=run.WORK)
    reference = {"sweep": {}, "service": {}}
    try:
        with Session(jobs=1, cache_dir=store) as session:
            for sampled in (False, True):
                for section, spec in (("sweep", worker.sweep_spec(sampled)),
                                      ("service", worker.service_spec())):
                    record = worker.run_grid(session, spec, sampled, None,
                                             False)
                    reference[section]["sampled" if sampled else "full"] = {
                        p["point"]: {"digest": p["digest"], "ipc": p["ipc"]}
                        for p in record["points"]}
    finally:
        shutil.rmtree(store, ignore_errors=True)
    with open(grid.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {grid.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
