"""Write golden.json: the stats block `rbpspan solve --algo auto` gives for every pool instance.

Run from the repository root at the commit whose outputs are the reference:

    python3 perfbench/make_golden.py [INSTANCE_SET ...]

Named instance sets are recomputed; the others keep their stored entries.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from run import git_commit, solve_text  # noqa: E402
from workloads import GOLDEN_PATH, INSTANCE_SETS, instance_text, sha256, split_output  # noqa: E402


def golden_entries(iset, workdir: Path, seeds) -> dict:
    entries = {}
    for g in seeds:
        text = instance_text(iset, g)
        rc, out_text = solve_text(text, workdir)
        if rc != 0:
            raise RuntimeError(f"{iset.name} instance {g}: rbpspan solve exited {rc}")
        entries[str(g)] = {"sha256": sha256(text), "stats": split_output(out_text)[1]}
    return entries


def main(names) -> int:
    golden = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    workdir = HERE / "out" / "golden-work"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name in names or [n for n, iset in INSTANCE_SETS.items() if iset.pool]:
            iset = INSTANCE_SETS[name]
            golden[name] = golden_entries(iset, workdir, range(iset.pool + iset.held_out))
            golden.setdefault("commits", {})[name] = git_commit()
            print(f"{name}: {len(golden[name])} instances", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
