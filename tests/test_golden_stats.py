"""Golden outputs: the edge list and stats block of every solver on seeded batches.

`rbpspan solve --algo ALGO` must print exactly the stored edges and stats block
for each instance of its batch. The data file was written with

    PYTHONPATH=src python tests/test_golden_stats.py --write

Regenerate it only for a change that is meant to alter solver output.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from rbpspan.cli import main
from rbpspan.model import serialize_instance
from util import seeded_instances

DATA = Path(__file__).with_name("golden_stats.json")

_PLANE = dict(count=16, n_min=5, n_max=10, k_max=8, mode="plane", base_seed=1100)
_PLANE_LARGE = dict(count=16, n_min=5, n_max=60, mode="plane", base_seed=1150)

# --algo value -> keyword arguments of the seeded batch it is pinned on
BATCHES = {
    "exact": _PLANE,
    "oracle-forest": _PLANE,
    "oracle-subsets": dict(count=16, n_min=4, n_max=7, max_allowed=22, mode="plane",
                           base_seed=1200),
    "approx-union": _PLANE_LARGE,
    "approx-a": _PLANE_LARGE,
    "line": dict(count=16, n_min=4, n_max=60, mode="line", base_seed=1300),
    "circle": dict(count=24, n_min=4, n_max=60, mode="circle", base_seed=1410),
}


def _solve(algo, text, workdir):
    """(edge lines, stats block) printed by `rbpspan solve --algo algo`."""
    src, out = Path(workdir) / "instance.txt", Path(workdir) / "solution.txt"
    src.write_text(text)
    assert main(["solve", str(src), "--algo", algo, "--out", str(out)]) == 0
    return out.read_text().split("\n\n")


def _entries(algo, workdir):
    for inst in seeded_instances(**BATCHES[algo]):
        text = serialize_instance(inst)
        edges, stats = _solve(algo, text, workdir)
        yield {"sha256": hashlib.sha256(text.encode()).hexdigest(),
               "edges": edges, "stats": stats}


@pytest.mark.parametrize("algo", sorted(BATCHES))
def test_outputs_match_golden(algo, tmp_path):
    golden = json.loads(DATA.read_text())[algo]
    got = list(_entries(algo, tmp_path))
    assert len(got) == len(golden)
    for i, (g, want) in enumerate(zip(got, golden)):
        assert g["sha256"] == want["sha256"], f"{algo} instance {i}: batch changed"
        assert g["edges"] == want["edges"], f"{algo} instance {i}"
        assert g["stats"] == want["stats"], f"{algo} instance {i}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_stats.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        data = {algo: list(_entries(algo, tmp)) for algo in sorted(BATCHES)}
    DATA.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
