"""scripts/bitcheck.py: its manifest is deterministic, and its comparison reads moves."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bitcheck.py"


def _bitcheck():
    spec = importlib.util.spec_from_file_location("bitcheck", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quick_manifest_is_the_same_at_one_and_two_blas_threads(tmp_path):
    # the slice takes every kind at n = 5, 50 and 363 (past the keep cap: the Hermite
    # transform), the edge samples, a small simulate and one measure
    manifests = []
    for threads in ("1", "2"):
        env = dict(os.environ)
        env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), threads))
        out = tmp_path / f"{threads}.txt"
        subprocess.run([sys.executable, str(SCRIPT), "write", str(out), "--quick"], check=True, env=env)
        manifests.append(out.read_text(encoding="utf-8"))
    assert manifests[0] == manifests[1]
    keys = [line.split("\t", 1)[0] for line in manifests[0].splitlines()]
    assert len(keys) == len(set(keys))
    assert "sj/cauchy/n=363/seed=0" in keys and "sj/edge/constant" in keys
    assert "report/simulate/seed=1/study.csv" in keys


def test_compare_prints_each_move_and_counts_changed_exceptions(tmp_path, capsys):
    old, new = tmp_path / "old.txt", tmp_path / "new.txt"
    old.write_text(
        "sj/a\t0x1.0000000000000p+0\nsj/b\t!NoBracket: none\nsj/c\t0x1.8p+0\n"
        "report/x/r.json\tabc\t1,2.0\n",
        encoding="utf-8",
    )
    new.write_text(
        "sj/a\t0x1.0000000000001p+0\nsj/b\t0x1.0p-1\nsj/c\t0x1.8p+0\n"
        "report/x/r.json\tabd\t1,2.5\n",
        encoding="utf-8",
    )
    bitcheck = _bitcheck()
    assert bitcheck.compare(old, old) == 0
    assert bitcheck.compare(old, new) == 1
    out = capsys.readouterr().out
    assert "sj/a: largest relative move 2.22e-16" in out
    assert "sj/b: !NoBracket: none -> 0x1.0p-1" in out
    assert "report/x/r.json: largest relative move 0.2" in out
    assert "sj/c" not in out
    assert "3 of 4 items changed; 1 exceptions changed" in out
