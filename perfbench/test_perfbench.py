"""Tests of the benchmark itself:  python -m pytest perfbench"""
import json
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_smoke_runs_every_workload_with_checks():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert [r["workload"] for r in lines] == [w["name"] for w in SPEC["workloads"]]
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for r in lines:
        assert r["correct"], r
        assert {name: m["unit"] for name, m in r["metrics"].items()} == units
        # only the domain-5 equivalence instance fails, once per round
        assert r["failed"] == (1 if r["workload"] == "equivalence" else 0), r
        for name in ("ops_per_kref", "op_p50_ref", "setup_s", "time_to_kld_ref"):
            assert r["metrics"][name]["value"] > 0, (r["workload"], name)
    gibbs = lines[-1]["metrics"]
    assert gibbs["sampler.unforced_atom_share.reduced"]["value"] == 16 / 272
    assert gibbs["mln.enumerated_atoms.reduced"]["value"] == 272


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(SPEC["command"] + ["--workload", "asso", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
