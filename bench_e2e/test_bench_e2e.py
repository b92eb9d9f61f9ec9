"""Tests of the benchmark itself: ``pytest bench_e2e`` (< 60 s, --smoke sizes)."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import oracles  # noqa: E402
from agree import EXACT  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_py(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True)


def smoke(tmp_path, *args) -> dict:
    out = tmp_path / "result.json"
    proc = run_py("--smoke", "--out", str(out), *args)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def suite(tmp_path_factory) -> dict:
    return smoke(tmp_path_factory.mktemp("suite"), "--seed", "1")


def test_every_declared_name_is_measured_and_vice_versa(suite):
    assert suite["smoke"] is True
    assert set(suite["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    layers_measured = set()
    for name, got in suite["workloads"].items():
        # every end-to-end metric is really measured on every workload, never 0
        assert set(got["untraced"]["end_to_end"]) == end_to_end
        assert end_to_end <= set(got["untraced"]["measured"]), name
        assert all(m["value"] > 0 for m in got["untraced"]["end_to_end"].values())
        assert set(got["traced"]["per_layer"]) == per_layer
        assert got["untraced"]["attempted"] > 0 and got["untraced"]["fail_frac"] == 0
        layers_measured |= set(got["traced"]["measured"])
    # run.py refuses a measured name BENCHMARK.json does not declare, so this
    # is equality: no declared layer metric is one no workload produces
    assert per_layer <= layers_measured
    for name in end_to_end | per_layer | set(suite["workloads"]):
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name


def test_same_seed_same_counts_other_seed_other_inputs(suite, tmp_path):
    only = "gravity_clumps,disk_collide"
    again = smoke(tmp_path, "--seed", "1", "--only", only)
    other = smoke(tmp_path, "--seed", "2", "--only", only)
    for workload in only.split(","):
        first = suite["workloads"][workload]["traced"]
        for got, same in ((again["workloads"][workload]["traced"], True),
                          (other["workloads"][workload]["traced"], False)):
            counts = [(first["per_layer"][n]["value"], got["per_layer"][n]["value"])
                      for n in EXACT]
            assert all(a == b for a, b in counts) == same
            assert (first["detail"]["input_digest"] == got["detail"]["input_digest"]) == same


def test_contract_line_and_agree_refuses_smoke(suite, tmp_path):
    proc = run_py("--workload", "disk_collide", "--seed", "3", "--seconds", "0.2",
                  "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}

    path = tmp_path / "smoke.json"
    path.write_text(json.dumps(suite))
    proc = subprocess.run([sys.executable, str(HERE / "agree.py"), str(path), str(path)],
                          capture_output=True, text=True)
    assert proc.returncode == 2 and "smoke" in proc.stderr


def test_no_result_without_the_program(tmp_path):
    """In a directory that holds only BENCHMARK.json and bench_e2e/ there is
    nothing to measure: non-zero exit, no result line."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench_e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = run_py("--workload", "disk_collide", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path, script=tmp_path / "bench_e2e" / "run.py")
    assert proc.returncode != 0 and proc.stdout.strip() == ""


def test_oracles_flag_fabricated_results():
    from repro.apps.gravity import direct_accelerations
    from repro.particles import clustered_clumps
    from repro.trees import build_tree

    p = clustered_clumps(400, seed=5)
    sample = oracles.sample_indices(len(p), 64, 5)
    exact = direct_accelerations(p, softening=1e-3)
    assert oracles.check_gravity(p.position, p.mass, exact, sample, 1.0, 1e-3)[2] == []
    rng = np.random.default_rng(0)
    perturbed = exact * (1.0 + 0.2 * rng.standard_normal(exact.shape))
    assert len(oracles.check_gravity(p.position, p.mass, perturbed, sample, 1.0, 1e-3)[2]) == 2

    k = 8
    index = np.empty((len(p), k), dtype=np.int64)
    dist_sq = np.empty((len(p), k))
    for i in range(len(p)):
        index[i], dist_sq[i] = oracles.brute_knn(p.position, p.position[i], k, exclude=i)
    assert oracles.check_knn(p.position, sample, index, dist_sq) == []
    index[sample[0], -1] = (index[sample[0], -1] + 1) % len(p)   # one wrong neighbour
    assert len(oracles.check_knn(p.position, sample, index, dist_sq)) == 1

    query = {"op": "range", "point": [0.0, 0.0, 0.0], "radius": 0.2}
    delta = p.position - np.zeros(3)
    inside = np.flatnonzero(np.einsum("ij,ij->i", delta, delta) <= 0.04)
    good = {"count": len(inside), "idx": [int(i) for i in inside[:256]]}
    assert oracles.check_serve_reply(p.position, p.mass, query, good, 256) is None
    assert oracles.check_serve_reply(p.position, p.mass, query,
                                     {**good, "count": len(inside) + 1}, 256)
    knn = {"op": "knn", "point": [0.1, 0.0, 0.0], "k": 4}
    idx, d2 = oracles.brute_knn(p.position, np.array(knn["point"]), 4)
    reply = {"idx": [int(i) for i in idx], "dist": [float(np.sqrt(d)) for d in d2]}
    assert oracles.check_serve_reply(p.position, p.mass, knn, reply, 256) is None
    reply["idx"][0], reply["idx"][1] = reply["idx"][1], reply["idx"][0]
    assert oracles.check_serve_reply(p.position, p.mass, knn, reply, 256)

    tree = build_tree(p, tree_type="oct", bucket_size=16)
    linear = build_tree(p, tree_type="oct", bucket_size=16, builder="linear")
    assert oracles.check_trees({"oct": tree}, linear) == (2, [])
    linear.box_hi[1] += 1e-9                      # one bit of one box differs
    tree.pend[tree.first_child[0]] -= 1           # children no longer tile the root
    assert len(oracles.check_trees({"oct": tree}, linear)[1]) == 2
