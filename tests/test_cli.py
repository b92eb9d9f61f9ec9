"""The ``python -m repro`` command-line interface."""

import json

import pytest

from repro.__main__ import main


class TestCLI:
    def test_gravity(self, capsys):
        assert main(["gravity", "--n", "1500", "--check"]) == 0
        out = capsys.readouterr().out
        assert "traversal" in out and "error vs direct sum" in out

    def test_gravity_quadrupole_per_bucket(self, capsys):
        assert main([
            "gravity", "--n", "800", "--traverser", "per-bucket", "--quadrupole"
        ]) == 0
        assert "pp_interactions" in capsys.readouterr().out

    def test_sph_with_baseline(self, capsys):
        assert main(["sph", "--n", "1200", "--k", "16", "--baseline"]) == 0
        out = capsys.readouterr().out
        assert "kNN density" in out and "gadget-style" in out

    def test_knn(self, capsys):
        assert main(["knn", "--n", "1500", "--k", "4"]) == 0
        assert "brute force would be" in capsys.readouterr().out

    def test_disk(self, capsys):
        assert main(["disk", "--n", "500", "--steps", "3"]) == 0
        assert "collisions recorded" in capsys.readouterr().out

    def test_correlation(self, capsys):
        assert main(["correlation", "--n", "600", "--bins", "4"]) == 0
        out = capsys.readouterr().out
        assert "xi" in out and out.count("\n") >= 5

    def test_scale(self, capsys):
        assert main([
            "scale", "--n", "3000", "--partitions", "32",
            "--cores", "24", "48", "--cache", "XWrite",
        ]) == 0
        out = capsys.readouterr().out
        assert "24 cores" in out and "48 cores" in out

    def test_gravity_trace_and_metrics(self, capsys, tmp_path):
        trace, metrics = tmp_path / "t.json", tmp_path / "m.json"
        assert main([
            "gravity", "--n", "1200",
            "--trace", str(trace), "--metrics", str(metrics), "--report",
        ]) == 0
        out = capsys.readouterr().out
        assert "trace events" in out and "-- metrics" in out
        events = json.loads(trace.read_text())["traceEvents"]
        names = {e["name"] for e in events}
        assert {"iteration", "tree_build", "traversal", "rebalance"} <= names
        snaps = json.loads(metrics.read_text())["metrics"]
        metric_names = {s["name"] for s in snaps}
        assert {"cache.hits", "cache.misses", "driver.imbalance"} <= metric_names

    def test_scale_metrics_csv(self, capsys, tmp_path):
        metrics = tmp_path / "m.csv"
        assert main([
            "scale", "--n", "2000", "--partitions", "32",
            "--cores", "24", "--metrics", str(metrics),
        ]) == 0
        header, *rows = metrics.read_text().strip().splitlines()
        assert header == "name,type,labels,value,extra"
        assert any(r.startswith("des.requests,") for r in rows)

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["teleport"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestCheckpointCLI:
    """``--checkpoint-every`` / ``repro resume`` / ``repro audit``."""

    GRAVITY = ["gravity", "--n", "900", "--dt", "1e-3", "--seed", "3"]

    def test_kill_and_resume_matches_baseline(self, capsys, tmp_path):
        base = tmp_path / "base.npz"
        resumed = tmp_path / "resumed.npz"
        ckpt_dir = tmp_path / "ckpt"
        assert main(self.GRAVITY + ["--iterations", "3",
                                    "--save-state", str(base)]) == 0
        assert main(self.GRAVITY + ["--iterations", "2",
                                    "--checkpoint-every", "1",
                                    "--checkpoint-dir", str(ckpt_dir)]) == 0
        assert (ckpt_dir / "ckpt_000002.npz").exists()
        assert main(["resume", str(ckpt_dir / "ckpt_000002.npz"),
                     "--iterations", "3", "--save-state", str(resumed)]) == 0
        out = capsys.readouterr().out
        assert "resumed gravity at iteration 2" in out
        assert "consistency audit passed" in out
        assert main(["audit", str(base), str(resumed)]) == 0
        assert "bit-identical" in capsys.readouterr().out

    def test_audit_detects_divergence(self, capsys, tmp_path):
        a, b = tmp_path / "a.npz", tmp_path / "b.npz"
        assert main(self.GRAVITY + ["--iterations", "1",
                                    "--save-state", str(a)]) == 0
        assert main(["gravity", "--n", "900", "--dt", "2e-3", "--seed", "3",
                     "--iterations", "1", "--save-state", str(b)]) == 0
        capsys.readouterr()
        assert main(["audit", str(a), str(b)]) == 1
        assert "difference" in capsys.readouterr().out

    def test_audit_unreadable_file_errors(self, tmp_path, capsys):
        bad = tmp_path / "bad.npz"
        bad.write_bytes(b"nope")
        assert main(["audit", str(bad), str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_resume_missing_checkpoint_errors(self, tmp_path, capsys):
        assert main(["resume", str(tmp_path / "none.npz")]) == 2
        assert "error" in capsys.readouterr().err

    def test_sph_checkpoint_resume(self, capsys, tmp_path):
        ckpt_dir = tmp_path / "ckpt"
        assert main(["sph", "--n", "700", "--k", "12", "--iterations", "2",
                     "--dt", "1e-3", "--checkpoint-every", "1",
                     "--checkpoint-dir", str(ckpt_dir)]) == 0
        assert main(["resume", str(ckpt_dir / "ckpt_000002.npz"),
                     "--iterations", "3"]) == 0
        assert "resumed sph at iteration 2" in capsys.readouterr().out

    def test_gravity_crash_prints_recovery(self, capsys):
        assert main(["gravity", "--n", "900", "--iterations", "1",
                     "--faults", "crash=0.9@0.25,seed=4"]) == 0
        out = capsys.readouterr().out
        assert "recovery:" in out and "crash(es)" in out

    def test_crash_recovery_lane_in_trace(self, capsys, tmp_path):
        trace = tmp_path / "t.json"
        assert main(["gravity", "--n", "900", "--iterations", "1",
                     "--faults", "crash=0.9@0.25,seed=4",
                     "--trace", str(trace)]) == 0
        doc = json.loads(trace.read_text())
        lanes = [e["args"]["name"] for e in doc["traceEvents"]
                 if e.get("ph") == "M"]
        assert "⟲ recovery" in lanes


class TestExecFlagValidation:
    @pytest.mark.parametrize("backend", ["serial", "threads"])
    @pytest.mark.parametrize("flags", [["--exec-faults", "garbage"],
                                       ["--chunk-deadline", "-1"],
                                       ["--max-chunk-retries", "-1"]])
    def test_bad_exec_flag_exits_2_on_every_backend(self, capsys, backend, flags):
        assert main(["gravity", "--n", "300", "--iterations", "1",
                     "--backend", backend, *flags]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err


class TestInputsCheckedBeforeTheRun:
    """What the run cannot use fails at ingestion: one ``error:`` line,
    exit 2, nothing on stdout — before any traversal starts."""

    @staticmethod
    def _rejected(capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert captured.out == "" and len(err) == 1 and err[0].startswith("error: "), err
        return err[0]

    @pytest.mark.parametrize("app,k", [("knn", "0"), ("knn", "300"), ("sph", "0"),
                                       ("sph", "300")])
    def test_k_outside_one_to_n_minus_one(self, capsys, app, k):
        assert "k must be in [1, 299]" in self._rejected(
            capsys, [app, "--n", "300", "--k", k])

    def test_k_of_n_minus_one_runs(self, capsys):
        assert main(["knn", "--n", "300", "--k", "299"]) == 0

    @pytest.mark.parametrize("flag", ["--trace", "--metrics", "--flight"])
    def test_unwritable_telemetry_path(self, capsys, tmp_path, flag):
        (tmp_path / "a_file").write_text("")
        for path in (tmp_path / "missing" / "x.json", tmp_path / "a_file" / "x.json",
                     tmp_path):
            line = self._rejected(capsys, ["gravity", "--n", "300", "--iterations", "1",
                                           flag, str(path)])
            assert "could not write telemetry output" in line
