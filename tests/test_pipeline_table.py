"""The app table, the observer contract, and the CLI built from both.

Everything here iterates :data:`repro.apps.APPS` rather than spelling each
subcommand out: a pipeline added to the table is covered by these tests
without touching them.
"""

import argparse
import json
import subprocess
import sys
from types import SimpleNamespace

import pytest

from repro.__main__ import main
from repro.apps import APPS, description, make_driver
from repro.core import Configuration
from repro.core.observers import Attribution, CacheMetrics, CommReplay, StatusFeed
from repro.obs import STATUS_SCHEMA, Telemetry, read_status_file, use_telemetry
from repro.resilience import (
    CheckpointError,
    CheckpointWriter,
    audit_state_files,
    load_checkpoint,
    save_checkpoint,
)
from repro.resilience.resume import driver_from_checkpoint

PHASES = {"splitters", "tree_build", "leaf_sharing", "prepare", "traversal",
          "post_traversal", "rebalance"}


def small_description(app: str, iterations: int) -> dict:
    """The row's default description, shrunk to test size; apps that
    integrate get a non-zero timestep so state really evolves."""
    options = APPS[app].options
    defaults = argparse.Namespace(**{
        flag.lstrip("-").replace("-", "_"): default for flag, _, default, *_ in options
    })
    desc = description(app, options, defaults)
    desc["dataset"].update(n=240, seed=5)
    desc["config"]["num_iterations"] = iterations
    if "dt" in desc["app_config"]:
        desc["app_config"]["dt"] = 1e-3
    return desc


# -- one description -> Driver, for every row ---------------------------------

@pytest.mark.parametrize("app", list(APPS))
def test_row_checkpoints_and_resumes_byte_identically(app, tmp_path):
    """description -> Driver -> 2 iterations; the same run cut after 1,
    rebuilt by driver_from_checkpoint and resumed, writes a byte-identical
    final checkpoint."""
    desc = small_description(app, iterations=2)
    recorded = {"app": app, "app_config": desc["app_config"]}

    baseline = make_driver(**desc)
    baseline.observe(CheckpointWriter(tmp_path / "base", every=1, keep=10, **recorded))
    assert len(baseline.run()) == 2

    cut = make_driver(**small_description(app, iterations=1))
    cut.observe(CheckpointWriter(tmp_path / "cut", every=1, **recorded))
    cut.run()

    ckpt = load_checkpoint(tmp_path / "cut" / "ckpt_000001.npz")
    assert (ckpt.app, ckpt.app_config) == (app, desc["app_config"])
    resumed = driver_from_checkpoint(ckpt)
    assert type(resumed) is type(baseline)
    resumed.config.num_iterations = 2
    resumed.observe(CheckpointWriter(tmp_path / "resumed", every=1, **recorded))
    resumed.run(resume_from=ckpt)
    assert [r.iteration for r in resumed.reports] == [1]
    assert audit_state_files(tmp_path / "base" / "ckpt_000002.npz",
                             tmp_path / "resumed" / "ckpt_000002.npz") == []


def test_make_driver_rejects_bad_descriptions():
    with pytest.raises(ValueError, match="unknown application 'teleport'"):
        make_driver("teleport")
    with pytest.raises(ValueError, match="bad gravity app_config"):
        make_driver("gravity", {"warp": 9})
    with pytest.raises(ValueError, match="unknown dataset kind"):
        make_driver("gravity", dataset={"kind": "torus", "n": 10, "seed": 0})


# -- the observer contract -----------------------------------------------------

REPORT_KEYS = {
    "iteration", "stats", "partition_loads", "imbalance", "n_split_buckets",
    "n_shared_particles", "rebalanced", "user", "comm_sim", "wall_time",
    "exec_cache", "latency", "exec_mode", "supervision", "attribution",
}


def _observed_gravity(observer=None, telemetry=None):
    driver = make_driver(**small_description("gravity", iterations=2))
    if observer is not None:
        driver.observe(observer)
    if telemetry is not None:
        with use_telemetry(telemetry):
            driver.enable_telemetry(telemetry)
            driver.run()
    else:
        driver.run()
    digest = (driver.accelerations.tobytes(), driver.particles.position.tobytes(),
              driver.particles.velocity.tobytes())
    return driver, digest


def test_observers_never_touch_the_physics(tmp_path):
    bare, physics = _observed_gravity()
    assert all(set(r.to_dict()) == REPORT_KEYS for r in bare.reports)
    assert all(r.comm_sim is None and r.attribution is None for r in bare.reports)
    assert bare.last_interaction_lists is None

    replay = CommReplay("drop=0.05,fail=0.1,seed=3", critical_path=True)
    driver, digest = _observed_gravity(replay)
    assert digest == physics
    assert all(r.comm_sim["critical_path"] and not r.comm_sim["failed"]
               for r in driver.reports)
    assert replay.result is not None and driver.fault_plan is replay.faults

    attribution = Attribution()
    driver, digest = _observed_gravity(attribution)
    assert digest == physics
    assert len(attribution.profiles) == 2
    assert all(r.attribution["totals"]["visits"] > 0 for r in driver.reports)

    telemetry = Telemetry()
    driver, digest = _observed_gravity(telemetry=telemetry)
    assert digest == physics
    assert sum(isinstance(o, CacheMetrics) for o in driver.observers) == 1
    assert telemetry.metrics.total("cache.hits") > 0

    frames = []
    driver, digest = _observed_gravity(StatusFeed(SimpleNamespace(update=frames.append)))
    assert digest == physics
    assert [f["iteration"] for f in frames] == [0, 1]

    writer = CheckpointWriter(tmp_path, every=1, keep=5)
    driver, digest = _observed_gravity(writer)
    assert digest == physics
    assert len(writer.written) == 2
    assert all(set(r.to_dict()) == REPORT_KEYS for r in driver.reports)


def test_replaying_observers_share_one_record(monkeypatch):
    """Comm replay + attribution + cache metrics together record the
    interaction lists once and assign the fetch groups once per iteration."""
    import repro.cache.stats as cache_stats

    calls = []
    original = cache_stats.assign_fetch_groups
    monkeypatch.setattr(
        cache_stats, "assign_fetch_groups",
        lambda *a, **kw: calls.append(1) or original(*a, **kw))
    driver = make_driver(**small_description("gravity", iterations=2))
    driver.observe(CommReplay(critical_path=True))
    driver.observe(Attribution())
    telemetry = Telemetry()
    with use_telemetry(telemetry):
        driver.enable_telemetry(telemetry)
        driver.run()
    assert len(calls) == 2
    assert all(r.comm_sim and r.attribution["cache"] for r in driver.reports)
    assert telemetry.metrics.total("cache.hits") > 0


# -- configuration is validated where it is made --------------------------------

@pytest.mark.parametrize("field, value", [
    ("lb_strategy", "sfx"), ("traverser", "transposd"), ("decomp_type", "sfcc"),
])
def test_configuration_rejects_unregistered_names(field, value):
    with pytest.raises(ValueError, match=value):
        Configuration(**{field: value})


def test_configuration_from_dict_names_the_bad_key():
    with pytest.raises(ValueError, match="bogus"):
        Configuration.from_dict({"bogus": 1})
    with pytest.raises(ValueError, match="bucket_size"):
        Configuration.from_dict({"bucket_size": 0})


@pytest.mark.parametrize("bad", [
    {"traverser": "transposd"}, {"bogus_key": 1}, {"bucket_size": 0},
])
def test_resume_of_bad_recorded_config_is_one_line(bad, tmp_path, capsys):
    driver = make_driver(**small_description("gravity", iterations=1))
    driver.observe(CheckpointWriter(tmp_path, every=1, app="gravity", app_config={}))
    driver.run()
    ckpt = load_checkpoint(tmp_path / "ckpt_000001.npz")
    ckpt.config.update(bad)
    with pytest.raises(CheckpointError):
        driver_from_checkpoint(ckpt)
    save_checkpoint(tmp_path / "bad.npz", ckpt)
    assert main(["resume", str(tmp_path / "bad.npz")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


# -- the CLI honours every flag on every row -------------------------------------

#: per-row arguments that keep the run tiny; the second element is the
#: number of iterations the run then makes
SMALL_CLI = {
    "gravity": (["--n", "240", "--iterations", "2"], 2),
    "sph": (["--n", "240", "--k", "8", "--iterations", "2"], 2),
    "knn": (["--n", "240", "--k", "4", "--iterations", "2"], 2),
    "disk": (["--n", "150", "--steps", "2"], 2),
    "correlation": (["--n", "150", "--bins", "3"], 1),
}


def test_small_cli_covers_the_table():
    assert set(SMALL_CLI) == set(APPS)


@pytest.mark.parametrize("flag", ["--status-file", "--trace", "--flight", "--metrics"])
@pytest.mark.parametrize("app", list(APPS))
def test_every_row_writes_every_artefact(app, flag, tmp_path, capsys):
    argv, iterations = SMALL_CLI[app]
    path = tmp_path / "artefact.json"
    assert main([app, *argv, flag, str(path)]) == 0
    assert path.exists()
    if flag == "--status-file":
        frames = read_status_file(path)
        assert [f["iteration"] for f in frames] == list(range(iterations))
        assert all(f["schema"] == STATUS_SCHEMA for f in frames)
        assert main(["top", str(path)]) == 0
    elif flag == "--trace":
        assert main(["obs", "validate-trace", str(path)]) == 0
        events = json.loads(path.read_text())["traceEvents"]
        phases = [e["name"] for e in events if e.get("cat") == "driver.phase"]
        assert set(phases) == PHASES
        assert all(phases.count(name) == iterations for name in PHASES)
    elif flag == "--flight":
        assert main(["obs", "dump", str(path)]) == 0
        opened = {e["detail"]["name"] for e in json.loads(path.read_text())["events"]
                  if e["kind"] == "span.open"}
        assert PHASES <= opened
    else:
        metrics = json.loads(path.read_text())["metrics"]
        done = [m for m in metrics if m["name"] == "driver.iterations"]
        assert done and done[0]["value"] == iterations
    capsys.readouterr()


def test_faults_flag_is_honoured_with_or_without_a_distributed_phase(capsys):
    assert main(["gravity", "--n", "240", "--faults", "drop=0.05,seed=3"]) == 0
    assert "comm sim" in capsys.readouterr().out
    assert main(["knn", "--n", "240", "--k", "4", "--faults", "drop=0.05,seed=3"]) == 0
    assert "fault probe: cache valid" in capsys.readouterr().out
    assert main(["gravity", "--n", "240", "--faults", "drop=lots"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


# -- nothing renamed or dropped; start-up stays lazy -----------------------------

#: option strings each subcommand accepted at the commit before the table
#: (PR 12), less ``--tree-builder`` (retired with the second octree builder);
#: the table must declare exactly these
OPTIONS_AT_PR12 = {
    "_run": ["--backend", "--checkpoint-dir", "--checkpoint-every",
             "--chunk-deadline", "--exec-faults", "--faults", "--flight",
             "--max-chunk-retries", "--metrics", "--no-supervise", "--report",
             "--save-state", "--status-file", "--trace", "--workers"],
    "_tree": ["--bucket", "--n", "--seed", "--tree"],
    "gravity": ["_run", "_tree", "--check", "--critical-path", "--dt",
                "--iterations", "--quadrupole", "--slo", "--slo-report",
                "--softening", "--theta", "--traverser"],
    "sph": ["_run", "_tree", "--baseline", "--dt", "--iterations", "--k"],
    "knn": ["_run", "_tree", "--iterations", "--k"],
    "disk": ["_run", "--critical-path", "--dt", "--n", "--radius", "--seed",
             "--steps"],
    "correlation": ["_run", "--bins", "--n", "--rmax", "--rmin", "--seed"],
    "resume": ["_run", "--iterations"],
    "explain": ["_tree", "--backend", "--chunk-deadline", "--depth",
                "--exec-faults", "--iterations", "--json", "--max-chunk-retries",
                "--no-supervise", "--partitions", "--theta", "--top", "--trace",
                "--traverser", "--whatif", "--workers"],
    "top": ["--backend", "--chunk-deadline", "--exec-faults", "--follow",
            "--iterations", "--max-chunk-retries", "--n", "--no-supervise",
            "--once", "--poll", "--seed", "--workers"],
}


def _expand(names):
    out = set()
    for name in names:
        out |= _expand(OPTIONS_AT_PR12[name]) if name.startswith("_") else {name}
    return out


def _subparsers(monkeypatch):
    captured = {}

    def capture(self, args=None, namespace=None):
        captured["parser"] = self
        raise SystemExit(0)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", capture)
    with pytest.raises(SystemExit):
        main([])
    monkeypatch.undo()
    action = next(a for a in captured["parser"]._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_no_option_renamed_or_dropped(monkeypatch):
    parsers = _subparsers(monkeypatch)
    assert set(APPS) <= set(parsers)
    for command in (c for c in OPTIONS_AT_PR12 if not c.startswith("_")):
        declared = {o for a in parsers[command]._actions for o in a.option_strings}
        assert declared - {"-h", "--help"} == _expand(OPTIONS_AT_PR12[command]), command


def test_building_the_parser_imports_only_the_table():
    code = (
        "import sys\n"
        "from repro.__main__ import main\n"
        "try:\n"
        "    main(['serve', '--help'])\n"
        "except SystemExit:\n"
        "    pass\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro')), file=sys.stderr)\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, check=True)
    assert result.stderr.strip().splitlines()[-1] == str(
        ["repro", "repro.__main__", "repro.apps"])


def test_traverser_default_and_choices_live_in_core(capsys):
    """``Configuration.traverser`` is the one place the default engine is
    written, and the registry the one list of top-down engines: the table
    row and ``compute_gravity`` read them."""
    import inspect

    from repro.apps import TRAVERSER, description
    from repro.apps.gravity import compute_gravity, compute_gravity_on_tree
    from repro.core import top_down_engines

    assert Configuration().traverser == "batched"
    assert top_down_engines() == ("batched", "transposed", "per-bucket")
    for fn in (compute_gravity, compute_gravity_on_tree):
        assert inspect.signature(fn).parameters["traverser"].default == "batched"

    # the row names no engine: absent flag -> absent key -> Configuration's default
    assert TRAVERSER[2] is None and tuple(TRAVERSER[4]) == top_down_engines()
    args = argparse.Namespace(traverser=None)
    assert "traverser" not in description("gravity", (TRAVERSER,), args)["config"]
    for engine in top_down_engines():
        assert main(["gravity", "--n", "300", "--traverser", engine]) == 0
    capsys.readouterr()
    # not a start_down engine, and no longer offered as one
    with pytest.raises(SystemExit) as exc:
        main(["gravity", "--n", "300", "--traverser", "up-and-down"])
    assert exc.value.code == 2
    assert "'batched', 'transposed', 'per-bucket'" in capsys.readouterr().err


def test_tree_builder_is_gone_everywhere(capsys):
    """One octree builder: the option that chose between two is not accepted
    under any of its spellings, except as a key of old specs (ignored)."""
    from repro.apps.gravity import compute_gravity
    from repro.particles import uniform_cube
    from repro.serve.resident import build_resident_state
    from repro.trees import TreeBuildConfig

    for command in ("gravity", "sph", "knn", "explain", "serve"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--n", "200", "--tree-builder", "linear"])
        assert exc.value.code == 2
        error = capsys.readouterr().err.strip().splitlines()[-1]
        assert error == "repro: error: unrecognized arguments: --tree-builder linear"
    with pytest.raises(TypeError, match="tree_builder"):
        Configuration(tree_builder="linear")
    with pytest.raises(TypeError, match="tree_builder"):
        compute_gravity(uniform_cube(50, seed=2), tree_builder="linear")
    assert TreeBuildConfig().builder == "linear"
    assert "tree_builder" not in build_resident_state(
        {"n": 200, "tree_builder": "recursive"}).spec
