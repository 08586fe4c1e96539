import csv
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mudd import bundled_path
from mudd.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def src_env():
    """The environment with this checkout's `src` first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


@pytest.fixture
def walk_model():
    return str(bundled_path("walk_init_first.mudd"))


@pytest.fixture
def exact_csv(tmp_path, walk_model, capsys):
    out = tmp_path / "exact.csv"
    code = main(["synth", walk_model, "--flows", "3,2", "--samples", "10",
                 "--seed", "1", "-o", str(out)])
    capsys.readouterr()
    assert code == 0
    return str(out)


class TestPaths:
    def test_three_rows(self, capsys, bundled):
        code, out, _ = run(capsys, "paths", str(bundled("stlb_pde_walk.mudd")))
        assert code == 0
        assert len(out.strip().splitlines()) == 3

    def test_bare_done_single_zero_row(self, capsys, tmp_path):
        path = tmp_path / "empty.mudd"
        path.write_text("done;\n")
        code, out, _ = run(capsys, "paths", str(path))
        assert code == 0
        assert len(out.strip().splitlines()) == 1
        assert "all zero" in out

    def test_parse_error_exits_2(self, capsys, tmp_path):
        path = tmp_path / "broken.mudd"
        path.write_text("counter ;\n")
        code, _, err = run(capsys, "paths", str(path))
        assert code == 2
        assert "syntax-error" in err

    def test_long_chain_does_not_overflow_the_stack(self, capsys, tmp_path):
        path = tmp_path / "chain.mudd"
        path.write_text("counter c;\n" * 5000)
        code, out, err = run(capsys, "paths", str(path))
        assert (code, out, err) == (0, "1. (no decisions) | c=5000\n", "")
        code, out, err = run(capsys, "constraints", str(path))
        assert (code, out, err) == (0, "Equalities (0):\nInequalities (1):\n0 ≤ c\n", "")

    def test_json_mode(self, capsys, bundled):
        code, out, _ = run(capsys, "paths", str(bundled("stlb_pde_walk.mudd")),
                           "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 3
        assert {"properties", "signature"} <= set(rows[0])


class TestConstraints:
    def test_walk_bound_emitted(self, capsys, walk_model):
        code, out, _ = run(capsys, "constraints", walk_model)
        assert code == 0
        assert "load.pde$_miss ≤ load.causes_walk" in out.splitlines()

    def test_refined_model_lacks_bound(self, capsys, bundled):
        code, out, _ = run(capsys, "constraints", str(bundled("pde_lookup_first.mudd")))
        assert code == 0
        assert "load.pde$_miss ≤ load.causes_walk" not in out.splitlines()

    def test_single_counter_non_negativity_only(self, capsys, tmp_path):
        path = tmp_path / "one.mudd"
        path.write_text("counter c;\n")
        code, out, _ = run(capsys, "constraints", str(path))
        assert code == 0
        lines = out.splitlines()
        assert "Equalities (0):" in lines
        assert "Inequalities (1):" in lines
        assert "0 ≤ c" in lines

    def test_json_mode(self, capsys, walk_model):
        code, out, _ = run(capsys, "constraints", walk_model, "--format", "json")
        rows = json.loads(out)
        assert any(r["display"] == "load.pde$_miss ≤ load.causes_walk" for r in rows)


class TestCheck:
    def test_exact_synth_is_feasible(self, capsys, walk_model, exact_csv):
        code, out, _ = run(capsys, "check", walk_model, exact_csv)
        assert code == 0
        assert "feasible" in out

    def test_violation_exits_1(self, capsys, walk_model, tmp_path):
        csv_path = tmp_path / "bad.csv"
        rows = ["t,load.causes_walk,load.pde$_miss"] + [f"{i},1,2" for i in range(6)]
        csv_path.write_text("\n".join(rows) + "\n")
        code, out, _ = run(capsys, "check", walk_model, str(csv_path))
        assert code == 1
        assert "INFEASIBLE" in out
        assert "load.pde$_miss ≤ load.causes_walk" in out

    def test_malformed_csv_exits_2(self, capsys, walk_model, tmp_path):
        csv_path = tmp_path / "broken.csv"
        csv_path.write_text("t,load.causes_walk,load.pde$_miss\n0,x,1\n1,2,3\n")
        code, _, err = run(capsys, "check", walk_model, str(csv_path))
        assert code == 2
        assert "error" in err

    def test_negative_cell_names_run_line_and_column(self, capsys, tmp_path):
        model = str(bundled_path("walk_outcome.mudd"))
        ok = tmp_path / "ok.csv"
        assert main(["synth", model, "--flows", "100,50,20", "--samples", "10",
                     "-o", str(ok)]) == 0
        neg = tmp_path / "neg.csv"
        rows = ok.read_text().splitlines()
        cells = rows[3].split(",")
        cells[2] = "-" + cells[2]
        neg.write_text("\n".join(rows[:3] + [",".join(cells)] + rows[4:]) + "\n")
        capsys.readouterr()
        code, out, err = run(capsys, "check", model, str(ok), str(neg))
        column = rows[0].split(",")[2]
        assert code == 2
        assert "walk_outcome x ok: feasible" in out.splitlines()
        assert f"error: run 'neg' line 4 column '{column}': '{cells[2]}'" in err

    @pytest.mark.parametrize("edit, message", [
        # the first load.causes_walk column makes the run infeasible, the
        # second feasible; neither may be picked silently
        (lambda rows: [rows[0] + ",load.causes_walk"] + [r + ",100" for r in rows[1:]],
         "run 'bad' line 1 column 'load.causes_walk': named twice in the header"),
        (lambda rows: rows[:2] + [rows[2] + ",7"] + rows[3:],
         "run 'bad' line 3: row has too many columns (4 cells, 3 header names)"),
    ])
    def test_malformed_csv_names_the_run_and_keeps_the_batch(
            self, capsys, walk_model, exact_csv, tmp_path, edit, message):
        rows = ["t,load.causes_walk,load.pde$_miss"] + [f"{i},1,2" for i in range(6)]
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(edit(rows)) + "\n")
        code, out, err = run(capsys, "check", walk_model, exact_csv, str(bad))
        assert code == 2
        assert out == "walk_init_first x exact: feasible\n"
        assert err == f"error: {message}\n"

    def test_json_and_text_agree(self, capsys, walk_model, exact_csv, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(
            ["t,load.causes_walk,load.pde$_miss"] + [f"{i},1,2" for i in range(6)]
        ) + "\n")
        code_t, out_t, _ = run(capsys, "check", walk_model, exact_csv, str(bad))
        code_j, out_j, _ = run(capsys, "check", walk_model, exact_csv, str(bad),
                               "--format", "json")
        assert code_t == code_j == 1
        rows = json.loads(out_j)
        text_verdicts = {
            line.split(":")[0].split(" x ")[1]: "INFEASIBLE" not in line
            for line in out_t.splitlines()
            if " x " in line
        }
        json_verdicts = {r["run"]: r["feasible"] for r in rows}
        assert text_verdicts == json_verdicts

    def test_projection_flag(self, capsys, walk_model, tmp_path):
        csv_path = tmp_path / "partial.csv"
        csv_path.write_text("t,load.causes_walk\n0,1\n1,1\n2,1\n")
        code, _, err = run(capsys, "check", walk_model, str(csv_path))
        assert code == 2
        code, out, _ = run(capsys, "check", walk_model, str(csv_path), "--project")
        assert code == 0

    def test_projected_csv_without_model_counters_names_the_run(self, capsys, walk_model,
                                                                 exact_csv, tmp_path):
        unrelated = tmp_path / "unrelated.csv"
        unrelated.write_text("t,other.counter\n0,1\n1,2\n2,3\n")
        code, out, err = run(capsys, "check", walk_model, exact_csv, str(unrelated),
                             "--project")
        assert code == 2
        assert "exact: feasible" in out
        assert "error: run 'unrelated' shares no counter with the model\n" in err
        assert "zero-size" not in err

    def test_mixed_projections_render_per_cell(self, capsys, walk_model, tmp_path):
        partial = tmp_path / "a_partial.csv"
        partial.write_text("t,load.causes_walk\n0,1\n1,1\n")
        full_bad = tmp_path / "b_full.csv"
        full_bad.write_text(
            "\n".join(["t,load.causes_walk,load.pde$_miss"]
                      + [f"{i},1,2" for i in range(5)]) + "\n"
        )
        code, out, _ = run(capsys, "check", walk_model, str(partial), str(full_bad),
                           "--project")
        assert code == 1
        assert "a_partial: feasible" in out
        assert "load.pde$_miss ≤ load.causes_walk" in out

    def test_parallel_jobs_same_output(self, capsys, walk_model, exact_csv):
        _, out_serial, _ = run(capsys, "check", walk_model, exact_csv)
        _, out_parallel, _ = run(capsys, "check", walk_model, exact_csv, "--jobs", "2")
        assert out_serial == out_parallel

    @pytest.mark.parametrize("flag", ["--project", "--independent"])
    def test_parallel_jobs_same_output_per_flag(self, capsys, walk_model, exact_csv,
                                                 tmp_path, flag):
        partial = tmp_path / "partial.csv"
        partial.write_text("t,load.causes_walk\n0,1\n1,3\n2,2\n")
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(
            ["t,load.causes_walk,load.pde$_miss"] + [f"{i},1,{2 + i % 2}" for i in range(6)]
        ) + "\n")
        csvs = [exact_csv, str(bad)] + ([str(partial)] if flag == "--project" else [])
        runs = [run(capsys, "check", walk_model, *csvs, flag, "--jobs", jobs)
                for jobs in ("1", "2")]
        assert runs[0] == runs[1]
        code, out, _ = runs[0]
        assert code == 1
        assert len(out.splitlines()) >= len(csvs)
        assert "bad: INFEASIBLE" in out

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_overflowing_csv_does_not_abort_batch(self, capsys, tmp_path, jobs):
        # a run whose covariance overflows is an error cell; its neighbour
        # still gets a verdict and no numpy warning reaches stderr
        model = str(bundled_path("walk_outcome.mudd"))
        ok = tmp_path / "ok.csv"
        assert main(["synth", model, "--flows", "100,50,20", "--samples", "30",
                     "--noise", "2", "-o", str(ok)]) == 0
        capsys.readouterr()
        with open(ok, newline="") as fh:
            rows = list(csv.reader(fh))
        huge = tmp_path / "huge.csv"
        with open(huge, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(rows[0])
            for row in rows[1:]:
                writer.writerow(row[:1] + [format(float(x) * 1e300, ".17g") for x in row[1:]])
        proc = subprocess.run(
            [sys.executable, "-m", "mudd", "check", model, str(ok), str(huge), "--jobs", jobs],
            capture_output=True, text=True, env=src_env(), timeout=120,
        )
        assert proc.returncode == 2
        lines = proc.stdout.splitlines()
        assert "walk_outcome x ok: feasible" in lines
        assert any(line.startswith("walk_outcome x huge: error: run 'huge'") for line in lines)
        assert "RuntimeWarning" not in proc.stderr

    def test_unmodeled_columns_warn_in_one_line(self, walk_model, exact_csv, tmp_path):
        with open(exact_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        wide = tmp_path / "wide.csv"
        with open(wide, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(rows[0] + ["z.extra", "a.extra"])
            writer.writerows(row + ["1", "2"] for row in rows[1:])
        procs = [
            subprocess.run([sys.executable, "-m", "mudd", "check", walk_model, path],
                           capture_output=True, text=True, env=src_env(), timeout=120)
            for path in (exact_csv, str(wide))
        ]
        assert procs[1].stderr == (
            "warning: run 'wide': ignoring unmodeled columns a.extra, z.extra\n"
        )
        assert procs[0].stderr == ""
        assert procs[1].returncode == procs[0].returncode == 0
        assert procs[1].stdout == procs[0].stdout.replace("x exact:", "x wide:")

    def test_independent_ablation_flag(self, capsys, walk_model, tmp_path):
        # correlated data whose truth sits just past the walk bound: the
        # correlated region refutes it, the diagonal ablation cannot
        import numpy as np

        rng = np.random.default_rng(5150)
        t = rng.normal(1000.0, 50.0, size=80)
        rows = ["t,load.causes_walk,load.pde$_miss"]
        for i, base in enumerate(t):
            rows.append(f"{i},{base:.6f},{base + 5.0:.6f}")
        csv_path = tmp_path / "corr.csv"
        csv_path.write_text("\n".join(rows) + "\n")
        code_corr, out_corr, _ = run(capsys, "check", walk_model, str(csv_path))
        code_ind, out_ind, _ = run(capsys, "check", walk_model, str(csv_path),
                                   "--independent")
        assert code_corr == 1
        assert "load.pde$_miss ≤ load.causes_walk" in out_corr
        assert code_ind == 0

    def test_cap_exceeded_exits_2(self, capsys, bundled):
        code, _, err = run(capsys, "paths", str(bundled("stlb_pde_walk.mudd")),
                           "--cap", "2")
        assert code == 2
        assert "cap" in err


class TestSynth:
    def test_zero_noise_constant_rows(self, capsys, walk_model):
        code, out, _ = run(capsys, "synth", walk_model, "--flows", "4,2",
                           "--samples", "3", "--noise", "0")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,load.causes_walk,load.pde$_miss"
        data = {tuple(l.split(",")[1:]) for l in lines[1:]}
        assert len(data) == 1

    def test_seed_reproducible(self, capsys, walk_model):
        _, a, _ = run(capsys, "synth", walk_model, "--flows", "4,2",
                      "--samples", "5", "--noise", "0.5", "--seed", "7")
        _, b, _ = run(capsys, "synth", walk_model, "--flows", "4,2",
                      "--samples", "5", "--noise", "0.5", "--seed", "7")
        assert a == b

    def test_zero_flows_all_zero(self, capsys, walk_model):
        code, out, _ = run(capsys, "synth", walk_model, "--flows", "0",
                           "--samples", "3")
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            assert set(line.split(",")[1:]) == {"0"}

    def test_flow_count_mismatch_exits_2(self, capsys, walk_model):
        code, _, err = run(capsys, "synth", walk_model, "--flows", "1,2,3",
                           "--samples", "3")
        assert code == 2

    @pytest.mark.parametrize("flags, field", [
        (["--flows", "inf"], "flows"),
        (["--flows", "1e400"], "flows"),
        (["--flows", "nan"], "flows"),
        (["--flows", "1", "--noise", "nan"], "noise"),
        (["--flows", "1", "--noise", "inf"], "noise"),
    ])
    def test_non_finite_flows_or_noise_exit_2(self, capsys, walk_model, tmp_path,
                                              flags, field):
        out = tmp_path / "out.csv"
        code, stdout, err = run(capsys, "synth", walk_model, *flags, "--samples", "3",
                                "-o", str(out))
        assert code == 2
        assert err == f"error: {field} must be finite\n"
        assert stdout == ""
        assert not out.exists()


class TestExplore:
    def test_bundled_catalog(self, capsys, bundled):
        code, out, _ = run(capsys, "explore", str(bundled("catalog", "search_catalog.json")))
        assert code == 0
        assert "feasible: m4, m8" in out
        assert "required features: EarlyPsc, Merging, TlbPf, WalkBypass" in out

    def test_json_mode(self, capsys, bundled):
        code, out, _ = run(capsys, "explore", str(bundled("catalog", "search_catalog.json")),
                           "--format", "json")
        blob = json.loads(out)
        assert blob["feasible"] == ["m4", "m8"]

    def test_broken_reference_exits_2(self, capsys, tmp_path):
        path = tmp_path / "cat.json"
        path.write_text(json.dumps({"entries": [
            {"name": "a", "features": [], "infeasible_count": 0, "model": "nope.mudd"}
        ]}))
        code, _, err = run(capsys, "explore", str(path))
        assert code == 2

    def test_empty_catalog(self, capsys, tmp_path):
        path = tmp_path / "cat.json"
        path.write_text(json.dumps({"entries": []}))
        code, out, _ = run(capsys, "explore", str(path))
        assert code == 0

    def test_namespace_flag_rejected(self, capsys, bundled, tmp_path):
        # the catalog's own `namespace` key orders the counters
        ns = tmp_path / "ns.txt"
        ns.write_text("no.such_counter\n")
        with pytest.raises(SystemExit) as exc:
            main(["explore", str(bundled("catalog", "search_catalog.json")),
                  "--namespace", str(ns)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --namespace" in capsys.readouterr().err


class TestConfig:
    def test_config_file_defaults(self, capsys, walk_model, tmp_path):
        cfg = tmp_path / "defaults.cfg"
        cfg.write_text("format=json\n")
        code, out, _ = run(capsys, "constraints", walk_model, "--config", str(cfg))
        assert code == 0
        json.loads(out)

    def test_flag_overrides_config(self, capsys, walk_model, tmp_path):
        cfg = tmp_path / "defaults.cfg"
        cfg.write_text("format=json\n")
        code, out, _ = run(capsys, "constraints", walk_model,
                           "--config", str(cfg), "--format", "text")
        assert code == 0
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)

    def test_env_var_jobs(self, capsys, walk_model, exact_csv, monkeypatch):
        monkeypatch.setenv("MUDD_JOBS", "2")
        code, out, _ = run(capsys, "check", walk_model, exact_csv)
        assert code == 0

    @pytest.mark.parametrize("value, reason", [
        ("two", "is not a valid int"),
        ("1.5", "is not a valid int"),
        ("0", "is less than 1"),
        ("-3", "is less than 1"),
    ])
    def test_bad_env_var_jobs_exits_2(self, capsys, walk_model, exact_csv, monkeypatch,
                                      value, reason):
        monkeypatch.setenv("MUDD_JOBS", value)
        code, out, err = run(capsys, "check", walk_model, exact_csv)
        assert code == 2
        assert out == ""
        assert err == f"error: MUDD_JOBS: {value!r} {reason}\n"

    def test_env_var_jobs_unread_when_overridden(self, capsys, walk_model, exact_csv,
                                                 monkeypatch, tmp_path):
        monkeypatch.setenv("MUDD_JOBS", "two")
        code, _, _ = run(capsys, "check", walk_model, exact_csv, "--jobs", "1")
        assert code == 0
        cfg = tmp_path / "defaults.cfg"
        cfg.write_text("jobs=1\n")
        code, _, _ = run(capsys, "check", walk_model, exact_csv, "--config", str(cfg))
        assert code == 0

    @pytest.mark.parametrize("value", ["two", "0"])
    def test_env_var_jobs_ignored_by_other_subcommands(self, capsys, walk_model, bundled,
                                                       monkeypatch, tmp_path, value):
        monkeypatch.setenv("MUDD_JOBS", value)
        catalog = str(bundled("catalog", "search_catalog.json"))
        for argv in (["paths", walk_model], ["constraints", walk_model],
                     ["explore", catalog],
                     ["synth", walk_model, "--flows", "1", "--samples", "3",
                      "-o", str(tmp_path / "s.csv")]):
            code, _, err = run(capsys, *argv)
            assert (argv[0], code, err) == (argv[0], 0, "")

    def test_bad_alpha_exits_2(self, capsys, walk_model, exact_csv):
        code, _, err = run(capsys, "check", walk_model, exact_csv, "--alpha", "1.5")
        assert code == 2

    def test_alpha_too_small_for_its_level_exits_2(self, capsys, walk_model, exact_csv):
        # 1 - 1e-17 is 1.0 in floating point: one error, not one per cell
        code, out, err = run(capsys, "check", walk_model, exact_csv, "--alpha", "1e-17")
        assert code == 2
        assert out == ""
        assert err == "error: alpha 1e-17 is too small: 1 - alpha rounds to 1\n"

    def test_bad_config_value_names_file_line_and_key(self, capsys, walk_model,
                                                      exact_csv, tmp_path):
        cfg = tmp_path / "defaults.cfg"
        cfg.write_text("# defaults\nformat=json\nalpha=abc\n")
        code, out, err = run(capsys, "check", walk_model, exact_csv, "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err == f"error: {cfg}:3: alpha: 'abc' is not a valid float\n"
        cfg.write_text("jobs=two\n")
        code, _, err = run(capsys, "check", walk_model, exact_csv, "--config", str(cfg))
        assert code == 2
        assert err == f"error: {cfg}:1: jobs: 'two' is not a valid int\n"

    def test_unknown_config_key_names_file_line_and_key(self, capsys, walk_model,
                                                        exact_csv, tmp_path):
        cfg = tmp_path / "defaults.cfg"
        cfg.write_text("# defaults\nformat=json\nalhpa=0.05\n")
        code, out, err = run(capsys, "check", walk_model, exact_csv, "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err == (f"error: {cfg}:3: unknown key 'alhpa'; "
                       "valid keys are alpha, cap, format, jobs\n")

    def test_namespace_file(self, capsys, walk_model, tmp_path):
        ns = tmp_path / "names.txt"
        ns.write_text("load.pde$_miss\nload.causes_walk\n")
        code, out, _ = run(capsys, "paths", walk_model, "--namespace", str(ns))
        assert code == 0


def test_mudd_runs_without_scipy(tmp_path):
    # scipy is a test-only oracle: importing mudd and running synth and
    # check on a bundled model must load no scipy module
    script = f"""
import sys
import mudd
from mudd import cli
model = str(mudd.bundled_path("walk_outcome.mudd"))
csv = {str(tmp_path / "run.csv")!r}
assert cli.main(["synth", model, "--flows", "100,50,20", "--samples", "30",
                 "--noise", "2", "--seed", "3", "-o", csv]) == 0
assert cli.main(["check", model, csv, "--jobs", "1"]) == 0
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "walk_outcome x run: feasible" in proc.stdout
    assert proc.stdout.splitlines()[-1] == "[]"


def test_subcommands_load_numpy_and_pool_only_when_used(tmp_path):
    # only `synth` needs numpy, and only `check` above one job a process pool
    csv = Path(__file__).resolve().parent / "data" / "csv" / "outcome.csv"
    script = f"""
import sys
import mudd
from mudd import cli

def loaded():
    return sorted(m for m in ("numpy", "concurrent.futures") if m in sys.modules)

model = str(mudd.bundled_path("walk_outcome.mudd"))
catalog = str(mudd.bundled_path("catalog", "search_catalog.json"))
csv = {str(csv)!r}
assert cli.main(["paths", model]) == 0
assert cli.main(["constraints", model]) == 0
assert cli.main(["constraints", str(mudd.bundled_path("haswell_mmu.mudd"))]) == 0
assert cli.main(["explore", catalog]) == 0
print("after explore:", loaded())
assert cli.main(["check", model, csv, csv, "--jobs", "1"]) == 0
print("after check --jobs 1:", loaded())
assert cli.main(["check", model, csv, csv, "--jobs", "2"]) == 0
print("after check --jobs 2:", loaded())
assert cli.main(["synth", model, "--flows", "100,50,20", "--samples", "30",
                 "--noise", "2", "--seed", "3", "-o", {str(tmp_path / "run.csv")!r}]) == 0
print("after synth:", loaded())
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = [line for line in proc.stdout.splitlines() if line.startswith("after ")]
    assert lines == [
        "after explore: []",
        "after check --jobs 1: []",
        "after check --jobs 2: ['concurrent.futures']",
        "after synth: ['concurrent.futures', 'numpy']",
    ]


LAZY_NAMES = [
    ("feasibility", "FeasibilityVerdict"),
    ("feasibility", "attribute_violations"),
    ("feasibility", "batch_check"),
    ("feasibility", "check_feasibility"),
    ("feasibility", "refinement_candidates"),
    ("stats", "ConfidenceRegion"),
    ("stats", "ObservationSet"),
    ("stats", "build_confidence_region"),
    ("stats", "chi_square_quantile"),
    ("stats", "eigendecompose"),
    ("stats", "load_observations"),
    ("stats", "mean_and_covariance"),
    ("stats", "point_region"),
    ("stats", "write_observations"),
    ("synth", "SynthSpec"),
    ("synth", "exact_counters"),
    ("synth", "generate"),
]


@pytest.mark.parametrize("module, name", LAZY_NAMES)
def test_lazy_name_imports_from_package(module, name):
    namespace = {}
    exec(f"from mudd import {name}", namespace)
    assert namespace[name] is getattr(importlib.import_module(f"mudd.{module}"), name)


def test_bare_import_resolves_submodules_lazily():
    script = """
import sys
import mudd
assert "numpy" not in sys.modules
for name in ("stats", "feasibility", "synth"):
    assert getattr(mudd, name) is sys.modules["mudd." + name]
try:
    mudd.no_such_name
except AttributeError as exc:
    print("AttributeError:", exc)
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "AttributeError: module 'mudd' has no attribute 'no_such_name'\n"
    with pytest.raises(ImportError):
        exec("from mudd import no_such_name", {})


def test_unexpected_exception_prints_traceback_and_exits_2(capsys, monkeypatch, walk_model):
    # 1 means "some observation infeasible", so a bug must not exit 1
    from mudd import cli

    def broken(args, cfg):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_paths", broken)
    monkeypatch.setattr(sys, "argv", ["mudd", "paths", walk_model])
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("Traceback (most recent call last):\n")
    assert err.endswith("RuntimeError: boom\n")
