import ast
import codecs
import csv
import json
import os
import re
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import mudd.model
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


# one counter under 3,000 nested switches, on one line
DEEP_SWITCHES = "switch (p) { case a: " * 3000 + "counter x;" + " }" * 3000 + "\n"


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

    @pytest.mark.parametrize("sub", ["paths", "constraints"])
    def test_deep_nesting_is_one_diagnostic(self, tmp_path, sub):
        # the recursive descent runs out of stack long before 3,000 levels
        path = tmp_path / "deep.mudd"
        path.write_text(DEEP_SWITCHES)
        proc = subprocess.run([sys.executable, "-m", "mudd", sub, str(path)],
                              capture_output=True, text=True, env=src_env(), timeout=120)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert re.fullmatch(rf"{re.escape(str(path))}:1:\d+: syntax-error: "
                            "switches nested too deeply to parse\n", proc.stderr)

    @pytest.mark.parametrize("sub", ["paths", "constraints"])
    @pytest.mark.parametrize("src, message", [
        ("a: action x;\nb: counter c;\norder b -> a;\n",
         "order b -> a contradicts causality on path (no decisions)"),
        ("a: action x;\norder a -> a;\nswitch (S) { case p: counter c; case q: }\n",
         "order a -> a contradicts causality on path S=p"),
    ], ids=["backwards", "self"])
    def test_contradicting_order_names_its_labels(self, capsys, tmp_path, sub, src,
                                                  message):
        path = tmp_path / "order.mudd"
        path.write_text(src)
        assert run(capsys, sub, str(path)) == (2, "", f"error: {message}\n")

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
        # a cell longer than the csv module reads
        (lambda rows: rows[:3] + ["2,1," + "9" * 200_000] + rows[4:],
         f"run 'bad' line 4: field larger than field limit ({csv.field_size_limit()})"),
        (lambda rows: [rows[0] + "," + "x" * 200_000] + rows[1:],
         f"run 'bad' line 1: field larger than field limit ({csv.field_size_limit()})"),
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

    def test_unencodable_run_name_is_an_input_error(self, walk_model, exact_csv, tmp_path):
        # stdout's encoding cannot spell the run name: one error line, no traceback
        csv_path = tmp_path / "caf\u00e9.csv"
        shutil.copy(exact_csv, csv_path)
        proc = subprocess.run([sys.executable, "-m", "mudd", "check", walk_model, str(csv_path)],
                              capture_output=True, text=True, timeout=120,
                              env=dict(src_env(), PYTHONIOENCODING="ascii"))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: 'ascii' codec can't encode character '\\xe9'")
        assert len(proc.stderr.splitlines()) == 1

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

    @pytest.mark.parametrize("project", [[], ["--project"]])
    def test_model_without_counters_names_the_run(self, capsys, tmp_path, project):
        (tmp_path / "zc.mudd").write_text("action a;\n")
        (tmp_path / "zc.csv").write_text("x\n1\n2\n")
        code, out, err = run(capsys, "check", str(tmp_path / "zc.mudd"),
                             str(tmp_path / "zc.csv"), *project)
        assert (code, out) == (2, "")
        assert err == ("warning: run 'zc': ignoring unmodeled columns x\n"
                       "error: run 'zc' shares no counter with the model\n")

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

    def test_overflowing_box_names_the_run(self, capsys, tmp_path):
        # the covariance is finite, but a half-length sqrt(v * quantile) is not
        (tmp_path / "one.mudd").write_text("counter a;\n")
        (tmp_path / "huge.csv").write_text("a\n0.0\n1.69e+154\n")
        (tmp_path / "ok.csv").write_text("a\n1.0\n2.0\n")
        code, out, _ = run(capsys, "check", str(tmp_path / "one.mudd"),
                           str(tmp_path / "huge.csv"), str(tmp_path / "ok.csv"))
        assert code == 2
        assert out.splitlines() == [
            "one x huge: error: run 'huge': confidence box overflows; "
            "counter values are too large",
            "one x ok: feasible",
        ]

    def test_overflowing_box_is_an_error_row_in_json(self, capsys, tmp_path):
        (tmp_path / "one.mudd").write_text("counter a;\n")
        (tmp_path / "huge.csv").write_text("a\n0.0\n1.69e+154\n")
        (tmp_path / "ok.csv").write_text("a\n1.0\n2.0\n")
        code, out, err = run(capsys, "check", str(tmp_path / "one.mudd"),
                             str(tmp_path / "huge.csv"), str(tmp_path / "ok.csv"),
                             "--format", "json")
        assert (code, err) == (2, "")
        assert json.loads(out) == [
            {"model": "one", "run": "huge",
             "error": "run 'huge': confidence box overflows; counter values are too large"},
            {"model": "one", "run": "ok", "feasible": True, "witness_point": [1.5],
             "witness_flow": {"0": 1.5}, "violated_constraints": []},
        ]

    def test_model_whose_paths_are_refused_is_an_error_row_per_run(self, capsys, tmp_path):
        # the model parses, but `mudd paths` refuses it: each run gets the reason
        model = tmp_path / "bad.mudd"
        model.write_text("order b -> a;\na: action first;\n"
                         "switch (p) { case u: b: counter x; }\n")
        for run_id in ("r1", "r2"):
            (tmp_path / f"{run_id}.csv").write_text("x\n1\n2\n3\n")
        argv = ["check", str(model), str(tmp_path / "r1.csv"), str(tmp_path / "r2.csv")]
        reason = "order b -> a contradicts causality on path p=u"
        assert run(capsys, *argv) == (
            2, f"bad x r1: error: {reason}\nbad x r2: error: {reason}\n", "")
        code, out, err = run(capsys, *argv, "--format", "json")
        assert (code, err) == (2, "")
        assert json.loads(out) == [{"model": "bad", "run": r, "error": reason}
                                   for r in ("r1", "r2")]

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

    @pytest.mark.parametrize("blanks, columns", [
        ((3,), "(unnamed column 4)"),
        ((3, 4), "(unnamed column 4), (unnamed column 5)"),
        ((2,), "(unnamed column 3)"),
    ], ids=["trailing-comma", "two-trailing-commas", "middle"])
    def test_nameless_columns_are_ignored_by_position(self, capsys, walk_model, exact_csv,
                                                      tmp_path, blanks, columns):
        infeasible = tmp_path / "walks.csv"
        infeasible.write_text("t,load.causes_walk,load.pde$_miss\n"
                              + "".join(f"{i},1,2\n" for i in range(5)))
        for plain in (Path(exact_csv), infeasible):
            with open(plain, newline="") as fh:
                rows = list(csv.reader(fh))
            for at in blanks:
                rows = [row[:at] + ["" if r == 0 else "7"] + row[at:]
                        for r, row in enumerate(rows)]
            blank = tmp_path / "blank" / plain.name
            blank.parent.mkdir(exist_ok=True)
            with open(blank, "w", newline="") as fh:
                csv.writer(fh).writerows(rows)
            expected = run(capsys, "check", walk_model, str(plain))
            assert expected[0] in (0, 1) and expected[2] == ""
            assert run(capsys, "check", walk_model, str(blank)) == (
                expected[0], expected[1],
                f"warning: run '{plain.stem}': ignoring unmodeled columns {columns}\n")

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

    def test_cap_exceeded_exits_2(self, capsys, monkeypatch, bundled):
        monkeypatch.setattr(mudd.model, "PATH_CAP", 2)
        assert run(capsys, "paths", str(bundled("stlb_pde_walk.mudd"))) == (
            2, "", "error: more than 2 paths, the fixed limit; simplify the model\n")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_shared_stems_use_the_paths_as_run_ids(self, capsys, walk_model, exact_csv,
                                                   tmp_path, monkeypatch, fmt):
        # a/x.csv and b/x.csv are told apart by their paths; y.csv, named
        # twice, shares its stem with no other CSV and keeps it
        monkeypatch.chdir(tmp_path)
        for d in ("a", "b"):
            (tmp_path / d).mkdir()
        (tmp_path / "a" / "x.csv").write_text(Path(exact_csv).read_text())
        (tmp_path / "y.csv").write_text(Path(exact_csv).read_text())
        (tmp_path / "b" / "x.csv").write_text("\n".join(
            ["t,load.causes_walk,load.pde$_miss"] + [f"{i},1,2" for i in range(6)]) + "\n")
        code, out, err = run(capsys, "check", walk_model, "a/x.csv", "y.csv", "b/x.csv",
                             "y.csv", "--format", fmt)
        assert code == 1 and err == ""
        if fmt == "json":
            rows = [(row["run"], row["feasible"]) for row in json.loads(out)]
        else:
            rows = [tuple(line.split(" x ", 1)[1].split(": ")) for line in out.splitlines()
                    if not line.startswith(" ")]
            rows = [(run_id, verdict == "feasible") for run_id, verdict in rows]
        assert rows == [("a/x.csv", True), ("b/x.csv", False), ("y", True), ("y", True)]

    def test_dead_worker_is_one_error_line(self, capsys, monkeypatch, walk_model, exact_csv):
        # a worker killed mid-batch (say, out of memory) is not a mudd bug:
        # one `error:` line and exit 2, no traceback
        from mudd import cli, feasibility

        monkeypatch.setattr(feasibility, "_CELLS_PER_WORKER", 1)
        monkeypatch.setattr(feasibility, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(feasibility, "_check_cell", _die_in_worker)
        monkeypatch.setattr(sys, "argv", ["mudd", "check", walk_model, exact_csv, exact_csv,
                                          "--jobs", "2"])
        with pytest.raises(SystemExit) as exc:
            cli.entry()
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: a worker process of the 2-worker check pool died "
                                "(killed, or out of memory?); the batch has no verdicts\n")


def _die_in_worker(args):
    """A `_check_cell` whose worker process dies, as when it is OOM-killed;
    module-level, so that the pool pickles it by name."""
    os._exit(1)


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

    def test_one_sample_exits_2(self, capsys, walk_model):
        assert run(capsys, "synth", walk_model, "--flows", "1", "--samples", "1") == (
            2, "", "error: need at least 2 samples\n")

    def test_synth_enumerates_the_model_once(self, capsys, monkeypatch, bundled):
        # every module binding of `enumerate_mupaths` is counted
        import mudd.synth  # loaded, so that its binding is counted too

        real = mudd.model.enumerate_mupaths
        calls = []

        def counted(model):
            calls.append(model)
            return real(model)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "mudd" and getattr(module, "enumerate_mupaths", None) is real:
                monkeypatch.setattr(module, "enumerate_mupaths", counted)
        code, out, err = run(capsys, "synth", str(bundled("haswell_mmu.mudd")),
                             "--namespace", str(bundled("haswell_counters.txt")),
                             "--flows", "1", "--samples", "3")
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 4
        assert len(calls) == 1

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

    @pytest.mark.parametrize("flags, message", [
        (["--flows", "1,abc"], "--flows: 'abc' is not a number"),
        (["--flows", "1", "--noise", "x"], "--noise: 'x' is not a number"),
        (["--flows", "2,1", "--noise", "0.5, 1e"], "--noise: '1e' is not a number"),
    ])
    def test_non_numeric_flows_or_noise_name_the_flag(self, capsys, walk_model, flags,
                                                      message):
        code, out, err = run(capsys, "synth", walk_model, *flags, "--samples", "3")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("noise", ["-1", "1,-2"])
    def test_negative_noise_exits_2(self, capsys, walk_model, noise):
        code, out, err = run(capsys, "synth", walk_model, "--flows", "1", "--noise", noise)
        assert (code, out, err) == (2, "", "error: noise must be non-negative\n")

    def test_format_flag_rejected(self, capsys, walk_model):
        # synth writes CSV only
        with pytest.raises(SystemExit) as exc:
            main(["synth", walk_model, "--flows", "1", "--format", "json"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --format json" in capsys.readouterr().err

    def test_negative_seed_exits_2(self, capsys, walk_model):
        code, out, err = run(capsys, "synth", walk_model, "--flows", "1", "--seed", "-1")
        assert (code, out, err) == (2, "", "error: seed must be non-negative\n")

    def test_counter_named_t_round_trips_through_check(self, capsys, tmp_path):
        # the sample-index column is left out, so it cannot clash with the counter
        model = tmp_path / "tu.mudd"
        model.write_text("counter t; counter u;\n")
        out = tmp_path / "tu.csv"
        assert run(capsys, "synth", str(model), "--flows", "3", "--samples", "4",
                   "-o", str(out)) == (0, "", "")
        assert out.read_text().splitlines()[0] == "t,u"
        assert run(capsys, "check", str(model), str(out)) == (0, "tu x tu: feasible\n", "")

    @pytest.mark.parametrize("output, line", [
        ("d.csv", "d.csv: Is a directory"),
        ("nodir/x.csv", "nodir/x.csv: No such file or directory"),
    ])
    def test_unwritable_output_is_one_error_line(self, capsys, monkeypatch, tmp_path,
                                                 walk_model, output, line):
        # the path as given and the reason, as for a file that cannot be read
        from mudd import cli

        (tmp_path / "d.csv").mkdir()
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(sys, "argv", ["mudd", "synth", walk_model, "--flows", "1",
                                          "-o", output])
        with pytest.raises(SystemExit) as exc:
            cli.entry()
        assert exc.value.code == 2
        assert capsys.readouterr() == ("", f"error: {line}\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("samples", ["2", "5000"])  # fails on close, or in a write
    def test_full_disk_is_one_error_line(self, capsys, monkeypatch, walk_model, samples):
        from mudd import cli

        monkeypatch.setattr(sys, "argv", ["mudd", "synth", walk_model, "--flows", "1",
                                          "--samples", samples, "-o", "/dev/full"])
        with pytest.raises(SystemExit) as exc:
            cli.entry()
        assert exc.value.code == 2
        assert capsys.readouterr() == ("", "error: /dev/full: No space left on device\n")

    @pytest.mark.parametrize("source, flags, message", [
        ("counter a;", ["--flows", "1,2"], "--flows needs 1 value, got 2"),
        ("counter a;", ["--flows", "1", "--noise", "1,2"], "--noise needs 1 value, got 2"),
        ("switch (p) { case x: counter a; case y: counter b; }", ["--flows", "1,2,3"],
         "--flows needs 1 or 2 values, got 3"),
    ])
    def test_value_count_message(self, capsys, tmp_path, source, flags, message):
        model = tmp_path / "m.mudd"
        model.write_text(source)
        assert run(capsys, "synth", str(model), *flags) == (2, "", f"error: {message}\n")

    @pytest.mark.filterwarnings("error")  # a numpy overflow warning is a second line
    @pytest.mark.parametrize("flags, what", [
        (["--flows", "1e308", "--samples", "2"], "the flows give a counter total"),
        (["--flows", "1", "--noise", "1.7e308", "--seed", "3"], "the noise draws a sample"),
    ])
    def test_overflow_is_one_error_line(self, capsys, monkeypatch, walk_model, flags, what):
        from mudd import cli

        monkeypatch.setattr(sys, "argv", ["mudd", "synth", walk_model, *flags])
        with pytest.raises(SystemExit) as exc:
            cli.entry()
        assert exc.value.code == 2
        assert capsys.readouterr() == (
            "", f"error: run 'walk_init_first': {what} too large for a float\n")


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

    @pytest.mark.parametrize("model, lines", [
        # each diagnostic once, as `mudd paths` prints it, after one error line
        (b"counter x;\ncounter ;\nswitch (p) { }\n",
         ["error: catalog cat.json: entry 'a': model does not parse",
          "m.mudd:2:9: syntax-error: expected a counter name, found ';'",
          "m.mudd:3:1: empty-switch: switch has no cases"]),
        (b"counter x;\n\xff\n",
         ["error: catalog cat.json: entry 'a' model m.mudd line 2: "
          "byte 0xff is not UTF-8 text"]),
        (None, ["error: catalog cat.json: entry 'a' model m.mudd: No such file or directory"]),
    ], ids=["two-diagnostics", "not-utf8", "missing"])
    def test_entry_model_errors_name_each_file_once(self, capsys, monkeypatch, tmp_path,
                                                    model, lines):
        (tmp_path / "cat.json").write_text(json.dumps({"entries": [
            {"name": "a", "infeasible_count": 0, "model": "m.mudd"}
        ]}))
        if model is not None:
            (tmp_path / "m.mudd").write_bytes(model)
            assert run(capsys, "paths", str(tmp_path / "m.mudd"))[0] == 2
        monkeypatch.chdir(tmp_path)
        assert run(capsys, "explore", "cat.json") == (2, "", "\n".join(lines) + "\n")

    def test_entry_model_that_paths_refuses_is_refused(self, capsys, monkeypatch, tmp_path):
        from mudd import cli

        (tmp_path / "c.json").write_text(json.dumps({"entries": [
            {"name": "a", "infeasible_count": 0, "model": "m.mudd"}
        ]}))
        (tmp_path / "m.mudd").write_text("a: action x; b: action y; order b -> a;\n")
        monkeypatch.chdir(tmp_path)
        reason = "order b -> a contradicts causality on path (no decisions)"
        assert run(capsys, "paths", "m.mudd") == (2, "", f"error: {reason}\n")
        monkeypatch.setattr(sys, "argv", ["mudd", "explore", "c.json"])
        with pytest.raises(SystemExit) as exc:
            cli.entry()
        assert exc.value.code == 2
        assert capsys.readouterr() == (
            "", f"error: catalog c.json: entry 'a' model m.mudd: {reason}\n")

    def test_deeply_nested_entry_model_is_one_diagnostic(self, capsys, monkeypatch, tmp_path):
        (tmp_path / "cat.json").write_text(json.dumps({"entries": [
            {"name": "a", "infeasible_count": 0, "model": "m.mudd"}
        ]}))
        (tmp_path / "m.mudd").write_text(DEEP_SWITCHES)
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "explore", "cat.json")
        assert (code, out) == (2, "")
        assert re.fullmatch(r"error: catalog cat.json: entry 'a': model does not parse\n"
                            r"m\.mudd:1:\d+: syntax-error: switches nested too deeply to parse\n",
                            err)

    def test_unreadable_catalog_names_the_file_once(self, capsys, monkeypatch, tmp_path):
        (tmp_path / "dir.json").mkdir()
        monkeypatch.chdir(tmp_path)
        assert run(capsys, "explore", "nope.json") == (
            2, "", "error: nope.json: No such file or directory\n")
        assert run(capsys, "explore", "dir.json") == (
            2, "", "error: dir.json: Is a directory\n")

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
    def test_bad_alpha_exits_2(self, capsys, walk_model, exact_csv):
        code, _, err = run(capsys, "check", walk_model, exact_csv, "--alpha", "1.5")
        assert code == 2

    def test_zero_jobs_exits_2(self, capsys, walk_model, exact_csv):
        assert run(capsys, "check", walk_model, exact_csv, "--jobs", "0") == (
            2, "", "error: jobs must be at least 1\n")

    def test_zero_jobs_is_reported_before_the_namespace_file(self, capsys, walk_model,
                                                             exact_csv, tmp_path):
        assert run(capsys, "check", walk_model, exact_csv, "--jobs", "0",
                   "--namespace", str(tmp_path / "nope.txt")) == (
            2, "", "error: jobs must be at least 1\n")

    def test_namespace_file_is_reported_before_the_model(self, capsys, tmp_path):
        ns = tmp_path / "nope.txt"
        assert run(capsys, "paths", str(tmp_path / "nope.mudd"), "--namespace", str(ns)) == (
            2, "", f"error: {ns}: No such file or directory\n")

    def test_alpha_too_small_for_its_level_exits_2(self, capsys, walk_model, exact_csv):
        # 1 - 1e-17 is 1.0 in floating point: one error, not one per cell
        code, out, err = run(capsys, "check", walk_model, exact_csv, "--alpha", "1e-17")
        assert code == 2
        assert out == ""
        assert err == "error: alpha 1e-17 is too small: 1 - alpha rounds to 1\n"

    def test_namespace_file(self, capsys, walk_model, tmp_path):
        ns = tmp_path / "names.txt"
        ns.write_text("load.pde$_miss\nload.causes_walk\n")
        code, out, _ = run(capsys, "paths", walk_model, "--namespace", str(ns))
        assert code == 0

    def test_namespace_file_naming_a_counter_twice(self, capsys, walk_model, tmp_path):
        ns = tmp_path / "names.txt"
        ns.write_text("load.pde$_miss\n# walks\nload.causes_walk\nload.pde$_miss\n")
        assert run(capsys, "paths", walk_model, "--namespace", str(ns)) == (
            2, "", f"error: {ns}:4: duplicate counter name 'load.pde$_miss' "
                   "(first on line 1)\n")


_SHARED_FLAGS = {"--help", "--namespace", "--format"}
_HELP_FLAGS = {
    "paths": _SHARED_FLAGS,
    "constraints": _SHARED_FLAGS,
    "check": _SHARED_FLAGS | {"--alpha", "--project", "--independent", "--jobs"},
    "explore": {"--help", "--format"},
    "synth": {"--help", "--namespace", "--flows", "--samples", "--noise",
              "--seed", "--output"},
}


@pytest.mark.parametrize("command", _HELP_FLAGS)
def test_help_lists_each_flag(capsys, command):
    # sets of flags, not text: argparse lays help out differently by version
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert re.search(rf"^ +{command} ", capsys.readouterr().out, re.MULTILINE)
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out)) == (
        _HELP_FLAGS[command])


_SUBCOMMAND_ARGV = [
    ["paths", "m.mudd"],
    ["constraints", "m.mudd"],
    ["check", "m.mudd", "r.csv"],
    ["explore", "catalog.json"],
    ["synth", "m.mudd", "--flows", "1"],
]


@pytest.mark.parametrize("argv", _SUBCOMMAND_ARGV, ids=lambda argv: argv[0])
def test_config_flag_is_rejected(capsys, argv):
    # every setting is a flag of the command that uses it
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--config", "x"])
    assert exc.value.code == 2
    assert "error: unrecognized arguments: --config x" in capsys.readouterr().err


@pytest.mark.parametrize("argv", _SUBCOMMAND_ARGV, ids=lambda argv: argv[0])
def test_cap_flag_is_rejected(capsys, argv):
    # the path limit is fixed: `model.PATH_CAP`
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--cap", "5"])
    assert exc.value.code == 2
    assert "error: unrecognized arguments: --cap 5" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["csv", "model", "namespace", "catalog"])
def test_byte_order_mark_is_ignored(capsys, tmp_path, kind):
    # each text input saved with a UTF-8 byte order mark reads as without one
    for name in ("plain", "bom"):
        d = tmp_path / name
        shutil.copytree(bundled_path("catalog"), d / "catalog")
        shutil.copy(Path(__file__).resolve().parent / "data" / "csv" / "outcome.csv", d)
        shutil.copy(bundled_path("walk_init_first.mudd"), d / "model.mudd")
        (d / "names.txt").write_text("load.causes_walk\nload.pde$_miss\n")
    files = {"csv": "outcome.csv", "model": "model.mudd", "namespace": "names.txt",
             "catalog": "catalog/search_catalog.json"}
    marked = tmp_path / "bom" / files[kind]
    marked.write_bytes(codecs.BOM_UTF8 + marked.read_bytes())
    walk_outcome = str(bundled_path("walk_outcome.mudd"))

    def argv(d):
        return {
            "csv": ["check", walk_outcome, str(d / "outcome.csv")],
            "model": ["paths", str(d / "model.mudd")],
            "namespace": ["paths", str(d / "model.mudd"), "--namespace", str(d / "names.txt")],
            "catalog": ["explore", str(d / "catalog" / "search_catalog.json")],
        }[kind]

    plain = run(capsys, *argv(tmp_path / "plain"))
    assert plain[0] == 0 and plain[2] == ""
    assert run(capsys, *argv(tmp_path / "bom")) == plain


@pytest.mark.parametrize("kind", ["csv", "model", "namespace", "catalog"])
def test_non_utf8_input_names_its_file(capsys, monkeypatch, tmp_path, kind):
    # a byte that is not UTF-8 on line 2 gives one error line naming the file
    shutil.copytree(bundled_path("catalog"), tmp_path / "catalog")
    shutil.copy(Path(__file__).resolve().parent / "data" / "csv" / "outcome.csv", tmp_path)
    shutil.copy(tmp_path / "outcome.csv", tmp_path / "good.csv")
    shutil.copy(bundled_path("walk_init_first.mudd"), tmp_path / "model.mudd")
    (tmp_path / "names.txt").write_text("load.causes_walk\nload.pde$_miss\n")
    walk_outcome = str(bundled_path("walk_outcome.mudd"))
    bad, argv, named = {
        "csv": ("outcome.csv", ["check", walk_outcome, "outcome.csv", "good.csv"],
                "run 'outcome'"),
        "model": ("model.mudd", ["paths", "model.mudd"], "model.mudd"),
        "namespace": ("names.txt", ["paths", "model.mudd", "--namespace", "names.txt"],
                      "names.txt"),
        "catalog": ("catalog/search_catalog.json", ["explore", "catalog/search_catalog.json"],
                    "catalog catalog/search_catalog.json"),
    }[kind]
    first, rest = (tmp_path / bad).read_bytes().split(b"\n", 1)
    (tmp_path / bad).write_bytes(first + b"\n\xff" + rest)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err == f"error: {named} line 2: byte 0xff is not UTF-8 text\n"
    if kind == "csv":  # the batch's other CSV keeps its verdict
        assert out.strip().endswith("good: feasible")
    else:
        assert out == ""


@pytest.mark.parametrize("kind", ["csv", "model", "namespace"])
def test_unreadable_input_is_one_error_line(capsys, monkeypatch, tmp_path, kind):
    # a missing file, or a directory, names the path as given and the reason
    (tmp_path / "dir.csv").mkdir()
    shutil.copy(Path(__file__).resolve().parent / "data" / "csv" / "outcome.csv", tmp_path)
    shutil.copy(bundled_path("walk_outcome.mudd"), tmp_path / "model.mudd")
    argv, line = {
        "csv": (["check", "model.mudd", "dir.csv", "outcome.csv"], "dir.csv: Is a directory"),
        "model": (["paths", "nope.mudd"], "nope.mudd: No such file or directory"),
        "namespace": (["paths", "model.mudd", "--namespace", "nope.txt"],
                      "nope.txt: No such file or directory"),
    }[kind]
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (2, f"error: {line}\n")
    if kind == "csv":  # the batch's other CSV keeps its verdict
        assert out == "model x outcome: feasible\n"
    else:
        assert out == ""


def test_part_of_a_byte_order_mark_is_not_utf8(capsys, tmp_path):
    # not an empty model: the file ends inside a multi-byte sequence
    path = tmp_path / "cut.mudd"
    path.write_bytes(codecs.BOM_UTF8[:2])
    code, out, err = run(capsys, "paths", str(path))
    assert (code, out, err) == (2, "", f"error: {path} line 1: byte 0xef is not UTF-8 text\n")


def test_readme_refutation_runs_as_shown(tmp_path):
    # the README's two-minute refutation, run by `sh` with `python3` and
    # `mudd` meaning this interpreter: each `#   ` line is its output, in order
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("### A two-minute refutation\n\n```sh\n", 1)[1].split("```", 1)[0]
    expected = [line[4:] for line in block.splitlines() if line.startswith("#   ")]
    assert len(expected) == 4
    script = 'python3() { "$PY" "$@"; }\nmudd() { "$PY" -m mudd "$@"; }\n' + block
    proc = subprocess.run(["sh", "-c", script], capture_output=True, cwd=tmp_path,
                          env=dict(src_env(), PY=sys.executable, PYTHONIOENCODING="utf-8"),
                          timeout=120)
    assert proc.returncode == 1, proc.stderr  # the last command, `check`: infeasible
    out = iter(proc.stdout.decode("utf-8").splitlines())
    assert all(line in out for line in expected), proc.stdout  # a subsequence


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
    # only `synth` needs numpy, and only `check` whose workers each get
    # `_CELLS_PER_WORKER` cells a process pool
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
from mudd import feasibility
feasibility._CELLS_PER_WORKER = 1
feasibility._usable_cpus = lambda: 2
assert cli.main(["check", model, csv, csv, "--jobs", "2"]) == 0
print("after check --jobs 2, one cell per worker:", loaded())
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
        "after check --jobs 2: []",
        "after check --jobs 2, one cell per worker: ['concurrent.futures']",
        "after synth: ['concurrent.futures', 'numpy']",
    ]


_BASE = ["mudd", "mudd.cli", "mudd.dsl", "mudd.errors", "mudd.model"]
_GEOMETRY = ["mudd.exact", "mudd.geometry", "mudd.hull"]
# loaded only by what takes an LP or a Fraction, and by a closed stdout
_LAZY = ("decimal", "fractions", "numbers", "signal")


@pytest.mark.parametrize("argv, modules, lazy", [
    (["paths", "haswell_mmu.mudd"], _BASE, []),
    (["constraints", "haswell_mmu.mudd"], _BASE + _GEOMETRY, []),
    (["explore", "catalog/search_catalog.json"], _BASE + _GEOMETRY + ["mudd.exploration"], []),
    (["check", "walk_outcome.mudd", "CSV", "--jobs", "1"],
     _BASE + _GEOMETRY + ["mudd.feasibility", "mudd.linprog", "mudd.stats"],
     ["decimal", "fractions", "numbers"]),
], ids=["paths", "constraints", "explore", "check"])
def test_subcommand_loads_only_the_modules_it_runs(argv, modules, lazy):
    # `python -m mudd <cmd>` in a fresh interpreter: the mudd modules it
    # imports, which of `_LAZY` it imports, and no `dataclasses` or
    # `inspect` (about 10 ms of start-up)
    csv = Path(__file__).resolve().parent / "data" / "csv" / "outcome.csv"
    argv = [str(csv) if a == "CSV" else a for a in argv]
    argv[1] = str(bundled_path(*argv[1].split("/")))
    script = """
import runpy, sys
before = set(sys.modules)
sys.argv = ["mudd", *sys.argv[1:]]
try:
    runpy.run_module("mudd", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
loaded = sorted(set(sys.modules) - before)
print(repr((code, loaded)), file=sys.stderr)
"""
    proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                          text=True, env=src_env(), timeout=120)
    code, loaded = ast.literal_eval(proc.stderr.splitlines()[-1])
    assert code == 0, proc.stderr
    assert [m for m in loaded if m.partition(".")[0] == "mudd"] == sorted(modules)
    assert [m for m in loaded if m in _LAZY] == lazy
    assert "dataclasses" not in loaded and "inspect" not in loaded


def test_exit_freezes_the_live_heap(capsys):
    # `entry` registers `gc.freeze` with atexit before `main` runs, so the
    # collections of interpreter shutdown skip every object alive at exit;
    # a hook registered before `entry` runs after it, as the last one
    argv = ["paths", str(bundled_path("haswell_mmu.mudd")),
            "--namespace", str(bundled_path("haswell_counters.txt"))]
    script = """
import atexit, gc, sys
atexit.register(lambda: print("frozen:", gc.get_freeze_count(), file=sys.stderr))
sys.argv = ["mudd", *sys.argv[1:]]
from mudd import cli
cli.entry()
"""
    proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                          text=True, env=src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    label, count = proc.stderr.splitlines()[-1].split()
    assert label == "frozen:" and int(count) > 0
    code, out, _ = run(capsys, *argv)
    assert code == 0 and proc.stdout == out


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
def test_closed_stdout_ends_the_process_silently():
    # as a process killed by SIGPIPE ends: no error line, and the signal's status
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "mudd", "paths", str(bundled_path("haswell_mmu.mudd"))],
            stdout=write_end, stderr=subprocess.PIPE, env=src_env(), timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (-signal.SIGPIPE, b"")


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
    # 1 means "some observation infeasible", so a bug must not exit 1; a
    # ValueError is a bug too, since mudd raises every input error as MuddError
    from mudd import cli

    for error in (RuntimeError, ValueError):
        def broken(args):
            raise error("boom")

        monkeypatch.setattr(cli, "cmd_paths", broken)
        monkeypatch.setattr(sys, "argv", ["mudd", "paths", walk_model])
        with pytest.raises(SystemExit) as exc:
            cli.entry()
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("Traceback (most recent call last):\n")
        assert err.endswith(f"{error.__name__}: boom\n")
