"""Tests for the skyup command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.data.io import load_points_csv


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0
        assert "skyup" in capsys.readouterr().out


class TestGenerate:
    def test_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "pts.csv"
        code = main(
            [
                "generate",
                str(out),
                "--distribution",
                "anti_correlated",
                "--n",
                "50",
                "--dims",
                "3",
                "--seed",
                "1",
            ]
        )
        assert code == 0
        points, _ = load_points_csv(out)
        assert points.shape == (50, 3)
        assert "anti_correlated" in capsys.readouterr().out


class TestRun:
    @pytest.fixture()
    def csv_pair(self, tmp_path):
        p_csv = tmp_path / "p.csv"
        t_csv = tmp_path / "t.csv"
        main(["generate", str(p_csv), "--n", "120", "--dims", "2",
              "--seed", "3"])
        main(["generate", str(t_csv), "--n", "15", "--dims", "2",
              "--seed", "4", "--low", "1.0", "--high", "2.0"])
        return p_csv, t_csv

    @pytest.mark.parametrize("method", ["auto", "join", "probing", "basic-probing"])
    def test_run_methods(self, csv_pair, capsys, method):
        p_csv, t_csv = csv_pair
        code = main(
            [
                "run",
                "--competitors",
                str(p_csv),
                "--products",
                str(t_csv),
                "--k",
                "3",
                "--method",
                method,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert lines[0].startswith("rank,")
        assert len(lines) == 4  # header + k rows

    def test_run_with_counters(self, csv_pair, capsys):
        p_csv, t_csv = csv_pair
        code = main(
            [
                "run",
                "--competitors",
                str(p_csv),
                "--products",
                str(t_csv),
                "--show-counters",
            ]
        )
        assert code == 0
        assert "# node_accesses=" in capsys.readouterr().out

    def test_run_methods_agree(self, csv_pair, capsys):
        p_csv, t_csv = csv_pair

        def costs_for(method):
            main(
                [
                    "run",
                    "--competitors", str(p_csv),
                    "--products", str(t_csv),
                    "--k", "3",
                    "--method", method,
                ]
            )
            out = capsys.readouterr().out
            return [
                float(line.split(",")[2])
                for line in out.splitlines()
                if line and line[0].isdigit()
            ]

        assert costs_for("join") == pytest.approx(costs_for("probing"))


class TestCatalog:
    def test_catalog_command(self, tmp_path, capsys):
        path = tmp_path / "catalog.csv"
        main(["generate", str(path), "--n", "150", "--dims", "2",
              "--seed", "8"])
        capsys.readouterr()
        code = main(["catalog", "--catalog", str(path), "--k", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "competitive" in out
        rows = [l for l in out.splitlines() if l and l[0].isdigit()]
        assert len(rows) == 3

    def test_catalog_methods_agree(self, tmp_path, capsys):
        path = tmp_path / "catalog.csv"
        main(["generate", str(path), "--n", "120", "--dims", "2",
              "--seed", "9"])
        capsys.readouterr()

        def costs_for(method):
            main(["catalog", "--catalog", str(path), "--k", "2",
                  "--method", method])
            out = capsys.readouterr().out
            return [
                float(l.split(",")[2])
                for l in out.splitlines()
                if l and l[0].isdigit()
            ]

        assert costs_for("join") == pytest.approx(costs_for("probing"))


class TestFigure:
    def test_list(self, capsys):
        assert main(["figure", "list"]) == 0
        out = capsys.readouterr().out
        for fid in ["fig4", "fig6a", "fig10"]:
            assert fid in out

    def test_unknown_figure(self, capsys):
        assert main(["figure", "nope"]) == 2
        assert "unknown figure" in capsys.readouterr().err

    def test_figure_quick_run(self, capsys):
        code = main(["figure", "fig9c", "--scale", "2000", "--quick"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fig9c" in out
        assert "join-alb" in out


class TestServeBench:
    def test_reports_speedup_and_writes_json(self, tmp_path, capsys):
        out = tmp_path / "BENCH_serve.json"
        code = main(
            [
                "serve-bench",
                "--competitors", "250",
                "--products", "120",
                "--requests", "120",
                "--hot-pool", "16",
                "--topk-every", "20",
                "--save-json", str(out),
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "speedup (cached/cold):" in text
        assert "cold" in text and "cached" in text
        import json

        report = json.loads(out.read_text())
        # Work, not wall time: the cached half answers its hits without
        # pricing, so it runs strictly fewer Algorithm 1 calls and
        # dominance tests on the identical request sequence.
        cold, cached = report["cold"]["counters"], report["cached"]["counters"]
        assert cached["upgrade_calls"] < cold["upgrade_calls"]
        assert cached["dominance_tests"] < cold["dominance_tests"]
        assert report["speedup"] > 0.0
        assert report["cached"]["cache_hits"] > 0
        assert report["cold"]["cache_hits"] == 0
        assert report["workload"]["requests"] == 120
        assert "timings_s" in report["cold"]

    def test_rejects_nonpositive_sizes(self, capsys):
        code = main(["serve-bench", "--requests", "0"])
        assert code == 2
        err = capsys.readouterr().err
        assert "invalid --requests 0" in err
        assert "must be >= 1" in err

    def test_sharded_run_reports_per_process_health(
        self, tmp_path, capsys
    ):
        out = tmp_path / "BENCH_serve_sharded.json"
        code = main(
            [
                "serve-bench",
                "--competitors", "200",
                "--products", "80",
                "--requests", "60",
                "--hot-pool", "16",
                "--topk-every", "20",
                "--processes", "2",
                "--shards", "4",
                "--save-json", str(out),
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "sharded: 2 processes x 4 shards" in text
        assert "proc 0:" in text and "proc 1:" in text
        import json

        report = json.loads(out.read_text())
        stats = report["sharded"]["shards"]
        assert stats["n_processes"] == 2
        assert stats["n_shards"] == 4
        owned = [p["shards"] for p in stats["per_process"]]
        assert sorted(s for shards in owned for s in shards) == [0, 1, 2, 3]
        for proc in stats["per_process"]:
            assert proc["crashes"] == 0
            assert proc["alive"] is True
        assert report["sharded"]["reliability"]["worker_respawns"] == 0
        assert report["workload"]["processes"] == 2

    def test_rejects_inconsistent_topology(self, capsys):
        code = main(["serve-bench", "--processes", "2", "--shards", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "invalid --shards 1" in err
        assert "--processes" in err
        code = main(["serve-bench", "--shards", "2"])
        assert code == 2
        assert "requires --processes" in capsys.readouterr().err

    def test_unknown_fault_point_suggests(self, capsys):
        code = main(["serve-bench", "--fault-points", "serve.cach"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown --fault-points 'serve.cach'" in err
        assert "did you mean 'serve.cache'?" in err


class TestBenchKernels:
    def test_prints_table_and_writes_json(self, tmp_path, capsys):
        out = tmp_path / "BENCH_kernels.json"
        code = main(
            [
                "bench-kernels",
                "--competitors", "300",
                "--products", "60",
                "--dims", "2",
                "--repeats", "1",
                "--save-json", str(out),
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "scalar_s" in text and "kernel_s" in text
        assert "all cells agree" in text
        import json

        report = json.loads(out.read_text())
        assert report["all_agree"] is True
        names = [c["cell"] for c in report["cells"]]
        assert "probing_batch" in names
        assert any(n.startswith("join[") for n in names)

    @pytest.mark.parametrize(
        "flag", ["--competitors", "--products", "--dims", "--repeats"]
    )
    def test_rejects_nonpositive_sizes(self, capsys, flag):
        code = main(["bench-kernels", flag, "0"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"invalid {flag} 0" in err
        assert "must be >= 1" in err

    def test_rejects_unknown_bound(self, capsys):
        code = main(["bench-kernels", "--bound", "tight"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown bound 'tight'" in err and "clb" in err


class TestExplain:
    def test_text_tree(self, capsys):
        code = main(
            [
                "explain",
                "--n-competitors", "300",
                "--n-products", "120",
                "--k", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "topk k=3" in out
        assert "(chosen)" in out
        assert "est=" in out and "act=" in out
        # All five physical alternatives appear as candidates.
        for label in ["join[nlb]", "join[clb]", "join[alb]", "probing",
                      "basic-probing"]:
            assert label in out

    def test_json_validates_against_schema(self, capsys):
        import json

        from repro.plan.explain import validate_explain_json

        code = main(
            [
                "explain",
                "--n-competitors", "300",
                "--n-products", "120",
                "--k", "3",
                "--format", "json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        validate_explain_json(doc)

    def test_no_execute_estimates_only(self, capsys):
        code = main(
            [
                "explain",
                "--n-competitors", "300",
                "--n-products", "120",
                "--no-execute",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "est=" in out
        assert "act=" not in out

    def test_forced_method_is_marked(self, capsys):
        code = main(
            [
                "explain",
                "--n-competitors", "300",
                "--n-products", "120",
                "--method", "probing",
                "--no-execute",
            ]
        )
        assert code == 0
        assert "(forced)" in capsys.readouterr().out

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "explain.json"
        code = main(
            [
                "explain",
                "--n-competitors", "300",
                "--n-products", "120",
                "--no-execute",
                "--format", "json",
                "--out", str(out),
            ]
        )
        assert code == 0
        import json

        json.loads(out.read_text())
        assert "explain written" in capsys.readouterr().out

    def test_rejects_half_a_csv_pair(self, tmp_path, capsys):
        code = main(["explain", "--competitors", str(tmp_path / "p.csv")])
        assert code == 2
        assert "both --competitors and --products" in (
            capsys.readouterr().err
        )

    def test_rejects_nonpositive_sizes(self, capsys):
        code = main(["explain", "--k", "0"])
        assert code == 2
        err = capsys.readouterr().err
        assert "invalid --k 0" in err and "must be >= 1" in err


class TestBenchPlannerCLI:
    def test_rejects_bad_dims_list(self, capsys):
        code = main(["bench-planner", "--dims", "2,x"])
        assert code == 2
        assert "comma-separated integers" in capsys.readouterr().err

    def test_rejects_nonpositive_repeats(self, capsys):
        code = main(["bench-planner", "--repeats", "0"])
        assert code == 2
        err = capsys.readouterr().err
        assert "invalid --repeats 0" in err and "must be >= 1" in err


class TestMethodFlags:
    def test_serve_bench_auto_reports_plans(self, capsys):
        code = main(
            [
                "serve-bench",
                "--competitors", "250",
                "--products", "120",
                "--requests", "60",
                "--hot-pool", "16",
                "--topk-every", "20",
                "--method", "auto",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "plans:" in out

    def test_bench_kernels_auto_reports_chosen_plan(self, capsys):
        code = main(
            [
                "bench-kernels",
                "--competitors", "300",
                "--products", "60",
                "--repeats", "1",
                "--method", "auto",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "plan=" in out
        assert "end_to_end[auto]" in out

    def test_bench_kernels_rejects_unknown_method(self, capsys):
        # argparse enforces the choices list before our handler runs.
        with pytest.raises(SystemExit) as exc:
            main(["bench-kernels", "--method", "quantum"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
