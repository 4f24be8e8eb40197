import argparse
import ast
import itertools
import json
import pathlib

import numpy as np
import pytest

from stbclab import cli, decoders, diversity, lindesign, simharness
from stbclab.constructions import build_diagonal_code


class TestBuild:
    def test_writes_design_and_grouping(self, tmp_path, capsys):
        out = tmp_path / "code.json"
        rc = cli.main(["build", "--family", "sec3", "--antennas", "3",
                       "--lambda", "2", "--layers", "4", "--out", str(out)])
        assert rc == 0
        design = lindesign.design_from_json(json.loads(out.read_text()))
        assert design.num_real_symbols == 16 and design.delay == 6
        grouping = lindesign.grouping_from_json(
            json.loads((tmp_path / "code.grouping.json").read_text()))
        assert grouping.num_groups == 8
        text = capsys.readouterr().out
        assert "rate=4/3" in text

    def test_sec4_build(self, tmp_path):
        out = tmp_path / "c4.json"
        rc = cli.main(["build", "--family", "sec4", "--antennas", "4",
                       "--layers", "2", "--out", str(out)])
        assert rc == 0
        assert lindesign.design_from_json(json.loads(out.read_text())).antennas == 4

    def test_infeasible_is_exit_1(self, tmp_path, capsys):
        rc = cli.main(["build", "--family", "sec3", "--antennas", "2",
                       "--lambda", "3", "--layers", "1",
                       "--out", str(tmp_path / "x.json")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_a_rotation_past_dim_11_is_exit_1(self, tmp_path, capsys):
        rc = cli.main(["build", "--family", "sec3", "--antennas", "14",
                       "--lambda", "14", "--layers", "1",
                       "--out", str(tmp_path / "x.json")])
        assert rc == 1
        assert "unsupported rotation dimension 14" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    def test_missing_lambda_is_exit_1(self, tmp_path):
        rc = cli.main(["build", "--family", "sec3", "--antennas", "2",
                       "--layers", "1", "--out", str(tmp_path / "x.json")])
        assert rc == 1

    @pytest.mark.parametrize("out, grouping", [
        ("./design", "design.grouping"),
        ("out.v2/design", "out.v2/design.grouping"),
    ])
    def test_dot_in_a_directory_name_stays_in_the_path(self, tmp_path, monkeypatch,
                                                        out, grouping):
        # only the file name's extension is split off for the grouping path
        monkeypatch.chdir(tmp_path)
        (tmp_path / "out.v2").mkdir()
        rc = cli.main(["build", "--family", "sec4", "--antennas", "4",
                       "--layers", "2", "--out", out])
        assert rc == 0
        assert lindesign.grouping_from_json(
            json.loads((tmp_path / grouping).read_text())).num_groups == 8

    @pytest.mark.parametrize("grouping", ["a.json", "./a.json", "sub/../a.json"])
    def test_one_path_for_both_files_is_exit_1(self, tmp_path, monkeypatch, capsys,
                                               grouping):
        # the grouping would overwrite the design; nothing is written
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        rc = cli.main(["build", "--family", "sec4", "--antennas", "4", "--layers", "2",
                       "--out", "a.json", "--grouping-out", grouping])
        assert rc == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "a.json").exists()

    @pytest.mark.parametrize("existing", [False, True])
    @pytest.mark.parametrize("out, grouping", [
        ("a.json", "nodir/g.json"), ("nodir/a.json", "g.json"),
        ("a.json", "d"), ("d", "g.json"),
    ])
    def test_a_path_that_cannot_be_written_leaves_both_files(self, tmp_path, monkeypatch,
                                                             capsys, out, grouping, existing):
        # whichever file fails, neither is created or changed
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d").mkdir()
        if existing:
            for name in ("a.json", "g.json"):
                (tmp_path / name).write_text("old\n")
        before = sorted((p.name, p.is_file() and p.read_text()) for p in tmp_path.iterdir())
        rc = cli.main(["build", "--family", "sec4", "--antennas", "4", "--layers", "2",
                       "--out", out, "--grouping-out", grouping])
        assert rc == 1
        assert "error:" in capsys.readouterr().err
        assert sorted((p.name, p.is_file() and p.read_text())
                      for p in tmp_path.iterdir()) == before


@pytest.mark.parametrize("argv", [
    ["build", "--family", "sec4", "--antennas", "2", "--layers", "1", "--out", "{d}"],
    ["simulate", "--config", "{d}"],
    ["tradeoff", "--antennas", "2", "--delay", "2", "--csv", "{d}"],
])
def test_a_directory_for_a_file_is_exit_1(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    rc = cli.main([a.format(d=tmp_path) for a in argv])
    assert rc == 1
    assert "error: [Errno 21] Is a directory" in capsys.readouterr().err


# Each command that writes files: a command line that works, its output
# flags, and the call that does its work.
OUTPUT_COMMANDS = {
    "build": (["build", "--family", "sec4", "--antennas", "2", "--layers", "1"],
              ["--out", "--grouping-out"], (cli, "build_code")),
    "verify": (["verify", "--family", "sec4", "--antennas", "2", "--layers", "1",
                "--mode", "pic", "--trials", "5", "--pam-levels", "2"],
               ["--out"], (diversity, "certify")),
    "tradeoff": (["tradeoff", "--antennas", "2", "--delay", "2"], ["--csv", "--svg"],
                 (simharness, "render_tradeoff")),
    "simulate": (["simulate", "--config", "cfg.json"], ["--csv", "--json-out", "--svg"],
                 (simharness, "run_simulation")),
}
# The same commands, failing in their work: an infeasible code, a negative
# trial count, an infeasible (N, T) and a config of sec4 with an odd N.
FAILING_COMMANDS = {
    "build": ["build", "--family", "sec3", "--antennas", "2", "--lambda", "3", "--layers", "1"],
    "verify": OUTPUT_COMMANDS["verify"][0] + ["--trials", "-1"],
    "tradeoff": ["tradeoff", "--antennas", "4", "--delay", "2"],
    "simulate": ["simulate", "--config", "odd.json"],
}


class TestOutputRule:
    @pytest.fixture
    def cwd(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = dict(family="sec4", antennas=2, layers=1, snr_grid_db=[10.0],
                   min_frame_errors=1, max_frames=8)
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        (tmp_path / "odd.json").write_text(json.dumps(dict(cfg, antennas=3)))
        (tmp_path / "d").mkdir()
        return tmp_path

    @staticmethod
    def listing(root):
        return sorted((str(p.relative_to(root)), p.is_file() and p.read_text())
                      for p in root.rglob("*"))

    @staticmethod
    def put_old(root, paths):
        """An old file at each of the paths that can hold one."""
        for path in paths:
            if (root / path).parent.is_dir() and not (root / path).is_dir():
                (root / path).write_text("old\n")

    @staticmethod
    def run(argv, paths):
        """cli.main on argv with each output flag's path."""
        return cli.main(argv + [a for flag, path in paths.items() for a in (flag, path)])

    @pytest.mark.parametrize("existing", [False, True])
    @pytest.mark.parametrize("bad", ["nodir/x", "d"])
    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command, (_, flags, _) in OUTPUT_COMMANDS.items()
        for flag in flags])
    def test_a_path_that_cannot_be_written_fails_before_the_work(
            self, cwd, monkeypatch, capsys, command, flag, bad, existing):
        argv, flags, (owner, work) = OUTPUT_COMMANDS[command]
        monkeypatch.setattr(owner, work, lambda *a, **k: pytest.fail("the work ran"))
        paths = {f: f"out{i}" for i, f in enumerate(flags)}
        paths[flag] = bad
        if existing:
            self.put_old(cwd, paths.values())
        before = self.listing(cwd)
        assert self.run(argv, paths) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: [Errno")
        assert self.listing(cwd) == before

    @pytest.mark.parametrize("existing", [False, True])
    @pytest.mark.parametrize("command, pair", [
        (command, pair) for command, (_, flags, _) in OUTPUT_COMMANDS.items()
        for pair in itertools.combinations(flags, 2)])
    def test_two_outputs_on_one_path_fail_before_the_work(
            self, cwd, monkeypatch, capsys, command, pair, existing):
        argv, flags, (owner, work) = OUTPUT_COMMANDS[command]
        monkeypatch.setattr(owner, work, lambda *a, **k: pytest.fail("the work ran"))
        paths = {f: f"out{i}" for i, f in enumerate(flags)}
        paths.update(zip(pair, ("x", "d/../x")))
        if existing:
            self.put_old(cwd, paths.values())
        before = self.listing(cwd)
        assert self.run(argv, paths) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "error: x and d/../x are one file; give each output its own\n"
        assert self.listing(cwd) == before

    @pytest.mark.parametrize("existing", [False, True])
    @pytest.mark.parametrize("command", sorted(FAILING_COMMANDS))
    def test_a_failure_after_the_check_leaves_no_created_file(self, cwd, capsys, command,
                                                              existing):
        flags = OUTPUT_COMMANDS[command][1]
        paths = {f: f"out{i}" for i, f in enumerate(flags)}
        if existing:
            self.put_old(cwd, paths.values())
        before = self.listing(cwd)
        assert self.run(FAILING_COMMANDS[command], paths) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert self.listing(cwd) == before

    def test_an_interrupted_sweep_leaves_no_created_file(self, cwd, monkeypatch):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(simharness, "run_simulation", interrupted)
        (cwd / "old.csv").write_text("old\n")
        before = self.listing(cwd)
        with pytest.raises(KeyboardInterrupt):
            cli.main(["simulate", "--config", "cfg.json", "--csv", "old.csv",
                      "--json-out", "r.json", "--svg", "r.svg"])
        assert self.listing(cwd) == before


@pytest.mark.parametrize("value", [5, "x", [1, 2]])
@pytest.mark.parametrize("which", ["config", "design", "grouping"])
def test_an_input_that_is_not_a_json_object_is_named(tmp_path, capsys, which, value):
    design, grouping, _ = build_diagonal_code(2, 2, 1)
    paths = {name: tmp_path / f"{name}.json" for name in ("config", "design", "grouping")}
    paths["design"].write_text(json.dumps(lindesign.design_to_json(design)))
    paths["grouping"].write_text(json.dumps(lindesign.grouping_to_json(grouping)))
    paths[which].write_text(json.dumps(value))
    argv = (["simulate", "--config", str(paths["config"])] if which == "config" else
            ["verify", "--design", str(paths["design"]), "--grouping", str(paths["grouping"]),
             "--mode", "pic", "--trials", "5", "--pam-levels", "2"])
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == (f"error: expected a JSON object, got "
                                       f"{type(value).__name__} (in {paths[which]})\n")


def test_only_cli_touches_files():
    # open, json.load and json.dump are called in cli alone, and no function
    # elsewhere takes a path
    package = pathlib.Path(cli.__file__).parent
    for module in sorted(package.glob("*.py")):
        if module.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(module.read_text())):
            if isinstance(node, ast.Call):
                f = node.func
                assert not (isinstance(f, ast.Name) and f.id == "open"), module.name
                assert not (isinstance(f, ast.Attribute) and f.attr == "open"), module.name
                assert not (isinstance(f, ast.Attribute) and f.attr in ("load", "dump")
                            and isinstance(f.value, ast.Name) and f.value.id == "json"), \
                    module.name
            if isinstance(node, ast.arguments):
                names = [a.arg for a in node.posonlyargs + node.args + node.kwonlyargs]
                assert not [n for n in names if "path" in n], (module.name, names)


class TestVerify:
    def test_help_says_exit_0_is_not_a_proof(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["verify", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert "no witness was found within this budget" in text
        assert "does not prove full diversity" in text
        assert "true is a proof for the named --mode only" in text
        assert "false means not proven" in text

    def test_named_code_passes(self, capsys):
        rc = cli.main(["verify", "--family", "sec4", "--antennas", "4",
                       "--layers", "2", "--mode", "picsic", "--trials", "50",
                       "--pam-levels", "2"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["certified"] is True
        assert report["witness"] is None
        assert report["budget"]["trials_per_group"] == 50

    @pytest.mark.parametrize("code", [
        ["--family", "sec3", "--antennas", "2", "--lambda", "2", "--layers", "3"],
        ["--family", "sec4", "--antennas", "4", "--layers", "3"]])
    def test_pic_certifies_only_what_it_proves(self, code, capsys):
        # both codes are PIC-SIC full-diversity; under PIC a middle layer
        # can be cancelled (sec3(2,2,3): see notes/decisions.md)
        certified = {}
        for mode in ("pic", "picsic"):
            assert cli.main(["verify", *code, "--mode", mode, "--trials", "10",
                             "--pam-levels", "2"]) == 0
            certified[mode] = json.loads(capsys.readouterr().out)["certified"]
        assert certified == {"pic": False, "picsic": True}

    def test_design_files_are_certified_as_the_named_code(self, tmp_path, capsys):
        code = ["--family", "sec4", "--antennas", "4", "--layers", "2"]
        out = tmp_path / "c4.json"
        assert cli.main(["build", *code, "--out", str(out)]) == 0
        capsys.readouterr()
        for mode in ("pic", "picsic"):
            reports = []
            for source in (code, ["--design", str(out),
                                  "--grouping", str(tmp_path / "c4.grouping.json")]):
                assert cli.main(["verify", *source, "--mode", mode, "--trials", "10",
                                 "--pam-levels", "2"]) == 0
                reports.append(json.loads(capsys.readouterr().out))
            assert reports[0]["certified"] is True
            assert reports[1]["certified"] is reports[0]["certified"]

    def test_broken_design_found_exit_2(self, tmp_path, capsys):
        design, grouping, _ = build_diagonal_code(2, 2, 1, rotation=np.eye(2),
                                                  normalize=False)
        dpath, gpath = tmp_path / "d.json", tmp_path / "g.json"
        dpath.write_text(json.dumps(lindesign.design_to_json(design)))
        gpath.write_text(json.dumps(lindesign.grouping_to_json(grouping)))
        rc = cli.main(["verify", "--design", str(dpath), "--grouping", str(gpath),
                       "--mode", "pic", "--trials", "20", "--pam-levels", "2",
                       "--out", str(tmp_path / "report.json")])
        assert rc == 2
        text = (tmp_path / "report.json").read_text()
        assert text == capsys.readouterr().out  # the printed JSON and a newline
        report = json.loads(text)
        assert report["certified"] is False
        assert report["witness"]["group"] == 1
        assert report["witness"]["difference"] == [2, 0]

    def test_negative_trials_is_exit_1(self, capsys):
        rc = cli.main(["verify", "--family", "sec4", "--antennas", "4",
                       "--layers", "2", "--mode", "pic", "--trials", "-1"])
        assert rc == 1
        assert "error: trials_per_group" in capsys.readouterr().err

    def test_negative_seed_is_exit_1(self, capsys):
        rc = cli.main(["verify", "--family", "sec4", "--antennas", "4",
                       "--layers", "2", "--mode", "pic", "--seed", "-1"])
        assert rc == 1
        assert "error: rng_seed" in capsys.readouterr().err

    def _verify_files(self, tmp_path, design_doc, grouping_doc):
        dpath, gpath = tmp_path / "d.json", tmp_path / "g.json"
        dpath.write_text(json.dumps(design_doc))
        gpath.write_text(json.dumps(grouping_doc))
        return cli.main(["verify", "--design", str(dpath), "--grouping", str(gpath),
                         "--mode", "pic", "--trials", "10", "--pam-levels", "2"])

    def test_malformed_design_file_is_exit_1(self, tmp_path, capsys):
        design, grouping, _ = build_diagonal_code(2, 2, 1)
        short_row, extra_matrix = (lindesign.design_to_json(design) for _ in range(2))
        short_row["matrices"][0][0] = short_row["matrices"][0][0][:1]
        extra_matrix["matrices"].append(extra_matrix["matrices"][0])
        for doc in (short_row, extra_matrix):
            assert self._verify_files(
                tmp_path, doc, lindesign.grouping_to_json(grouping)) == 1
            assert "error:" in capsys.readouterr().err

    def test_non_finite_design_file_is_exit_1(self, tmp_path, capsys):
        # json writes and reads Infinity and NaN; the design must name them
        design, grouping, _ = build_diagonal_code(2, 2, 1)
        for value in (float("inf"), float("nan")):
            doc = lindesign.design_to_json(design)
            doc["matrices"][0][0][0][0] = value
            assert self._verify_files(tmp_path, doc,
                                      lindesign.grouping_to_json(grouping)) == 1
            assert "error: weight matrices must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["K", "T", "N", "power_scale", "matrices"])
    def test_design_file_without_a_key_names_the_key_and_the_file(self, tmp_path, capsys,
                                                                 key):
        design, grouping, _ = build_diagonal_code(2, 2, 1)
        doc = lindesign.design_to_json(design)
        del doc[key]
        assert self._verify_files(tmp_path, doc, lindesign.grouping_to_json(grouping)) == 1
        err = capsys.readouterr().err
        assert f"design is missing key(s) {key}" in err
        assert str(tmp_path / "d.json") in err

    def test_grouping_file_without_groups_names_the_key_and_the_file(self, tmp_path,
                                                                     capsys):
        design, _, _ = build_diagonal_code(2, 2, 1)
        doc = lindesign.design_to_json(design)
        assert self._verify_files(tmp_path, doc, {"group": [[1, 2], [3, 4]]}) == 1
        err = capsys.readouterr().err
        assert "grouping is missing key(s) groups" in err
        assert str(tmp_path / "g.json") in err

    @pytest.mark.parametrize("which, key, value", [
        ("design", "K", None), ("grouping", "groups", 5), ("grouping", "groups", [5])])
    def test_a_value_of_the_wrong_type_names_the_file(self, tmp_path, capsys, which, key,
                                                      value):
        design, grouping, _ = build_diagonal_code(2, 2, 1)
        docs = {"design": lindesign.design_to_json(design),
                "grouping": lindesign.grouping_to_json(grouping)}
        docs[which][key] = value
        assert self._verify_files(tmp_path, docs["design"], docs["grouping"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.endswith(f" (in {tmp_path / ('d.json' if which == 'design' else 'g.json')})\n")

    def test_grouping_of_other_than_k_symbols_is_exit_1(self, tmp_path, capsys):
        design, _, _ = build_diagonal_code(2, 2, 1)  # K = 4
        for groups in ([[1], [2]], [[1, 2], [3, 4], [5, 6]]):
            assert self._verify_files(tmp_path, lindesign.design_to_json(design),
                                      {"groups": groups}) == 1
            assert "error: grouping covers" in capsys.readouterr().err

    @pytest.mark.parametrize("code", [
        [], ["--family", "sec4"], ["--family", "sec4", "--antennas", "4"],
    ])
    def test_incomplete_code_is_named(self, capsys, code):
        rc = cli.main(["verify", "--mode", "pic"] + code)
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: verify needs --design with --grouping, "
            "or --family, --antennas and --layers\n")

    def test_design_without_grouping_is_exit_1(self, tmp_path):
        rc = cli.main(["verify", "--design", str(tmp_path / "missing.json"),
                       "--mode", "pic"])
        assert rc == 1


class TestTradeoff:
    def test_writes_table_and_plot(self, tmp_path, capsys):
        csv = tmp_path / "t.csv"
        svg = tmp_path / "t.svg"
        rc = cli.main(["tradeoff", "--antennas", "8", "--delay", "12",
                       "--csv", str(csv), "--svg", str(svg)])
        assert rc == 0
        assert csv.exists() and svg.exists()
        out = capsys.readouterr().out
        assert "diagonal_coarse" in out

    def test_infeasible(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # where the default output paths lie
        assert cli.main(["tradeoff", "--antennas", "4", "--delay", "2"]) == 1
        assert cli.main(["tradeoff", "--antennas", "0", "--delay", "2"]) == 1
        assert "antennas, group size and layers must be positive" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestSimulate:
    def config(self, tmp_path, **extra):
        doc = dict(family="sec4", antennas=2, layers=1, receive_antennas=1,
                   qam=4, decoder="picsic", search_mode="conditioned",
                   snr_grid_db=[6.0, 10.0], min_frame_errors=10,
                   max_frames=300, master_seed=3)
        doc.update(extra)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        return path

    def test_runs_and_writes(self, tmp_path, capsys):
        cfg = self.config(tmp_path)
        csv, js, svg = tmp_path / "r.csv", tmp_path / "r.json", tmp_path / "r.svg"
        rc = cli.main(["simulate", "--config", str(cfg), "--csv", str(csv),
                       "--json-out", str(js), "--svg", str(svg)])
        assert rc == 0
        assert csv.read_text().startswith("snr_db,")
        assert "ber=" in capsys.readouterr().out
        text = js.read_text()
        assert text == json.dumps(json.loads(text), indent=1) + "\n"
        result = simharness.SimResult.from_json(json.loads(text))
        assert csv.read_text() == result.to_csv()
        assert svg.read_text() == simharness.render_ber_curves(
            {"picsic": result}, title="sec4 N=2 n=1 picsic")

    def test_worker_counts_byte_identical(self, tmp_path):
        cfg = self.config(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["simulate", "--config", str(cfg), "--csv", str(a),
                         "--workers", "1"]) == 0
        assert cli.main(["simulate", "--config", str(cfg), "--csv", str(b),
                         "--workers", "2"]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("workers", ["0", "-5"])
    def test_workers_below_one_is_exit_1(self, tmp_path, capsys, workers):
        cfg = self.config(tmp_path, max_frames=8)
        assert cli.main(["simulate", "--config", str(cfg), "--workers", workers]) == 1
        assert "error: workers must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", [[8.0, float("nan")], [8.0, float("inf")],
                                      [-float("inf"), 0.0]])
    def test_non_finite_snr_grid_is_exit_1_before_any_point(self, tmp_path, capsys, grid):
        cfg = self.config(tmp_path, snr_grid_db=grid, max_frames=8)
        assert cli.main(["simulate", "--config", str(cfg)]) == 1
        out, err = capsys.readouterr()
        assert "error: snr_grid_db must be finite" in err and "snr=" not in out

    def test_non_finite_snr_flag_is_exit_1(self, tmp_path, capsys):
        cfg = self.config(tmp_path, max_frames=8)
        assert cli.main(["simulate", "--config", str(cfg), "--snr", "8,nan"]) == 1
        out, err = capsys.readouterr()
        assert "error: snr_grid_db must be finite" in err and "snr=" not in out

    @pytest.mark.parametrize("key, value", [("snr_grid_db", "16"), ("max_frames", 10.5),
                                            ("master_seed", True), ("snr_grid_db", [True, 12]),
                                            ("snr_grid_db", [8, [12]]), ("decoder", ["pic"])])
    def test_config_value_of_the_wrong_type_is_exit_1_before_any_point(self, tmp_path, capsys,
                                                                       key, value):
        # "16" ran 1 dB and 6 dB, 10.5 failed inside the sweep, true ran seed 1,
        # [true, 12] a 1 dB point; [8, [12]] and ["pic"] failed without the key
        cfg = self.config(tmp_path, **{key: value})
        assert cli.main(["simulate", "--config", str(cfg)]) == 1
        out, err = capsys.readouterr()
        assert err.startswith(f"error: {key} must be ") and "snr=" not in out

    def test_snr_flag_that_is_not_numbers_is_named(self, tmp_path, capsys):
        cfg = self.config(tmp_path, max_frames=8)
        assert cli.main(["simulate", "--config", str(cfg), "--snr", "8,,12"]) == 1
        assert capsys.readouterr().err == (
            "error: --snr takes comma-separated dB values, got '8,,12'\n")

    def test_flag_overrides(self, tmp_path):
        cfg = self.config(tmp_path)
        csv = tmp_path / "o.csv"
        rc = cli.main(["simulate", "--config", str(cfg), "--csv", str(csv),
                       "--snr", "8", "--decoder", "zf", "--max-frames", "64"])
        assert rc == 0
        lines = csv.read_text().splitlines()
        assert len(lines) == 2 and lines[1].startswith("8.0,64,")

    def test_output_flags_override_config_keys(self, tmp_path):
        # a config that names both outputs, and flags that name them again
        keyed = {"csv_out": tmp_path / "key.csv", "json_out": tmp_path / "key.json"}
        cfg = self.config(tmp_path, max_frames=8,
                          **{k: str(v) for k, v in keyed.items()})
        csv, js = tmp_path / "flag.csv", tmp_path / "flag.json"
        assert cli.main(["simulate", "--config", str(cfg), "--csv", str(csv),
                         "--json-out", str(js)]) == 0
        assert csv.read_text().startswith("snr_db,")
        assert simharness.SimResult.from_json(json.loads(js.read_text())).points[0].frames == 8
        assert not any(p.exists() for p in keyed.values())
        # without the flags the keys still name the outputs
        assert cli.main(["simulate", "--config", str(cfg)]) == 0
        assert all(p.exists() for p in keyed.values())

    def test_overloaded_link_warns(self, tmp_path, capsys):
        # sec4(4,2) has K = 16 and T = 6: N_r = 1 gives 12 < 16 observations
        for receive_antennas, warned in ((1, True), (2, False)):
            cfg = self.config(tmp_path, antennas=4, layers=2,
                              receive_antennas=receive_antennas, max_frames=8)
            assert cli.main(["simulate", "--config", str(cfg)]) == 0
            assert ("overloaded link" in capsys.readouterr().err) is warned

    def test_points_left_out_of_the_fit_are_named(self, tmp_path, capsys):
        cfg = self.config(tmp_path, antennas=4, layers=2, receive_antennas=2,
                          snr_grid_db=[0.0, 4.0, 30.0], min_frame_errors=10_000,
                          max_frames=256)
        assert cli.main(["simulate", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "fit over [0.0, 4.0] dB" in out
        assert "left out of the fit: [30.0] dB (fewer than 50 bit errors)" in out

    def test_bad_config_is_exit_1(self, tmp_path):
        cfg = self.config(tmp_path, family="sec9")
        assert cli.main(["simulate", "--config", str(cfg)]) == 1

    def test_link_without_observations_is_exit_1(self, tmp_path, capsys):
        cfg = self.config(tmp_path, receive_antennas=0)
        assert cli.main(["simulate", "--config", str(cfg)]) == 1
        assert "receive_antennas must be at least 1" in capsys.readouterr().err

    def test_choices_come_from_the_registries(self):
        sub = next(a for a in cli.make_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        choices = {a.dest: a.choices for a in sub.choices["simulate"]._actions}
        assert tuple(choices["decoder"]) == tuple(decoders.DECODERS)
        assert tuple(choices["search_mode"]) == decoders.SEARCH_MODES
        family = {a.dest: a.choices for a in sub.choices["build"]._actions}["family"]
        assert tuple(family) == simharness.FAMILIES
