import argparse
import json

import numpy as np
import pytest

from stbclab import cli, decoders, lindesign, simharness
from stbclab.constructions import build_diagonal_code


class TestBuild:
    def test_writes_design_and_grouping(self, tmp_path, capsys):
        out = tmp_path / "code.json"
        rc = cli.main(["build", "--family", "sec3", "--antennas", "3",
                       "--lambda", "2", "--layers", "4", "--out", str(out)])
        assert rc == 0
        design = lindesign.design_from_json(lindesign.load_json(out))
        assert design.num_real_symbols == 16 and design.delay == 6
        grouping = lindesign.grouping_from_json(
            lindesign.load_json(tmp_path / "code.grouping.json"))
        assert grouping.num_groups == 8
        text = capsys.readouterr().out
        assert "rate=4/3" in text

    def test_sec4_build(self, tmp_path):
        out = tmp_path / "c4.json"
        rc = cli.main(["build", "--family", "sec4", "--antennas", "4",
                       "--layers", "2", "--out", str(out)])
        assert rc == 0
        assert lindesign.design_from_json(lindesign.load_json(out)).antennas == 4

    def test_infeasible_is_exit_1(self, tmp_path, capsys):
        rc = cli.main(["build", "--family", "sec3", "--antennas", "2",
                       "--lambda", "3", "--layers", "1",
                       "--out", str(tmp_path / "x.json")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

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
            lindesign.load_json(tmp_path / grouping)).num_groups == 8

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
        lindesign.save_json(lindesign.design_to_json(design), dpath)
        lindesign.save_json(lindesign.grouping_to_json(grouping), gpath)
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

    def _verify_files(self, tmp_path, design_doc, grouping_doc):
        dpath, gpath = tmp_path / "d.json", tmp_path / "g.json"
        lindesign.save_json(design_doc, dpath)
        lindesign.save_json(grouping_doc, gpath)
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

    def test_infeasible(self, tmp_path):
        assert cli.main(["tradeoff", "--antennas", "4", "--delay", "2"]) == 1


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
        csv = tmp_path / "r.csv"
        rc = cli.main(["simulate", "--config", str(cfg), "--csv", str(csv),
                       "--json-out", str(tmp_path / "r.json")])
        assert rc == 0
        assert csv.read_text().startswith("snr_db,")
        assert "ber=" in capsys.readouterr().out

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
        assert simharness.read_results(js).points[0].frames == 8
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
