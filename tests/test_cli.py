import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wavehop.cli
from wavehop import (
    MorletParams,
    SynthSpec,
    cwt_fft,
    decimate,
    make_scale_grid,
    read_matrix_bin,
    read_wav,
    sample_wavelet,
    synthesize,
)
from wavehop.cli import parse_synth_spec, run_cli
from wavehop.wavelet import schedule
from testutil import run_wavehop, write_float32_wav, write_reference_wav


# address-space cap of a child that could otherwise exhaust the host's memory
CHILD_ADDRESS_SPACE = 1 << 30


def make_wav(path, n=16_000, rate=16_000, seed=0):
    rng = np.random.default_rng(seed)
    write_reference_wav(path, rng.integers(-20_000, 20_000, n, dtype=np.int16), rate)


def assert_error_exit(code, capsys, kind=""):
    """A validation failure exits 1 with one error message, no traceback."""
    err = capsys.readouterr().err
    assert code == 1, err
    assert err.startswith(f"error: {kind}"), err
    assert "Traceback" not in err


class TestParseSynthSpec:
    def test_sine_with_fields(self):
        spec = parse_synth_spec("sine:frequency=1000,amplitude=0.25", 64, 16_000.0)
        assert spec.kind == "sine"
        assert spec.frequency == 1000.0
        assert spec.amplitude == 0.25

    def test_noise_alias(self):
        assert parse_synth_spec("noise:seed=7", 64, 16_000.0).kind == "white_noise"

    def test_bare_kind(self):
        assert parse_synth_spec("white_noise", 64, 16_000.0).seed == 0

    def test_unknown_field(self):
        from wavehop import InvalidSpec

        with pytest.raises(InvalidSpec):
            parse_synth_spec("sine:color=blue", 64, 16_000.0)


class TestSynthCommand:
    def test_writes_readable_wav(self, tmp_path):
        out = tmp_path / "tone.wav"
        code = run_cli([
            "synth", "sine:frequency=440", "--length", "8000", "--rate", "16000",
            "--out", str(out),
        ])
        assert code == 0
        sig = read_wav(out)
        assert len(sig) == 8000
        assert sig.sample_rate == 16_000

    def test_float32_encoding(self, tmp_path):
        out = tmp_path / "noise.wav"
        code = run_cli([
            "synth", "noise:seed=3", "--length", "100", "--rate", "8000",
            "--out", str(out), "--encoding", "float32",
        ])
        assert code == 0
        assert len(read_wav(out)) == 100

    @pytest.mark.parametrize("rate", ["nan", "inf"])
    def test_non_finite_rate_exits_one(self, tmp_path, capsys, rate):
        out = tmp_path / "x.wav"
        code = run_cli(["synth", "noise", "--rate", rate, "--length", "10", "--out", str(out)])
        assert_error_exit(code, capsys)
        assert not out.exists()

    @pytest.mark.parametrize("rate", ["0.4", "1e12"])
    def test_rate_outside_wav_header_exits_one(self, tmp_path, capsys, rate):
        out = tmp_path / "x.wav"
        code = run_cli(["synth", "noise", "--rate", rate, "--length", "10", "--out", str(out)])
        assert_error_exit(code, capsys, "InvalidParameter")
        assert not out.exists()


class TestTransformCommand:
    def test_strided_frame_count_on_ten_second_file(self, tmp_path):
        wav = tmp_path / "in.wav"
        make_wav(wav, n=160_000)
        out = tmp_path / "out.scg1"
        code = run_cli([
            "transform", str(wav), "--out", str(out),
            "--mode", "strided", "--hop", "128",
            "--scales", "8", "--fmin", "500", "--fmax", "4000",
        ])
        assert code == 0
        matrix = read_matrix_bin(out)
        assert matrix.columns == 1250
        assert matrix.hop == 128
        assert matrix.rows == 8

    def test_synth_spec_input(self, tmp_path):
        out = tmp_path / "synth.scg1"
        code = run_cli([
            "transform", "sine:frequency=1000", "--length", "4096", "--rate", "16000",
            "--out", str(out), "--hop", "64", "--scales", "6",
            "--fmin", "500", "--fmax", "4000",
        ])
        assert code == 0
        assert read_matrix_bin(out).columns == 64

    def test_decimate_mode_records_reduced_rate(self, tmp_path):
        out = tmp_path / "dec.scg1"
        code = run_cli([
            "transform", "noise:seed=1", "--length", "16000", "--rate", "16000",
            "--out", str(out), "--mode", "decimate", "--hop", "4",
            "--scales", "6", "--fmin", "100", "--fmax", "1500",
        ])
        assert code == 0
        matrix = read_matrix_bin(out)
        assert matrix.source_rate == 4000.0
        assert matrix.hop == 4
        assert matrix.columns == 4000

    def test_decimate_mode_anti_alias_filters_before_the_transform(self, tmp_path):
        args = [
            "transform", "noise:seed=1", "--length", "16000", "--rate", "16000",
            "--mode", "decimate", "--hop", "4",
            "--scales", "6", "--fmin", "100", "--fmax", "1500",
        ]
        filtered, plain = tmp_path / "filtered.scg1", tmp_path / "plain.scg1"
        assert run_cli(args + ["--anti-alias", "--out", str(filtered)]) == 0
        assert run_cli(args + ["--out", str(plain)]) == 0
        sig = synthesize(SynthSpec("white_noise", 16_000, 16_000.0, seed=1))
        grid = make_scale_grid(100, 1500, 6, 4000.0, MorletParams())
        # SCG1 holds complex64
        want = cwt_fft(decimate(sig, 4, anti_alias=True), grid).values.astype(np.complex64)
        np.testing.assert_array_equal(read_matrix_bin(filtered).values, want)
        assert not np.array_equal(read_matrix_bin(plain).values, want)

    def test_full_mode(self, tmp_path):
        out = tmp_path / "full.scg1"
        code = run_cli([
            "transform", "noise:seed=2", "--length", "2048", "--rate", "16000",
            "--out", str(out), "--mode", "full",
            "--scales", "4", "--fmin", "500", "--fmax", "4000",
        ])
        assert code == 0
        matrix = read_matrix_bin(out)
        assert matrix.columns == 2048
        assert matrix.hop == 1

    @pytest.mark.parametrize("mode,hop", [("strided", 128), ("strided", 1), ("full", 1),
                                          ("decimate", 4)])
    def test_explain_writes_one_line_per_row(self, tmp_path, mode, hop):
        out, explain = tmp_path / "out.scg1", tmp_path / "explain.jsonl"
        code = run_cli([
            "transform", "noise:seed=3", "--length", "16000", "--rate", "16000",
            "--out", str(out), "--mode", mode, "--hop", str(hop), "--scales", "12",
            "--fmin", "100", "--fmax", "1500", "--explain", str(explain),
        ])
        assert code == 0
        matrix = read_matrix_bin(out)
        records = [json.loads(line) for line in explain.read_text().splitlines()]
        assert [r["scale"] for r in records] == list(matrix.scale_grid.scales)
        widths = [sample_wavelet(MorletParams(), s).size for s in matrix.scale_grid.scales]
        assert [r["taps"] for r in records] == widths
        # decimate mode ran cwt_fft, at hop 1, on the 16 000 / hop samples it kept
        n, ran_hop = (matrix.columns, 1) if mode == "decimate" else (16_000, hop)
        want = list(schedule(n, widths, ran_hop).routes)
        assert [r["route"] == "spectral" for r in records] == want
        assert all(r["direct_s"] > 0 for r in records)
        for r in records:
            if r["route"] == "spectral":
                assert r["spectral_s"] > 0 and r["block_len"] > 0 and r["blocks"] >= 1
            else:  # a direct row has no class
                assert [r[k] for k in ("spectral_s", "block_len", "blocks", "class")] == [None] * 4

    def test_explain_to_unwritable_path_exits_one(self, tmp_path, capsys):
        code = run_cli([
            "transform", "noise:seed=3", "--length", "2000", "--out", str(tmp_path / "o.scg1"),
            "--scales", "4", "--explain", str(tmp_path / "missing" / "explain.jsonl"),
        ])
        assert_error_exit(code, capsys)

    def test_csv_and_pgm_outputs(self, tmp_path):
        out = tmp_path / "o.scg1"
        csv = tmp_path / "o.csv"
        pgm = tmp_path / "o.pgm"
        code = run_cli([
            "transform", "noise:seed=4", "--length", "2000", "--rate", "16000",
            "--out", str(out), "--csv", str(csv), "--pgm", str(pgm),
            "--hop", "50", "--scales", "5", "--fmin", "500", "--fmax", "4000",
            "--mag", "log_db",
        ])
        assert code == 0
        assert csv.read_text().count("\n") == 5
        assert pgm.read_bytes().startswith(b"P5\n40 5\n255\n")

    def test_byte_deterministic(self, tmp_path):
        args = [
            "transform", "noise:seed=5", "--length", "3000", "--rate", "16000",
            "--mode", "strided", "--hop", "30",
            "--scales", "6", "--fmin", "300", "--fmax", "3000",
        ]
        out1, out2 = tmp_path / "a.scg1", tmp_path / "b.scg1"
        pgm1, pgm2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
        assert run_cli(args + ["--out", str(out1), "--pgm", str(pgm1)]) == 0
        assert run_cli(args + ["--out", str(out2), "--pgm", str(pgm2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert pgm1.read_bytes() == pgm2.read_bytes()

    def test_missing_input_exits_one(self, tmp_path, capsys):
        code = run_cli([
            "transform", str(tmp_path / "none.wav"), "--out", str(tmp_path / "x.scg1"),
        ])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_negative_seed_exits_one(self, tmp_path, capsys):
        out = tmp_path / "x.scg1"
        code = run_cli(["transform", "white_noise:seed=-1", "--length", "400", "--out", str(out)])
        assert_error_exit(code, capsys, "InvalidSpec")
        assert not out.exists()

    def test_invalid_wavelet_exits_one(self, tmp_path, capsys):
        code = run_cli([
            "transform", "noise", "--length", "400", "--out", str(tmp_path / "x.scg1"),
            "--wavelet-b", "0",
        ])
        assert_error_exit(code, capsys)
        assert not (tmp_path / "x.scg1").exists()

    @pytest.mark.parametrize("rate", ["nan", "inf"])
    def test_non_finite_rate_exits_one(self, tmp_path, capsys, rate):
        code = run_cli([
            "transform", "noise", "--rate", rate, "--length", "400",
            "--out", str(tmp_path / "x.scg1"),
        ])
        assert_error_exit(code, capsys)
        assert not (tmp_path / "x.scg1").exists()

    def test_non_finite_samples_exits_one(self, tmp_path, capsys):
        path = tmp_path / "nan.wav"
        write_float32_wav(path, np.r_[np.zeros(1000), np.nan, np.zeros(999)], 16_000)
        code = run_cli(["transform", str(path), "--out", str(tmp_path / "x.scg1"), "--hop", "40"])
        assert_error_exit(code, capsys)
        assert not (tmp_path / "x.scg1").exists()

    @pytest.mark.parametrize("flags", [
        ("--wavelet-b", "inf"),  # was an OverflowError from math.ceil
        ("--wavelet-c", "inf"),  # was a plain ValueError: scales not ascending
        ("--fmin", "1e-300"),  # was a 762 GiB allocation
        ("--fmin", "1e-12"),  # was killed out of memory: never run without the limit
    ])
    def test_wavelet_too_wide_or_not_finite_exits_one(self, tmp_path, flags):
        out = tmp_path / "o.scg1"
        child = run_wavehop(["transform", "white_noise:seed=7", "--out", str(out),
                             "--length", "1000", *flags], address_space=CHILD_ADDRESS_SPACE)
        assert child.returncode == 1, child.stderr
        assert child.stderr.startswith("error: ") and "Traceback" not in child.stderr, child.stderr
        assert not out.exists()

    @pytest.mark.parametrize("amplitude, kind", [
        ("1e308", "CoefficientOverflow"),  # the transform itself would overflow
        ("1e200", "CoefficientOverflow"),  # finite coefficients that complex64 cannot hold
    ])
    def test_coefficients_past_their_format_exit_one(self, tmp_path, capsys, amplitude, kind):
        out = tmp_path / "o.scg1"
        code = run_cli(["transform", f"sine:frequency=1000,amplitude={amplitude}",
                        "--out", str(out), "--length", "1000"])
        assert_error_exit(code, capsys, kind)
        assert not out.exists()

    def test_anti_alias_decimation_refuses_overflowing_samples_first(self, tmp_path):
        out = tmp_path / "o.scg1"
        child = run_wavehop(["transform", "sine:frequency=1000,amplitude=1.79e308",
                             "--mode", "decimate", "--anti-alias", "--hop", "4", "--length", "1000",
                             "--out", str(out)], address_space=CHILD_ADDRESS_SPACE)
        assert child.returncode == 1, child.stderr
        assert child.stderr.startswith("error: CoefficientOverflow: "), child.stderr
        assert child.stderr.count("\n") == 1 and "Warning" not in child.stderr, child.stderr
        assert not out.exists()

    def test_hop_beyond_scg1_exits_one(self, tmp_path, capsys):
        code = run_cli([
            "transform", "noise", "--length", "1000", "--scales", "4",
            "--hop", str(2**32), "--out", str(tmp_path / "x.scg1"),
        ])
        assert_error_exit(code, capsys)
        assert not (tmp_path / "x.scg1").exists()


class TestScalogramCommand:
    def test_scg1_to_pgm(self, tmp_path):
        out = tmp_path / "o.scg1"
        run_cli([
            "transform", "sine:frequency=800", "--length", "4000", "--rate", "16000",
            "--out", str(out), "--hop", "40", "--scales", "6",
            "--fmin", "300", "--fmax", "3000",
        ])
        pgm = tmp_path / "o.pgm"
        assert run_cli(["scalogram", str(out), "--out", str(pgm)]) == 0
        assert pgm.read_bytes().startswith(b"P5\n100 6\n255\n")

    def test_flip_flag_changes_bytes(self, tmp_path):
        out = tmp_path / "o.scg1"
        run_cli([
            "transform", "chirp:f0=200,f1=4000", "--length", "4000", "--rate", "16000",
            "--out", str(out), "--hop", "40", "--scales", "6",
            "--fmin", "300", "--fmax", "3000",
        ])
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        run_cli(["scalogram", str(out), "--out", str(a)])
        run_cli(["scalogram", str(out), "--out", str(b), "--no-flip"])
        assert a.read_bytes() != b.read_bytes()


class TestUsageErrors:
    def test_unknown_flag_exits_two(self, capsys):
        code = run_cli(["transform", "noise", "--out", "x.scg1", "--bogus"])
        assert code == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_no_subcommand_exits_two(self):
        assert run_cli([]) == 2

    def test_unknown_subcommand_exits_two(self):
        assert run_cli(["fourier"]) == 2

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exits_two(self, tmp_path, threads, capsys):
        for argv in (["bench"], ["scan", str(tmp_path), "--out-dir", str(tmp_path / "out")]):
            assert run_cli(argv + ["--threads", threads]) == 2
            assert "--threads: must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("hop", ["0", "-2"])
    @pytest.mark.parametrize("mode", ["strided", "decimate"])
    def test_hop_below_one_exits_two(self, tmp_path, mode, hop, capsys):
        wavs = tmp_path / "wavs"
        wavs.mkdir()
        make_wav(wavs / "a.wav", n=1000)
        for argv in (["transform", "noise", "--length", "1000", "--out", str(tmp_path / "x.scg1")],
                     ["scan", str(wavs), "--out-dir", str(tmp_path / "out")]):
            assert run_cli(argv + ["--mode", mode, "--hop", hop]) == 2
            err = capsys.readouterr().err
            assert "--hop: must be >= 1" in err and "Traceback" not in err
        assert not (tmp_path / "x.scg1").exists() and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("threads", ["-3", "0", "abc"])
    def test_bad_threads_env_exits_two(self, tmp_path, threads, monkeypatch, capsys):
        monkeypatch.setenv("THREADS", threads)
        for argv in (["bench"], ["scan", str(tmp_path), "--out-dir", str(tmp_path / "out")]):
            assert run_cli(argv) == 2
            assert f"THREADS: must be an integer >= 1, got '{threads}'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestAucCommand:
    def test_prints_value(self, tmp_path, capsys):
        csv = tmp_path / "scores.csv"
        csv.write_text("0.9,1\n0.8,1\n0.2,0\n0.1,0\n")
        assert run_cli(["auc", str(csv)]) == 0
        assert capsys.readouterr().out.strip() == "1.000000"

    def test_single_class_exits_one(self, tmp_path, capsys):
        csv = tmp_path / "scores.csv"
        csv.write_text("0.9,1\n0.8,1\n")
        assert run_cli(["auc", str(csv)]) == 1
        assert "DegenerateLabels" in capsys.readouterr().err

    def test_malformed_line_exits_one(self, tmp_path, capsys):
        csv = tmp_path / "scores.csv"
        csv.write_text("0.9,hello\n")
        assert run_cli(["auc", str(csv)]) == 1
        assert capsys.readouterr().err.startswith("error: InvalidParameter")

    @pytest.mark.parametrize("kind", ["directory", "binary"])
    def test_unreadable_file_exits_one(self, tmp_path, kind, capsys):
        path = tmp_path
        if kind == "binary":
            path = tmp_path / "scores.csv"
            path.write_bytes(b"\xff\xfe\x00,1\n")
        assert run_cli(["auc", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: IoFailure")

    def test_label_out_of_range_exits_one(self, tmp_path, capsys):
        csv = tmp_path / "scores.csv"
        csv.write_text("0.5,2\n0.1,0\n")
        assert_error_exit(run_cli(["auc", str(csv)]), capsys)

    @pytest.mark.parametrize("score", ["nan", "inf", "-inf"])
    def test_non_finite_score_exits_one(self, tmp_path, score, capsys):
        csv = tmp_path / "scores.csv"
        csv.write_text(f"{score},1\n0.1,0\n")
        code = run_cli(["auc", str(csv)])
        captured = capsys.readouterr()
        assert captured.out == ""
        assert code == 1
        assert captured.err.startswith("error: InvalidParameter")


class TestBenchCommand:
    def test_json_lines_on_stdout(self, capsys):
        code = run_cli([
            "bench", "--length", "8192", "--rate", "16000", "--hop", "64",
            "--reps", "3", "--scales", "6", "--fmin", "300", "--fmax", "3000",
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        env, *decoded = [json.loads(line) for line in lines]
        assert set(env) == {"env"}
        assert [d["method"] for d in decoded] == ["cwt_fft", "cwth_strided"]
        assert all(d["signal_length"] == 8192 for d in decoded)

    def test_sweep_over_lengths_and_hops(self, capsys):
        code = run_cli([
            "bench", "--length", "2000,3000", "--hop", "1,8", "--rate", "16000",
            "--reps", "3", "--scales", "4", "--fmin", "300", "--fmax", "3000",
        ])
        assert code == 0
        env, *reports = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert env["env"]["threads"] == 1
        cells = [(r["signal_length"], r["method"], r["hop"]) for r in reports]
        assert cells == [(n, m, h if m == "cwth_strided" else 1)
                         for n in (2000, 3000) for h in (1, 8)
                         for m in ("cwt_fft", "cwth_strided")]
        assert all(r["predicted_seconds"] > 0 for r in reports)

    @pytest.mark.parametrize("value", ["1,0", "8,x", ""])
    def test_bad_sweep_list_is_a_usage_error(self, value, capsys):
        for flag in ("--length", "--hop"):
            assert run_cli(["bench", flag, value]) == 2
            assert flag in capsys.readouterr().err

    def test_too_few_reps_exits_one(self, capsys):
        code = run_cli(["bench", "--length", "1024", "--reps", "2", "--scales", "4",
                        "--fmin", "300", "--fmax", "3000"])
        assert_error_exit(code, capsys)


class TestScanCommand:
    def test_batch_outputs_and_order(self, tmp_path, capsys):
        in_dir = tmp_path / "in"
        in_dir.mkdir()
        for name, seed in (("b.wav", 1), ("a.wav", 2), ("c.wav", 3)):
            make_wav(in_dir / name, n=4000, seed=seed)
        out_dir = tmp_path / "out"
        code = run_cli([
            "scan", str(in_dir), "--out-dir", str(out_dir),
            "--hop", "40", "--scales", "5", "--fmin", "300", "--fmax", "3000",
        ])
        assert code == 0
        assert sorted(p.name for p in out_dir.iterdir()) == ["a.scg1", "b.scg1", "c.scg1"]
        out_lines = capsys.readouterr().out.strip().split("\n")
        assert out_lines == ["ok a.wav", "ok b.wav", "ok c.wav"]

    def test_failure_continues_and_exits_one(self, tmp_path, capsys):
        # The sequential and threaded paths must report failures identically.
        in_dir = tmp_path / "in"
        in_dir.mkdir()
        make_wav(in_dir / "good.wav", n=4000)
        (in_dir / "bad.wav").write_bytes(b"not a wav at all")
        runs = []
        for threads in ("1", "2"):
            out_dir = tmp_path / f"out{threads}"
            code = run_cli([
                "scan", str(in_dir), "--out-dir", str(out_dir), "--threads", threads,
                "--hop", "40", "--scales", "5", "--fmin", "300", "--fmax", "3000",
            ])
            assert code == 1
            assert (out_dir / "good.scg1").exists()
            assert not (out_dir / "bad.scg1").exists()
            captured = capsys.readouterr()
            assert "ok good.wav" in captured.out
            assert "failed bad.wav" in captured.err
            runs.append((code, captured.out, captured.err))
        assert runs[0] == runs[1]

    def test_parameter_error_is_a_per_file_failure(self, tmp_path, capsys):
        in_dir = tmp_path / "in"
        in_dir.mkdir()
        make_wav(in_dir / "a.wav", n=2000)
        make_wav(in_dir / "b.wav", n=2000, seed=1)
        runs = []
        for threads in ("1", "2"):
            code = run_cli([
                "scan", str(in_dir), "--out-dir", str(tmp_path / "out"), "--threads", threads,
                "--hop", "20", "--scales", "4", "--fmin", "300", "--fmax", "3000",
                "--wavelet-b", "0",
            ])
            captured = capsys.readouterr()
            runs.append((code, captured.out, captured.err))
        assert runs[0] == runs[1]
        assert runs[0][0] == 1
        assert runs[0][2].splitlines() == [
            "failed a.wav: bandwidth must be positive",
            "failed b.wav: bandwidth must be positive",
        ]

    def test_threads_flag_gives_identical_bytes(self, tmp_path):
        in_dir = tmp_path / "in"
        in_dir.mkdir()
        for i in range(4):
            make_wav(in_dir / f"f{i}.wav", n=3000, seed=i)
        serial_dir = tmp_path / "serial"
        threaded_dir = tmp_path / "threaded"
        base = ["--hop", "30", "--scales", "5", "--fmin", "300", "--fmax", "3000"]
        assert run_cli(["scan", str(in_dir), "--out-dir", str(serial_dir)] + base) == 0
        assert run_cli(
            ["scan", str(in_dir), "--out-dir", str(threaded_dir), "--threads", "3"] + base
        ) == 0
        for path in sorted(serial_dir.iterdir()):
            assert path.read_bytes() == (threaded_dir / path.name).read_bytes()

    def test_threads_env_variable(self, tmp_path, monkeypatch):
        in_dir = tmp_path / "in"
        in_dir.mkdir()
        make_wav(in_dir / "x.wav", n=2000)
        monkeypatch.setenv("THREADS", "2")
        out_dir = tmp_path / "out"
        code = run_cli([
            "scan", str(in_dir), "--out-dir", str(out_dir),
            "--hop", "20", "--scales", "4", "--fmin", "300", "--fmax", "3000",
        ])
        assert code == 0
        assert (out_dir / "x.scg1").exists()

    def test_threads_env_sets_pool_size_and_flag_wins(self, tmp_path, monkeypatch):
        in_dir = tmp_path / "in"
        in_dir.mkdir()
        make_wav(in_dir / "x.wav", n=2000)
        pool_sizes = []
        real_pool = wavehop.cli.ThreadPoolExecutor

        def recording_pool(max_workers):
            pool_sizes.append(max_workers)
            return real_pool(max_workers=max_workers)

        monkeypatch.setattr(wavehop.cli, "ThreadPoolExecutor", recording_pool)
        base = ["scan", str(in_dir), "--out-dir", str(tmp_path / "out"),
                "--hop", "20", "--scales", "4", "--fmin", "300", "--fmax", "3000"]
        monkeypatch.setenv("THREADS", "2")
        assert run_cli(base) == 0
        assert pool_sizes == [2]
        monkeypatch.setenv("THREADS", "abc")
        assert run_cli(base + ["--threads", "3"]) == 0
        assert pool_sizes == [2, 3]

    def test_non_finite_file_is_a_per_file_failure(self, tmp_path, capsys):
        in_dir = tmp_path / "in"
        in_dir.mkdir()
        make_wav(in_dir / "good.wav", n=2000)
        write_float32_wav(in_dir / "nan.wav", np.r_[np.zeros(500), np.nan], 16_000)
        runs = []
        for threads in ("1", "2"):
            out_dir = tmp_path / f"out{threads}"
            code = run_cli([
                "scan", str(in_dir), "--out-dir", str(out_dir), "--threads", threads,
                "--hop", "20", "--scales", "4", "--fmin", "300", "--fmax", "3000",
            ])
            captured = capsys.readouterr()
            assert (out_dir / "good.scg1").exists()
            assert not (out_dir / "nan.scg1").exists()
            runs.append((code, captured.out, captured.err))
        assert runs[0] == runs[1]
        assert runs[0][0] == 1
        assert runs[0][1].splitlines() == ["ok good.wav"]
        assert runs[0][2].startswith("failed nan.wav: ")
        assert "non-finite" in runs[0][2]

    def test_empty_directory_exits_one(self, tmp_path):
        in_dir = tmp_path / "in"
        in_dir.mkdir()
        assert run_cli(["scan", str(in_dir), "--out-dir", str(tmp_path / "out")]) == 1


FLOAT_VALUES = ("nan", "inf", "-inf", "0", "1e-300", "1e300")
GRID_FLOATS = ("--fmin", "--fmax", "--wavelet-b", "--wavelet-c")
# each command on a small input, and its float flags
FLOAT_FLAG_COMMANDS = {
    "transform": (["white_noise:seed=7", "--length", "1000", "--scales", "4", "--hop", "16",
                   "--out", "o.scg1"], ("--rate",) + GRID_FLOATS),
    "synth": (["white_noise", "--length", "1000", "--out", "o.wav"], ("--rate",)),
    "bench": (["--length", "1000", "--hop", "16", "--scales", "4", "--reps", "3"],
              ("--rate",) + GRID_FLOATS),
}


@st.composite
def bad_float_flags(draw):
    """A command and one or more of its float flags, each set to an extreme value."""
    command = draw(st.sampled_from(sorted(FLOAT_FLAG_COMMANDS)))
    base, flags = FLOAT_FLAG_COMMANDS[command]
    chosen = draw(st.lists(st.sampled_from(flags), min_size=1, unique=True))
    # flag=value, so that argparse reads "-inf" as a value
    return [command, *base] + [f"{flag}={draw(st.sampled_from(FLOAT_VALUES))}" for flag in chosen]


@settings(max_examples=40, deadline=None)
@given(args=bad_float_flags())
def test_bad_float_flags_end_in_a_typed_error(args):
    with tempfile.TemporaryDirectory() as scratch:
        args = [str(Path(scratch) / arg) if arg.startswith("o.") else arg for arg in args]
        # never without the limit: --fmin 1e-12 was once killed out of memory
        child = run_wavehop(args, address_space=CHILD_ADDRESS_SPACE)
        assert child.returncode in (1, 2), (args, child.stderr)
        assert "Traceback" not in child.stderr and "Warning" not in child.stderr, child.stderr
        assert not any(Path(scratch).iterdir()), args
