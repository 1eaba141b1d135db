"""Command-line interface: verbs, output files, and exit codes."""

import re
from importlib import resources
from pathlib import Path

import pytest

from sarasim.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main

CASE_A = str(resources.files("sarasim.scenarios") / "case_a.cfg")
CASE_B = str(resources.files("sarasim.scenarios") / "case_b.cfg")

ONE_DMA = """name = one
duration_cycles = 5000

[dma dsp]
core = dsp
queue = dsp
cluster = direct
kind = latency_probe
meter = latency
rate_mbps = 10.0
latency_limit_cycles = 500
lut = {lut}
"""


def test_run_writes_outputs(tmp_path):
    out = tmp_path / "out"
    rc = main(["run", "-c", CASE_A, "--duration", "20000",
               "-o", str(out)])
    assert rc == EXIT_OK
    assert (out / "npi_QOS.csv").exists()
    assert (out / "summary.csv").exists()
    header = (out / "summary.csv").read_text().splitlines()[0]
    assert header.startswith("policy,dma,min_npi")


def test_run_policy_override(tmp_path):
    out = tmp_path / "out"
    rc = main(["run", "-c", CASE_A, "--duration", "20000",
               "--policy", "FCFS", "-o", str(out)])
    assert rc == EXIT_OK
    assert (out / "npi_FCFS.csv").exists()


def test_compare_writes_per_policy_dirs(tmp_path):
    out = tmp_path / "cmp"
    rc = main(["compare", "-c", CASE_A, "--duration", "20000",
               "--policies", "FCFS,QOS", "-o", str(out)])
    assert rc == EXIT_OK
    assert (out / "FCFS" / "npi.csv").exists()
    assert (out / "QOS" / "npi.csv").exists()
    rows = (out / "summary.csv").read_text().splitlines()
    assert len(rows) == 1 + 2 * 14  # header + two policies x 14 DMAs


def test_sweep_writes_csv(tmp_path):
    out = tmp_path / "sweep"
    rc = main(["sweep", "-c", CASE_A, "--duration", "20000",
               "--frequencies", "1866,1700", "--dma", "improc",
               "-o", str(out)])
    assert rc == EXIT_OK
    rows = (out / "sweep.csv").read_text().splitlines()
    assert len(rows) == 3


def test_echo_config_round_trips(capsys):
    rc = main(["echo-config", "-c", CASE_A])
    assert rc == EXIT_OK
    text = capsys.readouterr().out
    from sarasim.config import parse_config
    assert len(parse_config(text).dmas) == 14


def test_list_cores(capsys):
    rc = main(["list-cores", "-c", CASE_A])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    for dma in ("improc", "codec", "display", "usb"):
        assert dma in out


def test_missing_config_is_config_error(tmp_path, capsys):
    rc = main(["run", "-c", str(tmp_path / "nope.cfg")])
    assert rc == EXIT_CONFIG


def test_packaged_scenario_by_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    by_path, by_name = tmp_path / "path", tmp_path / "name"
    for cfg, out in ((CASE_B, by_path), ("B", by_name)):
        assert main(["run", "-c", cfg, "--duration", "3000",
                     "-o", str(out)]) == EXIT_OK
    for name in ("npi_QOS.csv", "summary.csv"):
        assert (by_path / name).read_bytes() == (by_name / name).read_bytes()


def test_file_wins_over_packaged_scenario(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    lut = "1.5,1.4,1.3,1.25,1.2,1.15,1.1,0"
    (tmp_path / "B").write_text(ONE_DMA.format(lut=lut))
    assert main(["list-cores", "-c", "B"]) == EXIT_OK
    assert "scenario one: 1 DMAs" in capsys.readouterr().out


def test_unknown_packaged_scenario_is_config_error(tmp_path, monkeypatch,
                                                   capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["run", "-c", "C", "-o", str(tmp_path / "out")]) \
        == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "cannot read C" in err and "Traceback" not in err


@pytest.mark.parametrize("verb", ["run", "echo-config"])
@pytest.mark.parametrize("kind", ["directory", "utf16"])
def test_unreadable_config_is_config_error(tmp_path, capsys, verb, kind):
    # both used to exit 2 with a bare OSError or UnicodeDecodeError
    path = tmp_path / "case_b.cfg"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe" + "seed = 7\n".encode("utf-16-le"))
    argv = [verb, "-c", str(path)]
    if verb == "run":
        argv += ["-o", str(tmp_path / "out")]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(path) in err and "Traceback" not in err


def test_malformed_config_is_config_error(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("tRCDD = 34\n")
    assert main(["run", "-c", str(bad)]) == EXIT_CONFIG


def test_unknown_policy_is_config_error(tmp_path):
    rc = main(["compare", "-c", CASE_A, "--duration", "1000",
               "--policies", "LIFO", "-o", str(tmp_path / "x")])
    assert rc == EXIT_CONFIG


def test_unwritable_output_is_runtime_error(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    rc = main(["run", "-c", CASE_A, "--duration", "1000",
               "-o", str(blocker)])
    assert rc == EXIT_RUNTIME


def test_byte_identical_reruns(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["run", "-c", CASE_A, "--duration", "20000",
                     "-o", str(out)]) == EXIT_OK
    assert ((out1 / "npi_QOS.csv").read_bytes()
            == (out2 / "npi_QOS.csv").read_bytes())
    assert ((out1 / "summary.csv").read_bytes()
            == (out2 / "summary.csv").read_bytes())


@pytest.mark.parametrize("lut", ["1.5,abc,1.3,1.25,1.2,1.15,1.1,0",
                                 "0.5,0.9,0.8,0.7,0.6,0.5,0.4,0"])
def test_malformed_lut_is_config_error(tmp_path, capsys, lut):
    bad = tmp_path / "bad.cfg"
    bad.write_text(ONE_DMA.format(lut=lut))
    rc = main(["run", "-c", str(bad), "-o", str(tmp_path / "out")])
    assert rc == EXIT_CONFIG
    assert "line 12" in capsys.readouterr().err


def test_duration_within_one_epoch_is_config_error(tmp_path, capsys):
    # no NPI sample is taken before cycle epoch_cycles (100 in case B)
    rc = main(["run", "-c", CASE_B, "--duration", "100",
               "-o", str(tmp_path / "short")])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "100" in err and "epoch_cycles" in err
    assert main(["run", "-c", CASE_B, "--duration", "101",
                 "-o", str(tmp_path / "long")]) == EXIT_OK


CLOCKED = """name = clocked
{global_line}

[dram]
{dram_line}

[dma dsp]
core = dsp
queue = dsp
cluster = direct
kind = latency_probe
meter = latency
rate_mbps = 10.0
latency_limit_cycles = 500
"""


@pytest.mark.parametrize("key,value", [
    ("fps", "0"), ("fps", "nan"), ("fps", "inf"), ("io_freq_mhz", "nan"),
    ("io_freq_mhz", "inf"), ("fps", "1e-310"), ("io_freq_mhz", "1e308"),
    ("desk_scale", "0"), ("fps", "1e9")])
def test_bad_frame_period_input_is_config_error(tmp_path, capsys, key,
                                                value):
    # each feeds the frame period, from which the duration is resolved
    line = f"{key} = {value}"
    in_dram = key == "io_freq_mhz"
    bad = tmp_path / "bad.cfg"
    bad.write_text(CLOCKED.format(global_line="" if in_dram else line,
                                  dram_line=line if in_dram else ""))
    rc = main(["run", "-c", str(bad), "-o", str(tmp_path / "out")])
    assert rc == EXIT_CONFIG
    assert key in capsys.readouterr().err


def case_b_with(tmp_path, dma, key, value):
    """Case B with `key` of DMA `dma` set to `value`."""
    text = Path(CASE_B).read_text(encoding="utf-8")
    text, n = re.subn(rf"(\[dma {dma}\][^[]*?^{key} = )[^\n]*",
                      rf"\g<1>{value}", text, count=1, flags=re.M)
    assert n == 1
    path = tmp_path / "case_b.cfg"
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("dma,key,value,named", [
    ("display", "rate_mbps", "nan", "'rate_mbps'"),
    ("display", "pace_boost", "nan", "'pace_boost'"),
    ("improc", "frame_kb", "inf", "'frame_kb'"),
    ("dsp", "rate_mbps", "inf", "'rate_mbps'"),  # a probe with mean 0
    ("wifi", "rate_mbps", "-5", "wifi"),
    ("dsp", "region_base_kb", "-4096", "dsp"),
    # a pace_boost of 0 divided by zero, and a negative one or an empty
    # buffer left display reading healthy while it moved nothing
    ("display", "pace_boost", "0.0", "display"),
    ("display", "pace_boost", "-1.0", "display"),
    ("display", "buffer_kb", "0.0", "display"),
    ("display", "buffer_kb", "-5.0", "display"),
    # a positive rate too small to earn one transaction: a subnormal pace
    # or probe mean overflowed to infinity, and a pace of 1e-300 left
    # display reading healthy while it moved nothing
    ("display", "pace_boost", "1e-320", "display"),
    ("display", "pace_boost", "1e-300", "display"),
    ("dsp", "rate_mbps", "1e-316", "dsp"),
    ("wifi", "rate_mbps", "1e-316", "wifi"),
    # a frame-progress meter with no whole transaction per frame, or with
    # no positive reference, read a made-up NPI
    ("improc", "frame_kb", "0", "improc"),
    ("improc", "reference_slope", "0", "improc"),
    ("improc", "reference_slope", "-1", "improc"),
    ("display", "meter", "frame_progress", "display")])
def test_nonfinite_float_or_negative_rate_is_config_error(tmp_path, capsys,
                                                          dma, key, value,
                                                          named):
    cfg = case_b_with(tmp_path, dma, key, value)
    rc = main(["run", "-c", cfg, "--duration", "3000",
               "-o", str(tmp_path / "out")])
    assert rc == EXIT_CONFIG
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("old,new,named", [
    ("meter_window_cycles = 2000", "meter_window_cycles = 0",
     "meter_window_cycles"),
    ("aging_period = 50000", "aging_period = 0", "aging_period"),
    ("aging_period = 50000", "aging_period = -1", "aging_period"),
    ("[dma wifi]", "[dma wifi]\nwindow_cycles = -5", "wifi")])
def test_nonpositive_window_or_aging_period_is_config_error(tmp_path, capsys,
                                                            old, new, named):
    # a DMA's window_cycles = 0 means the global meter_window_cycles
    text = Path(CASE_B).read_text(encoding="utf-8")
    assert old in text
    cfg = tmp_path / "case_b.cfg"
    cfg.write_text(text.replace(old, new))
    rc = main(["run", "-c", str(cfg), "--duration", "3000",
               "-o", str(tmp_path / "out")])
    assert rc == EXIT_CONFIG
    assert named in capsys.readouterr().err


def test_probe_faster_than_one_transaction_a_cycle_is_config_error(
        tmp_path, capsys):
    # case B runs at io_freq_mhz 1700: at most 32 * 1700 MB/s of 64 B reads
    rc = main(["run", "-c", case_b_with(tmp_path, "dsp", "rate_mbps", "1e300"),
               "--duration", "3000", "-o", str(tmp_path / "out")])
    assert rc == EXIT_CONFIG
    assert "dsp" in capsys.readouterr().err
    assert main(["run", "-c", case_b_with(tmp_path, "dsp", "rate_mbps",
                                          "54400"),
                 "--duration", "3000", "-o", str(tmp_path / "ok")]) == EXIT_OK


def test_meter_input_errors_are_config_errors_on_every_verb(tmp_path,
                                                            capsys):
    cfg = case_b_with(tmp_path, "dsp", "latency_limit_cycles", "0")
    assert main(["echo-config", "-c", cfg]) == EXIT_CONFIG
    assert "dsp" in capsys.readouterr().err


@pytest.mark.parametrize("old,new,named", [
    ("io_freq_mhz = 1700", "io_freq_mhz = 1700\nchannels = 3", "channels"),
    ("io_freq_mhz = 1700", "io_freq_mhz = 1700\nCL = 0", "CL"),
    ("capacity = 42", "capacity = 0", "capacity"),
    ("capacity = 42", "capacity = -3", "capacity"),
    ("depth = 8", "depth = -1", "depth"),
    ("cluster_depth = 2", "cluster_depth = -1", "cluster_depth"),
    ("queue_depth = 64", "queue_depth = -1", "improc")])
def test_bad_dram_controller_or_noc_value_is_config_error(tmp_path, capsys,
                                                          old, new, named):
    text = Path(CASE_B).read_text(encoding="utf-8")
    assert old in text
    cfg = tmp_path / "case_b.cfg"
    cfg.write_text(text.replace(old, new, 1))
    rc = main(["run", "-c", str(cfg), "--duration", "3000",
               "-o", str(tmp_path / "out")])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err


def test_negative_column_bits_is_config_error(tmp_path, capsys):
    # AddressMap shifted by it and the run exited 2
    text = Path(CASE_B).read_text(encoding="utf-8")
    assert "column_bits" not in text
    cfg = tmp_path / "case_b.cfg"
    cfg.write_text(text.replace("[dram]\n", "[dram]\ncolumn_bits = -1\n", 1))
    rc = main(["run", "-c", str(cfg), "--duration", "3000",
               "-o", str(tmp_path / "out")])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "[dram] column_bits" in err and "Traceback" not in err


def test_empty_region_is_config_error(tmp_path, capsys):
    # dsp jumps to a random address of its region on 80% of its requests
    cfg = case_b_with(tmp_path, "dsp", "region_len_kb", "0")
    assert "locality = 0.2" in Path(cfg).read_text(encoding="utf-8")
    rc = main(["run", "-c", cfg, "--duration", "3000",
               "-o", str(tmp_path / "out")])
    assert rc == EXIT_CONFIG
    assert "dsp" in capsys.readouterr().err


def test_misspelt_direction_is_config_error(tmp_path, capsys):
    # a typo must not build a fill stream
    cfg = case_b_with(tmp_path, "display", "direction", "drian")
    assert main(["list-cores", "-c", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "display" in err and "direction" in err


@pytest.mark.parametrize("in_file", [True, False])
def test_negative_seed_is_config_error(tmp_path, capsys, in_file):
    # the streams' SeedSequence, like numpy's, takes no negative entropy
    if in_file:
        path = tmp_path / "case_b.cfg"
        path.write_text(Path(CASE_B).read_text(encoding="utf-8")
                        .replace("seed = 7", "seed = -1"))
        argv = ["run", "-c", str(path)]
    else:
        argv = ["run", "-c", CASE_B, "--seed", "-1"]
    rc = main(argv + ["--duration", "3000", "-o", str(tmp_path / "out")])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "seed" in err and "Traceback" not in err


@pytest.mark.parametrize("duration", ["0", "-5"])
def test_nonpositive_duration_option_is_config_error(tmp_path, capsys,
                                                     duration):
    # a non-positive duration used to fall back to the frame-derived one
    out = tmp_path / "out"
    rc = main(["run", "-c", CASE_B, "--duration", duration, "-o", str(out)])
    assert rc == EXIT_CONFIG
    assert "--duration" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["run", "-c", "B", "--policy", "BOGUS"],
    ["run", "-c", "B", "--seed", "abc"],
    ["run", "-c", "B", "--duration", "1e3"],
    ["run"],
    ["bogus"],
    [],
    ["list-cores", "-c", "B", "-o", "x"],
], ids=["policy", "seed", "duration", "no-config", "verb", "no-verb",
        "unknown-option"])
def test_malformed_command_line_is_config_error(tmp_path, capsys,
                                                monkeypatch, argv):
    # argparse's own usage errors exit 2, the runtime-error code
    monkeypatch.chdir(tmp_path)
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error: sarasim")
    assert "usage:" not in captured.err and "Traceback" not in captured.err
    assert not any(tmp_path.iterdir())


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_negative_duration_frames_is_config_error(tmp_path, capsys):
    # it would resolve to a run shorter than its own warmup
    text = Path(CASE_B).read_text(encoding="utf-8")
    assert "warmup_cycles = 12000" in text and "duration_frames = 1" in text
    path = tmp_path / "case_b.cfg"
    path.write_text(text.replace("warmup_cycles = 12000",
                                 "warmup_cycles = 300000")
                    .replace("duration_frames = 1", "duration_frames = -1"))
    assert main(["echo-config", "-c", str(path)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "duration_frames" in captured.err and not captured.out


def test_malformed_frequency_is_config_error(tmp_path, capsys):
    rc = main(["sweep", "-c", CASE_B, "--duration", "3000", "--dma",
               "display", "--frequencies", "1700,abc",
               "-o", str(tmp_path / "out")])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "abc" in err and "runtime error" not in err


def test_negative_warmup_is_config_error(tmp_path, capsys):
    # the summary window would start before cycle 0, and every mean
    # bandwidth would be divided by cycles that never ran
    text = Path(CASE_B).read_text(encoding="utf-8")
    assert "warmup_cycles = 12000" in text
    path = tmp_path / "case_b.cfg"
    path.write_text(text.replace("warmup_cycles = 12000",
                                 "warmup_cycles = -5000"))
    out = tmp_path / "out"
    rc = main(["run", "-c", str(path), "--duration", "3000", "-o", str(out)])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "warmup_cycles" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("policies", [",", ""])
def test_empty_policy_list_is_config_error(tmp_path, capsys, policies):
    out = tmp_path / "cmp"
    rc = main(["compare", "-c", CASE_B, "--duration", "3000",
               "--policies", policies, "-o", str(out)])
    assert rc == EXIT_CONFIG
    assert "--policies" in capsys.readouterr().err
    assert not out.exists()


def test_repeated_policy_is_config_error(tmp_path, capsys):
    # QOS used to run twice and write QOS/npi.csv twice
    out = tmp_path / "cmp"
    rc = main(["compare", "-c", CASE_B, "--duration", "3000",
               "--policies", "QOS,FCFS,QOS", "-o", str(out)])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "QOS more than once" in err
    assert not out.exists()


@pytest.mark.parametrize("frequencies", ["1700,1700", "1700,1700.0"])
def test_repeated_frequency_is_config_error(tmp_path, capsys, frequencies):
    # 1700 used to run twice and write two identical sweep.csv rows
    out = tmp_path / "sweep"
    rc = main(["sweep", "-c", CASE_B, "--duration", "3000", "--dma",
               "display", "--frequencies", frequencies, "-o", str(out)])
    assert rc == EXIT_CONFIG
    assert "1700 more than once" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("frequencies", [",", ""])
def test_empty_frequency_list_is_config_error(tmp_path, capsys, frequencies):
    # used to exit 0 with a sweep.csv that held only its header
    out = tmp_path / "sweep"
    rc = main(["sweep", "-c", CASE_B, "--duration", "3000", "--dma",
               "display", "--frequencies", frequencies, "-o", str(out)])
    assert rc == EXIT_CONFIG
    assert "--frequencies" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_nonfinite_frequency_is_config_error_before_any_run(
        tmp_path, capsys, monkeypatch, bad):
    # a bad frequency after a good one used to be found only after the
    # good frequency's whole simulation had run
    runs = []
    monkeypatch.setattr("sarasim.engine.run", runs.append)
    out = tmp_path / "sweep"
    rc = main(["sweep", "-c", CASE_B, "--duration", "3000", "--dma",
               "display", "--frequencies", f"1700,{bad}", "-o", str(out)])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "frequency" in err and "runtime error" not in err
    assert runs == [] and not out.exists()
