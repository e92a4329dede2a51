"""Tests for the extended CLI commands (breakdown, trace, save, compare)."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.cli import main
from repro.vibe import run_benchmark


def test_breakdown_single(capsys):
    main(["breakdown", "--provider", "clan", "--size", "64"])
    out = capsys.readouterr().out
    assert "latency breakdown: clan" in out
    assert "bottleneck:" in out


def test_breakdown_compare(capsys):
    main(["--providers", "mvia,clan", "breakdown", "--compare",
          "--size", "16"])
    out = capsys.readouterr().out
    assert "mvia@16B" in out and "clan@16B" in out
    assert "TOTAL" in out


def test_trace_timeline(capsys):
    """The timeline names every layer, and it reads the same whatever
    ran earlier in the process: after a benchmark has allocated packet
    and descriptor ids, it matches a fresh interpreter's byte for
    byte."""
    argv = ["trace", "--provider", "bvia", "--size", "32"]
    run_benchmark("base_latency", "clan", sizes=[4])
    main(argv)
    out = capsys.readouterr().out
    assert "host/post_send" in out
    assert "nic/frag_out" in out
    assert "wire/serialized" in out
    assert "via/completed" in out
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(pathlib.Path(__file__).parent.parent / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    fresh = subprocess.run([sys.executable, "-m", "repro.cli", *argv],
                           env=env, capture_output=True, text=True,
                           check=True)
    assert out == fresh.stdout


_KNOWN = "known: mvia, bvia, clan, iba"


@pytest.mark.parametrize("argv,message", [
    (["trace", "--size", "-1"],
     "vibe trace: --size -1 is outside clan's message sizes 0..65536"),
    (["breakdown", "--provider", "bvia", "--size", "65536"],
     "vibe breakdown: --size 65536 is outside bvia's message sizes "
     "0..32768"),
    (["profile", "--size", "-1"],
     "vibe profile: --size -1 is outside mvia's message sizes 0..65536"),
    (["trace", "--provider", "nope"],
     f"vibe trace: unknown provider 'nope'; {_KNOWN}"),
    (["breakdown", "--provider", "nope"],
     f"vibe breakdown: unknown provider 'nope'; {_KNOWN}"),
    (["save", "--repo", "r", "--platform", "p", "--provider", "nope"],
     f"vibe save: unknown provider 'nope'; {_KNOWN}"),
    (["--providers", "mvia,nope", "breakdown", "--compare"],
     f"vibe breakdown: unknown provider 'nope'; {_KNOWN}"),
    (["--providers", "nope", "table1"],
     f"vibe table1: unknown provider 'nope'; {_KNOWN}"),
    (["--providers", "nope", "figure", "3"],
     f"vibe figure: unknown provider 'nope'; {_KNOWN}"),
    (["--providers", "nope", "profile"],
     f"vibe profile: unknown provider 'nope'; {_KNOWN}"),
    (["--providers", "nope", "report"],
     f"vibe report: unknown provider 'nope'; {_KNOWN}"),
    (["--providers", "nope", "check"],
     f"vibe check: unknown provider 'nope'; {_KNOWN}"),
    (["--providers", "nope", "chaos", "--rewind"],
     f"vibe chaos: unknown provider 'nope'; {_KNOWN}"),
    (["figure", "3", "--sizes", "-1"],
     "vibe figure: --sizes -1 is outside mvia's message sizes 0..65536"),
    (["figure", "3", "--sizes", "40000"],
     "vibe figure: --sizes 40000 is outside bvia's message sizes 0..32768"),
    (["--providers", "mvia", "figure", "5", "--sizes", "40000"],
     "vibe figure: --sizes 40000 is outside bvia's message sizes 0..32768"),
    (["--providers", "clan", "figure", "7", "--sizes", "4,70000"],
     "vibe figure: --sizes 70000 is outside clan's message sizes 0..65536"),
    (["figure", "1", "--sizes", "0"],
     "vibe figure: --sizes 0 is not a buffer size; figure 1 registers "
     "1 byte or more"),
    (["figure", "3", "--sizes", "4,abc"],
     "vibe figure: --sizes 4,abc is not a comma-separated list of "
     "integers"),
])
def test_bad_provider_or_size_exits_with_one_line(argv, message, capsys):
    """Checked before anything is simulated: nothing reaches stdout."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == message
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["trace", "--size", "0"],
    ["--providers", "mvia,bvia,clan,iba", "breakdown", "--compare",
     "--size", "0"],
    ["profile", "--size", "0"],
    ["figure", "3", "--sizes", "0"],
    ["figure", "4", "--sizes", "0"],
    ["figure", "5", "--sizes", "0"],
    ["figure", "7", "--sizes", "0"],
])
def test_zero_length_message_still_runs(argv, capsys):
    main(argv)
    assert capsys.readouterr().out


def test_save_and_compare_roundtrip(tmp_path, capsys):
    repo = str(tmp_path / "repo")
    main(["save", "--repo", repo, "--platform", "clan-sim",
          "--provider", "clan", "nondata"])
    main(["save", "--repo", repo, "--platform", "bvia-sim",
          "--provider", "bvia", "nondata"])
    capsys.readouterr()
    main(["compare", "--repo", repo, "nondata", "cost_us"])
    out = capsys.readouterr().out
    assert "clan-sim" in out and "bvia-sim" in out
    assert "establish_connection" in out


def test_save_default_benchmark_set(tmp_path, capsys):
    repo = str(tmp_path / "repo")
    main(["save", "--repo", repo, "--platform", "p", "--provider", "clan",
          "memreg"])
    out = capsys.readouterr().out
    assert "saved" in out
    assert (tmp_path / "repo" / "p" / "memreg.json").exists()


def test_compare_selected_platforms(tmp_path, capsys):
    repo = str(tmp_path / "repo")
    for platform, provider in (("a", "clan"), ("b", "mvia")):
        main(["save", "--repo", repo, "--platform", platform,
              "--provider", provider, "memreg"])
    capsys.readouterr()
    main(["compare", "--repo", repo, "--platforms", "a", "memreg",
          "register_us"])
    out = capsys.readouterr().out
    assert "a" in out and "b" not in out.replace("benchmarks", "")
