"""Random-stream plumbing: reproducibility, per-DMA independence, basic
distribution sanity, and draw-for-draw agreement with numpy's Generator."""

import math
import os
import re
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

from sarasim.config import load_packaged_scenario
from sarasim.rng import ZIGGURAT_EXP_R, DmaStream, dma_stream

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (0, 1, 7, 1017, 123456789, 2**40 + 5)
BOUNDS = (1, 2, 3, 2**32 - 1, 2**32, 2**32 + 1, 2**40, 3 * 2**61 + 7,
          2**63 - 1)


def draws(stream, n):
    return [stream.random() for _ in range(n)]


def numpy_stream(seed, dma_id):
    key = zlib.crc32(dma_id.encode("utf-8"))
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(key,))
    return np.random.Generator(np.random.PCG64(seq))


def packaged_dma_ids():
    return sorted({e.dma_id for case in ("a", "b", "sweep")
                   for e in load_packaged_scenario(case).dmas})


class TestDmaStream:
    def test_same_seed_same_draws(self):
        a = draws(dma_stream(7, "codec"), 100)
        b = draws(dma_stream(7, "codec"), 100)
        assert a == b

    def test_different_seeds_differ(self):
        a = draws(dma_stream(7, "codec"), 100)
        b = draws(dma_stream(8, "codec"), 100)
        assert a != b

    def test_streams_keyed_by_dma_id(self):
        a = draws(dma_stream(7, "codec"), 100)
        b = draws(dma_stream(7, "display"), 100)
        assert a != b

    def test_adding_a_dma_does_not_perturb_others(self):
        # drawing from one stream never advances another
        first = dma_stream(7, "codec")
        _ = draws(dma_stream(7, "newcomer"), 1000)
        second = dma_stream(7, "codec")
        assert draws(first, 50) == draws(second, 50)

    def test_uniform_mean(self):
        mean = math.fsum(draws(dma_stream(7, "wifi"), 1_000_000)) / 1_000_000
        assert abs(mean - 0.5) < 0.01

    def test_exponential_mean(self):
        stream = dma_stream(7, "dsp")
        total = math.fsum(stream.exponential(1000.0)
                          for _ in range(1_000_000))
        assert abs(total / 1_000_000 - 1000.0) / 1000.0 < 0.01


class TestMatchesNumpy:
    """The stream is numpy's Generator(PCG64(SeedSequence(...))), bit for
    bit, for the three draws the traffic generators make."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_interleaved_draws(self, seed):
        for dma_id in packaged_dma_ids() + ["caméra-ü"]:
            ours, ref = dma_stream(seed, dma_id), numpy_stream(seed, dma_id)
            for i in range(600):
                n = BOUNDS[i % len(BOUNDS)]
                assert ours.random() == ref.random()
                assert ours.integers(n) == ref.integers(n)
                assert ours.exponential(719.1) == ref.exponential(719.1)
                # an odd count of 32-bit draws leaves half a word buffered
                assert ours.integers(1000) == ref.integers(1000)

    @pytest.mark.parametrize("n", BOUNDS + (2**63,))
    def test_integers_at_every_bound(self, n):
        ours, ref = dma_stream(1017, "dsp"), numpy_stream(1017, "dsp")
        assert [ours.integers(n) for _ in range(500)] \
            == ref.integers(n, size=500).tolist()
        assert ours.random() == ref.random()

    def test_exponential_runs_every_ziggurat_branch(self, monkeypatch):
        uniform = DmaStream.random
        calls = []

        def counted(self):
            calls.append(None)
            return uniform(self)

        monkeypatch.setattr(DmaStream, "random", counted)
        ours = dma_stream(7, "dsp")
        got = [ours.exponential(1.0) for _ in range(300_000)]
        assert got == numpy_stream(7, "dsp").exponential(
            1.0, size=300_000).tolist()
        # only the tail returns more than its start; every other call to
        # random() tests a wedge
        tail = sum(x > ZIGGURAT_EXP_R for x in got)
        assert tail > 0 and len(calls) > tail

    def test_out_of_range_arguments_raise(self):
        with pytest.raises(ValueError):
            dma_stream(-1, "x")
        stream = dma_stream(7, "x")
        for n in (0, -1, 2**63 + 1):
            with pytest.raises(ValueError):
                stream.integers(n)
        with pytest.raises(ValueError):
            stream.exponential(-1.0)


def test_runtime_never_imports_numpy():
    code = (
        "import sys\n"
        "import sarasim.cli\n"
        "from sarasim.config import load_packaged_scenario\n"
        "from sarasim.engine import World\n"
        "for case in ('a', 'b', 'sweep'):\n"
        "    World(load_packaged_scenario(case))\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    imports = re.compile(r"^\s*(import|from)\s+numpy\b", re.M)
    for path in (ROOT / "src").rglob("*.py"):
        assert not imports.search(path.read_text(encoding="utf-8")), path
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert "\ndependencies = []\n" in pyproject
