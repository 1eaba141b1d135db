"""End-to-end simulation loop: health under light load, determinism,
transaction conservation, and degenerate worlds."""

import copy
import hashlib

import pytest

from sarasim import engine, metrics, traffic
from sarasim.cli import write_npi_csv, write_summary_csv
from sarasim.config import (emit_config, load_packaged_scenario, parse_config,
                            with_policy)
from sarasim.controller import POLICIES, QUEUE_NAMES, ControllerState
from sarasim.noc import NocFabric

from test_noc import keep

MINI = """
name = mini
seed = 1
desk_scale = 64
warmup_cycles = 2000
epoch_cycles = 100
meter_window_cycles = 2000

[dram]
io_freq_mhz = 1866

[controller]
policy = QOS

[dma dsp]
core = dsp
queue = dsp
cluster = direct
kind = latency_probe
meter = latency
rate_mbps = 100.0
latency_limit_cycles = 300
region_base_kb = 0
region_len_kb = 1024

[dma wifi]
core = wifi
queue = system
cluster = system
kind = bandwidth_stream
meter = bandwidth
rate_mbps = 400.0
target_mbps = 100.0
region_base_kb = 2048
region_len_kb = 64
"""


def mini_cfg():
    return parse_config(MINI)


class TestRun:
    def test_uncontended_dma_stays_healthy(self):
        report = engine.run(mini_cfg(), duration_cycles=20_000)
        assert report.min_npi("dsp") >= 1.0
        assert report.min_npi("wifi") >= 1.0

    def test_transaction_conservation(self):
        report = engine.run(mini_cfg(), duration_cycles=20_000)
        assert report.generated == report.completed + report.resident_at_end
        assert report.completed > 0

    def test_deterministic_reports(self):
        a = engine.run(mini_cfg(), duration_cycles=20_000)
        b = engine.run(mini_cfg(), duration_cycles=20_000)
        assert a.sink.series["dsp"] == b.sink.series["dsp"]
        assert a.completed == b.completed
        assert a.total_bytes == b.total_bytes

    def test_seed_changes_probe_timing(self):
        cfg_a, cfg_b = mini_cfg(), mini_cfg()
        cfg_b.seed = 2
        a = engine.run(cfg_a, duration_cycles=20_000)
        b = engine.run(cfg_b, duration_cycles=20_000)
        sa, sb = a.sink.series["dsp"], b.sink.series["dsp"]
        assert (sa.cycle, sa.npi) != (sb.cycle, sb.npi)

    def test_empty_world_is_quiet(self):
        cfg = mini_cfg()
        for e in cfg.dmas:
            e.rate_mbps = 0.0
            e.target_mbps = 0.0
        report = engine.run(cfg, duration_cycles=5_000)
        assert report.generated == 0
        assert report.completed == 0

    def test_one_issue_per_channel_per_cycle(self):
        # each channel moves at most 64 bytes per tBURST window
        report = engine.run(mini_cfg(), duration_cycles=20_000)
        channels = 2
        ceiling = (20_000 / 8 + 1) * 64 * channels
        assert report.total_bytes <= ceiling

    def test_policy_is_reported(self):
        cfg = with_policy(mini_cfg(), "FR_FCFS")
        report = engine.run(cfg, duration_cycles=10_000)
        assert report.policy == "FR_FCFS"

    def test_all_policies_run_clean(self):
        # smoke: no IllegalIssue or accounting error under any policy
        for policy in ("FCFS", "RR", "FRAME_QOS", "QOS", "QOS_RB", "FR_FCFS"):
            report = engine.run(with_policy(mini_cfg(), policy),
                                duration_cycles=8_000)
            assert report.generated == (report.completed
                                        + report.resident_at_end)

    def test_row_accounting_is_consistent(self):
        report = engine.run(mini_cfg(), duration_cycles=20_000)
        total = report.row_hits + report.row_misses + report.bank_opens
        assert total > 0
        assert 0.0 <= report.row_hit_rate <= 1.0

    def test_world_leaves_the_config_unchanged(self):
        cfg = load_packaged_scenario("A")
        cfg.desk_scale = 64
        before = copy.deepcopy(cfg)
        world = engine.World(cfg)
        for _ in range(2_000):
            world.step()
        assert cfg == before

    def test_latency_meter_sees_noc_plus_dram_latency(self):
        report = engine.run(mini_cfg(), duration_cycles=20_000)
        # minimum possible wait: one NoC hop plus a closed-bank access
        assert report.max_wait >= 1 + 34 + 36 + 8


# sha256 of the NPI and summary CSVs of case A run for 20,000 cycles, as
# recorded before the policies became one table of records; every policy
# takes its own path through the NoC, the aging check and the controller
CASE_A_DIGESTS = {
    "FCFS": ("1a18904d05f53d9e6dff333bdeccdc3985dbd0c34e6a21275242e2da6a004ca9",
             "6d0e5d3ccd6d8f4e4fd0dfbd7e7168fbfe7109ba274f31ae2f20181b6d0d7e0f"),
    "RR": ("4212b0dd80e2fd3e2e1b781820f2d06e70c83c8640976ae3f75a4446f57e0cd9",
           "285343e4ed5bcabefb09bd6970c83f7dc16b84ec6c70be7763ed9dbbe40758bd"),
    "FRAME_QOS": (
        "db48b362b1165de12fec2343a6b4837b3a2af3d3b0ede3381fa823dae1fe82c5",
        "3bc247ad5bf3c4522012afd3c633cc34dc492a8553f6e025e9581e0897c0772f"),
    "QOS": ("c3daeedb385ef4baab2c6d762c72384ce6c2eaf97011f6755ad5e942c9d49a35",
            "66d595e8109b1e019d62f81ac3e15fa398c59f0baac21584fca859afc6e80d69"),
    "QOS_RB": (
        "3415ef31610c21b6205e01ce5fa8f9c97896dc8b772b77297cd87fc677a8919b",
        "5bf26cb2262f02dc496ddc2023c23bfc874f63c30295330ed004b9bd13615081"),
    "FR_FCFS": (
        "8f588a29941c4547744699ffa3190936e7484b31fe7589290cd231ca3f0a42a4",
        "87954943ff2650a789af2f9ef020e8e004f9d195986e2225d54b46f6ac7b7e6d"),
}


@pytest.mark.parametrize("policy", list(CASE_A_DIGESTS))
def test_case_a_outputs_match_recorded_digests(tmp_path, policy):
    report = engine.run(with_policy(load_packaged_scenario("A"), policy),
                        duration_cycles=20_000)
    npi, summary = tmp_path / "npi.csv", tmp_path / "summary.csv"
    write_npi_csv(npi, report)
    write_summary_csv(summary, metrics.policy_comparison({policy: report}))
    assert (hashlib.sha256(npi.read_bytes()).hexdigest(),
            hashlib.sha256(summary.read_bytes()).hexdigest()
            ) == CASE_A_DIGESTS[policy]


def stepped(cfg, cycles, world_class=engine.World):
    """Reference loop: one World.step() per cycle, no fast-forward."""
    world = world_class(cfg)
    for _ in range(cycles):
        world.step()
    return world.report()


def executed_cycles(cfg, cycles):
    """Cycles that engine.run steps; the others are fast-forwarded."""
    world = engine.World(cfg)
    out = []
    while world.cycle < cycles:
        out.append(world.cycle)
        world.step()
        world.skip_idle(cycles)
    return out


def quiet_b():
    """Case B without its elastic streams, which would keep every cycle
    busy: most of its cycles are fast-forwarded."""
    cfg = load_packaged_scenario("B")
    cfg.dmas = [e for e in cfg.dmas if e.kind != "bandwidth_stream"]
    return cfg


def outcome(report):
    return {
        "duration": report.duration_cycles,
        # each series is a tuple of typed columns, which compare by value
        "npi": report.sink.series,
        "bytes_by_dma": report.sink.bytes_by_dma,
        "rows": (report.row_hits, report.row_misses, report.bank_opens),
        "total_bytes": report.total_bytes,
        "max_wait": report.max_wait,
        "generated": report.generated,
        "completed": report.completed,
        "resident_at_end": report.resident_at_end,
    }


POLICIES = ("FCFS", "RR", "FRAME_QOS", "QOS", "QOS_RB", "FR_FCFS")


class TestFastForward:
    """engine.run skips cycles in which no phase can act; its results must
    equal those of stepping every cycle."""

    @pytest.mark.parametrize("policy", POLICIES)
    def test_mini_equals_per_cycle_loop(self, policy):
        cfg = with_policy(mini_cfg(), policy)
        assert (outcome(engine.run(cfg, duration_cycles=20_000))
                == outcome(stepped(cfg, 20_000)))

    def test_full_leaves_equal_per_cycle_loop(self):
        # with zero-depth queues every poll finds its leaf full
        cfg = parse_config(MINI.replace("[dma dsp]",
                                        "[noc]\ndepth = 0\n\n[dma dsp]"))
        assert (outcome(engine.run(cfg, duration_cycles=5_000))
                == outcome(stepped(cfg, 5_000)))

    @pytest.mark.parametrize("case", ["A", "B", "sweep"])
    def test_packaged_scenarios_equal_per_cycle_loop(self, case):
        cfg = load_packaged_scenario(case)
        assert (outcome(engine.run(cfg, duration_cycles=30_000))
                == outcome(stepped(cfg, 30_000)))

    def test_duration_ending_inside_a_skip(self):
        cfg = quiet_b()
        cycles = executed_cycles(cfg, 30_000)
        gaps = [c for c, nxt in zip(cycles, cycles[1:]) if nxt - c > 2]
        end = gaps[len(gaps) // 2] + 2  # strictly inside a skipped stretch
        assert end not in cycles
        assert (outcome(engine.run(cfg, duration_cycles=end))
                == outcome(stepped(cfg, end)))


class PollingWorld(engine.World):
    """A World whose phase 1 polls every due DMA, full leaf or full buffer,
    instead of parking it until the NoC drains its leaf or gate-parking it
    until a completion or an epoch; phases 2-5 are World.step's, which then
    finds no poll due."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.polls = dict.fromkeys(self.dma_order, 0)
        self._polls = []

    def step(self):
        now = self.cycle
        for dma in self.dma_order:
            if now < self.polls[dma]:
                continue
            gen = self.generators[dma]
            space = self.noc.leaf_space(dma)
            if space > 0:
                for txn in gen.next_requests(now, space, self.level[dma]):
                    self.dram.decode_into(txn)
                    self.noc.offer(dma, txn, now)
                    self.generated += 1
            self.polls[dma] = gen.next_poll_after(now)
        super().step()


class TestParkedGenerators:
    """Parking a generator behind its full leaf and waking it at the
    poll_from cycle, and gate-parking a stream behind its full buffer,
    must equal polling it every due cycle."""

    @pytest.mark.parametrize("case", ["A", "B", "sweep"])
    def test_packaged_scenarios_equal_polling_every_due_dma(self, case):
        cfg = load_packaged_scenario(case)
        world = PollingWorld(cfg)
        for _ in range(30_000):
            world.step()
        assert (outcome(engine.run(cfg, duration_cycles=30_000))
                == outcome(world.report()))


class TestPollSchedule:
    """Every DMA is in exactly one of the poll heap `World._polls`, the
    parked and the gate-parked DMAs, and no poll in the heap is late: it
    falls at or after the next cycle to step, also after a fast-forward."""

    @staticmethod
    def check(world):
        scheduled = [dma for _, dma in world._polls]
        assert (sorted(scheduled + list(world._parked) + list(world._gated))
                == world.dma_order), world.cycle
        late = [entry for entry in world._polls if entry[0] < world.cycle]
        assert not late, (world.cycle, late)

    @pytest.mark.parametrize("case", ["A", "B", "sweep", "quiet"])
    def test_each_dma_scheduled_once_and_no_poll_late(self, case):
        cfg = quiet_b() if case == "quiet" else load_packaged_scenario(case)
        world = engine.World(cfg)
        while world.cycle < 30_000:  # engine.run's loop
            world.step()
            self.check(world)
            world.skip_idle(30_000)
            self.check(world)


OCCUPANCY = """
name = occupancy
seed = 3
desk_scale = 64
warmup_cycles = 2000
epoch_cycles = 100
meter_window_cycles = 2000

[dram]
io_freq_mhz = 1866

[controller]
policy = QOS

[dma display]
core = display
queue = media
cluster = direct
kind = constant_rate
meter = occupancy
direction = drain
rate_mbps = 995.3
buffer_kb = 16
region_base_kb = 0
region_len_kb = 1024

[dma camera]
core = camera
queue = media
cluster = media
kind = constant_rate
meter = occupancy
direction = fill
rate_mbps = 995.3
buffer_kb = 16
read_fraction = 0.0
region_base_kb = 2048
region_len_kb = 1024
"""


class TestGateParking:
    """Gate-parking an occupancy-gated stream until one of its completions
    or an epoch, then replaying its missed polls, must equal polling it."""

    @pytest.mark.parametrize("policy", POLICIES)
    def test_drain_and_fill_streams_equal_per_cycle_polling(self, policy):
        cfg = with_policy(parse_config(OCCUPANCY), policy)
        world, ref = engine.World(cfg), PollingWorld(cfg)
        parked = set()
        while world.cycle < 20_000:  # engine.run's loop
            world.step()
            world.skip_idle(20_000)
            while ref.cycle < world.cycle:
                ref.step()
            parked |= set(world._gated)
            # a gate-parked generator has polls still to replay; the others
            # have made every poll (repr round-trips a float exactly)
            for dma in world.dma_order:
                if dma not in world._gated:
                    assert (repr(world.generators[dma].state)
                            == repr(ref.generators[dma].state)), dma
        assert parked == {"display", "camera"}
        assert outcome(world.report()) == outcome(ref.report())

    def test_run_ending_while_gate_parked(self):
        cfg = parse_config(OCCUPANCY)
        world = engine.World(cfg)
        while world.cycle < 20_000 and not (world.cycle > 10_000
                                            and world._gated):
            world.step()
            world.skip_idle(20_000)
        assert world._gated, "no stream gate-parked after cycle 10,000"
        end = world.cycle
        assert (outcome(engine.run(cfg, duration_cycles=end))
                == outcome(stepped(cfg, end, PollingWorld)))


class ScratchFabric(NocFabric):
    """A fabric that, on every cycle, rebuilds from scratch the kept ports
    of each node whose memo is valid and checks them against the memo, and
    checks that a root offers a head to the controller only when the pool
    can take it.  A root grant makes the later roots rebuild and leaves the
    cluster leaves alone, so every memo that `step` reuses is checked on
    the state it is reused on."""

    def step(self, now, controller):
        for node in self.roots + self.cluster_nodes:
            if node.built >= node.stale_from:  # a memo hit
                eligible = [i for i, q in enumerate(node.ports)
                            if q and q[0].t_hop < now
                            and node.channel in (None, q[0].channel)]
                assert node.kept == keep(node.ports, eligible,
                                         node.mode), (now, node.name)
                self.hits[node.channel is None] += 1
        enqueue = controller.enqueue

        def checked(txn, at):
            accepted = enqueue(txn, at)
            assert accepted, (now, txn.id)
            return accepted
        controller.enqueue = checked
        try:
            super().step(now, controller)
        finally:
            del controller.enqueue


def memo_hits(monkeypatch, cfg, cycles):
    """(root, cluster) memo hits of a checked run of `cfg`."""
    fabrics = []

    def fabric(*args, **kwargs):
        fab = ScratchFabric(*args, **kwargs)
        fab.hits = [0, 0]
        fabrics.append(fab)
        return fab
    monkeypatch.setattr(engine, "NocFabric", fabric)
    engine.run(cfg, duration_cycles=cycles)
    return tuple(fabrics[0].hits)


# three DMAs, two of them direct, that a two-entry pool backs up: root heads
# wait, their levels move at each epoch and they age every 250 cycles, also
# between epochs
CONTENDED = MINI.replace("policy = QOS", """policy = QOS
capacity = 2
aging_period = 250""").replace("rate_mbps = 100.0", "rate_mbps = 3000.0").replace(
    "rate_mbps = 400.0\ntarget_mbps = 100.0", """rate_mbps = 8000.0
target_mbps = 3000.0
lut = 2.0,1.8,1.6,1.45,1.3,1.2,1.1,0""") + """
[dma usb]
core = usb
queue = system
cluster = direct
kind = bandwidth_stream
meter = bandwidth
rate_mbps = 8000.0
target_mbps = 2000.0
read_fraction = 0.0
region_base_kb = 4096
region_len_kb = 64
lut = 2.0,1.8,1.6,1.45,1.3,1.2,1.1,0
"""


# CONTENDED plus a slow probe alone in the media cluster, whose leaf is
# mostly empty
CLUSTERED = CONTENDED + """
[dma audio]
core = audio
queue = media
cluster = media
kind = latency_probe
meter = latency
rate_mbps = 200.0
latency_limit_cycles = 300
region_base_kb = 8192
region_len_kb = 64
"""


# sha256 of the NPI and summary CSVs of CONTENDED and CLUSTERED run for
# 20,000 cycles, as recorded once the NoC and the controller ranked aged
# requests alike; aging marks about 500-700 transactions in each QOS and
# QOS_RB run, and no case-A run ages one
AGING_DIGESTS = {
    ("CONTENDED", "FCFS"): (
        "b09f2fb14034ba511aed2691aea83b575c82bc2fe70a985f8fa716be2621e134",
        "2316805a48da040df7956e6f360d5a93c8fa4dce902df3730279926b2cecc2c5"),
    ("CONTENDED", "RR"): (
        "2645f6ef24e36676fb32156de28e3557fc4d6afeb3e61e99e51036d531de89d9",
        "57bb40474118c6a5896e0173b9b521103472f588d7878fcffde7f9dd81d61218"),
    ("CONTENDED", "FRAME_QOS"): (
        "1f1dd2395c2af3a12fde8a8503970ac675a741cef160682f924a779c60f0fb47",
        "6eab04b3918405d13fc32e05b42e9cd963f90185d23cff7a29aa719bbb58c491"),
    ("CONTENDED", "QOS"): (
        "6d0d602378646ae32cffb6061d9099dced2a52601213018d6ab6e6e29693e3f7",
        "8266eb5e260e23c6beed72716873b4cdf7cf9ced22c038fe341f7a170363d454"),
    ("CONTENDED", "QOS_RB"): (
        "f528bf70b55843c6384261973dd0fae7eadb2d5ed313d90b000a300914b717b4",
        "b31d42f09f4b84fba0e45d73b19b8086c410fb32acc438ffe6d22c87e7e365d8"),
    ("CONTENDED", "FR_FCFS"): (
        "c6e4d160c7e9875205c2bbd5a8062a36f5433fa73bb0f11fe80497504bc0bfa7",
        "facfca7688ddd6d6836c7a0374fcd19422eea8139e5ff43136796d8f8a1f1d94"),
    ("CLUSTERED", "FCFS"): (
        "cd09fc50743d66ba50c95aaf4759c281ffa39d11bb5acb132f0ab7739cd6b537",
        "b725f22b908cc4639b553afbfc5aa4253694cc4708769ed830df1565a5ebe5ea"),
    ("CLUSTERED", "RR"): (
        "da5b6d66aceb3d9123fd32c050bd2691c0f43eb47d78362592f3ee3200a90992",
        "37d3758fc1dc599e6ee854f9e5032130b8dac168ad99d68e42248271d5bd4812"),
    ("CLUSTERED", "FRAME_QOS"): (
        "a0338b6585e2eff7ce7e1f51e12c9936b53a897787d80be8229ddcdaa5f4c63f",
        "b1f12f672a289845a793e2a0e7c259a98193fe21960121385d07cff18b9dbe74"),
    ("CLUSTERED", "QOS"): (
        "5498f59d9a7be01315e4dce9481d229520d7fdd03591d50e6604a09cc8203177",
        "65e12986691ceeb30ffaed506aca6caae040822f3aa634abe8ee161a34cd6534"),
    ("CLUSTERED", "QOS_RB"): (
        "eeffc43f5786e251cc7b8e5a4467a305abcea28456c564a236f847fb333bff8c",
        "ead5bc2e249822cc0e14c3c0eb0635cc98f573ef8fa92e305fc4dc0d10721f8b"),
    ("CLUSTERED", "FR_FCFS"): (
        "dd7e768cc9e8300bff4614944be08787c806f93e1c0300d3fa34b0b105825f5b",
        "02090d1e1c5f7d963f6bba0d2fc72a91ff8d712460f74d248e1c070a5f01c75c"),
}


@pytest.mark.parametrize("scenario,policy", list(AGING_DIGESTS))
def test_aging_outputs_match_recorded_digests(tmp_path, scenario, policy):
    text = {"CONTENDED": CONTENDED, "CLUSTERED": CLUSTERED}[scenario]
    report = engine.run(with_policy(parse_config(text), policy),
                        duration_cycles=20_000)
    npi, summary = tmp_path / "npi.csv", tmp_path / "summary.csv"
    write_npi_csv(npi, report)
    write_summary_csv(summary, metrics.policy_comparison({policy: report}))
    assert (hashlib.sha256(npi.read_bytes()).hexdigest(),
            hashlib.sha256(summary.read_bytes()).hexdigest()
            ) == AGING_DIGESTS[scenario, policy]


class TestAgingGate:
    """The engine alone decides when to age: on every aging boundary under
    QOS and QOS_RB, and never under the other policies, where an aged flag
    would change no output of FCFS, RR or FR_FCFS."""

    @pytest.mark.parametrize("policy", POLICIES)
    def test_aging_calls_per_policy(self, monkeypatch, policy):
        calls = {"controller": [], "noc": []}
        apply_aging = ControllerState.apply_aging
        age_resident = NocFabric.age_resident

        def counted_apply_aging(ctrl, now, period):
            calls["controller"].append((now, period))
            apply_aging(ctrl, now, period)

        def counted_age_resident(fab, now, period):
            calls["noc"].append((now, period))
            age_resident(fab, now, period)
        monkeypatch.setattr(ControllerState, "apply_aging",
                            counted_apply_aging)
        monkeypatch.setattr(NocFabric, "age_resident", counted_age_resident)
        engine.run(with_policy(parse_config(CONTENDED), policy),
                   duration_cycles=5_000)
        boundaries = ([(now, 250) for now in range(250, 5_000, 250)]
                      if policy in ("QOS", "QOS_RB") else [])
        assert calls == {"controller": boundaries, "noc": boundaries}


class TestRootMemo:
    """Each root's kept ports, cached until a head enters an empty queue it
    reads, a grant, an epoch's re-levelling or aging, must equal those
    rebuilt every cycle, and a root offers a head only to a pool with
    room."""

    @pytest.mark.parametrize("policy", POLICIES)
    def test_mini_with_epochs_and_aging(self, monkeypatch, policy):
        roots, clusters = memo_hits(
            monkeypatch, with_policy(parse_config(CONTENDED), policy), 20_000)
        # CONTENDED's one cluster grants on almost every cycle, and each
        # grant makes it rebuild
        assert roots > 1000 and clusters > 20

    @pytest.mark.parametrize("case", ["A", "sweep"])
    def test_packaged_scenarios(self, monkeypatch, case):
        roots, _ = memo_hits(monkeypatch, load_packaged_scenario(case),
                             30_000)
        assert roots > 10_000


class TestClusterWake:
    """A cluster whose memo holds no port skips its turn without a rescan;
    its memo, like a root's, must equal the ports rebuilt every cycle."""

    @pytest.mark.parametrize("policy", POLICIES)
    def test_mini_with_epochs_and_aging(self, monkeypatch, policy):
        # CLUSTERED's media cluster is mostly idle
        roots, clusters = memo_hits(
            monkeypatch, with_policy(parse_config(CLUSTERED), policy), 20_000)
        assert roots > 1000 and clusters > 1000

    @pytest.mark.parametrize("case", ["A", "sweep"])
    def test_packaged_scenarios(self, monkeypatch, case):
        # their clusters are rarely idle in the first 30k cycles (37 hits
        # on A, 27 on the sweep)
        _, clusters = memo_hits(monkeypatch, load_packaged_scenario(case),
                                30_000)
        assert clusters > 20


class TestRelevel:
    """An epoch re-levels a leaf only when its DMA's level changed; every
    request still waiting in a leaf must carry its DMA's current level."""

    @pytest.mark.parametrize("cfg", [
        *(with_policy(parse_config(CLUSTERED), p) for p in POLICIES),
        load_packaged_scenario("A"), load_packaged_scenario("sweep")],
        ids=[*POLICIES, "A", "sweep"])
    def test_leaf_priorities_equal_the_dma_level(self, cfg):
        world = engine.World(cfg)
        epochs = changes = 0
        levels = dict(world.level)
        while world.cycle < 20_000:  # engine.run's loop
            world.step()
            if (world.cycle - 1) % cfg.epoch_cycles == 0:
                epochs += 1
                changes += world.level != levels
                levels = dict(world.level)
                for dma in world.dma_order:
                    assert all(txn.priority == world.level[dma]
                               for txn in world.noc.leaf[dma]), dma
            world.skip_idle(20_000)
        assert epochs >= 20_000 // cfg.epoch_cycles - 1
        assert changes > 0


# sha256 of the NPI and summary CSVs of 20,000 cycles under a static split
# of the controller pool, as recorded while the controller still kept a deque
# per queue next to its per-bank groups
STATIC_SPLIT_DIGESTS = {
    ("A", "QOS"): (
        "1e685cd3bcd55e2d7b5326f6332bbeeb24d8dbbb3e98323f80901fbf920edb81",
        "2a2105ae65d2ed2dc24d875c40b899c6f710199728c5250538703c75f3c12cdd"),
    ("A", "QOS_RB"): (
        "ee0edb47997d2e6f1237528cc06a4a9f1da5d1cfbfe310fcb93bbea28f9de419",
        "d340a696a586d1cd945372447aea3f0cc81ec799af6aa17fe99606d3d81300cc"),
    ("A", "FCFS"): (
        "cc25f3fa6a83103e2797f150bd9ebae2265bd16c14296b30cd9ac862274019cf",
        "8bdaf300444e6bec256c40fcf0c7471d99a797bca7ede3336f314815cd46354a"),
    ("sweep", "QOS"): (
        "afa96360b8c21ea22bed2d5177183e699eafa1dda4cae6c09f3ddd24a9f76509",
        "08c6e35847e716e8162695119d3cac258bddca59cf216d8159377a4fd51d18a1"),
    ("sweep", "QOS_RB"): (
        "68271af06e7e80915eaa1326bd3d042abc8fdaf30970c96409773a849e05b6cc",
        "354206a86ab10ff5fe7f81cf362ed205b1d3cb143c6e4b7b4ad303255f81721d"),
    ("sweep", "FCFS"): (
        "28194596a6175b44691f3c61baca6b5dad825c988c5b1271518126984b3ec3b4",
        "c529f8ac6ed9715e9e1c06ca50f8d3f2dc454adb59cb2450d4506d93d810f985"),
}


class TestStaticSplit:
    """Under `static_split` each of the five queues holds at most its share
    of the pool; the per-queue counts must equal the held transactions,
    stepping must equal `engine.run`, and the outputs their digests."""

    @pytest.mark.parametrize("case,policy", list(STATIC_SPLIT_DIGESTS))
    def test_shares_hold_and_outputs_match(self, tmp_path, case, policy):
        cfg = with_policy(load_packaged_scenario(case), policy)
        cfg.static_split = True
        share = cfg.capacity // len(QUEUE_NAMES)
        world = engine.World(cfg)
        cycles_at_share = 0
        for _ in range(20_000):
            world.step()
            held = [0] * len(QUEUE_NAMES)
            for groups in world.controller._groups.values():
                for group in groups.values():
                    for txn in group.txns:
                        held[txn.queue] += 1
            assert world.controller.held == held
            assert max(held) <= share
            cycles_at_share += share in held
        assert cycles_at_share > 0  # the split binds
        report = engine.run(cfg, duration_cycles=20_000)
        assert outcome(report) == outcome(world.report())
        assert report.generated == report.completed + report.resident_at_end
        npi, summary = tmp_path / "npi.csv", tmp_path / "summary.csv"
        write_npi_csv(npi, report)
        write_summary_csv(summary, metrics.policy_comparison({policy: report}))
        assert (hashlib.sha256(npi.read_bytes()).hexdigest(),
                hashlib.sha256(summary.read_bytes()).hexdigest()
                ) == STATIC_SPLIT_DIGESTS[case, policy]


# a DMA that never emits, for case B; {queue} and {cluster} place it
IDLE_DMA = """
[dma aux]
core = aux
queue = {queue}
cluster = {cluster}
kind = bandwidth_stream
meter = bandwidth
rate_mbps = 0.0
region_base_kb = 40960
region_len_kb = 64
"""


def streams(monkeypatch, cfg, cycles):
    """Each DMA's generated (kind, address) stream in a run of `cycles`."""
    out = {}
    make = traffic.Generator.next_requests

    def recording(gen, now, space, priority=0):
        txns = make(gen, now, space, priority)
        out.setdefault(gen.spec.dma_id, []).extend(
            (t.kind, t.address) for t in txns)
        return txns
    monkeypatch.setattr(traffic.Generator, "next_requests", recording)
    engine.run(cfg, duration_cycles=cycles)
    monkeypatch.undo()
    return out


class TestIdleDmaIndependence:
    """RNG streams are keyed by (seed, DMA id), so adding a DMA that never
    emits leaves every other DMA's (kind, address) stream unchanged, up to
    the length each run reaches, wherever the new DMA sits in the NoC."""

    @pytest.mark.parametrize("queue,cluster", [
        ("system", "direct"), ("system", "system"), ("media", "media")])
    def test_other_streams_keep_their_prefix(self, monkeypatch, queue,
                                             cluster):
        cfg = load_packaged_scenario("B")
        base = streams(monkeypatch, cfg, 40_000)
        grown = streams(monkeypatch, parse_config(
            emit_config(cfg) + IDLE_DMA.format(queue=queue, cluster=cluster)),
            40_000)
        assert not grown.pop("aux", []) and set(grown) == set(base)
        for dma, stream in base.items():
            n = min(len(stream), len(grown[dma]))
            assert n > 0, dma
            assert grown[dma][:n] == stream[:n], dma


class TestArrivalOrder:
    """`World` keeps the caller contract of `ControllerState`: it enqueues
    and selects at nondecreasing cycles, so `seq` order is arrival order
    and `enqueue` may only append."""

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("case", ["A", "B", "sweep", "contended"])
    def test_enqueue_and_select_cycles_never_decrease(self, monkeypatch,
                                                      case, policy):
        calls = []  # (cycle, "enqueue" or "select") of each call
        enqueue, select = ControllerState.enqueue, ControllerState.select

        def recording_enqueue(ctrl, txn, now):
            calls.append((now, "enqueue"))
            return enqueue(ctrl, txn, now)

        def recording_select(ctrl, dram, channel, now):
            calls.append((now, "select"))
            return select(ctrl, dram, channel, now)
        monkeypatch.setattr(ControllerState, "enqueue", recording_enqueue)
        monkeypatch.setattr(ControllerState, "select", recording_select)
        cfg = (parse_config(CONTENDED) if case == "contended"
               else load_packaged_scenario(case))
        engine.run(with_policy(cfg, policy), duration_cycles=30_000)
        cycles = [now for now, _ in calls]
        enqueued = {now for now, name in calls if name == "enqueue"}
        assert len(enqueued) > 1 and cycles == sorted(cycles)
