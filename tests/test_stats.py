import csv
import json
import random
import tracemalloc
from array import array
from collections import Counter
from contextlib import closing

import pytest

from leoqsim import engine
from leoqsim.congestion import CongestionLabel, Notification
from leoqsim.constellation import ConstellationParams
from leoqsim.scenario import loads_scenario
from leoqsim.scheduling import ALL_CLASSES, DropReason, TrafficClass
from leoqsim.stats import DelayCdf, StatsCollector, export
from leoqsim.traffic import Packet
from spooled import read_rows


# A short run, and the keys that make it spool a packet trace and a route dump.
SPOOLED_RUN = "[traffic]\nbackground_rate = 200\n[run]\nduration_s = 1\n"
SPOOLS_ON = "trace = true\n[routing]\ndump_routes = true\n"


# The default shell's name table, as the engine builds it: NAMES[i] names
# satellite i, and NAMES[-1] names no satellite.
PARAMS = ConstellationParams()
NAMES = [str(PARAMS.sid_of(i)) for i in range(PARAMS.num_sats)] + ["-"]


def make_collector(horizon=300.0):
    return StatsCollector(horizon_s=horizon, bucket_s=60.0, seed=1, strategy="composite",
                          names=NAMES)


def pkt(tos=TrafficClass.A, created=0.0, hop=0, flow=None, pid=0):
    p = Packet(pid, tos, 0, 1, created, flow=flow)
    p.hop = hop
    return p


class TestDelayCdf:
    def test_order_statistics(self):
        cdf = DelayCdf([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        assert cdf.quantile(0.9) == 9
        assert cdf.quantile(1.0) == 10
        assert cdf.quantile(0.05) == 1

    def test_uniform_median(self):
        rng = random.Random(31)
        cdf = DelayCdf([rng.random() for _ in range(10_000)])
        assert cdf.quantile(0.5) == pytest.approx(0.5, abs=0.02)

    def test_monotone_in_q(self):
        rng = random.Random(8)
        cdf = DelayCdf([rng.expovariate(1.0) for _ in range(500)])
        qs = [0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0]
        values = [cdf.quantile(q) for q in qs]
        assert values == sorted(values)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            DelayCdf([]).quantile(0.5)
        with pytest.raises(ValueError):
            DelayCdf([1.0]).quantile(0.0)

    @pytest.mark.parametrize("n", [1, 9, 10, 11])
    def test_quantile_is_a_plain_float(self, n):
        cdf = DelayCdf(array("d", [0.001 * (k % 7) + 0.05 for k in range(n)]))
        for q in (0.05, 0.9, 1.0):
            assert type(cdf.quantile(q)) is float


class TestCollector:
    def test_single_delivery(self):
        c = make_collector()
        p = pkt(TrafficClass.A, created=10.0)
        c.record_generated(p)
        c.record_delivery(p, 10.1)
        assert c.delivered[TrafficClass.A] == 1
        assert c.delivered_bucket[TrafficClass.A][0] == 1
        assert list(c.delay_samples[TrafficClass.A]) == pytest.approx([0.1])

    def test_drop_bucket_placement(self):
        c = make_collector()
        c.record_drop(250.0, 0, TrafficClass.B0, DropReason.BUFFER_OVERFLOW)
        assert c.drops_detail[(4, 0, TrafficClass.B0, "buffer_overflow")] == 1

    def test_throughput_is_count_over_bucket(self):
        c = make_collector()
        for i in range(120):
            p = pkt(TrafficClass.B1, created=0.5, pid=i)
            c.record_generated(p)
            c.record_delivery(p, 30.0)
        assert c.delivered_bucket[TrafficClass.B1][0] / c.bucket_s == 2.0

    def test_throughput_ratio_over_the_run(self):
        c = make_collector()
        for i in range(10):
            p = pkt(TrafficClass.B2, created=5.0, pid=i)
            c.record_generated(p)
            if i < 8:
                c.record_delivery(p, 20.0)
        assert c.throughput_ratio(TrafficClass.B2) == pytest.approx(0.8)
        assert c.throughput_ratio(TrafficClass.A) is None

    def test_per_satellite_drops_sum_to_global(self):
        rng = random.Random(4)
        c = make_collector()
        totals = {cls: 0 for cls in ALL_CLASSES}
        for _ in range(500):
            cls = rng.choice(ALL_CLASSES)
            sat = rng.randrange(66)
            t = rng.uniform(0, 300)
            c.record_drop(t, sat, cls, DropReason.BUFFER_OVERFLOW)
            totals[cls] += 1
        for cls in ALL_CLASSES:
            detail = sum(
                n for (b, s, k, reason), n in c.drops_detail.items() if k is cls
            )
            assert detail == c.dropped[cls] == totals[cls]

    def test_bucket_delivery_sums_match_totals(self):
        rng = random.Random(9)
        c = make_collector()
        for i in range(400):
            cls = rng.choice(ALL_CLASSES)
            t0 = rng.uniform(0, 290)
            p = pkt(cls, created=t0, hop=rng.randrange(8), pid=i)
            c.record_generated(p)
            c.record_delivery(p, t0 + rng.uniform(0, 5))
        for cls in ALL_CLASSES:
            assert sum(c.delivered_bucket[cls]) == c.delivered[cls]
            assert sum(c.generated_bucket[cls]) == c.generated[cls]

    def test_foreground_tracked_separately(self):
        c = make_collector()
        p1 = pkt(TrafficClass.A, created=0.0, hop=6, flow=0, pid=1)
        p2 = pkt(TrafficClass.A, created=0.0, hop=2, pid=2)
        for p in (p1, p2):
            c.record_generated(p)
            c.record_delivery(p, 0.1)
        assert c.mean_hops(TrafficClass.A) == pytest.approx(4.0)
        assert c.mean_hops(TrafficClass.A, foreground=True) == pytest.approx(6.0)

    def test_mean_delay_sums_the_buckets_left_to_right(self):
        # From Python 3.12 `sum` compensates float sums and makes ten 0.1 s
        # buckets exactly 1.0 s; summed left to right they make 0.9999999999999999 s,
        # the bytes earlier Pythons export.
        c = make_collector(horizon=600.0)
        for cls in ALL_CLASSES:
            c.delivered[cls] = 10
            c.delay_sum_bucket[cls] = [0.1] * 10
            c.fg_delivered_bucket[cls] = [1] * 10
            c.fg_delay_sum_bucket[cls] = [0.1] * 10
        left_to_right = 0.9999999999999999 / 10
        for cls in ALL_CLASSES:
            assert c.mean_delay_s(cls) == left_to_right
            assert c.mean_delay_s(cls, foreground=True) == left_to_right


def busy_buckets(bucket_s, horizon_s, *log):
    """The busy buckets of a collector whose state log holds `log`, given as
    (time, satellite index, label) triples."""
    c = StatsCollector(horizon_s=horizon_s, bucket_s=bucket_s, seed=1, strategy="composite",
                       names=NAMES)
    for t, sat, label in log:
        c.state_log.append((sat, Notification(t, label, 0.0)))
    return c.busy_buckets()


BUSY, IDLE = CongestionLabel.BUSY, CongestionLabel.IDLE


class TestBusyBuckets:
    def test_an_episode_starting_at_a_bucket_boundary_marks_that_bucket(self):
        assert int(3 * 0.7 / 0.7) == 2
        assert busy_buckets(0.7, 5.0, (3 * 0.7, 0, BUSY), (2.2, 0, IDLE)) == [3]

    def test_both_end_instants_count(self):
        assert busy_buckets(60.0, 120.0, (59.9, 0, BUSY), (60.0, 0, IDLE)) == [0, 1]

    def test_overlapping_episodes_of_two_satellites_are_one_episode(self):
        # Satellite 0's Idle at 30 s leaves satellite 1 busy until 130 s; a
        # later episode inside bucket 4 leaves bucket 3 idle.
        log = ((10.0, 0, BUSY), (20.0, 1, BUSY), (30.0, 0, IDLE), (130.0, 1, IDLE),
               (250.0, 2, BUSY), (260.0, 2, IDLE))
        assert busy_buckets(60.0, 300.0, *log) == [0, 1, 2, 4]

    @pytest.mark.parametrize("horizon", [290.0, 300.0])
    def test_an_episode_open_at_the_horizon_runs_through_the_last_bucket(self, horizon):
        # A 300 s horizon opens a sixth period, which falls in the last bucket.
        assert busy_buckets(60.0, horizon, (130.0, 0, BUSY), (140.0, 1, BUSY),
                            (150.0, 0, IDLE)) == [2, 3, 4]

    def test_no_busy_notification_marks_no_bucket(self):
        assert busy_buckets(60.0, 300.0) == []


class TestExport:
    def make_report(self, empty=False):
        c = make_collector(horizon=120.0)
        if not empty:
            rng = random.Random(2)
            for i in range(300):
                cls = rng.choice(ALL_CLASSES)
                t0 = rng.uniform(0, 110)
                p = pkt(cls, created=t0, hop=rng.randrange(9), flow=0 if i % 7 == 0 else None,
                        pid=i)
                c.record_generated(p)
                if rng.random() < 0.9:
                    c.record_delivery(p, t0 + rng.expovariate(10.0))
                else:
                    c.record_drop(t0, i % 11, cls, DropReason.BUFFER_OVERFLOW)
            c.state_log.append((13, Notification(5.0, CongestionLabel.BUSY, 470.0)))  # S-1-2
            c.state_log.append((13, Notification(50.0, CongestionLabel.IDLE, 90.0)))
        return c

    def test_files_written_with_headers(self, tmp_path):
        export(self.make_report(empty=True), tmp_path)
        expected = [
            "drops_per_sat.csv",
            "delay_series.csv",
            "delay_cdf_A.csv",
            "delay_cdf_B2.csv",
            "delay_cdf_B1.csv",
            "delay_cdf_B0.csv",
            "throughput.csv",
            "hops.csv",
            "summary.csv",
            "state_log.csv",
            "run_meta.json",
        ]
        for name in expected:
            assert (tmp_path / name).exists()
        assert (tmp_path / "drops_per_sat.csv").read_text().startswith(
            "bucket,satellite,class,reason,count"
        )
        # headers only for an empty run
        assert len((tmp_path / "delay_cdf_A.csv").read_text().splitlines()) == 1

    def test_cdf_file_nondecreasing(self, tmp_path):
        export(self.make_report(), tmp_path)
        for cls in ("A", "B2", "B1", "B0"):
            lines = (tmp_path / f"delay_cdf_{cls}.csv").read_text().splitlines()[1:]
            if not lines:
                continue
            delays = [float(line.split(",")[0]) for line in lines]
            probs = [float(line.split(",")[1]) for line in lines]
            assert delays == sorted(delays)
            assert probs == sorted(probs)
            assert probs[-1] == pytest.approx(1.0)

    def test_reexport_is_byte_identical(self, tmp_path):
        report = self.make_report()
        a, b = tmp_path / "a", tmp_path / "b"
        export(report, a)
        export(report, b)
        for f in sorted(a.iterdir()):
            assert (b / f.name).read_bytes() == f.read_bytes()
        # The state log alone marks the busy bucket.
        assert json.loads((a / "run_meta.json").read_text())["busy_buckets"] == [0]

    def test_an_untraced_export_leaves_no_trace_or_route_dump_behind(self, tmp_path):
        untraced = engine.Simulation(loads_scenario(SPOOLED_RUN)).run()
        export(untraced, tmp_path / "fresh")
        with closing(engine.Simulation(loads_scenario(SPOOLED_RUN + SPOOLS_ON)).run()) as traced:
            export(traced, tmp_path / "reused")
        assert (tmp_path / "reused" / "packet_trace.csv").exists()
        assert (tmp_path / "reused" / "route_tables.csv").exists()
        export(untraced, tmp_path / "reused")
        fresh = sorted(f.name for f in (tmp_path / "fresh").iterdir())
        assert sorted(f.name for f in (tmp_path / "reused").iterdir()) == fresh

    def test_spooled_files_are_copied_whole_on_every_export(self, tmp_path):
        # Each export copies a spool from its start, so a re-export, even
        # over an earlier copy, writes the same bytes the engine spooled.
        a, b = tmp_path / "a", tmp_path / "b"
        with closing(engine.Simulation(loads_scenario(SPOOLED_RUN + SPOOLS_ON)).run()) as report:
            export(report, a)
            export(report, b)
            export(report, b)
            for f in sorted(a.iterdir()):
                assert (b / f.name).read_bytes() == f.read_bytes()
            for name, spool in (("packet_trace.csv", report.trace),
                                ("route_tables.csv", report.route_dump)):
                spool.seek(0)
                assert (a / name).read_bytes() == spool.read().encode("utf-8")
                assert read_rows(a / name) and read_rows(a / name) == read_rows(spool)
        assert report.trace.closed and report.route_dump.closed

    @staticmethod
    def rates(out_dir, cls):
        """The throughput_pkt_s cells of one class, bucket by bucket."""
        with open(out_dir / "throughput.csv", newline="") as f:
            return [row["throughput_pkt_s"] for row in csv.DictReader(f) if row["class"] == cls]

    def test_throughput_is_over_the_time_a_bucket_covers(self, tmp_path):
        # A 150 s horizon cuts the third 60 s bucket to 30 s.
        c = make_collector(horizon=150.0)
        for i, t in enumerate((10.0, 70.0, 130.0, 140.0)):
            p = pkt(TrafficClass.B1, created=t, pid=i)
            c.record_generated(p)
            c.record_delivery(p, t + 1.0)
        export(c, tmp_path)
        assert self.rates(tmp_path, "B1") == [repr(1 / 60), repr(1 / 60), repr(2 / 30)]

    def test_a_bucket_of_no_length_has_no_rate(self, tmp_path):
        # 21 / 0.7 rounds up past 30, so a 31st bucket starts at 30 * 0.7 == 21.0.
        c = StatsCollector(horizon_s=21.0, bucket_s=0.7, seed=1, strategy="composite",
                           names=NAMES)
        assert c.n_buckets == 31 and 30 * 0.7 == 21.0
        p = pkt(TrafficClass.A, created=20.0)
        c.record_generated(p)
        c.record_delivery(p, 20.5)
        export(c, tmp_path)
        assert self.rates(tmp_path, "A") == ["0.0"] * 29 + [repr(1 / 0.7), ""]

    def test_a_short_runs_rate_is_its_deliveries_over_its_horizon(self, tmp_path):
        # 5 s of a 60 s bucket: the rate is over 5 s, not 60.
        report = engine.Simulation(loads_scenario(
            "[traffic]\nbackground_rate = 200\n[run]\nduration_s = 5\n")).run()
        export(report, tmp_path)
        for cls in ALL_CLASSES:
            assert report.delivered[cls] > 0
            assert self.rates(tmp_path, cls.name) == [repr(report.delivered[cls] / 5.0)]

    @pytest.mark.parametrize("n", [0, 1, 9, 10, 11])
    def test_summary_p90_is_the_cdf_quantile(self, tmp_path, n):
        c = make_collector()
        rng = random.Random(n)
        for i in range(n):
            p = pkt(TrafficClass.A, created=rng.uniform(0, 10), pid=i)
            c.record_generated(p)
            c.record_delivery(p, p.created_at + rng.expovariate(20.0))
        export(c, tmp_path)
        with open(tmp_path / "summary.csv", newline="") as f:
            p90 = next(row for row in csv.DictReader(f) if row["class"] == "A")["p90_delay_ms"]
        cdf = c.delay_cdf(TrafficClass.A)
        assert p90 == (repr(cdf.quantile(0.9) * 1000) if n else "")

    @pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 2049])
    def test_cdf_rows_are_the_sorted_samples(self, tmp_path, n):
        # Rows are formatted a chunk at a time; each is still
        # repr(sample * 1000), repr((k + 1) / n) of the k-th sorted sample.
        c = make_collector()
        rng = random.Random(n)
        c.delay_samples[TrafficClass.B1] = array("d", (rng.expovariate(9.0) for _ in range(n)))
        export(c, tmp_path)
        ordered = sorted(c.delay_samples[TrafficClass.B1])
        expected = [f"{s * 1000.0!r},{(k + 1) / n!r}" for k, s in enumerate(ordered)]
        assert (tmp_path / "delay_cdf_B1.csv").read_text().splitlines() == \
            ["delay_ms,cum_prob"] + expected

    def test_export_holds_no_python_float_per_sample(self, tmp_path):
        # The sorted copy takes 8 bytes a sample and the rows are formatted a
        # chunk at a time; a sorted list of Python floats took 36 bytes a
        # sample here.
        n = 200_000
        c = make_collector()
        rng = random.Random(3)
        c.delay_samples[TrafficClass.B0] = array("d", (rng.expovariate(9.0) for _ in range(n)))
        tracemalloc.start()
        try:
            export(c, tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * n + 2**20

    def test_drop_rows_sort_and_name_satellites(self, tmp_path):
        c = make_collector()
        for sat in (11, -1, 10):  # S-1-0, no satellite, S-0-10
            c.record_drop(1.0, sat, TrafficClass.A, DropReason.BUFFER_OVERFLOW)
        export(c, tmp_path)
        rows = (tmp_path / "drops_per_sat.csv").read_text().splitlines()[1:]
        assert [row.split(",")[1] for row in rows] == ["-", "S-0-10", "S-1-0"]

    def test_drop_names_on_a_non_default_shell(self, tmp_path):
        # 12 satellites per plane: per-satellite drop counts must carry the
        # same names as the packet trace's drop events.
        cfg = loads_scenario(
            "[constellation]\nplanes = 8\nsats_per_plane = 12\n"
            "[traffic]\nbackground_rate = 800\nflows = 40,-100 -> 50,10 @ 600\n"
            "[run]\nduration_s = 3\ntrace = true\n"
        )
        with closing(engine.Simulation(cfg).run()) as report:
            export(report, tmp_path)
        with open(tmp_path / "drops_per_sat.csv", newline="") as f:
            exported = Counter()
            for row in csv.DictReader(f):
                exported[row["satellite"]] += int(row["count"])
        with open(tmp_path / "packet_trace.csv", newline="") as f:
            traced = Counter(row["satellite"] for row in csv.DictReader(f) if row["event"] == "drop")
        assert any(not name.startswith("S-0-") for name in traced)  # beyond index 11
        assert exported == traced
