"""Differential suite: the event kernel must equal the per-event oracle.

:func:`repro.sim.kernel.run_fast` is the simulator's only engine.  It
promises *bit-identical* ``EventSimResult`` objects — same floats, same
arrays, same RNG stream consumption — plus identical metrics exports,
monitor telemetry and trace records, against the per-event heap
scheduler kept as the reference in ``tests/event_oracle.py``, for every
configuration: any cache policy or tree, pin or random routing, and
chaos schedules with crashes, slowdowns, retries and stale serving.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from event_oracle import ColumnCapture, _route, assert_columns_identical, run_oracle
from repro.cache.lru import LRUCache
from repro.chaos.config import ChaosConfig
from repro.chaos.retry import RetryPolicy
from repro.chaos.schedule import FailureEvent, FailureSchedule
from repro.core.notation import SystemParameters
from repro.exceptions import SimulationError
from repro.obs import MetricsRegistry, MonitorConfig, RunContext
from repro.obs.export import export_json
from repro.obs.trace import FlightRecorder, TraceConfig
from repro.rng import RngFactory
from repro.scenario.build import BuildContext, build_component
from repro.scenario.registry import REGISTRY
from repro.scenario.spec import ComponentSpec
from repro.sim.eventsim import EventDrivenSimulator
from repro.sim import kernel
from repro.sim.kernel import _busy_period_pass, _dense_ids, _route_batch
from repro.workload.adversarial import AdversarialDistribution
from repro.workload.distributions import UniformDistribution
from repro.workload.zipf import ZipfDistribution


def _params(**overrides):
    base = dict(n=20, m=500, c=10, d=3, rate=2000.0)
    base.update(overrides)
    return SystemParameters(**base)


def assert_results_identical(a, b):
    """Field-by-field exact equality of two EventSimResults."""
    for name in a.__dataclass_fields__:
        left, right = getattr(a, name), getattr(b, name)
        if isinstance(left, np.ndarray):
            assert left.dtype == right.dtype, name
            assert (left == right).all(), name
        elif hasattr(left, "loads"):  # LoadVector
            assert (left.loads == right.loads).all(), name
            assert left.total_rate == right.total_rate, name
        elif isinstance(left, float) and np.isnan(left):
            assert np.isnan(right), name
        else:
            assert left == right, name


def _pair(dist_factory, trials=(0, 1), n_queries=3000, params=None, **kwargs):
    """Run the kernel and the oracle over ``trials``; compare each run.

    Builds a fresh distribution per simulator so stateful distributions
    cannot leak between the two, and runs several trials on the *same*
    simulator instance so persistent state (pin stickiness) is covered.
    """
    params = params or _params()
    cache = kwargs.pop("cache_factory", None)
    kernel = EventDrivenSimulator(
        params, dist_factory(), seed=11,
        cache=cache() if cache else None, **kwargs
    )
    oracle = EventDrivenSimulator(
        params, dist_factory(), seed=11,
        cache=cache() if cache else None, **kwargs
    )
    results = []
    for trial in trials:
        a = kernel.run(n_queries, trial=trial)
        b = run_oracle(oracle, n_queries, trial=trial)
        assert_results_identical(a, b)
        results.append(a)
    return kernel, oracle, results


def _instrumented(params, x, **kwargs):
    """A simulator with metrics, monitor and trace all attached; the
    monitor keeps each run's columns."""
    registry = MetricsRegistry()
    monitor = ColumnCapture(MonitorConfig.from_params(params, x=x, window=0.05))
    recorder = FlightRecorder(TraceConfig(sample=0.5), seed=3)
    sim = EventDrivenSimulator(
        params, AdversarialDistribution(params.m, x),
        context=RunContext(metrics=registry, monitor=monitor, trace=recorder),
        **kwargs
    )
    return sim, registry, monitor, recorder


def _assert_instruments_identical(a, b):
    """Kernel (``a``) and oracle (``b``) instruments, columns first."""
    _, reg_a, mon_a, rec_a = a
    _, reg_b, mon_b, rec_b = b
    assert len(mon_a.columns) == len(mon_b.columns)
    for kernel_columns, oracle_columns in zip(mon_a.columns, mon_b.columns):
        assert_columns_identical(kernel_columns, oracle_columns)
    assert export_json(metrics=reg_a) == export_json(metrics=reg_b)
    assert mon_a.windows == mon_b.windows
    assert mon_a.alerts == mon_b.alerts
    assert mon_a.summaries == mon_b.summaries
    assert mon_a.events.records == mon_b.events.records
    assert rec_a.records == rec_b.records
    assert rec_a.summaries == rec_b.summaries
    assert rec_a.alerts == rec_b.alerts


class TestFastPathIdentity:
    """Static caches, no chaos: the configurations the kernel began with."""

    @pytest.mark.parametrize("routing", ["pin", "random"])
    @pytest.mark.parametrize("service", ["deterministic", "exponential"])
    def test_routing_service_grid(self, routing, service):
        _pair(
            lambda: AdversarialDistribution(500, 11),
            routing=routing, service=service,
        )

    def test_zipf_workload(self):
        _pair(lambda: ZipfDistribution(500, 1.01))

    def test_uniform_all_miss_heavy(self):
        _pair(lambda: UniformDistribution(500))

    def test_saturating_config_with_drops(self):
        params = _params()
        _, _, results = _pair(
            lambda: AdversarialDistribution(500, 11), trials=(0,),
            n_queries=8000, node_capacity=1.1 * params.even_split,
            queue_limit=4,
        )
        assert results[0].drop_rate > 0  # the comparison must exercise drops

    def test_pin_state_persists_identically_across_runs(self):
        kernel, oracle, _ = _pair(
            lambda: AdversarialDistribution(500, 40), trials=(0, 1, 2)
        )
        assert np.array_equal(kernel._pins, oracle._pins)
        assert np.array_equal(kernel._pin_counts, oracle._pin_counts)
        # Every pinned key is counted once on its node.
        assert (kernel._pins >= 0).sum() == kernel._pin_counts.sum()

    def test_random_routing_never_writes_the_pin_table(self):
        kernel, oracle, _ = _pair(
            lambda: AdversarialDistribution(500, 40), routing="random"
        )
        for sim in (kernel, oracle):
            assert (sim._pins == -1).all()
            assert not sim._pin_counts.any()

    def test_monitor_telemetry_identical(self):
        params = _params()

        def build():
            monitor = ColumnCapture(
                MonitorConfig.from_params(params, x=11, window=0.05)
            )
            sim = EventDrivenSimulator(
                params, AdversarialDistribution(500, 11), seed=7,
                context=RunContext(monitor=monitor),
            )
            return sim, monitor

        sim_a, mon_a = build()
        sim_b, mon_b = build()
        assert_results_identical(sim_a.run(4000), run_oracle(sim_b, 4000))
        assert_columns_identical(*mon_a.columns, *mon_b.columns)
        assert mon_a.windows == mon_b.windows
        assert mon_a.alerts == mon_b.alerts
        assert mon_a.summaries == mon_b.summaries

    def test_metrics_export_identical(self):
        def build():
            registry = MetricsRegistry()
            sim = EventDrivenSimulator(
                _params(), AdversarialDistribution(500, 11), seed=5,
                context=RunContext(metrics=registry),
            )
            return sim, registry

        sim_a, reg_a = build()
        sim_b, reg_b = build()
        assert_results_identical(sim_a.run(3000), run_oracle(sim_b, 3000))
        assert export_json(metrics=reg_a) == export_json(metrics=reg_b)


class TestFallbackIdentity:
    """Configurations that once fell back to the per-event scheduler.

    The kernel now replays them itself; they must still equal the
    oracle bit for bit.
    """

    def test_lru_cache_falls_back(self):
        _pair(
            lambda: AdversarialDistribution(500, 100),
            cache_factory=lambda: LRUCache(10),
        )

    def test_chaos_falls_back(self):
        _, _, results = _pair(
            lambda: UniformDistribution(500), trials=(0,), n_queries=4000,
            chaos=ChaosConfig(failure_rate=2.0, mttr=0.2),
        )
        assert results[0].failure_events > 0  # chaos actually happened
        assert results[0].retries > 0

    def test_slow_periods_with_exponential_service(self):
        # Slow nodes take the scalar drain with the raw exponential draws.
        _, _, results = _pair(
            lambda: UniformDistribution(500), trials=(0,), n_queries=4000,
            service="exponential",
            chaos=ChaosConfig(
                failure_rate=0.5, mttr=0.2, slow_rate=5.0, slow_factor=0.3
            ),
        )
        assert results[0].failure_events > 0

    def test_supports_gate(self, monkeypatch):
        """The kernel reaches a flat cache through ``access_many`` only:
        the perfect cache's is one vectorized membership test, and a
        subclass overriding ``access`` alone still sees every request."""
        from repro.cache.perfect import PerfectCache

        def refuse(self, key):
            raise AssertionError("a flat perfect cache takes the vectorized path")

        monkeypatch.setattr(PerfectCache, "access", refuse)
        sim = EventDrivenSimulator(_params(), UniformDistribution(500), seed=1)
        result = sim.run(500)
        assert sim.cache.stats.accesses == 500
        assert sim.cache.stats.hits == result.frontend_hits

        calls = []

        class Counting(LRUCache):
            def access(self, key):
                calls.append(key)
                return super().access(key)

        EventDrivenSimulator(
            _params(), UniformDistribution(500), cache=Counting(10), seed=1
        ).run(700)
        assert len(calls) == 700


class TestWideCluster:
    """``n >= 256``: node ids group through the ``uint16`` radix sort
    (every other case here has ``n = 20``, which sorts as ``uint8``)."""

    N = 300

    @pytest.mark.parametrize("routing", ["pin", "random"])
    @pytest.mark.parametrize("chaotic", [False, True], ids=["calm", "chaos"])
    def test_matches_oracle(self, routing, chaotic):
        assert np.min_scalar_type(self.N) == np.uint16
        params = _params(n=self.N, m=3000, c=20, rate=30_000.0)
        chaos = ChaosConfig(failure_rate=2.0, mttr=0.02) if chaotic else None
        _, _, results = _pair(
            lambda: UniformDistribution(3000), params=params, n_queries=4000,
            routing=routing, service="exponential", queue_limit=2,
            chaos=chaos,
        )
        for result in results:
            assert (result.served > 0).sum() > 255  # ids past uint8 range
            if chaotic:
                assert result.failovers > 0


class TestServiceStreams:
    """The kernel draws every node's service stream from one generator
    re-seeded with :meth:`RngFactory.pcg64_states`; the oracle builds a
    real generator per node, so equality proves the two derivations."""

    def test_no_per_node_generators(self, monkeypatch):
        labels = []
        generator = RngFactory.generator

        def spy(self, label, trial=0):
            labels.append(label)
            return generator(self, label, trial)

        kernel_sim = EventDrivenSimulator(
            _params(), AdversarialDistribution(500, 11), seed=11,
            service="exponential",
        )
        with monkeypatch.context() as patch:
            patch.setattr(RngFactory, "generator", spy)
            a = kernel_sim.run(3000)
        assert "eventsim-arrivals" in labels
        assert "eventsim-service" not in labels
        oracle_sim = EventDrivenSimulator(
            _params(), AdversarialDistribution(500, 11), seed=11,
            service="exponential",
        )
        assert_results_identical(a, run_oracle(oracle_sim, 3000))

    def test_counters_crossing_2_32(self):
        # trial * n + node runs from 2**32 - 16 to 2**32 + 3: the nodes
        # past 2**32 take the two-word fallback, the rest the bulk path.
        trial = 2**32 // 20
        assert trial * 20 < 2**32 <= trial * 20 + 19
        _, _, results = _pair(
            lambda: UniformDistribution(500), trials=(trial,),
            service="exponential",
        )
        assert (results[0].served[2**32 - trial * 20:] > 0).all()


class TestGrouping:
    """The three ways dispatches are grouped per node: attempt 1 alone
    (no time sort), with appended failovers (time sort, then node sort),
    and with unavailable requests dropped from attempt 1 but nothing
    appended (max_attempts=1)."""

    SCHEDULE = FailureSchedule((
        FailureEvent(0.2, 3, "crash"), FailureEvent(0.6, 3, "recover"),
        FailureEvent(0.3, 7, "crash"), FailureEvent(0.9, 7, "recover"),
    ))

    def _run(self, **kwargs):
        _, _, results = _pair(
            lambda: UniformDistribution(500), trials=(0,), n_queries=4000,
            service="exponential", **kwargs
        )
        return results[0]

    def test_no_retries(self):
        result = self._run()
        assert result.retries == 0 and result.unavailable == 0

    def test_failovers(self):
        result = self._run(chaos=ChaosConfig(schedule=self.SCHEDULE))
        assert result.failovers > 0

    def test_unavailable_without_failover(self):
        result = self._run(chaos=ChaosConfig(
            schedule=self.SCHEDULE, retry=RetryPolicy(max_attempts=1)
        ))
        assert result.unavailable > 0
        assert result.retries == 0 and result.failovers == 0


#: Keys from a space of ``m`` keys (``uint8`` and ``uint16`` running
#: counts), with key ``0`` and key ``m - 1`` drawn explicitly.
@st.composite
def _key_arrays(draw):
    m = draw(st.integers(min_value=1, max_value=300))
    keys = draw(st.lists(st.integers(min_value=0, max_value=m - 1), max_size=200))
    extra = draw(st.sampled_from([[], [0], [m - 1], [0, m - 1]]))
    return m, np.array(keys + extra, dtype=np.int64)


class TestDenseIds:
    """The kernel's sort-free ``unique`` equals NumPy's, element for element."""

    @staticmethod
    def _check(keys, m):
        expected = np.unique(keys, return_index=True, return_inverse=True)
        for got, want in zip(_dense_ids(keys, m), expected):
            assert got.dtype == want.dtype
            assert got.shape == want.shape
            assert (got == want).all()

    @given(_key_arrays())
    @settings(max_examples=200, deadline=None)
    def test_equals_numpy_unique(self, drawn):
        m, keys = drawn
        self._check(keys, m)

    @pytest.mark.parametrize(
        "keys",
        [[], [0], [9], [0, 9], [9, 0, 9, 0], [4] * 7],
        ids=["empty", "zero", "last", "both-ends", "repeats", "all-duplicate"],
    )
    def test_edge_cases(self, keys):
        self._check(np.array(keys, dtype=np.int64), 10)

    def test_key_space_past_uint16(self):
        # The running count takes uint32 beyond 65,535 keys.
        keys = np.array([69_999, 0, 65_536, 69_999, 1], dtype=np.int64)
        self._check(keys, 70_000)


@st.composite
def _pin_cases(draw):
    """A small cluster, a pre-seeded partial pin table and a miss stream.

    A key space of at most 40 keys makes repeated keys common, and at
    most 8 nodes with few pins make tied pin counts common.
    """
    d = draw(st.sampled_from([1, 2, 3]))
    n = draw(st.integers(min_value=d, max_value=8))
    m = draw(st.integers(min_value=1, max_value=40))
    keys = st.integers(min_value=0, max_value=m - 1)
    return dict(
        params=SystemParameters(n=n, m=m, c=0, d=d, rate=100.0),
        preset=draw(
            st.dictionaries(keys, st.integers(min_value=0, max_value=n - 1))
        ),
        misses=draw(st.lists(keys, min_size=1, max_size=120)),
        seed=draw(st.integers(min_value=0, max_value=2**31 - 1)),
    )


def _pin_sim(params, seed, preset=()):
    """A pin-routing simulator whose table already holds ``preset``."""
    sim = EventDrivenSimulator(params, UniformDistribution(params.m), seed=seed)
    for key, node in dict(preset).items():
        sim._pins[key] = node
        sim._pin_counts[node] += 1
    return sim


class TestPinRouting:
    """Batched pin routing equals the oracle's per-key ``_route`` loop."""

    @staticmethod
    def _check(batch, loop, misses):
        got = _route_batch(batch, np.array(misses, dtype=np.int64), None)
        want = [_route(loop, key, None) for key in misses]
        assert got.dtype == np.int64
        assert got.tolist() == want
        assert np.array_equal(batch._pins, loop._pins)
        assert np.array_equal(batch._pin_counts, loop._pin_counts)
        return want

    @given(_pin_cases())
    @settings(max_examples=200, deadline=None)
    def test_equals_oracle_loop(self, case):
        batch, loop = (
            _pin_sim(case["params"], case["seed"], case["preset"]) for _ in range(2)
        )
        self._check(batch, loop, case["misses"])

    def test_tie_goes_to_the_lowest_group_index(self):
        params = SystemParameters(n=6, m=10, c=0, d=3, rate=100.0)
        batch, loop = (_pin_sim(params, seed=5) for _ in range(2))
        group = batch._partitioner.replica_group(0)
        for sim in (batch, loop):
            # Members 1 and 2 tie below member 0.
            sim._pin_counts[group] = [2, 1, 1]
        assert self._check(batch, loop, [0, 0]) == [group[1]] * 2
        assert batch._pin_counts[group].tolist() == [2, 2, 1]


def _arrivals(sim, n_queries, trial=0):
    """The key stream and arrival times a run of ``sim`` will replay."""
    gen = sim._factory.generator("eventsim-arrivals", trial=trial)
    keys = sim._distribution.sample(n_queries, rng=gen)
    times = np.cumsum(gen.exponential(1.0 / sim._params.rate, size=n_queries))
    return keys.tolist(), times.tolist()


class TestChaosTies:
    """Constructed schedules that put node events on exact event times."""

    N_QUERIES = 400

    def _sim(self, params, schedule=(), retry=None):
        recorder = FlightRecorder(TraceConfig(sample=1.0), seed=1)
        capture = ColumnCapture()
        sim = EventDrivenSimulator(
            params, UniformDistribution(params.m), seed=21,
            context=RunContext(trace=recorder, monitor=capture),
            chaos=ChaosConfig(
                schedule=FailureSchedule(tuple(schedule)),
                retry=retry or RetryPolicy(),
            ),
        )
        return sim, recorder, capture

    def _compare(self, params, schedule):
        kernel, rec_k, cols_k = self._sim(params, schedule)
        oracle, rec_o, cols_o = self._sim(params, schedule)
        a = kernel.run(self.N_QUERIES)
        b = run_oracle(oracle, self.N_QUERIES)
        assert_results_identical(a, b)
        assert_columns_identical(*cols_k.columns, *cols_o.columns)
        assert rec_k.records == rec_o.records
        return a, {rec["i"]: rec for rec in rec_k.records}

    def _quiet_run(self, params):
        """Arrival times and per-request trace records of a failure-free run."""
        sim, recorder, _ = self._sim(params)
        _, times = _arrivals(sim, self.N_QUERIES)
        sim.run(self.N_QUERIES)
        return times, {rec["i"]: rec for rec in recorder.records}

    @staticmethod
    def _idle(records, start, node=None):
        """First request from ``start`` on that began service on arrival."""
        return next(
            i for i in range(start, len(records))
            if records[i].get("wait") == 0.0
            and (node is None or records[i]["node"] == node)
        )

    def test_crash_at_exactly_an_arrival_time(self):
        params = _params(c=0, d=1)
        times, quiet = self._quiet_run(params)
        node = quiet[100]["node"]
        result, records = self._compare(params, (
            FailureEvent(times[100], node, "crash"),
            FailureEvent(times[100] + 0.01, node, "recover"),
        ))
        # The crash fires first: the arrival finds its only replica down.
        assert records[100]["status"] == "unavailable"
        assert result.unavailable >= 1

    def test_crash_at_exactly_a_departure_time(self):
        params = _params(c=0, d=2)
        times, quiet = self._quiet_run(params)
        i = self._idle(quiet, 100)
        node = quiet[i]["node"]
        departure = times[i] + 1.0 / (4.0 * params.rate / params.n)
        result, records = self._compare(params, (
            FailureEvent(departure, node, "crash"),
            FailureEvent(departure + 0.01, node, "recover"),
        ))
        # The crash fires before the same-time completion: the request
        # in service is lost, not served.
        assert records[i]["status"] == "lost"
        assert result.crash_lost >= 1

    def test_slow_factor_applies_at_service_start(self):
        params = _params(c=0)
        times, quiet = self._quiet_run(params)
        node = quiet[100]["node"]
        _, records = self._compare(params, (
            FailureEvent(times[100], node, "slow", factor=0.25),
            FailureEvent(times[150], node, "restore"),
        ))
        # Four times the healthy service time 1 / (4 R / n).
        assert records[100]["service"] == pytest.approx(params.n / params.rate)

    def _refuse_tied_retry(self, monkeypatch, scalar_target):
        """Land request 50's failover at exactly a departure on the other
        node; returns whether that node took the scalar drain."""
        params = _params(n=2, c=0, d=2, rate=200.0)
        times, quiet = self._quiet_run(params)
        node = quiet[50]["node"]
        later = self._idle(quiet, 51, node=1 - node)
        # A timeout that lands request 50's failover on the other node at
        # exactly the departure of request ``later`` there.
        target = times[later] + 1.0 / (4.0 * params.rate / params.n)
        timeout = target - times[50]
        for _ in range(64):
            if times[50] + timeout == target:
                break
            step = np.inf if times[50] + timeout < target else -np.inf
            timeout = float(np.nextafter(timeout, step))
        assert times[50] + timeout == target
        schedule = [FailureEvent(times[50], node, "crash")]
        if scalar_target:
            # A slow period after the last arrival moves no departure, but
            # sends the node to the scalar drain.
            schedule.append(FailureEvent(times[-1] + 1.0, 1 - node, "slow", factor=0.5))
        sim, _, _ = self._sim(
            params, schedule,
            retry=RetryPolicy(max_attempts=2, timeout=timeout, backoff=0.0),
        )
        drained = {}

        def spy(*args):
            departures, scalar = _busy_period_pass(*args)
            drained["scalar"] = scalar
            return departures, scalar

        monkeypatch.setattr(kernel, "_busy_period_pass", spy)
        with pytest.raises(SimulationError, match="retry arrives at exactly"):
            sim.run(self.N_QUERIES)
        return bool(drained["scalar"][1 - node])

    def test_retry_at_exactly_a_departure_time_is_refused(self, monkeypatch):
        # The failover's node is chaos-free: the vector drain settles it.
        assert not self._refuse_tied_retry(monkeypatch, scalar_target=False)

    def test_retry_tie_is_refused_on_the_scalar_drain_too(self, monkeypatch):
        assert self._refuse_tied_retry(monkeypatch, scalar_target=True)


def _cache_spec(policy):
    if policy.startswith("tree-"):
        return {
            "kind": "tree",
            "layers": [
                {"shards": 2, "cache": "lru"},
                {"shards": 1, "cache": "fifo"},
            ],
            "selection": policy[len("tree-"):],
        }
    return policy


#: Every registered cache policy, plus a cascade and a two-choice tree.
POLICIES = tuple(
    name for name in REGISTRY.names("cache") if name != "tree"
) + ("tree-cascade", "tree-two-choice")


@st.composite
def _configs(draw, chaos_on=None):
    n = draw(st.integers(min_value=2, max_value=12))
    m = draw(st.integers(min_value=50, max_value=400))
    c = draw(st.integers(min_value=0, max_value=min(m, 20)))
    d = draw(st.integers(min_value=1, max_value=min(3, n)))
    x = draw(st.integers(min_value=1, max_value=m))
    chaos = None
    if draw(st.booleans()) if chaos_on is None else chaos_on:
        chaos = ChaosConfig(
            failure_rate=draw(st.floats(min_value=0.2, max_value=5.0)),
            mttr=draw(st.floats(min_value=0.05, max_value=1.0)),
            slow_rate=draw(st.sampled_from([0.0, 5.0])),
            slow_factor=draw(st.floats(min_value=0.1, max_value=1.0)),
            retry=RetryPolicy(
                max_attempts=draw(st.integers(min_value=1, max_value=3)),
                timeout=draw(st.floats(min_value=0.0, max_value=0.05)),
            ),
            serve_stale=draw(st.booleans()),
        )
    return dict(
        params=SystemParameters(n=n, m=m, c=c, d=d, rate=200.0),
        x=x,
        policy=draw(st.sampled_from(POLICIES)),
        routing=draw(st.sampled_from(["pin", "random"])),
        service=draw(st.sampled_from(["deterministic", "exponential"])),
        # 64 is the default: queueing nodes then reach the vector drain.
        queue_limit=draw(st.sampled_from([0, 1, 2, 64])),
        headroom=draw(st.floats(min_value=0.5, max_value=6.0)),
        seed=draw(st.integers(min_value=0, max_value=2**31 - 1)),
        n_queries=draw(st.integers(min_value=1, max_value=600)),
        chaos=chaos,
    )


def _check_against_oracle(config):
    """Kernel vs oracle on one drawn configuration, all instruments on."""
    params = config["params"]
    ctx = BuildContext(params=params, seed=config["seed"])
    spec = ComponentSpec.from_data(_cache_spec(config["policy"]), "cache")
    runs = [
        _instrumented(
            params, config["x"],
            cache=build_component("cache", spec, ctx),
            routing=config["routing"], service=config["service"],
            queue_limit=config["queue_limit"],
            node_capacity=config["headroom"] * params.even_split,
            seed=config["seed"], chaos=config["chaos"],
        )
        for _ in range(2)
    ]
    for trial in (0, 1):
        a = runs[0][0].run(config["n_queries"], trial=trial)
        b = run_oracle(runs[1][0], config["n_queries"], trial=trial)
        assert_results_identical(a, b)
    _assert_instruments_identical(runs[0], runs[1])


@pytest.mark.slow
class TestHypothesisDifferential:
    @given(_configs())
    @settings(max_examples=60, deadline=None)
    def test_random_configurations(self, config):
        _check_against_oracle(config)

    @given(_configs(chaos_on=True))
    @settings(max_examples=60, deadline=None)
    def test_random_chaos_configurations(self, config):
        _check_against_oracle(config)
