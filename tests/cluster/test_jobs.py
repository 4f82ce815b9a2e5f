"""Property tests of job streams: determinism, ordering, rates, grammar.

The cluster layer's determinism contract starts here: a stream is a
pure function of its spec string.  Hypothesis drives the generators
over random (n, gap, seed) boxes and pins: same seed -> identical
stream (bit-for-bit), arrivals non-decreasing, and the empirical
Poisson rate within tolerance of the configured one.  The grammar tests
cover every kind plus the fail-fast errors.
"""

import signal

import pytest
from hypothesis import given, settings, strategies as st
from spec_strategies import FUZZ, spec_text, valid_items

from repro.cluster import (
    Job,
    JobSpecError,
    arrivals_diurnal,
    arrivals_poisson,
    arrivals_static,
    jobs_help,
    parse_jobs,
)
from repro.cluster.jobs import _SCHEMAS, STREAM_KINDS
from repro.workloads import APPLICATIONS

pytestmark = pytest.mark.cluster

seeds = st.integers(min_value=0, max_value=2**31 - 1)
gaps = st.floats(min_value=1.0, max_value=1e6, allow_nan=False,
                 allow_infinity=False)


class TestGenerators:
    @given(n=st.integers(1, 50), gap=gaps, seed=seeds)
    @settings(max_examples=60, deadline=None)
    def test_same_seed_identical_stream(self, n, gap, seed):
        a = arrivals_poisson(n, gap, seed)
        b = arrivals_poisson(n, gap, seed)
        assert a == b  # bit-for-bit, not approx
        c = arrivals_diurnal(n, gap, 8 * gap, 4.0, seed)
        d = arrivals_diurnal(n, gap, 8 * gap, 4.0, seed)
        assert c == d

    @given(n=st.integers(1, 50), gap=gaps, seed=seeds)
    @settings(max_examples=60, deadline=None)
    def test_arrivals_non_decreasing(self, n, gap, seed):
        for arrivals in (
            arrivals_static(n, gap),
            arrivals_poisson(n, gap, seed),
            arrivals_diurnal(n, gap, 8 * gap, 4.0, seed),
        ):
            assert len(arrivals) == n
            assert all(t >= 0 for t in arrivals)
            assert all(
                a <= b for a, b in zip(arrivals, arrivals[1:])
            )

    @given(seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_poisson_empirical_rate(self, seed):
        """Mean inter-arrival gap within 30% of mean_gap_us at n=400.

        The standard error of an Exp(1/g) sample mean at n=400 is
        g/20, so a 30% band is a ~6-sigma envelope — loose enough to
        never flake, tight enough to catch a rate-inversion bug (which
        would be off by g**2/...) or a forgotten division.
        """

        n, mean_gap = 400, 1000.0
        arrivals = arrivals_poisson(n, mean_gap, seed)
        empirical = arrivals[-1] / n  # mean gap from 0 to the last
        assert 0.7 * mean_gap < empirical < 1.3 * mean_gap

    @given(seed=seeds)
    @settings(max_examples=10, deadline=None)
    def test_diurnal_rate_between_trough_and_peak(self, seed):
        """The modulated process runs faster than the trough rate and
        slower than the peak rate (averaged over whole periods)."""

        n, mean_gap, peak = 400, 1000.0, 4.0
        arrivals = arrivals_diurnal(n, mean_gap, 8 * mean_gap, peak, seed)
        empirical = arrivals[-1] / n
        assert mean_gap / (peak * 1.3) < empirical < 1.3 * mean_gap

    def test_static_spacing_exact(self):
        assert arrivals_static(3, 100.0, start_us=50.0) == (50.0, 150.0, 250.0)

    def test_generator_validation(self):
        with pytest.raises(JobSpecError):
            arrivals_static(2, -1.0)
        with pytest.raises(JobSpecError):
            arrivals_poisson(2, 0.0, 0)
        with pytest.raises(JobSpecError):
            arrivals_diurnal(2, 1000.0, 0.0, 4.0, 0)
        with pytest.raises(JobSpecError):
            arrivals_diurnal(2, 1000.0, 8000.0, 0.5, 0)


class TestGrammar:
    def test_static_defaults(self):
        jobs = parse_jobs("static:")
        assert len(jobs) == 2
        assert all(j.app == "alya" and j.nranks == 8 for j in jobs)
        assert [j.arrival_us for j in jobs] == [0.0, 2000.0]
        assert [j.index for j in jobs] == [0, 1]

    def test_spec_is_pure_function(self):
        spec = "poisson:n=5,mean_gap_us=500,seed=9,apps=alya|gromacs,ranks=8|4"
        assert parse_jobs(spec) == parse_jobs(spec)

    def test_cycles_and_tenants(self):
        jobs = parse_jobs(
            "static:n=4,gap_us=100,apps=alya|gromacs,ranks=8|4,tenants=2"
        )
        assert [j.app for j in jobs] == ["alya", "gromacs", "alya", "gromacs"]
        assert [j.nranks for j in jobs] == [8, 4, 8, 4]
        assert [j.tenant for j in jobs] == ["t0", "t1", "t0", "t1"]

    def test_list_kind_sorts_and_reindexes(self):
        jobs = parse_jobs("list:jobs=gromacs@4@5000@acme|alya@8@0")
        assert [j.app for j in jobs] == ["alya", "gromacs"]
        assert [j.index for j in jobs] == [0, 1]
        assert jobs[1].tenant == "acme"
        assert jobs[1].arrival_us == 5000.0

    def test_diurnal_kind_parses(self):
        jobs = parse_jobs("diurnal:n=3,mean_gap_us=500,peak=2,seed=4")
        assert len(jobs) == 3
        assert all(
            a.arrival_us <= b.arrival_us for a, b in zip(jobs, jobs[1:])
        )

    @pytest.mark.parametrize("bad", [
        "surge:n=2",                       # unknown kind
        "static:n=0",                      # n < 1
        "static:bogus=3",                  # unknown key
        "static:n=x",                      # bad int
        "poisson:mean_gap_us=0",           # bad rate
        "static:ranks=8|x",                # bad ranks cycle
        "static:apps=notanapp",            # unknown application
        "list:",                           # empty list
        "list:jobs=alya",                  # missing nranks
        "list:jobs=alya@8@1@t0@extra",     # too many fields
        "static:n=2,gap_us",               # not key=value
    ])
    def test_fail_fast(self, bad):
        with pytest.raises(JobSpecError):
            parse_jobs(bad)

    def test_job_validation(self):
        with pytest.raises(JobSpecError):
            Job(index=-1, app="alya", nranks=8, arrival_us=0.0)
        with pytest.raises(JobSpecError):
            Job(index=0, app="alya", nranks=0, arrival_us=0.0)
        with pytest.raises(JobSpecError):
            Job(index=0, app="alya", nranks=8, arrival_us=-1.0)

    def test_help_mentions_every_kind(self):
        text = jobs_help()
        for kind in ("static", "poisson", "diurnal", "list"):
            assert kind in text

    @pytest.mark.parametrize("bad", [
        "static:n=2,n=3",                      # silently n=3
        "poisson:n=3,mean_gap_us=nan,seed=1",  # arrivals at nan
        "static:n=2,gap_us=inf",               # job 0 arrived at nan
        "list:jobs=alya@8@nan",
        "list:jobs=alya@8@inf",
        "static:n=2,,gap_us=10",               # empty items were skipped
        "static:n=1001",
        "diurnal:n=2,peak=101",
    ])
    def test_once_accepted_specs_rejected(self, bad):
        with pytest.raises(JobSpecError):
            parse_jobs(bad)

    def test_infinite_peak_raises_instead_of_hanging(self):
        # the thinning loop once spun forever on peak=inf: a SIGALRM
        # turns a regression into a failure instead of a hung suite
        def hung(signum, frame):
            raise AssertionError("parse_jobs hung on peak=inf")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.setitimer(signal.ITIMER_REAL, 2.0)
        try:
            with pytest.raises(JobSpecError, match="peak"):
                parse_jobs("diurnal:n=2,peak=inf")
            # the generator applies the same rules when called directly
            with pytest.raises(JobSpecError, match="peak"):
                arrivals_diurnal(2, 1000.0, 8000.0, float("inf"), 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    @pytest.mark.parametrize("bad", [
        "diurnal:n=2,mean_gap_us=1e-308",   # peak/mean_gap_us overflows
        "diurnal:n=9,mean_gap_us=1e12,period_us=1e-300",  # cos(inf)
    ])
    def test_times_outside_the_finite_range_rejected(self, bad):
        with pytest.raises(JobSpecError):
            parse_jobs(bad)

    def test_job_rejects_non_finite_arrival(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(JobSpecError):
                Job(index=0, app="alya", nranks=8, arrival_us=bad)

    def test_help_lists_every_key_from_the_schema(self):
        text = jobs_help()
        for schema in _SCHEMAS.values():
            for name in schema.keys:
                assert f"{name}=" in text


_APPS = st.lists(st.sampled_from(APPLICATIONS), min_size=1, max_size=3)
_CYCLES = dict(
    apps=_APPS.map("|".join),
    ranks=st.lists(st.integers(1, 64), min_size=1, max_size=3).map(
        lambda r: "|".join(map(str, r))
    ),
)
#: app@nranks[@arrival_us[@tenant]]: the first 2..4 fields
_ENTRY = st.tuples(
    st.sampled_from(APPLICATIONS),
    st.integers(1, 64).map(str),
    st.floats(0.0, 1e9).map(repr),
    st.text("abcxyz0123456789_", min_size=1, max_size=4),
    st.integers(2, 4),
).map(lambda e: "@".join(e[:e[-1]]))


def _stream(kind: str) -> st.SearchStrategy[str]:
    if kind == "list":
        entries = st.lists(_ENTRY, min_size=1, max_size=5).map("|".join)
        return valid_items(_SCHEMAS["list"], jobs=entries).filter(
            bool
        ).map(lambda items: "list:" + items)
    return valid_items(_SCHEMAS[kind], **_CYCLES).map(
        lambda items: f"{kind}:{items}"
    )


class TestGrammarFuzz:
    @given(spec=st.sampled_from(STREAM_KINDS).flatmap(_stream))
    @settings(max_examples=200, deadline=None)
    def test_valid_specs_parse(self, spec):
        jobs = parse_jobs(spec)
        assert jobs and jobs == parse_jobs(spec)
        assert [j.index for j in jobs] == list(range(len(jobs)))
        assert all(
            a.arrival_us <= b.arrival_us for a, b in zip(jobs, jobs[1:])
        )

    @given(text=spec_text(*STREAM_KINDS, *APPLICATIONS, *sorted(
        {k for schema in _SCHEMAS.values() for k in schema.keys}
    )))
    @FUZZ
    def test_any_text_parses_or_raises_job_spec_error(self, text):
        try:
            parse_jobs(text)
        except JobSpecError:
            pass
