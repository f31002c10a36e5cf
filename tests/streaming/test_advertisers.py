"""``Engine._advertisers`` against a plain oracle, for both of its answers.

The schedulers ask one question per tick: which partners advertise each
of these chunks at ``t``, in plan order.  The engine answers it in one
of two ways — a row gather from the block :meth:`Engine._cohort_build`
prepared for this tick, or the scalar per-chunk scan for every context
no cohort build covered.  Both must equal the definition:

* a remote partner holds chunk ``c`` iff
  ``max(gen + delay, ready) <= t < gen + retention`` (``gen = c · ci``);
* a probe partner holds it iff :meth:`SoAState.has` says so.

The engines here are stopped mid-stream, on a per-probe-tick profile
(pplive) and a cohort profile (napa-scale at test scale), each also with
a retention window shorter than the playout window so that chunks the
schedulers can ask about age out of the remotes' buffers.  Questions are
drawn by hypothesis over the chunks a tick can scan at ``t``: the window
``[floor, live]`` at some ``t`` at or after the stop, which reaches past
the top of lagging partner rows (the ``_GUARD`` columns).
"""

import functools
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.config import RngBundle
from repro.population.generator import PopulationConfig, generate_population
from repro.population.sparse import generate_sparse_swarm
from repro.streaming.engine import Engine, EngineConfig
from repro.streaming.profiles import get_profile
from repro.topology.testbed import build_napa_wine_testbed
from repro.topology.world import World

#: Simulated seconds before the engine is stopped.
STOP_S = 25.0

#: A retention window shorter than every profile's 30 s playout window.
SHORT_RETENTION_S = 20.0


@functools.lru_cache(maxsize=None)
def _stopped_engine(name: str, retention_s: float | None):
    """Engine for profile ``name`` run for ``STOP_S`` simulated seconds,
    the time of its last event, and its probes' partner contexts then."""
    profile = get_profile(name)
    if profile.swarm == "sparse":
        profile, generate = profile.scaled_swarm(1200), generate_sparse_swarm
    else:
        profile, generate = profile.scaled(0.5), generate_population
    if retention_s is not None:
        profile = replace(
            profile, availability=replace(profile.availability, retention_s=retention_s)
        )
    world = World()
    population = generate(
        world, PopulationConfig(size=profile.swarm_size), RngBundle(7)["population"]
    )
    eng = Engine(
        world,
        build_napa_wine_testbed(world),
        profile,
        population,
        EngineConfig(duration_s=STOP_S, seed=7),
    )
    eng.run()
    # Every partner, online or not at the stop (sessions end with the run):
    # the answers read only the diffusion model and the bitmaps.
    works = [
        (probe, probe.partners_arr, eng._context(probe.pi, probe.partners_arr))
        for probe in eng._probes
        if len(probe.partners_arr)
    ]
    return eng, eng._queue.now, works


def _oracle(eng, partners, chunk: int, t: float) -> list[int]:
    av = eng.availability
    gen = chunk * av.chunk_interval
    holders = []
    for g in partners.tolist():
        if g < eng.n_remote:
            delay, ready = av.scalar_view(g)
            held = max(gen + delay, ready) <= t < gen + av.retention_s
        else:
            held = eng._soa.has(g - eng.n_remote, chunk)
        if held:
            holders.append(g)
    return holders


def _scalar_answer(eng, ctx, chunks, t):
    # A cohort build that did not cover ``ctx``: the scan must answer.
    eng._cohort_serial += 1
    rows = list(eng._advertisers(ctx, chunks, t))
    assert all(key is None for _holders, key in rows)
    return rows


def _cohort_answer(eng, probe, partners, ctx, chunks, t):
    holes = sorted(set(chunks), reverse=True)
    eng._cohort_build(t, holes[-1], holes[0], [(probe, holes, partners, 1, ctx)])
    rows = list(eng._advertisers(ctx, chunks, t))
    for holders, key in rows:
        assert key == b"".join(ctx["score_key"][g] for g in holders)
    return rows


@pytest.mark.parametrize("retention_s", [None, SHORT_RETENTION_S], ids=["profile", "short"])
@pytest.mark.parametrize("name", ["pplive", "napa-scale"])
def test_advertisers_match_oracle(name, retention_s):
    eng, t_stop, works = _stopped_engine(name, retention_s)
    assert eng.profile.tick_cohort == (name == "napa-scale")
    assert works
    soa = eng._soa
    ci = eng.availability.chunk_interval
    seen = Counter()

    @settings(max_examples=60, deadline=None)
    @given(
        i=st.integers(min_value=0, max_value=len(works) - 1),
        dt=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=60.0)),
        picks=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=12),
    )
    # The window's oldest and newest chunk, at the stop and a minute on:
    # past retention (short window) and past every row top, whatever is drawn.
    @example(i=0, dt=0.0, picks=[0.0, 1.0])
    @example(i=0, dt=60.0, picks=[0.0, 1.0])
    def check(i, dt, picks):
        probe, partners, ctx = works[i]
        t = t_stop + dt
        live = int(t / ci)
        floor = max(0, live - soa.window_chunks + 1)
        chunks = [floor + int(p * (live - floor)) for p in picks]
        # The scan's precondition: chunks sit at/above every partner row's base.
        assert floor >= max(soa.base)
        want = [_oracle(eng, partners, c, t) for c in chunks]
        scalar = _scalar_answer(eng, ctx, chunks, t)
        cohort = _cohort_answer(eng, probe, partners, ctx, chunks, t)
        assert [h for h, _ in scalar] == want
        assert [h for h, _ in cohort] == want
        for c, holders in zip(chunks, want):
            seen["remote held"] += any(g < eng.n_remote for g in holders)
            seen["probe held"] += any(g >= eng.n_remote for g in holders)
            seen["past retention"] += t >= c * ci + eng.availability.retention_s
            seen["past row top"] += any(
                c - soa.base[g - eng.n_remote] >= soa.capacity
                for g in partners.tolist()
                if g >= eng.n_remote
            )

    check()
    # The drawn questions reach every case the answers distinguish.
    assert seen["remote held"] and seen["probe held"] and seen["past row top"]
    assert bool(seen["past retention"]) == (retention_s is not None)
