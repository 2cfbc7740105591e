"""OPP index lookups and the DVFS policy's cached OPP index.

``OppTable.index_of`` answers an exact OPP frequency from a dict and
anything else by the ±0.5 Hz search; the policy keeps its current OPP's
index and kHz value in step with every frequency change.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.kernel.cpufreq.policy import DvfsPolicy
from repro.soc import registry
from repro.soc.opp import OppTable
from repro.units import hz_to_khz


def linear_index(table, freq_hz):
    """The ±0.5 Hz linear search ``index_of`` is defined by."""
    for i, p in enumerate(table):
        if abs(p.freq_hz - freq_hz) <= 0.5:
            return i
    return None


def platform_tables():
    tables = []
    for name in registry.platform_names():
        spec = registry.build(name)
        tables += [c.opps for c in spec.clusters] + [spec.gpu.opps]
    return tables


TABLES = platform_tables()


@pytest.mark.parametrize("table", TABLES)
def test_index_of_matches_linear_search(table):
    for p in table:
        for offset in (0.0, 0.4, -0.4, 0.5, -0.5):
            assert table.index_of(p.freq_hz + offset) == linear_index(
                table, p.freq_hz + offset
            )
    for off_ladder in (
        table.min_freq_hz - 1e6, table.max_freq_hz + 1.0,
        (table[0].freq_hz + table[1].freq_hz) / 2.0, table[0].freq_hz + 0.6,
    ):
        assert linear_index(table, off_ladder) is None
        with pytest.raises(ConfigurationError):
            table.index_of(off_ladder)


def test_frequencies_closer_than_the_tolerance_are_rejected():
    with pytest.raises(ConfigurationError):
        OppTable.from_pairs([(400e6, 0.9), (400e6 + 0.5, 1.0)])
    OppTable.from_pairs([(400e6, 0.9), (400e6 + 0.6, 1.0)])


operations = st.lists(
    st.one_of(
        st.tuples(st.just("target"), st.floats(0.0, 4e9)),
        st.tuples(st.just("thermal"), st.floats(0.0, 4e9)),
        st.tuples(st.just("user"), st.floats(0.0, 4e9), st.floats(0.0, 4e9)),
    ),
    max_size=40,
)


@settings(max_examples=80, deadline=None)
@given(
    table_index=st.integers(0, len(TABLES) - 1),
    initial=st.one_of(st.none(), st.floats(0.0, 4e9)),
    ops=operations,
)
def test_policy_index_tracks_frequency(table_index, initial, ops):
    opps = TABLES[table_index]
    policy = DvfsPolicy("d", opps, initial_freq_hz=initial)

    def check():
        assert policy.cur_index == opps.index_of(policy.cur_freq_hz)
        assert policy.cur_khz == hz_to_khz(policy.cur_freq_hz)
        assert opps[policy.cur_index].freq_hz == policy.cur_freq_hz

    check()
    for op in ops:
        if op[0] == "target":
            assert policy.set_target(op[1], now_s=1.0) == policy.cur_freq_hz
        elif op[0] == "thermal":
            policy.set_thermal_max(op[1])
        else:
            lo, hi = sorted(op[1:])
            policy.set_user_limits(lo, hi)
        check()
        policy.account(0.01, 0.5)
    assert sum(policy.time_in_state.values()) == pytest.approx(0.01 * len(ops))
