import dataclasses
import json

import numpy as np
import pytest

from latecut import profiling
from latecut.errors import ConfigError, DegenerateBlockError, InvalidBlockError
from latecut.network import op_counter, random_network
from latecut.profiling import (
    LatencyProfile,
    _measure_lock,
    block_cost_macs,
    check_profile,
    latency_saving,
    network_cost_macs,
    profile,
    profile_from_dict,
    profile_to_dict,
)


class TestModeled:
    def test_identical_blocks_identical_latency(self):
        net = random_network(4, 4, 3, 2, seed=0)
        prof = profile(net, 8, mode="modeled")
        values = list(prof.skipped_latency.values())
        assert values[0] == values[1] == values[2]

    def test_width4_block_costs_2x16xB(self):
        net = random_network(4, 4, 1, 2, seed=0)
        for batch in (1, 8, 64):
            assert block_cost_macs(net.blocks[0], batch) == 2 * (4 * 4 * batch)

    def test_modeled_skipped_latency_is_exact_subtraction(self):
        net = random_network(6, 5, 4, 3, seed=1)
        prof = profile(net, 16, mode="modeled")
        for block in net.blocks:
            expected = prof.full_latency - block_cost_macs(block, 16)
            assert prof.skipped_latency[block.block_id] == expected

    def test_total_cost_is_sum_of_components(self):
        net = random_network(6, 5, 4, 3, seed=1)
        stem_cls = 16 * (net.stem_weight.size + net.classifier_weight.size)
        blocks = sum(block_cost_macs(b, 16) for b in net.blocks)
        assert network_cost_macs(net, 16) == stem_cls + blocks


class TestLatencySaving:
    def test_empty_skip_is_zero(self):
        net = random_network(4, 4, 2, 2, seed=0)
        prof = profile(net, 8, mode="modeled")
        assert latency_saving(prof, set()) == 0.0

    def test_half_cost_block_gives_half_saving(self):
        # stem (w*w) + classifier (w*w) cost exactly as much as one block (2*w*w)
        width = 4
        net = random_network(width, width, 1, width, seed=0)
        prof = profile(net, 8, mode="modeled")
        assert latency_saving(prof, {1}) == 0.5

    def test_additive_over_disjoint_skips(self):
        net = random_network(5, 6, 4, 3, seed=2)
        prof = profile(net, 8, mode="modeled")
        lone = sum(latency_saving(prof, {j}) for j in (1, 3, 4))
        assert abs(latency_saving(prof, {1, 3, 4}) - lone) < 1e-12

    def test_scale_invariant(self):
        net = random_network(5, 6, 4, 3, seed=3)
        prof = profile(net, 8, mode="modeled")
        for scale in (1e-6, 3.0, 1e9):
            scaled = dataclasses.replace(
                prof,
                full_latency=prof.full_latency * scale,
                skipped_latency={j: t * scale for j, t in prof.skipped_latency.items()},
            )
            for j in range(1, 5):
                assert abs(latency_saving(scaled, {j}) - latency_saving(prof, {j})) < 1e-12

    def test_strictly_increasing_and_bounded(self):
        net = random_network(5, 6, 5, 3, seed=4)
        prof = profile(net, 8, mode="modeled")
        skip = set()
        previous = 0.0
        for j in range(1, 6):
            skip.add(j)
            saving = latency_saving(prof, skip)
            assert previous < saving < 1.0
            previous = saving

    def test_unknown_block_rejected(self):
        net = random_network(4, 4, 2, 2, seed=0)
        prof = profile(net, 8, mode="modeled")
        with pytest.raises(InvalidBlockError):
            latency_saving(prof, {7})

    def test_skip_read_as_block_ids(self):
        # Only None is no blocks; an array is its elements, whatever its truth value.
        net = random_network(4, 4, 2, 2, seed=0)
        prof = profile(net, 8, mode="modeled")
        assert latency_saving(prof, None) == 0.0
        assert latency_saving(prof, np.array([1, 2])) == latency_saving(prof, {1, 2})
        for bad in (np.array([0]), [True], ["1"], [1.0]):
            with pytest.raises(InvalidBlockError):
                latency_saving(prof, bad)


class TestMeasured:
    def test_run_count_validation(self):
        net = random_network(4, 4, 2, 2, seed=0)
        with pytest.raises(ConfigError):
            profile(net, 8, mode="measured", timed_runs=2)
        with pytest.raises(ConfigError):
            profile(net, 8, mode="measured", warmup_runs=0)

    def test_skipping_blocks_saves_wall_time(self):
        # 41 rounds, not 11: on a 2-core host with one core kept busy, 11 let
        # a skipped network's median ratio exceed the 2% margin about once in
        # 150 runs (with both cores busy, once in 10); 41 failed none of 500.
        net = random_network(96, 96, 6, 8, seed=0)
        prof = profile(net, 96, mode="measured", warmup_runs=3, timed_runs=41, seed=1)
        assert prof.full_latency > 0
        for latency in prof.skipped_latency.values():
            assert latency <= prof.full_latency * 1.02
        assert np.mean(list(prof.skipped_latency.values())) < prof.full_latency

    def test_full_and_skipped_networks_are_timed_round_robin(self, monkeypatch):
        # Each timed call is recorded as the ids, in ``net``, of the blocks
        # the timed network keeps; the timed calls take no skip set.
        order = []
        real_forward = profiling.forward
        net = random_network(4, 4, 3, 2, seed=0)
        ids = {id(block.weight1): block.block_id for block in net.blocks}

        def recording(network, batch):
            order.append(tuple(ids[id(block.weight1)] for block in network.blocks))
            return real_forward(network, batch)

        monkeypatch.setattr(profiling, "forward", recording)
        profile(net, 8, mode="measured", warmup_runs=1, timed_runs=3)
        one_round = [(1, 2, 3), (2, 3), (1, 3), (1, 2)]
        assert order == [(1, 2, 3)] + one_round * 3

    def test_measured_ranking_tracks_modeled_ranking(self):
        # blocks with hidden widths 32/64/128: adjacent costs differ 2x
        agreements = 0
        for seed in range(10):
            net = random_network(64, 64, 3, 4, seed=seed, hidden_widths=[32, 64, 128])
            modeled = profile(net, 128, mode="modeled")
            measured = profile(net, 128, mode="measured", warmup_runs=2, timed_runs=9, seed=seed)
            modeled_order = sorted(range(1, 4), key=lambda j: modeled.block_saving(j))
            measured_order = sorted(range(1, 4), key=lambda j: measured.block_saving(j))
            agreements += modeled_order == measured_order
        assert agreements >= 6

    def test_multi_block_saving_is_sum_of_singletons(self):
        net = random_network(8, 8, 3, 2, seed=0)
        prof = profile(net, 8, mode="measured", warmup_runs=1, timed_runs=3)
        lone = sum(latency_saving(prof, {j}) for j in (1, 3))
        assert abs(latency_saving(prof, {1, 3}) - lone) < 1e-12
        loaded = profile_from_dict(profile_to_dict(prof))
        assert latency_saving(loaded, {1, 3}) == latency_saving(prof, {1, 3})

    def test_modeled_mode_never_touches_the_measurement_lock(self):
        net = random_network(4, 4, 2, 2, seed=0)
        with _measure_lock:
            prof = profile(net, 8, mode="modeled")
        assert prof.full_latency > 0


@pytest.mark.parametrize("mode", ["modeled", "measured"])
def test_loaded_profile_equals_written(mode):
    net = random_network(5, 4, 3, 2, seed=6)
    prof = profile(net, 8, mode=mode, warmup_runs=1, timed_runs=3)
    assert profile_from_dict(json.loads(json.dumps(profile_to_dict(prof)))) == prof


def test_profile_json_roundtrip():
    net = random_network(5, 4, 3, 2, seed=6)
    prof = profile(net, 8, mode="modeled")
    payload = json.loads(json.dumps(profile_to_dict(prof)))
    assert payload["mode"] == "modeled"
    assert payload["T"] == prof.full_latency
    restored = profile_from_dict(payload)
    for j in (1, 2, 3):
        assert restored.block_saving(j) == prof.block_saving(j)
    assert [row["delta_t"] for row in payload["per_block"]] == [
        prof.block_saving(j) for j in (1, 2, 3)
    ]


@pytest.mark.parametrize("name,value", [
    ("batch_size", 2.9), ("batch_size", True), ("batch_size", "8"), ("batch_size", 0),
    ("warmup_runs", 1.5), ("warmup_runs", 0),
    ("timed_runs", 9.0), ("timed_runs", np.bool_(True)), ("timed_runs", 2),
], ids=["batch_float", "batch_bool", "batch_str", "batch_0", "warmup_float", "warmup_0",
        "runs_float", "runs_np_bool", "runs_2"])
@pytest.mark.parametrize("mode", ["modeled", "measured"])
def test_profile_counts_are_integers(mode, name, value):
    """A count is never coerced (``int(2.9)`` would profile batch 2), and
    each is checked in either mode before any pass."""
    net = random_network(4, 4, 2, 2, seed=0)
    kwargs = dict(batch_size=8, warmup_runs=1, timed_runs=3) | {name: value}
    low = 3 if name == "timed_runs" else 1
    with pytest.raises(ConfigError, match=rf"^{name} must be an integer >= {low} .* got "):
        profile(net, mode=mode, **kwargs)
    assert op_counter.forward_passes == 0
    numpy_counts = profile(net, np.int64(8), mode=mode, warmup_runs=np.int32(1),
                           timed_runs=np.uint8(3))
    assert numpy_counts.skipped_latency.keys() == {1, 2}
    if mode == "modeled":
        assert numpy_counts == profile(net, 8)


def _payload_with(**changes):
    payload = profile_to_dict(profile(random_network(5, 4, 3, 2, seed=6), 8))
    rows = changes.pop("rows", None)
    if rows is not None:
        payload["per_block"] = rows(payload["per_block"])
    return json.loads(json.dumps(payload | changes))


@pytest.mark.parametrize("payload", [
    _payload_with(rows=lambda rows: rows + [{"block_id": 1.9, "latency": 0.5}]),
    _payload_with(rows=lambda rows: [dict(rows[0], block_id=1.7), dict(rows[1], block_id=True),
                                     rows[2]]),
    _payload_with(rows=lambda rows: rows + [dict(rows[0])]),
    _payload_with(rows=lambda rows: [dict(rows[0], block_id="1")] + rows[1:]),
    _payload_with(rows=lambda rows: [dict(rows[0], latency="5.0")] + rows[1:]),
    _payload_with(rows=lambda rows: [dict(rows[0], latency=False)] + rows[1:]),
    _payload_with(rows=lambda rows: [dict(rows[0], latency=None)] + rows[1:]),
    _payload_with(T=True),
    _payload_with(T="96.0"),
    _payload_with(T=10**400),
], ids=["extra_float_id", "float_and_bool_ids", "duplicate_id", "string_id", "string_latency",
        "bool_latency", "null_latency", "bool_T", "string_T", "T_beyond_float"])
def test_profile_from_dict_reads_only_unique_integer_ids_and_numbers(payload):
    with pytest.raises(ConfigError, match="malformed profile payload"):
        profile_from_dict(payload)


def test_profile_from_dict_reads_integral_json_numbers_as_floats():
    payload = _payload_with(T=96)
    payload["per_block"][0]["latency"] = 80
    prof = profile_from_dict(payload)
    assert prof.full_latency == 96.0 and type(prof.full_latency) is float
    assert prof.skipped_latency[1] == 80.0 and type(prof.skipped_latency[1]) is float
    assert profile_from_dict(profile_to_dict(prof)) == prof


@pytest.mark.parametrize("latency", [-1.0, 0.0], ids=["negative", "zero"])
def test_profile_from_dict_refuses_a_nonpositive_latency(latency):
    # Read as given, -1.0 would be a saving above 1, more than the whole
    # network costs, ranking block 3 first.
    payload = _payload_with(rows=lambda rows: rows[:2] + [dict(rows[2], latency=latency)])
    with pytest.raises(ConfigError, match="block 3 latency must be positive and finite"):
        profile_from_dict(payload)


class TestCheckProfile:
    @pytest.mark.parametrize("latency", [pytest.param(1.0, id="zero"),
                                         pytest.param(1.005, id="negative")])
    def test_nonpositive_saving_is_degenerate(self, latency):
        net = random_network(4, 4, 3, 2, seed=0)
        prof = LatencyProfile("measured", 1.0, {1: 0.8, 2: latency, 3: 0.8})
        with pytest.raises(DegenerateBlockError, match="block 2 has latency saving"):
            check_profile(prof, net)

    def test_names_the_lowest_degenerate_block(self):
        net = random_network(4, 4, 4, 2, seed=0)
        prof = LatencyProfile("measured", 1.0, {4: 1.5, 3: 1.01, 1: 0.8, 2: 0.8})
        with pytest.raises(DegenerateBlockError, match="block 3 "):
            check_profile(prof, net)
