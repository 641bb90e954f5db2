"""Campaign spec: validation, content hashing, TOML/JSON loading."""

import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

from repro.errors import ConfigError
from repro.experiments.spec import (
    CampaignSpec,
    fault_schedule,
    load_spec,
    parse_fault,
    spec_from_dict,
)
from repro.faults import (
    BufferStorm,
    CrashFault,
    FaultSchedule,
    HbmThrottle,
    ReplicationLinkSlowdown,
    ShortcutCorruption,
    SouFailStop,
)
from repro.harness.resilience import chaos_config
from tests.strategies import damaged

CAMPAIGNS = Path(__file__).resolve().parents[2] / "examples" / "campaigns"
SMOKE_JSON = (CAMPAIGNS / "ci-smoke.json").read_bytes()
FAULTS_TOML = (CAMPAIGNS / "faults.toml").read_bytes()


def _spec(**overrides):
    base = dict(
        name="unit",
        engines=("ART", "DCART"),
        workloads=("IPGEO",),
        seeds=(1, 2),
        n_keys=500,
        n_ops=2_000,
    )
    base.update(overrides)
    return CampaignSpec(**base)


class TestValidation:
    def test_minimal_spec_validates(self):
        spec = _spec()
        assert spec.baseline_engine == "ART"  # defaults to first engine

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigError, match="unknown engine"):
            _spec(engines=("ART", "BTREE"))

    def test_unknown_workload_rejected(self):
        with pytest.raises(ConfigError, match="unknown workload"):
            _spec(workloads=("NOPE",))

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ConfigError, match="duplicate seeds"):
            _spec(seeds=(1, 1))

    def test_empty_engines_rejected(self):
        with pytest.raises(ConfigError, match="at least one engine"):
            _spec(engines=())

    def test_bad_name_rejected(self):
        with pytest.raises(ConfigError, match="slug"):
            _spec(name="has spaces")

    def test_write_ratio_bounds(self):
        with pytest.raises(ConfigError, match="write_ratio"):
            _spec(write_ratio=1.5)

    def test_baseline_must_be_in_roster(self):
        with pytest.raises(ConfigError, match="baseline_engine"):
            _spec(baseline_engine="DCART-C")

    def test_faults_need_fault_capable_engines(self):
        # ART has no SOUs to kill: a fault dimension over it is a spec
        # authoring error, caught at load, not a mid-campaign surprise.
        with pytest.raises(ConfigError, match="fault-capable"):
            _spec(faults=("none", "sou-failstop:2"))

    @pytest.mark.parametrize("n_ops", [1_000, 2_048])
    def test_throttle_needs_a_second_batch(self, n_ops):
        # The throttle starts at batch 1 of the 2,048-op chaos batches:
        # a one-batch run would silently measure a healthy machine.
        with pytest.raises(ConfigError, match="1 batch of 2048"):
            _spec(engines=("DCART",), faults=("hbm-throttle:0.1",),
                  n_ops=n_ops)

    def test_more_failed_sous_than_the_machine_has_rejected(self):
        with pytest.raises(ConfigError, match="16 of 16"):
            _spec(engines=("DCART",), faults=("sou-failstop:16",))

    def test_throttle_with_two_batches_validates(self):
        spec = _spec(engines=("DCART",), faults=("hbm-throttle:0.1",),
                     n_ops=2_049)
        assert spec.faults == ("hbm-throttle:0.1",)

    def test_shard_faults_need_a_cluster(self):
        # Campaign cells run one machine: a shard term has nowhere to land.
        with pytest.raises(ConfigError, match="needs a cluster"):
            _spec(engines=("DCART",), faults=("shard-failstop:1",))

    def test_fault_dimension_on_dcart_validates(self):
        spec = _spec(engines=("DCART",), faults=("none", "sou-failstop:2"))
        assert spec.faults == ("none", "sou-failstop:2")

    def test_bad_power_rejected_at_spec_load(self):
        with pytest.raises(ConfigError):
            _spec(power=(135.0, 165.0, -1.0))


class TestParseFault:
    def test_none(self):
        assert parse_fault("none") == {"none": None}

    def test_sou_failstop(self):
        assert parse_fault("sou-failstop:4") == {"sou-failstop": 4}

    def test_hbm_throttle(self):
        assert parse_fault("hbm-throttle:0.25") == {"hbm-throttle": 0.25}
        # F = 0 is a full HBM blackout.
        assert parse_fault("hbm-throttle:0") == {"hbm-throttle": 0.0}

    def test_crash(self):
        assert parse_fault("crash") == {"crash": None}

    def test_shortcut_corrupt_and_buffer_storm(self):
        assert parse_fault("shortcut-corrupt:64") == {"shortcut-corrupt": 64}
        assert parse_fault("buffer-storm:1") == {"buffer-storm": 1.0}

    def test_shard_kinds(self):
        assert parse_fault("shard-failstop:2") == {"shard-failstop": 2}
        assert parse_fault("replication-slowdown:8") == {
            "replication-slowdown": 8.0
        }

    def test_terms_join_with_plus(self):
        assert parse_fault(
            "sou-failstop:2+shortcut-corrupt:64+buffer-storm:0.5"
            "+hbm-throttle:0.5"
        ) == {
            "sou-failstop": 2, "shortcut-corrupt": 64,
            "buffer-storm": 0.5, "hbm-throttle": 0.5,
        }

    @pytest.mark.parametrize("bad", [
        "sou-failstop", "sou-failstop:0", "sou-failstop:x",
        "hbm-throttle:1.5", "quake:9",
        "sou-failstop:2+sou-failstop:3", "none+sou-failstop:2",
        "crash+sou-failstop:2", "buffer-storm:0", "buffer-storm:1.5",
        "shortcut-corrupt:0", "shortcut-corrupt:x", "shard-failstop",
        "shard-failstop:0",
        "shard-failstop:1.5", "replication-slowdown:1",
        "replication-slowdown:x", "crash+shard-failstop:1",
    ])
    def test_bad_signatures_rejected(self, bad):
        with pytest.raises(ConfigError):
            parse_fault(bad)

    def test_schedule_places_each_kind(self):
        config = chaos_config(800)  # 2,048-op batches: 6,000 ops is 3
        schedule = fault_schedule(
            "sou-failstop:2+shortcut-corrupt:64+buffer-storm:0.5"
            "+hbm-throttle:0.5", config, 6_000, seed=1,
        )
        assert set(schedule.events) == {
            SouFailStop(0, 4), SouFailStop(0, 9), ShortcutCorruption(1, 64),
            BufferStorm(1, 0.5), HbmThrottle(1, 2, 0.5),
        }
        assert fault_schedule("none", config, 6_000, seed=1).events == ()
        assert fault_schedule("crash", config, 6_000, seed=1).events == ()

    def test_landing_batch_places_every_term_there(self):
        config = chaos_config(800)
        one_machine = fault_schedule(
            "sou-failstop:2+shortcut-corrupt:64+buffer-storm:0.5"
            "+hbm-throttle:0.5", config, 6_000, seed=1, at_batch=9,
        )
        assert set(one_machine.events) == {
            SouFailStop(9, 4), SouFailStop(9, 9), ShortcutCorruption(9, 64),
            BufferStorm(9, 0.5), HbmThrottle(9, 13, 0.5),
        }
        assert fault_schedule(
            "crash", config, 6_000, seed=1, at_batch=2
        ).events == (CrashFault(2, "wal-pre-commit", 1),)
        cluster = fault_schedule(
            "shard-failstop:1+replication-slowdown:8", config, 6_000, seed=1,
            at_batch=2, n_shards=4, replicas=1,
        )
        assert cluster == FaultSchedule(
            seed=1,
            events=FaultSchedule.fail_shards(1, 1, 4, at_batch=2).events
            + (ReplicationLinkSlowdown(2, 6, 1, 8.0),),
        )
        # A landing batch needs no second batch: the run decides whether
        # it gets there.
        assert fault_schedule(
            "buffer-storm:0.5", config, 1_000, seed=1, at_batch=9
        ).events == (BufferStorm(9, 0.5),)

    @pytest.mark.parametrize("fault, shape, reason", [
        ("shard-failstop:1", {}, "needs a cluster"),
        ("replication-slowdown:8", {}, "needs a cluster"),
        ("sou-failstop:2", {"n_shards": 4, "replicas": 1},
         "a cluster runs no machine-level fault"),
        ("crash", {"n_shards": 4, "replicas": 1},
         "a cluster runs no machine-level fault"),
        ("replication-slowdown:8", {"n_shards": 4, "replicas": 0},
         "no replication link"),
        ("shard-failstop:5", {"n_shards": 4, "replicas": 1}, "5 of 4"),
    ])
    def test_unrunnable_placements_rejected(self, fault, shape, reason):
        with pytest.raises(ConfigError, match=reason):
            fault_schedule(
                fault, chaos_config(800), 6_000, seed=1, at_batch=2, **shape
            )

    def test_existing_strings_keep_their_spec_hash(self):
        # examples/campaigns/faults.toml's spec: its hash keys stored cells.
        spec = CampaignSpec(
            name="dcart-faults", engines=("DCART",),
            workloads=("IPGEO", "DICT"), seeds=(1, 2, 3),
            n_keys=2000, n_ops=20000,
            faults=("none", "sou-failstop:2", "sou-failstop:4",
                    "hbm-throttle:0.5"),
        )
        assert spec.content_hash() == "d9912c69523b2884"


class TestContentHash:
    def test_hash_is_stable(self):
        assert _spec().content_hash() == _spec().content_hash()
        assert len(_spec().content_hash()) == 16

    def test_any_semantic_change_changes_the_hash(self):
        base = _spec().content_hash()
        assert _spec(seeds=(1, 2, 3)).content_hash() != base
        assert _spec(n_ops=2_001).content_hash() != base
        assert _spec(op_skew=0.9).content_hash() != base
        assert _spec(power=(135.0, 165.0, 42.0)).content_hash() != base

    def test_round_trips_through_dict(self):
        spec = _spec(faults=("none",), op_skew=1.1)
        clone = spec_from_dict(spec.to_dict())
        assert clone == spec
        assert clone.content_hash() == spec.content_hash()


class TestSpecFromDict:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown campaign spec key"):
            spec_from_dict({
                "name": "x", "engines": ["ART"], "workloads": ["IPGEO"],
                "seeds": [1], "colour": "red",
            })

    def test_missing_required_key_rejected(self):
        with pytest.raises(ConfigError, match="missing 'seeds'"):
            spec_from_dict({
                "name": "x", "engines": ["ART"], "workloads": ["IPGEO"],
            })

    def test_string_where_list_expected_rejected(self):
        with pytest.raises(ConfigError, match="must be a list"):
            spec_from_dict({
                "name": "x", "engines": "ART", "workloads": ["IPGEO"],
                "seeds": [1],
            })

    def test_power_table_partial_override(self):
        spec = spec_from_dict({
            "name": "x", "engines": ["ART"], "workloads": ["IPGEO"],
            "seeds": [1], "power": {"fpga_watts": 84.0},
        })
        assert spec.power == (135.0, 165.0, 84.0)

    def test_power_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown power key"):
            spec_from_dict({
                "name": "x", "engines": ["ART"], "workloads": ["IPGEO"],
                "seeds": [1], "power": {"tpu_watts": 1.0},
            })

    @pytest.mark.parametrize("override", [
        {"name": 5},
        {"name": ["x"]},
        {"engines": ["DCART"], "faults": ["none", 5]},
        {"engines": ["DCART"], "faults": [None]},
        {"power": {"cpu_watts": "abc"}},
        {"power": {"cpu_watts": None}},
    ], ids=["name-int", "name-list", "fault-int", "fault-null",
            "watts-str", "watts-null"])
    def test_wrongly_typed_field_is_config_error(self, override):
        doc = {"name": "x", "engines": ["ART"], "workloads": ["IPGEO"],
               "seeds": [1]}
        doc.update(override)
        with pytest.raises(ConfigError):
            spec_from_dict(doc)


class TestLoadSpec:
    def test_json_spec_loads(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "name": "file", "engines": ["ART"], "workloads": ["DICT"],
            "seeds": [7],
        }))
        spec = load_spec(str(path))
        assert spec.name == "file"
        assert spec.seeds == (7,)

    def test_nested_campaign_table(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"campaign": {
            "name": "nested", "engines": ["ART"], "workloads": ["DICT"],
            "seeds": [1],
        }}))
        assert load_spec(str(path)).name == "nested"

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_spec(str(tmp_path / "absent.json"))

    def test_corrupt_json_is_config_error(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_spec(str(path))

    def test_unknown_extension_rejected(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("name: x")
        with pytest.raises(ConfigError, match="toml or .json"):
            load_spec(str(path))

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="tomllib needs Python >= 3.11")
    def test_toml_spec_loads(self, tmp_path):
        path = tmp_path / "c.toml"
        path.write_text(
            '[campaign]\nname = "toml"\nengines = ["ART"]\n'
            'workloads = ["EA"]\nseeds = [1, 2]\n'
        )
        spec = load_spec(str(path))
        assert spec.name == "toml"
        assert spec.workloads == ("EA",)

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="tomllib needs Python >= 3.11")
    def test_corrupt_toml_is_config_error(self, tmp_path):
        path = tmp_path / "c.toml"
        path.write_text("[campaign\nname=")
        with pytest.raises(ConfigError, match="not valid TOML"):
            load_spec(str(path))

    def test_toml_and_json_specs_hash_identically(self, tmp_path):
        # The two formats are surface syntax for the same spec: the
        # content hash must not depend on which file fed it.
        if sys.version_info < (3, 11):
            pytest.skip("tomllib needs Python >= 3.11")
        toml = tmp_path / "c.toml"
        toml.write_text(
            'name = "both"\nengines = ["ART"]\nworkloads = ["RS"]\n'
            'seeds = [3]\n'
        )
        as_json = tmp_path / "c.json"
        as_json.write_text(json.dumps({
            "name": "both", "engines": ["ART"], "workloads": ["RS"],
            "seeds": [3],
        }))
        assert (
            load_spec(str(toml)).content_hash()
            == load_spec(str(as_json)).content_hash()
        )

    @pytest.mark.parametrize("suffix", [".json", ".toml"])
    def test_invalid_utf8_is_config_error(self, tmp_path, suffix):
        path = tmp_path / f"c{suffix}"
        path.write_bytes(b'{"name": "\xff"}')
        with pytest.raises(ConfigError, match="not valid UTF-8"):
            load_spec(str(path))

    def test_directory_is_config_error(self, tmp_path):
        path = tmp_path / "c.json"
        path.mkdir()
        with pytest.raises(ConfigError, match="cannot read campaign spec"):
            load_spec(str(path))


@pytest.fixture(scope="module")
def spec_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("damaged-specs")


def _load_damaged(path, data):
    path.write_bytes(data)
    try:
        spec = load_spec(str(path))
    except ConfigError:
        return
    assert isinstance(spec, CampaignSpec)


@given(data=damaged(SMOKE_JSON))
@settings(max_examples=300, deadline=None)
def test_damaged_json_spec_loads_or_raises_config_error(spec_dir, data):
    _load_damaged(spec_dir / "ci-smoke.json", data)


@given(data=damaged(FAULTS_TOML))
@settings(max_examples=300, deadline=None)
def test_damaged_toml_spec_loads_or_raises_config_error(spec_dir, data):
    _load_damaged(spec_dir / "faults.toml", data)
