"""Tests for workload persistence (save/load round trips)."""

import io

import pytest
from hypothesis import given, settings

from repro.errors import WorkloadError
from repro.workloads import make_workload
from repro.workloads.ops import OpKind
from repro.workloads.trace import load_workload, save_workload
from tests.strategies import damaged


@pytest.fixture(scope="module")
def workload():
    return make_workload("IPGEO", n_keys=500, n_ops=2000, seed=4)


class TestRoundTrip:
    def test_in_memory(self, workload):
        buffer = io.StringIO()
        save_workload(workload, buffer)
        buffer.seek(0)
        reloaded = load_workload(buffer)
        assert reloaded.name == workload.name
        assert reloaded.key_family == workload.key_family
        assert reloaded.seed == workload.seed
        assert reloaded.loaded_keys == workload.loaded_keys
        assert len(reloaded.operations) == len(workload.operations)
        for a, b in zip(reloaded.operations, workload.operations):
            assert (a.op_id, a.kind, a.key, a.value) == (
                b.op_id, b.kind, b.key, b.value,
            )

    def test_via_file(self, workload, tmp_path):
        path = str(tmp_path / "wl.jsonl")
        save_workload(workload, path)
        reloaded = load_workload(path)
        assert reloaded.loaded_keys == workload.loaded_keys

    def test_metadata_preserved(self, workload):
        buffer = io.StringIO()
        save_workload(workload, buffer)
        buffer.seek(0)
        reloaded = load_workload(buffer)
        assert reloaded.metadata["mix"] == workload.metadata["mix"]

    def test_engines_accept_reloaded_workload(self, workload):
        from repro.engines import SmartEngine

        buffer = io.StringIO()
        save_workload(workload, buffer)
        buffer.seek(0)
        reloaded = load_workload(buffer)
        original = SmartEngine().run(workload)
        replayed = SmartEngine().run(reloaded)
        assert replayed.elapsed_seconds == pytest.approx(original.elapsed_seconds)
        assert replayed.partial_key_matches == original.partial_key_matches


class TestMalformedInputs:
    def test_empty_file(self):
        with pytest.raises(WorkloadError):
            load_workload(io.StringIO(""))

    def test_bad_header(self):
        with pytest.raises(WorkloadError):
            load_workload(io.StringIO('{"nope": 1}\n'))

    def test_missing_file(self, tmp_path):
        with pytest.raises(WorkloadError, match="cannot read workload file"):
            load_workload(str(tmp_path / "absent.jsonl"))

    @pytest.mark.parametrize("line", [
        b'{"load": "\xff0a"}',                    # invalid UTF-8
        b'{"load": "0a',                           # truncated JSON
        b'5',                                      # not an object
        b'{"load": "zz"}',                         # non-hex load key
        b'{"op": "read", "key": "0a"}',            # op without id
        b'{"id": 0, "op": "read"}',                # op without key
        b'{"id": 1, "op": "read", "key": "0a"}',   # id is not the position
        b'{"id": "0", "op": "read", "key": "0a"}', # id is not an int
        b'{"id": false, "op": "read", "key": "0a"}',  # a bool is no id
        b'{"id": 0, "op": "scan", "key": "0a", "scan": "x"}',
        b'{"id": 0, "op": "scan", "key": "0a", "scan": -1}',
        b'{"id": 0, "op": "scan", "key": "0a", "scan": true}',
        b'{"id": 0, "op": "scan", "key": "0a", "scan": 2.5}',
    ], ids=["utf8", "json", "not-object", "hex", "no-id", "no-key",
            "id-not-position", "id-str", "id-bool", "scan-str",
            "scan-negative", "scan-bool", "scan-float"])
    def test_bad_line_names_the_line(self, tmp_path, line):
        path = tmp_path / "wl.jsonl"
        path.write_bytes(b'{"name": "X", "format": 1}\n' + line + b"\n")
        with pytest.raises(WorkloadError, match="^line 2: "):
            load_workload(str(path))

    @pytest.mark.parametrize("second_id", [0, 2], ids=["duplicate", "skipped"])
    def test_ids_must_count_up_from_zero(self, second_id):
        text = (
            '{"name": "X", "format": 1}\n'
            '{"id": 0, "op": "read", "key": "0a"}\n'
            f'{{"id": {second_id}, "op": "read", "key": "0a"}}\n'
        )
        with pytest.raises(WorkloadError, match="^line 3: op id"):
            load_workload(io.StringIO(text))

    def test_unknown_format_version(self):
        with pytest.raises(WorkloadError):
            load_workload(io.StringIO('{"name": "X", "format": 99}\n'))

    def test_bad_operation_kind(self):
        text = (
            '{"name": "X", "format": 1}\n'
            '{"id": 0, "op": "explode", "key": "00"}\n'
        )
        with pytest.raises(WorkloadError):
            load_workload(io.StringIO(text))

    def test_load_after_ops_rejected(self):
        text = (
            '{"name": "X", "format": 1}\n'
            '{"id": 0, "op": "read", "key": "00"}\n'
            '{"load": "01"}\n'
        )
        with pytest.raises(WorkloadError):
            load_workload(io.StringIO(text))

    def test_blank_lines_tolerated(self):
        text = '{"name": "X", "format": 1}\n\n{"load": "0a0b"}\n\n'
        wl = load_workload(io.StringIO(text))
        assert wl.loaded_keys == [b"\x0a\x0b"]
        assert wl.n_ops == 0

    def test_delete_and_scan_round_trip(self):
        text = (
            '{"name": "X", "format": 1}\n'
            '{"load": "0a"}\n'
            '{"id": 0, "op": "delete", "key": "0a"}\n'
            '{"id": 1, "op": "scan", "key": "0a", "scan": 7}\n'
        )
        wl = load_workload(io.StringIO(text))
        assert wl.operations[0].kind is OpKind.DELETE
        assert wl.operations[1].scan_count == 7


def _saved_workload() -> bytes:
    buffer = io.StringIO()
    save_workload(make_workload("IPGEO", n_keys=20, n_ops=20, seed=3), buffer)
    return buffer.getvalue().encode("utf-8")


SAVED = _saved_workload()


@given(damaged(SAVED))
@settings(max_examples=300, deadline=None)
def test_truncated_or_flipped_file_loads_or_raises_workload_error(data):
    try:
        workload = load_workload(io.BytesIO(data))
    except WorkloadError:
        return
    assert workload.n_keys <= 20 and workload.n_ops <= 20
