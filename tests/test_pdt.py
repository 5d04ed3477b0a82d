import json
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipan import canon, io, pdt
from bipan.errors import BiPanError
from bipan.pdt import Health, create_instance, parse_timestamp, plan_repair_for, set_health
from bipan.plan import repair_plan

T0 = "2024-05-01T10:00:00Z"
T1 = "2024-05-01T11:00:00Z"
T2 = "2024-05-02T09:30:00+00:00"


class TestCreate:
    def test_tracks_all_replaceable_components(self, f1):
        twin = create_instance("VIN-001", f1)
        assert len(twin.health) == 23
        assert set(twin.health.values()) == {Health.UNKNOWN}
        assert "stage2" not in twin.health and "battery" not in twin.health
        assert twin.events == ()
        assert twin.model_digest == canon.model_digest(f1)

    def test_deterministic(self, f1):
        assert create_instance("VIN-001", f1) == create_instance("VIN-001", f1)

    def test_empty_id(self, f1):
        with pytest.raises(BiPanError) as err:
            create_instance("", f1)
        assert err.value.code == "invalid-id"

    @pytest.mark.parametrize("bad", ["../escaped", "a/b", "/abs", "VIN 1"])
    def test_path_like_id(self, f1, bad):
        with pytest.raises(BiPanError) as err:
            create_instance(bad, f1)
        assert err.value.code == "invalid-id"


class TestSetHealth:
    def test_updates_and_logs(self, f1):
        twin = set_health(create_instance("VIN-001", f1), "mod8", Health.BROKEN, T0)
        assert twin.health["mod8"] is Health.BROKEN
        assert len(twin.events) == 1
        event = twin.events[0]
        assert event.kind == "health-update"
        assert event.payload == {"component": "mod8", "health": "Broken"}
        assert event.timestamp == T0

    def test_same_value_still_appends(self, f1):
        twin = set_health(create_instance("V", f1), "mod8", Health.BROKEN, T0)
        twin = set_health(twin, "mod8", Health.BROKEN, T1)
        assert len(twin.events) == 2

    def test_stage_is_not_a_component(self, f1):
        with pytest.raises(BiPanError) as err:
            set_health(create_instance("V", f1), "stage2", Health.BROKEN, T0)
        assert err.value.code == "unknown-component"

    def test_time_regression(self, f1):
        twin = set_health(create_instance("V", f1), "mod8", Health.BROKEN, T1)
        with pytest.raises(BiPanError) as err:
            set_health(twin, "mod7", Health.DEGRADED, T0)
        assert err.value.code == "time-regression"

    def test_equal_timestamp_allowed(self, f1):
        twin = set_health(create_instance("V", f1), "mod8", Health.BROKEN, T0)
        twin = set_health(twin, "mod7", Health.OK, T0)
        assert len(twin.events) == 2

    def test_timestamp_must_be_utc_iso(self, f1):
        twin = create_instance("V", f1)
        for bad in ("yesterday", "2024-05-01T10:00:00", "2024-05-01T10:00:00+02:00"):
            with pytest.raises(BiPanError) as err:
                set_health(twin, "mod8", Health.BROKEN, bad)
            assert err.value.code == "invalid-timestamp"
        assert parse_timestamp(T2).hour == 9

    def test_a_timestamp_that_is_no_string_is_a_parse_error(self):
        for bad in (5, None, b"2024-05-01T10:00:00Z", ["Z"]):
            with pytest.raises(BiPanError) as err:
                pdt.Event(bad, "k")
            assert (err.value.code, err.value.detail) == (
                "parse-error", f"not an ISO-8601 timestamp: {bad!r}")

    def test_each_timestamp_is_parsed_once(self, f1, monkeypatch):
        parsed = []
        real = pdt.parse_timestamp
        monkeypatch.setattr(pdt, "parse_timestamp", lambda value: parsed.append(value) or real(value))
        twin = create_instance("V", f1)
        for minute in range(40):
            twin = set_health(twin, "mod8", Health.OK, f"2024-05-01T10:{minute:02d}:00Z")
        assert len(parsed) == 40
        io.load_instance(io.save_instance(twin))
        assert len(parsed) == 80


def _normalize_then_parse(value: str):
    """The timestamp rule as first written: the oracle of the fast UTC check."""
    text = value[:-1] + "+00:00" if value.endswith("Z") else value
    try:
        parsed = datetime.fromisoformat(text)
    except ValueError:
        return "invalid-timestamp", f"not an ISO-8601 timestamp: {value!r}"
    if parsed.tzinfo is None or parsed.utcoffset() != timezone.utc.utcoffset(None):
        return "invalid-timestamp", f"timestamp must be UTC: {value!r}"
    return parsed


def _parsed(value: str):
    try:
        return parse_timestamp(value)
    except BiPanError as exc:
        return exc.code, exc.detail


OFFSETS = [
    "", "Z", "z", "+00:00", "-00:00", "+0000", "+00", "+00:00:00", "+00:00:00.000001",
    "+00:00Z", "Z+00:00", "ZZ", "+02:00", "-05:30", "+23:59", "+00:00:01", "+24:00", " Z",
]


@st.composite
def timestamps(draw) -> str:
    """ISO-8601-like strings: a date, maybe a time with seconds and fraction, maybe an offset."""
    text = draw(st.dates()).isoformat()
    if draw(st.booleans()):
        text += draw(st.sampled_from("T t")) + draw(st.times()).isoformat(
            draw(st.sampled_from(["hours", "minutes", "seconds", "milliseconds", "microseconds"]))
        )
    return text + draw(st.sampled_from(OFFSETS))


class TestTimestampRule:
    """``parse_timestamp`` checks UTC by identity with the ``timezone.utc``
    singleton; it must keep the old rule, which compared offsets.
    """

    @settings(max_examples=400)
    @given(timestamps() | st.sampled_from(["Z", "z", "", "T", "2024-05-01TZ"]) | st.text())
    def test_matches_normalize_then_parse(self, value):
        ours, oracle = _parsed(value), _normalize_then_parse(value)
        assert ours == oracle
        if isinstance(oracle, datetime):
            assert (ours.isoformat(), ours.utcoffset()) == (oracle.isoformat(), oracle.utcoffset())


class TestPlanRepair:
    def test_delegates_to_planner(self, f1):
        twin = set_health(create_instance("V", f1), "mod8", Health.BROKEN, T0)
        twin, plan = plan_repair_for(twin, f1, {"mod8": "mod8r"}, T1)
        assert plan == repair_plan(f1, ["mod8"], {"mod8": "mod8r"})
        assert twin.events[-1].kind == "plan-created"
        assert twin.events[-1].payload["broken"] == "mod8"
        assert twin.events[-1].payload["steps"] == "7"

    def test_combines_all_broken(self, f1):
        twin = set_health(create_instance("V", f1), "mod2", Health.BROKEN, T0)
        twin = set_health(twin, "blanket", Health.BROKEN, T0)
        replacements = {"mod2": "mod2r", "blanket": "blanketr"}
        _, plan = plan_repair_for(twin, f1, replacements, T1)
        assert plan == repair_plan(f1, ["blanket", "mod2"], replacements)

    def test_untracked_replacement_is_unknown_component(self, f1):
        twin = set_health(create_instance("V", f1), "mod8", Health.BROKEN, T0)
        for untracked in ("zzz", "stage2"):
            with pytest.raises(BiPanError) as err:
                plan_repair_for(twin, f1, {"mod8": "mod8r", untracked: "n"}, T1)
            assert err.value.code == "unknown-component"
            assert untracked in err.value.detail

    def test_nothing_broken(self, f1):
        twin = set_health(create_instance("V", f1), "mod8", Health.DEGRADED, T0)
        with pytest.raises(BiPanError) as err:
            plan_repair_for(twin, f1, {}, T1)
        assert err.value.code == "nothing-broken"

    def test_digest_mismatch(self, f1):
        from bipan.model import replace

        twin = set_health(create_instance("V", f1), "mod8", Health.BROKEN, T0)
        other = replace(f1, id="other-model")
        with pytest.raises(BiPanError) as err:
            plan_repair_for(twin, other, {"mod8": "mod8r"}, T1)
        assert err.value.code == "digest-mismatch"


class TestPersistence:
    def test_round_trip_is_byte_identical(self, f1, tmp_path):
        twin = set_health(create_instance("VIN-001", f1), "mod8", Health.BROKEN, T0)
        path = io.write_instance_file(twin, tmp_path)
        assert path.name == "VIN-001.pdt.json"
        data = path.read_bytes()
        loaded = io.read_instance_file(tmp_path, "VIN-001")
        assert loaded == twin
        io.write_instance_file(loaded, tmp_path)
        assert path.read_bytes() == data

    def test_no_temp_files_left(self, f1, tmp_path):
        io.write_instance_file(create_instance("VIN-002", f1), tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == ["VIN-002.pdt.json"]

    def test_write_syncs_the_file_then_renames_then_syncs_the_directory(
        self, f1, tmp_path, monkeypatch
    ):
        import os
        import stat

        calls = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            calls.append("fsync directory" if stat.S_ISDIR(os.fstat(fd).st_mode) else "fsync file")
            real_fsync(fd)

        def replace(source, target):
            calls.append("replace")
            real_replace(source, target)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        path = io.write_instance_file(create_instance("VIN-006", f1), tmp_path)
        assert calls == ["fsync file", "replace", "fsync directory"]
        assert io.read_instance_file(tmp_path, "VIN-006") == io.load_instance(path.read_bytes())

    def test_stored_id_is_checked_on_load(self, f1):
        doc = json.loads(io.save_instance(create_instance("VIN-001", f1)))
        doc["instance_id"] = "../escaped"
        with pytest.raises(BiPanError) as err:
            io.load_instance(json.dumps(doc).encode())
        assert err.value.code == "invalid-id"

    def test_missing_instance(self, tmp_path):
        with pytest.raises(BiPanError) as err:
            io.read_instance_file(tmp_path, "nope")
        assert err.value.code == "unreadable"

    def test_decreasing_log_rejected_on_load(self, f1, tmp_path):
        twin = set_health(create_instance("VIN-003", f1), "mod8", Health.BROKEN, T0)
        twin = set_health(twin, "mod7", Health.OK, T1)
        data = io.save_instance(twin).decode("utf-8").replace(
            f'"timestamp": "{T1}"', '"timestamp": "2024-04-30T08:00:00Z"'
        )
        with pytest.raises(BiPanError) as err:
            io.load_instance(data.encode("utf-8"))
        assert err.value.code == "time-regression"


#: A few instants, each written both ways: equal instants, differently spelled, are no decrease.
INSTANTS = ["2024-05-01T09:59:59.999999", "2024-05-01T10:00:00", "2024-05-01T10:00:00.500000",
            "2024-05-02T00:00:00"]
STAMPS = {f"{instant}{offset}": rank for rank, instant in enumerate(INSTANTS)
          for offset in ("Z", "+00:00")}


def _first_decrease(stamps: list[str]) -> str | None:
    """The oracle: the timestamp of the first event earlier than the one before it."""
    for i in range(1, len(stamps)):
        if STAMPS[stamps[i]] < STAMPS[stamps[i - 1]]:
            return stamps[i]
    return None


class TestLogOrder:
    @settings(max_examples=300)
    @given(st.lists(st.sampled_from(sorted(STAMPS)), max_size=60))
    def test_time_regression_names_the_first_decrease(self, stamps):
        """Built in Python or loaded from a document, a log is refused exactly when some event
        is earlier than the one before it, and the first such event is named."""
        rows = [{"kind": "note", "payload": {}, "timestamp": stamp} for stamp in stamps]
        doc = {"events": rows, "health": {}, "instance_id": "V", "model_digest": "d",
               "model_id": "m"}
        expected = _first_decrease(stamps)
        for build in (lambda: pdt.PdtInstance("V", "m", "d", {}, [pdt.Event(s, "note")
                                                                   for s in stamps]),
                      lambda: io.load_instance(json.dumps(doc).encode())):
            if expected is None:
                assert [event.timestamp for event in build().events] == stamps
                continue
            with pytest.raises(BiPanError) as err:
                build()
            assert (err.value.code, err.value.detail) == (
                "time-regression", f"event log timestamps decrease at {expected!r}")


class TestTwinIsAValue:
    def test_equal_twins_and_events_hash_equal(self, f1):
        twin = set_health(create_instance("VIN-004", f1), "mod8", Health.BROKEN, T0)
        again = set_health(create_instance("VIN-004", f1), "mod8", Health.BROKEN, T0)
        assert hash(twin) == hash(again)
        assert hash(twin.events[0]) == hash(again.events[0])
        assert len({twin, again}) == 1

    def test_health_and_payload_are_read_only(self, f1):
        twin = set_health(create_instance("VIN-004", f1), "mod8", Health.BROKEN, T0)
        with pytest.raises(TypeError):
            twin.health["mod7"] = Health.BROKEN
        with pytest.raises(TypeError):
            twin.events[0].payload["component"] = "mod7"
        assert twin.broken_components() == ("mod8",)

    def test_constructor_copies_its_mappings(self):
        health, payload = {"a": Health.OK}, {"k": "v"}
        event = pdt.Event(T0, "note", payload)
        twin = pdt.PdtInstance("VIN-5", "m", "d", health, (event,))
        health["a"], payload["k"] = Health.BROKEN, "w"
        assert twin.health == {"a": Health.OK} and event.payload == {"k": "v"}

    def test_a_health_value_that_is_no_health_is_a_parse_error(self):
        with pytest.raises(BiPanError) as err:
            pdt.PdtInstance("V", "m", "d", {"a": Health.OK, "b": "Ok"})
        assert (err.value.code, err.value.detail) == (
            "parse-error", "component 'b': health 'Ok' is not a Health")

    # A twin record refuses a value ``canon.twin_bytes`` could not write, with the code a
    # document holding it would give.
    def test_set_health_with_a_value_that_is_no_health_is_a_parse_error(self, f1):
        twin = create_instance("VIN-004", f1)
        with pytest.raises(BiPanError) as err:
            set_health(twin, "mod8", "Ok", T0)
        assert (err.value.code, err.value.detail) == (
            "parse-error", "component 'mod8': health 'Ok' is not a Health")

    def test_a_component_id_that_is_no_string_is_a_parse_error(self):
        with pytest.raises(BiPanError) as err:
            pdt.PdtInstance("V", "m", "d", {"a": Health.OK, 5: Health.OK})
        assert err.value.code == "parse-error"
        assert err.value.detail.startswith("node id 5 ")

    @pytest.mark.parametrize("model_id,digest,name", [
        (7, "d", "model_id"), ("m", None, "model_digest"), (b"m", b"d", "model_id"),
    ])
    def test_a_model_id_or_digest_that_is_no_string_is_a_parse_error(self, model_id, digest,
                                                                      name):
        with pytest.raises(BiPanError) as err:
            pdt.PdtInstance("V", model_id, digest, {})
        assert (err.value.code, err.value.detail) == ("parse-error", f"{name} must be a string")

    def test_an_event_kind_that_is_no_string_is_a_parse_error(self):
        with pytest.raises(BiPanError) as err:
            pdt.Event(T0, 5)
        assert (err.value.code, err.value.detail) == ("parse-error", "event kind 5 is not a string")

    def test_pickles_and_copies(self, f1):
        import copy
        import pickle

        twin = set_health(create_instance("VIN-004", f1), "mod8", Health.BROKEN, T0)
        assert pickle.loads(pickle.dumps(twin)) == twin
        assert copy.deepcopy(twin) == twin
        assert pickle.loads(pickle.dumps(twin.events[0])).when == twin.events[0].when
