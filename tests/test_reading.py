import copy
import pickle

import pytest

from iotra.reading import ChannelKey


def test_equal_keys_built_apart_compare_and_hash_equal():
    a, b = ChannelKey("n-000001", "temp"), ChannelKey.parse("n-000001/temp")
    assert a == b and a is not b
    assert hash(a) == hash(b) == hash(("n-000001", "temp"))
    assert {a: 1}[b] == 1
    assert a != ChannelKey("n-000001", "humidity")
    # a key is its plain tuple, so the two kinds meet as one dict key
    assert a == ("n-000001", "temp") and len({a, ("n-000001", "temp")}) == 1


@pytest.mark.parametrize("node, sensor, message", [
    ("N-1", "temp", "bad node id: 'N-1'"),
    ("", "temp", "bad node id: ''"),
    ("n-1", "Temp", "bad sensor name: 'Temp'"),
    ("n-1", "1temp", "bad sensor name: '1temp'"),
])
def test_a_bad_key_is_refused(node, sensor, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        ChannelKey(node, sensor)
    with pytest.raises(ValueError, match=f"^{message}$"):
        ChannelKey.parse(f"{node}/{sensor}")


def test_parse_needs_a_slash():
    with pytest.raises(ValueError, match="channel key needs node/sensor: 'temp'"):
        ChannelKey.parse("temp")


def test_text_forms():
    key = ChannelKey(node_id="150a3c6e-bef0e", sensor_name="temp")
    assert str(key) == "150a3c6e-bef0e/temp"
    assert ChannelKey.parse(str(key)) == key
    assert repr(key) == "ChannelKey(node_id='150a3c6e-bef0e', sensor_name='temp')"
    assert (key.node_id, key.sensor_name) == ("150a3c6e-bef0e", "temp")


def test_a_key_is_immutable():
    key = ChannelKey("n-1", "temp")
    with pytest.raises(AttributeError):
        key.node_id = "n-2"
    with pytest.raises(AttributeError):
        key.extra = 1
    assert key == ChannelKey("n-1", "temp")


@pytest.mark.parametrize("clone", [
    copy.copy, copy.deepcopy,
    *(lambda k, p=p: pickle.loads(pickle.dumps(k, protocol=p))
      for p in range(pickle.HIGHEST_PROTOCOL + 1)),
])
def test_copy_and_pickle_round_trip(clone):
    key = ChannelKey("n-1", "temp")
    out = clone(key)
    assert out == key and type(out) is ChannelKey and str(out) == "n-1/temp"
