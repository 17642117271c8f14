import re
from datetime import datetime, timezone

import pytest
from hypothesis import example, given, strategies as st

from iotra.timeutil import BadTimestamp, VirtualClock, format_ts, parse_ts


def test_parse_whole_second():
    assert parse_ts("2020-07-15T14:50:07Z") == 1594824607.0


def test_parse_with_millis():
    assert parse_ts("2020-07-15T14:50:07.250Z") == 1594824607.25


def test_format_whole_second():
    assert format_ts(1594824607.0) == "2020-07-15T14:50:07Z"


def test_format_millis():
    assert format_ts(1594824607.25) == "2020-07-15T14:50:07.250Z"


@pytest.mark.parametrize(
    "bad",
    ["2020-07-15 14:50:07Z", "2020-07-15T14:50:07", "2020-07-15T14:50:07+02:00",
     "not a time", "2020-13-01T00:00:00Z",
     # "$" matched before a final newline, and "\d" matched any Unicode digit
     "2020-07-15T14:50:07Z\n", "2020-07-15T14:50:0\u0667Z", "2020-07-15T14:50:07.2\u0665Z"],
)
def test_parse_rejects_non_rfc3339_utc(bad):
    with pytest.raises(BadTimestamp):
        parse_ts(bad)


@given(st.integers(min_value=0, max_value=4_000_000_000_000))
def test_round_trip_millisecond_aligned(ms):
    epoch = ms / 1000.0
    assert parse_ts(format_ts(epoch)) == pytest.approx(epoch, abs=0)


def test_format_parse_canonical_text():
    for text in ("1999-12-31T23:59:59Z", "2024-02-29T00:00:00.001Z"):
        assert format_ts(parse_ts(text)) == text


# -- differential test ---------------------------------------------------
# The references build a datetime on every call: the plain implementation
# that the memoised one must match, value for value and error for error.

_REF_RE = re.compile(
    r"([0-9]{4})-([0-9]{2})-([0-9]{2})T([0-9]{2}):([0-9]{2}):([0-9]{2})(\.[0-9]+)?Z")


def ref_parse_ts(text):
    m = _REF_RE.fullmatch(text)
    if not m:
        raise BadTimestamp(f"not an RFC3339 UTC timestamp: {text!r}")
    y, mo, d, h, mi, s = (int(g) for g in m.groups()[:6])
    frac = m.group(7)
    try:
        dt = datetime(y, mo, d, h, mi, s, tzinfo=timezone.utc)
    except ValueError as exc:
        raise BadTimestamp(str(exc)) from None
    epoch = dt.timestamp()
    if frac:
        epoch += float(frac)
    return round(epoch * 1000) / 1000.0


def ref_format_ts(epoch):
    ms = round(epoch * 1000)
    secs, rem = divmod(ms, 1000)
    dt = datetime.fromtimestamp(secs, tz=timezone.utc)
    # RFC 3339 years have four digits; strftime("%Y") does not pad on glibc
    base = f"{dt.year:04d}" + dt.strftime("-%m-%dT%H:%M:%S")
    if rem:
        return f"{base}.{rem:03d}Z"
    return base + "Z"


def outcome(fn, arg):
    """The value, or the exception type and message."""
    try:
        return ("ok", fn(arg))
    except (ValueError, OverflowError, OSError) as exc:
        return (type(exc), str(exc))


_MIN_S = -62_135_596_800  # 0001-01-01T00:00:00Z
_MAX_S = 253_402_300_799  # 9999-12-31T23:59:59Z


@given(st.one_of(
    st.integers(min_value=_MIN_S * 1000, max_value=_MAX_S * 1000 + 999).map(
        lambda ms: ms / 1000.0),
    st.floats(min_value=_MIN_S - 10**6, max_value=_MAX_S + 10**6),
    st.integers(min_value=-(10**20), max_value=10**20),
))
@example(-0.0005)
@example(-1.0)
@example(951_782_400.0)  # 2000-02-29
@example(float(_MAX_S) + 0.999)
@example(float(_MAX_S) + 1.0)
@example(float(_MIN_S) - 0.001)
@example(-9_223_372_036_854_720_001)  # below time_t: datetime raises OSError
def test_format_ts_matches_datetime(epoch):
    """Inside years 1..9999 format_ts gives the reference's text; outside
    them it raises BadTimestamp, whichever error datetime would raise."""
    if _MIN_S <= round(epoch * 1000) // 1000 <= _MAX_S:
        assert outcome(format_ts, epoch) == outcome(ref_format_ts, epoch)
    else:
        with pytest.raises(BadTimestamp, match="outside years 1..9999"):
            format_ts(epoch)


def test_every_year_round_trips():
    # years before 1000 used to format unpadded ("933-10-11T..."), which
    # parse_ts rejected
    assert format_ts(-32_700_000_000.0) == "0933-10-11T18:40:00Z"
    for year in range(1, 10000):
        for dt in (datetime(year, 1, 1, tzinfo=timezone.utc),
                   datetime(year, 12, 31, 23, 59, 59, 999000, tzinfo=timezone.utc)):
            epoch = round(dt.timestamp() * 1000) / 1000.0
            text = format_ts(epoch)
            assert text[:5] == f"{year:04d}-"
            assert parse_ts(text) == epoch


@given(st.integers(min_value=_MIN_S * 1000, max_value=_MAX_S * 1000 + 999))
def test_round_trip_years_1_to_9999(ms):
    epoch = ms / 1000.0
    assert parse_ts(format_ts(epoch)) == epoch


@st.composite
def rfc3339_shaped(draw):
    y, mo, d = draw(st.integers(0, 9999)), draw(st.integers(0, 19)), draw(st.integers(0, 39))
    h, mi, s = draw(st.integers(0, 29)), draw(st.integers(0, 69)), draw(st.integers(0, 69))
    frac = draw(st.one_of(st.just(""), st.from_regex(r"\A\.[0-9]{1,7}\Z")))
    return f"{y:04d}-{mo:02d}-{d:02d}T{h:02d}:{mi:02d}:{s:02d}{frac}Z"


@given(st.one_of(rfc3339_shaped(), st.from_regex(_REF_RE, fullmatch=True), st.text(max_size=30)))
@example("2020-07-15T24:00:00Z")
@example("2020-07-15T23:60:00Z")
@example("2020-07-15T23:59:60Z")
@example("2021-02-30T00:00:00Z")
@example("0000-01-01T00:00:00Z")
@example("2024-02-29T12:00:00.5Z")
@example("1900-02-29T00:00:00Z")
@example("1969-12-31T23:59:59.999Z")
@example("9999-12-31T23:59:59.9999Z")
@example("2020-13-40T25:61:61Z")
@example("2020-07-15T14:50:07Z\n")
@example("2020-07-15T14:50:0\u0667Z")
def test_parse_ts_matches_datetime(text):
    want = outcome(ref_parse_ts, text)
    assert want[0] in ("ok", BadTimestamp)
    assert outcome(parse_ts, text) == want


def test_virtual_clock_advances_deterministically():
    clock = VirtualClock()
    for _ in range(10):
        clock.advance(0.1)
    assert clock.now() == 1.0


def test_virtual_clock_rejects_negative_step():
    with pytest.raises(ValueError):
        VirtualClock().advance(-1)
