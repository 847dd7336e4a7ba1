"""Tests for the textual region format (printer + parser round trip)."""

from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParseError
from repro.ir import MAX_LATENCY, format_region, format_schedule, parse_region
from repro.ir.builder import figure1_region
from repro.schedule import Schedule

from conftest import regions
from strategies import non_ssa_regions


class TestFormatRegion:
    def test_contains_header_and_end(self, fig1_region):
        text = format_region(fig1_region)
        assert text.startswith("region figure1\n")
        assert text.rstrip().endswith("end")

    def test_live_out_line(self, fig1_region):
        assert "live_out: v7" in format_region(fig1_region)

    def test_labels_preserved(self, fig1_region):
        text = format_region(fig1_region)
        assert "A: op3 defs(v1)" in text  # lat 3 is op3's default, not printed
        assert "D: op1 defs(v4) lat=4" in text  # overridden latency is printed


class TestParseRegion:
    def test_roundtrip_figure1(self, fig1_region):
        assert parse_region(format_region(fig1_region)) == fig1_region

    def test_comments_and_blanks_ignored(self):
        text = """
        region t
        # a comment
        a: op1 defs(v0)   # trailing comment

        end
        """
        region = parse_region(text)
        assert region.size == 1
        assert region[0].name == "a"

    def test_generic_labels_not_kept_as_names(self):
        region = parse_region("region t\ni0: op1 defs(v0)\nend\n")
        assert region[0].name == ""
        assert region[0].label == "i0"

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "region t\nend",  # no instructions
            "x: op1\nend",  # missing header
            "region t\na: op1",  # missing end
            "region t\na: op1\nend\nmore",  # trailing content
            "region t\na: nosuchop defs(v0)\nend",
            "region t\na: op1 defs(zz)\nend",
            "region \nend",
            # Latencies past MAX_LATENCY once overflowed the int32 device
            # image or exhausted memory in the verifier's per-cycle arrays.
            "region t\na: op1 defs(v0) lat=%d\nend" % (MAX_LATENCY + 1),
            "region t\na: op1 defs(v0)\nb: op1 uses(v0) lat=3000000000\nend",
            "region t\na: op1 defs(v0) lat=100000000000000000000\nend",
            # A region-level defect (found by the fuzz test below) once
            # escaped as a bare IRError.
            "region t\nlive_out: v1\na: op1 defs(v0)\nend",
        ],
    )
    def test_errors(self, text):
        with pytest.raises(ParseError):
            parse_region(text)

    def test_error_carries_line_number(self):
        try:
            parse_region("region t\n???\nend\n")
        except ParseError as exc:
            assert exc.line == 2
        else:
            pytest.fail("expected ParseError")

    def test_latency_bound_carries_line_number(self):
        text = "region t\na: op1 defs(v0)\nb: op1 uses(v0) lat=3000000000\nend\n"
        with pytest.raises(ParseError) as info:
            parse_region(text)
        assert info.value.line == 3
        assert str(MAX_LATENCY) in str(info.value)
        limit = "region t\na: op1 defs(v0)\nb: op1 uses(v0) lat=%d\nend\n" % MAX_LATENCY
        assert parse_region(limit)[1].latency == MAX_LATENCY

    def test_live_in_parsed(self):
        text = "region t\nlive_in: s4\na: op1 defs(v0) uses(s4)\nend\n"
        region = parse_region(text)
        assert str(sorted(region.live_in)[0]) == "s4"

    @given(regions(max_size=25))
    @settings(max_examples=40)
    def test_roundtrip_property(self, region):
        assert parse_region(format_region(region)) == region


#: Any valid region the strategies generate, SSA-ish or not (the latter
#: print explicit live-in lines and redefine registers).
any_region = st.one_of(regions(max_size=25), non_ssa_regions())

#: Characters that mean something to the grammar, plus anything at all.
_fuzz_char = st.one_of(st.sampled_from(list("(),:=#\n \tvsil0123456789-_")), st.characters())

#: One edit of the printed text: delete, insert or duplicate a character at
#: a position (taken modulo the text's length when applied).
_edit = st.tuples(
    st.sampled_from(("delete", "insert", "duplicate")), st.integers(min_value=0), _fuzz_char
)


def _apply(text, edits):
    for kind, position, char in edits:
        position %= len(text) + 1
        if kind == "insert":
            text = text[:position] + char + text[position:]
        elif kind == "duplicate":
            text = text[:position] + text[position:position + 1] + text[position:]
        else:
            text = text[:position] + text[position + 1:]
    return text


class TestParserFuzz:
    """Malformed text fails with a typed error; valid text round-trips."""

    @given(any_region, st.lists(_edit, min_size=1, max_size=6))
    # A generous deadline: a hang fails the test, a slow machine does not.
    @settings(max_examples=200, deadline=timedelta(seconds=5))
    def test_mutated_text_parses_or_raises_parse_error(self, region, edits):
        text = _apply(format_region(region), edits)
        try:
            parsed = parse_region(text)
        except ParseError:
            return
        # Whatever parses is a region that prints and parses back to itself.
        assert parse_region(format_region(parsed)) == parsed

    @given(any_region)
    @settings(max_examples=60, deadline=None)
    def test_valid_text_round_trips(self, region):
        text = format_region(region)
        parsed = parse_region(text)
        assert parsed == region
        assert format_region(parsed) == text

    @given(any_region)
    @settings(max_examples=60, deadline=None)
    def test_one_object_per_register_text(self, region):
        parsed = parse_region(format_region(region))
        seen = {}
        occurrences = [reg for inst in parsed for reg in inst.defs + inst.uses]
        occurrences += list(parsed.live_in) + list(parsed.live_out)
        for reg in occurrences:
            assert seen.setdefault(str(reg), reg) is reg


class TestFormatSchedule:
    def test_shows_stalls(self, fig1_region):
        # A at 0, B at 1, rest packed late with a gap at cycle 2.
        schedule = Schedule(fig1_region, [0, 1, 3, 4, 5, 9, 10])
        text = format_schedule(schedule)
        assert "cycle   2: Stall" in text
        assert "length 11" in text

    def test_lists_instruction_labels(self, fig1_region):
        schedule = Schedule.from_order(fig1_region, [0, 1, 2, 3, 4, 5, 6])
        text = format_schedule(schedule)
        assert "cycle   0: A" in text
        assert "cycle   6: G" in text
