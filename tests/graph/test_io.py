"""Unit tests for trace readers/writers."""

import io

import pytest

from repro.errors import TraceFormatError
from repro.graph.builder import Interaction
from repro.graph.digraph import VertexKind
from repro.graph.io import (
    format_interaction,
    parse_interaction,
    read_trace,
    write_trace,
)


def sample_interactions():
    return [
        Interaction(timestamp=1.0, src=1, dst=2, tx_id=10),
        Interaction(
            timestamp=2.5, src=2, dst=3, tx_id=11,
            src_kind=VertexKind.CONTRACT, dst_kind=VertexKind.ACCOUNT,
        ),
    ]


class TestFormatParse:
    def test_round_trip_line(self):
        it = sample_interactions()[1]
        assert parse_interaction(format_interaction(it)) == it

    def test_format_fields(self):
        line = format_interaction(sample_interactions()[0])
        assert line.split() == ["1.0", "10", "1", "A", "2", "A"]

    def test_format_full_precision(self):
        """Timestamps serialize with repr precision: a value with
        sub-millisecond structure round-trips bit-identically."""
        it = Interaction(timestamp=1.0000001234567891, src=1, dst=2, tx_id=0)
        back = parse_interaction(format_interaction(it))
        assert back.timestamp == it.timestamp  # exact, not %.3f-rounded

    def test_parse_wrong_field_count(self):
        with pytest.raises(TraceFormatError, match="expected 6 fields"):
            parse_interaction("1.0 2 3", lineno=4)

    def test_parse_bad_number(self):
        with pytest.raises(TraceFormatError, match="bad numeric"):
            parse_interaction("x 1 2 A 3 A")

    @pytest.mark.parametrize("bad_ts", ["nan", "inf", "-inf", "Infinity"])
    def test_parse_non_finite_timestamp_rejected(self, bad_ts):
        """nan/inf parse as floats but would break the log's
        time-ordering guard downstream with a confusing error."""
        with pytest.raises(TraceFormatError, match="non-finite timestamp") as e:
            parse_interaction(f"{bad_ts} 1 2 A 3 A", lineno=7)
        assert "line 7" in str(e.value)

    def test_parse_bad_kind(self):
        with pytest.raises(TraceFormatError, match="A or C"):
            parse_interaction("1.0 1 2 Z 3 A")


class TestFileRoundTrip:
    def test_stream_round_trip(self):
        buf = io.StringIO()
        n = write_trace(sample_interactions(), buf)
        assert n == 2
        buf.seek(0)
        back = list(read_trace(buf))
        assert back == sample_interactions()

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "trace.txt"
        write_trace(sample_interactions(), str(path))
        assert list(read_trace(str(path))) == sample_interactions()

    def test_gzip_round_trip(self, tmp_path):
        path = tmp_path / "trace.txt.gz"
        write_trace(sample_interactions(), str(path))
        # file must actually be gzip-compressed
        with open(path, "rb") as f:
            assert f.read(2) == b"\x1f\x8b"
        assert list(read_trace(str(path))) == sample_interactions()

    def test_comments_and_blanks_skipped(self):
        buf = io.StringIO("# header\n\n1.0 5 1 A 2 C\n")
        got = list(read_trace(buf))
        assert len(got) == 1
        assert got[0].dst_kind is VertexKind.CONTRACT

    def test_reader_is_lazy(self):
        buf = io.StringIO("1.0 1 1 A 2 A\nbroken line\n")
        it = read_trace(buf)
        assert next(it).src == 1
        with pytest.raises(TraceFormatError):
            next(it)


def test_workload_trace_round_trip(tiny_workload, tmp_path):
    """The full synthetic history survives serialisation bit-identically
    (repr-precision timestamps; ids/kinds exact)."""
    path = tmp_path / "full.txt"
    log = tiny_workload.log
    write_trace(log, str(path))
    back = list(read_trace(str(path)))
    assert back == list(log)


class TestContentSniffedCompression:
    def test_gzipped_trace_without_gz_suffix_reads(self, tmp_path):
        """Compression is sniffed from the magic, not the extension."""
        import shutil

        proper = tmp_path / "t.txt.gz"
        write_trace(sample_interactions(), str(proper))
        misnamed = tmp_path / "t.dat"
        shutil.copy(proper, misnamed)
        assert list(read_trace(str(misnamed))) == sample_interactions()

    def test_binary_junk_raises_trace_format_error(self, tmp_path):
        """Non-utf-8 bytes surface as TraceFormatError, never a raw
        UnicodeDecodeError (the CLIs only catch the former)."""
        junk = tmp_path / "junk.txt"
        junk.write_bytes(bytes(range(128, 256)) * 8)
        with pytest.raises(TraceFormatError, match="invalid utf-8"):
            list(read_trace(str(junk)))
