"""Trace dataset readers and writers: text v1, binary rctrace v2,
and compressed binary rctrace v3.

The paper publishes its extracted Ethereum trace "in easily
understandable format".  We mirror that with three on-disk formats over
the same logical record stream:

**Text v1** — one record per line, human-readable, the interchange
format for small traces and external tooling:

``timestamp tx_id src src_kind dst dst_kind``

* ``timestamp`` — float seconds since genesis, written with full
  ``repr`` precision so a round-trip is bit-identical;
* ``tx_id`` — integer id of the enclosing transaction;
* ``src`` / ``dst`` — integer vertex ids;
* ``src_kind`` / ``dst_kind`` — ``A`` (account) or ``C`` (contract).

Lines starting with ``#`` are comments.  Files ending in ``.gz`` are
transparently gzip-compressed.

**Binary rctrace v2** — the columnar replay format: the parallel
arrays of a :class:`~repro.graph.columnar.ColumnarLog` laid out as
fixed-width little-endian sections, so :func:`load_columnar` can
``mmap`` the file and hand zero-copy ``memoryview`` casts straight to
:meth:`ColumnarLog.from_buffers` — no parsing, no boxing, O(1) load.
The flat fixed-layout encoding follows the SSZ playbook (fixed-size
parts serialize in place; all offsets derivable from the header).
Layout::

    offset  size          field
    0       8             magic  b"RCTRACE2"
    8       4             format version (uint32, = 2)
    12      4             header size in bytes (uint32, = 64)
    16      8             row count N (uint64)
    24      8             vertex count V (uint64)
    32      8             payload length in bytes (uint64)
    40      4             crc32 of the payload (uint32)
    44      20            reserved (zero)
    64      V * 8         vertex-id table   (int64: dense index -> raw id)
    --      N * 8         timestamps        (float64)
    --      N * 8         src               (int64 dense vertex indices)
    --      N * 8         dst               (int64 dense vertex indices)
    --      N * 8         tx ids            (int64)
    --      N * 1         src kinds         (int8: 0=account, 1=contract)
    --      N * 1         dst kinds         (int8)

All multi-byte fields are little-endian.  The payload length and the
per-section lengths derived from (N, V) must agree with the file size,
and the crc32 guards corruption — every violation raises
:class:`~repro.errors.TraceFormatError` naming the offending section
or offset, never a raw ``struct``/``IndexError``.  ``.gz`` paths are
supported for v2 too (decompressed to memory; mmap needs a real file).

**Binary rctrace v3** — the *compressed* columnar format for
Ethereum-scale (>100M-row) traces: the same logical sections as v2,
but each section is individually encoded and optionally zlib-framed,
following the consensus-spec playbook of checksummed, per-section
snappy/SSZ framing.  The 64-byte header is identical to v2 except for
the magic/version bump (``b"RCTRACE3"`` / 3); it is followed by a
section table of 12-byte entries (one per section, file order)::

    offset  size   field
    0       1      encoding tag (see below)
    1       1      flags (bit 0: section payload is zlib-framed)
    2       2      reserved (zero)
    4       8      stored byte length of the section (uint64)

and then the section payloads back to back.  The header crc32 covers
the section table plus every stored section byte.  Encoding tags:

    ===  ==================  ============================================
    tag  name                meaning
    ===  ==================  ============================================
    0    raw                 fixed-width little-endian items (as v2)
    1    uvarint             one LEB128 varint per value (values >= 0)
    2    delta-zigzag        first value, then zigzag-LEB128 deltas
                             (int64 arithmetic, mod-2^64 wrap)
    3    float-bits-delta    float64 bit patterns as uint64, first
                             value then mod-2^64 deltas, LEB128
    ===  ==================  ============================================

The default writer encodes ``timestamps`` as float-bits deltas (the
column is sorted, so deltas are tiny), the vertex-id table and ``tx``
as delta-zigzag (both are near-monotone), ``src``/``dst`` as plain
varints of dense indices, and the kind columns raw; each section is
then zlib-framed iff that makes it smaller.  A v3 trace of the
synthetic workload is <= 0.6x its v2 byte size (gated by
``benchmarks/bench_trace_compress.py``).  Decoding materialises the
columns as native ``array`` objects (one streaming pass per section)
handed to :meth:`ColumnarLog.from_buffers`; uncompressed raw sections
(the kind columns) stay zero-copy views over the mmap.

:class:`ChunkedTraceWriter` writes either binary version in bounded
memory (per-chunk encodes with carried delta state, per-section spill
files) for multi-million-row exports — see
:func:`repro.ethereum.export.export_workload_trace`.

:func:`load_trace_log` sniffs the format, :func:`convert_trace`
translates between all three.  Use text for interchange and
eyeballing; binary v2 for mmap-speed local replays; binary v3 when
trace bytes dominate (storage, artifact upload, >100M rows).
"""

from __future__ import annotations

import gzip
import io
import math
import mmap
import os
import struct
import sys
import zlib
from array import array
from typing import IO, Iterable, Iterator, Optional, Sequence, Tuple, Union

from repro.errors import TraceFormatError
from repro.graph.builder import Interaction
from repro.graph.columnar import ColumnarLog, as_columnar
from repro.graph.digraph import VertexKind

_KIND_TO_CODE = {VertexKind.ACCOUNT: "A", VertexKind.CONTRACT: "C"}
_CODE_TO_KIND = {"A": VertexKind.ACCOUNT, "C": VertexKind.CONTRACT}

#: vertex kind -> byte code (enum definition order, matching ColumnarLog)
_KIND_BYTE = {k: i for i, k in enumerate(tuple(VertexKind))}

PathOrFile = Union[str, os.PathLike, IO[str]]


def _open_text(path_or_file: PathOrFile, mode: str) -> IO[str]:
    if hasattr(path_or_file, "read") or hasattr(path_or_file, "write"):
        return path_or_file  # type: ignore[return-value]
    path = os.fspath(path_or_file)  # type: ignore[arg-type]
    if "r" in mode:
        # sniff compression by content, not extension — a gzipped
        # trace without a .gz suffix must still read transparently
        with open(path, "rb") as probe:
            gzipped = probe.read(2) == b"\x1f\x8b"
    else:
        gzipped = path.endswith(".gz")
    if gzipped:
        return io.TextIOWrapper(gzip.open(path, mode + "b"), encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def format_interaction(interaction: Interaction) -> str:
    """One trace line (without newline) for an interaction.

    Timestamps are written with ``repr`` (shortest string that parses
    back to the same double), so an exported-then-reimported trace is
    bit-identical to the in-memory log — a fixed-precision format like
    ``%.3f`` would silently lose sub-millisecond structure.
    """
    return (
        f"{interaction.timestamp!r} {interaction.tx_id} "
        f"{interaction.src} {_KIND_TO_CODE[interaction.src_kind]} "
        f"{interaction.dst} {_KIND_TO_CODE[interaction.dst_kind]}"
    )


def parse_interaction(line: str, lineno: int = 0) -> Interaction:
    """Parse one trace line into an :class:`Interaction`."""
    parts = line.split()
    if len(parts) != 6:
        raise TraceFormatError(
            f"line {lineno}: expected 6 fields, got {len(parts)}: {line!r}"
        )
    ts_s, tx_s, src_s, src_k, dst_s, dst_k = parts
    try:
        ts = float(ts_s)
        tx_id = int(tx_s)
        src = int(src_s)
        dst = int(dst_s)
    except ValueError as exc:
        raise TraceFormatError(f"line {lineno}: bad numeric field: {line!r}") from exc
    if not math.isfinite(ts):
        # nan/inf parse as floats but poison the log's time-ordering
        # guard downstream with a confusing error; reject at the source
        raise TraceFormatError(
            f"line {lineno}: non-finite timestamp {ts_s!r}: {line!r}"
        )
    try:
        src_kind = _CODE_TO_KIND[src_k]
        dst_kind = _CODE_TO_KIND[dst_k]
    except KeyError as exc:
        raise TraceFormatError(
            f"line {lineno}: vertex kind must be A or C: {line!r}"
        ) from exc
    return Interaction(
        timestamp=ts, src=src, dst=dst, src_kind=src_kind, dst_kind=dst_kind, tx_id=tx_id
    )


def write_trace(interactions: Iterable[Interaction], path_or_file: PathOrFile) -> int:
    """Write interactions to a trace file; returns the record count."""
    f = _open_text(path_or_file, "w")
    should_close = f is not path_or_file
    n = 0
    try:
        f.write("# repro ethereum-style interaction trace v1\n")
        f.write("# timestamp tx_id src src_kind dst dst_kind\n")
        for it in interactions:
            f.write(format_interaction(it))
            f.write("\n")
            n += 1
    finally:
        if should_close:
            f.close()
    return n


def read_trace(path_or_file: PathOrFile) -> Iterator[Interaction]:
    """Stream interactions from a trace file (lazily).

    Gzip compression is sniffed from the content, so misnamed ``.gz``
    files read fine; bytes that are not utf-8 text at all surface as
    :class:`TraceFormatError`, never a raw ``UnicodeDecodeError``.
    """
    f = _open_text(path_or_file, "r")
    should_close = f is not path_or_file
    try:
        lines = enumerate(f, start=1)
        while True:
            try:
                lineno, raw = next(lines)
            except StopIteration:
                return
            except UnicodeDecodeError as exc:
                raise TraceFormatError(
                    f"not a text trace: invalid utf-8 near byte "
                    f"{exc.start} ({exc.reason})"
                ) from exc
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            yield parse_interaction(line, lineno)
    finally:
        if should_close:
            f.close()


# ----------------------------------------------------------------------
# binary rctrace v2 (see the module docstring for the layout)

TRACE_MAGIC = b"RCTRACE2"
TRACE_VERSION = 2

TRACE_MAGIC_V3 = b"RCTRACE3"
TRACE_VERSION_V3 = 3

#: binary versions this module reads and writes
TRACE_VERSIONS = (TRACE_VERSION, TRACE_VERSION_V3)

_MAGIC_BY_VERSION = {TRACE_VERSION: TRACE_MAGIC, TRACE_VERSION_V3: TRACE_MAGIC_V3}
_VERSION_BY_MAGIC = {m: v for v, m in _MAGIC_BY_VERSION.items()}

#: magic, version, header size, n_rows, n_vertices, payload bytes,
#: crc32, reserved — 64 bytes total, little-endian.
_HEADER = struct.Struct("<8sIIQQQI20s")
_HEADER_SIZE = _HEADER.size
assert _HEADER_SIZE == 64

#: (attribute typecode, item size) per payload section, in file order;
#: the vertex-id table precedes the row columns.
_ROW_SECTIONS: Tuple[Tuple[str, str, int], ...] = (
    ("timestamps", "d", 8),
    ("src", "q", 8),
    ("dst", "q", 8),
    ("tx", "q", 8),
    ("src_kind", "b", 1),
    ("dst_kind", "b", 1),
)

_NATIVE_LE = sys.byteorder == "little"

#: valid vertex-kind byte codes (file values; matches ColumnarLog's
#: enum-definition-order codes: 0=account, 1=contract)
_VALID_KIND_BYTES = frozenset(range(len(tuple(VertexKind))))


def _column_le_bytes(column: Sequence, typecode: str) -> bytes:
    """A column's items as packed little-endian bytes."""
    if isinstance(column, memoryview):
        # memoryview-backed columns only exist on little-endian hosts
        # (load_columnar falls back to swapped array copies elsewhere)
        return column.tobytes()
    arr = column if isinstance(column, array) else array(typecode, column)
    if not _NATIVE_LE:
        arr = array(typecode, arr)
        arr.byteswap()
    return arr.tobytes()


def _le_column(data: memoryview, typecode: str):
    """A payload slice as a native sequence of ``typecode`` items."""
    if _NATIVE_LE:
        return data.cast(typecode)
    arr = array(typecode)
    arr.frombytes(data.tobytes())
    arr.byteswap()
    return arr


def _payload_length(n_rows: int, n_vertices: int) -> int:
    return n_vertices * 8 + sum(n_rows * size for _, _, size in _ROW_SECTIONS)


# ----------------------------------------------------------------------
# rctrace v3: per-section encodings (see the module docstring)

ENC_RAW = 0            #: fixed-width little-endian items (the v2 layout)
ENC_UVARINT = 1        #: unsigned LEB128 per value
ENC_DELTA = 2          #: first value, then zigzag-LEB128 int64 deltas
ENC_FLOAT_DELTA = 3    #: float64 bit patterns, mod-2^64 delta LEB128

_ENC_NAMES = {
    ENC_RAW: "raw",
    ENC_UVARINT: "uvarint",
    ENC_DELTA: "delta-zigzag",
    ENC_FLOAT_DELTA: "float-bits-delta",
}

_FLAG_ZLIB = 0x01      #: section payload is zlib-framed
_KNOWN_FLAGS = _FLAG_ZLIB

#: encoding tag (u8), flags (u8), reserved (u16 zero), stored bytes (u64)
_SECTION_ENTRY = struct.Struct("<BBHQ")
assert _SECTION_ENTRY.size == 12

#: v3 sections in file order: (name, array typecode, item size,
#: allowed encoding tags, default encoding tag).  The vertex-id table
#: comes first, then the row columns in the v2 order.
_V3_SECTIONS: Tuple[Tuple[str, str, int, Tuple[int, ...], int], ...] = (
    ("vertex_ids", "q", 8, (ENC_RAW, ENC_UVARINT, ENC_DELTA), ENC_DELTA),
    ("timestamps", "d", 8, (ENC_RAW, ENC_FLOAT_DELTA), ENC_FLOAT_DELTA),
    ("src", "q", 8, (ENC_RAW, ENC_UVARINT, ENC_DELTA), ENC_UVARINT),
    ("dst", "q", 8, (ENC_RAW, ENC_UVARINT, ENC_DELTA), ENC_UVARINT),
    ("tx", "q", 8, (ENC_RAW, ENC_UVARINT, ENC_DELTA), ENC_DELTA),
    ("src_kind", "b", 1, (ENC_RAW,), ENC_RAW),
    ("dst_kind", "b", 1, (ENC_RAW,), ENC_RAW),
)
_V3_TABLE_SIZE = _SECTION_ENTRY.size * len(_V3_SECTIONS)

_MASK64 = (1 << 64) - 1
_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1


def _float_bits(values: Sequence[float]) -> array:
    """float64 column -> uint64 bit patterns (host-consistent)."""
    bits = array("Q")
    bits.frombytes(_column_le_bytes(values, "d"))
    if not _NATIVE_LE:
        bits.byteswap()
    return bits


def _bits_to_floats(bits: Sequence[int]) -> array:
    """uint64 bit patterns -> float64 column (inverse of _float_bits).

    Reinterprets through *host* order on both sides, so each integer
    value maps to the float with that IEEE-754 bit pattern on any
    endianness — no byteswap, unlike :func:`_float_bits`, whose input
    bytes are explicitly little-endian.
    """
    as_q = bits if isinstance(bits, array) else array("Q", bits)
    out = array("d")
    out.frombytes(as_q.tobytes())
    return out


class _SectionEncoder:
    """Stateful v3 section encoder; chunk-resumable for spill writers.

    ``feed`` may be called repeatedly with consecutive slices of the
    column; delta encodings carry their chain state across calls, so
    the concatenated output is byte-identical to one whole-column feed.
    """

    def __init__(self, name: str, typecode: str, tag: int):
        self.name = name
        self.typecode = typecode
        self.tag = tag
        self._prev: Optional[int] = None   # last value (uint64 domain)

    def feed(self, values: Sequence) -> bytes:
        tag = self.tag
        if tag == ENC_RAW:
            return _column_le_bytes(values, self.typecode)
        out = bytearray()
        emit = out.append
        if tag == ENC_UVARINT:
            for v in values:
                if not 0 <= v <= _MASK64:
                    raise ValueError(
                        f"{self.name} section: value {v} is outside the "
                        "uvarint range [0, 2^64)"
                    )
                while v >= 0x80:
                    emit((v & 0x7F) | 0x80)
                    v >>= 7
                emit(v)
            return bytes(out)
        prev = self._prev
        if tag == ENC_DELTA:
            for v in values:
                if not _INT64_MIN <= v <= _INT64_MAX:
                    raise ValueError(
                        f"{self.name} section: value {v} is outside the "
                        "int64 range"
                    )
                u = v & _MASK64
                if prev is None:
                    z = u
                else:
                    sd = (u - prev) & _MASK64
                    if sd >= 1 << 63:
                        sd -= 1 << 64
                    z = sd << 1 if sd >= 0 else (-sd << 1) - 1
                prev = u
                while z >= 0x80:
                    emit((z & 0x7F) | 0x80)
                    z >>= 7
                emit(z)
        elif tag == ENC_FLOAT_DELTA:
            for u in _float_bits(values):
                d = u if prev is None else (u - prev) & _MASK64
                prev = u
                while d >= 0x80:
                    emit((d & 0x7F) | 0x80)
                    d >>= 7
                emit(d)
        else:  # pragma: no cover - writer tags come from _V3_SECTIONS
            raise ValueError(f"unknown encoding tag {tag}")
        self._prev = prev
        return bytes(out)


def _decode_uvarints(
    data: bytes, count: int, name: str, section: str
) -> list:
    """Decode exactly ``count`` LEB128 varints covering all of ``data``.

    Every structural violation — stream ends early, a varint runs past
    64 bits, trailing bytes after the last value — raises
    :class:`TraceFormatError` naming the section, so a corrupt stream
    can neither crash nor over-read (the slice bounds it) nor hang
    (each iteration consumes at least one byte).
    """
    out = []
    append = out.append
    pos = 0
    try:
        for _ in range(count):
            b = data[pos]
            pos += 1
            if b < 0x80:
                append(b)
                continue
            result = b & 0x7F
            shift = 7
            while True:
                b = data[pos]
                pos += 1
                if b < 0x80:
                    result |= b << shift
                    break
                result |= (b & 0x7F) << shift
                shift += 7
                if shift > 63:
                    raise TraceFormatError(
                        f"{name}: varint longer than 10 bytes at byte "
                        f"{pos} of the {section} section"
                    )
            if result > _MASK64:
                raise TraceFormatError(
                    f"{name}: varint overflows 64 bits at byte {pos} "
                    f"of the {section} section"
                )
            append(result)
    except IndexError:
        raise TraceFormatError(
            f"{name}: {section} section truncated — varint stream ended "
            f"after {len(out)} of {count} values"
        ) from None
    if pos != len(data):
        raise TraceFormatError(
            f"{name}: {section} section has {len(data) - pos} trailing "
            f"byte(s) after {count} values"
        )
    return out


def _decode_v3_section(
    name: str,
    section: str,
    typecode: str,
    itemsize: int,
    tag: int,
    data,
    count: int,
):
    """One decoded v3 section as a native column sequence."""
    if tag == ENC_RAW:
        if len(data) != count * itemsize:
            raise TraceFormatError(
                f"{name}: {section} section holds {len(data)} bytes, "
                f"expected {count * itemsize} ({count} raw items)"
            )
        if isinstance(data, memoryview):
            return _le_column(data, typecode)
        view = memoryview(bytes(data))
        return _le_column(view, typecode)
    raw = _decode_uvarints(bytes(data), count, name, section)
    if tag == ENC_UVARINT:
        try:
            return array(typecode, raw)
        except OverflowError:
            raise TraceFormatError(
                f"{name}: {section} section holds a varint outside the "
                f"int64 range"
            ) from None
    if tag == ENC_DELTA:
        vals = []
        append = vals.append
        prev = None
        for z in raw:
            if prev is None:
                u = z
            else:
                sd = (z >> 1) ^ -(z & 1)
                u = (prev + sd) & _MASK64
            prev = u
            append(u - (1 << 64) if u >= (1 << 63) else u)
        return array(typecode, vals)
    if tag == ENC_FLOAT_DELTA:
        bits = []
        append = bits.append
        prev = None
        for d in raw:
            u = d if prev is None else (prev + d) & _MASK64
            prev = u
            append(u)
        return _bits_to_floats(bits)
    raise TraceFormatError(  # pragma: no cover - tags validated upstream
        f"{name}: unknown encoding tag {tag} in the {section} section"
    )


def _log_columns(log: ColumnarLog) -> Tuple[Sequence, ...]:
    """The seven logical sections of a log, in file order."""
    return (
        log.vertex_ids(),
        log.timestamps(),
        log.src_indices(),
        log.dst_indices(),
        log.tx_ids(),
        log.src_kind_codes(),
        log.dst_kind_codes(),
    )


def _frame_section(encoded: bytes, compress: bool) -> Tuple[int, bytes]:
    """(flags, stored bytes) for an encoded section: zlib-framed iff
    that is strictly smaller (level 6, the streaming writer's level)."""
    if compress:
        framed = zlib.compress(encoded, 6)
        if len(framed) < len(encoded):
            return _FLAG_ZLIB, framed
    return 0, encoded


def _v3_blocks(
    log: ColumnarLog, compress: bool
) -> Tuple[bytes, list]:
    """(section table bytes, stored section payloads) for a v3 write."""
    stored = []
    table = bytearray()
    for column, (name, typecode, _size, _allowed, tag) in zip(
        _log_columns(log), _V3_SECTIONS
    ):
        encoded = _SectionEncoder(name, typecode, tag).feed(column)
        flags, body = _frame_section(encoded, compress)
        table += _SECTION_ENTRY.pack(tag, flags, 0, len(body))
        stored.append(body)
    return bytes(table), stored


def write_columnar(
    log: Union[ColumnarLog, Iterable[Interaction]],
    path_or_file: Union[str, os.PathLike, IO[bytes]],
    version: int = TRACE_VERSION,
    compress: bool = True,
) -> int:
    """Write a log as a binary rctrace file; returns the row count.

    ``log`` may be a :class:`ColumnarLog` (any backing) or a plain
    interaction iterable (boxed logs are columnarised first).  ``.gz``
    paths are gzip-compressed.  ``version`` selects the layout:

    * 2 (default) — fixed-width sections; the file round-trips through
      :func:`load_columnar` bit-identically by construction (the
      sections *are* the log's arrays) and mmaps zero-copy;
    * 3 — per-section delta/varint encodings with optional zlib
      framing (``compress=True`` frames each section iff that shrinks
      it); same logical content, <= 0.6x the v2 bytes on the synthetic
      workload, decoded in one streaming pass per section on load.

    For multi-million-row exports that should never materialise the
    whole log in memory, use :class:`ChunkedTraceWriter` (its output is
    byte-identical to this function's for the same log).
    """
    if version not in _MAGIC_BY_VERSION:
        raise ValueError(
            f"unsupported rctrace version {version!r} "
            f"(supported: {sorted(_MAGIC_BY_VERSION)})"
        )
    log = as_columnar(log)

    if version == TRACE_VERSION:
        sections = [
            _column_le_bytes(col, typecode)
            for col, (_, typecode, _s, _a, _t) in zip(
                _log_columns(log), _V3_SECTIONS
            )
        ]
    else:
        table, stored = _v3_blocks(log, compress)
        sections = [table] + stored

    crc = 0
    payload_bytes = 0
    for s in sections:
        crc = zlib.crc32(s, crc)
        payload_bytes += len(s)
    header = _HEADER.pack(
        _MAGIC_BY_VERSION[version], version, _HEADER_SIZE,
        len(log), log.num_vertices, payload_bytes, crc, b"\0" * 20,
    )

    if hasattr(path_or_file, "write"):
        f: IO[bytes] = path_or_file  # type: ignore[assignment]
        should_close = False
    else:
        path = os.fspath(path_or_file)
        f = gzip.open(path, "wb") if path.endswith(".gz") else open(path, "wb")
        should_close = True
    try:
        f.write(header)
        for s in sections:
            f.write(s)
    finally:
        if should_close:
            f.close()
    return len(log)


def _parse_header(
    buf: memoryview, name: str
) -> Tuple[int, int, int, int, int, int]:
    """Validated (version, header_size, n_rows, n_vertices, payload, crc)."""
    if len(buf) < _HEADER_SIZE:
        raise TraceFormatError(
            f"{name}: not an rctrace file — {len(buf)} bytes is shorter "
            f"than the {_HEADER_SIZE}-byte header"
        )
    magic, version, header_size, n_rows, n_vertices, payload_bytes, crc, rsv = (
        _HEADER.unpack_from(buf, 0)
    )
    if magic not in _VERSION_BY_MAGIC:
        raise TraceFormatError(
            f"{name}: bad magic at offset 0: {bytes(magic)!r} "
            f"(expected {TRACE_MAGIC!r} or {TRACE_MAGIC_V3!r})"
        )
    if version != _VERSION_BY_MAGIC[magic]:
        raise TraceFormatError(
            f"{name}: unsupported rctrace version {version} at offset 8 "
            f"(magic {bytes(magic)!r} implies version "
            f"{_VERSION_BY_MAGIC[magic]}; this reader understands "
            f"{sorted(_MAGIC_BY_VERSION)})"
        )
    if header_size < _HEADER_SIZE:
        raise TraceFormatError(
            f"{name}: header size {header_size} at offset 12 is smaller "
            f"than the fixed header ({_HEADER_SIZE})"
        )
    if rsv != b"\0" * 20:
        raise TraceFormatError(
            f"{name}: reserved header bytes at offset 44 are not zero "
            "(corrupt header)"
        )
    if version == TRACE_VERSION:
        expected = _payload_length(n_rows, n_vertices)
        if payload_bytes != expected:
            raise TraceFormatError(
                f"{name}: header payload length {payload_bytes} does not "
                f"match the {expected} bytes implied by {n_rows} rows and "
                f"{n_vertices} vertices"
            )
    elif payload_bytes < _V3_TABLE_SIZE:
        raise TraceFormatError(
            f"{name}: header payload length {payload_bytes} is smaller "
            f"than the {_V3_TABLE_SIZE}-byte v3 section table"
        )
    if len(buf) - header_size != payload_bytes:
        raise TraceFormatError(
            f"{name}: truncated payload — expected {payload_bytes} bytes "
            f"after the {header_size}-byte header, found {len(buf) - header_size}"
        )
    return version, header_size, n_rows, n_vertices, payload_bytes, crc


def _decode_v3_payload(
    name: str, payload: memoryview, n_rows: int, n_vertices: int
) -> dict:
    """All seven v3 sections decoded into native column sequences."""
    entries = []
    total = 0
    for i, (secname, _tc, _sz, allowed, _dflt) in enumerate(_V3_SECTIONS):
        tag, flags, reserved, stored = _SECTION_ENTRY.unpack_from(
            payload, i * _SECTION_ENTRY.size
        )
        if tag not in allowed:
            raise TraceFormatError(
                f"{name}: encoding tag {tag} "
                f"({_ENC_NAMES.get(tag, 'unknown')}) is not valid for the "
                f"{secname} section (valid: "
                f"{[_ENC_NAMES[t] for t in allowed]})"
            )
        if flags & ~_KNOWN_FLAGS or reserved:
            raise TraceFormatError(
                f"{name}: unknown flag/reserved bits in the {secname} "
                f"section-table entry (flags=0x{flags:02x})"
            )
        entries.append((secname, tag, flags, stored))
        total += stored
    if _V3_TABLE_SIZE + total != len(payload):
        raise TraceFormatError(
            f"{name}: section table lengths sum to {total} bytes but the "
            f"payload holds {len(payload) - _V3_TABLE_SIZE} section bytes"
        )

    columns = {}
    offset = _V3_TABLE_SIZE
    for (secname, tag, flags, stored), (_n, typecode, itemsize, _a, _d) in zip(
        entries, _V3_SECTIONS
    ):
        data: Union[bytes, memoryview] = payload[offset:offset + stored]
        offset += stored
        if flags & _FLAG_ZLIB:
            count_here = n_vertices if secname == "vertex_ids" else n_rows
            # decoded size is bounded a priori (fixed width for raw,
            # <= 10 bytes per varint), so cap the inflater: a crafted
            # deflate bomb must not allocate unbounded memory before
            # the length checks run
            bound = count_here * (itemsize if tag == ENC_RAW else 10)
            inflater = zlib.decompressobj()
            try:
                data = inflater.decompress(bytes(data), bound + 1)
            except zlib.error as exc:
                raise TraceFormatError(
                    f"{name}: corrupt zlib framing in the {secname} "
                    f"section: {exc}"
                ) from exc
            if len(data) > bound:
                raise TraceFormatError(
                    f"{name}: zlib-framed {secname} section inflates "
                    f"past the {bound} bytes its {count_here} values "
                    "could occupy (corrupt or hostile stream)"
                )
            if not inflater.eof:
                raise TraceFormatError(
                    f"{name}: corrupt zlib framing in the {secname} "
                    "section: truncated stream"
                )
            if inflater.unused_data:
                raise TraceFormatError(
                    f"{name}: {len(inflater.unused_data)} trailing "
                    f"byte(s) after the zlib stream in the {secname} "
                    "section"
                )
        count = n_vertices if secname == "vertex_ids" else n_rows
        columns[secname] = _decode_v3_section(
            name, secname, typecode, itemsize, tag, data, count
        )
    return columns


def load_columnar(
    path: Union[str, os.PathLike],
    verify: bool = True,
) -> ColumnarLog:
    """Load a binary rctrace file (v2 or v3) as a :class:`ColumnarLog`.

    The file is ``mmap``-ed; for v2 the columns are zero-copy
    ``memoryview`` casts over the mapping — no rows are parsed or
    boxed, so load time is O(verification), not O(N · parse).  For v3
    the delta/varint sections are decoded in one streaming pass each
    into native ``array`` columns (uncompressed raw sections stay
    zero-copy views).  With ``verify=True`` (default) the payload crc32
    is checked and the timestamp/kind/index columns are validated
    (time-ordered and finite, kind codes in range, dense indices within
    the vertex table); ``verify=False`` skips those passes for
    maximum-speed loads of already-trusted files.

    ``.gz`` files are decompressed into memory (still unparsed) since
    a compressed stream cannot be mapped.

    Raises :class:`~repro.errors.TraceFormatError` for every malformed
    input — bad magic, version mismatch, truncated sections, corrupt
    varint streams, checksum failure — naming the file and offending
    section.
    """
    path = os.fspath(path)
    name = os.path.basename(path)
    backing: object
    with open(path, "rb") as probe:
        gzipped = probe.read(2) == b"\x1f\x8b"   # content, not extension
    if gzipped:
        try:
            with gzip.open(path, "rb") as f:
                raw = f.read()
        except (OSError, EOFError) as exc:
            raise TraceFormatError(f"{name}: corrupt gzip stream: {exc}") from exc
        buf = memoryview(raw)
        backing = raw
    else:
        f = open(path, "rb")
        try:
            try:
                mapped = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
            except (ValueError, OSError):
                # empty or unmappable file: fall back to a plain read
                f.seek(0)
                raw = f.read()
                buf = memoryview(raw)
                backing = raw
            else:
                buf = memoryview(mapped)
                backing = (mapped, buf)
        finally:
            f.close()

    version, header_size, n_rows, n_vertices, payload_bytes, crc = (
        _parse_header(buf, name)
    )
    payload = buf[header_size:]
    if verify and zlib.crc32(payload) != crc:
        raise TraceFormatError(
            f"{name}: payload checksum mismatch — stored 0x{crc:08x}, "
            f"computed 0x{zlib.crc32(payload):08x} (corrupt trace)"
        )

    if version == TRACE_VERSION:
        offset = 0
        vertex_ids = _le_column(payload[offset:offset + n_vertices * 8], "q")
        offset += n_vertices * 8
        columns = {}
        for attr, typecode, size in _ROW_SECTIONS:
            end = offset + n_rows * size
            columns[attr] = _le_column(payload[offset:end], typecode)
            offset = end
    else:
        columns = _decode_v3_payload(name, payload, n_rows, n_vertices)
        vertex_ids = columns.pop("vertex_ids")

    if verify:
        _verify_columns(name, columns, n_vertices)

    return ColumnarLog.from_buffers(
        timestamps=columns["timestamps"],
        src=columns["src"],
        dst=columns["dst"],
        tx=columns["tx"],
        src_kind=columns["src_kind"],
        dst_kind=columns["dst_kind"],
        vertex_ids=vertex_ids,
        backing=backing,
    )


def _verify_columns(name: str, columns: dict, n_vertices: int) -> None:
    """Semantic validation of loaded columns (the builder invariants)."""
    ts = columns["timestamps"]
    prev = float("-inf")
    for i in range(len(ts)):
        cur = ts[i]
        if not prev <= cur:       # also catches nan (fails every <=)
            if not math.isfinite(cur):
                raise TraceFormatError(
                    f"{name}: non-finite timestamp {cur!r} at row {i}"
                )
            raise TraceFormatError(
                f"{name}: out-of-order timestamp at row {i}: "
                f"{cur!r} < {prev!r}"
            )
        prev = cur
    # ordering makes first/last the column extremes, so ±inf (which
    # satisfies every <=) reduces to an O(1) endpoint check
    if len(ts) and not (math.isfinite(ts[0]) and math.isfinite(ts[-1])):
        row = 0 if not math.isfinite(ts[0]) else len(ts) - 1
        raise TraceFormatError(
            f"{name}: non-finite timestamp {ts[row]!r} at row {row}"
        )
    for attr in ("src_kind", "dst_kind"):
        codes = set(bytes(memoryview(columns[attr]).cast("B")))
        bad = codes - set(_VALID_KIND_BYTES)
        if bad:
            raise TraceFormatError(
                f"{name}: invalid vertex-kind code(s) {sorted(bad)} in the "
                f"{attr} section (valid: {sorted(_VALID_KIND_BYTES)})"
            )
    for attr in ("src", "dst"):
        col = columns[attr]
        if len(col) and not 0 <= min(col) <= max(col) < n_vertices:
            raise TraceFormatError(
                f"{name}: {attr} section holds a dense vertex index outside "
                f"the {n_vertices}-entry vertex table"
            )


# ----------------------------------------------------------------------
# bounded-memory chunked writer (multi-million-row exports)

_SPILL_BLOCK = 1 << 20   # streaming block size for spill/compress/copy


class ChunkedTraceWriter:
    """Stream interactions into a binary rctrace file in bounded memory.

    Append interactions one at a time (time-ordered, like
    :meth:`ColumnarLog.append`); every ``chunk_rows`` rows the column
    buffers are encoded — v3 delta chains carry their state across
    chunks — and appended to per-section spill files, so memory stays
    O(chunk + distinct vertices) instead of O(rows).  :meth:`close`
    assembles header + (v3) section table + sections, streaming each
    spill through the optional zlib frame and the crc32, and returns
    the row count.  The output is byte-identical to
    ``write_columnar(log, path, version=...)`` for the same log.

    ``.gz`` output paths are rejected — the whole point of the binary
    formats is a mappable file, and v3 already compresses per section.

    Usable as a context manager: on a clean exit the file is finalised,
    on an exception the partial spill state is discarded and no output
    file is left behind.
    """

    def __init__(
        self,
        path: Union[str, os.PathLike],
        version: int = TRACE_VERSION_V3,
        chunk_rows: int = 1 << 18,
        compress: bool = True,
    ):
        if version not in _MAGIC_BY_VERSION:
            raise ValueError(
                f"unsupported rctrace version {version!r} "
                f"(supported: {sorted(_MAGIC_BY_VERSION)})"
            )
        self._path = os.fspath(path)
        if self._path.endswith(".gz"):
            raise ValueError(
                "ChunkedTraceWriter writes mappable files only — "
                "drop the .gz suffix (v3 sections are already "
                "zlib-framed where that helps)"
            )
        if chunk_rows <= 0:
            raise ValueError("chunk_rows must be positive")
        self.version = version
        self._chunk_rows = chunk_rows
        self._compress = compress and version == TRACE_VERSION_V3
        self._rows = 0
        self._last_ts = float("-inf")
        self._vertex_index: dict = {}
        self._closed = False

        # per-chunk column buffers (vertex_ids holds only *new* ids)
        self._buffers = {
            "vertex_ids": [],
            "timestamps": array("d"),
            "src": array("q"),
            "dst": array("q"),
            "tx": array("q"),
            "src_kind": array("b"),
            "dst_kind": array("b"),
        }
        if version == TRACE_VERSION_V3:
            self._encoders = {
                name: _SectionEncoder(name, typecode, tag)
                for name, typecode, _sz, _allowed, tag in _V3_SECTIONS
            }
        else:
            self._encoders = None

        import tempfile

        self._tmpdir = tempfile.TemporaryDirectory(
            prefix=".rctrace-spill-",
            dir=os.path.dirname(self._path) or ".",
        )
        self._spills = {}
        for name, _tc, _sz, _a, _t in _V3_SECTIONS:
            spill_path = os.path.join(self._tmpdir.name, name + ".sec")
            self._spills[name] = open(spill_path, "wb")

    # ------------------------------------------------------------------

    @property
    def rows(self) -> int:
        """Rows accepted so far."""
        return self._rows

    @property
    def num_vertices(self) -> int:
        """Distinct vertices interned so far."""
        return len(self._vertex_index)

    def _intern(self, vertex: int) -> int:
        index = self._vertex_index
        idx = index.get(vertex)
        if idx is None:
            idx = len(index)
            index[vertex] = idx
            self._buffers["vertex_ids"].append(vertex)
        return idx

    def append(self, it: Interaction) -> None:
        """Append one interaction; rejects out-of-order timestamps."""
        if self._closed:
            raise ValueError("ChunkedTraceWriter is closed")
        if it.timestamp < self._last_ts:
            raise ValueError(
                f"out-of-order interaction at row {self._rows}: "
                f"timestamp {it.timestamp} < log tail {self._last_ts} "
                "(the log is append-only in time order)"
            )
        self._last_ts = it.timestamp
        b = self._buffers
        b["timestamps"].append(it.timestamp)
        b["src"].append(self._intern(it.src))
        b["dst"].append(self._intern(it.dst))
        b["tx"].append(it.tx_id)
        b["src_kind"].append(_KIND_BYTE[it.src_kind])
        b["dst_kind"].append(_KIND_BYTE[it.dst_kind])
        self._rows += 1
        if len(b["timestamps"]) >= self._chunk_rows:
            self._flush_chunk()

    def extend(self, interactions: Iterable[Interaction]) -> int:
        """Append a stream of interactions; returns how many were added."""
        n = 0
        for it in interactions:
            self.append(it)
            n += 1
        return n

    def _flush_chunk(self) -> None:
        for (name, typecode, _sz, _a, _tag) in _V3_SECTIONS:
            column = self._buffers[name]
            if not column:
                continue
            if self._encoders is not None:
                encoded = self._encoders[name].feed(column)
            else:
                encoded = _column_le_bytes(column, typecode)
            if encoded:
                self._spills[name].write(encoded)
        self._buffers["vertex_ids"] = []
        for name in ("timestamps", "src", "dst", "tx", "src_kind", "dst_kind"):
            del self._buffers[name][:]

    # ------------------------------------------------------------------

    def _finalise_section(self, name: str) -> Tuple[int, int, str]:
        """(flags, stored bytes, chosen spill path) for one section.

        When compression is on, the raw spill is streamed through a
        zlib compressor into a sibling file and the smaller of the two
        wins — mirroring :func:`_frame_section` byte for byte.
        """
        raw_path = os.path.join(self._tmpdir.name, name + ".sec")
        raw_size = os.path.getsize(raw_path)
        if not self._compress:
            return 0, raw_size, raw_path
        z_path = raw_path + ".z"
        comp = zlib.compressobj(6)
        z_size = 0
        with open(raw_path, "rb") as src, open(z_path, "wb") as dst:
            while True:
                block = src.read(_SPILL_BLOCK)
                if not block:
                    break
                out = comp.compress(block)
                if out:
                    dst.write(out)
                    z_size += len(out)
            out = comp.flush()
            dst.write(out)
            z_size += len(out)
        if z_size < raw_size:
            return _FLAG_ZLIB, z_size, z_path
        return 0, raw_size, raw_path

    def _header(self, payload_bytes: int, crc: int) -> bytes:
        return _HEADER.pack(
            _MAGIC_BY_VERSION[self.version], self.version, _HEADER_SIZE,
            self._rows, len(self._vertex_index), payload_bytes, crc,
            b"\0" * 20,
        )

    def close(self) -> int:
        """Finalise the file; returns the row count.

        Sections are streamed into a sibling temp file in one pass
        (crc computed inline, header patched in place afterwards) and
        the result is ``os.replace``-d onto the destination, so a
        failure mid-assembly — full disk, interruption — never leaves
        a truncated trace at the output path.
        """
        if self._closed:
            return self._rows
        try:
            self._flush_chunk()
            for handle in self._spills.values():
                handle.close()

            chosen = []
            table = bytearray()
            for (name, _tc, _sz, _a, tag) in _V3_SECTIONS:
                flags, stored, path = self._finalise_section(name)
                chosen.append(path)
                if self.version == TRACE_VERSION_V3:
                    table += _SECTION_ENTRY.pack(tag, flags, 0, stored)

            table_bytes = bytes(table)
            payload_bytes = len(table_bytes) + sum(
                os.path.getsize(p) for p in chosen
            )
            assembled = os.path.join(self._tmpdir.name, "assembled.rct")
            crc = zlib.crc32(table_bytes)
            with open(assembled, "wb") as out:
                out.write(self._header(payload_bytes, 0))
                out.write(table_bytes)
                for path in chosen:
                    with open(path, "rb") as f:
                        while True:
                            block = f.read(_SPILL_BLOCK)
                            if not block:
                                break
                            crc = zlib.crc32(block, crc)
                            out.write(block)
                out.seek(0)
                out.write(self._header(payload_bytes, crc))
            os.replace(assembled, self._path)
        except BaseException:
            self.abort()
            raise
        self._cleanup()
        return self._rows

    def abort(self) -> None:
        """Discard spill state without writing the output file."""
        if self._closed:
            return
        for handle in self._spills.values():
            handle.close()
        self._cleanup()

    def _cleanup(self) -> None:
        self._closed = True
        self._tmpdir.cleanup()

    def __enter__(self) -> "ChunkedTraceWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()


# ----------------------------------------------------------------------
# format sniffing and conversion

#: file extensions that default to the binary format on writes
BINARY_SUFFIXES = (".rct", ".rct.gz")


def default_trace_format(path: Union[str, os.PathLike]) -> str:
    """The output format a path's extension implies (write-side rule):
    ``.rct``/``.rct.gz`` → ``"binary"``, anything else → ``"text"``."""
    return "binary" if os.fspath(path).endswith(BINARY_SUFFIXES) else "text"


def _sniff_head(path: Union[str, os.PathLike]) -> bytes:
    """The first 8 content bytes of a trace file (through gzip)."""
    path = os.fspath(path)
    with open(path, "rb") as f:
        head = f.read(len(TRACE_MAGIC))
    if head[:2] == b"\x1f\x8b":
        try:
            with gzip.open(path, "rb") as f:
                head = f.read(len(TRACE_MAGIC))
        except (OSError, EOFError) as exc:
            raise TraceFormatError(
                f"{os.path.basename(path)}: corrupt gzip stream: {exc}"
            ) from exc
    return head


def trace_format(path: Union[str, os.PathLike]) -> str:
    """Sniff a trace file's format: ``"binary"`` or ``"text"``.

    Looks at the leading bytes (through gzip, if compressed), so it
    works regardless of file extension.  Both binary versions (rctrace
    v2 and v3) report ``"binary"``; use :func:`trace_version` when the
    version matters.
    """
    return "binary" if _sniff_head(path) in _VERSION_BY_MAGIC else "text"


def trace_version(path: Union[str, os.PathLike]) -> int:
    """Sniff a trace file's format version: 1 (text), 2 or 3 (binary)."""
    head = _sniff_head(path)
    return _VERSION_BY_MAGIC.get(head, 1)


#: leading bytes that mark a file as definitely not text v1: control
#: characters no utf-8 trace ever starts with (NUL..BS, SO..US, DEL)
_BINARY_JUNK = frozenset(range(0x09)) | frozenset(range(0x0E, 0x20)) | {0x7F}


def load_trace_log(
    path: Union[str, os.PathLike],
    verify: bool = True,
    fmt: Optional[str] = None,
) -> ColumnarLog:
    """Load any trace file (text v1, binary v2/v3) as a :class:`ColumnarLog`.

    The format is sniffed from the file's magic (pass ``fmt`` to skip
    the sniff when the caller already knows it).  Binary files load via
    :func:`load_columnar` (zero-copy mmap for v2, streaming section
    decode for v3); text files stream through :func:`read_trace` into a
    fresh columnar log (parse-and-box — this is precisely the cost the
    binary formats exist to skip).  Either way, a malformed trace —
    including an out-of-order text one — raises
    :class:`~repro.errors.TraceFormatError`; a file in no known format
    at all is rejected up front with the sniffed magic bytes in the
    error, not a line-1 parse failure.
    """
    if fmt is None:
        head = _sniff_head(path)
        if head in _VERSION_BY_MAGIC:
            fmt = "binary"
        elif head[: len(b"RCTRACE")] == b"RCTRACE" or any(
            b in _BINARY_JUNK for b in head
        ):
            # binary-looking but not a magic this reader knows: say
            # exactly what was sniffed instead of failing to utf-8
            # decode line 1
            raise TraceFormatError(
                f"{os.path.basename(os.fspath(path))}: unknown trace "
                f"format — sniffed magic bytes {head!r} match neither "
                f"rctrace v2 ({TRACE_MAGIC!r}) nor v3 ({TRACE_MAGIC_V3!r}) "
                f"nor text v1"
            )
        else:
            fmt = "text"
    if fmt == "binary":
        return load_columnar(path, verify=verify)
    try:
        return ColumnarLog(read_trace(path))
    except ValueError as exc:
        # ColumnarLog.append's ordering guard speaks row positions;
        # re-raise in the trace-error vocabulary the CLIs catch
        raise TraceFormatError(
            f"{os.path.basename(os.fspath(path))}: {exc}"
        ) from exc


def convert_trace(
    src: Union[str, os.PathLike],
    dst: Union[str, os.PathLike],
    fmt: Optional[str] = None,
    version: Optional[int] = None,
) -> int:
    """Convert a trace between text v1 and binary v2/v3; returns row count.

    ``fmt`` forces the output format: ``"text"``, ``"binary"`` (v2
    unless ``version`` says otherwise), or the version shorthands
    ``"v2"``/``"v3"``.  When omitted it is inferred from ``dst``'s
    extension (``.rct``/``.rct.gz`` → binary v2, anything else →
    text).  The input format/version is always sniffed, so this is the
    v1/v2↔v3 upgrade-downgrade path.  Conversion is lossless in every
    direction: text v1 carries full-``repr`` timestamps, binary v2 is
    the in-memory layout itself, and v3 encodes the identical columns.
    """
    if fmt is None:
        fmt = default_trace_format(dst)
    if fmt == "v2":
        fmt, version = "binary", TRACE_VERSION
    elif fmt == "v3":
        fmt, version = "binary", TRACE_VERSION_V3
    if fmt not in ("text", "binary"):
        raise ValueError(
            f"unknown trace format {fmt!r} "
            "(use 'text', 'binary', 'v2' or 'v3')"
        )
    log = load_trace_log(src)
    if fmt == "binary":
        return write_columnar(log, dst, version=version or TRACE_VERSION)
    return write_trace(log, dst)
