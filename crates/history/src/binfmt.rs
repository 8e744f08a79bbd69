//! `.pbh` — a compact columnar on-disk history format.
//!
//! The text codec ([`crate::codec`]) parses one operation per line with a
//! per-token integer parse; at millions of transactions, ingest dominates
//! checking. This module stores the same histories column-oriented so a
//! loader does sequential scans over homogeneous data instead:
//!
//! ```text
//! ┌────────────────────────────────────────────────────────────┐
//! │ header (24 B): magic "PBH1" · version · sessions · fnv64   │
//! ├────────────────────────────────────────────────────────────┤
//! │ segment 0 (session 0)                                      │
//! │   txns u32 · ops u32                                       │
//! │   column: ops-per-txn      (varint | fixed-width)          │
//! │   column: txn status bits  (1 bit per txn, committed = 1)  │
//! │   column: op kind bits     (1 bit per op, write = 1)       │
//! │   column: keys             (varint | fixed-width)          │
//! │   column: values           (varint | fixed-width)          │
//! ├────────────────────────────────────────────────────────────┤
//! │ … one segment per session …                                │
//! ├────────────────────────────────────────────────────────────┤
//! │ footer: per-session {offset, len, txns, ops, fnv64} ×N     │
//! │         footer fnv64 · footer len · trailer magic "1HBP"   │
//! └────────────────────────────────────────────────────────────┘
//! ```
//!
//! Numeric columns are varint-packed (LEB128) with a fixed-width `u64`
//! fallback the writer selects per column whenever varints would be larger
//! (keys or values clustered near `u64::MAX`). The footer makes segments
//! independently seekable: a reader can open any session's segment without
//! touching the others. The header, the footer, and every segment carry an
//! FNV-1a checksum, and every decode failure is a typed [`BinError`] —
//! never a panic — extending the live-ingest no-panic contract to the
//! on-disk boundary.
//!
//! Entry points: [`encode`]/[`decode`] for whole histories, [`Reader`] +
//! [`SegmentReader`] for streaming decode through a reusable op buffer
//! (no per-op allocation), and [`read_into_stream`] to feed a
//! [`HistoryStream`] directly via borrowed op slices.

use crate::history::History;
use crate::ids::{Key, SessionId, Value};
use crate::op::{Op, TxnStatus};
use crate::stream::HistoryStream;
use std::fmt;

/// Leading magic of a `.pbh` file.
pub const MAGIC: [u8; 4] = *b"PBH1";
/// Trailing magic (the leading magic reversed), closing the footer.
const TRAILER: [u8; 4] = *b"1HBP";
/// Current (and only) format version.
pub const FORMAT_VERSION: u32 = 1;
/// Header: magic(4) version(4) sessions(4) reserved(4) checksum(8).
const HEADER_LEN: usize = 24;
/// Footer entry: offset(8) len(8) txns(4) ops(4) checksum(8).
const ENTRY_LEN: usize = 32;
/// Footer tail: checksum(8) entry-bytes(4) trailer(4).
const TAIL_LEN: usize = 16;
/// Column encoding tags.
const TAG_VARINT: u8 = 0;
const TAG_FIXED: u8 = 1;

/// A typed failure while loading a `.pbh` file. Every corrupt input maps
/// to one of these — loading never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BinError {
    /// The file ends before a structurally required byte range.
    Truncated {
        /// Bytes the structure needs.
        expected: usize,
        /// Bytes actually present.
        actual: usize,
    },
    /// The file does not start with the `.pbh` magic.
    BadMagic,
    /// The header declares a format version this reader does not speak.
    UnsupportedVersion {
        /// The version found in the header.
        found: u32,
    },
    /// The header bytes do not match their checksum.
    HeaderChecksum {
        /// Checksum stored in the header.
        expected: u64,
        /// Checksum computed over the header bytes.
        found: u64,
    },
    /// The file does not end with the footer trailer magic.
    BadTrailer,
    /// The footer entries do not match their checksum.
    FooterChecksum {
        /// Checksum stored in the footer tail.
        expected: u64,
        /// Checksum computed over the footer entries.
        found: u64,
    },
    /// A segment's bytes do not match the footer's checksum for it.
    SegmentChecksum {
        /// The session whose segment is corrupt.
        session: u32,
        /// Checksum stored in the footer.
        expected: u64,
        /// Checksum computed over the segment bytes.
        found: u64,
    },
    /// A segment checksums correctly but its contents are inconsistent
    /// (bad column tag, varint past a column end, counts that do not add
    /// up): the file was produced by a broken writer or tampered with
    /// checksum-aware.
    Malformed {
        /// The session whose segment is malformed.
        session: u32,
        /// What went wrong.
        message: String,
    },
    /// The file decoded cleanly but violates the history ingest contract
    /// (e.g. an empty transaction, forbidden by Definition 3) when fed to
    /// a [`HistoryStream`].
    Ingest {
        /// The offending session.
        session: u32,
        /// The underlying [`crate::live::IngestError`], rendered.
        message: String,
    },
}

impl fmt::Display for BinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BinError::Truncated { expected, actual } => {
                write!(f, "truncated .pbh file: need {expected} bytes, have {actual}")
            }
            BinError::BadMagic => write!(f, "not a .pbh file (bad magic)"),
            BinError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported .pbh format version {found} (reader speaks {FORMAT_VERSION})"
                )
            }
            BinError::HeaderChecksum { expected, found } => {
                write!(
                    f,
                    "header checksum mismatch: stored {expected:#018x}, computed {found:#018x}"
                )
            }
            BinError::BadTrailer => write!(f, "missing .pbh footer trailer (file truncated?)"),
            BinError::FooterChecksum { expected, found } => {
                write!(
                    f,
                    "footer checksum mismatch: stored {expected:#018x}, computed {found:#018x}"
                )
            }
            BinError::SegmentChecksum { session, expected, found } => write!(
                f,
                "segment checksum mismatch in session {session}: \
                 stored {expected:#018x}, computed {found:#018x}"
            ),
            BinError::Malformed { session, message } => {
                write!(f, "malformed segment for session {session}: {message}")
            }
            BinError::Ingest { session, message } => {
                write!(f, "session {session} violates the ingest contract: {message}")
            }
        }
    }
}

impl std::error::Error for BinError {}

/// The `.pbh` checksum: FNV-1a 64-bit folded over little-endian `u64`
/// words (the length first, then each 8-byte chunk, the last one
/// zero-padded). Word folding keeps the serial multiply chain 8× shorter
/// than byte-wise FNV — checksum validation must not dominate a loader
/// that decodes millions of ops per second. Public so external tooling
/// (and the corrupt-input tests) can produce checksum-consistent files.
pub fn checksum(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    h ^= bytes.len() as u64;
    h = h.wrapping_mul(PRIME);
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        h ^= u64::from_le_bytes(c.try_into().expect("exact chunk"));
        h = h.wrapping_mul(PRIME);
    }
    let rest = chunks.remainder();
    if !rest.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rest.len()].copy_from_slice(rest);
        h ^= u64::from_le_bytes(tail);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Whether `bytes` look like a `.pbh` file (leading magic). The CLI uses
/// this to auto-detect the format regardless of file extension.
pub fn is_binary(bytes: &[u8]) -> bool {
    bytes.len() >= MAGIC.len() && bytes[..MAGIC.len()] == MAGIC
}

// ---------------------------------------------------------------------------
// Primitive encoders.
// ---------------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            break;
        }
        out.push(b | 0x80);
    }
}

fn varint_len(v: u64) -> usize {
    ((64 - v.leading_zeros()).max(1) as usize).div_ceil(7)
}

/// Encode one numeric column: a tag byte, a payload length, the payload.
/// Varint wins unless the values are wide enough that LEB128 would exceed
/// eight bytes each on average — then the column falls back to fixed-width
/// `u64` words (still sequentially scannable, no decode branches).
fn put_column(out: &mut Vec<u8>, vals: &[u64]) {
    let varint_total: usize = vals.iter().map(|&v| varint_len(v)).sum();
    if varint_total <= vals.len() * 8 {
        out.push(TAG_VARINT);
        put_u32(out, varint_total as u32);
        for &v in vals {
            put_varint(out, v);
        }
    } else {
        out.push(TAG_FIXED);
        put_u32(out, (vals.len() * 8) as u32);
        for &v in vals {
            put_u64(out, v);
        }
    }
}

/// Encode a bit column, LSB-first within each byte.
fn put_bits(out: &mut Vec<u8>, bits: &[bool]) {
    let mut byte = 0u8;
    for (i, &bit) in bits.iter().enumerate() {
        if bit {
            byte |= 1 << (i % 8);
        }
        if i % 8 == 7 {
            out.push(byte);
            byte = 0;
        }
    }
    if !bits.len().is_multiple_of(8) {
        out.push(byte);
    }
}

/// Serialize a history to the binary columnar format.
pub fn encode(h: &History) -> Vec<u8> {
    let sessions = h.num_sessions();
    let mut out = Vec::with_capacity(HEADER_LEN + h.num_ops() * 3);
    out.extend_from_slice(&MAGIC);
    put_u32(&mut out, FORMAT_VERSION);
    put_u32(&mut out, sessions as u32);
    put_u32(&mut out, 0); // reserved
    let hsum = checksum(&out[..HEADER_LEN - 8]);
    put_u64(&mut out, hsum);

    let mut entries: Vec<(u64, u64, u32, u32, u64)> = Vec::with_capacity(sessions);
    let mut op_counts: Vec<u64> = Vec::new();
    let mut status_bits: Vec<bool> = Vec::new();
    let mut kind_bits: Vec<bool> = Vec::new();
    let mut keys: Vec<u64> = Vec::new();
    let mut values: Vec<u64> = Vec::new();
    for s in h.sessions() {
        op_counts.clear();
        status_bits.clear();
        kind_bits.clear();
        keys.clear();
        values.clear();
        for t in s.txns {
            op_counts.push(t.ops.len() as u64);
            status_bits.push(t.status == TxnStatus::Committed);
            for op in &t.ops {
                let (is_write, key, value) = match *op {
                    Op::Read { key, value } => (false, key, value),
                    Op::Write { key, value } => (true, key, value),
                };
                kind_bits.push(is_write);
                keys.push(key.0);
                values.push(value.0);
            }
        }
        let offset = out.len() as u64;
        put_u32(&mut out, s.txns.len() as u32);
        put_u32(&mut out, keys.len() as u32);
        put_column(&mut out, &op_counts);
        put_bits(&mut out, &status_bits);
        put_bits(&mut out, &kind_bits);
        put_column(&mut out, &keys);
        put_column(&mut out, &values);
        let len = out.len() as u64 - offset;
        let sum = checksum(&out[offset as usize..]);
        entries.push((offset, len, s.txns.len() as u32, keys.len() as u32, sum));
    }

    let footer_start = out.len();
    for &(offset, len, txns, ops, sum) in &entries {
        put_u64(&mut out, offset);
        put_u64(&mut out, len);
        put_u32(&mut out, txns);
        put_u32(&mut out, ops);
        put_u64(&mut out, sum);
    }
    let fsum = checksum(&out[footer_start..]);
    put_u64(&mut out, fsum);
    put_u32(&mut out, (entries.len() * ENTRY_LEN) as u32);
    out.extend_from_slice(&TRAILER);
    out
}

// ---------------------------------------------------------------------------
// Reader.
// ---------------------------------------------------------------------------

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("caller bounds-checked"))
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("caller bounds-checked"))
}

/// One footer entry: where a session's segment lives and what it holds.
#[derive(Clone, Copy, Debug)]
struct Entry {
    offset: usize,
    len: usize,
    txns: u32,
    ops: u32,
    sum: u64,
}

/// A validated `.pbh` file: header and footer checked, per-session
/// segments independently seekable via [`Reader::segment`].
pub struct Reader<'a> {
    bytes: &'a [u8],
    entries: Vec<Entry>,
    txns: usize,
    ops: usize,
}

impl<'a> Reader<'a> {
    /// Validate the header and footer of `bytes` and index the segments.
    /// Segment contents are validated lazily, when each is opened.
    pub fn new(bytes: &'a [u8]) -> Result<Reader<'a>, BinError> {
        if bytes.len() < HEADER_LEN {
            return Err(BinError::Truncated { expected: HEADER_LEN, actual: bytes.len() });
        }
        if bytes[..4] != MAGIC {
            return Err(BinError::BadMagic);
        }
        let version = read_u32(bytes, 4);
        if version != FORMAT_VERSION {
            return Err(BinError::UnsupportedVersion { found: version });
        }
        let stored = read_u64(bytes, HEADER_LEN - 8);
        let computed = checksum(&bytes[..HEADER_LEN - 8]);
        if stored != computed {
            return Err(BinError::HeaderChecksum { expected: stored, found: computed });
        }
        let sessions = read_u32(bytes, 8) as usize;

        let need = HEADER_LEN + sessions * ENTRY_LEN + TAIL_LEN;
        if bytes.len() < need {
            return Err(BinError::Truncated { expected: need, actual: bytes.len() });
        }
        if bytes[bytes.len() - 4..] != TRAILER {
            return Err(BinError::BadTrailer);
        }
        let entry_bytes = read_u32(bytes, bytes.len() - 8) as usize;
        if entry_bytes != sessions * ENTRY_LEN {
            return Err(BinError::BadTrailer);
        }
        let footer_start = bytes.len() - TAIL_LEN - entry_bytes;
        let stored = read_u64(bytes, bytes.len() - TAIL_LEN);
        let computed = checksum(&bytes[footer_start..bytes.len() - TAIL_LEN]);
        if stored != computed {
            return Err(BinError::FooterChecksum { expected: stored, found: computed });
        }

        let mut entries = Vec::with_capacity(sessions);
        let (mut txns, mut ops) = (0usize, 0usize);
        for s in 0..sessions {
            let at = footer_start + s * ENTRY_LEN;
            let e = Entry {
                offset: read_u64(bytes, at) as usize,
                len: read_u64(bytes, at + 8) as usize,
                txns: read_u32(bytes, at + 16),
                ops: read_u32(bytes, at + 20),
                sum: read_u64(bytes, at + 24),
            };
            let end = e.offset.checked_add(e.len);
            if e.offset < HEADER_LEN || end.is_none_or(|end| end > footer_start) {
                return Err(BinError::Malformed {
                    session: s as u32,
                    message: format!(
                        "segment range {}..{:?} escapes the data area {HEADER_LEN}..{footer_start}",
                        e.offset, end
                    ),
                });
            }
            txns += e.txns as usize;
            ops += e.ops as usize;
            entries.push(e);
        }
        Ok(Reader { bytes, entries, txns, ops })
    }

    /// Number of sessions (one segment each).
    pub fn num_sessions(&self) -> usize {
        self.entries.len()
    }

    /// Total transactions across all segments, from the footer.
    pub fn num_txns(&self) -> usize {
        self.txns
    }

    /// Total operations across all segments, from the footer.
    pub fn num_ops(&self) -> usize {
        self.ops
    }

    /// Open session `s`'s segment: verify its checksum and parse its
    /// column directory. Segments can be opened in any order — the footer
    /// makes them independently seekable.
    pub fn segment(&self, s: usize) -> Result<SegmentReader<'a>, BinError> {
        let e = self.entries[s];
        let seg = &self.bytes[e.offset..e.offset + e.len];
        let computed = checksum(seg);
        if computed != e.sum {
            return Err(BinError::SegmentChecksum {
                session: s as u32,
                expected: e.sum,
                found: computed,
            });
        }
        SegmentReader::open(seg, s as u32, e.txns, e.ops)
    }
}

/// A cursor over one numeric column.
struct ColumnCursor<'a> {
    tag: u8,
    payload: &'a [u8],
    pos: usize,
}

impl<'a> ColumnCursor<'a> {
    #[inline]
    fn next(&mut self, session: u32, what: &str) -> Result<u64, BinError> {
        if self.tag == TAG_FIXED {
            if self.pos + 8 > self.payload.len() {
                return Err(BinError::Malformed {
                    session,
                    message: format!("{what} column exhausted mid-word"),
                });
            }
            let v = read_u64(self.payload, self.pos);
            self.pos += 8;
            return Ok(v);
        }
        // Single-byte fast path: op counts and most keys/values fit in
        // seven bits, and the loader's throughput lives on this branch.
        if let Some(&b) = self.payload.get(self.pos) {
            if b & 0x80 == 0 {
                self.pos += 1;
                return Ok(b as u64);
            }
        }
        self.next_slow(session, what)
    }

    #[cold]
    fn next_slow(&mut self, session: u32, what: &str) -> Result<u64, BinError> {
        let malformed = |message: String| BinError::Malformed { session, message };
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let Some(&b) = self.payload.get(self.pos) else {
                return Err(malformed(format!("{what} column exhausted mid-varint")));
            };
            self.pos += 1;
            if shift == 63 && b > 1 {
                return Err(malformed(format!("{what} varint overflows u64")));
            }
            v |= ((b & 0x7f) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(malformed(format!("{what} varint longer than 10 bytes")));
            }
        }
    }
}

/// A cursor over one bit column (LSB-first).
struct BitCursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> BitCursor<'a> {
    fn next(&mut self) -> bool {
        let bit = self.bytes[self.pos / 8] >> (self.pos % 8) & 1 == 1;
        self.pos += 1;
        bit
    }
}

/// Streaming decoder for one session's segment. Transactions come out in
/// session order through a caller-supplied reusable buffer — the zero-
/// allocation path a [`HistoryStream`] ingests from.
pub struct SegmentReader<'a> {
    session: u32,
    txns: u32,
    ops: u32,
    next: u32,
    ops_used: u32,
    op_counts: ColumnCursor<'a>,
    status: BitCursor<'a>,
    kinds: BitCursor<'a>,
    keys: ColumnCursor<'a>,
    values: ColumnCursor<'a>,
}

impl<'a> SegmentReader<'a> {
    fn open(
        seg: &'a [u8],
        session: u32,
        txns: u32,
        ops: u32,
    ) -> Result<SegmentReader<'a>, BinError> {
        struct Taker<'a> {
            seg: &'a [u8],
            pos: usize,
            session: u32,
        }
        impl<'a> Taker<'a> {
            fn malformed(&self, message: String) -> BinError {
                BinError::Malformed { session: self.session, message }
            }
            fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], BinError> {
                if self.pos + n > self.seg.len() {
                    return Err(self.malformed(format!("segment ends inside {what}")));
                }
                let out = &self.seg[self.pos..self.pos + n];
                self.pos += n;
                Ok(out)
            }
            fn column(&mut self, what: &str) -> Result<ColumnCursor<'a>, BinError> {
                let head = self.take(5, &format!("the {what} column header"))?;
                let (tag, len) = (head[0], read_u32(head, 1) as usize);
                if tag != TAG_VARINT && tag != TAG_FIXED {
                    return Err(self.malformed(format!("unknown {what} column tag {tag}")));
                }
                Ok(ColumnCursor {
                    tag,
                    payload: self.take(len, &format!("the {what} column"))?,
                    pos: 0,
                })
            }
        }
        let mut t = Taker { seg, pos: 0, session };
        let counts = t.take(8, "the segment counts")?;
        if read_u32(counts, 0) != txns || read_u32(counts, 4) != ops {
            return Err(t.malformed("segment counts disagree with the footer".into()));
        }
        let op_counts = t.column("op-count")?;
        let status =
            BitCursor { bytes: t.take((txns as usize).div_ceil(8), "the status bits")?, pos: 0 };
        let kinds =
            BitCursor { bytes: t.take((ops as usize).div_ceil(8), "the op-kind bits")?, pos: 0 };
        let keys = t.column("key")?;
        let values = t.column("value")?;
        if t.pos != seg.len() {
            return Err(t.malformed("trailing bytes after the value column".into()));
        }
        Ok(SegmentReader {
            session,
            txns,
            ops,
            next: 0,
            ops_used: 0,
            op_counts,
            status,
            kinds,
            keys,
            values,
        })
    }

    /// Transactions not yet decoded.
    pub fn remaining_txns(&self) -> usize {
        (self.txns - self.next) as usize
    }

    /// Decode the next transaction into `buf` (cleared first; capacity is
    /// reused across calls, so a loop over a segment allocates nothing per
    /// op). Returns the transaction's status, or `None` after the last
    /// transaction.
    pub fn next_txn(&mut self, buf: &mut Vec<Op>) -> Result<Option<TxnStatus>, BinError> {
        if self.next == self.txns {
            return Ok(None);
        }
        let n = self.op_counts.next(self.session, "op-count")?;
        if n > (self.ops - self.ops_used) as u64 {
            return Err(BinError::Malformed {
                session: self.session,
                message: format!(
                    "op counts overflow the segment: txn {} claims {n} ops, {} left",
                    self.next,
                    self.ops - self.ops_used
                ),
            });
        }
        buf.clear();
        buf.reserve(n as usize);
        for _ in 0..n {
            let is_write = self.kinds.next();
            let key = Key(self.keys.next(self.session, "key")?);
            let value = Value(self.values.next(self.session, "value")?);
            buf.push(if is_write { Op::Write { key, value } } else { Op::Read { key, value } });
        }
        self.ops_used += n as u32;
        let status = if self.status.next() { TxnStatus::Committed } else { TxnStatus::Aborted };
        self.next += 1;
        if self.next == self.txns && self.ops_used != self.ops {
            return Err(BinError::Malformed {
                session: self.session,
                message: format!(
                    "op counts underflow the segment: {} of {} ops consumed",
                    self.ops_used, self.ops
                ),
            });
        }
        Ok(Some(status))
    }
}

/// Parse a whole history from the binary format.
pub fn decode(bytes: &[u8]) -> Result<History, BinError> {
    let r = Reader::new(bytes)?;
    let mut h = History::new();
    for s in 0..r.num_sessions() {
        let mut seg = r.segment(s)?;
        let mut txns = Vec::with_capacity(seg.remaining_txns());
        loop {
            // Decode straight into the transaction's own Vec — `next_txn`
            // reserves the exact op count, so this is one allocation per
            // txn and no copy, instead of buffer-then-clone.
            let mut ops = Vec::new();
            match seg.next_txn(&mut ops)? {
                Some(status) => txns.push((ops, status)),
                None => break,
            }
        }
        h.push_session(txns);
    }
    Ok(h)
}

/// Feed a `.pbh` file into a [`HistoryStream`] through the zero-copy
/// path: one session per segment, each transaction handed to
/// [`HistoryStream::try_push_transaction_slice`] as a borrowed slice of
/// the reusable decode buffer, each session sealed once its segment is
/// exhausted (the file is a complete history). Returns the opened session
/// ids, in segment order.
pub fn read_into_stream(
    bytes: &[u8],
    stream: &mut HistoryStream,
) -> Result<Vec<SessionId>, BinError> {
    let r = Reader::new(bytes)?;
    let sessions: Vec<SessionId> = (0..r.num_sessions()).map(|_| stream.session()).collect();
    let mut buf: Vec<Op> = Vec::new();
    for (i, &sid) in sessions.iter().enumerate() {
        let mut seg = r.segment(i)?;
        while let Some(status) = seg.next_txn(&mut buf)? {
            stream
                .try_push_transaction_slice(sid, &buf, status)
                .map_err(|e| BinError::Ingest { session: i as u32, message: e.to_string() })?;
        }
        stream
            .try_seal_session(sid)
            .map_err(|e| BinError::Ingest { session: i as u32, message: e.to_string() })?;
    }
    Ok(sessions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::HistoryBuilder;

    fn sample() -> History {
        let mut b = HistoryBuilder::new();
        b.session();
        b.begin().write(Key(1), Value(10)).read(Key(2), Value::INIT).commit();
        b.begin().write(Key(2), Value(20)).abort();
        b.begin().read(Key(1), Value(10)).write(Key(1), Value(11)).commit();
        b.session(); // empty session
        b.session();
        b.begin().read(Key(1), Value(11)).commit();
        b.build()
    }

    #[test]
    fn round_trips_structure_and_text() {
        let h = sample();
        let bin = encode(&h);
        let h2 = decode(&bin).unwrap();
        assert_eq!(h, h2);
        assert_eq!(crate::codec::encode(&h), crate::codec::encode(&h2));
        // Re-encoding is byte-identical (the writer is deterministic).
        assert_eq!(bin, encode(&h2));
    }

    #[test]
    fn empty_history_round_trips() {
        let h = History::new();
        let bin = encode(&h);
        assert_eq!(bin.len(), HEADER_LEN + TAIL_LEN);
        assert_eq!(decode(&bin).unwrap(), h);
    }

    #[test]
    fn wide_values_take_the_fixed_width_fallback() {
        let mut b = HistoryBuilder::new();
        b.session();
        let t = b.begin();
        let mut t = t;
        for i in 0..8u64 {
            t = t.write(Key(u64::MAX - i), Value(u64::MAX / 2 + i));
        }
        t.commit();
        let h = b.build();
        let bin = encode(&h);
        // Keys near u64::MAX varint to 10 bytes; the column must have
        // fallen back to 8-byte words.
        assert!(bin.len() < HEADER_LEN + TAIL_LEN + ENTRY_LEN + 8 * (8 + 8) + 64);
        assert_eq!(decode(&bin).unwrap(), h);
    }

    #[test]
    fn reader_exposes_counts_and_seeks_segments_independently() {
        let h = sample();
        let bin = encode(&h);
        let r = Reader::new(&bin).unwrap();
        assert_eq!(r.num_sessions(), 3);
        assert_eq!(r.num_txns(), 4);
        assert_eq!(r.num_ops(), 6);
        // Open the last segment without touching the first.
        let mut seg = r.segment(2).unwrap();
        let mut buf = Vec::new();
        assert_eq!(seg.next_txn(&mut buf).unwrap(), Some(TxnStatus::Committed));
        assert_eq!(buf, vec![Op::Read { key: Key(1), value: Value(11) }]);
        assert_eq!(seg.next_txn(&mut buf).unwrap(), None);
        // The empty middle segment yields nothing.
        let mut seg = r.segment(1).unwrap();
        assert_eq!(seg.next_txn(&mut buf).unwrap(), None);
    }

    #[test]
    fn streams_into_history_stream_and_seals() {
        let h = sample();
        let bin = encode(&h);
        let mut stream = HistoryStream::new();
        let sessions = read_into_stream(&bin, &mut stream).unwrap();
        assert_eq!(sessions.len(), 3);
        assert!(sessions.iter().all(|&s| stream.is_sealed(s)));
        let (snapshot, _) = stream.snapshot();
        assert_eq!(snapshot, h);
    }

    // -- corrupt-input robustness: typed errors, never a panic ------------

    #[test]
    fn truncated_header_is_typed() {
        let bin = encode(&sample());
        assert_eq!(
            decode(&bin[..10]),
            Err(BinError::Truncated { expected: HEADER_LEN, actual: 10 })
        );
    }

    #[test]
    fn truncated_body_is_typed() {
        let bin = encode(&sample());
        // Cut mid-file: the trailer magic is gone.
        let cut = &bin[..bin.len() / 2];
        match decode(cut) {
            Err(BinError::BadTrailer) | Err(BinError::Truncated { .. }) => {}
            other => panic!("truncated body must be BadTrailer/Truncated, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut bin = encode(&sample());
        bin[0] = b'X';
        assert_eq!(decode(&bin), Err(BinError::BadMagic));
    }

    #[test]
    fn wrong_version_is_typed() {
        let mut bin = encode(&sample());
        bin[4..8].copy_from_slice(&99u32.to_le_bytes());
        // The version check fires before the checksum check, so a version
        // bump alone (checksum untouched) reports as the version error.
        assert_eq!(decode(&bin), Err(BinError::UnsupportedVersion { found: 99 }));
    }

    #[test]
    fn corrupted_header_fails_its_checksum() {
        let mut bin = encode(&sample());
        bin[8] ^= 0xff; // session count
        assert!(matches!(decode(&bin), Err(BinError::HeaderChecksum { .. })));
    }

    #[test]
    fn corrupted_segment_fails_its_checksum() {
        let mut bin = encode(&sample());
        bin[HEADER_LEN + 3] ^= 0x55; // inside the first segment
        assert!(matches!(decode(&bin), Err(BinError::SegmentChecksum { session: 0, .. })));
    }

    #[test]
    fn corrupted_footer_fails_its_checksum() {
        let mut bin = encode(&sample());
        let at = bin.len() - TAIL_LEN - ENTRY_LEN + 16; // last entry's txn count
        bin[at] ^= 0x01;
        assert!(matches!(decode(&bin), Err(BinError::FooterChecksum { .. })));
    }

    /// Checksum-aware tampering: garbage *inside* a segment with the
    /// segment and footer checksums recomputed to match. The column
    /// decoder itself must refuse.
    #[test]
    fn checksum_consistent_garbage_is_malformed() {
        let h = sample();
        let tamper = |f: &mut dyn FnMut(&mut Vec<u8>)| -> BinError {
            let mut bin = encode(&h);
            f(&mut bin);
            refresh_checksums(&mut bin);
            decode(&bin).expect_err("garbage must not decode")
        };
        // An unknown column tag on the first segment's op-count column.
        let e = tamper(&mut |bin| bin[HEADER_LEN + 8] = 7);
        assert!(matches!(e, BinError::Malformed { session: 0, .. }), "{e}");
        // An op count that overflows the segment's op total.
        let e = tamper(&mut |bin| bin[HEADER_LEN + 8 + 5] = 0x7f);
        assert!(matches!(e, BinError::Malformed { session: 0, .. }), "{e}");
    }

    /// Recompute every segment checksum and the footer checksum from the
    /// (possibly tampered) bytes, using the footer's own geometry.
    fn refresh_checksums(bin: &mut [u8]) {
        let entry_bytes = read_u32(bin, bin.len() - 8) as usize;
        let footer_start = bin.len() - TAIL_LEN - entry_bytes;
        for s in 0..entry_bytes / ENTRY_LEN {
            let at = footer_start + s * ENTRY_LEN;
            let offset = read_u64(bin, at) as usize;
            let len = read_u64(bin, at + 8) as usize;
            let sum = checksum(&bin[offset..offset + len]);
            bin[at + 24..at + 32].copy_from_slice(&sum.to_le_bytes());
        }
        let fsum = checksum(&bin[footer_start..footer_start + entry_bytes]);
        let tail = bin.len() - TAIL_LEN;
        bin[tail..tail + 8].copy_from_slice(&fsum.to_le_bytes());
    }

    /// Byte-flip and truncation fuzz: every mutation either decodes (a
    /// benign flip would have to beat FNV, so in practice it errors) or
    /// returns a typed error — never a panic.
    #[test]
    fn mutation_fuzz_never_panics() {
        let bin = encode(&sample());
        for i in 0..bin.len() {
            let mut bad = bin.clone();
            bad[i] ^= 0xa5;
            let _ = decode(&bad);
            let _ = decode(&bin[..i]);
        }
        let _ = decode(&[]);
        let _ = decode(b"PBH1");
    }
}
