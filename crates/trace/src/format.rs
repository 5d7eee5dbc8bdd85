//! The one place the TLBT format version is decided.
//!
//! Every reader in this crate parses the 8-byte header through
//! [`parse_header`], and the version-hiding types here — [`Trace`],
//! [`TraceCursor`] and [`TraceWriter`] — dispatch to the v1
//! ([`MmapTrace`], [`BinaryTraceWriter`]) or v2 ([`V2Trace`],
//! [`V2TraceWriter`]) implementation, so code above this crate never
//! branches on the format.

use std::fs::File;
use std::io::{Read, Write};
use std::path::Path;

use ::mmap::Mmap;
use tlbsim_core::MemoryAccess;

use crate::binary::{BinaryTraceWriter, HEADER_BYTES, MAGIC, VERSION};
use crate::block::{DEFAULT_BLOCK_LEN, V2_VERSION};
use crate::error::TraceError;
use crate::mmap::{MmapTrace, MmapTraceCursor};
use crate::policy::{DecodePolicy, TraceHealth};
use crate::v2::{V2Trace, V2TraceCursor, V2TraceWriter};

/// A TLBT version this build reads; the discriminant is the header's
/// version word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub(crate) enum Version {
    V1 = VERSION,
    V2 = V2_VERSION,
}

impl Version {
    /// For a reader of one version: [`TraceError::UnsupportedVersion`]
    /// unless the header declared `want`.
    pub(crate) fn require(self, want: Version) -> Result<(), TraceError> {
        if self == want {
            Ok(())
        } else {
            Err(TraceError::UnsupportedVersion { found: self as u16 })
        }
    }
}

/// Parses the 8-byte header every TLBT file opens with: magic, then
/// the version word (the reserved word is ignored).
pub(crate) fn parse_header(bytes: &[u8]) -> Result<Version, TraceError> {
    let Some(header) = bytes.get(..HEADER_BYTES) else {
        return Err(TraceError::TruncatedHeader {
            len: bytes.len() as u64,
        });
    };
    if header[0..4] != MAGIC {
        return Err(TraceError::BadMagic {
            found: [header[0], header[1], header[2], header[3]],
        });
    }
    match u16::from_le_bytes([header[4], header[5]]) {
        VERSION => Ok(Version::V1),
        V2_VERSION => Ok(Version::V2),
        found => Err(TraceError::UnsupportedVersion { found }),
    }
}

/// Reads the header off the front of a byte stream (retrying
/// interrupted reads) and parses it.
pub(crate) fn read_header(input: &mut impl Read) -> Result<Version, TraceError> {
    let mut header = Vec::with_capacity(HEADER_BYTES);
    input.take(HEADER_BYTES as u64).read_to_end(&mut header)?;
    parse_header(&header)
}

/// One value per TLBT version: the representation behind [`Trace`],
/// [`TraceCursor`] and [`TraceWriter`].
#[derive(Debug, Clone)]
enum PerVersion<A, B> {
    V1(A),
    V2(B),
}

/// Evaluates `$body` with `$inner` bound to whichever version `$value`
/// holds.
macro_rules! on_version {
    ($value:expr, $inner:ident => $body:expr) => {
        match $value {
            PerVersion::V1($inner) => $body,
            PerVersion::V2($inner) => $body,
        }
    };
}

/// On-disk format selector for [`TraceWriter`] (`xp record --format`,
/// `xp convert --format`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordFormat {
    /// Flat v1 `TLBT`: 17 bytes per record, byte-addressable.
    V1,
    /// Block-compressed v2 `TLBT` with the given records per block.
    V2 {
        /// Records per block (restart cadence). ≥ 1.
        block_len: u32,
    },
}

impl RecordFormat {
    /// The default v2 selector ([`DEFAULT_BLOCK_LEN`] records per
    /// block).
    pub fn v2_default() -> Self {
        RecordFormat::V2 {
            block_len: DEFAULT_BLOCK_LEN,
        }
    }
}

/// A validated binary trace of either version, read from its header.
///
/// The version is read from the bytes already mapped, so each file is
/// mapped once; every method delegates to the [`MmapTrace`] or
/// [`V2Trace`] underneath.
///
/// # Examples
///
/// ```
/// use tlbsim_core::MemoryAccess;
/// use tlbsim_trace::{RecordFormat, Trace, TraceWriter};
///
/// for format in [RecordFormat::V1, RecordFormat::V2 { block_len: 16 }] {
///     let mut w = TraceWriter::create(Vec::new(), format)?;
///     for i in 0..100u64 {
///         w.write(&MemoryAccess::read(0x400, i * 4096))?;
///     }
///     let trace = Trace::from_map(mmap::Mmap::from_vec(w.finish()?))?;
///     assert_eq!(trace.record_count(), 100);
///     let mut batch = vec![MemoryAccess::read(0, 0); 64];
///     let mut cursor = trace.cursor();
///     assert_eq!(cursor.decode_batch(&mut batch)?, 64);
///     assert_eq!(cursor.decode_batch(&mut batch)?, 36);
/// }
/// # Ok::<(), tlbsim_trace::TraceError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Trace(PerVersion<MmapTrace, V2Trace>);

impl Trace {
    /// Maps and validates a trace file of either version under the
    /// strict policy.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] if the file cannot be opened or mapped; the
    /// header errors ([`TraceError::TruncatedHeader`],
    /// [`TraceError::BadMagic`], [`TraceError::UnsupportedVersion`]);
    /// otherwise what [`MmapTrace::open`] or [`V2Trace::open`] reports
    /// for the version found.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, TraceError> {
        Self::open_with_policy(path, DecodePolicy::Strict)
    }

    /// [`Trace::open`] under an explicit [`DecodePolicy`] (see
    /// [`MmapTrace::open_with_policy`] and [`V2Trace::open_with_policy`]),
    /// with the same errors.
    pub fn open_with_policy(
        path: impl AsRef<Path>,
        policy: DecodePolicy,
    ) -> Result<Self, TraceError> {
        Self::from_map_with_policy(Mmap::open(path)?, policy)
    }

    /// Opens a trace whose v2 cursors each map a sliding window of
    /// `window_blocks` blocks instead of the whole file, so corpora
    /// larger than RAM replay in bounded memory (see
    /// [`V2Trace::open_streaming`]). A v1 file is mapped whole: its
    /// flat grid has no block index to window over, and the kernel
    /// pages the mapping as needed. Errors as for [`Trace::open`].
    pub fn open_streaming(
        path: impl AsRef<Path>,
        policy: DecodePolicy,
        window_blocks: u64,
    ) -> Result<Self, TraceError> {
        let path = path.as_ref();
        Ok(Trace(match read_header(&mut File::open(path)?)? {
            Version::V1 => PerVersion::V1(MmapTrace::open_with_policy(path, policy)?),
            Version::V2 => PerVersion::V2(V2Trace::open_streaming(path, policy, window_blocks)?),
        }))
    }

    /// Validates an in-memory image (see `Mmap::from_vec`) under the
    /// strict policy; errors as for [`Trace::open`], minus the I/O.
    pub fn from_map(map: Mmap) -> Result<Self, TraceError> {
        Self::from_map_with_policy(map, DecodePolicy::Strict)
    }

    /// [`Trace::from_map`] under an explicit policy, with the same
    /// errors.
    pub fn from_map_with_policy(map: Mmap, policy: DecodePolicy) -> Result<Self, TraceError> {
        Ok(Trace(match parse_header(map.as_bytes())? {
            Version::V1 => PerVersion::V1(MmapTrace::from_map_with_policy(map, policy)?),
            Version::V2 => PerVersion::V2(V2Trace::from_map_with_policy(map, policy)?),
        }))
    }

    /// Number of records in the trace (on the raw grid: under
    /// quarantine this counts records a decode will skip).
    pub fn record_count(&self) -> u64 {
        on_version!(&self.0, t => t.record_count())
    }

    /// Which backend serves the bytes: `"mmap"`, the `"read"`
    /// fallback, or `"mmap-window"` for a streaming v2 trace.
    pub fn backend(&self) -> &'static str {
        on_version!(&self.0, t => t.backend())
    }

    /// The decode policy this trace was opened under (inherited by its
    /// cursors).
    pub fn policy(&self) -> DecodePolicy {
        on_version!(&self.0, t => t.policy())
    }

    /// The header's format version (1 = flat grid, 2 = block-compressed).
    pub fn format_version(&self) -> u16 {
        match &self.0 {
            PerVersion::V1(_) => VERSION,
            PerVersion::V2(_) => V2_VERSION,
        }
    }

    /// The record granularity at which a cursor seeks without decoding
    /// a prefix: 1 on the flat v1 grid, the block length on v2.
    pub fn seek_alignment(&self) -> u64 {
        match &self.0 {
            PerVersion::V1(_) => 1,
            PerVersion::V2(t) => t.block_len().max(1),
        }
    }

    /// Whether a copy of this trace torn at the tail is still
    /// replayable under quarantine: on v1 the whole records before the
    /// tear replay, while on v2 the tear destroys the block index and
    /// footer, which is fatal under every policy.
    pub fn salvages_torn_tail(&self) -> bool {
        matches!(self.0, PerVersion::V1(_))
    }

    /// Decodes every record once, strictly, so a later strict replay
    /// cannot fail mid-stream.
    ///
    /// # Errors
    ///
    /// The first damaged record's typed error.
    pub fn validate_records(&self) -> Result<(), TraceError> {
        on_version!(&self.0, t => t.validate_records())
    }

    /// Decodes every record once under the trace's policy and returns
    /// the full [`TraceHealth`] report.
    ///
    /// # Errors
    ///
    /// Strict: the first damaged record's typed error. Quarantine:
    /// [`TraceError::QuarantineExceeded`] past the policy's budget.
    pub fn scan_health(&self) -> Result<TraceHealth, TraceError> {
        on_version!(&self.0, t => t.scan_health())
    }

    /// A fresh cursor positioned at record 0, decoding under the
    /// trace's own policy.
    pub fn cursor(&self) -> TraceCursor {
        TraceCursor(match &self.0 {
            PerVersion::V1(t) => PerVersion::V1(t.cursor()),
            PerVersion::V2(t) => PerVersion::V2(t.cursor()),
        })
    }
}

/// An independent read position over a [`Trace`], with the batch
/// decode / skip contract of [`MmapTraceCursor`] and [`V2TraceCursor`].
#[derive(Debug)]
pub struct TraceCursor(PerVersion<MmapTraceCursor, V2TraceCursor>);

impl TraceCursor {
    /// Fills `buf` with the next records, returning how many were
    /// written; zero means the trace is exhausted. Errors and the panic
    /// on an empty `buf` as for [`MmapTraceCursor::decode_batch`] and
    /// [`V2TraceCursor::decode_batch`].
    pub fn decode_batch(&mut self, buf: &mut [MemoryAccess]) -> Result<usize, TraceError> {
        on_version!(&mut self.0, c => c.decode_batch(buf))
    }

    /// Advances past the next `n` decodable records, returning how many
    /// were skipped (less than `n` only at end of trace).
    pub fn skip_records(&mut self, n: u64) -> u64 {
        on_version!(&mut self.0, c => c.skip_records(n))
    }

    /// Running health tally over everything decoded or skipped so far.
    pub fn health(&self) -> TraceHealth {
        on_version!(&self.0, c => c.health())
    }
}

impl Iterator for TraceCursor {
    type Item = Result<MemoryAccess, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        on_version!(&mut self.0, c => c.next())
    }
}

/// A streaming writer for either binary version, chosen by a
/// [`RecordFormat`].
#[derive(Debug)]
pub struct TraceWriter<W: Write>(PerVersion<BinaryTraceWriter<W>, V2TraceWriter<W>>);

impl<W: Write> TraceWriter<W> {
    /// Creates a writer in `format` and emits the header. Errors, and
    /// the panic on a v2 `block_len` of zero, as for
    /// [`BinaryTraceWriter::create`] and
    /// [`V2TraceWriter::create_with_block_len`].
    pub fn create(out: W, format: RecordFormat) -> Result<Self, TraceError> {
        Ok(TraceWriter(match format {
            RecordFormat::V1 => PerVersion::V1(BinaryTraceWriter::create(out)?),
            RecordFormat::V2 { block_len } => {
                PerVersion::V2(V2TraceWriter::create_with_block_len(out, block_len)?)
            }
        }))
    }

    /// Appends one record ([`TraceError::Io`] on write failure).
    pub fn write(&mut self, access: &MemoryAccess) -> Result<(), TraceError> {
        on_version!(&mut self.0, w => w.write(access))
    }

    /// Number of records written so far.
    pub fn records_written(&self) -> u64 {
        on_version!(&self.0, w => w.records_written())
    }

    /// Writes whatever the format keeps at the tail (the v2 block index
    /// and footer), flushes, and returns the underlying writer
    /// ([`TraceError::Io`] if a trailing write or the flush fails).
    pub fn finish(self) -> Result<W, TraceError> {
        on_version!(self.0, w => w.finish())
    }
}
