//! Byte-level primitives of the TLBT **v2** block format: zig-zag
//! varints, restart/delta record coding, block validation, and the
//! trailing index/footer layout.
//!
//! A v2 trace shares v1's 8-byte header (version field = 2) and then
//! packs records into fixed-count **blocks**:
//!
//! ```text
//! block   := restart delta*
//! restart := pc u64 LE, vaddr u64 LE, kind u8          (17 bytes)
//! delta   := kind u8,
//!            varint(zigzag(pc_i    - pc_{i-1})),
//!            varint(zigzag(vaddr_i - vaddr_{i-1}))
//! ```
//!
//! The restart record *is* the block's first record, stored absolutely
//! in the same 17-byte cell layout as a v1 record; every later record
//! is a signed delta against its immediate predecessor. After the last
//! block comes the **block index** (one fixed 16-byte entry per block:
//! absolute byte offset, first record number) and a fixed 32-byte
//! **footer** that locates the index — so `skip`/`seek` resolve any
//! record number to a block in O(1) and decode at most one block of
//! deltas, and shard cuts land on block boundaries without scanning.
//!
//! The normative specification is `docs/TRACE_FORMAT.md`; this module
//! holds the pure byte-level helpers shared by the v2 writer, the
//! whole-file cursor and the windowed streaming cursor in
//! [`crate::v2`].

use tlbsim_core::{AccessKind, MemoryAccess};

use crate::binary::decode_record;

/// Format version stamped in the header of block-compressed traces.
pub const V2_VERSION: u16 = 2;
/// Size of a block's restart record — the block's first record stored
/// absolutely, in the same cell layout as a v1 record.
pub const RESTART_BYTES: usize = 17;
/// Size of one block-index entry: `byte_offset: u64`, `first_record:
/// u64`, both little-endian.
pub const INDEX_ENTRY_BYTES: usize = 16;
/// Size of the fixed footer closing every v2 trace.
pub const FOOTER_BYTES: usize = 32;
/// Magic bytes ending the footer (and therefore the file).
pub const FOOTER_MAGIC: [u8; 4] = *b"TBIX";
/// Records per block when the writer is not told otherwise. Large
/// enough to amortise restarts and keep the index tiny, small enough
/// that block-granular quarantine loses little and a streaming window
/// of a few blocks stays cache-friendly.
pub const DEFAULT_BLOCK_LEN: u32 = 4096;

/// Maps a signed delta onto the unsigned varint domain so small
/// negative strides stay short (−1 → 1, 1 → 2, −2 → 3, …).
#[inline]
pub(crate) fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub(crate) fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Appends `v` as an LEB128 varint (7 bits per byte, high bit =
/// continuation; at most 10 bytes for a full u64).
pub(crate) fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Reads one varint at `*pos`, advancing it. `None` if the varint runs
/// off the end of `bytes` or past the 10-byte maximum.
#[inline]
pub(crate) fn read_varint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *bytes.get(*pos)?;
        *pos += 1;
        if shift >= 64 {
            return None;
        }
        value |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Some(value);
        }
        shift += 7;
    }
}

/// Encodes `access` as a 17-byte restart record (absolute fields).
pub(crate) fn encode_restart(out: &mut Vec<u8>, access: &MemoryAccess) {
    out.extend_from_slice(&access.pc.raw().to_le_bytes());
    out.extend_from_slice(&access.vaddr.raw().to_le_bytes());
    out.push(kind_byte(access.kind));
}

/// Encodes `access` as a delta record against the previous record's
/// pc/vaddr.
pub(crate) fn encode_delta(
    out: &mut Vec<u8>,
    prev_pc: u64,
    prev_vaddr: u64,
    access: &MemoryAccess,
) {
    out.push(kind_byte(access.kind));
    put_varint(out, zigzag(access.pc.raw().wrapping_sub(prev_pc) as i64));
    put_varint(
        out,
        zigzag(access.vaddr.raw().wrapping_sub(prev_vaddr) as i64),
    );
}

#[inline]
fn kind_byte(kind: AccessKind) -> u8 {
    match kind {
        AccessKind::Read => 0,
        AccessKind::Write => 1,
    }
}

/// What went wrong decoding inside one block. The cursor maps these to
/// typed [`TraceError`](crate::TraceError)s carrying the block index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BlockFault {
    /// The block's extent ends inside the 17-byte restart record.
    Restart,
    /// A delta record ends early, a varint overruns, or (checked at
    /// block completion) spare bytes trail the last record.
    Payload,
    /// A restart or delta carries an invalid access-kind byte.
    BadKind(u8),
}

/// Incremental decode position inside one block. Plain numbers only, so
/// a cursor can persist it across `decode_batch` calls without holding
/// a borrow of the block bytes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DecodeState {
    /// Which block the state describes (`u64::MAX` = none).
    pub block: u64,
    /// Whether a quarantine cursor has already validated this block.
    pub checked: bool,
    /// Records decoded from the block so far.
    pub emitted: u64,
    /// Byte position of the next record within the block.
    pub pos: usize,
    /// Previous record's pc (delta base).
    pub prev_pc: u64,
    /// Previous record's vaddr (delta base).
    pub prev_vaddr: u64,
}

impl DecodeState {
    /// No block entered yet.
    pub(crate) fn none() -> Self {
        DecodeState {
            block: u64::MAX,
            checked: false,
            emitted: 0,
            pos: 0,
            prev_pc: 0,
            prev_vaddr: 0,
        }
    }

    /// Positioned at the start of `block`.
    pub(crate) fn at(block: u64) -> Self {
        DecodeState {
            block,
            ..DecodeState::none()
        }
    }
}

/// Decodes the next record of the block whose bytes are `bytes`,
/// advancing `state`. The first call per block decodes the restart;
/// later calls decode deltas. The caller bounds the record count — this
/// function never checks it.
#[inline]
pub(crate) fn next_record(
    bytes: &[u8],
    state: &mut DecodeState,
) -> Result<MemoryAccess, BlockFault> {
    if state.emitted == 0 {
        if bytes.len() < RESTART_BYTES {
            return Err(BlockFault::Restart);
        }
        let access = decode_record(bytes).map_err(BlockFault::BadKind)?;
        state.pos = RESTART_BYTES;
        state.emitted = 1;
        state.prev_pc = access.pc.raw();
        state.prev_vaddr = access.vaddr.raw();
        return Ok(access);
    }
    let mut pos = state.pos;
    let kind = decode_kind(*bytes.get(pos).ok_or(BlockFault::Payload)?)?;
    pos += 1;
    let dpc = read_varint(bytes, &mut pos).ok_or(BlockFault::Payload)?;
    let dvaddr = read_varint(bytes, &mut pos).ok_or(BlockFault::Payload)?;
    let pc = state.prev_pc.wrapping_add(unzigzag(dpc) as u64);
    let vaddr = state.prev_vaddr.wrapping_add(unzigzag(dvaddr) as u64);
    state.pos = pos;
    state.emitted += 1;
    state.prev_pc = pc;
    state.prev_vaddr = vaddr;
    Ok(MemoryAccess {
        pc: pc.into(),
        vaddr: vaddr.into(),
        kind,
    })
}

#[inline]
fn decode_kind(byte: u8) -> Result<AccessKind, BlockFault> {
    match byte {
        0 => Ok(AccessKind::Read),
        1 => Ok(AccessKind::Write),
        found => Err(BlockFault::BadKind(found)),
    }
}

/// Walks a whole block without emitting, checking that exactly
/// `records` records decode and the payload has no spare bytes. This is
/// the quarantine cursor's validate-before-emit pass; it allocates
/// nothing.
pub(crate) fn validate(bytes: &[u8], records: u64) -> Result<(), BlockFault> {
    let mut state = DecodeState::at(0);
    for _ in 0..records {
        next_record(bytes, &mut state)?;
    }
    if state.pos != bytes.len() {
        return Err(BlockFault::Payload);
    }
    Ok(())
}

/// The fixed 32-byte footer closing every v2 trace:
///
/// ```text
/// index_offset  : u64 LE   absolute byte offset of the block index
/// total_records : u64 LE
/// block_len     : u32 LE   records per block (last block may be short)
/// block_count   : u32 LE
/// reserved      : u32 LE   zero
/// magic         : 4 bytes  "TBIX"
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Footer {
    /// Absolute byte offset of the block index.
    pub index_offset: u64,
    /// Records in the trace.
    pub total_records: u64,
    /// Records per block (the final block may hold fewer).
    pub block_len: u32,
    /// Number of blocks (and index entries).
    pub block_count: u32,
}

impl Footer {
    /// Serialises the footer.
    pub(crate) fn encode(&self) -> [u8; FOOTER_BYTES] {
        let mut out = [0u8; FOOTER_BYTES];
        out[0..8].copy_from_slice(&self.index_offset.to_le_bytes());
        out[8..16].copy_from_slice(&self.total_records.to_le_bytes());
        out[16..20].copy_from_slice(&self.block_len.to_le_bytes());
        out[20..24].copy_from_slice(&self.block_count.to_le_bytes());
        // bytes 24..28 reserved (zero)
        out[28..32].copy_from_slice(&FOOTER_MAGIC);
        out
    }

    /// Parses the footer from the last [`FOOTER_BYTES`] of a file.
    /// `None` if `tail` is not exactly footer-sized or the magic is
    /// absent.
    pub(crate) fn parse(tail: &[u8]) -> Option<Footer> {
        if tail.len() != FOOTER_BYTES || tail[28..32] != FOOTER_MAGIC {
            return None;
        }
        Some(Footer {
            index_offset: u64::from_le_bytes(tail[0..8].try_into().expect("8-byte slice")),
            total_records: u64::from_le_bytes(tail[8..16].try_into().expect("8-byte slice")),
            block_len: u32::from_le_bytes(tail[16..20].try_into().expect("4-byte slice")),
            block_count: u32::from_le_bytes(tail[20..24].try_into().expect("4-byte slice")),
        })
    }
}

/// Parses index entry `i` out of raw index bytes (relative to the
/// index start): returns `(byte_offset, first_record)`.
#[inline]
pub(crate) fn index_entry(index_bytes: &[u8], i: u64) -> (u64, u64) {
    let base = i as usize * INDEX_ENTRY_BYTES;
    let offset = u64::from_le_bytes(
        index_bytes[base..base + 8]
            .try_into()
            .expect("8-byte slice"),
    );
    let first = u64::from_le_bytes(
        index_bytes[base + 8..base + 16]
            .try_into()
            .expect("8-byte slice"),
    );
    (offset, first)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zigzag_round_trips_extremes() {
        for v in [0i64, 1, -1, 2, -2, i64::MAX, i64::MIN, 4096, -4096] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn varint_round_trips_and_rejects_overruns() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 300, u64::MAX, 1 << 35];
        for &v in &values {
            put_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(read_varint(&buf, &mut pos), Some(v));
        }
        assert_eq!(pos, buf.len());
        // Truncated continuation.
        let mut pos = 0;
        assert_eq!(read_varint(&[0x80], &mut pos), None);
        // More than 10 bytes of continuation.
        let mut pos = 0;
        assert_eq!(read_varint(&[0xFF; 11], &mut pos), None);
    }

    #[test]
    fn block_coding_round_trips() {
        let records: Vec<MemoryAccess> = (0..100u64)
            .map(|i| {
                if i % 3 == 0 {
                    MemoryAccess::write(0x400 + i * 4, i * 4096)
                } else {
                    MemoryAccess::read(0x400000 - i, u64::MAX - i * 64)
                }
            })
            .collect();
        let mut bytes = Vec::new();
        encode_restart(&mut bytes, &records[0]);
        for pair in records.windows(2) {
            encode_delta(&mut bytes, pair[0].pc.raw(), pair[0].vaddr.raw(), &pair[1]);
        }
        assert!(validate(&bytes, 100).is_ok());
        let mut state = DecodeState::at(0);
        for want in &records {
            assert_eq!(next_record(&bytes, &mut state).unwrap(), *want);
        }
        assert_eq!(state.pos, bytes.len());
        // Wrong expected count or spare bytes fail validation.
        assert_eq!(validate(&bytes, 101), Err(BlockFault::Payload));
        let mut padded = bytes.clone();
        padded.push(0);
        assert_eq!(validate(&padded, 100), Err(BlockFault::Payload));
        // A short restart is its own fault.
        assert_eq!(validate(&bytes[..10], 1), Err(BlockFault::Restart));
        // A smashed kind byte is a kind fault.
        let mut smashed = bytes.clone();
        smashed[16] = 0xEE;
        assert_eq!(validate(&smashed, 100), Err(BlockFault::BadKind(0xEE)));
    }

    #[test]
    fn footer_round_trips_and_rejects_bad_magic() {
        let footer = Footer {
            index_offset: 12345,
            total_records: 99,
            block_len: 64,
            block_count: 2,
        };
        let bytes = footer.encode();
        assert_eq!(Footer::parse(&bytes), Some(footer));
        let mut bad = bytes;
        bad[31] ^= 0xFF;
        assert_eq!(Footer::parse(&bad), None);
        assert_eq!(Footer::parse(&bytes[..31]), None);
    }
}
