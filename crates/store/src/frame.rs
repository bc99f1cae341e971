//! The shared checksummed length-framed record codec.
//!
//! Every durable log in the workspace — the provenance intern log and
//! snapshots (see [`crate::record`]) and `p3-audit`'s per-request audit
//! segments — frames its payloads the same way:
//!
//! ```text
//! [len: u32 LE][crc: u32 LE][payload bytes]
//! ```
//!
//! where `crc` is FNV-1a-32 over the payload. The format is deliberately
//! dumb — no compression, no back-references — so a torn or corrupt
//! frame can never damage anything before it, and replay is a single
//! forward scan. This module owns the payload-agnostic half: framing,
//! checksumming, the forward scan with torn-tail/corruption
//! classification, and the little-endian field codec ([`put_u32`],
//! [`put_u64`], [`put_str`], [`Reader`]) both payload vocabularies are
//! written in. The vocabularies themselves live with their owners.

use std::fmt;

/// Frame header size: length + checksum.
pub const FRAME_HEADER: usize = 8;

/// Upper bound on a single payload, to reject absurd lengths from a
/// corrupt header before allocating.
pub const MAX_PAYLOAD: u32 = 64 << 20;

/// FNV-1a 32-bit, the frame checksum.
pub fn fnv1a_32(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// FNV-1a 64-bit over arbitrary text. `p3-store` fingerprints program
/// source with it; `p3-audit` hashes query text into audit records.
pub fn fnv1a_64(source: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in source.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Appends one framed `[len][crc][payload]` unit to `out`.
pub fn write_frame(payload: &[u8], out: &mut Vec<u8>) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&fnv1a_32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Why a forward scan stopped before the end of the buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScanStop {
    /// Clean end of buffer: every byte belonged to a whole, valid frame.
    Clean,
    /// The final frame is incomplete (torn tail from a crash mid-write).
    TornTail,
    /// A frame failed its checksum or carried a malformed payload.
    Corrupt,
}

impl fmt::Display for ScanStop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScanStop::Clean => write!(f, "clean"),
            ScanStop::TornTail => write!(f, "torn tail"),
            ScanStop::Corrupt => write!(f, "corrupt frame"),
        }
    }
}

/// Result of scanning a log buffer: how many frames decoded, the byte
/// offset just past the last good frame, and why the scan stopped there.
pub struct FrameScan {
    /// Frames accepted by the decoder, in file order.
    pub frames: usize,
    /// Offset of the first byte NOT covered by a valid frame. Truncating
    /// the file to this length removes exactly the bad tail.
    pub valid_len: u64,
    /// Why the scan stopped.
    pub stop: ScanStop,
}

/// Scans `buf` as a sequence of frames, handing each checksum-valid
/// payload to `decode`. A `decode` returning `false` marks the frame
/// corrupt (writer/reader format disagreement) and stops the scan at its
/// start, exactly like a failed checksum. Never panics on arbitrary
/// input.
pub fn scan_with(buf: &[u8], mut decode: impl FnMut(&[u8]) -> bool) -> FrameScan {
    let mut frames = 0usize;
    let mut pos = 0usize;
    loop {
        if pos == buf.len() {
            return FrameScan {
                frames,
                valid_len: pos as u64,
                stop: ScanStop::Clean,
            };
        }
        let Some(header) = buf.get(pos..pos + FRAME_HEADER) else {
            return FrameScan {
                frames,
                valid_len: pos as u64,
                stop: ScanStop::TornTail,
            };
        };
        let len = u32::from_le_bytes(header[0..4].try_into().unwrap());
        let crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
        if len > MAX_PAYLOAD {
            return FrameScan {
                frames,
                valid_len: pos as u64,
                stop: ScanStop::Corrupt,
            };
        }
        let start = pos + FRAME_HEADER;
        let Some(payload) = buf.get(start..start + len as usize) else {
            return FrameScan {
                frames,
                valid_len: pos as u64,
                stop: ScanStop::TornTail,
            };
        };
        if fnv1a_32(payload) != crc || !decode(payload) {
            return FrameScan {
                frames,
                valid_len: pos as u64,
                stop: ScanStop::Corrupt,
            };
        }
        frames += 1;
        pos = start + len as usize;
    }
}

/// Appends `v` little-endian.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends `v` little-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends `s` as `u32`-length-prefixed UTF-8.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Little-endian payload reader with bounds checks; `None` means
/// truncated or corrupt.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Reads `buf` from its start.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let bytes = self.buf.get(self.pos..self.pos.checked_add(n)?)?;
        self.pos += n;
        Some(bytes)
    }

    /// One byte.
    pub fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
    }

    /// A string written by [`put_str`].
    pub fn string(&mut self) -> Option<String> {
        let n = self.u32()? as usize;
        String::from_utf8(self.take(n)?.to_vec()).ok()
    }

    /// Whether every byte has been read.
    pub fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_payload_agnostically() {
        let payloads: Vec<Vec<u8>> = vec![vec![], vec![7], b"hello \xff world".to_vec()];
        let mut buf = Vec::new();
        for p in &payloads {
            write_frame(p, &mut buf);
        }
        let mut seen = Vec::new();
        let scan = scan_with(&buf, |p| {
            seen.push(p.to_vec());
            true
        });
        assert_eq!(scan.stop, ScanStop::Clean);
        assert_eq!(scan.frames, payloads.len());
        assert_eq!(scan.valid_len, buf.len() as u64);
        assert_eq!(seen, payloads);
    }

    #[test]
    fn decoder_rejection_is_corruption_at_the_frame_start() {
        let mut buf = Vec::new();
        write_frame(b"good", &mut buf);
        let first_end = buf.len();
        write_frame(b"bad", &mut buf);
        let scan = scan_with(&buf, |p| p == b"good");
        assert_eq!(scan.stop, ScanStop::Corrupt);
        assert_eq!(scan.frames, 1);
        assert_eq!(scan.valid_len as usize, first_end);
    }

    #[test]
    fn every_cut_is_a_torn_tail() {
        let mut buf = Vec::new();
        write_frame(b"abcdef", &mut buf);
        for cut in 1..buf.len() {
            let scan = scan_with(&buf[..cut], |_| true);
            assert_eq!(scan.stop, ScanStop::TornTail, "cut at {cut}");
            assert_eq!(scan.frames, 0);
            assert_eq!(scan.valid_len, 0);
        }
    }

    #[test]
    fn absurd_length_is_corrupt_not_alloc() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        let scan = scan_with(&buf, |_| true);
        assert_eq!(scan.stop, ScanStop::Corrupt);
        assert_eq!(scan.valid_len, 0);
    }
}
