//! The durable record vocabulary and its wire codec.
//!
//! Records ride inside the shared `[len: u32 LE][crc: u32 LE][payload]`
//! frames of [`crate::frame`]; this module owns only the payload format.
//! A payload starts with a one-byte record tag; all integers are
//! little-endian.

pub use crate::frame::{fnv1a_32, ScanStop, FRAME_HEADER};
use crate::frame::{put_str, put_u32, put_u64, scan_with, write_frame, Reader};

/// Payload tag for [`Record::Intern`].
const TAG_INTERN: u8 = 1;
/// Payload tag for [`Record::DnfMemo`].
const TAG_DNF_MEMO: u8 = 2;
/// Payload tag for [`Record::ProbMemo`].
const TAG_PROB_MEMO: u8 = 3;

/// A probability method, flattened to plain integers so `p3-store` does not
/// depend on `p3-core`'s `ProbMethod` enum. The mapping lives in `p3-core`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MethodCode {
    /// Which estimator: 0 exact, 1 bdd, 2 mc, 3 kl, 4 pmc.
    pub tag: u8,
    /// Monte-Carlo sample count (0 for deterministic methods).
    pub samples: u64,
    /// Monte-Carlo seed (0 for deterministic methods).
    pub seed: u64,
    /// Worker threads for parallel estimators (0 otherwise).
    pub threads: u64,
}

/// One replayable unit of provenance state.
#[derive(Clone, Debug, PartialEq)]
pub enum Record {
    /// One hash-consed DNF formula, as raw `VarId` values per monomial.
    /// Intern records appear in the log in `DnfId` allocation order, so a
    /// forward replay into a fresh `DnfStore` reproduces identical ids.
    Intern {
        /// The formula's monomials; each inner vec lists literal var ids.
        monomials: Vec<Vec<u32>>,
    },
    /// A query-string → provenance-polynomial memo entry.
    DnfMemo {
        /// The query atom, exactly as the client wrote it.
        query: String,
        /// Extraction depth cap; `u64::MAX` encodes "unbounded".
        depth: u64,
        /// The polynomial's raw `DnfId`.
        id: u32,
    },
    /// A (polynomial, method) → probability memo entry.
    ProbMemo {
        /// The polynomial's raw `DnfId`.
        id: u32,
        /// The probability method that produced `prob`.
        method: MethodCode,
        /// The memoized probability.
        prob: f64,
    },
}

impl Record {
    /// Short kind name for logs and stats.
    pub fn kind(&self) -> &'static str {
        match self {
            Record::Intern { .. } => "intern",
            Record::DnfMemo { .. } => "dnf_memo",
            Record::ProbMemo { .. } => "prob_memo",
        }
    }
}

/// FNV-1a 64-bit over program source text — the store's staleness
/// fingerprint. Any textual change to the program (even whitespace)
/// invalidates the store, which errs on the side of never replaying
/// memos against a program they were not computed for.
pub fn content_hash(source: &str) -> u64 {
    crate::frame::fnv1a_64(source)
}

/// Appends `record` to `out` as one framed `[len][crc][payload]` unit.
pub fn encode_frame(record: &Record, out: &mut Vec<u8>) {
    let mut payload = Vec::with_capacity(32);
    match record {
        Record::Intern { monomials } => {
            payload.push(TAG_INTERN);
            put_u32(&mut payload, monomials.len() as u32);
            for lits in monomials {
                put_u32(&mut payload, lits.len() as u32);
                for &lit in lits {
                    put_u32(&mut payload, lit);
                }
            }
        }
        Record::DnfMemo { query, depth, id } => {
            payload.push(TAG_DNF_MEMO);
            put_u32(&mut payload, *id);
            put_u64(&mut payload, *depth);
            put_str(&mut payload, query);
        }
        Record::ProbMemo { id, method, prob } => {
            payload.push(TAG_PROB_MEMO);
            put_u32(&mut payload, *id);
            payload.push(method.tag);
            put_u64(&mut payload, method.samples);
            put_u64(&mut payload, method.seed);
            put_u64(&mut payload, method.threads);
            put_u64(&mut payload, prob.to_bits());
        }
    }
    write_frame(&payload, out);
}

/// Result of scanning a log buffer: the decoded records, the byte offset
/// just past the last good frame, and why the scan stopped there.
pub struct Scan {
    /// Records decoded from valid frames, in file order.
    pub records: Vec<Record>,
    /// Offset of the first byte NOT covered by a valid frame. Truncating
    /// the file to this length removes exactly the bad tail.
    pub valid_len: u64,
    /// Why the scan stopped.
    pub stop: ScanStop,
}

fn decode_payload(payload: &[u8]) -> Option<Record> {
    let mut r = Reader::new(payload);
    let record = match r.u8()? {
        TAG_INTERN => {
            let n = r.u32()? as usize;
            let mut monomials = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                let k = r.u32()? as usize;
                let mut lits = Vec::with_capacity(k.min(1024));
                for _ in 0..k {
                    lits.push(r.u32()?);
                }
                monomials.push(lits);
            }
            Record::Intern { monomials }
        }
        TAG_DNF_MEMO => {
            let id = r.u32()?;
            let depth = r.u64()?;
            let query = r.string()?;
            Record::DnfMemo { query, depth, id }
        }
        TAG_PROB_MEMO => {
            let id = r.u32()?;
            let method = MethodCode {
                tag: r.u8()?,
                samples: r.u64()?,
                seed: r.u64()?,
                threads: r.u64()?,
            };
            let prob = f64::from_bits(r.u64()?);
            Record::ProbMemo { id, method, prob }
        }
        _ => return None,
    };
    // Trailing garbage inside a checksummed payload means the writer and
    // reader disagree on the format — treat as corrupt.
    r.done().then_some(record)
}

/// Scans `buf` as a sequence of frames, stopping at the first bad one.
/// Never panics on arbitrary input.
pub fn scan_frames(buf: &[u8]) -> Scan {
    let mut records = Vec::new();
    let scan = scan_with(buf, |payload| match decode_payload(payload) {
        Some(record) => {
            records.push(record);
            true
        }
        None => false,
    });
    Scan {
        records,
        valid_len: scan.valid_len,
        stop: scan.stop,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Record> {
        vec![
            Record::Intern { monomials: vec![] },
            Record::Intern {
                monomials: vec![vec![]],
            },
            Record::Intern {
                monomials: vec![vec![0, 7, 42], vec![3]],
            },
            Record::DnfMemo {
                query: "path(a, b)".to_string(),
                depth: u64::MAX,
                id: 17,
            },
            Record::ProbMemo {
                id: 17,
                method: MethodCode {
                    tag: 2,
                    samples: 100_000,
                    seed: 42,
                    threads: 0,
                },
                prob: 0.123_456_789,
            },
        ]
    }

    #[test]
    fn frames_round_trip() {
        let records = samples();
        let mut buf = Vec::new();
        for r in &records {
            encode_frame(r, &mut buf);
        }
        let scan = scan_frames(&buf);
        assert_eq!(scan.stop, ScanStop::Clean);
        assert_eq!(scan.valid_len, buf.len() as u64);
        assert_eq!(scan.records, records);
    }

    #[test]
    fn torn_tail_keeps_whole_frames() {
        let records = samples();
        let mut buf = Vec::new();
        for r in &records {
            encode_frame(r, &mut buf);
        }
        let whole = buf.len();
        // Cut into the last frame at every possible depth.
        let mut last_start = 0;
        {
            // Recompute the last frame's start by scanning lengths.
            let mut pos = 0;
            while pos < whole {
                let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().unwrap()) as usize;
                if pos + FRAME_HEADER + len == whole {
                    last_start = pos;
                }
                pos += FRAME_HEADER + len;
            }
        }
        for cut in last_start + 1..whole {
            let scan = scan_frames(&buf[..cut]);
            assert_eq!(scan.stop, ScanStop::TornTail, "cut at {cut}");
            assert_eq!(scan.valid_len as usize, last_start);
            assert_eq!(scan.records, records[..records.len() - 1]);
        }
    }

    #[test]
    fn flipped_bit_is_detected() {
        let mut buf = Vec::new();
        for r in samples() {
            encode_frame(&r, &mut buf);
        }
        let mid = buf.len() / 2;
        buf[mid] ^= 0x40;
        let scan = scan_frames(&buf);
        assert!(matches!(scan.stop, ScanStop::Corrupt | ScanStop::TornTail));
        assert!(scan.records.len() < samples().len());
    }

    #[test]
    fn content_hash_is_stable_and_sensitive() {
        let a = content_hash("0.3::edge(a, b).\n");
        assert_eq!(a, content_hash("0.3::edge(a, b).\n"));
        assert_ne!(a, content_hash("0.4::edge(a, b).\n"));
        assert_ne!(a, content_hash("0.3::edge(a, b)."));
    }

    #[test]
    fn nan_probability_round_trips_bitwise() {
        let record = Record::ProbMemo {
            id: 1,
            method: MethodCode {
                tag: 0,
                samples: 0,
                seed: 0,
                threads: 0,
            },
            prob: f64::NAN,
        };
        let mut buf = Vec::new();
        encode_frame(&record, &mut buf);
        let scan = scan_frames(&buf);
        match &scan.records[0] {
            Record::ProbMemo { prob, .. } => assert!(prob.is_nan()),
            other => panic!("wrong record {other:?}"),
        }
    }
}
