//! Write-ahead log with checksummed, length-prefixed records.
//!
//! The coordinator's database persists "node registrations, resource
//! allocations, and historical monitoring data" (§3.2). Durability here is
//! modelled over an in-memory byte log (the simulator has no real disk), but
//! the format is the real thing: `[len u32][crc32 u32][payload]` records,
//! torn-tail tolerance on recovery, and corruption detection. A payload is
//! encoded by the wire codec's [`WireWriter`] straight into the log's own
//! buffer, so an append allocates nothing but that buffer's doubling.

use bytes::BytesMut;
use gpunion_protocol::{WireError, WireSink, WireWriter};

/// Recovery outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recovery {
    /// Intact records, in append order.
    pub records: Vec<Vec<u8>>,
    /// Bytes of trailing garbage discarded (torn final write), if any.
    pub torn_tail_bytes: usize,
    /// Whether a checksum mismatch was found (corruption mid-log stops
    /// recovery at the last good record).
    pub corruption_detected: bool,
}

/// CRC-32 (IEEE 802.3, reflected) — implemented inline; small and standard.
fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// The write-ahead log.
#[derive(Debug, Default, Clone)]
pub struct Wal {
    buf: BytesMut,
}

/// Maximum record payload (1 MiB — DB rows are small).
const MAX_RECORD: usize = 1 << 20;

impl Wal {
    /// Append one record whose payload is what `encode` writes. A payload
    /// over 1 MiB is taken back out and refused.
    pub fn append(&mut self, encode: impl FnOnce(&mut WireWriter)) -> Result<(), WireError> {
        let header = self.buf.len();
        let mut w = WireWriter::from_buf(std::mem::take(&mut self.buf));
        w.put_fixed(&[0; 8]); // length and CRC, filled in below
        encode(&mut w);
        self.buf = w.into_buf();
        let payload = header + 8;
        let size = self.buf.len() - payload;
        if size > MAX_RECORD {
            self.buf.truncate(header);
            let (declared, max) = (size as u64, MAX_RECORD as u64);
            return Err(WireError::LengthOverflow { declared, max });
        }
        let crc = crc32(&self.buf[payload..]);
        self.buf[header..header + 4].copy_from_slice(&(size as u32).to_le_bytes());
        self.buf[header + 4..payload].copy_from_slice(&crc.to_le_bytes());
        Ok(())
    }

    /// Raw bytes (what would be on disk), for recovery and replay.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Recover records from raw log bytes. A short/torn tail is tolerated
    /// (reported, not fatal); a checksum mismatch stops recovery at the last
    /// good record and flags corruption.
    pub fn recover(bytes: &[u8]) -> Recovery {
        let mut records = Vec::new();
        let mut pos = 0;
        let corruption_detected = loop {
            let Some(header) = bytes.get(pos..pos + 8) else {
                break false;
            };
            let word = |at: usize| u32::from_le_bytes(header[at..at + 4].try_into().expect("4"));
            let len = word(0) as usize;
            if len > MAX_RECORD {
                break true; // a garbage length
            }
            let Some(payload) = bytes.get(pos + 8..pos + 8 + len) else {
                break false;
            };
            if crc32(payload) != word(4) {
                break true;
            }
            records.push(payload.to_vec());
            pos += 8 + len;
        };
        let torn_tail_bytes = if corruption_detected {
            0
        } else {
            bytes.len() - pos
        };
        Recovery {
            records,
            torn_tail_bytes,
            corruption_detected,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn put(wal: &mut Wal, payload: &[u8]) -> Result<(), WireError> {
        wal.append(|w| w.put_fixed(payload))
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn append_and_recover_all() {
        let mut wal = Wal::default();
        let payloads: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i; (i as usize + 1) * 3]).collect();
        for p in &payloads {
            put(&mut wal, p).unwrap();
        }
        let rec = Wal::recover(wal.bytes());
        assert_eq!(rec.records, payloads);
        assert_eq!(rec.torn_tail_bytes, 0);
        assert!(!rec.corruption_detected);
    }

    #[test]
    fn torn_tail_tolerated() {
        let mut wal = Wal::default();
        put(&mut wal, b"complete").unwrap();
        put(&mut wal, b"will-be-torn").unwrap();
        let bytes = wal.bytes();
        let torn = &bytes[..bytes.len() - 5];
        let rec = Wal::recover(torn);
        assert_eq!(rec.records.len(), 1);
        assert_eq!(rec.records[0], b"complete");
        assert!(rec.torn_tail_bytes > 0);
        assert!(!rec.corruption_detected);
    }

    #[test]
    fn corruption_detected_and_stops() {
        let mut wal = Wal::default();
        put(&mut wal, b"good-one").unwrap();
        put(&mut wal, b"corrupt-me").unwrap();
        put(&mut wal, b"after").unwrap();
        let mut bytes = wal.bytes().to_vec();
        // Flip a byte inside record 2's payload.
        let pos = 8 + 8 + 8 + 3;
        bytes[pos] ^= 0xFF;
        let rec = Wal::recover(&bytes);
        assert_eq!(rec.records.len(), 1);
        assert!(rec.corruption_detected);
    }

    #[test]
    fn oversized_record_rejected() {
        let mut wal = Wal::default();
        put(&mut wal, b"kept").unwrap();
        let before = wal.bytes().len();
        let huge = vec![0u8; MAX_RECORD + 1];
        assert!(put(&mut wal, &huge).is_err());
        assert_eq!(
            wal.bytes().len(),
            before,
            "the refused record is taken back out"
        );
        assert_eq!(Wal::recover(wal.bytes()).records, vec![b"kept".to_vec()]);
    }

    #[test]
    fn empty_log_recovers_empty() {
        let rec = Wal::recover(&[]);
        assert!(rec.records.is_empty());
        assert!(!rec.corruption_detected);
    }
}
