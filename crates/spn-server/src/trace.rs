//! The `.spntrace` file: a compact, versioned, checksummed record of
//! one request stream.
//!
//! ## Format (version 1, all integers little-endian)
//!
//! ```text
//! magic        "SPNT"                        4 bytes
//! version      u32                           = 1
//! run_seed     u64      the loadgen run seed
//! model_count  u16
//! models       model_count × (len u16, utf-8 bytes)   sorted, deduped
//! record_count u32
//! records      record_count × {
//!     arrival_ns     u64   offset from the run's start
//!     conn           u32   originating connection (open-loop lane)
//!     model_id       u16   index into the model table
//!     num_samples    u32
//!     num_features   u32
//!     domain         u8
//!     seed           u64   regenerates the payload bit-for-bit
//!     payload_digest u64   digest_bytes() of the payload as sent
//!     has_reply      u8    0 or 1
//!     reply_digest   u64   digest_lls() of the Ok reply (iff has_reply)
//! }
//! checksum     u64      digest_bytes() of every preceding byte
//! ```
//!
//! The payload itself is *not* stored: loadgen payloads are a pure
//! function of the per-request seed (`spn_server::synthetic_samples`),
//! so the seed plus shape regenerates them exactly, and the stored
//! digest proves the regeneration matches what was sent. That keeps
//! traces a few dozen bytes per request regardless of request size.
//!
//! Decoding is defensive by construction: the checksum is verified
//! before any field is trusted (so corrupted length fields can never
//! drive allocations), every read is bounds-checked, and all failures
//! are typed [`TraceError`]s — a hostile or truncated file must never
//! panic the replayer.

use crate::digest::digest_bytes;
use std::collections::BTreeSet;
use std::collections::HashMap;
use std::fmt;
use std::path::Path;

/// File magic.
pub(crate) const TRACE_MAGIC: [u8; 4] = *b"SPNT";
/// Current format version.
pub(crate) const TRACE_VERSION: u32 = 1;

/// Why a trace failed to decode (or encode). Typed — corrupt input is
/// an expected condition, never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The file does not start with `"SPNT"`.
    BadMagic,
    /// The file's version is newer than this build understands.
    UnsupportedVersion(u32),
    /// The file ends before the structure it declares.
    Truncated {
        /// Bytes the next field needed.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// The whole-file checksum does not match the content.
    ChecksumMismatch,
    /// Structurally invalid content (bad model index, trailing bytes,
    /// non-UTF-8 model name, …).
    Corrupt(String),
    /// Arrival timestamps on one connection go backwards.
    NonMonotoneArrival {
        /// The offending connection.
        conn: u32,
    },
    /// Reading or writing the file failed.
    Io(String),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::BadMagic => write!(f, "not a .spntrace file (bad magic)"),
            TraceError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported trace version {v} (this build reads <= {TRACE_VERSION})"
                )
            }
            TraceError::Truncated { needed, available } => {
                write!(
                    f,
                    "truncated trace: needed {needed} more byte(s), {available} available"
                )
            }
            TraceError::ChecksumMismatch => write!(f, "trace checksum mismatch (corrupt file)"),
            TraceError::Corrupt(m) => write!(f, "corrupt trace: {m}"),
            TraceError::NonMonotoneArrival { conn } => {
                write!(
                    f,
                    "corrupt trace: arrivals on connection {conn} go backwards"
                )
            }
            TraceError::Io(m) => write!(f, "trace i/o: {m}"),
        }
    }
}
impl std::error::Error for TraceError {}

/// One recorded request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Nanoseconds between the run's start and this request's issue.
    pub arrival_ns: u64,
    /// The connection that issued it (its open-loop lane at replay).
    pub conn: u32,
    /// Model name on the wire.
    pub model: String,
    /// Samples in the request.
    pub num_samples: u32,
    /// Features per sample.
    pub num_features: u32,
    /// Feature domain the payload was drawn from.
    pub domain: u8,
    /// Per-request seed; regenerates the payload bit-for-bit.
    pub seed: u64,
    /// Digest of the payload as originally sent.
    pub payload_digest: u64,
    /// Digest of the recorded `Ok` reply, if the server answered one.
    pub reply_digest: Option<u64>,
}

/// A recorded request stream.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    /// The loadgen run seed the stream was generated from.
    pub run_seed: u64,
    /// Requests, sorted by `(arrival_ns, conn)`; arrivals are
    /// non-decreasing within each connection.
    pub records: Vec<TraceRecord>,
}

/// `arrival_ns / speed`, in monotone integer arithmetic: the speed is
/// snapped to millionths and applied as one floor division that
/// saturates at `u64::MAX`, so for any fixed `speed > 0` the map
/// preserves (non-strict) arrival order — the property the open-loop
/// replayer and its property tests rely on. Both inputs come from
/// outside (the trace file and `--speed`), so a slow-down that would
/// overflow pins to the end of time instead of wrapping.
pub fn scaled_arrival_ns(arrival_ns: u64, speed: f64) -> u64 {
    assert!(
        speed > 0.0 && speed.is_finite(),
        "speed must be positive and finite"
    );
    let speed_millionths = ((speed * 1e6).round() as u128).max(1);
    u64::try_from(arrival_ns as u128 * 1_000_000 / speed_millionths).unwrap_or(u64::MAX)
}

impl Trace {
    /// Serialize to the `.spntrace` byte format.
    pub fn encode(&self) -> Result<Vec<u8>, TraceError> {
        // Model table: sorted, deduped.
        let table: BTreeSet<&String> = self.records.iter().map(|r| &r.model).collect();
        let models: Vec<&String> = table.into_iter().collect();
        let ids: HashMap<&str, u16> = models
            .iter()
            .enumerate()
            .map(|(i, m)| (m.as_str(), i as u16))
            .collect();
        if models.len() > u16::MAX as usize {
            return Err(TraceError::Corrupt(format!(
                "{} distinct models exceed the u16 model table",
                models.len()
            )));
        }
        if self.records.len() > u32::MAX as usize {
            return Err(TraceError::Corrupt(format!(
                "{} records exceed the u32 record count",
                self.records.len()
            )));
        }

        let mut out = Vec::with_capacity(24 + self.records.len() * 48);
        out.extend_from_slice(&TRACE_MAGIC);
        out.extend_from_slice(&TRACE_VERSION.to_le_bytes());
        out.extend_from_slice(&self.run_seed.to_le_bytes());
        out.extend_from_slice(&(models.len() as u16).to_le_bytes());
        for m in &models {
            let bytes = m.as_bytes();
            if bytes.len() > u16::MAX as usize {
                return Err(TraceError::Corrupt(format!(
                    "model name of {} bytes",
                    bytes.len()
                )));
            }
            out.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
            out.extend_from_slice(bytes);
        }
        out.extend_from_slice(&(self.records.len() as u32).to_le_bytes());
        for r in &self.records {
            out.extend_from_slice(&r.arrival_ns.to_le_bytes());
            out.extend_from_slice(&r.conn.to_le_bytes());
            out.extend_from_slice(&ids[r.model.as_str()].to_le_bytes());
            out.extend_from_slice(&r.num_samples.to_le_bytes());
            out.extend_from_slice(&r.num_features.to_le_bytes());
            out.push(r.domain);
            out.extend_from_slice(&r.seed.to_le_bytes());
            out.extend_from_slice(&r.payload_digest.to_le_bytes());
            match r.reply_digest {
                Some(d) => {
                    out.push(1);
                    out.extend_from_slice(&d.to_le_bytes());
                }
                None => out.push(0),
            }
        }
        let checksum = digest_bytes(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        Ok(out)
    }

    /// Parse the `.spntrace` byte format. Verifies the checksum before
    /// trusting any field; validates structure and per-connection
    /// arrival monotonicity.
    pub fn decode(bytes: &[u8]) -> Result<Trace, TraceError> {
        // Smallest conceivable file: magic + version + seed +
        // model_count + record_count + checksum.
        const MIN_LEN: usize = 4 + 4 + 8 + 2 + 4 + 8;
        let Some((body, stored)) = bytes
            .split_last_chunk::<8>()
            .filter(|_| bytes.len() >= MIN_LEN)
        else {
            return Err(TraceError::Truncated {
                needed: MIN_LEN - bytes.len(),
                available: bytes.len(),
            });
        };
        // Magic and version first (so a wrong-format or future-version
        // file gets the right diagnostic), then the checksum over
        // everything before the trailer — only then are length fields
        // trusted.
        let mut rd = Reader { rest: body };
        if rd.array()? != TRACE_MAGIC {
            return Err(TraceError::BadMagic);
        }
        let version = rd.u32()?;
        if version != TRACE_VERSION {
            return Err(TraceError::UnsupportedVersion(version));
        }
        if digest_bytes(body) != u64::from_le_bytes(*stored) {
            return Err(TraceError::ChecksumMismatch);
        }

        let run_seed = rd.u64()?;
        let model_count = rd.u16()? as usize;
        let mut models = Vec::with_capacity(model_count.min(1024));
        for _ in 0..model_count {
            let len = rd.u16()? as usize;
            let raw = rd.bytes(len)?;
            let name = std::str::from_utf8(raw)
                .map_err(|_| TraceError::Corrupt("model name is not UTF-8".into()))?;
            models.push(name.to_string());
        }
        let record_count = rd.u32()? as usize;
        let mut records = Vec::with_capacity(record_count.min(1 << 20));
        let mut last_arrival: HashMap<u32, u64> = HashMap::new();
        for _ in 0..record_count {
            let arrival_ns = rd.u64()?;
            let conn = rd.u32()?;
            let model_id = rd.u16()? as usize;
            let model = models
                .get(model_id)
                .ok_or_else(|| {
                    TraceError::Corrupt(format!(
                        "model id {model_id} out of range ({} models)",
                        models.len()
                    ))
                })?
                .clone();
            let num_samples = rd.u32()?;
            let num_features = rd.u32()?;
            let domain = rd.u8()?;
            let seed = rd.u64()?;
            let payload_digest = rd.u64()?;
            let reply_digest = match rd.u8()? {
                0 => None,
                1 => Some(rd.u64()?),
                other => {
                    return Err(TraceError::Corrupt(format!("bad reply flag {other}")));
                }
            };
            if let Some(&prev) = last_arrival.get(&conn) {
                if arrival_ns < prev {
                    return Err(TraceError::NonMonotoneArrival { conn });
                }
            }
            last_arrival.insert(conn, arrival_ns);
            records.push(TraceRecord {
                arrival_ns,
                conn,
                model,
                num_samples,
                num_features,
                domain,
                seed,
                payload_digest,
                reply_digest,
            });
        }
        if !rd.rest.is_empty() {
            return Err(TraceError::Corrupt(format!(
                "{} trailing byte(s) after the last record",
                rd.rest.len()
            )));
        }
        Ok(Trace { run_seed, records })
    }

    /// Write the encoded trace to `path`.
    pub fn write_file(&self, path: impl AsRef<Path>) -> Result<(), TraceError> {
        let bytes = self.encode()?;
        std::fs::write(path.as_ref(), bytes)
            .map_err(|e| TraceError::Io(format!("{}: {e}", path.as_ref().display())))
    }

    /// Read and decode a trace from `path`.
    pub fn read_file(path: impl AsRef<Path>) -> Result<Trace, TraceError> {
        let bytes = std::fs::read(path.as_ref())
            .map_err(|e| TraceError::Io(format!("{}: {e}", path.as_ref().display())))?;
        Trace::decode(&bytes)
    }

    /// Total samples across all records.
    pub(crate) fn total_samples(&self) -> u64 {
        self.records.iter().map(|r| u64::from(r.num_samples)).sum()
    }

    /// Wall-clock span of the recorded arrivals.
    pub fn duration_ns(&self) -> u64 {
        self.records.iter().map(|r| r.arrival_ns).max().unwrap_or(0)
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        let models: std::collections::BTreeSet<&str> =
            self.records.iter().map(|r| r.model.as_str()).collect();
        let conns: std::collections::BTreeSet<u32> = self.records.iter().map(|r| r.conn).collect();
        let with_replies = self
            .records
            .iter()
            .filter(|r| r.reply_digest.is_some())
            .count();
        format!(
            "{} requests ({} samples) over {} connection(s), {} model(s), \
             {:.3} s span, {}/{} with recorded reply digests, run seed {}",
            self.records.len(),
            self.total_samples(),
            conns.len(),
            models.len(),
            self.duration_ns() as f64 / 1e9,
            with_replies,
            self.records.len(),
            self.run_seed,
        )
    }
}

/// Bounds-checked little-endian reader over the checksummed body.
struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    fn truncated(&self, needed: usize) -> TraceError {
        TraceError::Truncated {
            needed: needed - self.rest.len(),
            available: self.rest.len(),
        }
    }
    fn bytes(&mut self, n: usize) -> Result<&'a [u8], TraceError> {
        let (out, rest) = self
            .rest
            .split_at_checked(n)
            .ok_or_else(|| self.truncated(n))?;
        self.rest = rest;
        Ok(out)
    }
    fn array<const N: usize>(&mut self) -> Result<[u8; N], TraceError> {
        let (out, rest) = self
            .rest
            .split_first_chunk::<N>()
            .ok_or_else(|| self.truncated(N))?;
        self.rest = rest;
        Ok(*out)
    }
    fn u8(&mut self) -> Result<u8, TraceError> {
        Ok(u8::from_le_bytes(self.array()?))
    }
    fn u16(&mut self) -> Result<u16, TraceError> {
        Ok(u16::from_le_bytes(self.array()?))
    }
    fn u32(&mut self) -> Result<u32, TraceError> {
        Ok(u32::from_le_bytes(self.array()?))
    }
    fn u64(&mut self) -> Result<u64, TraceError> {
        Ok(u64::from_le_bytes(self.array()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        Trace {
            run_seed: 42,
            records: vec![
                TraceRecord {
                    arrival_ns: 0,
                    conn: 0,
                    model: "NIPS10".into(),
                    num_samples: 16,
                    num_features: 10,
                    domain: 255,
                    seed: 7,
                    payload_digest: 0xABCD,
                    reply_digest: Some(0x1234),
                },
                TraceRecord {
                    arrival_ns: 1_000_000,
                    conn: 1,
                    model: "shard-03".into(),
                    num_samples: 1,
                    num_features: 10,
                    domain: 2,
                    seed: 9,
                    payload_digest: 0xEF01,
                    reply_digest: None,
                },
                TraceRecord {
                    arrival_ns: 2_000_000,
                    conn: 0,
                    model: "NIPS10".into(),
                    num_samples: 16,
                    num_features: 10,
                    domain: 255,
                    seed: 8,
                    payload_digest: 0x5555,
                    reply_digest: Some(0x9999),
                },
            ],
        }
    }

    #[test]
    fn round_trips() {
        let t = sample_trace();
        let bytes = t.encode().unwrap();
        assert_eq!(Trace::decode(&bytes).unwrap(), t);
    }

    #[test]
    fn every_strict_prefix_is_rejected() {
        let bytes = sample_trace().encode().unwrap();
        for len in 0..bytes.len() {
            let err = Trace::decode(&bytes[..len]).unwrap_err();
            assert!(
                matches!(
                    err,
                    TraceError::Truncated { .. } | TraceError::ChecksumMismatch
                ),
                "prefix of {len}: {err:?}"
            );
        }
    }

    #[test]
    fn bad_magic_and_version_are_typed() {
        let mut bytes = sample_trace().encode().unwrap();
        bytes[0] = b'X';
        assert_eq!(Trace::decode(&bytes).unwrap_err(), TraceError::BadMagic);

        let mut bytes = sample_trace().encode().unwrap();
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(
            Trace::decode(&bytes).unwrap_err(),
            TraceError::UnsupportedVersion(99)
        );
    }

    #[test]
    fn corruption_past_the_header_is_a_checksum_mismatch() {
        let bytes = sample_trace().encode().unwrap();
        for i in 8..bytes.len() - 8 {
            let mut v = bytes.clone();
            v[i] ^= 0x40;
            assert_eq!(
                Trace::decode(&v).unwrap_err(),
                TraceError::ChecksumMismatch,
                "flip at {i}"
            );
        }
    }

    #[test]
    fn non_monotone_arrivals_are_rejected() {
        let mut t = sample_trace();
        // conn 0 sees arrival 500 then arrival 0 — backwards.
        t.records[0].arrival_ns = 500;
        t.records[2].arrival_ns = 0;
        let bytes = t.encode().unwrap();
        assert_eq!(
            Trace::decode(&bytes).unwrap_err(),
            TraceError::NonMonotoneArrival { conn: 0 }
        );
    }

    #[test]
    fn speed_scaling_is_monotone_and_inverse() {
        assert_eq!(scaled_arrival_ns(1_000_000, 2.0), 500_000);
        assert_eq!(scaled_arrival_ns(1_000_000, 0.5), 2_000_000);
        assert_eq!(scaled_arrival_ns(0, 10.0), 0);
        let mut prev = 0;
        for a in [0u64, 3, 3, 10, 1_000, 1_000_000_007] {
            let s = scaled_arrival_ns(a, 3.7);
            assert!(s >= prev);
            prev = s;
        }
    }

    #[test]
    fn slowed_arrivals_saturate_instead_of_wrapping() {
        // Four times slower, 2^62 - 1 lands on 2^64 - 4 and 2^62 just
        // past u64::MAX: it pins there, in order, rather than wrap to 0.
        let (a, b) = ((1u64 << 62) - 1, 1u64 << 62);
        assert_eq!(scaled_arrival_ns(a, 0.25), u64::MAX - 3);
        assert_eq!(scaled_arrival_ns(b, 0.25), u64::MAX);
        assert_eq!(scaled_arrival_ns(u64::MAX, 1e-3), u64::MAX);
        assert_eq!(scaled_arrival_ns(1 << 61, 0.25), 1 << 63);
    }

    #[test]
    fn file_round_trip_and_missing_file_is_io() {
        let dir = std::env::temp_dir().join("spn_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.spntrace");
        let t = sample_trace();
        t.write_file(&path).unwrap();
        assert_eq!(Trace::read_file(&path).unwrap(), t);
        let missing = Trace::read_file(dir.join("nope.spntrace")).unwrap_err();
        assert!(matches!(missing, TraceError::Io(_)));
    }

    #[test]
    fn summary_names_the_stream() {
        let s = sample_trace().summary();
        assert!(s.contains("3 requests"), "{s}");
        assert!(s.contains("2 connection(s)"), "{s}");
        assert!(s.contains("2 model(s)"), "{s}");
    }
}
