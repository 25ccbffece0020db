//! Versioned binary snapshots of one rank's owned particle state.
//!
//! The checkpoint/restart layer persists exactly the carried state of the
//! step loop: every field a step reads before writing is in the 13-field
//! halo/migration pack (`x y z vx vy vz m h rho p c u alpha` — rates,
//! grad-h terms, IAD tensors and switches are recomputed from these by the
//! first restored step), so a snapshot is the pack of the owned range plus
//! a small header.
//!
//! Layout (all little-endian):
//!
//! ```text
//! "FSNP" | u32 version=2 | u64 n_local | n_local × 13 × f64 | u64 fnv1a
//! ```
//!
//! Everything before the trailer is one byte stream, written once by
//! `write_stream` from `Particles::packed`, and it has three callers that
//! copy no particle state: [`encode_particles`] writes it into one
//! exactly-sized buffer, [`decode_particles`] reads its records straight
//! into the columns through `Particles::push_packed`, and
//! [`crate::Simulation::state_digest`] hashes it through a running FNV-1a
//! state without materializing it.
//!
//! The trailer is an FNV-1a checksum over everything before it, so a
//! truncated or bit-flipped snapshot is detected at load. Any other version
//! — the trailer-less v1 included, which no release ever wrote outside this
//! repo's tests — is refused like a damaged blob, and the caller
//! cold-starts.

use crate::particles::Particles;

/// Snapshot magic: the first four bytes of every rank snapshot.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"FSNP";

/// Version the current writer emits.
pub const SNAPSHOT_VERSION: u32 = 2;

/// Bytes before the first record: magic, version and particle count.
const HEADER_BYTES: usize = 16;

/// Bytes of one particle record: the pack fields as little-endian `f64`.
const RECORD_BYTES: usize = Particles::PACK_FIELDS * 8;

/// Running FNV-1a 64-bit state, for hashing a byte stream as it is
/// produced. `finish` reads the hash of everything written so far
/// and leaves the state open for more bytes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv1a(u64);

impl Fnv1a {
    pub(crate) const fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a 64-bit over a byte slice — the dependency-free checksum used by
/// snapshot trailers and state digests.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// Hand the v2 stream of `parts`' owned range to `sink`: the header, then
/// one record per owned particle. The trailer is not part of the stream —
/// it is the stream's FNV-1a.
pub(crate) fn write_stream(parts: &Particles, mut sink: impl FnMut(&[u8])) {
    let mut header = [0u8; HEADER_BYTES];
    header[..4].copy_from_slice(&SNAPSHOT_MAGIC);
    header[4..8].copy_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    header[8..].copy_from_slice(&(parts.n_local as u64).to_le_bytes());
    sink(&header);
    let mut record = [0u8; RECORD_BYTES];
    for i in 0..parts.n_local {
        for (dst, v) in record.chunks_exact_mut(8).zip(parts.packed(i)) {
            dst.copy_from_slice(&v.to_le_bytes());
        }
        sink(&record);
    }
}

/// Serialize the owned range of `parts` as a v2 snapshot.
pub fn encode_particles(parts: &Particles) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_BYTES + parts.n_local * RECORD_BYTES + 8);
    let mut sum = Fnv1a::new();
    write_stream(parts, |bytes| {
        sum.write(bytes);
        out.extend_from_slice(bytes);
    });
    out.extend_from_slice(&sum.finish().to_le_bytes());
    out
}

/// Deserialize a snapshot into a fresh owned particle set.
///
/// Errors (bad magic, unknown version, truncation, checksum mismatch) are
/// returned as messages — the caller decides whether to cold-start or die;
/// this function never panics on bad bytes.
pub fn decode_particles(bytes: &[u8]) -> Result<Particles, String> {
    if bytes.len() < HEADER_BYTES {
        return Err(format!(
            "snapshot truncated: {} bytes < header",
            bytes.len()
        ));
    }
    if bytes[0..4] != SNAPSHOT_MAGIC {
        return Err("snapshot magic mismatch (not an FSNP file)".to_string());
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if version != SNAPSHOT_VERSION {
        return Err(format!(
            "snapshot version {version} unsupported (this build reads {SNAPSHOT_VERSION})"
        ));
    }
    let n = u64::from_le_bytes(bytes[8..HEADER_BYTES].try_into().expect("8 bytes")) as usize;
    let payload_len = n
        .checked_mul(RECORD_BYTES)
        .ok_or_else(|| "snapshot particle count overflows".to_string())?;
    let body_end = HEADER_BYTES + payload_len;
    let expected = body_end + 8;
    if bytes.len() != expected {
        return Err(format!(
            "snapshot truncated: {got} bytes, expected {expected} for {n} particles",
            got = bytes.len()
        ));
    }
    let stored = u64::from_le_bytes(bytes[body_end..].try_into().expect("8 bytes"));
    let actual = fnv1a(&bytes[..body_end]);
    if stored != actual {
        return Err(format!(
            "snapshot checksum mismatch: stored {stored:#018x}, computed {actual:#018x}"
        ));
    }
    let mut parts = Particles::with_capacity(n);
    for record in bytes[HEADER_BYTES..body_end].chunks_exact(RECORD_BYTES) {
        let mut fields = [0.0; Particles::PACK_FIELDS];
        for (v, b) in fields.iter_mut().zip(record.chunks_exact(8)) {
            *v = f64::from_le_bytes(b.try_into().expect("8-byte chunks"));
        }
        parts.push_packed(fields);
    }
    parts.n_local = n;
    Ok(parts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Particles {
        let mut p = Particles::new();
        p.push(0.1, 0.2, 0.3, 1.0, -0.5, 0.25, 2.0, 0.05, 1.5);
        p.push(0.4, 0.5, 0.6, 0.0, 1.0, 0.0, 3.0, 0.06, 1.6);
        p.push(0.7, 0.8, 0.9, 0.0, 0.0, 1.0, 4.0, 0.07, 1.7);
        p.rho[0] = 1.25;
        p.p[1] = 0.5;
        p.c[2] = 0.9;
        p.alpha[1] = 0.42;
        p
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let src = sample();
        let bytes = encode_particles(&src);
        let back = decode_particles(&bytes).expect("valid snapshot");
        assert_eq!(back.n_local, 3);
        assert_eq!(back.len(), 3);
        for i in 0..3 {
            assert_eq!(back.x[i].to_bits(), src.x[i].to_bits());
            assert_eq!(back.vy[i].to_bits(), src.vy[i].to_bits());
            assert_eq!(back.rho[i].to_bits(), src.rho[i].to_bits());
            assert_eq!(back.alpha[i].to_bits(), src.alpha[i].to_bits());
            assert_eq!(back.h[i].to_bits(), src.h[i].to_bits());
        }
    }

    #[test]
    fn encoding_matches_the_v2_layout_byte_for_byte() {
        // `sample()`'s particles as the v2 layout spells them, field by
        // field: x y z vx vy vz m h rho p c u alpha.
        let a = crate::av::ALPHA_MIN;
        let records: [[f64; Particles::PACK_FIELDS]; 3] = [
            [
                0.1, 0.2, 0.3, 1.0, -0.5, 0.25, 2.0, 0.05, 1.25, 0.0, 0.0, 1.5, a,
            ],
            [
                0.4, 0.5, 0.6, 0.0, 1.0, 0.0, 3.0, 0.06, 0.0, 0.5, 0.0, 1.6, 0.42,
            ],
            [
                0.7, 0.8, 0.9, 0.0, 0.0, 1.0, 4.0, 0.07, 0.0, 0.0, 0.9, 1.7, a,
            ],
        ];
        let mut expected = b"FSNP".to_vec();
        expected.extend_from_slice(&2u32.to_le_bytes());
        expected.extend_from_slice(&3u64.to_le_bytes());
        for v in records.iter().flatten() {
            expected.extend_from_slice(&v.to_le_bytes());
        }
        let trailer = fnv1a(&expected);
        expected.extend_from_slice(&trailer.to_le_bytes());

        let bytes = encode_particles(&sample());
        assert_eq!(bytes.len(), 16 + 3 * 13 * 8 + 8);
        assert_eq!(bytes, expected);
    }

    #[test]
    fn snapshot_excludes_halos() {
        let mut src = sample();
        let donor = sample();
        src.append_halos(&donor, &[0, 1]);
        assert_eq!(src.len(), 5);
        let back = decode_particles(&encode_particles(&src)).expect("valid");
        assert_eq!(back.len(), 3, "halos must not be persisted");
    }

    #[test]
    fn corruption_is_detected() {
        let good = encode_particles(&sample());

        let mut flipped = good.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        let err = decode_particles(&flipped).expect_err("bit flip detected");
        assert!(err.contains("checksum"), "{err}");

        let truncated = &good[..good.len() - 20];
        let err = decode_particles(truncated).expect_err("truncation detected");
        assert!(err.contains("truncated"), "{err}");

        let err = decode_particles(b"not a snapshot at all").expect_err("bad magic");
        assert!(err.contains("magic"), "{err}");

        let mut future = good.clone();
        future[4..8].copy_from_slice(&99u32.to_le_bytes());
        let err = decode_particles(&future).expect_err("future version rejected");
        assert!(err.contains("version 99"), "{err}");

        // The retired trailer-less v1 layout is refused like any other
        // unknown version.
        let mut v1 = good[..good.len() - 8].to_vec();
        v1[4..8].copy_from_slice(&1u32.to_le_bytes());
        let err = decode_particles(&v1).expect_err("v1 rejected");
        assert!(err.contains("version 1 unsupported"), "{err}");
    }

    #[test]
    fn fnv1a_is_stable() {
        // Pin the constants: fixtures on disk depend on this exact hash.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
