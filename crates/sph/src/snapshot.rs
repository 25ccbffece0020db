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

/// FNV-1a 64-bit over a byte slice — the dependency-free checksum used by
/// snapshot trailers and state digests.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Serialize the owned range of `parts` as a v2 snapshot.
pub fn encode_particles(parts: &Particles) -> Vec<u8> {
    let indices: Vec<usize> = (0..parts.n_local).collect();
    let payload = parts.pack_halo(&indices);
    let mut out = Vec::with_capacity(16 + payload.len() * 8 + 8);
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    out.extend_from_slice(&(parts.n_local as u64).to_le_bytes());
    for v in &payload {
        out.extend_from_slice(&v.to_le_bytes());
    }
    let sum = fnv1a(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Deserialize a snapshot into a fresh owned particle set.
///
/// Errors (bad magic, unknown version, truncation, checksum mismatch) are
/// returned as messages — the caller decides whether to cold-start or die;
/// this function never panics on bad bytes.
pub fn decode_particles(bytes: &[u8]) -> Result<Particles, String> {
    if bytes.len() < 16 {
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
    let n = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes")) as usize;
    let payload_len = n
        .checked_mul(Particles::PACK_FIELDS * 8)
        .ok_or_else(|| "snapshot particle count overflows".to_string())?;
    let body_end = 16 + payload_len;
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
    let payload: Vec<f64> = bytes[16..body_end]
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunks")))
        .collect();
    let mut parts = Particles::new();
    parts.unpack_halo(&payload);
    parts.n_local = parts.len();
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
