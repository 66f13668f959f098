//! Payload transforms: the protocol elements composed by [`crate::wrap`].
//!
//! The paper motivates methods that differ in *what they do to the data*,
//! not just how they move it: "manual selection could be used to specify
//! that data is to be compressed before communication" (§2.1), security
//! methods that protect integrity or confidentiality depending on where
//! communication is directed (§2), and "security-enhanced protocols" as
//! future work (§6). Each transform here is one such element; they chain.

use nexus_rt::error::{NexusError, Result};

/// A reversible payload transformation.
pub trait PayloadTransform: Send + Sync {
    /// Name for enquiry output.
    fn name(&self) -> &'static str;

    /// Applies the transform (sender side).
    fn encode(&self, payload: &[u8]) -> Vec<u8>;

    /// Reverses the transform (receiver side). Fails on corrupt input.
    fn decode(&self, payload: &[u8]) -> Result<Vec<u8>>;
}

/// Byte-oriented run-length encoding: `(count, byte)` pairs.
///
/// Scientific payloads are often long runs (zero-initialized halos,
/// constant fields), which is what makes even this trivial codec a net
/// win on slow links — the paper's compression use case.
#[derive(Debug, Default)]
pub struct Rle;

impl PayloadTransform for Rle {
    fn name(&self) -> &'static str {
        "rle"
    }

    fn encode(&self, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(payload.len() / 2 + 8);
        let mut i = 0;
        while i < payload.len() {
            let b = payload[i];
            let mut run = 1usize;
            while run < 255 && i + run < payload.len() && payload[i + run] == b {
                run += 1;
            }
            out.push(run as u8);
            out.push(b);
            i += run;
        }
        out
    }

    fn decode(&self, payload: &[u8]) -> Result<Vec<u8>> {
        if !payload.len().is_multiple_of(2) {
            return Err(NexusError::Decode("RLE stream has odd length"));
        }
        let mut out = Vec::with_capacity(payload.len());
        for pair in payload.chunks_exact(2) {
            let (count, byte) = (pair[0], pair[1]);
            if count == 0 {
                return Err(NexusError::Decode("RLE run of length zero"));
            }
            out.extend(std::iter::repeat_n(byte, count as usize));
        }
        Ok(out)
    }
}

/// A keyed stream cipher (xorshift64* keystream). **Obfuscation-strength
/// only** — it stands in for the paper's site-boundary encryption methods
/// without pulling in a cryptography dependency; swap in a real AEAD for
/// production use. The point demonstrated is architectural: confidentiality
/// as a per-link method choice.
#[derive(Debug)]
pub struct XorCipher {
    key: u64,
}

impl XorCipher {
    /// Creates a cipher with the given key (both sides must agree).
    pub fn new(key: u64) -> Self {
        XorCipher {
            key: if key == 0 { 0xDEADBEEF } else { key },
        }
    }

    fn apply(&self, payload: &[u8]) -> Vec<u8> {
        let mut state = self.key;
        payload
            .iter()
            .map(|&b| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                b ^ (state as u8)
            })
            .collect()
    }
}

impl PayloadTransform for XorCipher {
    fn name(&self) -> &'static str {
        "xor-cipher"
    }

    fn encode(&self, payload: &[u8]) -> Vec<u8> {
        self.apply(payload)
    }

    fn decode(&self, payload: &[u8]) -> Result<Vec<u8>> {
        Ok(self.apply(payload))
    }
}

/// Appends an FNV-1a checksum; decode verifies and strips it. Detects
/// in-flight corruption (the paper's integrity protection).
#[derive(Debug, Default)]
pub struct Checksum;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF29CE484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001B3);
    }
    h
}

impl PayloadTransform for Checksum {
    fn name(&self) -> &'static str {
        "checksum"
    }

    fn encode(&self, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(payload.len() + 8);
        out.extend_from_slice(payload);
        out.extend_from_slice(&fnv1a(payload).to_le_bytes());
        out
    }

    fn decode(&self, payload: &[u8]) -> Result<Vec<u8>> {
        if payload.len() < 8 {
            return Err(NexusError::Decode("checksum trailer missing"));
        }
        let (body, trailer) = payload.split_at(payload.len() - 8);
        let stored = u64::from_le_bytes(
            trailer
                .try_into()
                .map_err(|_| NexusError::Decode("checksum trailer truncated"))?,
        );
        if fnv1a(body) != stored {
            return Err(NexusError::Decode("payload checksum mismatch"));
        }
        Ok(body.to_vec())
    }
}

/// Applies several transforms in order (encode: first→last; decode:
/// last→first) — the x-kernel/Horus-style composition of protocol
/// elements the paper's related-work section points at.
pub struct Chain {
    stages: Vec<Box<dyn PayloadTransform>>,
}

impl Chain {
    /// Creates a chain from stages (applied in the given order on encode).
    pub fn new(stages: Vec<Box<dyn PayloadTransform>>) -> Self {
        Chain { stages }
    }
}

impl PayloadTransform for Chain {
    fn name(&self) -> &'static str {
        "chain"
    }

    fn encode(&self, payload: &[u8]) -> Vec<u8> {
        let mut data = payload.to_vec();
        for s in &self.stages {
            data = s.encode(&data);
        }
        data
    }

    fn decode(&self, payload: &[u8]) -> Result<Vec<u8>> {
        let mut data = payload.to_vec();
        for s in self.stages.iter().rev() {
            data = s.decode(&data)?;
        }
        Ok(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(t: &dyn PayloadTransform, payload: &[u8]) {
        let enc = t.encode(payload);
        let dec = t.decode(&enc).unwrap();
        assert_eq!(dec, payload, "{} roundtrip", t.name());
    }

    #[test]
    fn rle_roundtrips_and_compresses_runs() {
        let rle = Rle;
        roundtrip(&rle, b"");
        roundtrip(&rle, b"abc");
        roundtrip(&rle, &[7u8; 1000]);
        let mixed: Vec<u8> = (0..500).map(|i| (i / 100) as u8).collect();
        roundtrip(&rle, &mixed);
        assert!(
            rle.encode(&[0u8; 1000]).len() <= 10,
            "1000 zeros fit in a few runs"
        );
        // Worst case expands 2x but still roundtrips.
        let alternating: Vec<u8> = (0..100).map(|i| (i % 2) as u8).collect();
        roundtrip(&rle, &alternating);
    }

    #[test]
    fn rle_rejects_corrupt_streams() {
        assert!(Rle.decode(&[1]).is_err());
        assert!(Rle.decode(&[0, 5]).is_err());
    }

    #[test]
    fn cipher_roundtrips_and_scrambles() {
        let c = XorCipher::new(1234);
        roundtrip(&c, b"secret control message");
        let enc = c.encode(b"secret control message");
        assert_ne!(&enc[..], b"secret control message");
        // Wrong key does not decode to the original.
        let wrong = XorCipher::new(999);
        assert_ne!(wrong.decode(&enc).unwrap(), b"secret control message");
        // Zero key is remapped, not identity.
        let zero = XorCipher::new(0);
        assert_ne!(zero.encode(b"aaaa"), b"aaaa");
    }

    #[test]
    fn checksum_detects_corruption() {
        let c = Checksum;
        roundtrip(&c, b"data");
        roundtrip(&c, b"");
        let mut enc = c.encode(b"data");
        enc[0] ^= 1;
        assert!(c.decode(&enc).is_err(), "flipped body byte");
        let mut enc2 = c.encode(b"data");
        let n = enc2.len();
        enc2[n - 1] ^= 1;
        assert!(c.decode(&enc2).is_err(), "flipped trailer byte");
        assert!(c.decode(&[1, 2, 3]).is_err(), "too short");
    }

    #[test]
    fn chain_composes_in_order() {
        let chain = Chain::new(vec![
            Box::new(Rle),
            Box::new(XorCipher::new(42)),
            Box::new(Checksum),
        ]);
        roundtrip(&chain, &[9u8; 512]);
        roundtrip(&chain, b"");
        // Corruption surfaces through the outermost stage.
        let mut enc = chain.encode(&[9u8; 512]);
        enc[0] ^= 0xFF;
        assert!(chain.decode(&enc).is_err());
    }
}
