//! 128-bit universally unique identifiers (RFC 4122 version 4).
//!
//! Trace topics in the paper are "a 128-bit identifier that is
//! guaranteed to be unique in space and time", generated **at the
//! TDN** so no entity can claim another entity's topic. The random
//! 122 bits are also the scheme's guessing-resistance (§4.1).

use crate::error::CryptoError;
use rand::Rng;
use std::fmt;
use std::str::FromStr;

/// A 128-bit version-4 UUID.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Uuid([u8; 16]);

impl Uuid {
    /// Generates a random version-4 UUID.
    pub fn new_v4(rng: &mut dyn Rng) -> Self {
        let mut bytes = [0u8; 16];
        rng.fill_bytes(&mut bytes);
        // Version 4 in the high nibble of byte 6.
        bytes[6] = (bytes[6] & 0x0f) | 0x40;
        // RFC 4122 variant in the top bits of byte 8.
        bytes[8] = (bytes[8] & 0x3f) | 0x80;
        Uuid(bytes)
    }

    /// Constructs from raw bytes (no version/variant validation; used
    /// when decoding wire messages).
    pub fn from_bytes(bytes: [u8; 16]) -> Self {
        Uuid(bytes)
    }

    /// The raw bytes.
    pub fn as_bytes(&self) -> &[u8; 16] {
        &self.0
    }

    /// The nil UUID (all zeros), used as a sentinel in tests.
    pub fn nil() -> Self {
        Uuid([0u8; 16])
    }

    /// RFC 4122 version number (4 for generated values).
    pub fn version(&self) -> u8 {
        self.0[6] >> 4
    }
}

impl fmt::Display for Uuid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, b) in self.0.iter().enumerate() {
            if matches!(i, 4 | 6 | 8 | 10) {
                write!(f, "-")?;
            }
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for Uuid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Uuid({self})")
    }
}

impl FromStr for Uuid {
    type Err = CryptoError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let hex: String = s.chars().filter(|&c| c != '-').collect();
        if hex.len() != 32 {
            return Err(CryptoError::Malformed("UUID must have 32 hex digits"));
        }
        let mut bytes = [0u8; 16];
        for (i, byte) in bytes.iter_mut().enumerate() {
            *byte = u8::from_str_radix(&hex[2 * i..2 * i + 2], 16)
                .map_err(|_| CryptoError::Malformed("UUID hex digit"))?;
        }
        Ok(Uuid(bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn v4_uuids_have_version_and_variant_bits() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            let u = Uuid::new_v4(&mut rng);
            assert_eq!(u.version(), 4);
            assert_eq!(u.as_bytes()[8] & 0xc0, 0x80);
        }
    }

    #[test]
    fn display_format_is_canonical() {
        let u = Uuid::from_bytes([
            0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0x4d, 0xef, 0x80, 0x01, 0x02, 0x03, 0x04, 0x05,
            0x06, 0x07,
        ]);
        assert_eq!(u.to_string(), "12345678-9abc-4def-8001-020304050607");
    }

    #[test]
    fn parse_round_trip() {
        let mut rng = StdRng::seed_from_u64(7);
        let u = Uuid::new_v4(&mut rng);
        let parsed: Uuid = u.to_string().parse().unwrap();
        assert_eq!(parsed, u);
        // Also accepts the dash-less form.
        let compact: String = u.to_string().chars().filter(|&c| c != '-').collect();
        assert_eq!(compact.parse::<Uuid>().unwrap(), u);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("not-a-uuid".parse::<Uuid>().is_err());
        assert!("12345678-9abc-4def-8001".parse::<Uuid>().is_err());
        assert!("zz345678-9abc-4def-8001-020304050607"
            .parse::<Uuid>()
            .is_err());
    }

    #[test]
    fn distinct_draws_are_distinct() {
        let mut rng = StdRng::seed_from_u64(9);
        let a = Uuid::new_v4(&mut rng);
        let b = Uuid::new_v4(&mut rng);
        assert_ne!(a, b);
        assert_ne!(a, Uuid::nil());
    }
}
