//! PKCS#7 block padding (the "padding scheme" negotiated alongside the
//! secret trace key in the paper's key-distribution payload, §5.1).

use crate::error::CryptoError;

/// Appends PKCS#7 padding so `data.len()` becomes a multiple of
/// `block_size`. A full block of padding is added when the input is
/// already aligned.
pub fn pkcs7_pad(data: &[u8], block_size: usize) -> Vec<u8> {
    assert!(
        (1..=255).contains(&block_size),
        "block size must be 1..=255"
    );
    let pad_len = block_size - (data.len() % block_size);
    let mut out = Vec::with_capacity(data.len() + pad_len);
    out.extend_from_slice(data);
    out.extend(std::iter::repeat_n(pad_len as u8, pad_len));
    out
}

/// Strips and validates PKCS#7 padding.
pub fn pkcs7_unpad(data: &[u8], block_size: usize) -> Result<Vec<u8>, CryptoError> {
    Ok(data[..pkcs7_unpadded_len(data, block_size)?].to_vec())
}

/// Validates PKCS#7 padding and returns the length of the data before
/// it.
pub(crate) fn pkcs7_unpadded_len(data: &[u8], block_size: usize) -> Result<usize, CryptoError> {
    if data.is_empty() || !data.len().is_multiple_of(block_size) {
        return Err(CryptoError::BadPadding("length not a multiple of block"));
    }
    let pad_len = *data.last().unwrap() as usize;
    if pad_len == 0 || pad_len > block_size {
        return Err(CryptoError::BadPadding("pad byte out of range"));
    }
    let body_len = data.len() - pad_len;
    if data[body_len..].iter().any(|&b| b as usize != pad_len) {
        return Err(CryptoError::BadPadding("inconsistent pad bytes"));
    }
    Ok(body_len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pads_to_block_multiple() {
        let padded = pkcs7_pad(b"hello", 16);
        assert_eq!(padded.len(), 16);
        assert_eq!(&padded[..5], b"hello");
        assert!(padded[5..].iter().all(|&b| b == 11));
    }

    #[test]
    fn aligned_input_gets_full_block() {
        let padded = pkcs7_pad(&[7u8; 16], 16);
        assert_eq!(padded.len(), 32);
        assert!(padded[16..].iter().all(|&b| b == 16));
    }

    #[test]
    fn empty_input_pads_to_one_block() {
        let padded = pkcs7_pad(b"", 16);
        assert_eq!(padded, vec![16u8; 16]);
    }

    #[test]
    fn round_trip_all_lengths() {
        for len in 0..48 {
            let data: Vec<u8> = (0..len as u8).collect();
            let padded = pkcs7_pad(&data, 16);
            assert_eq!(pkcs7_unpad(&padded, 16).unwrap(), data, "len={len}");
        }
    }

    #[test]
    fn rejects_bad_padding() {
        assert!(pkcs7_unpad(&[], 16).is_err());
        assert!(pkcs7_unpad(&[1u8; 15], 16).is_err()); // not block aligned
        let mut block = vec![0u8; 16];
        block[15] = 0; // zero pad byte
        assert!(pkcs7_unpad(&block, 16).is_err());
        block[15] = 17; // exceeds block size
        assert!(pkcs7_unpad(&block, 16).is_err());
        block[15] = 3;
        block[14] = 3;
        block[13] = 4; // inconsistent
        assert!(pkcs7_unpad(&block, 16).is_err());
    }
}
