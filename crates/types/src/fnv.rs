//! FNV-1a 64-bit hashing: job keys, `.sct` chunk checksums and content
//! digests, and every pinned report digest use this one function.

/// FNV-1a 64-bit offset basis (the seed for a fresh hash).
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `data` into a running FNV-1a hash; start from [`FNV_OFFSET`].
///
/// # Examples
///
/// ```
/// use secpref_types::fnv::{fnv1a64, FNV_OFFSET};
///
/// assert_eq!(fnv1a64(b"a", FNV_OFFSET), 0xaf63_dc4c_8601_ec8c);
/// // Hashing in pieces equals hashing the concatenation.
/// assert_eq!(fnv1a64(b"bar", fnv1a64(b"foo", FNV_OFFSET)), fnv1a64(b"foobar", FNV_OFFSET));
/// ```
#[inline]
pub fn fnv1a64(data: &[u8], mut hash: u64) -> u64 {
    for &b in data {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        assert_eq!(fnv1a64(b"", FNV_OFFSET), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a", FNV_OFFSET), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar", FNV_OFFSET), 0x8594_4171_f739_67e8);
    }
}
