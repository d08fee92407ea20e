//! Little-endian byte views of coefficient words.
//!
//! The wire carries every coefficient as a `u64` in little-endian order,
//! which on a little-endian target is exactly how a `[u64]` already sits
//! in memory. [`as_le_bytes`] lets a writer hand a limb's words to the
//! kernel as they are, and [`as_le_bytes_mut`] lets a reader receive a
//! limb's bytes straight into its words — neither converts or copies.
//!
//! The views are only correct on a little-endian target, so a big-endian
//! build stops here with a compile error rather than send or accept
//! byte-swapped words.

const _: () = assert!(
    cfg!(target_endian = "little"),
    "cham_math::bytes views u64 words as their wire bytes, which needs a little-endian target"
);

/// The words as their little-endian wire bytes, `8 · words.len()` of them.
///
/// ```
/// let words = [0x0807_0605_0403_0201u64, 9];
/// let bytes = cham_math::bytes::as_le_bytes(&words);
/// assert_eq!(&bytes[..9], &[1, 2, 3, 4, 5, 6, 7, 8, 9]);
/// ```
#[must_use]
pub fn as_le_bytes(words: &[u64]) -> &[u8] {
    // SAFETY: the pointer and length cover exactly the words' memory,
    // borrowed for the same lifetime; `u8` has alignment 1, so any word
    // address is a valid byte address; and every byte of an initialized
    // `u64` is an initialized `u8`.
    unsafe { std::slice::from_raw_parts(words.as_ptr().cast::<u8>(), std::mem::size_of_val(words)) }
}

/// The words as mutable little-endian wire bytes: writing the bytes of a
/// word writes that word.
///
/// ```
/// let mut words = [0u64; 2];
/// cham_math::bytes::as_le_bytes_mut(&mut words)[8] = 7;
/// assert_eq!(words, [0, 7]);
/// ```
#[must_use]
pub fn as_le_bytes_mut(words: &mut [u64]) -> &mut [u8] {
    // SAFETY: as in `as_le_bytes`, the view covers exactly the words'
    // memory and holds their unique borrow; `u8` has alignment 1; and
    // every bit pattern is a valid `u64`, so no byte written through the
    // view can leave a word invalid.
    unsafe {
        std::slice::from_raw_parts_mut(
            words.as_mut_ptr().cast::<u8>(),
            std::mem::size_of_val(words),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The views are the words' `to_le_bytes`, both ways.
    #[test]
    fn views_are_the_words_le_bytes() {
        let words = [0u64, 1, u64::MAX, 0x0123_4567_89AB_CDEF, 1 << 63];
        let want: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        assert_eq!(as_le_bytes(&words), &want[..]);
        let mut back = [0u64; 5];
        as_le_bytes_mut(&mut back).copy_from_slice(&want);
        assert_eq!(back, words);
        assert!(as_le_bytes(&[]).is_empty());
    }
}
