//! Little-endian byte views of numeric slices, so a codec checksums and
//! moves a payload where it lies.
//!
//! Every format in this workspace stores numbers little-endian. On a
//! little-endian host a `[f32]` or `[i32]` already is those bytes: [`le_bytes`]
//! borrows them and [`fill_le`] lets a reader write straight into a typed
//! buffer. On a big-endian host the first converts into a copy and the
//! second swaps the filled words in place. The `cfg!` picks a branch of one
//! code path that every host compiles.
//!
//! The two reinterpretations below are sound for the same reasons: the words
//! are `f32` or `i32` ([`LeWord`] is sealed), which have no padding and no
//! invalid bit pattern; `u8` needs no alignment; and each view covers
//! exactly the slice's own bytes and borrows the slice, shared or exclusive,
//! for its whole life.

use std::borrow::Cow;

/// A 4-byte number with no padding and no invalid bit pattern: [`f32`] or
/// [`i32`].
pub trait LeWord: Copy + sealed::Sealed {}

impl LeWord for f32 {}
impl LeWord for i32 {}

mod sealed {
    pub trait Sealed {}
    impl Sealed for f32 {}
    impl Sealed for i32 {}
}

/// On a big-endian host, reverse every 4-byte word of `raw` (native order ↔
/// little-endian); nothing on a little-endian one.
fn swap_words_unless_le(raw: &mut [u8]) {
    if cfg!(target_endian = "big") {
        for word in raw.chunks_exact_mut(4) {
            word.reverse();
        }
    }
}

/// The little-endian bytes of `v`: its own memory on a little-endian host, a
/// converted copy on a big-endian one.
pub fn le_bytes<T: LeWord>(v: &[T]) -> Cow<'_, [u8]> {
    // SAFETY: see the module docs; the view borrows `v`.
    let raw = unsafe { std::slice::from_raw_parts(v.as_ptr().cast(), std::mem::size_of_val(v)) };
    if cfg!(target_endian = "little") {
        return Cow::Borrowed(raw);
    }
    let mut swapped = raw.to_vec();
    swap_words_unless_le(&mut swapped);
    Cow::Owned(swapped)
}

/// Fill `v` from little-endian bytes: `fill` writes into `v`'s own memory
/// (and may checksum it there), then each word is brought to native order.
pub fn fill_le<T: LeWord, E>(
    v: &mut [T],
    fill: impl FnOnce(&mut [u8]) -> Result<(), E>,
) -> Result<(), E> {
    // SAFETY: see the module docs; the view borrows `v` exclusively, and
    // whatever bytes `fill` leaves are a valid `T` each.
    let raw =
        unsafe { std::slice::from_raw_parts_mut(v.as_mut_ptr().cast(), std::mem::size_of_val(v)) };
    fill(raw)?;
    swap_words_unless_le(raw);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn le_bytes_are_the_serialized_words() {
        let f = [1.5f32, -0.0, f32::NAN, 3e-42];
        let want: Vec<u8> = f.iter().flat_map(|x| x.to_le_bytes()).collect();
        assert_eq!(&*le_bytes(&f), &want[..]);
        let i = [i32::MIN, -1, 0, 0x0102_0304];
        let want: Vec<u8> = i.iter().flat_map(|x| x.to_le_bytes()).collect();
        assert_eq!(&*le_bytes(&i), &want[..]);
        assert!(le_bytes::<f32>(&[]).is_empty());
    }

    #[test]
    fn fill_le_reads_the_serialized_words_back() {
        let src = [7.25f32, -1e30, f32::INFINITY];
        let bytes: Vec<u8> = src.iter().flat_map(|x| x.to_le_bytes()).collect();
        let mut back = [0.0f32; 3];
        fill_le(&mut back, |raw| {
            raw.copy_from_slice(&bytes);
            Ok::<_, ()>(())
        })
        .unwrap();
        assert_eq!(back.map(f32::to_bits), src.map(f32::to_bits));
        let mut ints = [0i32; 2];
        fill_le(&mut ints, |raw| {
            raw.copy_from_slice(&[1, 0, 0, 0, 0xFE, 0xFF, 0xFF, 0xFF]);
            Ok::<_, ()>(())
        })
        .unwrap();
        assert_eq!(ints, [1, -2]);
        let failed = fill_le(&mut ints, |_| Err("stop"));
        assert_eq!(failed, Err("stop"));
    }
}
