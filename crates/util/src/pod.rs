//! Plain-old-data marker for keys and values stored inline in log pages.
//!
//! FASTER records live inside raw log pages and are read/written through
//! pointers while other threads may be doing the same (§4: "user threads read
//! and modify record values in the safety of epoch protection"). To make that
//! sound in Rust, inline keys and values must be types whose bytes can be
//! copied and compared freely: no drop glue, no references, fixed size.
//!
//! Variable-length values are not supported yet: every record has the same
//! stride, fixed by the key and value types.

/// Marker trait for fixed-size plain-old-data types.
///
/// # Safety
///
/// Implementors must guarantee:
/// * the type is `Copy` with no drop glue and contains no references,
///   pointers-with-ownership, or interior mutability;
/// * any bit pattern produced by copying the bytes of a valid value is itself
///   a valid value (the log persists and reloads raw bytes);
/// * the type has no padding: [`bytes_of`] reads every byte, and a padding
///   byte is uninitialised, so two equal values could hash or compare as
///   different. Tuples are therefore not `Pod` — `(u32, u64)` has four
///   padding bytes:
///
/// ```compile_fail
/// fn needs_pod<T: faster_util::Pod>() {}
/// needs_pod::<(u32, u64)>();
/// ```
pub unsafe trait Pod: Copy + Send + Sync + 'static {}

// SAFETY: `u8` is `Copy`, owns nothing, has no padding, and every bit
// pattern is a valid `u8`.
unsafe impl Pod for u8 {}
// SAFETY: `u16` is `Copy`, owns nothing, has no padding, and every bit
// pattern is a valid `u16`.
unsafe impl Pod for u16 {}
// SAFETY: `u32` is `Copy`, owns nothing, has no padding, and every bit
// pattern is a valid `u32`.
unsafe impl Pod for u32 {}
// SAFETY: `u64` is `Copy`, owns nothing, has no padding, and every bit
// pattern is a valid `u64`.
unsafe impl Pod for u64 {}
// SAFETY: `u128` is `Copy`, owns nothing, has no padding, and every bit
// pattern is a valid `u128`.
unsafe impl Pod for u128 {}
// SAFETY: `usize` is `Copy`, owns nothing, has no padding, and every bit
// pattern is a valid `usize`.
unsafe impl Pod for usize {}
// SAFETY: `i8` is `Copy`, owns nothing, has no padding, and every bit
// pattern is a valid `i8`.
unsafe impl Pod for i8 {}
// SAFETY: `i16` is `Copy`, owns nothing, has no padding, and every bit
// pattern is a valid `i16`.
unsafe impl Pod for i16 {}
// SAFETY: `i32` is `Copy`, owns nothing, has no padding, and every bit
// pattern is a valid `i32`.
unsafe impl Pod for i32 {}
// SAFETY: `i64` is `Copy`, owns nothing, has no padding, and every bit
// pattern is a valid `i64`.
unsafe impl Pod for i64 {}
// SAFETY: `i128` is `Copy`, owns nothing, has no padding, and every bit
// pattern is a valid `i128`.
unsafe impl Pod for i128 {}
// SAFETY: `isize` is `Copy`, owns nothing, has no padding, and every bit
// pattern is a valid `isize`.
unsafe impl Pod for isize {}
// SAFETY: `f32` is `Copy`, owns nothing, has no padding, and every bit
// pattern is a valid `f32` (a NaN is a value too).
unsafe impl Pod for f32 {}
// SAFETY: `f64` is `Copy`, owns nothing, has no padding, and every bit
// pattern is a valid `f64` (a NaN is a value too).
unsafe impl Pod for f64 {}
// SAFETY: `()` is `Copy` and has no bytes at all.
unsafe impl Pod for () {}
// SAFETY: the elements are `Pod`, and an array is its elements laid end to
// end at their own stride, with no padding between or around them.
unsafe impl<T: Pod, const N: usize> Pod for [T; N] {}

/// Views a `Pod` value as its raw bytes.
#[inline(always)]
pub fn bytes_of<T: Pod>(v: &T) -> &[u8] {
    // SAFETY: `v` is a live reference to `size_of::<T>()` bytes, and `Pod`
    // has no padding, so every one of them is initialised.
    unsafe { core::slice::from_raw_parts(v as *const T as *const u8, core::mem::size_of::<T>()) }
}

/// Reconstructs a `Pod` value from raw bytes.
///
/// # Panics
///
/// Panics if `bytes.len() != size_of::<T>()`.
#[inline]
pub fn pod_from_bytes<T: Pod>(bytes: &[u8]) -> T {
    assert_eq!(bytes.len(), core::mem::size_of::<T>());
    // SAFETY: `bytes` holds exactly `size_of::<T>()` bytes (asserted above)
    // and `Pod` makes any bit pattern a valid `T`; `read_unaligned` because
    // callers may pass unaligned log slices.
    unsafe { core::ptr::read_unaligned(bytes.as_ptr() as *const T) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_scalars() {
        let v = 0xDEAD_BEEF_u64;
        assert_eq!(pod_from_bytes::<u64>(bytes_of(&v)), v);
        let f = 3.5f64;
        assert_eq!(pod_from_bytes::<f64>(bytes_of(&f)), f);
    }

    #[test]
    fn round_trip_arrays() {
        let a = [1u32, 2, 3, 4];
        assert_eq!(pod_from_bytes::<[u32; 4]>(bytes_of(&a)), a);
        let nested = [[7u64, 9], [u64::MAX, 0]];
        assert_eq!(pod_from_bytes::<[[u64; 2]; 2]>(bytes_of(&nested)), nested);
    }

    #[test]
    #[should_panic]
    fn wrong_size_panics() {
        let _ = pod_from_bytes::<u64>(&[0u8; 4]);
    }

    #[test]
    fn unaligned_read_ok() {
        let mut buf = [0u8; 12];
        buf[3..11].copy_from_slice(&0xABCD_EF01_2345_6789u64.to_le_bytes());
        let v = pod_from_bytes::<u64>(&buf[3..11]);
        assert_eq!(v, u64::from_le_bytes(buf[3..11].try_into().unwrap()));
    }
}
