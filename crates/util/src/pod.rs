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
/// * `size_of::<Self>()` is the full wire size (padding bytes, if any, are
///   written to storage and must not carry meaning).
pub unsafe trait Pod: Copy + Send + Sync + 'static {}

// Safety: primitive integers and fixed arrays of them satisfy every clause.
unsafe impl Pod for u8 {}
unsafe impl Pod for u16 {}
unsafe impl Pod for u32 {}
unsafe impl Pod for u64 {}
unsafe impl Pod for u128 {}
unsafe impl Pod for usize {}
unsafe impl Pod for i8 {}
unsafe impl Pod for i16 {}
unsafe impl Pod for i32 {}
unsafe impl Pod for i64 {}
unsafe impl Pod for i128 {}
unsafe impl Pod for isize {}
unsafe impl Pod for f32 {}
unsafe impl Pod for f64 {}
unsafe impl Pod for () {}
unsafe impl<T: Pod, const N: usize> Pod for [T; N] {}
unsafe impl<A: Pod, B: Pod> Pod for (A, B) {}

/// Views a `Pod` value as its raw bytes.
#[inline(always)]
pub fn bytes_of<T: Pod>(v: &T) -> &[u8] {
    // Safety: Pod guarantees every byte is initialized and meaningful-to-copy.
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
    // Safety: Pod guarantees any bit pattern of the right size is valid; we
    // use read_unaligned because callers may pass unaligned log slices.
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
    fn round_trip_arrays_and_tuples() {
        let a = [1u32, 2, 3, 4];
        assert_eq!(pod_from_bytes::<[u32; 4]>(bytes_of(&a)), a);
        let t = (7u64, 9u64);
        assert_eq!(pod_from_bytes::<(u64, u64)>(bytes_of(&t)), t);
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
