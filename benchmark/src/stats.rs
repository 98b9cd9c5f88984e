//! Order statistics and the request-stream fingerprint.

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples` by the nearest-rank rule: the
/// smallest sample with at least `q·n` samples at or below it. Reorders
/// `samples`; panics if it is empty.
pub fn percentile(samples: &mut [u32], q: f64) -> u32 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let rank = (q * samples.len() as f64).ceil() as usize;
    let idx = rank.clamp(1, samples.len()) - 1;
    *samples.select_nth_unstable(idx).1
}

/// Median of a handful of values (mean of the middle two when even).
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank_by_hand() {
        // 1..=100 shuffled: the q-quantile is exactly 100·q.
        let mut v: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 0.50), 50);
        assert_eq!(percentile(&mut v, 0.99), 99);
        assert_eq!(percentile(&mut v, 0.999), 100);
        assert_eq!(percentile(&mut v, 1.0), 100);
        assert_eq!(percentile(&mut v, 0.0), 1);
        // Ten samples: p50 is the 5th smallest, p99 the largest.
        let mut v = vec![70, 10, 90, 30, 50, 20, 100, 60, 40, 80];
        assert_eq!(percentile(&mut v, 0.5), 50);
        assert_eq!(percentile(&mut v, 0.99), 100);
        assert_eq!(percentile(&mut [7], 0.99), 7);
    }

    #[test]
    fn slice_median_by_hand() {
        // Six slice values, as the harness produces: mean of 3rd and 4th.
        assert_eq!(median(&[5.0, 1.0, 9.0, 3.0, 7.0, 11.0]), 6.0);
        assert_eq!(median(&[2.0, 8.0, 4.0]), 4.0);
        assert_eq!(median(&[42.5]), 42.5);
        // One outlier slice does not move it.
        assert_eq!(median(&[10.0, 10.0, 10.0, 10.0, 10.0, 1000.0]), 10.0);
    }

    #[test]
    fn fnv1a_known_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
