//! WAL payload codec (DESIGN.md §10).
//!
//! Each WAL record carries one logical redo operation as a flat byte
//! payload: a one-byte kind tag, the `Pod` key bytes, and — for a put —
//! the **post-image** value bytes. Post-image (physical redo) rather than
//! the operation's input keeps replay independent of the user's
//! `Functions::Input` type (which need not be `Pod`) and makes reapplying a
//! record idempotent: replaying a suffix that partially overlaps a fuzzy
//! checkpoint converges to the same state.
//!
//! Every record is a full value or a tombstone. A CRDT delta (§6.3) holds a
//! partial value that means nothing on its own, so a store with a WAL
//! refuses mergeable `Functions` and no delta is ever logged; mergeable
//! stores without a WAL make their deltas durable by checkpoint (§6.5).

use faster_util::{bytes_of, pod_from_bytes, Pod};

/// Full post-image write: upserts and RMWs.
pub(crate) const KIND_PUT: u8 = 1;
/// Tombstone append.
pub(crate) const KIND_DELETE: u8 = 2;

/// One decoded WAL operation, ready for replay.
pub(crate) enum WalOp<K, V> {
    Put { key: K, value: V },
    Delete { key: K },
}

/// Payload bytes of a record that carries the key and, if `with_value`, a
/// value.
pub(crate) const fn encoded_len<K, V>(with_value: bool) -> usize {
    1 + std::mem::size_of::<K>() + if with_value { std::mem::size_of::<V>() } else { 0 }
}

/// Encodes `kind | key bytes | value bytes?` into `out`, a WAL record's
/// payload of exactly [`encoded_len`] bytes.
pub(crate) fn encode_into<K: Pod, V: Pod>(out: &mut [u8], kind: u8, key: &K, value: Option<&V>) {
    out[0] = kind;
    let (k, v) = out[1..].split_at_mut(std::mem::size_of::<K>());
    k.copy_from_slice(bytes_of(key));
    v.copy_from_slice(value.map_or(&[][..], bytes_of));
}

/// Decodes a WAL payload. `None` for unknown kinds or size mismatches —
/// recovery treats such a record as corrupt and skips it (the WAL's own
/// checksum makes this unreachable short of a codec version skew).
pub(crate) fn decode<K: Pod, V: Pod>(payload: &[u8]) -> Option<WalOp<K, V>> {
    let (&kind, rest) = payload.split_first()?;
    let ks = std::mem::size_of::<K>();
    let vs = std::mem::size_of::<V>();
    match kind {
        KIND_PUT if rest.len() == ks + vs => Some(WalOp::Put {
            key: pod_from_bytes::<K>(&rest[..ks]),
            value: pod_from_bytes::<V>(&rest[ks..]),
        }),
        KIND_DELETE if rest.len() == ks => Some(WalOp::Delete { key: pod_from_bytes::<K>(rest) }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode(kind: u8, key: u64, value: Option<u64>) -> Vec<u8> {
        let mut out = vec![0; encoded_len::<u64, u64>(value.is_some())];
        encode_into::<u64, u64>(&mut out, kind, &key, value.as_ref());
        out
    }

    #[test]
    fn round_trip() {
        let p = encode(KIND_PUT, 7, Some(9));
        match decode::<u64, u64>(&p) {
            Some(WalOp::Put { key: 7, value: 9 }) => {}
            _ => panic!("bad decode"),
        }
        let d = encode(KIND_DELETE, 7, None);
        assert!(matches!(decode::<u64, u64>(&d), Some(WalOp::Delete { key: 7 })));
    }

    #[test]
    fn rejects_wrong_sizes_and_kinds() {
        assert!(decode::<u64, u64>(&[]).is_none());
        assert!(decode::<u64, u64>(&[KIND_PUT, 0, 0]).is_none());
        assert!(decode::<u64, u64>(&encode(99, 1, Some(2))).is_none());
    }
}
