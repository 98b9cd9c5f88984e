//! Request generation and reply checking.
//!
//! Every value stored is self-identifying: `key << 32 | low`, where `low`
//! starts at 0 when the key is loaded and only grows — by 1 per `SET`, by
//! the increment per `INCRBY`. A reply or a recovered record therefore
//! names the key it belongs to and where in that key's write history it
//! sits, and the [`Oracle`] needs two `u32`s per key to check both.
//!
//! Writes to one key all travel on one connection (`key & 1` selects it), so
//! RESP's per-connection serial order fixes the order they apply in and the
//! expected value is exact, not a range. Reads go to any key.

use crate::spec::{Spec, WriteKind, CONNS};
use faster_ycsb::{Distribution, Op, OpKind, WorkloadGenerator, ZipfianGenerator};

pub const VALUE_SHIFT: u32 = 32;

/// The value a key holds after its writes have added `low` in total.
#[inline]
pub fn value_of(key: u64, low: u32) -> u64 {
    key << VALUE_SHIFT | low as u64
}

/// What the client knows about each key's write history.
pub struct Oracle {
    /// Low word after every write sent so far.
    issued: Vec<u32>,
    /// Low word after the last write whose reply (sent only once the WAL
    /// group commit is durable) has been read.
    acked: Vec<u32>,
}

impl Oracle {
    pub fn new(keys: u64) -> Self {
        Oracle {
            issued: vec![0; keys as usize],
            acked: vec![0; keys as usize],
        }
    }

    /// Keys that have been written since load, with the range a recovered
    /// record's low word must fall in: at least the last acked write, at
    /// most the last one sent.
    pub fn written(&self) -> impl Iterator<Item = (u64, u32, u32)> + '_ {
        self.issued
            .iter()
            .zip(&self.acked)
            .enumerate()
            .filter(|(_, (&issued, _))| issued > 0)
            .map(|(k, (&issued, &acked))| (k as u64, acked, issued))
    }

    /// Marks every write sent so far as acknowledged (the in-process phase
    /// calls this after `wait_wal_durable`).
    pub fn ack_all_issued(&mut self, keys: impl Iterator<Item = u64>) {
        for k in keys {
            self.acked[k as usize] = self.issued[k as usize];
        }
    }
}

/// What one in-flight command's reply must be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// `GET` of a key this connection owns: exactly `value_of(key, low)`.
    GetExact {
        key: u64,
        low: u32,
    },
    /// `GET` of a key the other connection writes: its low word is at least
    /// `floor` (acked when the GET was encoded) and at most whatever has
    /// been issued by the time the reply is read.
    GetRange {
        key: u64,
        floor: u32,
    },
    /// `SET`: `+OK`, after which `low` is durable.
    Set {
        key: u64,
        low: u32,
    },
    /// `INCRBY`: the integer `value_of(key, low)`, after which it is durable.
    Incr {
        key: u64,
        low: u32,
    },
    Ping,
}

impl Expect {
    /// The key a write targets (`None` for reads and PING).
    pub fn written_key(&self) -> Option<u64> {
        match *self {
            Expect::Set { key, .. } | Expect::Incr { key, .. } => Some(key),
            _ => None,
        }
    }
}

/// One reply frame, decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reply<'a> {
    Simple(&'a [u8]),
    Int(u64),
    Bulk(u64),
    Nil,
    Error(&'a [u8]),
}

/// Decodes one reply from the front of `data`: the reply and its length, or
/// `None` while the frame is incomplete. A frame that is not RESP, or whose
/// payload is not a decimal `u64`, decodes as `Error`.
pub fn parse_reply(data: &[u8]) -> Option<(Reply<'_>, usize)> {
    let nl = data.iter().position(|&b| b == b'\n')?;
    if nl == 0 {
        return Some((Reply::Error(b""), 1));
    }
    let line = data[1..nl].strip_suffix(b"\r").unwrap_or(&data[1..nl]);
    let number = |digits: &[u8]| std::str::from_utf8(digits).ok()?.parse::<u64>().ok();
    let bad = Some((Reply::Error(&data[..nl]), nl + 1));
    match data[0] {
        b'+' => Some((Reply::Simple(line), nl + 1)),
        b'-' => Some((Reply::Error(line), nl + 1)),
        b':' => match number(line) {
            Some(v) => Some((Reply::Int(v), nl + 1)),
            None => bad,
        },
        b'$' if line == b"-1" => Some((Reply::Nil, nl + 1)),
        b'$' => {
            let Some(len) = number(line) else { return bad };
            let end = nl + 1 + len as usize;
            if data.len() < end + 2 {
                return None;
            }
            match number(&data[nl + 1..end]) {
                Some(v) => Some((Reply::Bulk(v), end + 2)),
                None => Some((Reply::Error(&data[..nl]), end + 2)),
            }
        }
        _ => bad,
    }
}

/// Checks `reply` against `expect`; on a correct write reply, records the
/// acknowledgement. Returns whether the reply was correct.
pub fn check_reply(expect: Expect, reply: Reply<'_>, oracle: &mut Oracle) -> bool {
    match (expect, reply) {
        (Expect::GetExact { key, low }, Reply::Bulk(v)) => v == value_of(key, low),
        (Expect::GetRange { key, floor }, Reply::Bulk(v)) => {
            let low = v as u32;
            v >> VALUE_SHIFT == key && floor <= low && low <= oracle.issued[key as usize]
        }
        (Expect::Set { key, low }, Reply::Simple(b"OK")) => {
            oracle.acked[key as usize] = low;
            true
        }
        (Expect::Incr { key, low }, Reply::Int(v)) if v == value_of(key, low) => {
            oracle.acked[key as usize] = low;
            true
        }
        (Expect::Ping, Reply::Simple(b"PONG")) => true,
        _ => false,
    }
}

/// Which commands a connection sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// The workload's op stream.
    Workload,
    /// `PING` only: parse, poll and reply with no store work.
    Ping,
}

/// One connection's request stream.
pub struct ConnGen {
    conn: u64,
    write: WriteKind,
    gen: WorkloadGenerator,
    ops: Vec<Op>,
}

/// The per-connection generators for `spec` under `seed`, sharing one
/// Zipfian table (zeta(n) costs O(n)).
pub fn conn_gens(spec: &Spec, seed: u64) -> Vec<ConnGen> {
    let cfg = spec.workload(seed);
    let zipf = match spec.distribution {
        Distribution::Zipfian { theta } => Some(ZipfianGenerator::new(spec.keys, theta)),
        _ => None,
    };
    (0..CONNS as u64)
        .map(|conn| {
            let gen = match &zipf {
                Some(z) => WorkloadGenerator::with_shared_zipf(&cfg, conn, z.clone()),
                None => WorkloadGenerator::new(&cfg, conn),
            };
            ConnGen {
                conn,
                write: spec.write,
                gen,
                ops: Vec::new(),
            }
        })
        .collect()
}

impl ConnGen {
    /// Draws the next `depth` ops, steering each write to a key this
    /// connection owns (same key with its lowest bit replaced).
    pub fn next_ops(&mut self, depth: usize) -> &[Op] {
        self.gen.next_batch(depth, &mut self.ops);
        for op in &mut self.ops {
            if op.kind != OpKind::Read {
                op.key = (op.key & !1) | self.conn;
            }
        }
        &self.ops
    }

    /// What `op` must answer, advancing the oracle for a write.
    pub fn expect(&self, op: &Op, oracle: &mut Oracle) -> Expect {
        let key = op.key;
        let k = key as usize;
        match op.kind {
            OpKind::Read if key & 1 == self.conn => Expect::GetExact {
                key,
                low: oracle.issued[k],
            },
            OpKind::Read => Expect::GetRange {
                key,
                floor: oracle.acked[k],
            },
            OpKind::Upsert | OpKind::Rmw => {
                let add = if self.write == WriteKind::Set {
                    1
                } else {
                    op.input as u32
                };
                oracle.issued[k] += add;
                match self.write {
                    WriteKind::Set => Expect::Set {
                        key,
                        low: oracle.issued[k],
                    },
                    WriteKind::Incr => Expect::Incr {
                        key,
                        low: oracle.issued[k],
                    },
                }
            }
        }
    }

    /// Encodes the next window of `depth` commands as RESP array frames
    /// onto `bytes`, and what each must answer onto `expects`.
    pub fn encode_window(
        &mut self,
        traffic: Traffic,
        depth: usize,
        oracle: &mut Oracle,
        bytes: &mut Vec<u8>,
        expects: &mut Vec<Expect>,
    ) {
        if traffic == Traffic::Ping {
            for _ in 0..depth {
                bytes.extend_from_slice(b"*1\r\n$4\r\nPING\r\n");
                expects.push(Expect::Ping);
            }
            return;
        }
        for i in 0..self.next_ops(depth).len() {
            let op = self.ops[i];
            let expect = self.expect(&op, oracle);
            match expect {
                Expect::Set { key, low } => {
                    bytes.extend_from_slice(b"*3\r\n$3\r\nSET\r\n");
                    bulk_u64(bytes, key);
                    bulk_u64(bytes, value_of(key, low));
                }
                Expect::Incr { key, .. } => {
                    bytes.extend_from_slice(b"*3\r\n$6\r\nINCRBY\r\n");
                    bulk_u64(bytes, key);
                    bulk_u64(bytes, op.input);
                }
                _ => {
                    bytes.extend_from_slice(b"*2\r\n$3\r\nGET\r\n");
                    bulk_u64(bytes, op.key);
                }
            }
            expects.push(expect);
        }
    }
}

/// `v` in decimal as one RESP bulk string (`$<len>\r\n<digits>\r\n`), the
/// argument form client libraries send.
fn bulk_u64(out: &mut Vec<u8>, v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut rest = v;
    loop {
        at -= 1;
        digits[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    let digits = &digits[at..];
    out.push(b'$');
    if digits.len() >= 10 {
        out.push(b'0' + (digits.len() / 10) as u8);
    }
    out.push(b'0' + (digits.len() % 10) as u8);
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(digits);
    out.extend_from_slice(b"\r\n");
}

/// FNV-1a of the first `limit` request bytes the workload sends under
/// `seed`, windows taken from the connections in turn — the harness prints
/// it so two runs can be shown to have sent the same bytes.
pub fn request_fingerprint(spec: &Spec, seed: u64, limit: usize) -> u64 {
    let mut gens = conn_gens(spec, seed);
    let mut oracle = Oracle::new(spec.keys);
    let mut bytes = Vec::with_capacity(limit + 4096);
    let mut expects = Vec::new();
    while bytes.len() < limit {
        for g in &mut gens {
            expects.clear();
            g.encode_window(
                Traffic::Workload,
                spec.depth,
                &mut oracle,
                &mut bytes,
                &mut expects,
            );
        }
    }
    crate::stats::fnv1a(&bytes[..limit])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for s in &spec::ALL {
            let a = request_fingerprint(s, 0x5EED, 1_000_000);
            assert_eq!(a, request_fingerprint(s, 0x5EED, 1_000_000), "{}", s.name);
            assert_ne!(a, request_fingerprint(s, 0x5EEE, 1_000_000), "{}", s.name);
        }
    }

    #[test]
    fn bulk_encoding_by_hand() {
        let mut out = Vec::new();
        bulk_u64(&mut out, 0);
        bulk_u64(&mut out, 1234567890);
        bulk_u64(&mut out, u64::MAX);
        assert_eq!(
            out,
            b"$1\r\n0\r\n$10\r\n1234567890\r\n$20\r\n18446744073709551615\r\n"
        );
    }

    #[test]
    fn replies_parse_and_partial_frames_wait() {
        assert_eq!(parse_reply(b"+OK\r\n"), Some((Reply::Simple(b"OK"), 5)));
        assert_eq!(parse_reply(b":42\r\nrest"), Some((Reply::Int(42), 5)));
        assert_eq!(parse_reply(b"$-1\r\n"), Some((Reply::Nil, 5)));
        assert_eq!(parse_reply(b"$2\r\n17\r\n+OK"), Some((Reply::Bulk(17), 8)));
        assert_eq!(parse_reply(b"$2\r\n17"), None);
        assert_eq!(parse_reply(b"$2\r"), None);
        assert_eq!(
            parse_reply(b"-ERR no\r\n"),
            Some((Reply::Error(b"ERR no"), 9))
        );
        assert!(matches!(
            parse_reply(b"$2\r\nxy\r\n"),
            Some((Reply::Error(_), 8))
        ));
    }

    #[test]
    fn checks_catch_wrong_key_stale_and_future_values() {
        let mut o = Oracle::new(8);
        o.issued[3] = 5;
        o.acked[3] = 2;
        let range = Expect::GetRange { key: 3, floor: 2 };
        assert!(check_reply(range, Reply::Bulk(value_of(3, 2)), &mut o));
        assert!(check_reply(range, Reply::Bulk(value_of(3, 5)), &mut o));
        assert!(
            !check_reply(range, Reply::Bulk(value_of(3, 1)), &mut o),
            "older than acked"
        );
        assert!(
            !check_reply(range, Reply::Bulk(value_of(3, 6)), &mut o),
            "never sent"
        );
        assert!(
            !check_reply(range, Reply::Bulk(value_of(4, 3)), &mut o),
            "another key's value"
        );
        assert!(
            !check_reply(range, Reply::Nil, &mut o),
            "loaded keys are never absent"
        );
        let exact = Expect::GetExact { key: 3, low: 5 };
        assert!(check_reply(exact, Reply::Bulk(value_of(3, 5)), &mut o));
        assert!(!check_reply(exact, Reply::Bulk(value_of(3, 4)), &mut o));
        assert!(check_reply(
            Expect::Set { key: 3, low: 4 },
            Reply::Simple(b"OK"),
            &mut o
        ));
        assert_eq!(o.acked[3], 4);
        assert!(!check_reply(
            Expect::Set { key: 3, low: 5 },
            Reply::Error(b"READONLY"),
            &mut o
        ));
        assert_eq!(o.acked[3], 4, "a refused write is not acknowledged");
        assert!(!check_reply(
            Expect::Incr { key: 3, low: 5 },
            Reply::Int(value_of(3, 4)),
            &mut o
        ));
        assert!(check_reply(
            Expect::Incr { key: 3, low: 5 },
            Reply::Int(value_of(3, 5)),
            &mut o
        ));
        assert_eq!(o.written().collect::<Vec<_>>(), vec![(3, 5, 5)]);
    }

    #[test]
    fn writes_stay_on_the_owning_connection() {
        let s = spec::by_name("mem_f_d16").unwrap();
        for g in &mut conn_gens(s, 7) {
            let conn = g.conn;
            assert!(g
                .next_ops(4096)
                .iter()
                .all(|op| op.kind == OpKind::Read || op.key & 1 == conn));
        }
    }
}
