//! The RESP client: one thread, [`CONNS`] connections, closed loop.
//!
//! A round writes one window of `depth` commands on each connection, then
//! reads both windows back, checking every reply. While the server works on
//! a round the client encodes the next one, so generating requests costs
//! the loop nothing the server could notice. A command's latency runs from
//! the write of its window to the `read` that returned its reply.

use crate::gen::{check_reply, conn_gens, parse_reply, ConnGen, Expect, Oracle, Traffic};
use crate::spec::{Spec, CONNS};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A reply that takes longer than this is a failure, not a hang: a dead
/// worker shows up as failed commands and a run that still ends.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

#[derive(Default)]
struct Window {
    bytes: Vec<u8>,
    expects: Vec<Expect>,
}

struct Conn {
    stream: TcpStream,
    gen: ConnGen,
    cur: Window,
    next: Window,
    rbuf: Vec<u8>,
}

/// Throughput and latency of one slice of a phase.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    pub kops: f64,
    pub p50_us: f64,
    pub p95_us: f64,
    pub p99_us: f64,
    pub p999_us: f64,
    pub samples: u64,
}

/// One timed phase: its slices, and totals over the whole phase.
#[derive(Debug, Clone)]
pub struct Phase {
    pub slices: Vec<Slice>,
    pub ops: u64,
    pub secs: f64,
}

impl Phase {
    /// Median over the slices of one slice statistic.
    pub fn median_of(&self, f: impl Fn(&Slice) -> f64) -> f64 {
        median(&self.slices.iter().map(f).collect::<Vec<_>>())
    }

    pub fn ns_per_op(&self) -> f64 {
        self.secs * 1e9 / self.ops as f64
    }
}

pub struct Client {
    conns: Vec<Conn>,
    pub oracle: Oracle,
    /// Commands sent, and those whose reply was wrong, an error, or missing.
    pub attempted: u64,
    pub failed: u64,
    /// A connection timed out or closed; nothing more can be measured.
    pub dead: bool,
}

impl Client {
    pub fn connect(addr: SocketAddr, spec: &Spec, seed: u64) -> io::Result<Client> {
        let mut conns = Vec::with_capacity(CONNS);
        for gen in conn_gens(spec, seed) {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
            stream.set_write_timeout(Some(REPLY_TIMEOUT))?;
            conns.push(Conn {
                stream,
                gen,
                cur: Window::default(),
                next: Window::default(),
                rbuf: Vec::with_capacity(64 * 1024),
            });
        }
        Ok(Client {
            conns,
            oracle: Oracle::new(spec.keys),
            attempted: 0,
            failed: 0,
            dead: false,
        })
    }

    /// Hands the per-connection generators and the oracle on to the
    /// in-process phase, which continues the same op streams.
    pub fn into_parts(self) -> (Vec<ConnGen>, Oracle) {
        (self.conns.into_iter().map(|c| c.gen).collect(), self.oracle)
    }

    fn encode_next(&mut self, traffic: Traffic, depth: usize) {
        for c in &mut self.conns {
            c.next.bytes.clear();
            c.next.expects.clear();
            c.gen.encode_window(
                traffic,
                depth,
                &mut self.oracle,
                &mut c.next.bytes,
                &mut c.next.expects,
            );
        }
    }

    /// Runs rounds of `traffic` at `depth` for `slices` slices of
    /// `dur / slices` each; a slice ends with the first round sent after its
    /// time is up.
    pub fn run_phase(
        &mut self,
        traffic: Traffic,
        depth: usize,
        dur: Duration,
        slices: usize,
        tracer: &mut Tracer,
    ) -> Phase {
        let slice_len = dur / slices as u32;
        let mut out = Phase {
            slices: Vec::with_capacity(slices),
            ops: 0,
            secs: 0.0,
        };
        let mut lat: Vec<u32> = Vec::new();
        let mut slice_ops = 0u64;
        let mut slice_start = Instant::now();
        if !self.dead {
            self.encode_next(traffic, depth);
        }
        while !self.dead {
            let t0 = Instant::now();
            let mut sent_at = [t0; CONNS];
            let mut write_err = false;
            for (i, c) in self.conns.iter_mut().enumerate() {
                std::mem::swap(&mut c.cur, &mut c.next);
                sent_at[i] = Instant::now();
                write_err |= c.stream.write_all(&c.cur.bytes).is_err();
                self.attempted += c.cur.expects.len() as u64;
            }
            let t_sent = Instant::now();
            let slice_done = t_sent.duration_since(slice_start) >= slice_len;
            let last = slice_done && out.slices.len() + 1 == slices;
            if !last {
                self.encode_next(traffic, depth);
            }
            let t_await = Instant::now();
            for (i, c) in self.conns.iter_mut().enumerate() {
                let answered = if write_err {
                    0
                } else {
                    read_window(c, sent_at[i], &mut self.oracle, &mut lat, &mut self.failed)
                };
                if answered < c.cur.expects.len() {
                    self.failed += (c.cur.expects.len() - answered) as u64;
                    self.dead = true;
                }
                slice_ops += answered as u64;
            }
            let t_end = Instant::now();
            let w = tracer.record(None, "window", t0, t_end);
            tracer.record(Some(w), "client.send", t0, t_sent);
            tracer.record(Some(w), "client.await", t_await, t_end);

            if (slice_done || self.dead) && !lat.is_empty() {
                let secs = t_end.duration_since(slice_start).as_secs_f64();
                let us = |q: f64, lat: &mut Vec<u32>| percentile(lat, q) as f64 / 1e3;
                out.slices.push(Slice {
                    kops: slice_ops as f64 / secs / 1e3,
                    p50_us: us(0.50, &mut lat),
                    p95_us: us(0.95, &mut lat),
                    p99_us: us(0.99, &mut lat),
                    p999_us: us(0.999, &mut lat),
                    samples: lat.len() as u64,
                });
                out.ops += slice_ops;
                out.secs += secs;
                slice_ops = 0;
                lat.clear();
                // The percentile selection above is the harness's time, not
                // the server's: the next slice starts after it.
                slice_start = Instant::now();
            }
            if last {
                break;
            }
        }
        out
    }
}

/// Reads the replies of `c.cur`, checking each; returns how many arrived.
/// Fewer than sent means the connection timed out, closed or desynchronized.
fn read_window(
    c: &mut Conn,
    sent_at: Instant,
    oracle: &mut Oracle,
    lat: &mut Vec<u32>,
    failed: &mut u64,
) -> usize {
    let want = c.cur.expects.len();
    let mut got = 0;
    let mut pos = 0;
    c.rbuf.clear();
    let mut chunk = [0u8; 16 * 1024];
    while got < want {
        match c.stream.read(&mut chunk) {
            Ok(0) | Err(_) => return got,
            Ok(n) => c.rbuf.extend_from_slice(&chunk[..n]),
        }
        let ns = sent_at.elapsed().as_nanos().min(u32::MAX as u128) as u32;
        while got < want {
            let Some((reply, used)) = parse_reply(&c.rbuf[pos..]) else {
                break;
            };
            if !check_reply(c.cur.expects[got], reply, oracle) {
                *failed += 1;
            }
            lat.push(ns);
            pos += used;
            got += 1;
        }
    }
    got
}
