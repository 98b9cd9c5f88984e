//! The two kinds of run: the untraced one that yields the end-to-end
//! metrics, and the traced one that yields the per-layer metrics.

use crate::affinity;
use crate::client::{Client, Phase};
use crate::gen::{request_fingerprint, Traffic};
use crate::harness::{recover_and_verify, run_in_process, set_up, Served};
use crate::layers;
use crate::spec::{Spec, CONNS};
use crate::stats::median;
use crate::trace::Tracer;
use std::path::Path;
use std::time::Duration;

/// Slices the measured window is cut into; every timing metric is the
/// median of the slice values.
pub const SLICES: usize = 6;
/// Times the store is built, loaded and served per untraced run; `setup_s`
/// is their median and the first one is the store the run measures.
pub const SETUPS: usize = 3;
/// Warm-up before the measured window, as a share of `--seconds`.
pub const WARM_UP: f64 = 0.25;
/// Request bytes covered by the printed fingerprint.
pub const FINGERPRINT_BYTES: usize = 1_000_000;

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run reports: the result line's fields plus diagnostics that are
/// printed but are not part of the contract.
pub struct Report {
    /// The CPUs the process may use, as found at start (`None`: unknown).
    cpus: Option<[u64; 16]>,
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
}

impl Report {
    fn new(spec: &Spec, seed: u64) -> Self {
        let fp = request_fingerprint(spec, seed, FINGERPRINT_BYTES);
        let cpus = affinity::current();
        let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
        let pinned = affinity::pin(affinity::SUT_CPU) && affinity::pin(affinity::HARNESS_CPU);
        let notes = vec![
            format!(
                "{}: seed {seed:#x}, loopback, closed loop, 1 client thread x {CONNS} connections, depth {}, \
                 {} keys ({} MB of records, {} MB log buffer), {} cpus",
                spec.name,
                spec.depth,
                spec.keys,
                spec.dataset_bytes() >> 20,
                (spec.log.buffer_pages << spec.log.page_bits) >> 20,
                parallelism,
            ),
            format!("request fingerprint (fnv1a of first {FINGERPRINT_BYTES} bytes): {fp:016x}"),
            if pinned {
                format!(
                    "server + WAL commit thread on cpu {}, client + simulated devices on cpu {}",
                    affinity::SUT_CPU,
                    affinity::HARNESS_CPU
                )
            } else {
                "could not pin threads to cpus: placement is the scheduler's, expect wider spreads".into()
            },
        ];
        Report {
            cpus,
            workload: spec.name,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            notes,
        }
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The contract's result line.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Every metric by name with its unit, then the diagnostics.
    pub fn print_human(&self) {
        for n in &self.notes {
            println!("# {n}");
        }
        for m in &self.metrics {
            println!(
                "{:<12} {:<28} {:>16.4} {}",
                self.workload, m.name, m.value, m.unit
            );
        }
        println!(
            "{:<12} {:<28} {:>16.6} ratio ({} failed of {} attempted)",
            self.workload,
            "failed_ratio",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
    }
}

/// JSON has no NaN or infinity; a metric that could not be measured (a dead
/// connection) reads 0 and the run is already marked incorrect.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// A `kB` field of `/proc/self/status` (`VmRSS`, `VmHWM`), in bytes.
fn proc_status_bytes(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

/// Hands the allocator's free pages back to the kernel, so that resident
/// memory counts what the process holds and not what three set-ups left
/// behind in free lists.
fn release_free_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's `malloc_trim` takes no pointers and may be called at
    // any time from any thread.
    unsafe { malloc_trim(0) };
}

fn phase_note(label: &str, p: &Phase) -> String {
    format!(
        "{label}: {:.1} kops, p50 {:.1} us, p95 {:.1} us, p99 {:.1} us, p999 {:.1} us \
         (median of {} slices, {} samples; slice kops {:.1?})",
        p.median_of(|s| s.kops),
        p.median_of(|s| s.p50_us),
        p.median_of(|s| s.p95_us),
        p.median_of(|s| s.p99_us),
        p.median_of(|s| s.p999_us),
        p.slices.len(),
        p.slices.iter().map(|s| s.samples).sum::<u64>(),
        p.slices.iter().map(|s| s.kops).collect::<Vec<_>>(),
    )
}

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s)
}

/// Stops the server, drops the store, recovers it from the devices and
/// counts every written key that did not come back into `report.failed`.
fn finish(spec: &Spec, served: Served, oracle: &crate::gen::Oracle, report: &mut Report) {
    let devices = served.tear_down();
    // Recovery is checked, not timed: let it use every CPU again.
    if let Some(all) = &report.cpus {
        affinity::restrict(all);
    }
    let rec = recover_and_verify(spec, devices, oracle);
    report.failed += rec.lost;
    report.notes.push(format!(
        "recovery from the devices alone: {} written keys read back, {} lost, {:.2} s",
        rec.checked, rec.lost, rec.secs
    ));
}

/// `--trace 0`: set up, warm up, measure `seconds` in [`SLICES`] slices,
/// recover and verify — then set up again until there are [`SETUPS`] set-up
/// times. The repeats come last so that the measured store lives in a fresh
/// process and `rss_mb` does not count what earlier stores left behind.
pub fn run_untraced(spec: &Spec, seed: u64, seconds: f64) -> Report {
    let mut report = Report::new(spec, seed);
    let served = set_up(spec);
    let mut setups = vec![served.setup_s];

    let mut tracer = Tracer::new(false);
    let mut client =
        Client::connect(served.server.local_addr(), spec, seed).expect("connect on loopback");
    client.run_phase(
        Traffic::Workload,
        spec.depth,
        secs(seconds * WARM_UP),
        1,
        &mut tracer,
    );
    let phase = client.run_phase(
        Traffic::Workload,
        spec.depth,
        secs(seconds),
        SLICES,
        &mut tracer,
    );
    // The simulated devices' bytes stand in for a disk, and the WAL's grow
    // with every SET the run completes, so they are taken out: a faster
    // server must not read as a fatter one. Free heap is returned first, so
    // that the load's transient queues do not count either.
    let (before, hwm, dev) = (
        proc_status_bytes("VmRSS"),
        proc_status_bytes("VmHWM"),
        served.devices.resident_bytes(),
    );
    release_free_heap();
    let rss = proc_status_bytes("VmRSS").saturating_sub(dev);
    report.notes.push(format!(
        "memory at the end of the measured window: VmRSS {} MB (VmHWM {} MB), {} MB once free heap is \
         returned, of which the devices hold {} MB",
        before >> 20,
        hwm >> 20,
        (rss + dev) >> 20,
        dev >> 20
    ));

    report.attempted = client.attempted;
    report.failed = client.failed;
    if client.dead {
        report
            .notes
            .push("a connection timed out or closed: the run was cut short".into());
    }
    report.notes.push(phase_note("measured", &phase));
    if !phase.slices.is_empty() {
        report.metric("kops", phase.median_of(|s| s.kops), "kops");
        report.metric("p50_us", phase.median_of(|s| s.p50_us), "us");
        report.metric("p95_us", phase.median_of(|s| s.p95_us), "us");
    }
    finish(spec, served, &client.oracle, &mut report);

    while setups.len() < SETUPS {
        let again = set_up(spec);
        setups.push(again.setup_s);
        again.tear_down();
    }
    report.notes.push(format!("set-up times: {setups:.3?} s"));
    report.metric("setup_s", median(&setups), "s");
    report.metric("rss_mb", rss as f64 / (1 << 20) as f64, "MB");
    report
}

/// `--trace 1`: one set-up, then within about `seconds`: the workload over
/// the socket untraced and traced (counter deltas span both), PING probes,
/// the same op streams in process, and the isolated layer probes; then
/// recover and verify. Spans go to `trace_path`.
pub fn run_traced(spec: &Spec, seed: u64, seconds: f64, trace_path: &Path) -> Report {
    let mut report = Report::new(spec, seed);
    let served = set_up(spec);
    let mut off = Tracer::new(false);
    let mut tracer = Tracer::new(true);
    let mut client =
        Client::connect(served.server.local_addr(), spec, seed).expect("connect on loopback");
    let depth = spec.depth;
    client.run_phase(Traffic::Workload, depth, secs(seconds * 0.1), 1, &mut off);

    let m0 = served.store.metrics();
    let dev0 = served.devices.bytes_written();
    let untraced = client.run_phase(Traffic::Workload, depth, secs(seconds * 0.3), 3, &mut off);
    let traced = client.run_phase(
        Traffic::Workload,
        depth,
        secs(seconds * 0.3),
        3,
        &mut tracer,
    );
    let m1 = served.store.metrics();
    let dev1 = served.devices.bytes_written();
    let socket_self = tracer.self_times();

    let ping1 = client.run_phase(Traffic::Ping, 1, secs(seconds * 0.05), 1, &mut off);
    let ping64 = client.run_phase(Traffic::Ping, 64, secs(seconds * 0.05), 1, &mut off);
    report.attempted = client.attempted;
    report.failed = client.failed;
    let dead = client.dead;
    let (mut gens, mut oracle) = client.into_parts();

    served.server.shutdown();
    let inproc = run_in_process(
        &served.store,
        &mut gens,
        &mut oracle,
        depth,
        secs(seconds * 0.2),
        &mut tracer,
    );
    report.attempted += inproc.ops;
    report.failed += inproc.failed;
    let find_keys: Vec<u64> = gens[0].next_ops(200_000).iter().map(|op| op.key).collect();
    let find_ns = layers::index_find_ns(&served.store, &find_keys);

    report.notes.push(phase_note("socket untraced", &untraced));
    report.notes.push(phase_note("socket traced", &traced));
    if dead || untraced.ops == 0 || traced.ops == 0 || inproc.ops == 0 {
        report
            .notes
            .push("a phase completed no operations: per-layer metrics omitted".into());
        report.failed = report.failed.max(1);
        finish(spec, served, &oracle, &mut report);
        return report;
    }

    let d = |a: u64, b: u64| b.saturating_sub(a) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let (s0, s1) = (m0.sessions.totals, m1.sessions.totals);
    let ops = (untraced.ops + traced.ops) as f64;
    let reads = d(s0.reads, s1.reads);
    let writes = d(s0.writes, s1.writes);
    let gets = reads - d(s0.rmws, s1.rmws); // each INCR reads back once
    let socket_ns = (untraced.secs + traced.secs) * 1e9 / ops;
    let inproc_ns =
        (inproc.exec_ns + inproc.storage_wait_ns + inproc.wal_wait_ns) as f64 / inproc.ops as f64;
    let per_traced_op =
        |name: &str| socket_self.get(name).copied().unwrap_or(0) as f64 / traced.ops as f64;

    let per_inproc_op = |ns: u64| ns as f64 / inproc.ops as f64;
    let kops_ratio = ratio(traced.median_of(|s| s.kops), untraced.median_of(|s| s.kops));
    #[rustfmt::skip]
    let per_layer = [
        ("server.ping_rtt_us", ping1.median_of(|s| s.p50_us), "us"),
        ("server.ping_ns_per_cmd", ping64.ns_per_op(), "ns/op"),
        ("server.residual_ns_per_op", socket_ns - inproc_ns, "ns/op"),
        ("client.send_ns_per_op", per_traced_op("client.send"), "ns/op"),
        ("client.await_ns_per_op", per_traced_op("client.await"), "ns/op"),
        ("client.window_self_ns_per_op", per_traced_op("window"), "ns/op"),
        ("trace.kops_ratio", kops_ratio, "ratio"),
        ("core.exec_ns_per_op", per_inproc_op(inproc.exec_ns), "ns/op"),
        ("core.storage_await_ns_per_op", per_inproc_op(inproc.storage_wait_ns), "ns/op"),
        ("core.wal_await_ns_per_op", per_inproc_op(inproc.wal_wait_ns), "ns/op"),
        ("index.find_ns", find_ns, "ns/op"),
        ("index.probe_len", ratio(d(m0.index.probe_steps, m1.index.probe_steps), d(m0.index.probes, m1.index.probes)), "ratio"),
        ("hlog.in_place_ratio", ratio(d(s0.in_place, s1.in_place), writes), "ratio"),
        ("hlog.pending_ratio", ratio(d(s0.reads_pending, s1.reads_pending), reads), "ratio"),
        ("hlog.appends", d(m0.hlog.appends, m1.hlog.appends), "count"),
        ("hlog.page_seals", d(m0.hlog.page_seals, m1.hlog.page_seals), "count"),
        ("hlog.flushes_completed", d(m0.hlog.flushes_completed, m1.hlog.flushes_completed), "count"),
        ("hlog.frames_evicted", d(m0.hlog.frames_evicted, m1.hlog.frames_evicted), "count"),
        ("storage.read_us_d1", layers::storage_read_us(1, 2_000), "us"),
        ("storage.read_us_d64", layers::storage_read_us(64, 500), "us"),
        ("storage.device_reads_per_get", ratio(d(m0.storage.device_reads, m1.storage.device_reads), gets), "ratio"),
        ("storage.write_amp", ratio((dev1 - dev0) as f64, 16.0 * writes), "ratio"),
        ("wal.commit_us", layers::wal_commit_us(2_000), "us"),
        ("wal.ops_per_commit", ratio(d(m0.wal.appends, m1.wal.appends), d(m0.wal.commits, m1.wal.commits)), "ratio"),
        ("wal.commits", d(m0.wal.commits, m1.wal.commits), "count"),
        ("epoch.refreshes_per_kop", ratio(d(m0.epoch.refreshes, m1.epoch.refreshes), ops / 1e3), "1/kop"),
        ("epoch.bumps", d(m0.epoch.bumps, m1.epoch.bumps), "count"),
    ];
    for (name, value, unit) in per_layer {
        report.metric(name, value, unit);
    }

    report.notes.push(format!(
        "tracing overhead: {:.1} kops traced vs {:.1} kops untraced",
        traced.median_of(|s| s.kops),
        untraced.median_of(|s| s.kops)
    ));
    report.notes.push(format!(
        "socket {socket_ns:.0} ns/op vs in-process {inproc_ns:.0} ns/op over {} in-process ops",
        inproc.ops
    ));
    for (name, ns) in tracer.self_times() {
        report.notes.push(format!(
            "span self time {name}: {:.3} s over {} spans",
            ns as f64 / 1e9,
            tracer.spans().iter().filter(|s| s.name == name).count()
        ));
    }
    let written = trace_path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|_| tracer.write_jsonl(trace_path));
    report.notes.push(match written {
        Ok(()) => format!(
            "{} spans written to {}",
            tracer.spans().len(),
            trace_path.display()
        ),
        Err(e) => format!("could not write {}: {e}", trace_path.display()),
    });
    finish(spec, served, &oracle, &mut report);
    report
}
