//! Property-based equivalence of the batched and scalar operation surfaces:
//! driving one store through `execute_batch` must produce, op for op, the
//! same results as driving a second store through the scalar API — for
//! arbitrary op sequences, arbitrary batch boundaries, and stores small
//! enough that the log spills and reads go pending mid-batch.

use faster_core::{
    BatchOp, CountCrdt, CountStore, FasterKv, FasterKvConfig, Functions, OpError, Session,
};
use faster_hlog::HLogConfig;
use faster_index::IndexConfig;
use faster_integration_tests::{read_blocking, rmw_blocking};
use faster_storage::MemDevice;
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum ModelOp {
    Upsert(u64, u64),
    Rmw(u64, u64),
    Read(u64),
    Delete(u64),
}

fn op_strategy(key_space: u64) -> impl Strategy<Value = ModelOp> {
    prop_oneof![
        (0..key_space, 1u64..100).prop_map(|(k, v)| ModelOp::Upsert(k, v)),
        (0..key_space, 1u64..100).prop_map(|(k, v)| ModelOp::Rmw(k, v)),
        (0..key_space).prop_map(ModelOp::Read),
        (0..key_space).prop_map(ModelOp::Delete),
    ]
}

fn tiny_store<F: Functions<u64, u64>>(functions: F) -> FasterKv<u64, u64, F> {
    let cfg = FasterKvConfig::small()
        .with_index(IndexConfig { k_bits: 4, tag_bits: 15, max_resize_chunks: 2 })
        // Minuscule buffer: sequences regularly spill, so batches straddle
        // resident and on-disk records and reads go pending mid-batch.
        .with_log(HLogConfig { page_bits: 9, buffer_pages: 4, mutable_pages: 2, io_threads: 1 })
        .with_max_sessions(4)
        .with_refresh_interval(8);
    FasterKv::new(cfg, functions, MemDevice::new(1))
}

fn to_batch_op(op: &ModelOp) -> BatchOp<u64, u64, u64> {
    match *op {
        ModelOp::Upsert(k, v) => BatchOp::Upsert { key: k, value: v },
        ModelOp::Rmw(k, v) => BatchOp::Rmw { key: k, input: v },
        ModelOp::Read(k) => BatchOp::Read { key: k, input: 0 },
        ModelOp::Delete(k) => BatchOp::Delete { key: k },
    }
}

/// Per op index, the value each read and RMW answered (`None`: absent key,
/// or a CRDT delta's `Done`).
type Answers = Vec<(usize, Option<u64>)>;

/// Drives `ops` through `execute_batch` in batches of at most `batch_len`,
/// draining every pending op before the next batch starts (the intended
/// usage pattern). With `cut_after_rmw`, a batch also ends after each RMW:
/// the RESP server's rule, under which an RMW that goes pending completes
/// before anything behind it executes.
fn run_batched<F>(
    s: &Session<u64, u64, F>,
    ops: &[ModelOp],
    batch_len: usize,
    cut_after_rmw: bool,
) -> Answers
where
    F: Functions<u64, u64, Input = u64, Output = u64>,
{
    let mut answers = Answers::new();
    let mut from = 0;
    while from < ops.len() {
        let mut end = (from + batch_len).min(ops.len());
        let first_rmw = ops[from..end].iter().position(|op| matches!(op, ModelOp::Rmw(..)));
        if let (true, Some(i)) = (cut_after_rmw, first_rmw) {
            end = from + i + 1;
        }
        let batch: Vec<_> = ops[from..end].iter().map(to_batch_op).collect();
        let mut waiting: HashMap<u64, usize> = HashMap::new();
        for (i, outcome) in (from..).zip(s.execute_batch(&batch)) {
            match (&ops[i], outcome) {
                (ModelOp::Upsert(..) | ModelOp::Delete(_), Ok(_)) => {}
                (_, Ok(outcome)) => answers.push((i, outcome.value())),
                (ModelOp::Read(_), Err(OpError::NotFound)) => answers.push((i, None)),
                (_, Err(OpError::Pending(id))) => drop(waiting.insert(id, i)),
                (op, other) => panic!("batched {op:?} refused: {other:?}"),
            }
        }
        while !waiting.is_empty() {
            for done in s.complete_pending(true) {
                let Some(i) = waiting.remove(&done.id) else { continue };
                let value = match done.result {
                    Ok(outcome) => outcome.value(),
                    Err(OpError::NotFound) => None,
                    other => panic!("pending batched op {i} failed: {other:?}"),
                };
                answers.push((i, value));
            }
        }
        from = end;
    }
    answers.sort_unstable();
    answers
}

/// Drives `ops` one scalar call at a time.
fn run_scalar<F>(s: &Session<u64, u64, F>, ops: &[ModelOp]) -> Answers
where
    F: Functions<u64, u64, Input = u64, Output = u64>,
{
    let mut answers = Answers::new();
    for (i, op) in ops.iter().enumerate() {
        match *op {
            ModelOp::Upsert(k, v) => drop(s.upsert(&k, &v).expect("scalar upsert refused")),
            ModelOp::Rmw(k, v) => answers.push((i, rmw_blocking(s, k, v))),
            ModelOp::Read(k) => answers.push((i, read_blocking(s, k))),
            ModelOp::Delete(k) => drop(s.delete(&k).expect("scalar delete refused")),
        }
    }
    s.complete_pending(true);
    answers
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// `CountCrdt`: an RMW never goes pending, so batches need no cut. Where
    /// its record sits decides whether an RMW answers a value or a delta's
    /// `Done`, and refresh cadence differs between the two surfaces, so
    /// only the reads are compared op for op.
    #[test]
    fn batched_equals_scalar_op_for_op(
        ops in proptest::collection::vec(op_strategy(32), 1..300),
        batch_len in 1usize..24,
    ) {
        let (batched, scalar) = (tiny_store(CountCrdt), tiny_store(CountCrdt));
        let (bs, ss) = (batched.start_session(), scalar.start_session());
        let reads = |answers: Answers| -> Answers {
            answers.into_iter().filter(|&(i, _)| matches!(ops[i], ModelOp::Read(_))).collect()
        };
        let b = reads(run_batched(&bs, &ops, batch_len, false));
        prop_assert_eq!(b, reads(run_scalar(&ss, &ops)), "per-op read results diverge");

        // Final state must agree on the whole key space too.
        for k in 0..32u64 {
            prop_assert_eq!(read_blocking(&bs, k), read_blocking(&ss, k), "final key {}", k);
        }
    }

    /// `CountStore` under the server's rule: an RMW may go pending, so each
    /// batch ends after its RMW, which completes before the next batch. Every
    /// read and every RMW answers what its scalar twin answers.
    #[test]
    fn batches_cut_after_each_rmw_equal_scalar_op_for_op(
        ops in proptest::collection::vec(op_strategy(32), 1..300),
        batch_len in 1usize..24,
    ) {
        let (batched, scalar) = (tiny_store(CountStore), tiny_store(CountStore));
        let (bs, ss) = (batched.start_session(), scalar.start_session());
        let (b, s) = (run_batched(&bs, &ops, batch_len, true), run_scalar(&ss, &ops));
        prop_assert_eq!(b, s, "per-op read and RMW results diverge");
        for k in 0..32u64 {
            prop_assert_eq!(read_blocking(&bs, k), read_blocking(&ss, k), "final key {}", k);
        }
    }
}
