//! Integration-test support: shared helpers for driving a FASTER store in
//! cross-crate tests.

use faster_core::{Functions, OpError, Outcome, Session};
use faster_util::Pod;

pub mod fault_harness;

/// Reads a key, driving the pending path to completion when needed.
pub fn read_blocking<V: Pod, F>(session: &Session<u64, V, F>, key: u64) -> Option<F::Output>
where
    F: Functions<u64, V, Input = u64>,
{
    match read_result(session, key) {
        Ok(r) => r,
        Err(e) => panic!("read of {key} failed after retries: {e}"),
    }
}

/// Like [`read_blocking`], but surfaces a failed pending read as `Err`
/// instead of panicking — resilience tests assert on the typed error
/// (`IoError::Corrupt`, exhausted-retry `IoError::Failed`, ...).
pub fn read_result<V: Pod, F>(
    session: &Session<u64, V, F>,
    key: u64,
) -> Result<Option<F::Output>, faster_storage::IoError>
where
    F: Functions<u64, V, Input = u64>,
{
    match session.read(&key, &0) {
        Ok(Outcome::Value(v)) => Ok(Some(v)),
        Ok(Outcome::Done) => unreachable!("reads never complete as Done"),
        Err(OpError::NotFound) => Ok(None),
        Err(OpError::Pending(id)) => {
            let done = session.complete_pending(true);
            for c in done {
                if c.id != id {
                    continue;
                }
                return match c.result {
                    Ok(Outcome::Value(v)) => Ok(Some(v)),
                    Ok(Outcome::Done) => unreachable!("reads never complete as Done"),
                    Err(OpError::NotFound) => Ok(None),
                    Err(OpError::Io(e)) => Err(e),
                    Err(e) => panic!("pending read {id} completed oddly: {e}"),
                };
            }
            panic!("pending read {id} never completed");
        }
        Err(e) => panic!("read of {key} refused: {e}"),
    }
}

/// RMW that always runs to completion. Returns its output: `None` for a
/// CRDT delta (which reports `Done`) or a refused RMW.
pub fn rmw_blocking<V: Pod, F>(
    session: &Session<u64, V, F>,
    key: u64,
    input: u64,
) -> Option<F::Output>
where
    F: Functions<u64, V, Input = u64>,
{
    let result = match session.rmw(&key, &input) {
        Err(OpError::Pending(id)) => {
            let done = session.complete_pending(true);
            done.into_iter().find(|c| c.id == id).expect("a waiting drain completes it").result
        }
        result => result,
    };
    result.ok().and_then(Outcome::value)
}
