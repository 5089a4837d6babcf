//! Parallel batch compilation with deterministic output ordering.
//!
//! Fittingly for a reproduction of a self-scheduling paper, the batch
//! compiler *is* a self-scheduled loop: workers grab the next source
//! index from one shared atomic counter (the software analogue of the
//! machine's fetch&add dispatcher) and write their result into that
//! index's dedicated slot. Output order therefore depends only on input
//! order, never on scheduling — `compile_batch` returns exactly what
//! mapping [`crate::Driver::compile`] over the inputs sequentially would.
//!
//! Each item records its own wall time ([`BatchItem::nanos`]), and a
//! panic while compiling one source is converted into that item's error
//! instead of tearing down the whole batch: the other slots still get
//! their results.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use lc_ir::{Error, Result};

use crate::sync::{into_inner_recovering, lock_recovering};
use crate::{Driver, DriverOutput};

/// One slot of a batch compilation: the item's outcome plus how long it
/// took on its worker (wall time, nanoseconds, always ≥ 1).
#[derive(Debug)]
pub struct BatchItem {
    /// The compilation outcome. A panic inside the compiler surfaces
    /// here as `Err` (an [`Error::Unsupported`] carrying the panic
    /// message), never as a batch-wide abort.
    pub result: Result<DriverOutput>,
    /// Wall time this item spent compiling, in nanoseconds.
    pub nanos: u64,
}

/// Run `f`, timing it and converting a panic into an `Err` so one bad
/// item can never tear down the batch.
fn guarded<F>(f: F) -> BatchItem
where
    F: FnOnce() -> Result<DriverOutput>,
{
    let start = Instant::now();
    let result = match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => {
            let msg = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "<non-string panic payload>".to_string()
            };
            Err(Error::unsupported(format!(
                "compile worker panicked: {msg}"
            )))
        }
    };
    BatchItem {
        result,
        nanos: start.elapsed().as_nanos().max(1) as u64,
    }
}

/// Run one compilation, timing it and containing panics to the item.
fn compile_one(driver: &Driver, source: &str) -> BatchItem {
    guarded(|| driver.compile(source))
}

/// Compile every source, in parallel, preserving input order.
pub fn compile_batch<S: AsRef<str> + Sync>(driver: &Driver, sources: &[S]) -> Vec<BatchItem> {
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(sources.len());
    if workers <= 1 {
        return sources
            .iter()
            .map(|s| compile_one(driver, s.as_ref()))
            .collect();
    }

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<BatchItem>>> = sources.iter().map(|_| Mutex::new(None)).collect();

    // `compile_one` already converts panics into per-item errors, so a
    // worker can only die between items; tolerate that instead of
    // propagating it — every handle is joined and its `Err` ignored, every
    // slot a dead worker never reached is reported below, and the
    // poison-recovering accessors keep the surviving slots readable.
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= sources.len() {
                        break;
                    }
                    *lock_recovering(&slots[i]) = Some(compile_one(driver, sources[i].as_ref()));
                })
            })
            .collect();
        for handle in handles {
            let _ = handle.join();
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            into_inner_recovering(slot).unwrap_or_else(|| BatchItem {
                result: Err(Error::unsupported(
                    "batch worker died before compiling this item".to_string(),
                )),
                nanos: 1,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panics_become_per_item_errors() {
        let item = guarded(|| panic!("boom {}", 42));
        let err = item.result.expect_err("panic must surface as Err");
        assert!(
            err.to_string().contains("compile worker panicked: boom 42"),
            "{err}"
        );
        assert!(item.nanos >= 1);

        let item = guarded(|| std::panic::panic_any(3usize));
        let err = item.result.expect_err("panic must surface as Err");
        assert!(err.to_string().contains("<non-string panic payload>"));
    }

    #[test]
    fn successful_items_report_wall_time() {
        let driver = Driver::default();
        let item = compile_one(
            &driver,
            "array A[2][3]; doall i = 1..2 { doall j = 1..3 { A[i][j] = i + j; } }",
        );
        assert!(item.result.is_ok());
        assert!(item.nanos >= 1);
    }
}
