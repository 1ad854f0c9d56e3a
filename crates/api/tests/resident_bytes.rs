//! Resident bytes of a session program. A program loaded by `map` holds
//! its lowered op list (12 bytes per op) and its canonical text, nothing
//! else. `estimate`, `sweep` and `compare` then add its profile (the IIG
//! and resolved paths) but never the QODG's predecessor table, which
//! alone costs at least 12 bytes per op: a 4-byte offset and an 8-byte
//! edge per node.
//!
//! The binary installs [`CountingAlloc`] as its global allocator and holds
//! a single test, so no other test's allocations land in a measurement.

use leqa::meter::CountingAlloc;
use leqa_api::{CompareRequest, EstimateRequest, MapRequest, ProgramSpec, Session, SweepRequest};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Runs `f` on a thread that exits afterwards, so per-thread scratch
/// (the mapper's) is freed before anything is measured.
fn on_thread<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|scope| scope.spawn(f).join().unwrap())
}

/// Live bytes after the `map` load and after the other endpoints, both
/// relative to before the load, and the op count.
fn resident(session: &Session, name: &str) -> (usize, usize, usize) {
    let before = ALLOC.live_bytes();
    let program = ProgramSpec::bench(name);
    let ops = on_thread(|| {
        let reply = session.map(&MapRequest::new(program.clone())).unwrap();
        reply.program.ops as usize
    });
    let loaded = ALLOC.live_bytes() - before;
    on_thread(|| {
        session
            .estimate(&EstimateRequest::new(program.clone()))
            .unwrap();
        session
            .sweep(&SweepRequest::new(program.clone(), [40, 60, 80]))
            .unwrap();
        session.compare(&CompareRequest::new(program)).unwrap();
    });
    (loaded, ALLOC.live_bytes() - before, ops)
}

#[test]
fn a_session_program_holds_its_op_list_and_no_pred_table() {
    let session = Session::builder().build().unwrap();
    // Warm what every program shares (the worker pool, the session's
    // maps) on another program first.
    resident(&session, "8bitadder");

    let (loaded, served, ops) = resident(&session, "gf2^64mult");
    println!(
        "gf2^64mult in a session: {:.2} B/op after map, {:.2} B/op after \
         estimate, sweep and compare ({ops} ops)",
        loaded as f64 / ops as f64,
        served as f64 / ops as f64
    );
    assert!(
        loaded <= 14 * ops,
        "the loaded program holds {loaded} bytes for {ops} ops"
    );
    let added = served - loaded;
    assert!(
        added < 12 * ops,
        "estimate, sweep and compare added {added} bytes for {ops} ops"
    );
}
