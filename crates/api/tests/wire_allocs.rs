//! Allocation gate for the wire codecs on the daemon's success path.
//!
//! A warm line through [`Server::process_line`] decodes its request,
//! executes it against resident profiles and encodes the reply. The
//! codec's share of that is one allocation per owned string or array
//! and one per object, so the counts below move only when a codec does.
//!
//! The binary installs [`CountingAlloc`] as its global allocator and
//! holds a single test so no other test's allocations land in the
//! measurement.

use leqa::meter::CountingAlloc;
use leqa_api::{Server, Session};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Each warm line and the most allocations it may make (the counts of
/// the hand-written codecs this crate had before its field tables).
const LINES: [(&str, usize); 3] = [
    (
        r#"{"schema_version":1,"op":"estimate","program":{"bench":"qft_16"}}"#,
        56,
    ),
    (
        r#"{"schema_version":1,"op":"sweep","program":{"bench":"qft_16"},"sizes":[20,40,60,80]}"#,
        // The `parallel` feature fans the sides out over the worker pool.
        if cfg!(feature = "parallel") { 89 } else { 82 },
    ),
    (
        r#"{"schema_version":1,"op":"map","program":{"bench":"qft_8"},"placement":"rowmajor"}"#,
        54,
    ),
];

#[test]
fn warm_lines_allocate_within_their_budgets() {
    let server = Server::new(Session::builder().build().expect("default session builds"));
    for (line, budget) in LINES {
        // The first answer loads the program and resolves its paths.
        server.process_line(line).expect("a reply");
        let before = ALLOC.allocations();
        let warm = server.process_line(line).expect("a reply");
        let allocations = ALLOC.allocations() - before;
        assert!(!warm.contains("\"op\":\"error\""), "{warm}");
        println!("{allocations} allocations: {line}");
        assert!(
            allocations <= budget,
            "{allocations} allocations (budget {budget}) for {line}"
        );
    }
}
