//! Warm-hit allocation gate: once a benchmark program is resident, a
//! repeat `Session::load` of its name must not re-derive it — no
//! regenerated circuit, no canonical `.qc` text, no content hash. Doing
//! any of that costs megabytes of transient heap on these workloads; a
//! warm hit costs the handle's label.
//!
//! A warm `estimate` or `sweep` reads the critical path's census from the
//! profile's path table and copies no node path: on `random_16_60000` a
//! path copy would cost about 780 KB per estimate.
//!
//! The binary installs [`CountingAlloc`] as its global allocator, so the
//! figures are live requested bytes and repeat exactly. It holds a
//! single test so no other test's allocations land in the measurement.

use leqa::meter::CountingAlloc;
use leqa_api::{EstimateRequest, ProgramSpec, Session, SweepRequest};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Peak live-heap growth allowed for three warm loads of one program.
const WARM_BUDGET: usize = 1024;

/// Peak live-heap growth allowed for one warm estimate or sweep: the
/// reply and its working buffers, no node path.
const WARM_QUERY_BUDGET: usize = 64 * 1024;

#[test]
fn warm_bench_loads_allocate_next_to_nothing() {
    let session = Session::builder().build().expect("default session builds");
    for name in ["qft_64", "random_16_60000"] {
        let spec = ProgramSpec::bench(name);
        let first = session.load(&spec).expect("bench loads");
        let _ = first.profile_data();
        drop(first);

        let baseline = ALLOC.live_bytes();
        ALLOC.reset_peak();
        for _ in 0..3 {
            let handle = session.load(&spec).expect("warm bench loads");
            assert_eq!(handle.label(), name);
        }
        let growth = ALLOC.peak_bytes().saturating_sub(baseline);
        println!("{name}: three warm loads peaked {growth} bytes above the resident heap");
        assert!(
            growth < WARM_BUDGET,
            "{name}: three warm loads peaked {growth} bytes above the resident heap \
             (budget {WARM_BUDGET})"
        );
    }
    let stats = session.cache_stats();
    assert_eq!((stats.cache_misses, stats.cache_hits), (2, 6));
    assert_eq!(stats.profile_builds, 2);

    let spec = ProgramSpec::bench("random_16_60000");
    let estimate = EstimateRequest::new(spec.clone());
    let sweep = SweepRequest::new(spec, [40, 48, 56, 64, 72, 80]);
    let queries: [(&str, &dyn Fn()); 2] = [
        ("estimate", &|| {
            drop(session.estimate(&estimate).expect("fits"))
        }),
        ("6-side sweep", &|| {
            drop(session.sweep(&sweep).expect("fits"))
        }),
    ];
    for (what, query) in queries {
        // The first call resolves the censuses; the second is warm.
        query();
        let baseline = ALLOC.live_bytes();
        let allocations = ALLOC.allocations();
        ALLOC.reset_peak();
        query();
        let growth = ALLOC.peak_bytes().saturating_sub(baseline);
        let allocations = ALLOC.allocations() - allocations;
        println!(
            "random_16_60000: a warm {what} peaked {growth} bytes above the resident heap \
             in {allocations} allocations"
        );
        assert!(
            growth < WARM_QUERY_BUDGET,
            "random_16_60000: a warm {what} peaked {growth} bytes above the resident heap \
             (budget {WARM_QUERY_BUDGET})"
        );
    }
}
