//! Bytes the mapper holds. A mapping thread keeps its scratch between
//! runs. Beyond what the fabric and the qubit count size, the scratch
//! holds the dependency state, each wire's op list at 4 bytes per
//! operand, so it stays under 8 bytes per op; successor lists with
//! pending counts would take about 32. A warm session `compare` places
//! from the IIG its profile already holds, so the call's peak heap stays
//! below what counting that IIG again would add.
//!
//! The binary installs [`CountingAlloc`] as its global allocator and holds
//! a single test, so no other test's allocations land in a measurement.

use leqa::meter::CountingAlloc;
use leqa_api::{CompareRequest, ProgramSpec, Session};
use leqa_circuit::{decompose::lower_to_ft, FtCircuit, Iig, Qodg};
use leqa_fabric::{FabricDims, PhysicalParams};
use qspr::Mapper;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const PROGRAM: &str = "gf2^64mult";

#[test]
fn mapping_keeps_the_wire_lists_and_compare_reuses_the_profile_iig() {
    let bench = leqa_workloads::SUITE
        .iter()
        .find(|b| b.name == PROGRAM)
        .expect("a suite program");
    let qodg = Qodg::from(lower_to_ft(&bench.circuit()).expect("suite programs lower"));
    let ops = qodg.op_count();

    // (a) The scratch a thread keeps for one map, results dropped, over
    // what it keeps for the same wires with no ops: the calendars, ULB
    // and per-qubit buffers scale with the fabric and `Q`, not the ops.
    let kept = std::thread::scope(|scope| {
        scope
            .spawn(|| {
                let mapper = Mapper::new(FabricDims::dac13(), PhysicalParams::dac13());
                let empty = Qodg::from(FtCircuit::new(qodg.num_qubits()));
                drop(mapper.map(&empty).expect("the suite fits 60x60"));
                let before = ALLOC.live_bytes();
                drop(mapper.map(&qodg).expect("the suite fits 60x60"));
                ALLOC.live_bytes() - before
            })
            .join()
            .unwrap()
    });
    println!(
        "{PROGRAM}: a mapping thread keeps {:.2} B/op beyond its fabric and \
         qubit buffers ({ops} ops)",
        kept as f64 / ops as f64
    );
    assert!(
        kept <= 8 * ops,
        "a mapping thread keeps {kept} bytes for {ops} ops beyond its fabric \
         and qubit buffers"
    );

    // The bytes of the program's IIG, held.
    let before = ALLOC.live_bytes();
    let iig = Iig::from_qodg(&qodg);
    let iig_bytes = ALLOC.live_bytes() - before;
    drop(iig);

    // (b) A warm compare's peak above the resident heap.
    let session = Session::builder().build().expect("default session builds");
    let request = CompareRequest::new(ProgramSpec::bench(PROGRAM));
    let cold = session.compare(&request).expect("the suite fits 60x60");
    let baseline = ALLOC.live_bytes();
    ALLOC.reset_peak();
    let warm = session.compare(&request).expect("the suite fits 60x60");
    let growth = ALLOC.peak_bytes() - baseline;
    assert_eq!(warm, cold);
    println!(
        "{PROGRAM}: a warm compare peaks {growth} bytes above the resident heap; \
         its IIG holds {iig_bytes} bytes"
    );
    assert!(
        growth < iig_bytes,
        "a warm compare peaked {growth} bytes above the resident heap, \
         at least the {iig_bytes} bytes of the program's IIG"
    );
}
