//! The shared-state contract of [`Session`]: `Send + Sync`, `&self`
//! endpoints hammered from many threads with byte-identical responses,
//! coherent atomic cache accounting, and batch/serial bit-identity.

use leqa_api::{
    CompareRequest, EstimateRequest, MapRequest, ProgramSpec, Request, Session, SweepRequest,
    ZonesRequest,
};

/// The `Send + Sync` contract is part of the public API: a concurrent
/// service shares one `Session` across its worker threads.
#[test]
fn session_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Session>();
    assert_send_sync::<leqa_api::ProgramHandle>();
}

fn mixed_requests() -> Vec<Request> {
    vec![
        Request::Estimate(EstimateRequest::new(ProgramSpec::bench("8bitadder"))),
        Request::Estimate(EstimateRequest::new(ProgramSpec::bench("qft_8"))),
        Request::Zones(ZonesRequest::new(ProgramSpec::bench("8bitadder")).with_limit(3)),
        Request::Sweep(SweepRequest::new(ProgramSpec::bench("qft_8"), [4, 10, 20])),
        Request::Compare(CompareRequest::new(ProgramSpec::bench("8bitadder")).with_fabric(12, 12)),
        Request::Map(MapRequest::new(ProgramSpec::bench("qft_8")).with_trace_limit(5)),
        Request::Estimate(EstimateRequest::new(ProgramSpec::source(
            ".qubits 3\ncnot 0 1\nh 2\ncnot 1 2\n",
        ))),
    ]
}

/// Distinct programs named by [`mixed_requests`].
const DISTINCT_PROGRAMS: u64 = 3;

/// Encodes a response slot the way a service would put it on the wire.
fn wire(slot: &Result<leqa_api::Response, leqa_api::LeqaError>) -> String {
    match slot {
        Ok(resp) => resp.to_json().encode(),
        Err(e) => format!("error: {e}"),
    }
}

#[test]
fn hammered_session_matches_the_serial_run_byte_for_byte() {
    let session = Session::builder().build().unwrap();
    let requests = mixed_requests();

    // Warm the cache once so every later load is a deterministic hit
    // (first-load `profile_cached` flags depend on arrival order under
    // true concurrency, by design).
    for req in &requests {
        session.load(req.program()).unwrap();
    }
    let warm = session.cache_stats();
    assert_eq!(warm.cache_misses, DISTINCT_PROGRAMS);
    assert_eq!(warm.cache_hits + warm.cache_misses, warm.loads);

    // The serial reference run, on the same session.
    let expected: Vec<String> = requests
        .iter()
        .map(|req| wire(&session.execute(req)))
        .collect();

    // Hammer: N threads share the session and each replays the whole
    // mixed set several times.
    const THREADS: usize = 8;
    const ROUNDS: usize = 3;
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let session = &session;
            let requests = &requests;
            let expected = &expected;
            scope.spawn(move || {
                for _ in 0..ROUNDS {
                    for (req, want) in requests.iter().zip(expected) {
                        let got = wire(&session.execute(req));
                        assert_eq!(&got, want, "concurrent response diverged");
                    }
                }
            });
        }
    });

    // Accounting stayed coherent under fire: every load was counted
    // exactly once as a hit or a miss, no load re-lowered a program.
    let stats = session.cache_stats();
    assert_eq!(stats.cache_hits + stats.cache_misses, stats.loads);
    assert_eq!(stats.cache_misses, DISTINCT_PROGRAMS);
    // One load per request in the warm pass, the serial pass, and every
    // hammer round.
    let total_loads = (requests.len() as u64) * (2 + (THREADS * ROUNDS) as u64);
    assert_eq!(stats.loads, total_loads);
    // Profiles are exactly-once per program no matter how many threads
    // raced (`map` never builds one, so at most DISTINCT_PROGRAMS).
    assert!(stats.profile_builds <= DISTINCT_PROGRAMS);
}

#[test]
fn concurrent_first_loads_build_each_profile_once() {
    // No pre-warm: threads race on cold programs. Responses may disagree
    // on `profile_cached` (by design), but the cache must stay coherent:
    // one miss per distinct program, everything else hits.
    let session = Session::builder().build().unwrap();
    let req = EstimateRequest::new(ProgramSpec::bench("qft_8"));
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let session = &session;
            let req = &req;
            scope.spawn(move || {
                let resp = session.estimate(req).unwrap();
                assert!(resp.latency_us > 0.0);
            });
        }
    });
    let stats = session.cache_stats();
    assert_eq!(stats.cache_hits + stats.cache_misses, stats.loads);
    assert_eq!(stats.loads, 8);
    assert!(stats.cache_misses >= 1, "someone had to lower the program");
    assert_eq!(
        stats.profile_builds, 1,
        "OnceLock keeps profiles exactly-once"
    );
}

#[test]
fn batch_is_bit_identical_to_the_serial_order() {
    let requests = mixed_requests();

    // Serial reference: a fresh session executing request by request,
    // with the batch's per-slot error context applied.
    let serial_session = Session::builder().build().unwrap();
    let serial: Vec<Result<leqa_api::Response, leqa_api::LeqaError>> = requests
        .iter()
        .enumerate()
        .map(|(i, req)| {
            serial_session
                .execute(req)
                .map_err(|e| e.context(format!("batch request {i}")))
        })
        .collect();

    let batch_session = Session::builder().build().unwrap();
    let batch = batch_session.batch(&requests);

    assert_eq!(batch.results.len(), serial.len());
    for (got, want) in batch.results.iter().zip(&serial) {
        assert_eq!(
            wire(got),
            wire(want),
            "wire bytes must match the serial order"
        );
    }
    // Including the cache accounting.
    assert_eq!(batch_session.cache_stats(), serial_session.cache_stats());

    // A second identical batch is all hits, and still byte-stable.
    let again = batch_session.batch(&requests);
    let stats = batch_session.cache_stats();
    assert_eq!(stats.cache_hits + stats.cache_misses, stats.loads);
    assert_eq!(stats.cache_misses, DISTINCT_PROGRAMS);
    for (slot, first) in again.results.iter().zip(&batch.results) {
        match (slot, first) {
            (Ok(a), Ok(b)) => {
                let mut a = a.to_json().encode();
                let mut b = b.to_json().encode();
                // Only the cache flag may differ between a cold and a
                // warm batch.
                a = a.replace("\"profile_cached\":false", "\"profile_cached\":true");
                b = b.replace("\"profile_cached\":false", "\"profile_cached\":true");
                assert_eq!(a, b);
            }
            other => panic!("unexpected slots: {other:?}"),
        }
    }
}

#[test]
fn clear_cache_is_safe_under_concurrent_loads() {
    // Smoke: loads racing a cache clear must neither deadlock nor
    // corrupt accounting (hits + misses == loads throughout).
    let session = Session::builder().build().unwrap();
    let req = EstimateRequest::new(ProgramSpec::bench("qft_8"));
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let session = &session;
            let req = &req;
            scope.spawn(move || {
                for _ in 0..5 {
                    session.estimate(req).unwrap();
                }
            });
        }
        let session = &session;
        scope.spawn(move || {
            for _ in 0..10 {
                session.clear_cache();
            }
        });
    });
    let stats = session.cache_stats();
    assert_eq!(stats.cache_hits + stats.cache_misses, stats.loads);
    assert_eq!(stats.loads, 20);
}

/// The requests one racer sends: a sweep over its own interleaved sides,
/// each followed by an estimate at a side the next racer sweeps, then an
/// estimate between its own sweep values.
fn racer_requests(racer: u32) -> Vec<Request> {
    let program = || ProgramSpec::bench("qft_16");
    let own: Vec<u32> = (0..4).map(|k| 6 + racer + 8 * k).collect();
    let mut requests = vec![Request::Sweep(SweepRequest::new(program(), own.clone()))];
    for &side in &own {
        let next = 6 + (side - 6 + 1) % 32;
        requests.push(Request::Estimate(
            EstimateRequest::new(program()).with_fabric(next, next),
        ));
    }
    let between = own[1] + 3;
    requests.push(Request::Estimate(
        EstimateRequest::new(program()).with_fabric(between, between),
    ));
    requests
}

#[test]
fn cold_path_table_race_answers_like_fresh_sessions() {
    // The program is loaded and profiled, but nothing has resolved a
    // critical path: eight racers fill its path table concurrently.
    let session = Session::builder().build().unwrap();
    let handle = session.load(&ProgramSpec::bench("qft_16")).unwrap();
    assert_eq!(handle.profile_data().critical_path_passes(), 0);

    const RACERS: u32 = 8;
    let start = std::sync::Barrier::new(RACERS as usize);
    let replies: Vec<Vec<String>> = std::thread::scope(|scope| {
        let racers: Vec<_> = (0..RACERS)
            .map(|racer| {
                let (session, start) = (&session, &start);
                scope.spawn(move || {
                    start.wait();
                    racer_requests(racer)
                        .iter()
                        .map(|req| wire(&session.execute(req)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        racers.into_iter().map(|r| r.join().unwrap()).collect()
    });

    for (racer, got) in (0..RACERS).zip(&replies) {
        for (req, got) in racer_requests(racer).iter().zip(got) {
            // Loaded first, as on the racing session, so the cache flags
            // agree too.
            let fresh = Session::builder().build().unwrap();
            fresh.load(req.program()).unwrap();
            assert_eq!(got, &wire(&fresh.execute(req)), "racer {racer}");
        }
    }
    assert!(handle.profile_data().critical_path_passes() >= 1);
}
