//! Integration tests of the [`Session`] façade: endpoint parity with the
//! engine crates, profile-cache accounting, batch semantics, and the
//! error taxonomy end to end.

use leqa_api::{
    BatchResponse, CompareRequest, ErrorKind, EstimateRequest, MapRequest, ProgramSpec, Request,
    Response, Session, SweepRequest, ZonesRequest,
};

fn session() -> Session {
    Session::builder().build().expect("default session builds")
}

#[test]
fn estimate_matches_the_engine_bit_for_bit() {
    use leqa::Estimator;
    use leqa_circuit::{decompose::lower_to_ft, Qodg};
    use leqa_fabric::{FabricDims, PhysicalParams};

    let s = session();
    let resp = s
        .estimate(&EstimateRequest::new(ProgramSpec::bench("8bitadder")))
        .unwrap();

    let circuit = leqa_workloads::circuit_by_name("8bitadder").unwrap();
    let qodg = Qodg::from_ft_circuit(&lower_to_ft(&circuit).unwrap());
    let direct = Estimator::new(FabricDims::dac13(), PhysicalParams::dac13())
        .estimate(&qodg)
        .unwrap();

    assert_eq!(resp.latency_us, direct.latency.as_f64());
    assert_eq!(resp.l_cnot_avg_us, direct.l_cnot_avg.as_f64());
    assert_eq!(resp.esq, direct.esq);
    assert_eq!(resp.critical_cnots, direct.critical.cnot_count);
    assert_eq!(resp.program.qubits, 24);
    assert_eq!(resp.program.ops, 822);
    assert!(!resp.profile_cached);
}

/// `streaming_threshold` promises bit-identical replies, including when
/// every path has length 0 (zero gate delays, routing left out of the
/// node delays) and the tie at the end node decides the census.
#[test]
fn streamed_replies_equal_materialized_ones_when_the_critical_path_is_empty() {
    use leqa::EstimatorOptions;
    use leqa_fabric::{GateDelays, Micros, PhysicalParams};

    let params = PhysicalParams::dac13()
        .to_builder()
        .gate_delays(GateDelays::from_fn(|_| Micros::ZERO, Micros::ZERO))
        .build()
        .unwrap();
    let options = EstimatorOptions {
        update_critical_path: false,
        ..EstimatorOptions::default()
    };
    let reply = |threshold: u64| {
        let s = Session::builder()
            .params(params.clone())
            .options(options)
            .streaming_threshold(threshold)
            .build()
            .unwrap();
        let req = Request::Estimate(EstimateRequest::new(ProgramSpec::bench("shor_8")));
        s.execute(&req).unwrap().to_json().encode()
    };
    let materialized = reply(u64::MAX);
    assert!(
        materialized.contains("\"latency_us\":245365.9178782562,"),
        "{materialized}"
    );
    assert_eq!(reply(0), materialized);
}

#[test]
fn repeat_requests_hit_the_profile_cache() {
    let s = session();
    let req = EstimateRequest::new(ProgramSpec::bench("8bitadder"));
    let first = s.estimate(&req).unwrap();
    let second = s.estimate(&req).unwrap();
    assert!(!first.profile_cached);
    assert!(second.profile_cached);
    assert_eq!(first.latency_us, second.latency_us);
    assert_eq!(s.cache_stats().profile_builds, 1);
    assert_eq!(s.cache_stats().cache_hits, 1);
}

#[test]
fn cache_keys_by_content_not_by_spec() {
    // The same circuit through `bench` and `source` shares one profile.
    let s = session();
    let via_bench = s
        .estimate(&EstimateRequest::new(ProgramSpec::bench("8bitadder")))
        .unwrap();
    let text = s
        .load(&ProgramSpec::bench("8bitadder"))
        .unwrap()
        .source()
        .to_string();
    let via_source = s
        .estimate(&EstimateRequest::new(ProgramSpec::source(text)))
        .unwrap();
    assert!(via_source.profile_cached);
    assert_eq!(via_bench.latency_us, via_source.latency_us);
    assert_eq!(s.cache_stats().profile_builds, 1);
}

#[test]
fn cache_hits_keep_the_requesting_specs_label() {
    // Regression: a cache hit must not echo the label of whichever spec
    // first populated the cache — each response is labelled by the spec
    // the current request named.
    let s = session();
    let via_source = s
        .load(&ProgramSpec::source(".qubits 2\ncnot 0 1\n"))
        .unwrap();
    assert_eq!(via_source.label(), "<inline>");
    let via_path = {
        let dir = std::env::temp_dir().join("leqa-api-label-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.qc");
        std::fs::write(&path, ".qubits 2\ncnot 0 1\n").unwrap();
        s.load(&ProgramSpec::path(path.to_string_lossy().into_owned()))
            .unwrap()
    };
    // Same content → cache hit, but the label follows the new spec.
    assert_eq!(s.cache_stats().cache_hits, 1);
    assert!(
        via_path.label().ends_with("tiny.qc"),
        "{}",
        via_path.label()
    );
    let resp = s
        .estimate(&EstimateRequest::new(ProgramSpec::source(
            ".qubits 2\ncnot 0 1\n",
        )))
        .unwrap();
    assert!(resp.profile_cached);
    assert_eq!(resp.program.label, "<inline>");
}

#[test]
fn bench_name_after_its_source_hits_the_content_cache() {
    // The reverse order of `cache_keys_by_content_not_by_spec`: a bench
    // name's first resolution finds the program by content, and its
    // indexed repeats keep sharing that one profile.
    let text = session()
        .load(&ProgramSpec::bench("8bitadder"))
        .unwrap()
        .source()
        .to_string();
    let s = session();
    let via_source = s
        .estimate(&EstimateRequest::new(ProgramSpec::source(text)))
        .unwrap();
    assert!(!via_source.profile_cached);
    for _ in 0..2 {
        let via_bench = s
            .estimate(&EstimateRequest::new(ProgramSpec::bench("8bitadder")))
            .unwrap();
        assert!(via_bench.profile_cached);
        assert_eq!(via_bench.latency_us, via_source.latency_us);
        assert_eq!(via_bench.program.label, "8bitadder");
    }
    let stats = s.cache_stats();
    assert_eq!(stats.profile_builds, 1);
    assert_eq!((stats.cache_misses, stats.cache_hits), (1, 2));
}

#[test]
fn bench_names_of_one_circuit_share_one_profile() {
    // `qft_8_8` spells out `qft_8`'s default cutoff: two names, one
    // program, and each response labelled by the name it asked for.
    let s = session();
    let short = s
        .estimate(&EstimateRequest::new(ProgramSpec::bench("qft_8")))
        .unwrap();
    let long = s
        .estimate(&EstimateRequest::new(ProgramSpec::bench("qft_8_8")))
        .unwrap();
    assert!(!short.profile_cached);
    assert!(long.profile_cached);
    assert_eq!(short.program.label, "qft_8");
    assert_eq!(long.program.label, "qft_8_8");
    assert_eq!(short.latency_us, long.latency_us);
    let stats = s.cache_stats();
    assert_eq!(
        (stats.cache_misses, stats.cache_hits, stats.profile_builds),
        (1, 1, 1)
    );
}

#[test]
fn unresolvable_bench_names_fail_alike_on_every_repeat() {
    let s = session();
    for (name, kind) in [("nope", ErrorKind::Usage), ("shor_0", ErrorKind::Invalid)] {
        let req = EstimateRequest::new(ProgramSpec::bench(name));
        let first = s.estimate(&req).unwrap_err();
        assert_eq!(first.kind(), kind, "{name}: {first}");
        for _ in 0..2 {
            assert_eq!(s.estimate(&req).unwrap_err().to_string(), first.to_string());
        }
    }
    assert_eq!(s.cache_stats().loads, 0);
}

#[test]
fn profiles_are_lazy_map_never_builds_one() {
    // `map` and `gen` never touch the presence-zone model, so the profile
    // pass must not run for them.
    let s = session();
    s.map(&MapRequest::new(ProgramSpec::bench("8bitadder")))
        .unwrap();
    assert_eq!(s.cache_stats().profile_builds, 0);
    // The first estimator-side request forces it, exactly once.
    s.estimate(&EstimateRequest::new(ProgramSpec::bench("8bitadder")))
        .unwrap();
    s.zones(&ZonesRequest::new(ProgramSpec::bench("8bitadder")))
        .unwrap();
    assert_eq!(s.cache_stats().profile_builds, 1);
}

#[test]
fn batch_builds_each_profile_exactly_once() {
    // The acceptance criterion: a batch naming N programs (with repeats)
    // builds each ProgramProfile exactly once; every further use is a
    // cache hit.
    let s = session();
    let a = || ProgramSpec::bench("8bitadder");
    let b = || ProgramSpec::bench("qft_8");
    let requests = vec![
        Request::Estimate(EstimateRequest::new(a())),
        Request::Estimate(EstimateRequest::new(b())),
        Request::Estimate(EstimateRequest::new(a())),
        Request::Zones(ZonesRequest::new(a()).with_limit(3)),
        Request::Sweep(SweepRequest::new(b(), [10, 20, 60])),
    ];
    let batch = s.batch(&requests);
    assert_eq!(batch.results.len(), 5);
    for slot in &batch.results {
        assert!(slot.is_ok(), "{slot:?}");
    }
    let stats = s.cache_stats();
    assert_eq!(stats.profile_builds, 2, "two distinct programs");
    assert_eq!(stats.cache_hits, 3, "three repeat namings");
}

#[test]
fn batch_matches_individual_calls_and_isolates_failures() {
    let requests = vec![
        Request::Estimate(EstimateRequest::new(ProgramSpec::bench("8bitadder"))),
        Request::Estimate(EstimateRequest::new(ProgramSpec::bench("no-such-bench"))),
        Request::Compare(CompareRequest::new(ProgramSpec::bench("qft_8")).with_fabric(12, 12)),
        // Fits errors stay per-slot too: 24 qubits cannot fit 2x2.
        Request::Estimate(EstimateRequest::new(ProgramSpec::bench("8bitadder")).with_fabric(2, 2)),
    ];
    let batch = session().batch(&requests);

    let serial = session();
    match (&batch.results[0], serial.execute(&requests[0])) {
        (Ok(Response::Estimate(a)), Ok(Response::Estimate(b))) => {
            assert_eq!(a.latency_us, b.latency_us);
        }
        other => panic!("unexpected: {other:?}"),
    }
    match &batch.results[1] {
        Err(e) => {
            assert_eq!(e.kind(), ErrorKind::Usage);
            assert!(e.to_string().contains("batch request 1"), "{e}");
        }
        ok => panic!("expected usage error, got {ok:?}"),
    }
    match (&batch.results[2], serial.execute(&requests[2])) {
        (Ok(Response::Compare(a)), Ok(Response::Compare(b))) => {
            assert_eq!(a.actual_us, b.actual_us);
            assert_eq!(a.estimated_us, b.estimated_us);
        }
        other => panic!("unexpected: {other:?}"),
    }
    match &batch.results[3] {
        Err(e) => assert_eq!(e.kind(), ErrorKind::Estimate),
        ok => panic!("expected estimate error, got {ok:?}"),
    }

    // The batch round-trips through its JSON envelope.
    let wire = batch.to_json().encode();
    let back = BatchResponse::from_json(&leqa_api::json::parse(&wire).unwrap()).unwrap();
    assert_eq!(back, batch);
}

#[test]
fn sweep_matches_the_sweep_engine() {
    let s = session();
    let resp = s
        .sweep(&SweepRequest::new(
            ProgramSpec::bench("8bitadder"),
            [4, 10, 60],
        ))
        .unwrap();
    assert_eq!(resp.points.len(), 3);
    // 24 qubits: 4x4 = 16 ULBs is too small.
    assert_eq!(resp.points[0].latency_us, None);
    assert!(resp.points[1].latency_us.is_some());
    assert_eq!(resp.optimal_side, Some(60));
}

#[test]
fn zones_limit_semantics() {
    let s = session();
    let all = s
        .zones(&ZonesRequest::new(ProgramSpec::bench("8bitadder")))
        .unwrap();
    assert_eq!(all.rows.len() as u64, all.total_rows);
    let limited = s
        .zones(&ZonesRequest::new(ProgramSpec::bench("8bitadder")).with_limit(2))
        .unwrap();
    assert_eq!(limited.rows.len(), 2);
    assert_eq!(limited.total_rows, all.total_rows);
    // Strongest first.
    assert!(limited.rows[0].strength >= limited.rows[1].strength);
    // limit 0 == no limit.
    let zero = s
        .zones(&ZonesRequest::new(ProgramSpec::bench("8bitadder")).with_limit(0))
        .unwrap();
    assert_eq!(zero.rows.len() as u64, zero.total_rows);
}

#[test]
fn map_and_compare_agree_on_the_actual_latency() {
    let s = session();
    let spec = || ProgramSpec::bench("8bitadder");
    let map = s.map(&MapRequest::new(spec()).with_trace_limit(3)).unwrap();
    let cmp = s.compare(&CompareRequest::new(spec())).unwrap();
    assert_eq!(map.latency_us, cmp.actual_us);
    assert!(map.trace.as_deref().unwrap().contains("dist"));
    let err = cmp.error_pct.expect("nonzero actual");
    assert!(err >= 0.0);
}

#[test]
fn compare_from_snapshot_profiles_is_byte_identical_to_fresh_profiles() {
    // `compare` places from the profile's IIG, so a profile decoded from
    // the snapshot store must map exactly as a freshly counted one, and
    // as the `map` endpoint, which counts its own.
    let dir = std::env::temp_dir().join(format!("leqa-snapshot-compare-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let last = leqa_workloads::SUITE
        .iter()
        .position(|b| b.name == "gf2^64mult")
        .expect("a suite program");
    let programs = &leqa_workloads::SUITE[..=last];
    let filler = Session::builder().cache_dir(&dir).build().unwrap();
    for bench in programs {
        let _ = filler
            .load(&ProgramSpec::bench(bench.name))
            .unwrap()
            .profile_data();
    }
    drop(filler);

    let restored = Session::builder().cache_dir(&dir).build().unwrap();
    let fresh = session();
    for bench in programs {
        let spec = || ProgramSpec::bench(bench.name);
        let decoded = restored.compare(&CompareRequest::new(spec())).unwrap();
        let counted = fresh.compare(&CompareRequest::new(spec())).unwrap();
        assert_eq!(
            decoded.to_json().encode(),
            counted.to_json().encode(),
            "{}",
            bench.name
        );
        let map = fresh.map(&MapRequest::new(spec())).unwrap();
        assert_eq!(decoded.actual_us, map.latency_us, "{}", bench.name);
    }
    assert_eq!(restored.cache_stats().profile_builds, 0);
    assert_eq!(
        restored.store_stats().store_hits,
        programs.len() as u64,
        "every compared profile came from the store"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn error_taxonomy_end_to_end() {
    let s = session();

    let usage = s
        .estimate(&EstimateRequest::new(ProgramSpec::bench("nope")))
        .unwrap_err();
    assert_eq!(usage.kind(), ErrorKind::Usage);
    assert_eq!(usage.exit_code(), 2);

    let io = s
        .estimate(&EstimateRequest::new(ProgramSpec::path(
            "/nonexistent/x.qc",
        )))
        .unwrap_err();
    assert_eq!(io.kind(), ErrorKind::Io);
    assert!(io.to_string().contains("reading `/nonexistent/x.qc`"));

    let parse = s
        .estimate(&EstimateRequest::new(ProgramSpec::source("frobnicate 1 2")))
        .unwrap_err();
    assert_eq!(parse.kind(), ErrorKind::Parse);

    let map = s
        .map(&MapRequest::new(ProgramSpec::bench("8bitadder")).with_fabric(2, 2))
        .unwrap_err();
    assert_eq!(map.kind(), ErrorKind::Map);

    let invalid = s
        .estimate(&EstimateRequest::new(ProgramSpec::bench("8bitadder")).with_fabric(0, 5))
        .unwrap_err();
    assert_eq!(invalid.kind(), ErrorKind::Invalid);
}

#[test]
fn builder_rejects_invalid_options() {
    let err = Session::builder()
        .options(leqa::EstimatorOptions {
            max_esq_terms: 0,
            ..Default::default()
        })
        .build()
        .unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Invalid);
}

#[test]
fn clear_cache_forces_a_rebuild() {
    let s = session();
    let req = EstimateRequest::new(ProgramSpec::bench("qft_8"));
    s.estimate(&req).unwrap();
    s.clear_cache();
    let resp = s.estimate(&req).unwrap();
    assert!(!resp.profile_cached);
    assert_eq!(s.cache_stats().profile_builds, 2);
}

// ── Streaming path ───────────────────────────────────────────────────────

/// A threshold-0 session streams every streamable workload; the response
/// must be byte-identical to the materialized one (same floats, same
/// summary), because the paper's numbers cannot depend on *how* they were
/// computed.
#[test]
fn streamed_estimate_is_byte_identical_to_materialized() {
    let streaming = Session::builder().streaming_threshold(0).build().unwrap();
    let materialized = session();
    assert_eq!(materialized.streaming_threshold(), 1_000_000);

    let req = EstimateRequest::new(ProgramSpec::bench("shor_16_2"));
    let streamed = streaming.estimate(&req).unwrap();
    let direct = materialized.estimate(&req).unwrap();

    assert_eq!(streamed.to_json().encode(), direct.to_json().encode());
    assert_eq!(streamed.latency_us, direct.latency_us);
    assert_eq!(streamed.l_cnot_avg_us, direct.l_cnot_avg_us);
    assert_eq!(streamed.l_one_qubit_avg_us, direct.l_one_qubit_avg_us);
    assert_eq!(streamed.d_uncong_us, direct.d_uncong_us);
    assert_eq!(streamed.avg_zone_area, direct.avg_zone_area);
    assert_eq!(streamed.zone_side, direct.zone_side);
    assert_eq!(streamed.esq, direct.esq);
    assert_eq!(streamed.critical_cnots, direct.critical_cnots);
    assert_eq!(streamed.critical_one_qubit, direct.critical_one_qubit);
    assert_eq!(streamed.program.label, direct.program.label);
    assert_eq!(streamed.program.qubits, direct.program.qubits);
    assert_eq!(streamed.program.ops, direct.program.ops);
}

/// Streamed programs get the same cache accounting as materialized ones:
/// first request misses and builds, the repeat hits without a rebuild,
/// and `clear_cache` evicts the stream entry too.
#[test]
fn streamed_estimates_share_the_cache_discipline() {
    let s = Session::builder().streaming_threshold(0).build().unwrap();
    let req = EstimateRequest::new(ProgramSpec::bench("shor_12_2"));

    let first = s.estimate(&req).unwrap();
    let second = s.estimate(&req).unwrap();
    assert!(!first.profile_cached);
    assert!(second.profile_cached);
    assert_eq!(first.latency_us, second.latency_us);
    assert_eq!(s.cache_stats().profile_builds, 1);
    assert_eq!(s.cache_stats().cache_hits, 1);
    assert_eq!(s.cache_stats().cache_misses, 1);

    s.clear_cache();
    let third = s.estimate(&req).unwrap();
    assert!(!third.profile_cached);
    assert_eq!(s.cache_stats().profile_builds, 2);
}

/// Below the threshold the materialized path serves streamable names —
/// the default-session behavior for every small `shor_N`.
#[test]
fn small_streams_stay_on_the_materialized_path() {
    let s = Session::builder()
        .streaming_threshold(u64::MAX)
        .build()
        .unwrap();
    let resp = s
        .estimate(&EstimateRequest::new(ProgramSpec::bench("shor_8")))
        .unwrap();
    // The materialized path loads through the sharded program cache.
    assert!(!resp.profile_cached);
    assert_eq!(s.cache_stats().cache_misses, 1);
}

/// `shor_0` and parameter overflows are *invalid* requests (a recognized
/// family with out-of-range parameters), not unknown names — the typed
/// distinction clients branch on.
#[test]
fn invalid_shor_parameters_get_a_typed_error() {
    let s = session();
    for name in ["shor_0", &format!("shor_{}_{}", u32::MAX, u32::MAX)] {
        let err = s
            .estimate(&EstimateRequest::new(ProgramSpec::bench(name)))
            .unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Invalid, "{name}: {err}");
    }
    // Out-of-grammar spellings stay Usage ("unknown benchmark").
    let err = s
        .estimate(&EstimateRequest::new(ProgramSpec::bench("shor_x")))
        .unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Usage, "{err}");
}
