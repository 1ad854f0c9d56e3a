//! The mapper once offered a mobility scheduler and a pass pipeline,
//! selected by `scheduler`/`passes` on map requests and a `schedulers`
//! axis plus `passes` string on experiment specs. Both were removed;
//! these tests pin what older clients now see:
//!
//! * the values such a client always sent for the default mapper
//!   (`"scheduler":"greedy"`, `"passes":null`) still decode and run;
//! * a request for a removed engine is an `invalid` error naming the
//!   feature on every entry point — the typed decoders a `Session` caller
//!   uses and the NDJSON line engine — and never silently runs greedy.

use leqa_api::json;
use leqa_api::{
    ErrorFrame, ErrorKind, LeqaError, MapRequest, ProgramSpec, Request, ScenarioSpec, Server,
    Session,
};

/// A map request exactly as a client of the removed scheduler API
/// encoded `MapRequest::new(ProgramSpec::bench("qft_8"))`.
const OLD_MAP_LINE: &str = r#"{"schema_version":1,"op":"map","program":{"bench":"qft_8"},"fabric":null,"trace_limit":0,"placement":"cluster","router":"xy","movement":"home","scheduler":"greedy","passes":null}"#;

/// Map requests naming a removed engine, with the feature the error
/// must name.
const REMOVED_MAP_LINES: [(&str, &str); 3] = [
    (
        r#"{"schema_version":1,"op":"map","program":{"bench":"qft_8"},"scheduler":"mobility"}"#,
        "mobility",
    ),
    (
        r#"{"schema_version":1,"op":"map","program":{"bench":"qft_8"},"passes":"dce"}"#,
        "passes",
    ),
    (
        r#"{"schema_version":1,"op":"map","program":{"bench":"qft_8"},"scheduler":"greedy","passes":"partition:4"}"#,
        "passes",
    ),
];

/// Experiment specs naming a removed engine, with the feature the error
/// must name.
const REMOVED_SPEC_LINES: [(&str, &str); 2] = [
    (
        r#"{"schema_version":1,"op":"experiment","workloads":["qft_8"],"fabrics":[8],"mode":"map","schedulers":["mobility"]}"#,
        "mobility",
    ),
    (
        r#"{"schema_version":1,"op":"experiment","workloads":["qft_8"],"fabrics":[8],"mode":"map","schedulers":["greedy"],"passes":"dce"}"#,
        "passes",
    ),
];

fn session() -> Session {
    Session::builder().build().expect("default session")
}

/// Decodes a request line and executes it on `session`, the way an
/// embedding application drives the typed API.
fn run_request(session: &Session, line: &str) -> Result<String, LeqaError> {
    let request = Request::from_json(&json::parse(line)?)?;
    Ok(session.execute(&request)?.to_json().encode())
}

fn run_spec(session: &Session, line: &str) -> Result<String, LeqaError> {
    let spec = ScenarioSpec::from_json(&json::parse(line)?)?;
    Ok(session.batch_experiment(&spec)?.to_json().encode())
}

fn assert_invalid(err: &LeqaError, feature: &str) {
    assert_eq!(err.kind(), ErrorKind::Invalid, "{err}");
    assert!(err.to_string().contains(feature), "{err}");
}

#[test]
fn removed_engines_are_invalid_through_the_session_api() {
    let session = session();
    for (line, feature) in REMOVED_MAP_LINES {
        assert_invalid(&run_request(&session, line).unwrap_err(), feature);
    }
    for (line, feature) in REMOVED_SPEC_LINES {
        assert_invalid(&run_spec(&session, line).unwrap_err(), feature);
    }
}

#[test]
fn removed_engines_are_invalid_frames_on_the_ndjson_engine() {
    let server = Server::new(session());
    for (line, feature) in REMOVED_MAP_LINES.into_iter().chain(REMOVED_SPEC_LINES) {
        let reply = server.process_line(line).unwrap();
        let frame = ErrorFrame::from_json(&json::parse(&reply).expect("reply is JSON"))
            .unwrap_or_else(|e| panic!("expected an error frame, got {reply}: {e}"));
        assert_invalid(&frame.error, feature);
    }
    assert_eq!(server.stats().map, 0, "no removed-engine request ran");
    assert_eq!(server.stats().experiment, 0);
}

#[test]
fn old_greedy_map_requests_still_round_trip() {
    let decoded = Request::from_json(&json::parse(OLD_MAP_LINE).unwrap()).unwrap();
    let current = Request::Map(MapRequest::new(ProgramSpec::bench("qft_8")));
    assert_eq!(decoded, current);

    // The old line and today's encoding get byte-identical replies, on
    // the typed API and on the wire.
    let direct = run_request(&session(), &current.to_json().encode()).unwrap();
    assert_eq!(run_request(&session(), OLD_MAP_LINE).unwrap(), direct);
    assert_eq!(
        Server::new(session()).process_line(OLD_MAP_LINE).unwrap(),
        direct
    );

    // An old spec with the default scheduler axis and no passes still
    // runs, and its rows no longer carry a scheduler (fresh sessions, so
    // the summaries' cache counters match too).
    let old_spec = r#"{"schema_version":1,"op":"experiment","workloads":["qft_8"],"fabrics":[8],"mode":"map","schedulers":["greedy"],"passes":null}"#;
    let new_spec = r#"{"schema_version":1,"op":"experiment","workloads":["qft_8"],"fabrics":[8],"mode":"map"}"#;
    let reply = run_spec(&session(), new_spec).unwrap();
    assert_eq!(run_spec(&session(), old_spec).unwrap(), reply);
    assert!(!reply.contains("scheduler"), "{reply}");
}
