//! Every JSON text the program writes goes through one writer
//! (`spp_obs::json::Json`): events, cache stats, the loadgen report and
//! the daemon's control replies all parse back and print to the very
//! same bytes, and each event's text line starts with its JSON name.

use std::collections::HashSet;
use std::net::TcpStream;
use std::time::Duration;

use spp::obs::json::Json;
use spp::obs::{Form, Outcome, Phase, Rung};
use spp::serve::loadgen::LoadgenReport;
use spp::serve::protocol::{read_frame, write_frame};
use spp::serve::{ServeConfig, Server};
use spp::{CacheStats, Event};

/// A string with every character class the writer must escape or pass
/// through: a quote, a backslash, a newline, U+0001 and non-ASCII text.
const NASTY: &str = "a \"q\" \\ b\nc \u{1} é ⊕ 😀";

/// Parses `text` and prints it again: the bytes must not change.
fn reprints(text: &str) -> Json {
    let json = Json::parse(text).unwrap_or_else(|e| panic!("{e}: {text}"));
    assert_eq!(json.to_string(), text);
    json
}

fn one_of_each_event() -> Vec<Event> {
    let s = || NASTY.to_owned();
    let ms = Duration::from_micros(1_500);
    vec![
        Event::PhaseStarted { phase: Phase::Generate },
        Event::PhaseFinished { phase: Phase::Cover, wall: ms, outcome: Outcome::Completed },
        Event::GenLevelStarted { degree: 1, size: 8 },
        Event::GenLevelFinished {
            degree: 1,
            size: 8,
            groups: 2,
            unions: 5,
            retained: 3,
            live: 13,
            wall: ms,
        },
        Event::CoverStarted { rows: 6, columns: 9 },
        Event::CoverImproved { cost: 12, nodes: 40 },
        Event::CoverSubtreeStarted { index: 0, column: 3 },
        Event::CoverSubtreeFinished { index: 0, nodes: 7, improved: true },
        Event::CoverFinished { cost: 10, nodes: 44, optimal: false },
        Event::RungStarted { rung: Rung::Exact },
        Event::RungFinished { rung: Rung::Sop, outcome: Outcome::MemoryExceeded, accepted: true },
        Event::FormStarted { form: Form::Esop },
        Event::FormFinished {
            form: Form::Dsop,
            outcome: Outcome::Cancelled,
            cost: None,
            accepted: false,
        },
        Event::WorkerPanicked { site: s(), message: s() },
        Event::CacheHit { kind: "result", disk: true },
        Event::CacheMiss { kind: "eppp" },
        Event::CacheEvicted { entries: 2, bytes: 4096 },
        Event::CacheWarmStart { columns: 5 },
        Event::CacheCorruptEntry { path: s(), reason: s() },
        Event::ServeRequestQueued { id: s(), priority: "low", depth: 3 },
        Event::ServeRequestStarted { id: s(), waited: Duration::from_millis(2) },
        Event::ServeRequestFinished {
            id: s(),
            outcome: Outcome::DeadlineExceeded,
            rung: Rung::Heuristic,
            wall: ms,
        },
        Event::ServeRequestRejected { id: s(), reason: s() },
        Event::ServeDraining { in_flight: 1, queued: 4 },
        Event::CacheQuarantined { path: s(), reason: s() },
        Event::ServeWorkerStalled { worker: 1, id: s(), overrun: ms },
        Event::ServeWorkerRestarted { worker: 0 },
        Event::ServeRequestRequeued { id: s(), worker: 1 },
        Event::DeltaReuse { distance: 1, dropped: 2, spliced: 3 },
        Event::DeltaRejected { reason: s() },
    ]
}

#[test]
fn every_event_reprints_and_its_line_starts_with_its_name() {
    let events = one_of_each_event();
    let mut names = HashSet::new();
    for event in &events {
        let json = reprints(&event.to_json());
        let name = json.get("event").and_then(Json::as_str).expect("an event name");
        assert!(names.insert(name.to_owned()), "{name} listed twice");
        let line = event.to_string();
        assert!(line.starts_with(name), "{line:?} does not start with {name}");
        assert!(!line.contains('\n'), "{line:?} spans lines");
    }
    assert_eq!(names.len(), 30, "one value of every variant");
    // Strings survive the round trip; times read as rounded milliseconds.
    let json = Json::parse(&events[13].to_json()).expect("worker_panicked parses");
    assert_eq!(json.get("message").and_then(Json::as_str), Some(NASTY));
    let json = Json::parse(&events[1].to_json()).expect("phase_finished parses");
    assert_eq!(json.get("wall_ms").and_then(Json::as_f64), Some(1.5));
}

#[test]
fn cache_stats_and_loadgen_report_reprint() {
    let mut stats = CacheStats::default();
    stats.hits = 3;
    stats.bytes = 1 << 20;
    let json = reprints(&stats.to_json().to_string());
    assert_eq!(json.get("hits").and_then(Json::as_u64), Some(3));
    let report = LoadgenReport {
        sent: 10,
        completed: 10,
        verified: 10,
        p50_ms: 0.123_456_7,
        p99_ms: 2.0,
        max_ms: 3.25,
        wall: Duration::from_millis(40),
        throughput_rps: 250.04,
        cache_hit_rate: Some(0.333_333),
        ..LoadgenReport::default()
    };
    let json = reprints(&report.to_json(4).to_string());
    assert_eq!(json.get("p50_ms").and_then(Json::as_f64), Some(0.123));
    assert_eq!(json.get("throughput_rps").and_then(Json::as_f64), Some(250.0));
    assert_eq!(json.get("cache_hit_rate").and_then(Json::as_f64), Some(0.3333));
}

#[test]
fn control_replies_of_a_live_server_reprint() {
    let server =
        Server::start(ServeConfig { workers: 1, cache_mb: 1, ..ServeConfig::default() })
            .expect("start server");
    let mut conn = TcpStream::connect(server.local_addr()).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(60))).expect("read timeout");
    for op in ["ping", "stats", "health"] {
        write_frame(&mut conn, &format!("{{\"op\":\"{op}\"}}")).expect("write frame");
        let reply = read_frame(&mut conn).expect("read frame");
        let json = reprints(&reply);
        assert!(json.get("v").and_then(Json::as_u64).is_some(), "{reply}");
        if op != "ping" {
            assert!(json.get("cache").and_then(|c| c.get("hits")).is_some(), "{reply}");
        }
    }
    server.stop();
}
