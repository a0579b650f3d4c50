//! End-to-end acceptance tests for `spp serve`: a 256-strong concurrent
//! burst under a small memory budget is answered completely (no request
//! dropped, every response verified), overload lowers the rung instead
//! of erroring, shutdown drains in-flight work to verified answers, and
//! daemon responses are bit-identical to the local one-shot path.

use std::net::TcpStream;
use std::time::Duration;

use spp_core::{
    execute, ErrorFrame, ExecEnv, MinimizeMode, MinimizeRequest, MinimizeResponse,
};
use spp_obs::json::Json;
use spp_serve::loadgen::{run, workload_pla, workload_request, LoadgenConfig};
use spp_serve::protocol::{read_frame, write_frame};
use spp_serve::{ServeConfig, Server};

fn connect(server: &Server) -> TcpStream {
    let conn = TcpStream::connect(server.local_addr()).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(120))).expect("read timeout");
    conn
}

fn roundtrip(conn: &mut TcpStream, payload: &str) -> String {
    write_frame(conn, payload).expect("write frame");
    read_frame(conn).expect("read frame")
}

/// The headline acceptance: 256 concurrent requests against a server
/// whose whole memory budget is a few MiB. Nothing is dropped, nothing
/// errors, and every response carries independent verification — memory
/// pressure is allowed to lower rungs, never to lose answers.
#[test]
fn a_256_strong_concurrent_burst_under_a_small_budget_is_never_dropped() {
    let server = Server::start(ServeConfig {
        workers: 4,
        queue_cap: 4096,
        mem_budget_mb: Some(8),
        cache_mb: 16,
        ..ServeConfig::default()
    })
    .expect("start server");
    let config = LoadgenConfig {
        concurrency: 256,
        requests: 256,
        keys: 16,
        vars: 7,
        mode: MinimizeMode::Governed,
        mix_priorities: true,
        ..LoadgenConfig::default()
    };
    let report = run(&server.local_addr().to_string(), &config).expect("loadgen run");
    assert_eq!(report.sent, 256);
    assert_eq!(report.errors, 0, "no request may be refused or dropped");
    assert_eq!(report.completed, 256, "every request must be answered");
    assert_eq!(report.verified, 256, "every response must verify");
    server.stop();
}

/// Overload (here: a 12-variable function against a 1 MiB worker memory
/// slice) is a degraded-rung response, not a typed error and not a
/// dropped request — and an `exact` request under a server budget rides
/// the governed ladder instead of failing.
#[test]
fn overload_degrades_the_rung_instead_of_erroring() {
    let server = Server::start(ServeConfig {
        workers: 1,
        queue_cap: 8,
        mem_budget_mb: Some(1),
        ..ServeConfig::default()
    })
    .expect("start server");
    let mut conn = connect(&server);
    let req = MinimizeRequest::new("tight", workload_pla(3, 12))
        .with_mode(MinimizeMode::Exact);
    let reply = roundtrip(&mut conn, &req.to_json());
    assert!(
        ErrorFrame::from_json(&reply).is_none(),
        "overload must not be a wire error: {reply}"
    );
    let resp = MinimizeResponse::from_json(&reply).expect("response parses");
    assert!(resp.verified, "a degraded answer must still verify");
    assert!(
        resp.is_degraded(),
        "12 vars against a 1 MiB slice must lower the rung, got {:?}",
        resp.rung
    );
    server.stop();
}

/// Shutdown drains: requests accepted before the drain — in flight or
/// still queued — all come back as verified responses through the
/// cancel-token best-so-far path, never as errors or silent closes.
#[test]
fn shutdown_drains_accepted_requests_to_verified_answers() {
    let server = Server::start(ServeConfig {
        workers: 2,
        queue_cap: 64,
        ..ServeConfig::default()
    })
    .expect("start server");
    // Enough slow exact requests to occupy both workers and the queue.
    let mut conns: Vec<TcpStream> = (0..6)
        .map(|i| {
            let mut conn = connect(&server);
            let req =
                MinimizeRequest::new(format!("drain-{i}"), workload_pla(1_000 + i as u64, 11))
                    .with_mode(MinimizeMode::Exact);
            write_frame(&mut conn, &req.to_json()).expect("write");
            conn
        })
        .collect();
    // Let the workers pick some up, then start the drain mid-flight.
    std::thread::sleep(Duration::from_millis(50));
    server.shutdown();
    for (i, conn) in conns.iter_mut().enumerate() {
        let reply = read_frame(conn).expect("drained response");
        assert!(
            ErrorFrame::from_json(&reply).is_none(),
            "accepted request {i} must not error on drain: {reply}"
        );
        let resp = MinimizeResponse::from_json(&reply).expect("response parses");
        assert!(resp.verified, "drained response {i} must still verify");
    }
    server.join();
}

/// With the cache disabled (cross-key warm starts can legitimately pick
/// a different equally-minimal cover), a daemon answer is bit-identical
/// to a local [`execute`] run with the same configuration — same forms,
/// same outcome, same rung, same optimality — across every mode.
#[test]
fn daemon_answers_are_bit_identical_to_the_one_shot_path() {
    let server = Server::start(ServeConfig {
        workers: 2,
        queue_cap: 64,
        cache_mb: 0,
        ..ServeConfig::default()
    })
    .expect("start server");
    // Mirror the server's execution environment: one thread per request,
    // no budgets, no cache.
    let env = ExecEnv { threads_default: Some(1), ..ExecEnv::default() };
    let modes = [
        MinimizeMode::Exact,
        MinimizeMode::Governed,
        MinimizeMode::Heuristic(0),
        MinimizeMode::Restricted(2),
        MinimizeMode::Sop,
    ];
    let mut conn = connect(&server);
    for idx in 0..20 {
        let config = LoadgenConfig {
            keys: 5,
            vars: 5,
            mode: modes[idx % modes.len()],
            ..LoadgenConfig::default()
        };
        let req = workload_request(&config, idx);
        let reply = roundtrip(&mut conn, &req.to_json());
        let mut remote = MinimizeResponse::from_json(&reply)
            .unwrap_or_else(|e| panic!("response for {:?}: {e}: {reply}", config.mode));
        let mut local = execute(&req, &env).expect("local execute").response;
        remote.wall = Duration::ZERO;
        local.wall = Duration::ZERO;
        assert_eq!(remote, local, "mode {:?}, request {idx}", config.mode);
    }
    server.stop();
}

/// An edit stream — keys resubmitted with a minterm flipped, pipelined
/// several-deep per connection — is answered completely and verified, and
/// the server's delta path actually engages: the cache stats report
/// generation answered by splicing a sibling's cached levels.
#[test]
fn edit_streams_reuse_cached_generation_deltas() {
    let server = Server::start(ServeConfig {
        workers: 2,
        queue_cap: 256,
        cache_mb: 32,
        ..ServeConfig::default()
    })
    .expect("start server");
    // Blocks of 100: the first 25 of each block are edits (variant =
    // block index), the rest the base functions — so block 1's edits are
    // guaranteed distance-1 siblings of functions whose level snapshots
    // the cache already holds.
    let config = LoadgenConfig {
        concurrency: 4,
        in_flight: 4,
        requests: 120,
        keys: 4,
        vars: 5,
        edit_rate: 25,
        edit_flips: 1,
        mode: MinimizeMode::Exact,
        ..LoadgenConfig::default()
    };
    let report = run(&server.local_addr().to_string(), &config).expect("loadgen run");
    assert_eq!(report.sent, 120);
    assert_eq!(report.errors, 0, "no edit may be refused or dropped");
    assert_eq!(report.completed, 120);
    assert_eq!(report.verified, report.completed, "every response must verify");
    let mut conn = connect(&server);
    let stats = roundtrip(&mut conn, "{\"op\":\"stats\"}");
    let reuses = Json::parse(&stats)
        .expect("stats reply is JSON")
        .get("cache")
        .and_then(|cache| cache.get("delta_reuses"))
        .and_then(Json::as_u64)
        .expect("cache stats must report delta reuses");
    assert!(reuses > 0, "the edit stream must splice at least once: {stats}");
    server.stop();
}

/// The observability surface the supervisor work added: `stats` reports
/// per-lane depths, heartbeat ages, uptime and the supervision counters;
/// `health` answers liveness with worker/queue state.
#[test]
fn stats_and_health_report_the_supervision_surface() {
    let server = Server::start(ServeConfig {
        workers: 3,
        queue_cap: 64,
        cache_mb: 8,
        ..ServeConfig::default()
    })
    .expect("start server");
    let mut conn = connect(&server);
    // One real request first so the counters are warm.
    let req = MinimizeRequest::new("warm", workload_pla(5, 5)).with_mode(MinimizeMode::Exact);
    let reply = roundtrip(&mut conn, &req.to_json());
    assert!(MinimizeResponse::from_json(&reply).is_ok(), "{reply}");

    let stats = roundtrip(&mut conn, "{\"op\":\"stats\"}");
    for field in [
        "\"lanes\":[",
        "\"uptime_ms\":",
        "\"heartbeat_ms\":[",
        "\"restarts\":0",
        "\"requeues\":0",
        "\"timeouts\":0",
    ] {
        assert!(stats.contains(field), "{field} missing from stats: {stats}");
    }

    let health = roundtrip(&mut conn, "{\"op\":\"health\"}");
    for field in [
        "\"op\":\"health\"",
        "\"status\":\"ok\"",
        "\"workers\":3",
        "\"alive\":3",
        "\"lanes\":[0,0,0]",
        "\"queued\":0",
        // The reply lands before the worker's `finish()`, so in_flight
        // may legitimately still read 1 right after a response.
        "\"in_flight\":",
        "\"heartbeat_ms\":[",
        "\"cache\":{",
    ] {
        assert!(health.contains(field), "{field} missing from health: {health}");
    }
    server.stop();
}

extern "C" {
    fn raise(sig: i32) -> i32;
}

/// SIGTERM is a first-class drain signal, same as SIGINT: the handler
/// flips the shared shutdown flag, and the drain it triggers loses zero
/// responses — what `kill` and every service manager send first.
#[test]
fn sigterm_sets_the_shutdown_flag_and_the_drain_loses_nothing() {
    use std::sync::atomic::Ordering;
    // Install before raising, or the default action kills the harness.
    let flag = spp_serve::shutdown_flag();
    assert!(std::ptr::eq(flag, spp_serve::sigint_flag()), "one flag, both signals");

    let server = Server::start(ServeConfig {
        workers: 2,
        queue_cap: 64,
        ..ServeConfig::default()
    })
    .expect("start server");
    let mut conns: Vec<TcpStream> = (0..4)
        .map(|i| {
            let mut conn = connect(&server);
            let req =
                MinimizeRequest::new(format!("term-{i}"), workload_pla(2_000 + i as u64, 10))
                    .with_mode(MinimizeMode::Exact);
            write_frame(&mut conn, &req.to_json()).expect("write");
            conn
        })
        .collect();
    std::thread::sleep(Duration::from_millis(30));
    // SIGTERM mid-flight: what the CLI polls for and answers with a drain.
    unsafe {
        raise(15);
    }
    assert!(flag.load(Ordering::SeqCst), "SIGTERM must set the shutdown flag");
    server.shutdown();
    for (i, conn) in conns.iter_mut().enumerate() {
        let reply = read_frame(conn).expect("drained response");
        assert!(
            ErrorFrame::from_json(&reply).is_none(),
            "request {i} must not be lost to SIGTERM: {reply}"
        );
        let resp = MinimizeResponse::from_json(&reply).expect("response parses");
        assert!(resp.verified, "drained response {i} must verify");
    }
    server.join();
}

/// A client that opens a connection and never sends a frame is cut off
/// by the idle timeout — with a typed `timeout` error frame first, so it
/// learns why.
#[test]
fn idle_connections_get_a_typed_timeout_and_a_close() {
    let server = Server::start(ServeConfig {
        workers: 1,
        queue_cap: 8,
        idle_timeout_ms: Some(100),
        ..ServeConfig::default()
    })
    .expect("start server");
    let mut conn = connect(&server);
    let reply = read_frame(&mut conn).expect("the server speaks first on idle cutoff");
    let frame = ErrorFrame::from_json(&reply).expect("typed error frame");
    assert_eq!(frame.kind, spp_core::WireErrorKind::Timeout, "{reply}");
    // After the frame, the connection closes cleanly.
    assert!(read_frame(&mut conn).is_err());
    // A live connection with traffic survives the same cutoff.
    let mut busy = connect(&server);
    let req = MinimizeRequest::new("busy", workload_pla(9, 4));
    let reply = roundtrip(&mut busy, &req.to_json());
    assert!(MinimizeResponse::from_json(&reply).is_ok(), "{reply}");
    server.stop();
}

/// Key reuse produces real cache hits: the same blocks coming back is
/// what the process-wide cache exists for.
#[test]
fn key_reuse_hits_the_shared_cache() {
    let server = Server::start(ServeConfig {
        workers: 2,
        queue_cap: 64,
        cache_mb: 32,
        ..ServeConfig::default()
    })
    .expect("start server");
    let config = LoadgenConfig {
        concurrency: 8,
        requests: 48,
        keys: 4,
        vars: 6,
        mode: MinimizeMode::Exact,
        ..LoadgenConfig::default()
    };
    let report = run(&server.local_addr().to_string(), &config).expect("loadgen run");
    assert_eq!(report.errors, 0);
    assert_eq!(report.verified, report.completed);
    let rate = report.cache_hit_rate.expect("the server has a cache");
    assert!(rate > 0.0, "48 requests over 4 keys must hit the cache, rate {rate}");
    server.stop();
}
