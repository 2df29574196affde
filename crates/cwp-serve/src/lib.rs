//! cwp-serve: a fault-tolerant simulation-as-a-service front end.
//!
//! Turns the record-once/replay-many simulation core into a
//! long-running server speaking a JSONL protocol over TCP or stdin.
//! The pillars, each with its own module:
//!
//! - **Admission control & backpressure** ([`queue`]): a bounded queue
//!   with per-client in-flight caps; overload degrades into immediate
//!   typed `overloaded {retry_after_ms}` rejections.
//! - **Deadlines & cancellation** ([`engine`]): per-request deadlines
//!   enforced by the shared [`cwp_core::supervise::Supervisor`]
//!   watchdog, with cooperative cancellation inside replay loops.
//! - **Panic isolation & retry** ([`engine`]): workers run simulations
//!   under `catch_unwind`; a panicking request is retried with
//!   deterministic exponential backoff and fails typed, never silently.
//! - **Graceful degradation** ([`engine`]): when the trace store
//!   budget is exhausted even after LRU eviction, requests fall back
//!   to live generation and are flagged `degraded`.
//! - **Crash-safe memoization** ([`memo`]): results keyed by
//!   `(trace content hash, config)` journaled with atomic
//!   write-then-rename, so a killed server resumes warm.
//! - **Typed wire protocol** ([`protocol`]): every malformed input maps
//!   to a typed rejection; the server never panics on client bytes.
//!
//! The [`client`] module provides the blocking client used by the load
//! generator and the chaos harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod engine;
pub mod memo;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod wirefuzz;

pub use client::{Client, ResilienceConfig, ResilienceStats, ResilientClient};
pub use engine::{DrainStats, Engine, EngineConfig, EngineStats};
pub use memo::MemoStore;
pub use protocol::{
    shutdown_request_line, Reject, Request, Response, ResultSummary, MAX_LINE_BYTES,
};
pub use queue::AdmissionQueue;
pub use server::{serve_stdin, serve_transport, Server, MAX_SKIP_BYTES};

#[cfg(test)]
mod tests {
    use std::sync::Arc;
    use std::time::Duration;

    use cwp_cache::CacheConfig;
    use cwp_core::sim::{simulate, simulate_many};
    use cwp_core::store::TraceStore;
    use cwp_trace::{workloads, RecordedTrace, Scale};

    use crate::engine::{Engine, EngineConfig};
    use crate::protocol::{Reject, Request, Response, ResultSummary};

    fn test_engine(mutate: impl FnOnce(&mut EngineConfig)) -> Engine {
        let mut config = EngineConfig::new(Scale::Test);
        config.workers = 2;
        mutate(&mut config);
        Engine::start(config).unwrap()
    }

    fn request(id: u64, workload: &str, size: u32) -> Request {
        Request {
            id,
            workload: workload.to_string(),
            config: CacheConfig::builder().size_bytes(size).build().unwrap(),
            deadline_ms: None,
            priority: 0,
            req_key: None,
        }
    }

    fn expect_ok(response: &Response) -> (&ResultSummary, bool, bool) {
        match response {
            Response::Ok {
                result,
                memo_hit,
                degraded,
                ..
            } => (result, *memo_hit, *degraded),
            other => panic!("expected Ok, got {other:?}"),
        }
    }

    #[test]
    fn served_results_match_direct_simulation_and_memoize() {
        let engine = test_engine(|_| {});
        let (client, responses) = engine.attach_client();
        engine.submit(client, &request(1, "ccom", 4096).to_line());
        let first = responses.recv_timeout(Duration::from_secs(60)).unwrap();
        // Submit the duplicate only after the first response so it
        // cannot coalesce with the original — it must hit the memo.
        engine.submit(client, &request(2, "ccom", 4096).to_line());
        let second = responses.recv_timeout(Duration::from_secs(60)).unwrap();

        let store = TraceStore::new(Scale::Test);
        let trace = store
            .get_or_record(workloads::by_name("ccom").unwrap().as_ref())
            .unwrap();
        let direct = simulate_many(
            &trace,
            &[CacheConfig::builder().size_bytes(4096).build().unwrap()],
        );
        let expected = ResultSummary::from_outcome(&direct[0]);

        let (r1, hit1, deg1) = expect_ok(&first);
        let (r2, hit2, deg2) = expect_ok(&second);
        assert_eq!(
            r1, &expected,
            "served result differs from direct simulate_many"
        );
        assert_eq!(r2, &expected);
        assert!(!deg1 && !deg2);
        assert!(!hit1, "first request cannot hit an empty memo");
        assert!(hit2, "the duplicate should hit the memo");
        engine.shutdown();
        assert_eq!(engine.stats().served, 2);
    }

    #[test]
    fn unknown_workloads_and_garbage_get_typed_errors() {
        let engine = test_engine(|_| {});
        let (client, responses) = engine.attach_client();
        engine.submit(client, "{\"id\": 5, \"workload\": \"no-such-thing\"}");
        engine.submit(client, "this is not json");
        for _ in 0..2 {
            match responses.recv_timeout(Duration::from_secs(10)).unwrap() {
                Response::Error {
                    reject: Reject::BadRequest { .. },
                    ..
                } => {}
                other => panic!("expected BadRequest, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_saturated_queue_sheds_with_overloaded() {
        let engine = test_engine(|c| {
            c.workers = 1;
            c.queue_capacity = 1;
            c.per_client_inflight = 1000;
        });
        let (client, responses) = engine.attach_client();
        // Flood faster than one worker can drain a Test-scale queue of 1.
        for id in 0..50 {
            engine.submit(client, &request(id, "ccom", 1 << (7 + (id % 8))).to_line());
        }
        let mut ok = 0u32;
        let mut shed = 0u32;
        for _ in 0..50 {
            match responses.recv_timeout(Duration::from_secs(60)).unwrap() {
                Response::Ok { .. } => ok += 1,
                Response::Error {
                    reject: Reject::Overloaded { retry_after_ms },
                    ..
                } => {
                    assert!(retry_after_ms >= 25);
                    shed += 1;
                }
                other => panic!("unexpected response {other:?}"),
            }
        }
        assert_eq!(ok + shed, 50, "every request got exactly one response");
        assert!(shed > 0, "a capacity-1 queue must shed under a 50-burst");
        engine.shutdown();
        let stats = engine.stats();
        assert_eq!(stats.shed as u32, shed);
    }

    #[test]
    fn injected_panics_are_retried_to_success() {
        let engine = test_engine(|c| {
            c.fault_one_in = 1; // every request panics on attempt 1
            c.max_attempts = 3;
            c.backoff_base = Duration::from_millis(1);
        });
        let (client, responses) = engine.attach_client();
        for id in 0..4 {
            engine.submit(client, &request(id, "yacc", 2048).to_line());
        }
        for _ in 0..4 {
            let response = responses.recv_timeout(Duration::from_secs(60)).unwrap();
            expect_ok(&response);
        }
        engine.shutdown();
        let stats = engine.stats();
        assert!(stats.panics >= 1, "faults should have fired: {stats:?}");
        assert!(stats.retries >= 1);
        assert_eq!(stats.served, 4);
        assert_eq!(stats.failed, 0);
    }

    #[test]
    fn a_request_that_always_panics_fails_typed_after_its_attempts() {
        let engine = test_engine(|c| {
            c.fault_one_in = 1;
            c.max_attempts = 1; // no retries: first panic is terminal
        });
        let (client, responses) = engine.attach_client();
        engine.submit(client, &request(9, "met", 4096).to_line());
        match responses.recv_timeout(Duration::from_secs(60)).unwrap() {
            Response::Error {
                id: Some(9),
                reject: Reject::Failed { detail },
            } => assert!(detail.contains("panicked"), "detail: {detail}"),
            other => panic!("expected Failed, got {other:?}"),
        }
        engine.shutdown();
        assert_eq!(engine.stats().failed, 1);
    }

    #[test]
    fn an_impossible_deadline_returns_deadline_exceeded_exactly_once() {
        let engine = test_engine(|c| c.workers = 1);
        let (client, responses) = engine.attach_client();
        // Park the single worker on a real request first, then submit
        // one with a 0 ms deadline that must expire while queued.
        engine.submit(client, &request(1, "linpack", 16384).to_line());
        let mut deadline_request = request(2, "linpack", 8192);
        deadline_request.deadline_ms = Some(0);
        engine.submit(client, &deadline_request.to_line());
        let mut saw_deadline = 0;
        let mut saw_ok = 0;
        for _ in 0..2 {
            match responses.recv_timeout(Duration::from_secs(60)).unwrap() {
                Response::Error {
                    id: Some(2),
                    reject: Reject::DeadlineExceeded { deadline_ms },
                } => {
                    assert_eq!(deadline_ms, 0);
                    saw_deadline += 1;
                }
                Response::Ok { id: 1, .. } => saw_ok += 1,
                other => panic!("unexpected response {other:?}"),
            }
        }
        assert_eq!((saw_ok, saw_deadline), (1, 1));
        // No third response may ever arrive for request 2.
        assert!(responses.recv_timeout(Duration::from_millis(200)).is_err());
        engine.shutdown();
        assert_eq!(engine.stats().deadline_expired, 1);
    }

    #[test]
    fn a_starved_trace_store_degrades_to_live_generation() {
        let engine = test_engine(|c| {
            c.trace_budget_bytes = 1; // nothing fits: force degraded mode
            c.workers = 1;
        });
        let (client, responses) = engine.attach_client();
        engine.submit(client, &request(1, "ccom", 4096).to_line());
        let response = responses.recv_timeout(Duration::from_secs(60)).unwrap();
        let (result, _, degraded) = expect_ok(&response);
        assert!(degraded, "a 1-byte budget must force live generation");
        let direct = simulate(
            workloads::by_name("ccom").unwrap().as_ref(),
            Scale::Test,
            &CacheConfig::builder().size_bytes(4096).build().unwrap(),
        );
        assert_eq!(
            result,
            &ResultSummary::from_outcome(&direct),
            "degraded results must still be byte-identical"
        );
        engine.shutdown();
        assert_eq!(engine.stats().degraded, 1);
    }

    #[test]
    fn an_evicted_re_recorded_workload_keeps_its_memo_entries() {
        let size = |name: &str| {
            let workload = workloads::by_name(name).unwrap();
            RecordedTrace::record(workload.as_ref(), Scale::Test).approx_bytes()
        };
        let (grr, yacc) = (size("grr"), size("yacc"));
        let engine = test_engine(|c| {
            // Holds either recording, never both.
            c.trace_budget_bytes = grr.max(yacc) + grr.min(yacc) - 1;
            c.workers = 1;
        });
        let (client, responses) = engine.attach_client();
        let serve = |id: u64, workload: &str| {
            engine.submit(client, &request(id, workload, 4096).to_line());
            let response = responses.recv_timeout(Duration::from_secs(60)).unwrap();
            let (_, memo_hit, degraded) = expect_ok(&response);
            assert!(!degraded, "{workload} must fit the store: {response:?}");
            memo_hit
        };
        assert!(!serve(1, "grr"));
        assert!(!serve(2, "yacc"), "yacc records and evicts grr");
        assert!(
            serve(3, "grr"),
            "the re-recorded grr must hash to its memo key"
        );

        engine.submit(client, "{\"id\": 99, \"metrics\": true}");
        let snapshot = match responses.recv_timeout(Duration::from_secs(10)).unwrap() {
            Response::Metrics { id: 99, snapshot } => snapshot,
            other => panic!("expected Metrics, got {other:?}"),
        };
        let read = |section: &str, name: &str| {
            snapshot
                .get(section)
                .and_then(|s| s.get(name))
                .and_then(cwp_obs::Json::as_u64)
                .unwrap_or_else(|| panic!("snapshot missing {section}.{name}: {snapshot:?}"))
        };
        assert_eq!(read("store", "recordings"), 3, "grr was re-recorded");
        assert_eq!(read("store", "evictions"), 2);
        assert_eq!(
            read("counters", "memo_misses"),
            2,
            "the hit never simulated"
        );
        assert_eq!(read("counters", "memo_hits"), 1);
        engine.shutdown();
    }

    #[test]
    fn queued_compatible_requests_coalesce_into_one_banked_pass() {
        let engine = test_engine(|c| {
            c.workers = 1; // one worker so requests actually queue up
            c.max_batch = 16;
        });
        let (client, responses) = engine.attach_client();
        // One warm-up so the trace is recorded, then a burst of
        // distinct configs over the same workload.
        engine.submit(client, &request(0, "grr", 4096).to_line());
        responses.recv_timeout(Duration::from_secs(60)).unwrap();
        for id in 1..=8 {
            engine.submit(client, &request(id, "grr", 1 << (7 + id)).to_line());
        }
        let mut coalesced = 0;
        for _ in 1..=8 {
            if let Response::Ok {
                coalesced: true, ..
            } = responses.recv_timeout(Duration::from_secs(60)).unwrap()
            {
                coalesced += 1;
            }
        }
        engine.shutdown();
        // At least some of the burst must have ridden one banked pass
        // (the first may run alone before the rest arrive).
        assert!(
            coalesced >= 2 || engine.stats().memo_hits > 0,
            "burst never coalesced: {:?}",
            engine.stats()
        );
    }

    #[test]
    fn metrics_requests_answer_with_a_reconciling_snapshot() {
        let engine = test_engine(|_| {});
        let (client, responses) = engine.attach_client();
        for id in 0..3 {
            engine.submit(client, &request(id, "ccom", 4096).to_line());
        }
        for _ in 0..3 {
            let response = responses.recv_timeout(Duration::from_secs(60)).unwrap();
            // Every served response carries a causal id and a timing
            // breakdown whose stages sum to at most wall time.
            match response {
                Response::Ok {
                    wall_ms, timing, ..
                } => {
                    assert!(timing.trace > 0, "span id must be the engine seq");
                    assert!(timing.stage_us("queue").is_some(), "timing: {timing:?}");
                    let stage_sum_us: u64 = timing.stages.iter().map(|(_, us)| *us).sum();
                    assert!(stage_sum_us / 1000 <= wall_ms + 1);
                }
                other => panic!("expected Ok, got {other:?}"),
            }
        }
        engine.submit(client, "{\"id\": 99, \"metrics\": true}");
        let snapshot = match responses.recv_timeout(Duration::from_secs(10)).unwrap() {
            Response::Metrics { id: 99, snapshot } => snapshot,
            other => panic!("expected Metrics, got {other:?}"),
        };
        let stats = engine.stats();
        let counter = |name: &str| {
            snapshot
                .get("counters")
                .and_then(|c| c.get(name))
                .and_then(cwp_obs::Json::as_u64)
                .unwrap_or_else(|| panic!("snapshot missing counter {name:?}: {snapshot:?}"))
        };
        assert_eq!(counter("admitted"), stats.admitted);
        assert_eq!(counter("served"), stats.served);
        assert_eq!(counter("memo_hits"), stats.memo_hits);
        assert_eq!(counter("shed"), stats.shed);
        // Latency histograms saw every served request.
        let total_count = snapshot
            .get("histograms")
            .and_then(|h| h.get("total_us"))
            .and_then(|h| h.get("count"))
            .and_then(cwp_obs::Json::as_u64)
            .unwrap();
        assert_eq!(total_count, stats.served);
        // Live sections are present with sane values.
        assert!(snapshot.get("queue").unwrap().get("depth").is_some());
        assert!(snapshot.get("memo").unwrap().get("entries").is_some());
        assert!(snapshot.get("store").unwrap().get("bytes").is_some());
        engine.shutdown();
    }

    #[test]
    fn the_snapshot_file_is_written_atomically_and_parses() {
        let dir = std::env::temp_dir().join(format!("cwp-metrics-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("metrics.json");
        let engine = test_engine(|c| {
            c.metrics_path = Some(path.clone());
            c.metrics_period = Duration::from_millis(30);
        });
        let (client, responses) = engine.attach_client();
        engine.submit(client, &request(1, "ccom", 4096).to_line());
        responses.recv_timeout(Duration::from_secs(60)).unwrap();
        engine.shutdown(); // writes a final snapshot
        let text = std::fs::read_to_string(&path).unwrap();
        let snapshot = cwp_obs::Json::parse(text.trim()).unwrap();
        assert_eq!(
            snapshot
                .get("counters")
                .and_then(|c| c.get("served"))
                .and_then(cwp_obs::Json::as_u64),
            Some(1)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drain_answers_every_request_exactly_once_and_reports_the_split() {
        let engine = test_engine(|c| {
            c.workers = 1;
            c.queue_capacity = 64;
            c.per_client_inflight = 1000;
        });
        let (client, responses) = engine.attach_client();
        for id in 0..12 {
            engine.submit(client, &request(id, "ccom", 1 << (7 + (id % 6))).to_line());
        }
        let stats = engine.drain();
        let mut ok = 0u32;
        let mut shed = 0u32;
        for _ in 0..12 {
            match responses.recv_timeout(Duration::from_secs(60)).unwrap() {
                Response::Ok { .. } => ok += 1,
                Response::Error {
                    reject: Reject::Overloaded { retry_after_ms },
                    ..
                } => {
                    assert!(retry_after_ms >= 25, "shed must carry a retry hint");
                    shed += 1;
                }
                other => panic!("unexpected response {other:?}"),
            }
        }
        assert_eq!(ok + shed, 12, "every request gets exactly one response");
        assert_eq!(stats.completed, ok);
        assert_eq!(stats.shed, shed);
        assert!(shed > 0, "a 12-burst on one worker must shed on drain");
        // A request submitted after the drain is shed immediately.
        engine.submit(client, &request(99, "ccom", 4096).to_line());
        match responses.recv_timeout(Duration::from_secs(10)).unwrap() {
            Response::Error {
                id: Some(99),
                reject: Reject::Overloaded { .. },
            } => {}
            other => panic!("expected post-drain shed, got {other:?}"),
        }
        // Drain is idempotent: the loser of the race reports nothing.
        assert_eq!(engine.drain(), crate::engine::DrainStats::default());
    }

    #[test]
    fn a_shutdown_request_acks_draining_and_raises_the_flag() {
        let engine = test_engine(|_| {});
        let (client, responses) = engine.attach_client();
        assert!(!engine.drain_requested());
        engine.submit(client, "{\"id\": 7, \"shutdown\": true}");
        match responses.recv_timeout(Duration::from_secs(10)).unwrap() {
            Response::Draining { id: 7 } => {}
            other => panic!("expected Draining ack, got {other:?}"),
        }
        assert!(engine.drain_requested());
        engine.drain();
    }

    #[test]
    fn drain_under_injected_io_faults_keeps_acknowledged_results_durable() {
        use cwp_chaos::{FaultPlan, FaultyIo, IoHandle, RealIo};

        let dir = std::env::temp_dir().join(format!("cwp-drain-chaos-{}", std::process::id()));
        let memo_dir = dir.join("memo");
        let metrics_path = dir.join("metrics.json");
        std::fs::create_dir_all(&dir).unwrap();
        // At 30% the schedule's first fault lands on the 4th I/O op. At
        // 10% it landed on the 23rd, about as many ops as a run makes,
        // so a run that finished a little faster injected nothing.
        let faulty = Arc::new(FaultyIo::new(FaultPlan::transient_only(300_000, 0xD4A1)));
        let engine = test_engine(|c| {
            c.workers = 1;
            c.memo_dir = Some(memo_dir.clone());
            c.metrics_path = Some(metrics_path.clone());
            c.metrics_period = Duration::from_millis(20);
            c.io = IoHandle::new(Arc::clone(&faulty) as Arc<dyn cwp_chaos::ChaosIo>);
        });
        let (client, responses) = engine.attach_client();
        for id in 0..8 {
            engine.submit(client, &request(id, "ccom", 1 << (7 + (id % 8))).to_line());
        }
        // Let some work land, then drain with faults still firing.
        let first = responses.recv_timeout(Duration::from_secs(60)).unwrap();
        engine.drain();
        let mut acknowledged = vec![first];
        while let Ok(response) = responses.recv_timeout(Duration::from_secs(10)) {
            acknowledged.push(response);
        }
        let ok_count = acknowledged
            .iter()
            .filter(|r| matches!(r, Response::Ok { .. }))
            .count();
        assert!(ok_count >= 1);
        assert_eq!(acknowledged.len(), 8, "every request answered during drain");

        // Every acknowledged Ok is durable: a fresh store over the same
        // journal (no faults) reloads at least that many clean entries.
        let reloaded = crate::MemoStore::open_with_io(&memo_dir, Arc::new(RealIo)).unwrap();
        assert_eq!(reloaded.corrupt_lines(), 0, "journal must never tear");
        let distinct_ok: std::collections::HashSet<u64> = acknowledged
            .iter()
            .filter_map(|r| match r {
                Response::Ok { id, .. } => Some(*id),
                _ => None,
            })
            .collect();
        assert!(
            reloaded.len() >= distinct_ok.len(),
            "memo lost acknowledged results: {} < {}",
            reloaded.len(),
            distinct_ok.len()
        );
        // The final snapshot is atomic: present means parseable.
        if let Ok(text) = std::fs::read_to_string(&metrics_path) {
            cwp_obs::Json::parse(text.trim()).expect("snapshot must parse");
        }
        assert!(
            faulty.stats().injected() > 0,
            "the fault plan never fired; the test proved nothing"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_drained_memo_warm_starts_the_next_engine() {
        let dir = std::env::temp_dir().join(format!("cwp-drain-warm-{}", std::process::id()));
        let memo_dir = dir.join("memo");
        std::fs::create_dir_all(&dir).unwrap();
        {
            let engine = test_engine(|c| c.memo_dir = Some(memo_dir.clone()));
            let (client, responses) = engine.attach_client();
            engine.submit(client, &request(1, "ccom", 4096).to_line());
            expect_ok(&responses.recv_timeout(Duration::from_secs(60)).unwrap());
            engine.drain();
        }
        let engine = test_engine(|c| c.memo_dir = Some(memo_dir.clone()));
        let (client, responses) = engine.attach_client();
        engine.submit(client, &request(2, "ccom", 4096).to_line());
        let response = responses.recv_timeout(Duration::from_secs(60)).unwrap();
        let (_, memo_hit, _) = expect_ok(&response);
        assert!(memo_hit, "a drained journal must warm-start the restart");
        engine.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_tcp_server_round_trips_requests() {
        let engine = Arc::new(test_engine(|_| {}));
        let mut server = crate::Server::bind(Arc::clone(&engine), "127.0.0.1:0").unwrap();
        let addr = server.local_addr().to_string();
        let mut client = crate::Client::connect(&addr).unwrap();
        let req = request(3, "ccom", 2048);
        let response = client.call(&req).unwrap();
        let (_, _, degraded) = expect_ok(&response);
        assert!(!degraded);
        // Malformed input on the same connection: typed error, then the
        // connection still works.
        client.send_raw("{{{").unwrap();
        match client.recv().unwrap() {
            Response::Error {
                reject: Reject::BadRequest { .. },
                ..
            } => {}
            other => panic!("expected BadRequest, got {other:?}"),
        }
        let response = client.call(&request(4, "ccom", 2048)).unwrap();
        let (_, memo_hit, _) = expect_ok(&response);
        assert!(memo_hit, "same workload and config → memo hit");
        server.shutdown();
    }

    #[test]
    fn a_tcp_shutdown_request_acks_and_the_server_drains_cleanly() {
        let engine = Arc::new(test_engine(|_| {}));
        let mut server = crate::Server::bind(Arc::clone(&engine), "127.0.0.1:0").unwrap();
        let addr = server.local_addr().to_string();
        let mut client = crate::Client::connect(&addr).unwrap();
        expect_ok(&client.call(&request(1, "ccom", 2048)).unwrap());
        client.request_shutdown(2).unwrap();
        assert!(
            engine.drain_requested(),
            "the wire shutdown must raise the drain flag"
        );
        let stats = server.drain();
        assert_eq!(stats.queued, 0, "an idle server has nothing queued");
    }
}
