//! The service workload: an in-process `cwp_serve::Server` on an
//! ephemeral local port, driven by a closed loop of blocking clients.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cwp_obs::json::Json;
use cwp_serve::{Client, Engine, EngineConfig, Request, Response, ResultSummary, Server};

use crate::mix::{Mix, Pair};
use crate::spans::SpanLog;
use crate::{Checks, Requests, SCALE};

/// Longest a client waits for one response before the request counts
/// as failed.
const RECV_TIMEOUT: Duration = Duration::from_secs(60);

/// One sent request: its index in the mix, its latency in ms, and what
/// came back.
type Sent = (usize, f64, std::io::Result<Response>);

fn request(id: u64, pair: &Pair) -> Request {
    Request {
        id,
        workload: pair.workload.to_string(),
        config: pair.config,
        deadline_ms: None,
        priority: 0,
        req_key: None,
    }
}

/// A started server with its warm set primed.
struct Service {
    server: Server,
    /// The priming responses, checked after the timed phase.
    primed: Vec<(Pair, std::io::Result<Response>)>,
}

/// Starts an engine (`workers` = `threads`, one shard thread each, memo
/// journal under `memo_dir`), binds it to `127.0.0.1:0` and primes the
/// warm set through one pipelined connection. The engine records each
/// trace on its first request, so this is the service's whole set-up.
fn start(memo_dir: &Path, threads: usize, mix: &Mix) -> std::io::Result<Service> {
    let mut config = EngineConfig::new(SCALE);
    config.workers = threads;
    config.sim_threads = 1;
    config.memo_dir = Some(memo_dir.to_path_buf());
    let engine = Arc::new(Engine::start(config)?);
    let server = Server::bind(engine, "127.0.0.1:0")?;
    let mut client = Client::connect(&server.local_addr().to_string())?;
    client.set_recv_timeout(Some(RECV_TIMEOUT))?;
    let requests: Vec<Request> = mix
        .warm
        .iter()
        .enumerate()
        .map(|(i, pair)| request(i as u64 + 1, pair))
        .collect();
    let mut responses = client.pipeline(&requests)?;
    let primed = mix
        .warm
        .iter()
        .enumerate()
        .map(|(i, pair)| {
            let response = responses.remove(&(i as u64 + 1)).ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "no priming response")
            });
            (*pair, response)
        })
        .collect();
    Ok(Service { server, primed })
}

/// Engine counters read from `Engine::metrics_snapshot`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub admitted: u64,
    pub served: u64,
    pub memo_hits: u64,
    pub memo_misses: u64,
    pub coalesced: u64,
}

fn counts(snapshot: &Json) -> Counts {
    let counter = |name: &str| {
        snapshot
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    Counts {
        admitted: counter("admitted"),
        served: counter("served"),
        memo_hits: counter("memo_hits"),
        memo_misses: counter("memo_misses"),
        coalesced: counter("coalesced"),
    }
}

/// The p50 of one engine stage histogram, in microseconds.
pub fn stage_p50_us(snapshot: &Json, stage: &str) -> f64 {
    snapshot
        .get("histograms")
        .and_then(|h| h.get(stage))
        .and_then(|h| h.get("p50"))
        .and_then(Json::as_u64)
        .unwrap_or(0) as f64
}

/// What one round saw.
pub struct Round {
    /// Seconds to start the service and prime its warm set.
    pub setup_s: f64,
    /// Client-side latencies of the timed phase.
    pub requests: Requests,
    /// Engine counter deltas over the timed phase.
    pub delta: Counts,
    /// The engine's metrics snapshot after the timed phase.
    pub snapshot: Json,
    /// The checked responses, kept for the codec measurements.
    pub responses: Vec<Response>,
}

/// One round: starts a fresh service with its memo journal in
/// `memo_dir` (the set-up), runs the mix against it as a closed loop of
/// `threads` connections, each sending its next request only after the
/// previous response arrived, and shuts it down. Then checks every
/// response against `reference` and the engine's exact counts.
pub fn round(
    memo_dir: &Path,
    threads: usize,
    mix: &Mix,
    reference: &HashMap<Pair, ResultSummary>,
    checks: &mut Checks,
    log: &mut SpanLog,
) -> std::io::Result<Round> {
    let t0 = Instant::now();
    let mut service = start(memo_dir, threads, mix)?;
    let setup_s = t0.elapsed().as_secs_f64();
    let engine = Arc::clone(service.server.engine());
    let before = counts(&engine.metrics_snapshot());
    let addr = service.server.local_addr().to_string();
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let lanes: Vec<(Vec<Sent>, SpanLog)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|lane| {
                let mut lane_log = log.fork(lane as u64);
                let (addr, next) = (&addr, &next);
                scope.spawn(move || {
                    let results = client_loop(addr, mix, next, &mut lane_log);
                    (results, lane_log)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let mut requests = Requests {
        wall_s: start.elapsed().as_secs_f64(),
        ..Requests::default()
    };
    let mut results: Vec<Sent> = Vec::new();
    for (lane_results, lane_log) in lanes {
        results.extend(lane_results);
        log.absorb(lane_log);
    }
    let snapshot = engine.metrics_snapshot();
    let after = counts(&snapshot);
    results.sort_by_key(|r| r.0);
    service.server.shutdown();
    drop(service.server);
    drop(engine);

    for (pair, response) in &service.primed {
        check_response(pair, None, response, reference, checks);
    }
    let mut responses = Vec::new();
    let mut warm_answered_from_memo = 0u64;
    for (index, ms, response) in &results {
        let query = &mix.queries[*index];
        if check_response(&query.pair, Some(query.cold), response, reference, checks) {
            if let Ok(r @ Response::Ok { memo_hit, .. }) = response {
                warm_answered_from_memo += u64::from(*memo_hit);
                responses.push(r.clone());
            }
        }
        requests.record(query.cold, *ms);
    }
    let n = mix.queries.len() as u64;
    if results.len() as u64 != n {
        checks.fail(format!("{} of {n} requests were sent", results.len()));
    }
    let delta = Counts {
        admitted: after.admitted - before.admitted,
        served: after.served - before.served,
        memo_hits: after.memo_hits - before.memo_hits,
        memo_misses: after.memo_misses - before.memo_misses,
        coalesced: after.coalesced - before.coalesced,
    };
    let cold = mix.cold_count() as u64;
    let warm = n - cold;
    if delta.admitted != n || delta.served != n {
        checks.fail(format!(
            "engine admitted {} and served {} of {n} requests",
            delta.admitted, delta.served
        ));
    }
    if delta.memo_hits != warm || warm_answered_from_memo != warm {
        checks.fail(format!(
            "memo hits: engine {}, client {warm_answered_from_memo}, warm requests {warm}",
            delta.memo_hits
        ));
    }
    if delta.memo_misses != cold {
        checks.fail(format!(
            "memo misses: engine {}, cold requests {cold}",
            delta.memo_misses
        ));
    }
    Ok(Round {
        setup_s,
        requests,
        delta,
        snapshot,
        responses,
    })
}

/// One connection's closed loop over the shared request cursor.
fn client_loop(addr: &str, mix: &Mix, next: &AtomicUsize, log: &mut SpanLog) -> Vec<Sent> {
    let mut results = Vec::new();
    let connected = log.span("client.connect", addr, None, |_, _| {
        let client = Client::connect(addr)?;
        client.set_recv_timeout(Some(RECV_TIMEOUT))?;
        Ok::<_, std::io::Error>(client)
    });
    let mut client = match connected {
        Ok(client) => client,
        Err(e) => {
            // The other lanes take this lane's requests; a run where
            // none connects is caught by the sent-count check.
            eprintln!("perfbench: connect failed: {e}");
            return results;
        }
    };
    loop {
        let index = next.fetch_add(1, Ordering::Relaxed);
        if index >= mix.queries.len() {
            return results;
        }
        let query = &mix.queries[index];
        let id = index as u64 + 1;
        let request = request(id, &query.pair);
        let t = Instant::now();
        let response = log.span("client.call", id.to_string(), None, |log, parent| {
            log.span("client.send", id.to_string(), parent, |_, _| {
                client.send(&request)
            })?;
            log.span("client.recv", id.to_string(), parent, |_, _| client.recv())
        });
        results.push((index, t.elapsed().as_secs_f64() * 1e3, response));
    }
}

/// Checks one served response against the reference; `cold` also
/// checks that the memo answered exactly the warm requests.
fn check_response(
    pair: &Pair,
    cold: Option<bool>,
    response: &std::io::Result<Response>,
    reference: &HashMap<Pair, ResultSummary>,
    checks: &mut Checks,
) -> bool {
    match response {
        Ok(Response::Ok {
            result, memo_hit, ..
        }) => {
            if *result != reference[pair] {
                checks.fail(format!("served {pair:?} differs from the reference"));
            } else if cold.is_some_and(|cold| cold == *memo_hit) {
                checks.fail(format!(
                    "{pair:?}: memo_hit {memo_hit} on a cold={cold:?} request"
                ));
            } else {
                checks.pass();
                return true;
            }
        }
        Ok(Response::Error { reject, .. }) => checks.fail(format!("{pair:?}: {}", reject.tag())),
        Ok(other) => checks.fail(format!("{pair:?}: unexpected response {other:?}")),
        Err(e) => checks.fail(format!("{pair:?}: {e}")),
    }
    false
}
