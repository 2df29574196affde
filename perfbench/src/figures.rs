//! The figure workloads. One pass records a fresh trace store (its
//! set-up), runs a list of experiments on a fresh single-threaded `Lab`
//! over it, then answers the seeded request mix through the batch API
//! the workload stands for.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use cwp_cache::CacheConfig;
use cwp_core::experiments;
use cwp_core::lab::WORKLOAD_NAMES;
use cwp_core::sim::simulate_many;
use cwp_core::{Lab, SimOutcome, TraceStore};
use cwp_serve::ResultSummary;
use cwp_trace::{workloads, RecordedTrace};

use crate::calib::HostSpeed;
use crate::mix::{Mix, Pair};
use crate::spans::SpanLog;
use crate::stats::fnv1a;
use crate::{Checks, Requests, SCALE};

/// Experiments whose time goes to `Lab::outcome`: per-config replays on
/// the data-carrying engine (fig01, fig02, fig19, ext_bytes, ext_assoc)
/// and the memo lookups of the policy sweeps. Listed, and run, in the
/// registry's (paper) order.
pub const PERCFG: [&str; 12] = [
    "fig01",
    "fig02",
    "fig17",
    "fig19",
    "fig20",
    "fig21",
    "fig22",
    "fig23",
    "fig24",
    "fig25",
    "ext_bytes",
    "ext_assoc",
];

/// Experiments whose time goes to banked sweeps, live generators, the
/// write buffers and the store pipeline, in the registry's order.
pub const BANKED: [&str; 19] = [
    "table1",
    "fig03",
    "fig04",
    "fig05",
    "fig06",
    "fig07",
    "fig08",
    "fig09",
    "fig10",
    "fig11",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig18",
    "table3",
    "ext_burst",
    "ext_alloc",
    "ext_l2",
];

/// How a pass's request phase simulates a cold query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `Lab::outcome`: a per-config replay on the data-carrying
    /// `cwp_cache::Cache`, memoized in the pass's `Lab`.
    PerConfig,
    /// `sim::simulate_many` with one config: the banked `SoaCache`
    /// pass the service runs, memoized in a map like the `Lab`'s.
    Banked,
}

/// Digest of each experiment's tables as `figures --scale test
/// --jobs 1 <id>` prints them, one `<id> <hex digest>` a line.
const DIGESTS: &str = include_str!("../digests.txt");

fn expected_digest(id: &str) -> Option<u64> {
    DIGESTS.lines().find_map(|line| {
        let (name, hex) = line.split_once(' ')?;
        (name == id).then(|| u64::from_str_radix(hex.trim(), 16).ok())?
    })
}

/// Records all six traces into a fresh store. Returns the store and
/// its seconds.
pub fn record_store(log: &mut SpanLog) -> (Arc<TraceStore>, f64) {
    let start = Instant::now();
    let store = Arc::new(TraceStore::new(SCALE));
    for w in workloads::suite() {
        log.span("trace.get_or_record", w.name(), None, |_, _| {
            store
                .get_or_record(w.as_ref())
                .expect("a trace at the benchmark's scale fits the default store budget")
        });
    }
    (store, start.elapsed().as_secs_f64())
}

/// The store's recording of `workload`.
pub fn recording(store: &TraceStore, workload: &str) -> Arc<RecordedTrace> {
    let w = workloads::by_name(workload).expect("mix workloads are paper workloads");
    store
        .get_or_record(w.as_ref())
        .expect("a trace at the benchmark's scale fits the default store budget")
}

/// What one pass did.
pub struct Pass {
    /// Seconds to record the pass's trace store.
    pub setup_s: f64,
    /// Host seconds of the experiments.
    pub wall_s: f64,
    /// Seconds per experiment, in run order.
    pub exp_s: Vec<(&'static str, f64)>,
    /// Simulations the experiments ran (`Lab::runs`).
    pub sims: u64,
    pub store_hits: u64,
    pub store_misses: u64,
    /// The request phase, timed per query.
    pub requests: Requests,
    /// Host-speed scale sampled before each experiment and after the
    /// last; it scales the set-up and the experiments.
    pub scale: f64,
    /// Host-speed scale sampled every 56 queries; it scales the
    /// request phase.
    pub request_scale: f64,
}

/// One pass: records a store, runs `ids` in order on a fresh
/// single-threaded `Lab` over it, checking each experiment's tables
/// against its committed digest, then asks `mix` with cold queries
/// simulated by `engine`, checking every answer against `reference`.
pub fn run_pass(
    ids: &[&'static str],
    engine: Engine,
    mix: &Mix,
    reference: &HashMap<Pair, ResultSummary>,
    checks: &mut Checks,
    log: &mut SpanLog,
) -> Pass {
    let (store, setup_s) = record_store(log);
    let mut lab = Lab::new(SCALE);
    lab.set_store(Arc::clone(&store));
    let (hits0, misses0) = (store.hits(), store.misses());
    let mut exp_s = Vec::new();
    let mut speed = HostSpeed::default();
    for &id in ids {
        speed.sample();
        let experiment = experiments::by_id(id).expect("listed ids are registered");
        let t = Instant::now();
        let tables = log.span("exp.run", id, None, |_, _| {
            catch_unwind(AssertUnwindSafe(|| experiment.run(&mut lab)))
        });
        exp_s.push((id, t.elapsed().as_secs_f64()));
        match tables {
            Ok(tables) => {
                let mut rendered = String::new();
                for table in &tables {
                    rendered.push_str(&table.to_markdown());
                    rendered.push('\n');
                }
                let digest = fnv1a(rendered.as_bytes());
                match expected_digest(id) {
                    Some(want) if want == digest => checks.pass(),
                    Some(want) => checks.fail(format!(
                        "{id}: tables digest {digest:016x}, want {want:016x}"
                    )),
                    None => checks.fail(format!("{id}: no committed digest")),
                }
            }
            Err(_) => checks.fail(format!("{id}: experiment panicked")),
        }
    }
    speed.sample();
    let sims = lab.runs();
    let (store_hits, store_misses) = (store.hits() - hits0, store.misses() - misses0);
    let (requests, request_scale) = ask(&mut lab, &store, engine, mix, reference, checks, log);
    Pass {
        setup_s,
        wall_s: exp_s.iter().map(|(_, s)| s).sum(),
        exp_s,
        sims,
        store_hits,
        store_misses,
        requests,
        scale: speed.scale(),
        request_scale,
    }
}

/// The request phase: primes the warm set (untimed), then answers each
/// query with the `ResultSummary` the service would send, timing each
/// answer on its own, and samples the host's speed every 56 queries.
/// Every answer is checked against `reference`, and exactly the cold
/// queries must simulate. Returns the timings and the phase's
/// host-speed scale.
fn ask(
    lab: &mut Lab,
    store: &TraceStore,
    engine: Engine,
    mix: &Mix,
    reference: &HashMap<Pair, ResultSummary>,
    checks: &mut Checks,
    log: &mut SpanLog,
) -> (Requests, f64) {
    let mut memo: HashMap<Pair, Arc<SimOutcome>> = HashMap::new();
    for workload in WORKLOAD_NAMES {
        let configs: Vec<CacheConfig> = mix
            .warm
            .iter()
            .filter(|p| p.workload == workload)
            .map(|p| p.config)
            .collect();
        match engine {
            Engine::PerConfig => {
                lab.outcomes_sweep(workload, &configs);
            }
            Engine::Banked => {
                let outcomes = simulate_many(&recording(store, workload), &configs);
                for (config, outcome) in configs.iter().zip(outcomes) {
                    let pair = Pair {
                        workload,
                        config: *config,
                    };
                    memo.insert(pair, Arc::new(outcome));
                }
            }
        }
    }
    let runs = lab.runs();
    let primed = memo.len();
    let mut answers = Vec::with_capacity(mix.queries.len());
    let mut requests = Requests::default();
    let mut speed = HostSpeed::default();
    let start = Instant::now();
    log.span("request_phase", format!("{engine:?}"), None, |_, _| {
        for (i, query) in mix.queries.iter().enumerate() {
            if i % 56 == 0 {
                speed.sample();
            }
            let Pair { workload, config } = query.pair;
            let t = Instant::now();
            let outcome = match engine {
                Engine::PerConfig => lab.outcome(workload, &config),
                Engine::Banked => match memo.get(&query.pair) {
                    Some(hit) => Arc::clone(hit),
                    None => {
                        let mut outcomes = simulate_many(&recording(store, workload), &[config]);
                        let outcome = Arc::new(outcomes.remove(0));
                        memo.insert(query.pair, Arc::clone(&outcome));
                        outcome
                    }
                },
            };
            let answer = ResultSummary::from_outcome(&outcome);
            requests.record(query.cold, t.elapsed().as_secs_f64() * 1e3);
            answers.push(answer);
        }
    });
    requests.wall_s = start.elapsed().as_secs_f64();
    let simulated = match engine {
        Engine::PerConfig => (lab.runs() - runs) as usize,
        Engine::Banked => memo.len() - primed,
    };
    if simulated != mix.cold_count() {
        checks.fail(format!(
            "{simulated} simulations for {} cold queries",
            mix.cold_count()
        ));
    }
    for (query, answer) in mix.queries.iter().zip(&answers) {
        if *answer == reference[&query.pair] {
            checks.pass();
        } else {
            checks.fail(format!("{:?} differs from the reference", query.pair));
        }
    }
    (requests, speed.scale())
}

/// Reference results for every pair of `mix`: one direct serial banked
/// pass (`sim::simulate_many`) per workload over a fresh recording.
pub fn references(mix: &Mix) -> HashMap<Pair, ResultSummary> {
    let store = TraceStore::new(SCALE);
    let pairs = mix.pairs();
    let mut reference = HashMap::new();
    for workload in WORKLOAD_NAMES {
        let configs: Vec<CacheConfig> = pairs
            .iter()
            .filter(|p| p.workload == workload)
            .map(|p| p.config)
            .collect();
        let outcomes = simulate_many(&recording(&store, workload), &configs);
        for (config, outcome) in configs.into_iter().zip(&outcomes) {
            reference.insert(
                Pair { workload, config },
                ResultSummary::from_outcome(outcome),
            );
        }
    }
    reference
}
