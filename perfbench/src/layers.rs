//! Per-layer measurements for the traced run: each times calls into one
//! crate's public functions, inside a span, over the
//! recordings of all six paper workloads.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use cwp_buffers::{CoalescingWriteBuffer, WriteCache};
use cwp_cache::CacheConfig;
use cwp_core::experiments::SIZES;
use cwp_core::sim::{replay, simulate_many};
use cwp_core::{Lab, TraceStore};
use cwp_mem::{MainMemory, NextLevel};
use cwp_obs::json::Json;
use cwp_pipeline::{StorePipeline, StoreTiming};
use cwp_serve::memo::MEMO_FILE;
use cwp_serve::protocol::config_key;
use cwp_serve::{MemoStore, Request, Response, ResultSummary};
use cwp_trace::{workloads, MemRef, RecordedTrace};

use crate::mix::Mix;
use crate::spans::SpanLog;
use crate::stats::median;
use crate::{Checks, Metrics, SCALE};

/// Times `f` inside a span and returns its result with the seconds.
fn timed<R>(log: &mut SpanLog, name: &'static str, key: &str, f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let result = log.span(name, key, None, |_, _| f());
    (result, t.elapsed().as_secs_f64())
}

fn recordings(store: &TraceStore) -> Vec<(&'static str, Arc<RecordedTrace>)> {
    workloads::suite()
        .iter()
        .map(|w| {
            let trace = store
                .get_or_record(w.as_ref())
                .expect("a trace at the benchmark's scale fits the default store budget");
            (w.name(), trace)
        })
        .collect()
}

/// `cwp-trace`: generation, replay and hashing cost per reference.
pub fn trace(store: &TraceStore, log: &mut SpanLog, checks: &mut Checks, out: &mut Metrics) {
    let traces = recordings(store);
    let refs: u64 = traces.iter().map(|(_, t)| t.len() as u64).sum();
    let (mut gen_s, mut replay_s, mut hash_s) = (0.0, 0.0, 0.0);
    for (name, trace) in &traces {
        let w = workloads::by_name(name).expect("paper workload");
        let mut generated = 0u64;
        let mut count = |_: MemRef| generated += 1;
        let (_, s) = timed(log, "Workload::run", name, || w.run(SCALE, &mut count));
        gen_s += s;
        if generated != trace.len() as u64 {
            checks.fail(format!(
                "{name}: generator emitted {generated} refs, recording holds {}",
                trace.len()
            ));
        }
        let mut sink = |r: MemRef| {
            black_box(r);
        };
        let (_, s) = timed(log, "RecordedTrace::replay", name, || {
            trace.replay(&mut sink)
        });
        replay_s += s;
        let (hash, s) = timed(log, "RecordedTrace::content_hash", name, || {
            trace.content_hash()
        });
        black_box(hash);
        hash_s += s;
    }
    out.push("trace.gen_ns_per_ref", gen_s * 1e9 / refs as f64, "ns");
    out.push(
        "trace.replay_ns_per_ref",
        replay_s * 1e9 / refs as f64,
        "ns",
    );
    out.push("trace.hash_ms", hash_s * 1e3 / traces.len() as f64, "ms");
    out.push("trace.refs", refs as f64, "count");
}

/// `cwp-cache`: the data-carrying engine and the banked `SoaCache`
/// pass over the paper's 8-size sweep (16 B lines, direct-mapped,
/// write-back with fetch-on-write), and what banking saves.
pub fn cache(store: &TraceStore, log: &mut SpanLog, checks: &mut Checks, out: &mut Metrics) {
    let configs: Vec<CacheConfig> = SIZES
        .iter()
        .map(|&size| {
            CacheConfig::builder()
                .size_bytes(size)
                .build()
                .expect("paper sweep geometry is valid")
        })
        .collect();
    let one = [CacheConfig::default()];
    let traces = recordings(store);
    let refs: u64 = traces.iter().map(|(_, t)| t.len() as u64).sum();
    let (mut data_s, mut soa_s, mut one_s) = (0.0, 0.0, 0.0);
    for (name, trace) in &traces {
        let mut data = Vec::new();
        for config in &configs {
            let (outcome, s) = timed(log, "sim::replay", name, || replay(trace, config));
            data_s += s;
            data.push(ResultSummary::from_outcome(&outcome));
        }
        let (banked, s) = timed(log, "sim::simulate_many", name, || {
            simulate_many(trace, &configs)
        });
        soa_s += s;
        let (single, s) = timed(log, "sim::simulate_many", name, || {
            simulate_many(trace, &one)
        });
        one_s += s;
        black_box(single);
        let banked: Vec<ResultSummary> = banked.iter().map(ResultSummary::from_outcome).collect();
        if banked != data {
            checks.fail(format!(
                "{name}: banked sweep differs from per-config replay"
            ));
        }
    }
    let per = (refs * configs.len() as u64) as f64;
    out.push("cache.data_ns_per_ref", data_s * 1e9 / per, "ns");
    out.push("cache.soa_ns_per_refcfg", soa_s * 1e9 / per, "ns");
    out.push("cache.bank_1cfg_ms", one_s * 1e3, "ms");
    out.push("cache.bank_8cfg_ms", soa_s * 1e3, "ms");
    out.push(
        "cache.bank_amortization",
        one_s / (soa_s / configs.len() as f64),
        "ratio",
    );
}

/// `cwp-buffers` over each workload's store stream, with the Figure 5
/// buffer (8 entries, 16 B lines, retiring every 8 cycles) and write
/// cache (6 entries of 8 B); `cwp-pipeline` driven by the generator.
pub fn buffers_and_pipeline(store: &Arc<TraceStore>, log: &mut SpanLog, out: &mut Metrics) {
    let mut lab = Lab::new(SCALE);
    lab.set_store(Arc::clone(store));
    let (mut stores, mut wb_s, mut wc_s) = (0u64, 0.0, 0.0);
    let (mut refs, mut pipe_s) = (0u64, 0.0);
    for w in workloads::suite() {
        let name = w.name();
        let stream = lab.write_stream(name);
        stores += stream.events.len() as u64;
        let (_, s) = timed(log, "CoalescingWriteBuffer::write", name, || {
            let mut wb = CoalescingWriteBuffer::new(8, 16, 8);
            for ev in &stream.events {
                wb.write(ev.cycle, ev.addr);
            }
            wb.flush();
            black_box(wb.stats())
        });
        wb_s += s;
        let (_, s) = timed(log, "WriteCache::write_through", name, || {
            let mut wc = WriteCache::new(6, 8, MainMemory::new());
            let data = [0u8; 8];
            for ev in &stream.events {
                wc.write_through(ev.addr, &data[..ev.size as usize]);
            }
            wc.flush();
            black_box(wc.stats())
        });
        wc_s += s;
        let (summary, s) = timed(log, "StorePipeline", name, || {
            let mut pipe = StorePipeline::for_timing(StoreTiming::DelayedWrite);
            let summary = w.run(SCALE, &mut pipe);
            black_box(pipe.stats());
            summary
        });
        refs += summary.data_refs();
        pipe_s += s;
    }
    out.push("buffers.wb_ns_per_store", wb_s * 1e9 / stores as f64, "ns");
    out.push("buffers.wc_ns_per_store", wc_s * 1e9 / stores as f64, "ns");
    out.push("pipeline.ns_per_ref", pipe_s * 1e9 / refs as f64, "ns");
}

/// `cwp-serve` building blocks: the JSONL codec, memo lookups, and a
/// put into a disk-backed memo of 100 and of 1000 entries (every put
/// rewrites the whole journal).
pub fn serve_parts(
    store: &TraceStore,
    mix: &Mix,
    responses: &[Response],
    work: &Path,
    log: &mut SpanLog,
    checks: &mut Checks,
    out: &mut Metrics,
) {
    let lines: Vec<String> = mix
        .queries
        .iter()
        .enumerate()
        .map(|(i, q)| {
            Request {
                id: i as u64 + 1,
                workload: q.pair.workload.to_string(),
                config: q.pair.config,
                deadline_ms: None,
                priority: 0,
                req_key: None,
            }
            .to_line()
        })
        .collect();
    let (decoded, s) = timed(log, "Request::from_line", "mix", || {
        lines
            .iter()
            .filter(|l| Request::from_line(l).is_ok())
            .count()
    });
    if decoded != lines.len() {
        checks.fail(format!(
            "{} of {} request lines decoded",
            decoded,
            lines.len()
        ));
    }
    out.push("serve.decode_ns", s * 1e9 / lines.len() as f64, "ns");
    let (bytes, s) = timed(log, "Response::to_line", "mix", || {
        responses.iter().map(|r| r.to_line().len()).sum::<usize>()
    });
    black_box(bytes);
    out.push(
        "serve.encode_ns",
        s * 1e9 / responses.len().max(1) as f64,
        "ns",
    );

    let grr = store
        .get_or_record(workloads::grr().as_ref())
        .expect("a trace at the benchmark's scale fits the default store budget");
    let result = ResultSummary::from_outcome(&replay(&grr, &CacheConfig::default()));
    let keys: Vec<String> = mix.pairs().iter().map(|p| config_key(&p.config)).collect();
    let memo = MemoStore::ephemeral();
    for (i, key) in keys.iter().enumerate() {
        memo.put(i as u64 % 6, key.clone(), result.clone())
            .expect("an in-memory put cannot fail");
    }
    let rounds = 20;
    let (found, s) = timed(log, "MemoStore::get", "mix", || {
        let mut found = 0usize;
        for _ in 0..rounds {
            for (i, key) in keys.iter().enumerate() {
                found += usize::from(memo.get(i as u64 % 6, key).is_some());
            }
        }
        found
    });
    if found != rounds * keys.len() {
        checks.fail(format!(
            "memo found {found} of {} keys",
            rounds * keys.len()
        ));
    }
    out.push(
        "serve.memo_get_ns",
        s * 1e9 / (rounds * keys.len()) as f64,
        "ns",
    );

    for entries in [100usize, 1000] {
        match memo_put_ms(work, entries, &result, log) {
            Ok(ms) => out.push(&format!("serve.memo_put_ms.{entries}"), ms, "ms"),
            Err(e) => checks.fail(format!("memo put at {entries} entries: {e}")),
        }
    }
}

/// Median ms of five puts into a journal that already holds
/// `entries - 1` entries, written in the journal's own line format
/// before the store opens it.
fn memo_put_ms(
    work: &Path,
    entries: usize,
    result: &ResultSummary,
    log: &mut SpanLog,
) -> std::io::Result<f64> {
    let dir = work.join(format!("memo-put-{entries}"));
    std::fs::create_dir_all(&dir)?;
    let mut journal = String::new();
    for i in 0..entries - 1 {
        Json::obj([
            ("trace", Json::UInt(i as u64)),
            ("config_key", Json::Str(format!("k{i}"))),
            ("result", result.to_json()),
        ])
        .write(&mut journal);
        journal.push('\n');
    }
    std::fs::write(dir.join(MEMO_FILE), journal)?;
    let memo = MemoStore::open(&dir)?;
    if memo.len() != entries - 1 || memo.corrupt_lines() != 0 {
        return Err(std::io::Error::other(format!(
            "journal reopened with {} entries, {} corrupt",
            memo.len(),
            memo.corrupt_lines()
        )));
    }
    let mut times = Vec::new();
    for i in 0..5 {
        let key = format!("new{i}");
        let (put, s) = timed(log, "MemoStore::put", &entries.to_string(), || {
            memo.put(u64::MAX, key, result.clone())
        });
        put?;
        times.push(s * 1e3);
    }
    Ok(median(&times))
}
