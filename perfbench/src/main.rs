//! End-to-end and per-layer benchmark for the cwp workspace.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload figures_percfg --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Run from the repository root. Workloads, metrics and the layer each
//! metric belongs to are described in `perfbench/README.md`. The last
//! line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the line before it records the
//! host and every failure. Any failed check exits nonzero.

mod calib;
mod figures;
mod layers;
mod mix;
mod serve;
mod spans;
mod stats;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use cwp_obs::json::Json;
use cwp_trace::Scale;

use crate::calib::HostSpeed;
use crate::mix::Mix;
use crate::spans::SpanLog;
use crate::stats::{median, percentile, samples_beyond};

/// Scale of every trace the benchmark records. A quick-scale figure
/// pass takes 15-25 s, so a run could hold one, and one pass on a
/// shared host moves by a third from run to run. A test-scale pass
/// takes about a second, so a run holds a score of them.
pub const SCALE: Scale = Scale::Test;
/// Fewest units (figure passes or service rounds) a run measures, even
/// when `--seconds` has run out.
const MIN_UNITS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Percfg,
    Banked,
    Serve,
}

impl Kind {
    fn parse(name: &str) -> Option<Kind> {
        match name {
            "figures_percfg" => Some(Kind::Percfg),
            "figures_banked" => Some(Kind::Banked),
            "serve_mixed" => Some(Kind::Serve),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Kind::Percfg => "figures_percfg",
            Kind::Banked => "figures_banked",
            Kind::Serve => "serve_mixed",
        }
    }

    /// Simulations one pass runs on a fresh `Lab` (`Lab::runs`), and
    /// the trace-store hits and misses it makes.
    fn counts_per_pass(self) -> (u64, u64, u64) {
        match self {
            Kind::Percfg => (198, 198, 0),
            Kind::Banked => (336, 78, 0),
            Kind::Serve => (0, 0, 0),
        }
    }

    fn engine(self) -> figures::Engine {
        match self {
            Kind::Banked => figures::Engine::Banked,
            Kind::Percfg | Kind::Serve => figures::Engine::PerConfig,
        }
    }

    fn experiments(self) -> &'static [&'static str] {
        match self {
            Kind::Percfg => &figures::PERCFG,
            Kind::Banked => &figures::BANKED,
            Kind::Serve => &[],
        }
    }
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let (mut seed, mut seconds, mut trace) = (None, None, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind =
                    Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload '{value}'"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed '{value}'"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|&s| s > 0)
                        .ok_or_else(|| format!("bad seconds '{value}'"))?,
                )
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace '{value}' (want 0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(30),
        trace,
    })
}

/// Every checked output: attempted, and the failures with a reason.
#[derive(Default)]
pub struct Checks {
    attempted: u64,
    failures: Vec<String>,
}

impl Checks {
    pub fn pass(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failures.push(why);
    }
}

/// Metrics in output order, and for an untraced run the unit count,
/// the median host-speed scale and the unscaled medians.
#[derive(Default)]
pub struct Metrics {
    values: Vec<(String, f64, &'static str)>,
    raw: Vec<(&'static str, f64)>,
}

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.values.push((name.to_string(), value, unit));
    }
}

/// Latencies of one request phase, timed at the caller.
#[derive(Default)]
pub struct Requests {
    pub wall_s: f64,
    hit_ms: Vec<f64>,
    miss_ms: Vec<f64>,
}

impl Requests {
    pub fn record(&mut self, cold: bool, ms: f64) {
        if cold {
            self.miss_ms.push(ms);
        } else {
            self.hit_ms.push(ms);
        }
    }

    fn len(&self) -> usize {
        self.hit_ms.len() + self.miss_ms.len()
    }
}

fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One measured unit: a figure pass or a service round.
struct Unit {
    setup_s: f64,
    wall_s: f64,
    requests: Requests,
    peak_rss_mb: f64,
    /// Multiply the unit's host times into reference-host times: the
    /// set-up and `wall_s`, and the request phase.
    scale: f64,
    request_scale: f64,
}

/// Calibration samples taken before and after each service round.
const ROUND_SAMPLES: usize = 5;

/// The untraced run: units until `--seconds` have passed (at least
/// [`MIN_UNITS`]), then every end-to-end metric. Each host time is
/// scaled by its unit's [`HostSpeed`]; `setup_s`, `wall_s`, `rps` and
/// `peak_rss_mb` are medians over the units, and the latency
/// percentiles are taken over the requests of all units together.
fn untraced(
    args: &Args,
    work: &Path,
    checks: &mut Checks,
    out: &mut Metrics,
) -> std::io::Result<()> {
    let mut off = SpanLog::new(false, Instant::now());
    let mix = Mix::new(args.seed);
    let reference = figures::references(&mix);
    let mut units = Vec::new();
    let start = Instant::now();
    while units.len() < MIN_UNITS || start.elapsed().as_secs() < args.seconds {
        reset_peak_rss();
        let unit = match args.kind {
            Kind::Percfg | Kind::Banked => {
                let pass = figures::run_pass(
                    args.kind.experiments(),
                    args.kind.engine(),
                    &mix,
                    &reference,
                    checks,
                    &mut off,
                );
                check_counts(args.kind, &pass, checks);
                Unit {
                    setup_s: pass.setup_s,
                    wall_s: pass.wall_s,
                    requests: pass.requests,
                    peak_rss_mb: peak_rss_mb(),
                    scale: pass.scale,
                    request_scale: pass.request_scale,
                }
            }
            Kind::Serve => {
                let mut speed = HostSpeed::default();
                (0..ROUND_SAMPLES).for_each(|_| speed.sample());
                let memo_dir = work.join(format!("memo-{}", units.len()));
                let round = serve::round(&memo_dir, threads(), &mix, &reference, checks, &mut off)?;
                let peak_rss_mb = peak_rss_mb();
                (0..ROUND_SAMPLES).for_each(|_| speed.sample());
                Unit {
                    setup_s: round.setup_s,
                    wall_s: round.requests.wall_s,
                    requests: round.requests,
                    peak_rss_mb,
                    scale: speed.scale(),
                    request_scale: speed.scale(),
                }
            }
        };
        units.push(unit);
    }
    let each = |f: &dyn Fn(&Unit) -> f64| median(&units.iter().map(f).collect::<Vec<_>>());
    let pool = |f: &dyn Fn(&Requests) -> &[f64]| -> Vec<f64> {
        units
            .iter()
            .flat_map(|u| f(&u.requests).iter().map(move |ms| ms * u.request_scale))
            .collect()
    };
    let (hits, misses) = (pool(&|r| &r.hit_ms), pool(&|r| &r.miss_ms));
    assert!(
        samples_beyond(hits.len(), 0.99) >= 10 && samples_beyond(misses.len(), 0.90) >= 10,
        "the mix always has enough hits and misses for p99 and p90"
    );
    out.push("setup_s", each(&|u| u.setup_s * u.scale), "s");
    out.push("peak_rss_mb", each(&|u| u.peak_rss_mb), "MB");
    out.push("wall_s", each(&|u| u.wall_s * u.scale), "s");
    out.push(
        "rps",
        each(&|u| u.requests.len() as f64 / (u.requests.wall_s * u.request_scale)),
        "1/s",
    );
    out.push("hit_p50_ms", median(&hits), "ms");
    out.push("hit_p99_ms", percentile(&hits, 0.99), "ms");
    out.push("miss_p50_ms", median(&misses), "ms");
    out.push("miss_p90_ms", percentile(&misses, 0.90), "ms");
    out.raw = vec![
        ("units", units.len() as f64),
        ("scale", each(&|u| u.scale)),
        ("setup_s", each(&|u| u.setup_s)),
        ("wall_s", each(&|u| u.wall_s)),
        (
            "rps",
            each(&|u| u.requests.len() as f64 / u.requests.wall_s),
        ),
    ];
    Ok(())
}

fn check_counts(kind: Kind, pass: &figures::Pass, checks: &mut Checks) {
    let got = (pass.sims, pass.store_hits, pass.store_misses);
    if got == kind.counts_per_pass() {
        checks.pass();
    } else {
        checks.fail(format!(
            "{} pass made (simulations, store hits, store misses) {got:?}, want {:?}",
            kind.name(),
            kind.counts_per_pass()
        ));
    }
}

/// The traced run: every per-layer metric. It surveys all layers
/// whichever workload is named, so each workload's traced run reports
/// the full set; `--workload` only names the span file.
fn traced(
    args: &Args,
    work: &Path,
    checks: &mut Checks,
    out: &mut Metrics,
    log: &mut SpanLog,
) -> std::io::Result<()> {
    let (store, record_s) = figures::record_store(log);
    out.push("trace.record_s", record_s, "s");
    layers::trace(&store, log, checks, out);
    layers::cache(&store, log, checks, out);

    let mix = Mix::new(args.seed);
    let reference = figures::references(&mix);
    let (mut sims, mut hits, mut misses) = (0, 0, 0);
    for kind in [Kind::Percfg, Kind::Banked] {
        let pass = figures::run_pass(
            kind.experiments(),
            kind.engine(),
            &mix,
            &reference,
            checks,
            log,
        );
        check_counts(kind, &pass, checks);
        sims += pass.sims;
        hits += pass.store_hits;
        misses += pass.store_misses;
        for (id, s) in pass.exp_s {
            out.push(&format!("exp.{id}_s"), s, "s");
        }
        let wall_s = pass.wall_s * pass.scale;
        out.push(&format!("traced.{}_wall_s", kind.name()), wall_s, "s");
    }
    out.push("core.sims_executed", sims as f64, "count");
    out.push("core.store_hits", hits as f64, "count");
    out.push("core.store_misses", misses as f64, "count");
    layers::buffers_and_pipeline(&store, log, out);

    let mut speed = HostSpeed::default();
    (0..ROUND_SAMPLES).for_each(|_| speed.sample());
    let round = serve::round(&work.join("memo"), threads(), &mix, &reference, checks, log)?;
    (0..ROUND_SAMPLES).for_each(|_| speed.sample());
    let wall_s = round.requests.wall_s * speed.scale();
    out.push("traced.serve_mixed_wall_s", wall_s, "s");
    for stage in ["queue", "prep", "sim", "memo"] {
        let p50 = serve::stage_p50_us(&round.snapshot, &format!("{stage}_us"));
        out.push(&format!("serve.{stage}_us_p50"), p50, "us");
    }
    out.push("serve.memo_hits", round.delta.memo_hits as f64, "count");
    out.push("serve.memo_misses", round.delta.memo_misses as f64, "count");
    out.push("serve.coalesced", round.delta.coalesced as f64, "count");
    layers::serve_parts(&store, &mix, &round.responses, work, log, checks, out);
    Ok(())
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    /// glibc: returns the allocator's free memory to the system.
    fn malloc_trim(pad: usize) -> std::os::raw::c_int;
}

/// Returns the memory earlier units freed to the system, then resets
/// the process's peak resident set (VmHWM) to its current resident
/// set, so each unit's peak is its own and starts from the same base.
fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: malloc_trim only releases free heap pages; no Rust
    // object is touched.
    unsafe {
        malloc_trim(0);
    }
    // Without the reset the peak is the run's so far, which only grows.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The process's peak resident set (VmHWM) since the last reset, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unavailable".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// FNV-1a over every file under `crates/` and the root manifests, in
/// path order: identifies the source when the checkout has no git
/// metadata.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for file in files {
        bytes.extend(file.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(&file).unwrap_or_default());
    }
    format!("{:016x}", stats::fnv1a(&bytes))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: --workload figures_percfg|figures_banked|serve_mixed \
                 --seed N [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(".bench_work");
    let work = root.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let mut checks = Checks::default();
    let mut metrics = Metrics::default();
    let mut log = SpanLog::new(args.trace, Instant::now());
    let ran = if args.trace {
        traced(&args, &work, &mut checks, &mut metrics, &mut log)
    } else {
        untraced(&args, &work, &mut checks, &mut metrics)
    };
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = ran {
        eprintln!("perfbench: {} set-up failed: {e}", args.kind.name());
        return ExitCode::FAILURE;
    }
    if args.trace {
        metrics.push("trace.spans", log.len() as f64, "count");
        let dir = root.join("spans");
        let path = dir.join(format!("{}-seed{}.jsonl", args.kind.name(), args.seed));
        if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| log.write(&path)) {
            checks.fail(format!("cannot write spans to {}: {e}", path.display()));
        }
    }

    let failed = checks.failures.len() as u64;
    let host = Json::Obj(vec![
        ("nproc".into(), Json::UInt(threads() as u64)),
        ("rustc".into(), Json::Str(command_line("rustc", &["-V"]))),
        (
            "git_rev".into(),
            Json::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("source_digest".into(), Json::Str(source_digest())),
        (
            "scale".into(),
            Json::Str(format!("{SCALE:?}").to_lowercase()),
        ),
    ]);
    let run = Json::Obj(vec![
        ("workload".into(), Json::Str(args.kind.name().into())),
        ("seed".into(), Json::UInt(args.seed)),
        ("seconds".into(), Json::UInt(args.seconds)),
        ("trace".into(), Json::Bool(args.trace)),
        (
            "raw".into(),
            Json::Obj(
                metrics
                    .raw
                    .iter()
                    .map(|(name, value)| (name.to_string(), Json::Num(*value)))
                    .collect(),
            ),
        ),
        (
            "failed_frac".into(),
            Json::Num(failed as f64 / checks.attempted.max(1) as f64),
        ),
        (
            "failures".into(),
            Json::Arr(
                checks
                    .failures
                    .iter()
                    .map(|f| Json::Str(f.clone()))
                    .collect(),
            ),
        ),
    ]);
    for (name, value, unit) in &metrics.values {
        println!("{name:32} {value:>16.6} {unit}");
    }
    let mut line = String::new();
    Json::Obj(vec![("host".into(), host), ("run".into(), run)]).write(&mut line);
    println!("{line}");
    let metrics_json = Json::Obj(
        metrics
            .values
            .iter()
            .map(|(name, value, unit)| {
                let entry = Json::obj([
                    ("value", Json::Num(*value)),
                    ("unit", Json::Str((*unit).into())),
                ]);
                (name.clone(), entry)
            })
            .collect(),
    );
    let mut line = String::new();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(failed == 0)),
        ("attempted".into(), Json::UInt(checks.attempted)),
        ("failed".into(), Json::UInt(failed)),
        ("metrics".into(), metrics_json),
    ])
    .write(&mut line);
    println!("{line}");
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
