//! `secbench`: the repository benchmark.
//!
//! ```text
//! secbench --workload <figure_sweep|secure_detail|sampled_stream>
//!          [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Sets the workload up from its seed, runs closed batches of its
//! operations for `S` seconds, checks every operation's report, and prints
//! one JSON object as the last line of standard output. With `--trace 0` it
//! reports the end-to-end metrics; with `--trace 1` it runs the same batches
//! untraced, then one more traced (spans and the simulator's phase profiler
//! on), and reports the per-layer metrics plus the tracing overhead. Times
//! are host-normalized (see `hostspeed`). See `README.md` for the workloads
//! and metric definitions.

mod checks;
mod figure_sweep;
mod hostspeed;
mod sampled_stream;
mod secure_detail;
mod spans;

use checks::{Digest, SimCounts};
use hostspeed::HostProbe;
use secpref_sim::{MetricStats, ProfileReport};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

/// Metric values by name.
pub type Metrics = BTreeMap<String, f64>;

/// End-to-end metrics, reported by every workload with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sim_instr_per_s", "1/s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p95_ms", "ms"),
    ("ipc_ci_half_pct", "%"),
];

/// Per-layer metrics, reported by every workload with `--trace 1` (zero
/// where the workload does not exercise the layer).
const PER_LAYER: &[(&str, &str)] = &[
    ("trace.gen_s", "s"),
    ("tracestore.capture_s", "s"),
    ("tracestore.capture_mb", "MiB"),
    ("tracestore.decode_instr_per_s", "1/s"),
    ("tracestore.chunk_decodes", "count"),
    ("tracestore.cache_hits", "count"),
    ("exp.run_all_s", "s"),
    ("exp.job_busy_s", "s"),
    ("exp.utilization", "ratio"),
    ("exp.store_mb", "MiB"),
    ("exp.store_resume_s", "s"),
    ("sim.phase.core_s", "s"),
    ("sim.phase.core_enters", "count"),
    ("sim.phase.l1d_s", "s"),
    ("sim.phase.l1d_enters", "count"),
    ("sim.phase.l2_s", "s"),
    ("sim.phase.l2_enters", "count"),
    ("sim.phase.llc_s", "s"),
    ("sim.phase.llc_enters", "count"),
    ("sim.phase.gm_s", "s"),
    ("sim.phase.gm_enters", "count"),
    ("sim.phase.prefetcher_s", "s"),
    ("sim.phase.prefetcher_enters", "count"),
    ("sim.phase.dram_s", "s"),
    ("sim.phase.dram_enters", "count"),
    ("sim.phase.classifier_s", "s"),
    ("sim.phase.classifier_enters", "count"),
    ("sim.phase.funcwarm_s", "s"),
    ("sim.phase.funcwarm_enters", "count"),
    ("sim.phase.other_s", "s"),
    ("sim.phase.other_enters", "count"),
    ("sim.cell.nonsecure-nopf.bc_large.instr_per_s", "1/s"),
    (
        "sim.cell.gm-suf-ipstride-commit.bc_large.instr_per_s",
        "1/s",
    ),
    ("sim.cell.gm-suf-berti-commit.bc_large.instr_per_s", "1/s"),
    ("sim.cell.tsb-suf-berti.bc_large.instr_per_s", "1/s"),
    ("sim.cell.nonsecure-nopf.bwaves_like.instr_per_s", "1/s"),
    (
        "sim.cell.gm-suf-ipstride-commit.bwaves_like.instr_per_s",
        "1/s",
    ),
    (
        "sim.cell.gm-suf-berti-commit.bwaves_like.instr_per_s",
        "1/s",
    ),
    ("sim.cell.tsb-suf-berti.bwaves_like.instr_per_s", "1/s"),
    ("cpu.ipc", "ratio"),
    ("cpu.wrong_path_loads", "count"),
    ("mem.l1d.mpki", "1/kinstr"),
    ("mem.l2.mpki", "1/kinstr"),
    ("mem.llc.mpki", "1/kinstr"),
    ("mem.l1d.mshr_full_stalls", "count"),
    ("mem.l1d.port_stalls", "count"),
    ("mem.dram.row_hit_rate", "ratio"),
    ("ghostminion.gm_accesses", "count"),
    ("ghostminion.commit_writes", "count"),
    ("ghostminion.refetches", "count"),
    ("core.suf_dropped", "count"),
    ("core.suf_accuracy", "ratio"),
    ("prefetch.issued", "count"),
    ("prefetch.accuracy", "ratio"),
    ("prefetch.late", "count"),
    ("sim.sampled.windows", "count"),
    ("check.useless_over_issued_ops", "count"),
    ("bench.host_slowdown", "ratio"),
    ("bench.trace_overhead_s", "s"),
    ("bench.trace_overhead_pct", "%"),
];

/// Set-ups per run (this process plus child processes); `setup_s` is
/// their median.
const SETUP_REPEATS: usize = 5;

/// One closed batch of a workload's operations.
pub struct Batch {
    /// Wall time of the whole batch.
    pub wall: Duration,
    /// Host-normalized time the batch's operations took together, in
    /// seconds: their sum when they run one after another, the batch's
    /// normalized wall time when they run in parallel.
    pub time: f64,
    /// Host-normalized time of each operation, in seconds.
    pub op_times: Vec<f64>,
    /// Host slowdown measured around each operation (or the batch).
    pub slowdowns: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub digest: Digest,
    pub counts: SimCounts,
    /// Simulated instructions per host-normalized second, per rate cell.
    pub rates: Vec<(String, f64)>,
    /// 95% CI half-width of IPC as a percentage of IPC.
    pub ipc_ci_half_pct: f64,
    /// Phase profile, merged over the batch (traced batches only).
    pub profile: ProfileReport,
    /// Layer metrics the batch measured itself (traced batches only).
    pub layer: Metrics,
}

impl Default for Batch {
    fn default() -> Self {
        Batch {
            wall: Duration::ZERO,
            time: 0.0,
            op_times: Vec::new(),
            slowdowns: Vec::new(),
            attempted: 0,
            failed: 0,
            digest: Digest::default(),
            counts: SimCounts::default(),
            rates: Vec::new(),
            ipc_ci_half_pct: 0.0,
            profile: ProfileReport::empty(),
            layer: Metrics::new(),
        }
    }
}

/// The 95% CI half-width of mean IPC over `ipcs`, as a percentage.
pub fn ipc_ci_half_pct(ipcs: &[f64]) -> f64 {
    let s = MetricStats::from_samples(ipcs);
    100.0 * s.ci_half / s.mean
}

pub trait Workload {
    /// Runs one batch; `traced` turns the phase profiler on.
    fn batch(&mut self, traced: bool) -> Batch;

    /// Runs after the batches: extra layer metrics, and failures of
    /// whole-workload checks, which compare against `reference`.
    fn after(&mut self, _reference: &Batch, _traced: bool) -> (Metrics, Vec<String>) {
        (Metrics::new(), Vec::new())
    }
}

const WORKLOADS: &[&str] = &["figure_sweep", "secure_detail", "sampled_stream"];

fn setup(workload: &str, seed: u64, dir: &Path) -> std::io::Result<Box<dyn Workload>> {
    std::fs::create_dir_all(dir)?;
    Ok(match workload {
        "figure_sweep" => Box::new(figure_sweep::setup(seed, dir)?),
        "secure_detail" => Box::new(secure_detail::setup(seed)),
        "sampled_stream" => Box::new(sampled_stream::setup(seed, dir)?),
        other => unreachable!("workload {other} was validated"),
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    setup_only: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 36,
        trace: false,
        setup_only: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            // Internal: time one set-up in this process and exit.
            "--setup-only" => args.setup_only = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("secbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(dir) = &args.setup_only {
        let (out, secs) = timed_setup(&args, dir);
        let out = out.map(drop);
        let _ = std::fs::remove_dir_all(dir);
        return match out {
            Ok(()) => {
                println!("setup_s={secs}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("secbench: set-up failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("secbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let work = Path::new(".secbench_work").join(&args.workload);
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let budget = Duration::from_secs(args.seconds);

    let mut failures: Vec<String> = Vec::new();
    let mut metrics = Metrics::new();
    let mut batches: Vec<Batch> = Vec::new();
    if args.trace {
        spans::start();
        let mut w = setup(&args.workload, args.seed, &work).map_err(|e| format!("set-up: {e}"))?;
        spans::pause(true);
        let untraced = timed_batches(w.as_mut(), budget);
        spans::pause(false);
        let traced = w.batch(true);
        let (extra, fails) = w.after(&traced, true);
        failures.extend(fails);
        metrics.extend(extra);
        metrics.extend(layer_metrics(&untraced, &traced));
        let json = spans::finish().expect("span recording was started");
        match secpref_exp::validate_trace_json(&json) {
            Ok(stats) => println!("spans: {} events, written to trace.json", stats.events),
            Err(e) => failures.push(format!("span trace does not validate: {e}")),
        }
        std::fs::write(work.join("trace.json"), json).map_err(|e| format!("trace.json: {e}"))?;
        batches.extend(untraced);
        batches.push(traced);
    } else {
        let mut walls = setup_in_children(args, &work)?;
        let (w, secs) = timed_setup(args, &work);
        let mut w = w.map_err(|e| format!("set-up: {e}"))?;
        walls.push(secs);
        batches = timed_batches(w.as_mut(), budget);
        let (_, fails) = w.after(&batches[0], false);
        failures.extend(fails);
        metrics.insert("setup_s".into(), median(&mut walls));
        metrics.insert("peak_rss_mb".into(), peak_rss_mib());
        metrics.extend(end_to_end_metrics(&batches));
    }
    for b in &batches[1..] {
        if b.digest != batches[0].digest || b.counts != batches[0].counts {
            failures.push("a batch's reports differ from the first batch's".to_string());
        }
    }
    let attempted: u64 = batches.iter().map(|r| r.attempted).sum();
    let failed: u64 = batches.iter().map(|r| r.failed).sum();
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    for name in metrics.keys() {
        assert!(
            table.iter().any(|(n, _)| n == name),
            "metric {name} is not declared"
        );
    }
    for (name, _) in table {
        let v = metrics.entry(name.to_string()).or_insert(0.0);
        if !v.is_finite() {
            failures.push(format!("metric {name} is {v}"));
            *v = 0.0;
        }
    }
    for f in &failures {
        eprintln!("secbench: check failed: {f}");
    }
    let correct = failed == 0 && failures.is_empty();

    println!(
        "{} seed={} trace={} batches={} attempted={attempted} failed={failed} sim_digest={}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        batches.len(),
        batches[0].digest,
    );
    let mut fields = Vec::new();
    for (name, unit) in table {
        let v = metrics[*name];
        println!("  {name:<58} {v:>16.6} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    );
    let record = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"sim_digest\": \"{}\", \"result\": {result}}}\n",
        args.workload, args.seed, batches[0].digest
    );
    std::fs::write(work.join("result.json"), record).map_err(|e| format!("result.json: {e}"))?;
    println!("{result}");
    Ok(())
}

/// Runs untraced batches until the next one would end past `budget` (at
/// least one).
fn timed_batches(w: &mut dyn Workload, budget: Duration) -> Vec<Batch> {
    let start = Instant::now();
    let mut batches = Vec::new();
    loop {
        let r = w.batch(false);
        let last = r.wall;
        let mut slowdowns = r.slowdowns.clone();
        eprintln!(
            "batch {}: {:.3} s wall, {:.3} s host-normalized, host slowdown {:.3}",
            batches.len(),
            last.as_secs_f64(),
            r.time,
            median(&mut slowdowns)
        );
        batches.push(r);
        if start.elapsed() + last > budget {
            return batches;
        }
    }
}

/// Sets the workload up in `dir`; returns it and the set-up's
/// host-normalized time in seconds.
fn timed_setup(args: &Args, dir: &Path) -> (std::io::Result<Box<dyn Workload>>, f64) {
    let mut probe = HostProbe::default();
    let (out, wall, slowdown) =
        hostspeed::timed(&mut probe, || setup(&args.workload, args.seed, dir));
    (out, wall.as_secs_f64() / slowdown)
}

/// Times `SETUP_REPEATS - 1` set-ups, each in a fresh child process (the
/// trace and graph caches are per process, so an in-process repeat would
/// time cache hits).
fn setup_in_children(args: &Args, work: &Path) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating secbench: {e}"))?;
    let mut walls = Vec::new();
    for k in 1..SETUP_REPEATS {
        let dir = work.join(format!("setup-{k}"));
        let out = Command::new(&exe)
            .args(["--workload", &args.workload])
            .args(["--seed", &args.seed.to_string()])
            .arg("--setup-only")
            .arg(&dir)
            .output()
            .map_err(|e| format!("set-up child: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let secs = stdout
            .lines()
            .find_map(|l| l.strip_prefix("setup_s="))
            .and_then(|v| v.parse::<f64>().ok())
            .filter(|_| out.status.success())
            .ok_or_else(|| {
                format!(
                    "set-up child failed: {}",
                    String::from_utf8_lossy(&out.stderr)
                )
            })?;
        walls.push(secs);
    }
    Ok(walls)
}

/// End-to-end metrics over the run's batches, from host-normalized times:
/// each operation counts with its median time over the batches, and each
/// rate cell with its median rate.
fn end_to_end_metrics(batches: &[Batch]) -> Metrics {
    let mut op_ms: Vec<f64> = (0..batches[0].op_times.len())
        .map(|i| 1e3 * median_over(batches, |b| b.op_times.get(i).copied()))
        .collect();
    let batch_s = median_over(batches, |b| Some(b.time));
    Metrics::from([
        ("sim_instr_per_s".into(), geomean(&median_rates(batches))),
        ("jobs_per_s".into(), op_ms.len() as f64 / batch_s),
        ("job_p50_ms".into(), quantile(&mut op_ms, 0.50)),
        ("job_p95_ms".into(), quantile(&mut op_ms, 0.95)),
        ("ipc_ci_half_pct".into(), batches[0].ipc_ci_half_pct),
    ])
}

/// The median over the batches of `f`'s value (batches without one skipped).
fn median_over(batches: &[Batch], f: impl Fn(&Batch) -> Option<f64>) -> f64 {
    median(&mut batches.iter().filter_map(f).collect::<Vec<_>>())
}

/// Each rate cell's median rate over the batches, in cell order.
fn median_rates(batches: &[Batch]) -> Vec<f64> {
    (0..batches[0].rates.len())
        .map(|c| median_over(batches, |b| b.rates.get(c).map(|r| r.1)))
        .collect()
}

fn geomean(v: &[f64]) -> f64 {
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// Per-layer metrics: layer counters and the phase profile from the
/// traced batch, cell rates (median over batches) and the host slowdown
/// from the untraced ones, and the tracing overhead (traced batch minus the
/// median untraced one, in host-normalized time).
fn layer_metrics(untraced: &[Batch], traced: &Batch) -> Metrics {
    let mut m = traced.layer.clone();
    let gen = spans::total("trace.cached_trace") + spans::total("trace.gap_generate");
    m.insert("trace.gen_s".into(), gen.as_secs_f64());
    for row in &traced.profile.rows {
        let p = row.phase.name();
        m.insert(format!("sim.phase.{p}_s"), row.time.as_secs_f64());
        m.insert(format!("sim.phase.{p}_enters"), row.enters as f64);
    }
    for ((name, _), rate) in untraced[0].rates.iter().zip(median_rates(untraced)) {
        if name.starts_with("sim.cell.") {
            m.insert(name.clone(), rate);
        }
    }
    for (name, v) in untraced[0].counts.metrics() {
        m.insert(name.to_string(), v);
    }
    let mut slowdowns: Vec<f64> = untraced.iter().flat_map(|b| b.slowdowns.clone()).collect();
    m.insert("bench.host_slowdown".into(), median(&mut slowdowns));
    let (u, t) = (median_over(untraced, |b| Some(b.time)), traced.time);
    m.insert("bench.trace_overhead_s".into(), t - u);
    m.insert("bench.trace_overhead_pct".into(), 100.0 * (t - u) / u);
    m
}

fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolation quantile (`q` in 0..=1); 0 for an empty sample.
fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Total size of the files under `dir`, in MiB.
pub fn dir_mib(dir: &Path) -> f64 {
    let bytes: u64 = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|e| e.metadata().ok())
        .filter(|m| m.is_file())
        .map(|m| m.len())
        .sum();
    bytes as f64 / (1u64 << 20) as f64
}
