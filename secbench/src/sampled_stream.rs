//! `sampled_stream`: SMARTS sampled mode over a long `mcf_like_a` trace
//! streamed from an on-disk `.sct` chunk store.

use crate::checks::check_sampled;
use crate::hostspeed::{self, HostProbe};
use crate::spans::span;
use crate::{Batch, Metrics, Workload};
use secpref_bench::configs::on_commit_suf;
use secpref_sim::{ProfileReport, SamplingConfig, SimReport, System};
use secpref_trace::suite::trace_by_name;
use secpref_tracestore::{CaptureSink, StreamFeed, TraceFeed, TraceWriter, DEFAULT_CHUNK_SIZE};
use secpref_types::{PrefetcherKind, SystemConfig};
use std::fs::File;
use std::io::{self, BufWriter};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

const TRACE: &str = "mcf_like_a";
/// Captured instructions: many times the feed's 512Ki-instruction
/// decoded-chunk replay cache, so decode is paid on every pass.
const CAPTURE: usize = 10_000_000;
/// Functional warm-up before the sampled span, in instructions.
const WARMUP: u64 = 10_000;
/// Nominal sampled span, in instructions: two passes over the capture,
/// about 100 windows. A run is about 3 s, so a timed run gets about ten of
/// them and counts the median.
const SPAN: u64 = 20_000_000;

pub struct SampledStream {
    run: SampledRun,
    capture_s: f64,
    probe: HostProbe,
}

/// What one sampled run needs: the store, the system and the plan.
struct SampledRun {
    path: PathBuf,
    cfg: SystemConfig,
    plan: SamplingConfig,
}

/// Captures the trace to `dir` through the streaming path (the trace is
/// never materialised) and fixes the sampling plan's jitter seed.
pub fn setup(seed: u64, dir: &Path) -> io::Result<SampledStream> {
    let path = dir.join(format!("{TRACE}.sct"));
    let t = Instant::now();
    span("tracestore.capture", || -> io::Result<()> {
        let generator = trace_by_name(TRACE).expect("mcf_like_a is a suite trace");
        let writer = TraceWriter::create(
            BufWriter::new(File::create(&path)?),
            TRACE,
            DEFAULT_CHUNK_SIZE,
        )?;
        let mut sink = CaptureSink::new(writer, CAPTURE);
        generator.generate_into(&mut sink);
        let (meta, _) = sink.finish()?;
        if meta.n_instr != CAPTURE as u64 {
            return Err(io::Error::other(format!(
                "captured {} of {CAPTURE} instructions",
                meta.n_instr
            )));
        }
        Ok(())
    })?;
    Ok(SampledStream {
        run: SampledRun {
            path,
            cfg: on_commit_suf(PrefetcherKind::IpStride),
            // simbench's plan shape: 2000-instruction windows after a
            // 500-instruction detailed warm slice, every ~200k instructions.
            plan: SamplingConfig::new(2_000, 500, 197_500).with_jitter(300, seed),
        },
        capture_s: t.elapsed().as_secs_f64(),
        probe: HostProbe::default(),
    })
}

impl SampledRun {
    /// One sampled run streamed from the store: the report, its phase
    /// profile (with `profile`) and the feed's (decodes, cache hits).
    fn run(&self, profile: bool) -> io::Result<(SimReport, ProfileReport, (u64, u64))> {
        let feed = span("tracestore.stream_open", || {
            StreamFeed::open_for_core(&self.path, self.cfg.core.rob_entries)
        })?;
        let sys = span("sim.from_feeds", || {
            System::from_feeds(self.cfg.clone(), vec![TraceFeed::Stream(Box::new(feed))])
        });
        let mut sys = span("sim.with_window", || sys.with_window(WARMUP, SPAN));
        if profile {
            sys = span("sim.with_profiling", || sys.with_profiling());
        }
        span("sim.run_sampled", || sys.run_sampled(&self.plan));
        let report = span("sim.report", || sys.report());
        let phases = if profile {
            span("sim.profile_report", || sys.profile_report())
        } else {
            ProfileReport::empty()
        };
        let stats = span("sim.feed_stats", || sys.feed_stats(0))
            .map_or((0, 0), |s| (s.decodes(), s.hits()));
        Ok((report, phases, stats))
    }

    /// Sequential scan of the whole store through a production-shaped
    /// feed, with no simulator attached: decoded instructions per second.
    fn decode_rate(&self) -> io::Result<f64> {
        let t = Instant::now();
        let mut feed = StreamFeed::open_for_core(&self.path, self.cfg.core.rob_entries)?;
        let mut acc = 0u64;
        for i in 0..feed.len() {
            acc ^= feed.get(i).ip.raw();
        }
        std::hint::black_box(acc);
        Ok(feed.len() as f64 / t.elapsed().as_secs_f64())
    }
}

impl Workload for SampledStream {
    fn batch(&mut self, traced: bool) -> Batch {
        let mut batch = Batch {
            attempted: 1,
            ..Batch::default()
        };
        let run = &self.run;
        let (out, wall, slowdown) = hostspeed::timed(&mut self.probe, || {
            catch_unwind(AssertUnwindSafe(|| {
                span("bench.sampled_run", || run.run(traced))
            }))
        });
        batch.wall = wall;
        batch.time = wall.as_secs_f64() / slowdown;
        batch.op_times.push(batch.time);
        batch.slowdowns.push(slowdown);
        batch
            .rates
            .push(("sampled".to_string(), (WARMUP + SPAN) as f64 / batch.time));
        let (report, phases, (decodes, hits)) = match out {
            Ok(Ok(out)) => out,
            Ok(Err(e)) => {
                eprintln!("sampled_stream: {e}");
                batch.failed = 1;
                return batch;
            }
            Err(_) => {
                eprintln!("sampled_stream: the sampled run panicked");
                batch.failed = 1;
                return batch;
            }
        };
        let violations = check_sampled(&self.run.cfg, &report);
        if !violations.is_empty() {
            batch.failed = 1;
            eprintln!("sampled_stream: {}", violations.join("; "));
        }
        if let Some(s) = &report.sampling {
            batch.ipc_ci_half_pct = 100.0 * s.ipc.ci_half / s.ipc.mean;
        }
        batch.digest.add(&report);
        batch.counts.add(&report);
        batch.profile = phases;
        if traced {
            let size = std::fs::metadata(&self.run.path).map_or(0, |m| m.len());
            batch.layer = Metrics::from([
                ("tracestore.chunk_decodes".to_string(), decodes as f64),
                ("tracestore.cache_hits".to_string(), hits as f64),
                ("tracestore.capture_s".to_string(), self.capture_s),
                (
                    "tracestore.capture_mb".to_string(),
                    size as f64 / (1u64 << 20) as f64,
                ),
            ]);
        }
        batch
    }

    fn after(&mut self, _reference: &Batch, traced: bool) -> (Metrics, Vec<String>) {
        if !traced {
            return (Metrics::new(), Vec::new());
        }
        match span("tracestore.decode_scan", || self.run.decode_rate()) {
            Ok(rate) => (
                Metrics::from([("tracestore.decode_instr_per_s".to_string(), rate)]),
                Vec::new(),
            ),
            Err(e) => (Metrics::new(), vec![format!("decode scan: {e}")]),
        }
    }
}
