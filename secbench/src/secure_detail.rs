//! `secure_detail`: serial full-detail single-core cells, secure and
//! non-secure, over a seeded GAP BC graph and a streaming SPEC-like trace.

use crate::checks::check_full;
use crate::hostspeed::{self, HostProbe};
use crate::spans::span;
use crate::{ipc_ci_half_pct, Batch, Workload};
use secpref_bench::configs::{nonsecure_nopref, on_commit_suf, timely_secure_suf};
use secpref_sim::{ProfileReport, SimReport, System};
use secpref_trace::gen::gap::GapKernel;
use secpref_trace::suite::{cached_trace, GapGenerator};
use secpref_trace::{Trace, TraceGenerator};
use secpref_types::{PrefetcherKind, SystemConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Warm-up window per cell, in instructions.
const WARMUP: u64 = 20_000;
/// Measured window per cell, in instructions.
const MEASURE: u64 = 80_000;
/// Vertices and average degree of the suite's `bc_large` graph.
const BC_VERTICES: usize = 360_000;
const BC_DEGREE: usize = 12;

pub struct SecureDetail {
    traces: Vec<Arc<Trace>>,
    configs: Vec<(&'static str, SystemConfig)>,
    probe: HostProbe,
}

/// Builds the BC graph from `seed` and generates both traces.
pub fn setup(seed: u64) -> SecureDetail {
    let n = (WARMUP + MEASURE) as usize;
    let bc = span("trace.gap_generate", || {
        GapGenerator::new("bc_large", GapKernel::Bc, BC_VERTICES, BC_DEGREE, seed).generate(n)
    });
    let bwaves = span("trace.cached_trace", || cached_trace("bwaves_like", n));
    SecureDetail {
        traces: vec![Arc::new(bc), bwaves],
        configs: vec![
            ("nonsecure-nopf", nonsecure_nopref()),
            (
                "gm-suf-ipstride-commit",
                on_commit_suf(PrefetcherKind::IpStride),
            ),
            ("gm-suf-berti-commit", on_commit_suf(PrefetcherKind::Berti)),
            ("tsb-suf-berti", timely_secure_suf(PrefetcherKind::Berti)),
        ],
        probe: HostProbe::default(),
    }
}

/// Runs one cell; with `profile`, also returns its phase profile.
fn run_cell(cfg: &SystemConfig, trace: &Arc<Trace>, profile: bool) -> (SimReport, ProfileReport) {
    let sys = span("sim.new", || System::new(cfg.clone(), vec![trace.clone()]));
    let mut sys = span("sim.with_window", || sys.with_window(WARMUP, MEASURE));
    if profile {
        sys = span("sim.with_profiling", || sys.with_profiling());
    }
    span("sim.run", || sys.run());
    let report = span("sim.report", || sys.report());
    let phases = if profile {
        span("sim.profile_report", || sys.profile_report())
    } else {
        ProfileReport::empty()
    };
    (report, phases)
}

impl Workload for SecureDetail {
    fn batch(&mut self, traced: bool) -> Batch {
        let mut batch = Batch::default();
        let mut ipcs = Vec::new();
        let t = Instant::now();
        for trace in &self.traces {
            for (label, cfg) in &self.configs {
                batch.attempted += 1;
                let (out, wall, slowdown) = hostspeed::timed(&mut self.probe, || {
                    catch_unwind(AssertUnwindSafe(|| {
                        span("bench.cell", || run_cell(cfg, trace, traced))
                    }))
                });
                let secs = wall.as_secs_f64() / slowdown;
                batch.op_times.push(secs);
                batch.slowdowns.push(slowdown);
                let name = format!("sim.cell.{label}.{}.instr_per_s", trace.name);
                batch.rates.push((name, (WARMUP + MEASURE) as f64 / secs));
                let Ok((report, phases)) = out else {
                    eprintln!("secure_detail: {label} x {} panicked", trace.name);
                    batch.failed += 1;
                    continue;
                };
                let violations = check_full(cfg, &report, MEASURE);
                if !violations.is_empty() {
                    batch.failed += 1;
                    eprintln!(
                        "secure_detail: {label} x {}: {}",
                        trace.name,
                        violations.join("; ")
                    );
                }
                ipcs.push(report.ipc());
                batch.digest.add(&report);
                batch.counts.add(&report);
                batch.profile.merge(&phases);
            }
        }
        batch.wall = t.elapsed();
        batch.time = batch.op_times.iter().sum();
        batch.ipc_ci_half_pct = ipc_ci_half_pct(&ipcs);
        batch
    }
}
