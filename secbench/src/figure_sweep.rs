//! `figure_sweep`: the Fig. 1 job set at quick scale, run through the
//! experiment engine on a fresh store — what `repro --quick fig1` runs.

use crate::checks::{check_full, Digest, SimCounts};
use crate::hostspeed;
use crate::spans::span;
use crate::{dir_mib, ipc_ci_half_pct, Batch, Metrics, Workload};
use secpref_bench::configs::full_suite;
use secpref_bench::sweep::jobs_for;
use secpref_exp::{Engine, ExpScale, JobSpec, ResultSource, RunSummary};
use secpref_sim::SimReport;
use secpref_trace::suite::cached_trace;
use secpref_types::rng::Xoshiro256ss;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Engine workers: the host's two cores.
const WORKERS: usize = 2;
const SCALE: ExpScale = ExpScale::Quick;
/// How often the host probe samples while the sweep runs.
const PROBE_PERIOD: Duration = Duration::from_millis(200);

pub struct FigureSweep {
    /// Jobs in submission order (a seeded shuffle of `jobs_for` order).
    jobs: Vec<JobSpec>,
    /// `order[k]` is the `jobs_for` index of submitted job `k`.
    order: Vec<usize>,
    dir: PathBuf,
    batches: usize,
    /// Store of the last batch, for the resume check.
    last_store: Option<PathBuf>,
}

/// Generates the sweep's traces and shuffles its jobs.
pub fn setup(seed: u64, dir: &Path) -> io::Result<FigureSweep> {
    let jobs = span("exp.jobs_for", || jobs_for("fig1", SCALE, 0));
    for name in full_suite() {
        span("trace.cached_trace", || {
            cached_trace(&name, SCALE.trace_len())
        });
    }
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    let mut rng = Xoshiro256ss::seed_from_u64(seed);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_index(i + 1));
    }
    let jobs = order.iter().map(|&i| jobs[i].clone()).collect();
    // The first batch's store is created here, so its cost lands in set-up.
    let sweep = FigureSweep {
        jobs,
        order,
        dir: dir.to_path_buf(),
        batches: 0,
        last_store: None,
    };
    Engine::new(sweep.store(0), WORKERS)?;
    Ok(sweep)
}

impl FigureSweep {
    fn store(&self, batch: usize) -> PathBuf {
        self.dir.join(format!("store-{batch}"))
    }

    /// Checks every report and folds them into the digest and counts in
    /// `jobs_for` order, whatever the submission order was.
    fn check(&self, reports: &[SimReport], batch: &mut Batch) {
        let mut by_index: Vec<(usize, &SimReport, &JobSpec)> = self
            .order
            .iter()
            .zip(reports.iter().zip(&self.jobs))
            .map(|(&i, (r, j))| (i, r, j))
            .collect();
        by_index.sort_by_key(|e| e.0);
        let mut ipcs = Vec::new();
        for (_, report, job) in by_index {
            ipcs.push(report.ipc());
            let violations = check_full(&job.cfg, report, job.window().1);
            if !violations.is_empty() {
                batch.failed += 1;
                eprintln!("figure_sweep: {}: {}", job.label(), violations.join("; "));
            }
            batch.digest.add(report);
            batch.counts.add(report);
        }
        batch.ipc_ci_half_pct = ipc_ci_half_pct(&ipcs);
    }

    fn run_all(&self, engine: &Engine) -> Option<(Vec<SimReport>, RunSummary)> {
        let run = catch_unwind(AssertUnwindSafe(|| {
            span("exp.run_all", || engine.run_all_with_summary(&self.jobs))
        }));
        run.ok()
    }
}

impl Workload for FigureSweep {
    fn batch(&mut self, traced: bool) -> Batch {
        let store = self.store(self.batches);
        self.batches += 1;
        let engine = Engine::new(&store, WORKERS).expect("creating the sweep's result store");
        let ((out, wall), slowdown) = hostspeed::sample_during(PROBE_PERIOD, || {
            let t = Instant::now();
            (self.run_all(&engine), t.elapsed())
        });
        let mut batch = Batch {
            wall,
            time: wall.as_secs_f64() / slowdown,
            slowdowns: vec![slowdown],
            attempted: self.jobs.len() as u64,
            digest: Digest::default(),
            counts: SimCounts::default(),
            ..Batch::default()
        };
        let Some((reports, summary)) = out else {
            eprintln!("figure_sweep: the sweep panicked; counting every job as failed");
            batch.failed = batch.attempted;
            return batch;
        };
        self.check(&reports, &mut batch);
        if summary.executed != self.jobs.len() {
            eprintln!(
                "figure_sweep: {} of {} jobs executed on a fresh store",
                summary.executed,
                self.jobs.len()
            );
            batch.failed += (self.jobs.len() - summary.executed.min(self.jobs.len())) as u64;
        }
        let walls: Vec<Duration> = summary
            .jobs
            .iter()
            .filter(|j| j.source == ResultSource::Ran)
            .map(|j| j.wall)
            .collect();
        batch.op_times = walls.iter().map(|w| w.as_secs_f64() / slowdown).collect();
        let instrs: u64 = self
            .jobs
            .iter()
            .map(|j| {
                let (w, m) = j.window();
                w + m
            })
            .sum();
        batch.rates = vec![("sweep".to_string(), instrs as f64 / batch.time)];
        if traced {
            let busy: Duration = walls.iter().sum();
            batch.layer = Metrics::from([
                ("exp.run_all_s".to_string(), summary.wall.as_secs_f64()),
                ("exp.job_busy_s".to_string(), busy.as_secs_f64()),
                ("exp.utilization".to_string(), summary.utilization),
                ("exp.store_mb".to_string(), dir_mib(&store)),
            ]);
        }
        self.last_store = Some(store);
        batch
    }

    /// Re-runs the sweep on the last batch's warm store from a new engine:
    /// every job must come from the store, with the same reports.
    fn after(&mut self, reference: &Batch, _traced: bool) -> (Metrics, Vec<String>) {
        let mut failures = Vec::new();
        let Some(store) = self.last_store.clone() else {
            return (Metrics::new(), failures);
        };
        let engine = Engine::new(&store, WORKERS).expect("reopening the sweep's result store");
        let t = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| {
            span("exp.store_resume", || {
                engine.run_all_with_summary(&self.jobs)
            })
        }));
        let resume_s = t.elapsed().as_secs_f64();
        match out {
            Ok((reports, summary)) => {
                if summary.from_store != self.jobs.len() {
                    failures.push(format!(
                        "resume served {} of {} jobs from the store",
                        summary.from_store,
                        self.jobs.len()
                    ));
                }
                let mut resumed = Batch::default();
                self.check(&reports, &mut resumed);
                if resumed.digest != reference.digest {
                    failures.push("reports read back from the store differ".to_string());
                }
            }
            Err(_) => failures.push("resuming from the store panicked".to_string()),
        }
        (
            Metrics::from([("exp.store_resume_s".to_string(), resume_s)]),
            failures,
        )
    }
}
