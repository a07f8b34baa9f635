//! Output checks, the simulation digest and the simulated counts.
//!
//! Every operation (a sweep job, a detail cell, a sampled run) is checked
//! on its own report. The checks are properties any correct report has;
//! none of them pins a simulated value, so a change to the modelled
//! design does not fail them.

use secpref_exp::codec::report_to_string;
use secpref_sim::SimReport;
use secpref_tracestore::fnv::{fnv1a64, FNV_OFFSET};
use secpref_types::SystemConfig;

/// Checks a full-detail report: every core measured exactly its
/// `measure`-instruction window, plus [`check_counters`]. The retire stage
/// does not stop mid-group, so a window may end up to `retire_width - 1`
/// instructions late (the same allowance `audit_sampled` makes per window).
pub fn check_full(cfg: &SystemConfig, r: &SimReport, measure: u64) -> Vec<String> {
    let mut out = Vec::new();
    let last = measure + cfg.core.retire_width as u64 - 1;
    for (i, c) in r.cores.iter().enumerate() {
        if !(measure..=last).contains(&c.instructions) {
            out.push(format!(
                "core {i}: measured {} instructions, window is {measure}..={last}",
                c.instructions
            ));
        }
    }
    check_counters(cfg, r, &mut out);
    out
}

/// Checks a sampled report: the sampling audit plus [`check_counters`].
pub fn check_sampled(cfg: &SystemConfig, r: &SimReport) -> Vec<String> {
    let mut out: Vec<String> = secpref_check::audit_sampled(cfg, r)
        .iter()
        .map(ToString::to_string)
        .collect();
    check_counters(cfg, r, &mut out);
    out
}

/// Counter relations every report satisfies.
fn check_counters(cfg: &SystemConfig, r: &SimReport, out: &mut Vec<String>) {
    if r.cores.len() != cfg.cores {
        out.push(format!(
            "{} core reports for {} cores",
            r.cores.len(),
            cfg.cores
        ));
    }
    for (i, c) in r.cores.iter().enumerate() {
        for (level, m) in [("l1d", &c.l1d), ("l2", &c.l2), ("llc", &c.llc)] {
            if m.demand_misses > m.demand_accesses {
                out.push(format!(
                    "core {i} {level}: {} misses > {} accesses",
                    m.demand_misses, m.demand_accesses
                ));
            }
        }
        let p = &c.prefetch;
        let demand = c.l1d.demand_accesses + c.l2.demand_accesses + c.llc.demand_accesses;
        if p.useful + p.late > demand {
            out.push(format!(
                "core {i}: {} useful + {} late prefetches > {demand} demand accesses",
                p.useful, p.late
            ));
        }
        // The simulator counts a prefetch outcome in the window it happens
        // in, so lines prefetched before a window opens and evicted unused
        // inside it count as useless but not as issued. At most an L1D plus
        // an L2 of such lines can be resident when a window opens.
        let windows = r.sampling.as_ref().map_or(1, |s| s.windows.max(1));
        let carried = (cfg.l1d.lines() + cfg.l2.lines()) as u64 * windows;
        if p.useless > p.issued + carried {
            out.push(format!(
                "core {i}: {} useless prefetches > {} issued + {carried} resident at window starts",
                p.useless, p.issued
            ));
        }
        let ipc = c.ipc();
        if !(ipc.is_finite() && ipc > 0.0) {
            out.push(format!("core {i}: IPC {ipc} is not finite and positive"));
        }
        if !cfg.secure.is_secure() {
            let commit_path = c.gm_accesses
                + c.commit.commit_writes
                + c.commit.refetches
                + c.commit.propagations
                + c.l1d.commit_accesses
                + c.l2.commit_accesses
                + c.llc.commit_accesses;
            if commit_path != 0 {
                out.push(format!(
                    "core {i}: non-secure run did {commit_path} GM/commit-path operations"
                ));
            }
        }
    }
}

/// FNV-1a over each report's canonical text, folded in operation order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(FNV_OFFSET)
    }
}

impl Digest {
    /// Folds one report into the digest.
    pub fn add(&mut self, r: &SimReport) {
        self.0 = fnv1a64(report_to_string(r).as_bytes(), self.0);
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Simulated counts summed over a workload's reports. They repeat exactly
/// for a given seed; they move with the modelled design, not host time.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimCounts {
    instructions: u64,
    cycles: u64,
    wrong_path_loads: u64,
    l1d_misses: u64,
    l2_misses: u64,
    llc_misses: u64,
    l1d_mshr_full_stalls: u64,
    l1d_port_stalls: u64,
    dram_row_hits: u64,
    dram_row_misses: u64,
    gm_accesses: u64,
    commit_writes: u64,
    refetches: u64,
    suf_dropped: u64,
    suf_correct: u64,
    suf_wrong: u64,
    pf_issued: u64,
    pf_used: u64,
    pf_late: u64,
    sampled_windows: u64,
    /// Reports with a core whose window counts more useless prefetches
    /// than it issued (see `check_counters`).
    useless_over_issued: u64,
}

impl SimCounts {
    /// Adds one report.
    pub fn add(&mut self, r: &SimReport) {
        if r.cores
            .iter()
            .any(|c| c.prefetch.useless > c.prefetch.issued)
        {
            self.useless_over_issued += 1;
        }
        for c in &r.cores {
            self.instructions += c.instructions;
            self.cycles += c.cycles;
            self.wrong_path_loads += c.wrong_path_loads;
            self.l1d_misses += c.l1d.demand_misses;
            self.l2_misses += c.l2.demand_misses;
            self.llc_misses += c.llc.demand_misses;
            self.l1d_mshr_full_stalls += c.l1d.mshr_full_stalls;
            self.l1d_port_stalls += c.l1d.port_stalls;
            self.gm_accesses += c.gm_accesses;
            self.commit_writes += c.commit.commit_writes;
            self.refetches += c.commit.refetches;
            self.suf_dropped += c.commit.suf_dropped;
            self.suf_correct += c.commit.suf_drop_correct + c.commit.propagation_skip_correct;
            self.suf_wrong += c.commit.suf_drop_wrong + c.commit.propagation_skip_wrong;
            self.pf_issued += c.prefetch.issued;
            self.pf_used += c.prefetch.useful + c.prefetch.late;
            self.pf_late += c.prefetch.late;
        }
        self.dram_row_hits += r.dram.row_hits;
        self.dram_row_misses += r.dram.row_misses;
        self.sampled_windows += r.sampling.as_ref().map_or(0, |s| s.windows);
    }

    /// The counts as named per-layer metrics.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let ratio = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
        let kilo = self.instructions as f64 / 1000.0;
        let pki = |n: u64| if kilo == 0.0 { 0.0 } else { n as f64 / kilo };
        vec![
            ("cpu.ipc", ratio(self.instructions, self.cycles)),
            ("cpu.wrong_path_loads", self.wrong_path_loads as f64),
            ("mem.l1d.mpki", pki(self.l1d_misses)),
            ("mem.l2.mpki", pki(self.l2_misses)),
            ("mem.llc.mpki", pki(self.llc_misses)),
            ("mem.l1d.mshr_full_stalls", self.l1d_mshr_full_stalls as f64),
            ("mem.l1d.port_stalls", self.l1d_port_stalls as f64),
            (
                "mem.dram.row_hit_rate",
                ratio(
                    self.dram_row_hits,
                    self.dram_row_hits + self.dram_row_misses,
                ),
            ),
            ("ghostminion.gm_accesses", self.gm_accesses as f64),
            ("ghostminion.commit_writes", self.commit_writes as f64),
            ("ghostminion.refetches", self.refetches as f64),
            ("core.suf_dropped", self.suf_dropped as f64),
            (
                "core.suf_accuracy",
                if self.suf_correct + self.suf_wrong == 0 {
                    1.0
                } else {
                    ratio(self.suf_correct, self.suf_correct + self.suf_wrong)
                },
            ),
            ("prefetch.issued", self.pf_issued as f64),
            ("prefetch.accuracy", ratio(self.pf_used, self.pf_issued)),
            ("prefetch.late", self.pf_late as f64),
            ("sim.sampled.windows", self.sampled_windows as f64),
            (
                "check.useless_over_issued_ops",
                self.useless_over_issued as f64,
            ),
        ]
    }
}
