//! The full memory system: per-core GM + L1D + L2, a shared LLC and DRAM,
//! the GhostMinion commit engine, prefetcher integration, and the Fig. 6
//! classifier — driven by a cycle-ordered event queue.
//!
//! ## Request flows
//!
//! **Speculative demand load (GhostMinion).** The GM and L1D are probed in
//! parallel without touching replacement state; on a miss the request
//! allocates MSHRs level by level (contending for ports) and the response
//! fills **only the GM**, recording the 2-bit hit level for SUF.
//!
//! **Commit path.** When a load retires, the [`UpdateFilter`] decides
//! between dropping the update (SUF), an on-commit write (GM hit → L1D
//! fill with writeback bits), or a re-fetch walking the hierarchy. Clean
//! lines later propagate outward on eviction if their writeback bit says
//! so.
//!
//! **Prefetches** are injected at the L1D or L2, drop on duplicates, fill
//! with the `prefetched` bit set, and report useful/late/useless outcomes
//! back to the prefetcher.

use crate::classify::Classifier;
use crate::metrics::CoreMetrics;
use crate::profile::{Phase, ProfileReport, Profiler};
use crate::wheel::EventWheel;
use secpref_cpu::LoadIssue;
use secpref_ghostminion::{CommitAction, GmCache, GmInsertOutcome, UpdateFilter, WbBits};
use secpref_mem::{
    DramModel, DramRequest, FillAttrs, MshrFile, MshrToken, PortScheduler, SetAssocCache, Tlb,
};
use secpref_obs::{Event, EventKind, Obs};
use secpref_prefetch::{AccessEvent, Feedback, FillEvent, PfBuf, Prefetcher};
use secpref_telemetry::{LoadLevel, Tel, TelCapture};
use secpref_types::{
    AccessKind, Addr, CacheConfig, CacheLevel, CoreId, Cycle, FillInfo, HitLevel, Ip, LineAddr,
    PrefetchMode, PrefetchRequest, PrefetcherKind, SystemConfig,
};
use std::collections::VecDeque;

const EV_ACCESS: u8 = 0;
const EV_RESPONSE: u8 = 1;
/// Wheel tag of a retry run; the entry's id indexes `Hierarchy::runs`.
const EV_RUN: u8 = 2;
/// Maximum in-flight prefetch requests per core (prefetch queue depth);
/// excess proposals are dropped at injection.
const PF_QUEUE_DEPTH: usize = 48;
/// Recently-injected prefetch lines remembered for injection-time dedup.
const PF_RECENT: usize = 64;
/// Retry bound: a request stuck this long indicates a livelock bug.
const MAX_RETRIES: u32 = 1_000_000;
/// Prefetch requests accepted per training event.
const MAX_PF_PER_EVENT: usize = 16;
/// Nominal DRAM portion of a functional-warming fetch latency (cycles).
/// Functional accesses need only a plausible constant for GhostMinion
/// timestamps and prefetcher latency hints; detailed windows use the
/// real load-dependent DRAM model.
const FUNC_DRAM_LATENCY: Cycle = 120;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ReqKind {
    Load,
    Store,
    Prefetch,
    Refetch,
    CommitWrite,
    CleanProp,
    DirtyWb,
}

#[derive(Clone, Copy, Debug)]
struct Req {
    core: CoreId,
    line: LineAddr,
    ip: Ip,
    kind: ReqKind,
    lq: u32,
    gen: u32,
    ts: u64,
    wrong_path: bool,
    issued_at: Cycle,
    /// 0 = L1D, 1 = L2, 2 = LLC, 3 = DRAM.
    cur_level: u8,
    path: [Option<MshrToken>; 3],
    merged_prefetch: bool,
    hit_prefetched: bool,
    hit_pf_latency: u32,
    hit_level: HitLevel,
    /// Failed access attempts so far. While the request sits in a retry
    /// run the count lives in the run (see [`RetryRun::members`]) and is
    /// written back when the request is processed again.
    retries: u32,
    /// Prefetch fills into L1D (true) or stops at L2 (false).
    pf_fill_l1: bool,
    wb: WbBits,
    /// CleanProp: the wb bit the line carries at its destination.
    wb_next_fill: bool,
    /// Load still holds an L1D input-queue slot (released at first grant).
    holds_l1_slot: bool,
    /// Metrics for the current level access were already recorded.
    counted: bool,
    /// Parked waiting for MSHR space: retries skip the port and join the
    /// level's MSHR retry run, not its port-stall run.
    waiting_mshr: bool,
    /// Telemetry counted this request as a demand access (set only while
    /// armed, so histogram totals reconcile with the report counters).
    tel_counted: bool,
    /// A GhostMinion hit served this load (splits the GM population out
    /// of the L1D load-latency histogram).
    served_by_gm: bool,
    alive: bool,
}

/// What the members of a retry run are blocked on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Blocker {
    /// The level's MSHR file is full.
    Mshr,
    /// The level's ports are exhausted for this priority class.
    Port { low_priority: bool },
}

/// Requests share a retry run only when they wait on the same check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct RunKey {
    core: CoreId,
    lvl: u8,
    on: Blocker,
}

/// Consecutive blocked requests with one [`RunKey`], queued as a single
/// wheel entry. The members occupy exactly the bucket positions they
/// would hold as separate entries (a request joins a run only while the
/// run is the last entry of its bucket), so draining the run member by
/// member is draining those entries back to back. While the key's check
/// fails it fails for every remaining member alike, and the whole run
/// moves to the next cycle in one step.
#[derive(Debug)]
struct RetryRun {
    key: RunKey,
    /// `(request id, deadline)`, in drain order. A member that joined at
    /// cycle `j` with retry count `r` fails once per cycle from `j + 1`
    /// on (a run queued at `now + 1` makes [`Hierarchy::next_due`]
    /// return `now + 1`, so the run loops tick every such cycle), so its
    /// count reaches [`MAX_RETRIES`] on the failure at cycle
    /// `deadline = j + MAX_RETRIES - r`.
    members: VecDeque<(u32, Cycle)>,
    /// Lower bound on the members' deadlines (exact until members leave).
    deadline: Cycle,
}

struct LevelState {
    cache: SetAssocCache,
    mshr: MshrFile,
    ports: PortScheduler,
    /// Requests parked on an in-flight MSHR, keyed by token. A flat vec
    /// beats a hash map here: occupancy is bounded by the MSHR count
    /// (tens), so a linear probe is cheaper than hashing, and the waiter
    /// vectors are recycled through [`Hierarchy::waiter_pool`] instead of
    /// being reallocated on every miss.
    waiting: Vec<(MshrToken, Vec<u32>)>,
    latency: Cycle,
}

fn replacement(cfg: &CacheConfig) -> secpref_mem::ReplacementKind {
    match cfg.replacement {
        secpref_types::config::ReplacementChoice::Lru => secpref_mem::ReplacementKind::Lru,
        secpref_types::config::ReplacementChoice::Srrip => secpref_mem::ReplacementKind::Srrip,
        secpref_types::config::ReplacementChoice::Random => secpref_mem::ReplacementKind::Random,
    }
}

impl LevelState {
    fn new(cfg: &CacheConfig) -> Self {
        LevelState {
            cache: SetAssocCache::with_policy(cfg.sets(), cfg.ways, replacement(cfg)),
            mshr: MshrFile::new(cfg.mshrs),
            ports: PortScheduler::new(cfg.ports_per_cycle),
            waiting: Vec::new(),
            latency: cfg.latency,
        }
    }
}

/// The simulated memory system shared by all cores.
pub struct Hierarchy {
    cfg: SystemConfig,
    /// Per-core policy bits, resolved once from `cfg.policy(c)` so the
    /// hot paths index a flat vec instead of re-deriving from the config.
    sec: Vec<bool>,
    oc: Vec<bool>,
    pf_l1: Vec<bool>,
    pf_none: Vec<bool>,
    suf_on: Vec<bool>,
    gm: Vec<GmCache>,
    l1d: Vec<LevelState>,
    l2: Vec<LevelState>,
    llc: LevelState,
    dram: DramModel,
    filters: Vec<Box<dyn UpdateFilter>>,
    prefetchers: Vec<Box<dyn Prefetcher>>,
    classifiers: Vec<Option<Classifier>>,
    reqs: Vec<Req>,
    free: Vec<u32>,
    events: EventWheel,
    /// Retry runs (wheel tag [`EV_RUN`]); each live run is queued in the
    /// wheel exactly once. Freed runs keep their queues for reuse.
    runs: Vec<RetryRun>,
    free_runs: Vec<u32>,
    /// Spare waiter vectors recycled across MSHR merge/complete cycles.
    waiter_pool: Vec<Vec<u32>>,
    /// Completed demand loads, drained by the system each cycle:
    /// (core, lq, gen, fill).
    pub completions: Vec<(CoreId, u32, u32, FillInfo)>,
    /// Per-core metrics.
    pub metrics: Vec<CoreMetrics>,
    tlbs: Vec<Option<Tlb>>,
    l1_inflight: Vec<usize>,
    commit_count: Vec<u64>,
    pf_scratch: PfBuf,
    pf_outstanding: Vec<usize>,
    pf_recent: Vec<[LineAddr; PF_RECENT]>,
    pf_recent_head: Vec<usize>,
    /// Reusable DRAM-completion buffer for `tick` (no per-cycle allocs).
    dram_done: Vec<secpref_mem::DramCompletion>,
    /// Per-core `("l1d[c]", "l2[c]")` labels, built once at construction
    /// so the capture path never formats strings.
    mshr_labels: Vec<(String, String)>,
    /// Observability recorder; `Obs::disabled()` unless tracing was
    /// requested, in which case every hook below feeds it.
    obs: Obs,
    /// Distribution recorder (latency/timeliness histograms);
    /// `Tel::disabled()` unless telemetry was requested. Every hook is
    /// event-driven, so telemetry runs keep the idle fast-forward.
    tel: Tel,
    /// Wall-time phase profiler; disabled (one branch per hook) unless
    /// `simbench --profile` style runs request it.
    prof: Profiler,
    now: Cycle,
}

/// Phase a cache-walk event at `lvl` is attributed to.
fn level_phase(lvl: u8) -> Phase {
    match lvl {
        0 => Phase::L1d,
        1 => Phase::L2,
        2 => Phase::Llc,
        _ => Phase::Dram,
    }
}

/// Phase a response is attributed to: the level that supplied the data.
fn hit_phase(hl: HitLevel) -> Phase {
    match hl {
        HitLevel::L1d => Phase::L1d,
        HitLevel::L2 => Phase::L2,
        HitLevel::Llc => Phase::Llc,
        HitLevel::Dram => Phase::Dram,
    }
}

impl std::fmt::Debug for Hierarchy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hierarchy")
            .field("cores", &self.cfg.cores)
            .field("secure", &self.sec)
            .field("now", &self.now)
            .finish()
    }
}

impl Hierarchy {
    /// Builds the memory system for `cfg`, with the given per-core
    /// prefetchers, update filters, and optional classifiers. The
    /// policy vectors come from `cfg.policy(c)`, so heterogeneous
    /// mixes get per-core secure-mode/prefetcher behaviour.
    pub fn new(
        cfg: SystemConfig,
        prefetchers: Vec<Box<dyn Prefetcher>>,
        filters: Vec<Box<dyn UpdateFilter>>,
        classifiers: Vec<Option<Classifier>>,
    ) -> Self {
        assert_eq!(prefetchers.len(), cfg.cores);
        assert_eq!(filters.len(), cfg.cores);
        assert_eq!(classifiers.len(), cfg.cores);
        let cores = cfg.cores;
        let pol: Vec<_> = (0..cores).map(|c| cfg.policy(c)).collect();
        Hierarchy {
            sec: pol.iter().map(|p| p.secure.is_secure()).collect(),
            oc: pol
                .iter()
                .map(|p| p.prefetch_mode == PrefetchMode::OnCommit)
                .collect(),
            pf_l1: pol
                .iter()
                .map(|p| p.prefetcher.is_l1_prefetcher())
                .collect(),
            pf_none: pol
                .iter()
                .map(|p| p.prefetcher == PrefetcherKind::None)
                .collect(),
            suf_on: pol.iter().map(|p| p.suf).collect(),
            gm: (0..cores).map(|_| GmCache::new(cfg.gm.lines())).collect(),
            l1d: (0..cores).map(|_| LevelState::new(&cfg.l1d)).collect(),
            l2: (0..cores).map(|_| LevelState::new(&cfg.l2)).collect(),
            llc: LevelState::new(&cfg.llc),
            dram: DramModel::new(cfg.dram.clone()),
            filters,
            prefetchers,
            classifiers,
            reqs: Vec::with_capacity(4096),
            free: Vec::new(),
            events: EventWheel::new(),
            runs: Vec::new(),
            free_runs: Vec::new(),
            waiter_pool: Vec::new(),
            completions: Vec::new(),
            metrics: vec![CoreMetrics::default(); cores],
            tlbs: (0..cores)
                .map(|_| {
                    cfg.tlb.enabled.then(|| {
                        Tlb::new(
                            cfg.tlb.l1_entries,
                            cfg.tlb.l1_ways,
                            cfg.tlb.l1_latency,
                            cfg.tlb.stlb_entries,
                            cfg.tlb.stlb_ways,
                            cfg.tlb.stlb_latency,
                            cfg.tlb.walk_latency,
                        )
                    })
                })
                .collect(),
            l1_inflight: vec![0; cores],
            commit_count: vec![0; cores],
            pf_scratch: PfBuf::new(),
            pf_outstanding: vec![0; cores],
            pf_recent: vec![[LineAddr::new(u64::MAX); PF_RECENT]; cores],
            pf_recent_head: vec![0; cores],
            dram_done: Vec::new(),
            mshr_labels: (0..cores)
                .map(|c| (format!("l1d[{c}]"), format!("l2[{c}]")))
                .collect(),
            obs: Obs::disabled(),
            tel: Tel::disabled(),
            prof: Profiler::disabled(),
            cfg,
            now: 0,
        }
    }

    /// Enables the wall-time phase profiler (see [`crate::profile`]).
    pub fn enable_profiling(&mut self) {
        self.prof = Profiler::enabled();
    }

    /// The accumulated phase profile (all-zero unless profiling was
    /// enabled).
    pub fn profile_report(&mut self) -> ProfileReport {
        self.prof.report()
    }

    /// Phase hooks for the system run loop (core-model attribution).
    pub(crate) fn prof_enter(&mut self, phase: Phase) {
        self.prof.enter(phase);
    }

    pub(crate) fn prof_exit(&mut self) {
        self.prof.exit();
    }

    /// Installs an observability recorder (replaces the disabled default).
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Whether an observability recorder is active.
    pub fn obs_enabled(&self) -> bool {
        self.obs.is_enabled()
    }

    /// Arms event recording for `core` (its warm-up boundary passed).
    pub fn arm_obs(&mut self, core: CoreId) {
        self.obs.arm(core);
    }

    /// The configured epoch interval, when observability is on.
    pub fn obs_epoch_interval(&self) -> Option<u64> {
        self.obs.epoch_interval()
    }

    /// Installs a telemetry recorder (replaces the disabled default).
    pub fn set_tel(&mut self, tel: Tel) {
        self.tel = tel;
    }

    /// Whether a telemetry recorder is active.
    pub fn tel_enabled(&self) -> bool {
        self.tel.is_enabled()
    }

    /// Arms telemetry recording for `core` (its warm-up boundary passed).
    pub fn arm_tel(&mut self, core: CoreId) {
        self.tel.arm(core);
    }

    /// Consumes the telemetry recorder into its capture (`None` when
    /// telemetry was off). Counted demand accesses still in flight are
    /// folded into `unfinished_demands` so the reconciliation equation
    /// `demand_accesses == Σ load_latency + unfinished_demands` is exact.
    pub fn take_tel_capture(&mut self) -> Option<TelCapture> {
        if self.tel.is_enabled() {
            for i in 0..self.reqs.len() {
                let r = self.reqs[i];
                if r.alive && r.tel_counted {
                    self.tel.unfinished_demand(r.core);
                }
            }
        }
        std::mem::take(&mut self.tel).finish()
    }

    /// Records an externally-observed event (e.g. pipeline squashes seen
    /// by the driving system, which owns the cores).
    #[inline]
    pub fn obs_record(&mut self, ev: Event) {
        self.obs.record(ev);
    }

    /// Appends an epoch sample computed by the driving system.
    pub fn obs_push_epoch(&mut self, row: secpref_obs::EpochRow) {
        self.obs.push_epoch(row);
    }

    /// GM lines currently resident for `core` (epoch-sample gauge).
    pub fn gm_occupancy(&self, core: CoreId) -> u64 {
        self.gm[core].occupancy() as u64
    }

    /// Consumes the recorder into its capture, annotating the MSHR
    /// high-water marks and the update filter's identity (`None` when
    /// observability was off).
    pub fn take_obs_capture(&mut self) -> Option<secpref_obs::ObsCapture> {
        let obs = std::mem::take(&mut self.obs);
        let mut cap = obs.finish()?;
        for c in 0..self.cfg.cores {
            let (l1d_label, l2_label) = &self.mshr_labels[c];
            cap.mshr_high_water
                .push((l1d_label.clone(), self.l1d[c].mshr.high_water() as u64));
            cap.mshr_high_water
                .push((l2_label.clone(), self.l2[c].mshr.high_water() as u64));
        }
        cap.mshr_high_water
            .push(("llc".to_string(), self.llc.mshr.high_water() as u64));
        cap.filter = self.filters[0].describe().to_string();
        Some(cap)
    }

    /// Records an event at exactly the site that bumped the matching
    /// counter, keeping event totals reconcilable with the final report.
    #[inline]
    fn obs_ev(&mut self, at: Cycle, core: CoreId, kind: EventKind, line: LineAddr, arg: u32) {
        self.obs.record(Event {
            cycle: at,
            line,
            arg,
            core: core as u16,
            kind,
        });
    }

    /// Whether `core` runs an L1 prefetcher (vs an L2 one).
    fn pf_is_l1(&self, core: CoreId) -> bool {
        self.pf_l1[core]
    }

    fn alloc_req(&mut self, req: Req) -> u32 {
        if let Some(id) = self.free.pop() {
            self.reqs[id as usize] = req;
            id
        } else {
            self.reqs.push(req);
            (self.reqs.len() - 1) as u32
        }
    }

    fn free_req(&mut self, rid: u32) {
        let req = &mut self.reqs[rid as usize];
        req.alive = false;
        if matches!(req.kind, ReqKind::Prefetch) {
            let core = req.core;
            self.pf_outstanding[core] = self.pf_outstanding[core].saturating_sub(1);
        }
        self.free.push(rid);
    }

    fn schedule(&mut self, at: Cycle, rid: u32, kind: u8) {
        self.events.push(at, rid, kind);
    }

    fn blank_req(core: CoreId, line: LineAddr, ip: Ip, kind: ReqKind, now: Cycle) -> Req {
        Req {
            core,
            line,
            ip,
            kind,
            lq: 0,
            gen: 0,
            ts: 0,
            wrong_path: false,
            issued_at: now,
            cur_level: 0,
            path: [None; 3],
            merged_prefetch: false,
            hit_prefetched: false,
            hit_pf_latency: 0,
            hit_level: HitLevel::L1d,
            retries: 0,
            pf_fill_l1: true,
            wb: WbBits::ALL,
            wb_next_fill: false,
            holds_l1_slot: false,
            counted: false,
            waiting_mshr: false,
            tel_counted: false,
            served_by_gm: false,
            alive: true,
        }
    }

    /// Core-facing load issue (the [`secpref_cpu::LoadPort`] entry point).
    /// Returns `false` when the L1D input queue is full (backpressure).
    pub fn issue_load(&mut self, now: Cycle, issue: LoadIssue) -> bool {
        if self.l1_inflight[issue.core] >= self.cfg.l1d.queue_depth {
            return false;
        }
        self.l1_inflight[issue.core] += 1;
        let mut req = Self::blank_req(issue.core, issue.addr.line(), issue.ip, ReqKind::Load, now);
        req.lq = issue.lq_id;
        req.gen = issue.gen;
        req.ts = issue.ts;
        req.wrong_path = issue.wrong_path;
        req.holds_l1_slot = true;
        if issue.wrong_path {
            self.metrics[issue.core].wrong_path_loads += 1;
        }
        let rid = self.alloc_req(req);
        // Address translation happens before the cache access: the TLB
        // adds latency (1 cycle when it hits the dTLB).
        let at = now + self.translate(issue.core, issue.addr);
        self.schedule(at, rid, EV_ACCESS);
        true
    }

    /// Translation latency for `addr` on `core` (0 when TLBs are off).
    fn translate(&mut self, core: CoreId, addr: secpref_types::Addr) -> Cycle {
        match &mut self.tlbs[core] {
            Some(tlb) => tlb.translate(addr).1,
            None => 0,
        }
    }

    /// TLB statistics for `core`, if TLB modelling is enabled.
    pub fn tlb_stats(&self, core: CoreId) -> Option<secpref_mem::tlb::TlbStats> {
        self.tlbs[core].as_ref().map(|t| t.stats())
    }

    /// Issues the non-speculative write of a retired store.
    pub fn issue_store(&mut self, now: Cycle, core: CoreId, ip: Ip, line: LineAddr, ts: u64) {
        let mut req = Self::blank_req(core, line, ip, ReqKind::Store, now);
        req.ts = ts;
        let rid = self.alloc_req(req);
        self.schedule(now, rid, EV_ACCESS);
    }

    /// Advances the memory system to `now`: ticks DRAM and processes all
    /// events due at or before `now`.
    pub fn tick(&mut self, now: Cycle) {
        self.now = now;
        let mut done = std::mem::take(&mut self.dram_done);
        done.clear();
        self.prof.enter(Phase::Dram);
        self.dram.tick(now, &mut done);
        self.prof.exit();
        for &(rid, completed_at, arrival) in &done {
            let rid = rid as u32;
            let req = &mut self.reqs[rid as usize];
            req.hit_level = HitLevel::Dram;
            let core = req.core;
            self.tel.dram_done(core, completed_at - arrival);
            self.schedule(now, rid, EV_RESPONSE);
        }
        self.dram_done = done;
        while let Some((id, kind)) = self.events.pop_due(now) {
            if kind == EV_RUN {
                self.drain_run(now, id);
                continue;
            }
            let rid = id;
            let req = &self.reqs[rid as usize];
            if !req.alive {
                continue;
            }
            match kind {
                EV_ACCESS => {
                    self.prof.enter(level_phase(req.cur_level));
                    self.on_access(now, rid);
                }
                _ => {
                    self.prof.enter(hit_phase(req.hit_level));
                    self.on_response(now, rid);
                }
            }
            self.prof.exit();
        }
        // MSHR occupancy statistics.
        for c in 0..self.cfg.cores {
            let m = &mut self.metrics[c];
            m.l1d.mshr_occupancy_integral += self.l1d[c].mshr.occupancy() as u64;
            m.l1d.mshr_full_cycles += self.l1d[c].mshr.is_full() as u64;
            m.l2.mshr_occupancy_integral += self.l2[c].mshr.occupancy() as u64;
            m.l2.mshr_full_cycles += self.l2[c].mshr.is_full() as u64;
        }
    }

    /// Earliest cycle strictly after `now` at which [`Hierarchy::tick`]
    /// has work: the wheel's next due event or DRAM's next possible
    /// action. `Cycle::MAX` when the memory system is fully idle.
    pub fn next_due(&self, now: Cycle) -> Cycle {
        match self.events.next_due(now) {
            // Already due next cycle: DRAM cannot beat that.
            Some(at) if at <= now + 1 => at,
            wheel => wheel.unwrap_or(Cycle::MAX).min(self.dram.next_event(now)),
        }
    }

    /// Folds in the per-cycle MSHR occupancy statistics for `n` cycles
    /// skipped by the run loop's idle fast-forward. Occupancy cannot
    /// change while no event fires, so the per-cycle accumulation in
    /// [`Hierarchy::tick`] has this closed form over the skipped span.
    pub fn account_idle_cycles(&mut self, n: u64) {
        for c in 0..self.cfg.cores {
            let m = &mut self.metrics[c];
            m.l1d.mshr_occupancy_integral += self.l1d[c].mshr.occupancy() as u64 * n;
            m.l1d.mshr_full_cycles += self.l1d[c].mshr.is_full() as u64 * n;
            m.l2.mshr_occupancy_integral += self.l2[c].mshr.occupancy() as u64 * n;
            m.l2.mshr_full_cycles += self.l2[c].mshr.is_full() as u64 * n;
        }
    }

    /// Resets the metrics at the warm-up boundary (caches stay warm).
    pub fn reset_metrics(&mut self) {
        for m in &mut self.metrics {
            *m = CoreMetrics::default();
        }
    }

    fn level_metrics(&mut self, core: CoreId, lvl: u8) -> &mut crate::metrics::LevelMetrics {
        match lvl {
            0 => &mut self.metrics[core].l1d,
            1 => &mut self.metrics[core].l2,
            _ => &mut self.metrics[core].llc,
        }
    }

    fn access_kind(kind: ReqKind) -> AccessKind {
        match kind {
            ReqKind::Load => AccessKind::Load,
            ReqKind::Store => AccessKind::Store,
            ReqKind::Prefetch => AccessKind::Prefetch,
            ReqKind::Refetch => AccessKind::Refetch,
            ReqKind::CommitWrite => AccessKind::CommitWrite,
            ReqKind::CleanProp => AccessKind::Writeback,
            ReqKind::DirtyWb => AccessKind::Writeback,
        }
    }

    /// Re-queues a blocked request for the next cycle. Cache-level
    /// retries join the retry run at the tail of that cycle's bucket when
    /// it waits on the same check, or start a new one; DRAM enqueue
    /// rejects (rare) retry one by one.
    fn retry(&mut self, now: Cycle, rid: u32) {
        let req = &mut self.reqs[rid as usize];
        req.retries += 1;
        assert!(
            req.retries < MAX_RETRIES,
            "request livelocked: {:?} at level {}",
            req.kind,
            req.cur_level
        );
        if req.cur_level == 3 {
            self.schedule(now + 1, rid, EV_ACCESS);
            return;
        }
        let key = RunKey {
            core: req.core,
            lvl: req.cur_level,
            on: if req.waiting_mshr {
                Blocker::Mshr
            } else {
                Blocker::Port {
                    low_priority: matches!(req.kind, ReqKind::Prefetch),
                }
            },
        };
        let deadline = now + Cycle::from(MAX_RETRIES - req.retries);
        let id = match self.events.tail(now + 1) {
            Some((id, EV_RUN)) if self.runs[id as usize].key == key => id,
            _ => {
                let id = self.new_run(key);
                self.schedule(now + 1, id, EV_RUN);
                id
            }
        };
        let run = &mut self.runs[id as usize];
        run.members.push_back((rid, deadline));
        run.deadline = run.deadline.min(deadline);
    }

    fn new_run(&mut self, key: RunKey) -> u32 {
        if let Some(id) = self.free_runs.pop() {
            let run = &mut self.runs[id as usize];
            debug_assert!(run.members.is_empty());
            run.key = key;
            run.deadline = Cycle::MAX;
            return id;
        }
        self.runs.push(RetryRun {
            key,
            members: VecDeque::new(),
            deadline: Cycle::MAX,
        });
        (self.runs.len() - 1) as u32
    }

    /// Whether the check that `key`'s requests wait on still fails.
    fn blocked(&self, now: Cycle, key: RunKey) -> bool {
        let level = match key.lvl {
            0 => &self.l1d[key.core],
            1 => &self.l2[key.core],
            _ => &self.llc,
        };
        match key.on {
            Blocker::Mshr => level.mshr.is_full(),
            Blocker::Port { low_priority } => level.ports.would_reject(now, low_priority),
        }
    }

    /// Drains a popped retry run: members go through [`Self::on_access`]
    /// one at a time, in order, for as long as the key's check passes;
    /// the first member it blocks moves to the next cycle together with
    /// everyone behind it.
    fn drain_run(&mut self, now: Cycle, id: u32) {
        let key = self.runs[id as usize].key;
        while let Some(&(rid, deadline)) = self.runs[id as usize].members.front() {
            if self.blocked(now, key) {
                self.prof.enter(level_phase(key.lvl));
                self.requeue_run(now, id);
                self.prof.exit();
                return;
            }
            self.runs[id as usize].members.pop_front();
            let req = &mut self.reqs[rid as usize];
            debug_assert!(req.alive && req.cur_level == key.lvl);
            req.retries = MAX_RETRIES - 1 - (deadline - now) as u32;
            self.prof.enter(level_phase(key.lvl));
            self.on_access(now, rid);
            self.prof.exit();
        }
        self.free_runs.push(id);
    }

    /// Moves the rest of popped run `id` to `now + 1`, applying the
    /// effects of each member failing its check once: the retry count
    /// (implicit in the deadline) and, for port stalls, the stall and
    /// reject counters and one `PortStall` event per member.
    fn requeue_run(&mut self, now: Cycle, id: u32) {
        let run = &mut self.runs[id as usize];
        let key = run.key;
        if run.deadline <= now {
            if let Some(&(rid, _)) = run.members.iter().find(|&&(_, d)| d <= now) {
                let req = &self.reqs[rid as usize];
                panic!(
                    "request livelocked: {:?} at level {}",
                    req.kind, req.cur_level
                );
            }
            run.deadline = run
                .members
                .iter()
                .map(|&(_, d)| d)
                .min()
                .unwrap_or(Cycle::MAX);
        }
        if let Blocker::Port { .. } = key.on {
            let n = run.members.len() as u64;
            self.level_metrics(key.core, key.lvl).port_stalls += n;
            let ports = match key.lvl {
                0 => &mut self.l1d[key.core].ports,
                1 => &mut self.l2[key.core].ports,
                _ => &mut self.llc.ports,
            };
            ports.reject_n(now, n);
            if self.obs.is_enabled() {
                for &(rid, _) in &self.runs[id as usize].members {
                    self.obs.record(Event {
                        cycle: now,
                        line: self.reqs[rid as usize].line,
                        arg: key.lvl as u32,
                        core: key.core as u16,
                        kind: EventKind::PortStall,
                    });
                }
            }
        }
        match self.events.tail(now + 1) {
            Some((tail, EV_RUN)) if self.runs[tail as usize].key == key => {
                self.merge_runs(tail, id);
            }
            _ => self.schedule(now + 1, id, EV_RUN),
        }
    }

    /// Appends popped run `id` to the queued run `tail` (same key, last
    /// entry of its bucket) and frees `id`. Whichever queue is shorter
    /// is the one copied.
    fn merge_runs(&mut self, tail: u32, id: u32) {
        let mut moved = std::mem::take(&mut self.runs[id as usize].members);
        let deadline = self.runs[id as usize].deadline;
        let t = &mut self.runs[tail as usize];
        if t.members.len() <= moved.len() {
            while let Some(m) = t.members.pop_back() {
                moved.push_front(m);
            }
            std::mem::swap(&mut t.members, &mut moved);
        } else {
            t.members.append(&mut moved);
        }
        t.deadline = t.deadline.min(deadline);
        self.runs[id as usize].members = moved;
        self.free_runs.push(id);
    }

    fn on_access(&mut self, now: Cycle, rid: u32) {
        let req = self.reqs[rid as usize];
        if req.cur_level == 3 {
            self.access_dram(now, rid);
            return;
        }
        let core = req.core;
        let lvl = req.cur_level;
        // A request parked on a full MSHR file waits without consuming
        // lookup bandwidth (it sits in the input queue in hardware).
        if req.waiting_mshr {
            let full = match lvl {
                0 => self.l1d[core].mshr.is_full(),
                1 => self.l2[core].mshr.is_full(),
                _ => self.llc.mshr.is_full(),
            };
            if full {
                self.retry(now, rid);
                return;
            }
            self.reqs[rid as usize].waiting_mshr = false;
        }
        // Port arbitration at this level; prefetches yield to demands.
        let low_priority = matches!(req.kind, ReqKind::Prefetch);
        let ports = match lvl {
            0 => &mut self.l1d[core].ports,
            1 => &mut self.l2[core].ports,
            _ => &mut self.llc.ports,
        };
        let granted = if low_priority {
            ports.try_acquire_low_priority(now)
        } else {
            ports.try_acquire(now)
        };
        if !granted {
            self.level_metrics(core, lvl).port_stalls += 1;
            self.obs_ev(now, core, EventKind::PortStall, req.line, lvl as u32);
            self.retry(now, rid);
            return;
        }
        if req.holds_l1_slot {
            self.l1_inflight[core] = self.l1_inflight[core].saturating_sub(1);
            self.reqs[rid as usize].holds_l1_slot = false;
        }
        if !req.counted {
            self.level_metrics(core, lvl)
                .record_access(Self::access_kind(req.kind));
            self.reqs[rid as usize].counted = true;
            // Telemetry mirrors the L1D demand-access counter at exactly
            // this site; the returned flag gates the completion-side
            // histogram record so the two reconcile across the warm-up
            // boundary.
            if lvl == 0
                && matches!(req.kind, ReqKind::Load | ReqKind::Store)
                && self.tel.demand_access(core)
            {
                self.reqs[rid as usize].tel_counted = true;
            }
        }

        match req.kind {
            ReqKind::CommitWrite => {
                // GM → L1D transfer: fill with the filter's wb bits.
                self.fill_cache(
                    now,
                    core,
                    0,
                    req.line,
                    FillAttrs {
                        dirty: false,
                        prefetched: false,
                        wb_bit: req.wb.l1_to_l2,
                        wb_next: req.wb.l2_to_llc,
                        fetch_latency: 0,
                    },
                );
                // On-commit L1 prefetchers observe the (misleading)
                // 1-cycle commit-write fill latency.
                self.pf_fill_event(core, true, req.line, req.ip, now + 1, 1, false);
                self.free_req(rid);
            }
            ReqKind::CleanProp | ReqKind::DirtyWb => {
                let target = req.cur_level;
                self.fill_cache(
                    now,
                    core,
                    target,
                    req.line,
                    FillAttrs {
                        dirty: matches!(req.kind, ReqKind::DirtyWb),
                        prefetched: false,
                        wb_bit: req.wb_next_fill,
                        wb_next: false,
                        fetch_latency: 0,
                    },
                );
                self.free_req(rid);
            }
            ReqKind::Load | ReqKind::Store | ReqKind::Prefetch | ReqKind::Refetch => {
                self.access_cache_level(now, rid);
            }
        }
    }

    /// Demand/prefetch/refetch lookup at L1D/L2/LLC.
    fn access_cache_level(&mut self, now: Cycle, rid: u32) {
        let req = self.reqs[rid as usize];
        let core = req.core;
        let lvl = req.cur_level;
        let is_demand = matches!(req.kind, ReqKind::Load | ReqKind::Store);
        let speculative = self.sec[core] && matches!(req.kind, ReqKind::Load);

        // GhostMinion: speculative loads probe the GM in parallel with L1D.
        if lvl == 0 && speculative {
            self.metrics[core].gm_accesses += 1;
            self.prof.enter(Phase::Gm);
            let gm_hit = self.gm[core].lookup(req.line, req.ts).is_some();
            self.prof.exit();
            if gm_hit {
                self.observe_demand_l1(now, rid, true, false, 0);
                let r = &mut self.reqs[rid as usize];
                r.hit_level = HitLevel::L1d;
                r.served_by_gm = true;
                self.schedule(now + 1, rid, EV_RESPONSE); // 1-cycle GM
                return;
            }
        }

        let (hit, was_prefetched, pf_latency) = {
            let level = match lvl {
                0 => &mut self.l1d[core],
                1 => &mut self.l2[core],
                _ => &mut self.llc,
            };
            if speculative {
                // No replacement-state update for speculative accesses.
                match level.cache.probe(req.line) {
                    Some(meta) => (true, meta.prefetched, meta.fetch_latency),
                    None => (false, false, 0),
                }
            } else if let Some((was_pf, lat)) = level
                .cache
                .touch_demand(req.line, matches!(req.kind, ReqKind::Store))
            {
                if matches!(req.kind, ReqKind::Prefetch) {
                    (true, false, 0)
                } else {
                    (true, was_pf, lat)
                }
            } else {
                (false, false, 0)
            }
        };
        if speculative && hit {
            // Statistics-only: record first demand use of prefetched lines.
            let (was_pf2, lat2) = self.l1d[core]
                .cache
                .mark_demand_use(req.line)
                .unwrap_or((false, 0));
            let _ = (was_pf2, lat2);
        }

        // Prefetcher useful-feedback on demand hit to a prefetched line.
        let pf_here = (lvl == 0) == self.pf_is_l1(core);
        if hit && is_demand && was_prefetched && pf_here {
            self.metrics[core].prefetch.useful += 1;
            self.obs_ev(now, core, EventKind::PrefetchUseful, req.line, pf_latency);
            self.tel.pf_useful(core, req.line.raw(), now);
            self.feedback(core, Feedback::Useful { line: req.line });
        }
        // Demand observation for on-access prefetchers and the shadow.
        if is_demand && lvl == 0 {
            self.observe_demand_l1(now, rid, hit, was_prefetched, pf_latency);
        } else if is_demand && lvl == 1 {
            self.observe_demand_l2(now, rid, hit);
        }

        // A prefetch may be dropped only before it has allocated any MSHR;
        // afterwards it must run to completion or it would leak entries.
        let committed = req.path.iter().any(Option::is_some);
        if hit {
            match req.kind {
                ReqKind::Prefetch if !committed => {
                    // Already resident at its origin level: drop.
                    self.metrics[core].prefetch.dropped_duplicate += 1;
                    self.free_req(rid);
                }
                _ => {
                    let lat = match lvl {
                        0 => self.l1d[core].latency,
                        1 => self.l2[core].latency,
                        _ => self.llc.latency,
                    };
                    let r = &mut self.reqs[rid as usize];
                    r.hit_level = HitLevel::from_level(match lvl {
                        0 => CacheLevel::L1d,
                        1 => CacheLevel::L2,
                        _ => CacheLevel::Llc,
                    });
                    r.hit_prefetched = was_prefetched;
                    r.hit_pf_latency = pf_latency;
                    self.schedule(now + lat, rid, EV_RESPONSE);
                }
            }
            return;
        }

        // Miss: merge or allocate an MSHR.
        let demandish = !matches!(req.kind, ReqKind::Prefetch);
        let merge_result = {
            let level = match lvl {
                0 => &mut self.l1d[core],
                1 => &mut self.l2[core],
                _ => &mut self.llc,
            };
            level
                .mshr
                .find(req.line)
                .map(|(t, e)| (t, e.is_prefetch, e.alloc_cycle))
        };
        if let Some((token, in_flight_is_pf, in_flight_since)) = merge_result {
            if matches!(req.kind, ReqKind::Prefetch) && !committed {
                self.metrics[core].prefetch.dropped_duplicate += 1;
                self.free_req(rid);
                return;
            }
            let joined_existing = {
                let level = match lvl {
                    0 => &mut self.l1d[core],
                    1 => &mut self.l2[core],
                    _ => &mut self.llc,
                };
                level.mshr.merge(req.line, demandish, req.ts);
                match level.waiting.iter_mut().find(|(t, _)| *t == token) {
                    Some((_, v)) => {
                        v.push(rid);
                        true
                    }
                    None => false,
                }
            };
            if !joined_existing {
                let mut v = self.waiter_pool.pop().unwrap_or_default();
                v.push(rid);
                let level = match lvl {
                    0 => &mut self.l1d[core],
                    1 => &mut self.l2[core],
                    _ => &mut self.llc,
                };
                level.waiting.push((token, v));
            }
            // Merging onto an in-flight *demand* is a hit-under-miss, not
            // a new miss; merging onto a *prefetch* is the paper's "late
            // prefetch" and counts as a demand miss (Fig. 6).
            if is_demand && in_flight_is_pf {
                self.count_demand_miss(now, rid, lvl, true);
            }
            if in_flight_is_pf && is_demand && pf_here {
                self.metrics[core].prefetch.late += 1;
                self.obs_ev(now, core, EventKind::PrefetchLate, req.line, 0);
                self.tel.pf_late(core, now - in_flight_since);
                self.reqs[rid as usize].merged_prefetch = true;
                self.feedback(core, Feedback::Late { line: req.line });
            }
            return;
        }
        let full = match lvl {
            0 => self.l1d[core].mshr.is_full(),
            1 => self.l2[core].mshr.is_full(),
            _ => self.llc.mshr.is_full(),
        };
        if full {
            self.level_metrics(core, lvl).mshr_full_stalls += 1;
            self.obs_ev(now, core, EventKind::MshrFull, req.line, lvl as u32);
            if matches!(req.kind, ReqKind::Prefetch) && !committed {
                self.metrics[core].prefetch.dropped_resources += 1;
                self.free_req(rid);
            } else {
                self.reqs[rid as usize].waiting_mshr = true;
                self.retry(now, rid);
            }
            return;
        }
        // Allocate and descend.
        let is_pf = matches!(req.kind, ReqKind::Prefetch);
        let token = {
            let level = match lvl {
                0 => &mut self.l1d[core],
                1 => &mut self.l2[core],
                _ => &mut self.llc,
            };
            level
                .mshr
                .alloc(req.line, is_pf, now, if is_pf { u64::MAX } else { req.ts })
                .expect("checked not-full, no existing entry")
        };
        if is_demand {
            self.count_demand_miss(now, rid, lvl, false);
        }
        // `issued` counts requests entering the hierarchy, so only the
        // origin-level allocation increments it; the same prefetch
        // allocating deeper MSHRs as it descends is still one request.
        if is_pf && !committed {
            self.metrics[core].prefetch.issued += 1;
            self.obs_ev(now, core, EventKind::PrefetchIssue, req.line, lvl as u32);
        }
        let lat = match lvl {
            0 => self.l1d[core].latency,
            1 => self.l2[core].latency,
            _ => self.llc.latency,
        };
        let r = &mut self.reqs[rid as usize];
        r.path[lvl as usize] = Some(token);
        r.cur_level = lvl + 1;
        r.counted = false;
        self.schedule(now + lat, rid, EV_ACCESS);
    }

    fn access_dram(&mut self, now: Cycle, rid: u32) {
        let req = self.reqs[rid as usize];
        self.metrics[req.core].dram_accesses += 1;
        let dram_req = DramRequest {
            line: req.line,
            is_write: matches!(req.kind, ReqKind::DirtyWb),
            token: rid as u64,
            arrival: now,
        };
        match self.dram.enqueue(dram_req) {
            Ok(()) => {
                if matches!(req.kind, ReqKind::DirtyWb) {
                    self.free_req(rid); // writes complete silently
                }
                // Reads resolve via dram.tick → EV_RESPONSE.
            }
            Err(_) => {
                self.metrics[req.core].dram_accesses -= 1;
                self.retry(now, rid);
            }
        }
    }

    fn count_demand_miss(&mut self, now: Cycle, rid: u32, lvl: u8, merged_onto_pf: bool) {
        let req = self.reqs[rid as usize];
        self.level_metrics(req.core, lvl).demand_misses += 1;
        let pf_here = (lvl == 0) == self.pf_is_l1(req.core);
        if pf_here {
            self.feedback(req.core, Feedback::DemandMiss { line: req.line });
            if let Some(c) = self.classifiers[req.core].as_mut() {
                self.prof.enter(Phase::Classifier);
                c.demand_miss(req.line, now, merged_onto_pf);
                self.prof.exit();
            }
        }
    }

    /// Demand-access observation at L1D: on-access prefetcher training
    /// (L1 prefetchers) plus the always-on shadow.
    fn observe_demand_l1(
        &mut self,
        now: Cycle,
        rid: u32,
        hit: bool,
        hit_prefetched: bool,
        pf_latency: u32,
    ) {
        let core = self.reqs[rid as usize].core;
        if !self.pf_is_l1(core) || self.pf_none[core] {
            return;
        }
        let req = self.reqs[rid as usize];
        let ev = AccessEvent {
            ip: req.ip,
            line: req.line,
            cycle: now,
            hit,
            access_cycle: now,
            fetch_latency: if hit_prefetched { pf_latency } else { 0 },
            hit_prefetched,
            mshr_free: self.l1d[req.core].mshr.capacity() - self.l1d[req.core].mshr.occupancy(),
        };
        if let Some(c) = self.classifiers[req.core].as_mut() {
            self.prof.enter(Phase::Classifier);
            c.shadow_access(&ev);
            self.prof.exit();
        }
        if !self.oc[core] {
            self.train_and_inject(now, req.core, &ev);
        }
    }

    fn observe_demand_l2(&mut self, now: Cycle, rid: u32, hit: bool) {
        let core = self.reqs[rid as usize].core;
        if self.pf_is_l1(core) || self.pf_none[core] {
            return;
        }
        let req = self.reqs[rid as usize];
        let ev = AccessEvent {
            ip: req.ip,
            line: req.line,
            cycle: now,
            hit,
            access_cycle: now,
            fetch_latency: 0,
            hit_prefetched: false,
            mshr_free: self.l2[req.core].mshr.capacity() - self.l2[req.core].mshr.occupancy(),
        };
        if let Some(c) = self.classifiers[req.core].as_mut() {
            self.prof.enter(Phase::Classifier);
            c.shadow_access(&ev);
            self.prof.exit();
        }
        if !self.oc[core] {
            self.train_and_inject(now, req.core, &ev);
        }
    }

    fn train_and_inject(&mut self, now: Cycle, core: CoreId, ev: &AccessEvent) {
        self.pf_scratch.clear();
        self.prof.enter(Phase::Prefetcher);
        self.prefetchers[core].observe_access(ev, &mut self.pf_scratch);
        self.prof.exit();
        self.pf_scratch.truncate(MAX_PF_PER_EVENT);
        // Index-copy: `inject_prefetch` needs `&mut self` but never touches
        // the scratch buffer.
        for i in 0..self.pf_scratch.len() {
            let pf = self.pf_scratch[i];
            self.inject_prefetch(now, core, pf);
        }
    }

    fn inject_prefetch(&mut self, now: Cycle, core: CoreId, pf: PrefetchRequest) {
        self.metrics[core].prefetch.proposed += 1;
        if let Some(c) = self.classifiers[core].as_mut() {
            self.prof.enter(Phase::Classifier);
            c.actual_issue(pf.line, now);
            self.prof.exit();
        }
        // Injection-time dedup: the same target proposed again while it is
        // still fresh (resident, in flight, or queued) is dropped without
        // burning a cache port on discovering the duplicate.
        if self.pf_recent[core].contains(&pf.line) {
            self.metrics[core].prefetch.dropped_duplicate += 1;
            return;
        }
        // Prefetch-queue depth: a full PQ drops further proposals.
        if self.pf_outstanding[core] >= PF_QUEUE_DEPTH {
            self.metrics[core].prefetch.dropped_resources += 1;
            return;
        }
        let head = self.pf_recent_head[core];
        self.pf_recent[core][head] = pf.line;
        self.pf_recent_head[core] = (head + 1) % PF_RECENT;
        self.pf_outstanding[core] += 1;
        let mut req = Self::blank_req(core, pf.line, pf.trigger_ip, ReqKind::Prefetch, now);
        req.pf_fill_l1 = pf.fill_level == CacheLevel::L1d;
        req.cur_level = if self.pf_is_l1(core) && req.pf_fill_l1 {
            0
        } else {
            1
        };
        let rid = self.alloc_req(req);
        self.schedule(now, rid, EV_ACCESS);
    }

    fn feedback(&mut self, core: CoreId, fb: Feedback) {
        self.prof.enter(Phase::Prefetcher);
        self.prefetchers[core].feedback(fb);
        self.prof.exit();
    }

    /// L1-level fill event for on-commit L1 prefetchers (commit writes and
    /// re-fetch fills) and access-path fills for on-access mode / shadows.
    #[allow(clippy::too_many_arguments)]
    fn pf_fill_event(
        &mut self,
        core: CoreId,
        commit_path: bool,
        line: LineAddr,
        ip: Ip,
        at: Cycle,
        latency: u32,
        by_prefetch: bool,
    ) {
        if !self.pf_is_l1(core) || self.pf_none[core] {
            return;
        }
        let ev = FillEvent {
            line,
            ip,
            cycle: at,
            latency,
            by_prefetch,
        };
        if commit_path {
            if self.oc[core] {
                self.prof.enter(Phase::Prefetcher);
                self.prefetchers[core].observe_fill(&ev);
                self.prof.exit();
            }
        } else {
            if let Some(c) = self.classifiers[core].as_mut() {
                self.prof.enter(Phase::Classifier);
                c.shadow_fill(&ev);
                self.prof.exit();
            }
            if !self.oc[core] {
                self.prof.enter(Phase::Prefetcher);
                self.prefetchers[core].observe_fill(&ev);
                self.prof.exit();
            }
        }
    }

    fn fill_cache(&mut self, now: Cycle, core: CoreId, lvl: u8, line: LineAddr, attrs: FillAttrs) {
        let evicted = {
            let level = match lvl {
                0 => &mut self.l1d[core],
                1 => &mut self.l2[core],
                _ => &mut self.llc,
            };
            level.cache.fill(line, attrs)
        };
        if let Some(ev) = evicted {
            self.handle_eviction(now, core, lvl, ev);
        }
    }

    fn handle_eviction(&mut self, now: Cycle, core: CoreId, lvl: u8, ev: secpref_mem::EvictedLine) {
        // Useless-prefetch accounting at the prefetcher's level.
        let pf_here = (lvl == 0) == self.pf_is_l1(core);
        if ev.prefetched && pf_here && lvl <= 1 {
            self.metrics[core].prefetch.useless += 1;
            self.obs_ev(now, core, EventKind::PrefetchUseless, ev.line, 0);
            self.tel.pf_useless(core, ev.line.raw(), now);
            self.feedback(core, Feedback::Useless { line: ev.line });
        }
        match lvl {
            0 | 1 => {
                let target = lvl + 1;
                if ev.dirty {
                    let mut req = Self::blank_req(core, ev.line, Ip::new(0), ReqKind::DirtyWb, now);
                    req.cur_level = target;
                    let rid = self.alloc_req(req);
                    self.schedule(now + 1, rid, EV_ACCESS);
                } else if self.sec[core] && ev.wb_bit {
                    // GhostMinion clean-line commit propagation.
                    self.metrics[core].commit.propagations += 1;
                    self.obs_ev(now, core, EventKind::CleanProp, ev.line, lvl as u32);
                    let mut req =
                        Self::blank_req(core, ev.line, Ip::new(0), ReqKind::CleanProp, now);
                    req.cur_level = target;
                    req.wb_next_fill = if lvl == 0 { ev.wb_next } else { false };
                    let rid = self.alloc_req(req);
                    self.schedule(now + 1, rid, EV_ACCESS);
                } else if self.sec[core] && self.suf_on[core] {
                    // SUF skipped a propagation: score its accuracy.
                    self.metrics[core].commit.propagation_skipped += 1;
                    let present = if lvl == 0 {
                        self.l2[core].cache.probe(ev.line).is_some()
                            || self.llc.cache.probe(ev.line).is_some()
                    } else {
                        self.llc.cache.probe(ev.line).is_some()
                    };
                    if present {
                        self.metrics[core].commit.propagation_skip_correct += 1;
                    } else {
                        self.metrics[core].commit.propagation_skip_wrong += 1;
                    }
                    self.obs_ev(
                        now,
                        core,
                        EventKind::PropagationSkip,
                        ev.line,
                        present as u32,
                    );
                }
            }
            _ => {
                if ev.dirty {
                    let mut req = Self::blank_req(core, ev.line, Ip::new(0), ReqKind::DirtyWb, now);
                    req.cur_level = 3;
                    let rid = self.alloc_req(req);
                    self.schedule(now + 1, rid, EV_ACCESS);
                }
            }
        }
    }

    /// Data became available for `rid` (probe hit deeper in the hierarchy
    /// or DRAM completion): unwind the MSHR path, fill caches per policy,
    /// wake waiters, and deliver the completion.
    fn on_response(&mut self, now: Cycle, rid: u32) {
        let req = self.reqs[rid as usize];
        let core = req.core;
        // Unwind allocated MSHRs from deepest to shallowest.
        for lvl in (0..3u8).rev() {
            let Some(token) = req.path[lvl as usize] else {
                continue;
            };
            let (mut waiters, allocated_at) = {
                let level = match lvl {
                    0 => &mut self.l1d[core],
                    1 => &mut self.l2[core],
                    _ => &mut self.llc,
                };
                let entry = level.mshr.complete(token);
                let waiters = match level.waiting.iter().position(|(t, _)| *t == token) {
                    Some(i) => level.waiting.swap_remove(i).1,
                    None => Vec::new(),
                };
                (waiters, entry.alloc_cycle)
            };
            self.tel
                .mshr_complete(core, lvl as usize, now - allocated_at);
            self.fill_on_path(now, rid, lvl);
            for &w in &waiters {
                let hl = req.hit_level;
                let wr = &mut self.reqs[w as usize];
                wr.hit_level = hl;
                self.schedule(now, w, EV_RESPONSE);
            }
            if waiters.capacity() > 0 && self.waiter_pool.len() < 64 {
                waiters.clear();
                self.waiter_pool.push(waiters);
            }
        }
        self.finish_request(now, rid);
    }

    /// Fill policy for a level on a request's response path.
    fn fill_on_path(&mut self, now: Cycle, rid: u32, lvl: u8) {
        let req = self.reqs[rid as usize];
        let core = req.core;
        let latency = (now - req.issued_at) as u32;
        match req.kind {
            ReqKind::Load if !self.sec[core] => {
                self.fill_cache(now, core, lvl, req.line, FillAttrs::default());
            }
            // GhostMinion: speculative fills go to the GM only (at
            // finish_request); the hierarchy stays untouched.
            ReqKind::Store => {
                if lvl == 0 {
                    self.fill_cache(
                        now,
                        core,
                        lvl,
                        req.line,
                        FillAttrs {
                            dirty: true,
                            ..FillAttrs::default()
                        },
                    );
                } else if !self.sec[core] {
                    self.fill_cache(now, core, lvl, req.line, FillAttrs::default());
                }
            }
            ReqKind::Prefetch => {
                self.fill_cache(
                    now,
                    core,
                    lvl,
                    req.line,
                    FillAttrs {
                        prefetched: true,
                        fetch_latency: latency,
                        ..FillAttrs::default()
                    },
                );
            }
            ReqKind::Refetch => {
                let attrs = if lvl == 0 {
                    FillAttrs {
                        wb_bit: req.wb.l1_to_l2,
                        wb_next: req.wb.l2_to_llc,
                        ..FillAttrs::default()
                    }
                } else {
                    FillAttrs::default()
                };
                self.fill_cache(now, core, lvl, req.line, attrs);
            }
            _ => {}
        }
    }

    fn finish_request(&mut self, now: Cycle, rid: u32) {
        let req = self.reqs[rid as usize];
        let core = req.core;
        let latency = (now - req.issued_at) as u32;
        match req.kind {
            ReqKind::Load => {
                if self.sec[core] && req.hit_level != HitLevel::L1d {
                    // Speculative fill into the GM, timestamped with the
                    // oldest waiting instruction.
                    self.prof.enter(Phase::Gm);
                    self.gm[core].insert(req.line, req.ts, latency);
                    self.prof.exit();
                    self.obs_ev(now, core, EventKind::GmSpecFill, req.line, latency);
                    let occ = self.gm[core].occupancy() as u64;
                    self.tel.gm_fill(core, occ);
                }
                if req.hit_level != HitLevel::L1d {
                    let m = &mut self.metrics[core].l1d;
                    m.miss_latency_sum += latency as u64;
                    m.miss_latency_count += 1;
                    // Access-path fill event (real latency) for on-access
                    // prefetchers and the shadow.
                    self.pf_fill_event(core, false, req.line, req.ip, now, latency, false);
                }
                if !req.wrong_path {
                    let fetch_latency = if req.hit_level == HitLevel::L1d {
                        if req.hit_prefetched {
                            req.hit_pf_latency
                        } else {
                            0
                        }
                    } else {
                        latency
                    };
                    self.completions.push((
                        core,
                        req.lq,
                        req.gen,
                        FillInfo {
                            line: req.line,
                            hit_level: req.hit_level,
                            issued_at: req.issued_at,
                            filled_at: now,
                            merged_with_prefetch: req.merged_prefetch,
                            hit_prefetched_line: req.hit_prefetched,
                            fetch_latency,
                        },
                    ));
                }
            }
            ReqKind::Refetch
                // On-commit L1 prefetchers observe the re-fetch fill with
                // its (real, long) latency.
                if req.hit_level != HitLevel::L1d => {
                    self.pf_fill_event(core, true, req.line, req.ip, now, latency, false);
                }
            ReqKind::Prefetch => {
                self.obs_ev(now, core, EventKind::PrefetchFill, req.line, latency);
                // Starts the fill-to-first-demand-use clock of the
                // timeliness histograms.
                self.tel.pf_fill(core, req.line.raw(), now);
            }
            _ => {}
        }
        if req.tel_counted {
            let level = if req.served_by_gm {
                LoadLevel::Gm
            } else {
                match req.hit_level {
                    HitLevel::L1d => LoadLevel::L1d,
                    HitLevel::L2 => LoadLevel::L2,
                    HitLevel::Llc => LoadLevel::Llc,
                    HitLevel::Dram => LoadLevel::Dram,
                }
            };
            self.tel.load_complete(core, level, latency as u64);
        }
        self.free_req(rid);
    }

    /// Commit-path processing of a retired load (GhostMinion Section II-C,
    /// SUF Section IV, on-commit prefetcher training Section V).
    pub fn commit_load(
        &mut self,
        now: Cycle,
        core: CoreId,
        ip: Ip,
        line: LineAddr,
        ts: u64,
        fill: &FillInfo,
    ) {
        if self.sec[core] {
            // The whole commit engine (GM lookup, SUF decision, action
            // dispatch, GM expiry) is GhostMinion work.
            self.prof.enter(Phase::Gm);
            let gm_hit = self.gm[core].lookup_commit(line, ts).is_some();
            let action = self.filters[core].commit_action(fill.hit_level, gm_hit);
            match action {
                CommitAction::Drop => {
                    self.metrics[core].commit.suf_dropped += 1;
                    let present = self.l1d[core].cache.probe(line).is_some() || gm_hit;
                    if present {
                        self.metrics[core].commit.suf_drop_correct += 1;
                    } else {
                        self.metrics[core].commit.suf_drop_wrong += 1;
                    }
                    self.obs_ev(now, core, EventKind::SufDrop, line, present as u32);
                    self.gm[core].remove(line);
                }
                CommitAction::CommitWrite => {
                    self.gm[core].remove(line);
                    self.metrics[core].commit.commit_writes += 1;
                    self.obs_ev(now, core, EventKind::CommitWrite, line, 0);
                    let mut req = Self::blank_req(core, line, ip, ReqKind::CommitWrite, now);
                    req.wb = self.filters[core].wb_bits(fill.hit_level);
                    let rid = self.alloc_req(req);
                    self.schedule(now, rid, EV_ACCESS);
                }
                CommitAction::Refetch => {
                    self.metrics[core].commit.refetches += 1;
                    self.obs_ev(now, core, EventKind::Refetch, line, 0);
                    let mut req = Self::blank_req(core, line, ip, ReqKind::Refetch, now);
                    req.ts = ts;
                    req.wb = self.filters[core].wb_bits(fill.hit_level);
                    let rid = self.alloc_req(req);
                    self.schedule(now, rid, EV_ACCESS);
                }
            }
            // Periodically expire GM leftovers of squashed instructions.
            self.commit_count[core] += 1;
            if self.commit_count[core].is_multiple_of(16) {
                self.gm[core].expire_older_than(ts, now);
            }
            self.prof.exit();
        }
        // On-commit prefetcher training/triggering.
        if self.oc[core] && !self.pf_none[core] {
            if self.pf_is_l1(core) {
                let ev = AccessEvent {
                    ip,
                    line,
                    cycle: now,
                    hit: fill.hit_level == HitLevel::L1d,
                    access_cycle: fill.issued_at,
                    fetch_latency: fill.fetch_latency,
                    hit_prefetched: fill.hit_prefetched_line,
                    mshr_free: self.l1d[core].mshr.capacity() - self.l1d[core].mshr.occupancy(),
                };
                self.train_and_inject(now, core, &ev);
            } else if fill.hit_level >= HitLevel::L2 {
                let ev = AccessEvent {
                    ip,
                    line,
                    cycle: now,
                    hit: fill.hit_level == HitLevel::L2,
                    access_cycle: fill.issued_at,
                    fetch_latency: fill.fetch_latency,
                    hit_prefetched: false,
                    mshr_free: self.l2[core].mshr.capacity() - self.l2[core].mshr.occupancy(),
                };
                self.train_and_inject(now, core, &ev);
            }
        }
    }

    /// Commit-path processing of a retired store (non-speculative write).
    pub fn commit_store(&mut self, now: Cycle, core: CoreId, ip: Ip, line: LineAddr, ts: u64) {
        self.issue_store(now, core, ip, line, ts);
    }

    /// Finishes classification, folding pending entries into the metrics.
    pub fn finalize(&mut self) {
        for core in 0..self.cfg.cores {
            if let Some(c) = self.classifiers[core].take() {
                self.metrics[core].class = c.finish();
            }
        }
    }

    /// Resets one core's metrics at its warm-up boundary.
    pub fn reset_core_metrics(&mut self, core: CoreId) {
        self.metrics[core] = CoreMetrics::default();
    }

    /// Replaces one core's commit-path update filter (ablation studies).
    pub fn set_filter(&mut self, core: CoreId, filter: Box<dyn UpdateFilter>) {
        self.filters[core] = filter;
    }

    /// Sets a core's prefetcher timeliness knob (ablation studies).
    pub fn set_timeliness_knob(&mut self, core: CoreId, k: u32) {
        self.prefetchers[core].set_timeliness_knob(k);
    }

    /// DRAM statistics (shared).
    pub fn dram_stats(&self) -> secpref_mem::dram::DramStats {
        self.dram.stats()
    }

    /// Debug snapshot: (queued requests, live requests, L1 MSHR
    /// occupancy, L1 inflight count) — used by the livelock watchdog.
    /// Queued requests count every member of a retry run, not the run's
    /// single wheel entry.
    pub fn debug_state(&self, core: CoreId) -> (usize, usize, usize, usize) {
        // Freed runs are empty, so summing over every run counts exactly
        // the parked requests.
        let queued_runs = self.runs.len() - self.free_runs.len();
        let parked: usize = self.runs.iter().map(|r| r.members.len()).sum();
        (
            self.events.len() - queued_runs + parked,
            self.reqs.len() - self.free.len(),
            self.l1d[core].mshr.occupancy(),
            self.l1_inflight[core],
        )
    }

    /// Probes whether `line` is resident in the given level of `core`'s
    /// hierarchy without disturbing any state (used by security tests:
    /// "did the transient load leave a footprint?").
    pub fn probe_line(&self, core: CoreId, level: CacheLevel, line: LineAddr) -> bool {
        match level {
            CacheLevel::L1d => self.l1d[core].cache.probe(line).is_some(),
            CacheLevel::L2 => self.l2[core].cache.probe(line).is_some(),
            CacheLevel::Llc => self.llc.cache.probe(line).is_some(),
            CacheLevel::Dram => true,
        }
    }

    /// Probes the GM (timing-unaware residence check for tests).
    pub fn probe_gm(&self, core: CoreId, line: LineAddr) -> bool {
        self.gm[core].lookup(line, u64::MAX).is_some()
    }

    /// In-flight classifier counts (debug/tests).
    pub fn classification(&self, core: CoreId) -> Option<crate::metrics::MissClassCounts> {
        self.classifiers[core].as_ref().map(|c| c.counts())
    }

    // =================================================================
    // Functional warming (SMARTS-style sampling, DESIGN.md §14)
    // =================================================================
    //
    // The `functional_*` family mirrors the detailed request flows with
    // timing collapsed: every access completes instantly at the nominal
    // uncontended latency of the level that supplied it. Architectural
    // and near-architectural state stays warm — caches (replacement,
    // dirty/prefetched/writeback bits), TLBs, the GhostMinion, the SUF
    // commit filters, prefetcher training, and the injection dedup ring
    // — while *no metrics counter is ever touched* (sampled reports
    // accumulate measured windows only; audited by `secpref-check`) and
    // no event, MSHR, port, or DRAM state is allocated. The Fig. 6
    // classifier shadow is deliberately not fed: it is instrumentation,
    // not warmth-bearing state, and feeding it would charge shadow
    // activity to unmeasured spans.

    /// Live (allocated, un-freed) requests. The sampling scheduler
    /// drains this to zero before switching to functional warming.
    pub fn live_requests(&self) -> usize {
        self.reqs.len() - self.free.len()
    }

    /// Nominal uncontended latency of a fetch served by `hl`.
    fn functional_latency(&self, core: CoreId, hl: HitLevel) -> u32 {
        let mut lat = self.l1d[core].latency;
        if hl >= HitLevel::L2 {
            lat += self.l2[core].latency;
        }
        if hl >= HitLevel::Llc {
            lat += self.llc.latency;
        }
        if hl == HitLevel::Dram {
            lat += FUNC_DRAM_LATENCY;
        }
        lat as u32
    }

    /// Functionally retires one load: the speculative walk of
    /// [`Hierarchy::issue_load`] and the commit engine of
    /// [`Hierarchy::commit_load`] compressed into one instant.
    pub fn functional_load(&mut self, now: Cycle, core: CoreId, ip: Ip, addr: Addr, ts: u64) {
        self.now = now;
        let _ = self.translate(core, addr); // dTLB/STLB stay warm
        let line = addr.line();
        if self.sec[core] {
            self.functional_secure_load(now, core, ip, line, ts);
        } else {
            let (hl, was_pf, pf_lat) = self.functional_demand_walk(now, core, ip, line, false);
            let fetch_latency = if hl == HitLevel::L1d {
                if was_pf {
                    pf_lat
                } else {
                    0
                }
            } else {
                let lat = self.functional_latency(core, hl);
                self.functional_fill_event(core, false, line, ip, now, lat);
                lat
            };
            self.functional_oc_train(now, core, ip, line, hl, was_pf, fetch_latency);
        }
    }

    /// Functionally retires one store (the non-speculative write walk;
    /// stores skip address translation in the detailed model too).
    pub fn functional_store(&mut self, now: Cycle, core: CoreId, ip: Ip, addr: Addr, _ts: u64) {
        self.now = now;
        self.functional_demand_walk(now, core, ip, addr.line(), true);
    }

    /// The GhostMinion load flow: GM ∥ L1D probe (replacement-neutral),
    /// speculative GM fill, then the commit-filter action — all at once.
    fn functional_secure_load(
        &mut self,
        now: Cycle,
        core: CoreId,
        ip: Ip,
        line: LineAddr,
        ts: u64,
    ) {
        let gm_hit = self.gm[core].lookup(line, ts).is_some();
        let mut hit_level = HitLevel::Dram;
        let mut hit_prefetched = false;
        let mut hit_pf_latency = 0u32;
        if gm_hit {
            self.functional_observe_l1(now, core, ip, line, true, false, 0);
            hit_level = HitLevel::L1d;
        } else if let Some((pf, lat)) = self.l1d[core].cache.mark_demand_use(line) {
            // One set scan stands in for the detailed probe plus the
            // commit-time mark_demand_use: both are replacement-neutral,
            // and with issue and commit compressed to the same instant the
            // line observed here is exactly the line marked there.
            if pf && self.pf_l1[core] {
                self.prefetchers[core].feedback(Feedback::Useful { line });
            }
            self.functional_observe_l1(now, core, ip, line, true, pf, lat);
            hit_level = HitLevel::L1d;
            hit_prefetched = pf;
            hit_pf_latency = lat;
        } else {
            // L1D missed this instant, so the commit-path L1D
            // mark_demand_use of the detailed flow is a guaranteed miss —
            // no need to replay it on the deeper-hit arms below.
            self.functional_observe_l1(now, core, ip, line, false, false, 0);
            if self.pf_l1[core] {
                self.prefetchers[core].feedback(Feedback::DemandMiss { line });
            }
            match self.l2[core]
                .cache
                .probe(line)
                .map(|m| (m.prefetched, m.fetch_latency))
            {
                Some((pf, lat)) => {
                    if pf && !self.pf_l1[core] {
                        self.prefetchers[core].feedback(Feedback::Useful { line });
                    }
                    self.functional_observe_l2(now, core, ip, line, true);
                    hit_level = HitLevel::L2;
                    hit_prefetched = pf;
                    hit_pf_latency = lat;
                }
                None => {
                    self.functional_observe_l2(now, core, ip, line, false);
                    if !self.pf_l1[core] {
                        self.prefetchers[core].feedback(Feedback::DemandMiss { line });
                    }
                    match self
                        .llc
                        .cache
                        .probe(line)
                        .map(|m| (m.prefetched, m.fetch_latency))
                    {
                        Some((pf, lat)) => {
                            if pf && !self.pf_l1[core] {
                                self.prefetchers[core].feedback(Feedback::Useful { line });
                            }
                            hit_level = HitLevel::Llc;
                            hit_prefetched = pf;
                            hit_pf_latency = lat;
                        }
                        None => {
                            if !self.pf_l1[core] {
                                self.prefetchers[core].feedback(Feedback::DemandMiss { line });
                            }
                        }
                    }
                }
            }
        }
        // Finish: the speculative fill goes into the GM, never the
        // hierarchy (exactly as in the detailed flow). Functional
        // retirement is in strict `ts` order, so no GM entry can carry a
        // timestamp younger than `ts`; residency after this fill is
        // therefore exactly what the commit-path `lookup_commit` would
        // observe — no second GM scan needed.
        let latency = self.functional_latency(core, hit_level);
        let mut gm_commit_hit = gm_hit;
        if hit_level != HitLevel::L1d {
            gm_commit_hit = self.gm[core].insert(line, ts, latency) != GmInsertOutcome::Dropped;
            self.functional_fill_event(core, false, line, ip, now, latency);
        }
        // Commit engine, compressed to the same instant.
        match self.filters[core].commit_action(hit_level, gm_commit_hit) {
            CommitAction::Drop => {
                if gm_commit_hit {
                    self.gm[core].remove(line);
                }
            }
            CommitAction::CommitWrite => {
                self.gm[core].remove(line);
                let wb = self.filters[core].wb_bits(hit_level);
                self.functional_fill(
                    core,
                    0,
                    line,
                    FillAttrs {
                        dirty: false,
                        prefetched: false,
                        wb_bit: wb.l1_to_l2,
                        wb_next: wb.l2_to_llc,
                        fetch_latency: 0,
                    },
                );
                self.functional_fill_event(core, true, line, ip, now + 1, 1);
            }
            CommitAction::Refetch => {
                let wb = self.filters[core].wb_bits(hit_level);
                self.functional_refetch(now, core, ip, line, wb);
            }
        }
        self.commit_count[core] += 1;
        if self.commit_count[core].is_multiple_of(16) {
            self.gm[core].expire_older_than(ts, now);
        }
        let fetch_latency = if hit_level == HitLevel::L1d {
            if hit_prefetched {
                hit_pf_latency
            } else {
                0
            }
        } else {
            latency
        };
        self.functional_oc_train(
            now,
            core,
            ip,
            line,
            hit_level,
            hit_prefetched,
            fetch_latency,
        );
    }

    /// A demand walk with replacement updates (non-secure loads and all
    /// stores), filling the missed levels per the detailed fill policy.
    fn functional_demand_walk(
        &mut self,
        now: Cycle,
        core: CoreId,
        ip: Ip,
        line: LineAddr,
        is_store: bool,
    ) -> (HitLevel, bool, u32) {
        let mut missed = [false; 3];
        let mut hit_level = HitLevel::Dram;
        let mut hit_prefetched = false;
        let mut hit_pf_latency = 0u32;
        for lvl in 0..3u8 {
            let touched = match lvl {
                0 => self.l1d[core].cache.touch_demand(line, is_store),
                1 => self.l2[core].cache.touch_demand(line, is_store),
                _ => self.llc.cache.touch_demand(line, is_store),
            };
            let pf_here = (lvl == 0) == self.pf_l1[core];
            if let Some((was_pf, lat)) = touched {
                if was_pf && pf_here {
                    self.prefetchers[core].feedback(Feedback::Useful { line });
                }
                match lvl {
                    0 => self.functional_observe_l1(now, core, ip, line, true, was_pf, lat),
                    1 => self.functional_observe_l2(now, core, ip, line, true),
                    _ => {}
                }
                hit_level = match lvl {
                    0 => HitLevel::L1d,
                    1 => HitLevel::L2,
                    _ => HitLevel::Llc,
                };
                hit_prefetched = was_pf;
                hit_pf_latency = lat;
                break;
            }
            match lvl {
                0 => self.functional_observe_l1(now, core, ip, line, false, false, 0),
                1 => self.functional_observe_l2(now, core, ip, line, false),
                _ => {}
            }
            if pf_here {
                self.prefetchers[core].feedback(Feedback::DemandMiss { line });
            }
            missed[lvl as usize] = true;
        }
        // Fill the missed levels deepest-first (the response unwind).
        for lvl in (0..3u8).rev() {
            if !missed[lvl as usize] {
                continue;
            }
            if is_store {
                if lvl == 0 {
                    self.functional_fill(
                        core,
                        0,
                        line,
                        FillAttrs {
                            dirty: true,
                            ..FillAttrs::default()
                        },
                    );
                } else if !self.sec[core] {
                    self.functional_fill(core, lvl, line, FillAttrs::default());
                }
            } else {
                self.functional_fill(core, lvl, line, FillAttrs::default());
            }
        }
        (hit_level, hit_prefetched, hit_pf_latency)
    }

    /// Mirrors [`Hierarchy::observe_demand_l1`] without the classifier
    /// shadow (on-access L1 prefetcher training only).
    #[allow(clippy::too_many_arguments)]
    fn functional_observe_l1(
        &mut self,
        now: Cycle,
        core: CoreId,
        ip: Ip,
        line: LineAddr,
        hit: bool,
        hit_prefetched: bool,
        pf_latency: u32,
    ) {
        if !self.pf_l1[core] || self.pf_none[core] || self.oc[core] {
            return;
        }
        let ev = AccessEvent {
            ip,
            line,
            cycle: now,
            hit,
            access_cycle: now,
            fetch_latency: if hit_prefetched { pf_latency } else { 0 },
            hit_prefetched,
            mshr_free: self.l1d[core].mshr.capacity() - self.l1d[core].mshr.occupancy(),
        };
        self.functional_train(now, core, &ev);
    }

    /// Mirrors [`Hierarchy::observe_demand_l2`] without the classifier
    /// shadow (on-access L2 prefetcher training only).
    fn functional_observe_l2(
        &mut self,
        now: Cycle,
        core: CoreId,
        ip: Ip,
        line: LineAddr,
        hit: bool,
    ) {
        if self.pf_l1[core] || self.pf_none[core] || self.oc[core] {
            return;
        }
        let ev = AccessEvent {
            ip,
            line,
            cycle: now,
            hit,
            access_cycle: now,
            fetch_latency: 0,
            hit_prefetched: false,
            mshr_free: self.l2[core].mshr.capacity() - self.l2[core].mshr.occupancy(),
        };
        self.functional_train(now, core, &ev);
    }

    /// Mirrors the on-commit training tail of [`Hierarchy::commit_load`].
    #[allow(clippy::too_many_arguments)]
    fn functional_oc_train(
        &mut self,
        now: Cycle,
        core: CoreId,
        ip: Ip,
        line: LineAddr,
        hit_level: HitLevel,
        hit_prefetched: bool,
        fetch_latency: u32,
    ) {
        if !self.oc[core] || self.pf_none[core] {
            return;
        }
        if self.pf_is_l1(core) {
            let ev = AccessEvent {
                ip,
                line,
                cycle: now,
                hit: hit_level == HitLevel::L1d,
                access_cycle: now,
                fetch_latency,
                hit_prefetched,
                mshr_free: self.l1d[core].mshr.capacity() - self.l1d[core].mshr.occupancy(),
            };
            self.functional_train(now, core, &ev);
        } else if hit_level >= HitLevel::L2 {
            let ev = AccessEvent {
                ip,
                line,
                cycle: now,
                hit: hit_level == HitLevel::L2,
                access_cycle: now,
                fetch_latency,
                hit_prefetched: false,
                mshr_free: self.l2[core].mshr.capacity() - self.l2[core].mshr.occupancy(),
            };
            self.functional_train(now, core, &ev);
        }
    }

    /// Mirrors [`Hierarchy::pf_fill_event`] without the classifier
    /// shadow: the prefetcher observes the fill iff the path (commit vs
    /// access) matches its training mode.
    fn functional_fill_event(
        &mut self,
        core: CoreId,
        commit_path: bool,
        line: LineAddr,
        ip: Ip,
        at: Cycle,
        latency: u32,
    ) {
        if !self.pf_l1[core] || self.pf_none[core] || commit_path != self.oc[core] {
            return;
        }
        let ev = FillEvent {
            line,
            ip,
            cycle: at,
            latency,
            by_prefetch: false,
        };
        self.prefetchers[core].observe_fill(&ev);
    }

    /// Mirrors [`Hierarchy::train_and_inject`]: candidates complete
    /// instantly via [`Hierarchy::functional_inject`].
    fn functional_train(&mut self, _now: Cycle, core: CoreId, ev: &AccessEvent) {
        self.pf_scratch.clear();
        self.prefetchers[core].observe_access(ev, &mut self.pf_scratch);
        self.pf_scratch.truncate(MAX_PF_PER_EVENT);
        for i in 0..self.pf_scratch.len() {
            let pf = self.pf_scratch[i];
            self.functional_inject(core, pf);
        }
    }

    /// Mirrors [`Hierarchy::inject_prefetch`] plus the prefetch walk:
    /// the dedup ring is maintained, targets resident at the origin
    /// level drop, and missed levels from the origin down fill
    /// instantly with the `prefetched` bit set. Queue-depth drops
    /// cannot occur — nothing is outstanding while warming.
    fn functional_inject(&mut self, core: CoreId, pf: PrefetchRequest) {
        if self.pf_recent[core].contains(&pf.line) {
            return;
        }
        let head = self.pf_recent_head[core];
        self.pf_recent[core][head] = pf.line;
        self.pf_recent_head[core] = (head + 1) % PF_RECENT;
        let origin: u8 = if self.pf_is_l1(core) && pf.fill_level == CacheLevel::L1d {
            0
        } else {
            1
        };
        let mut missed = [false; 3];
        let mut hit_level = HitLevel::Dram;
        for lvl in origin..3u8 {
            let hit = match lvl {
                0 => self.l1d[core].cache.touch_demand(pf.line, false).is_some(),
                1 => self.l2[core].cache.touch_demand(pf.line, false).is_some(),
                _ => self.llc.cache.touch_demand(pf.line, false).is_some(),
            };
            if hit {
                hit_level = match lvl {
                    0 => HitLevel::L1d,
                    1 => HitLevel::L2,
                    _ => HitLevel::Llc,
                };
                break;
            }
            missed[lvl as usize] = true;
        }
        let latency = self.functional_latency(core, hit_level);
        for lvl in (origin..3u8).rev() {
            if missed[lvl as usize] {
                self.functional_fill(
                    core,
                    lvl,
                    pf.line,
                    FillAttrs {
                        prefetched: true,
                        fetch_latency: latency,
                        ..FillAttrs::default()
                    },
                );
            }
        }
    }

    /// Mirrors [`Hierarchy::fill_cache`] with evicted dirty and
    /// clean-propagating lines cascading instantly.
    fn functional_fill(&mut self, core: CoreId, lvl: u8, line: LineAddr, attrs: FillAttrs) {
        let evicted = {
            let level = match lvl {
                0 => &mut self.l1d[core],
                1 => &mut self.l2[core],
                _ => &mut self.llc,
            };
            level.cache.fill(line, attrs)
        };
        if let Some(ev) = evicted {
            self.functional_eviction(core, lvl, ev);
        }
    }

    /// Mirrors [`Hierarchy::handle_eviction`]: useless feedback at the
    /// prefetcher's level, dirty writeback and GhostMinion clean-line
    /// propagation cascade to the next level. SUF propagation-skip
    /// scoring is metrics-only and therefore skipped.
    fn functional_eviction(&mut self, core: CoreId, lvl: u8, ev: secpref_mem::EvictedLine) {
        let pf_here = (lvl == 0) == self.pf_is_l1(core);
        if ev.prefetched && pf_here && lvl <= 1 {
            self.prefetchers[core].feedback(Feedback::Useless { line: ev.line });
        }
        if lvl >= 2 {
            return; // LLC dirty evictions write to DRAM: no cache state.
        }
        let target = lvl + 1;
        if ev.dirty {
            self.functional_fill(
                core,
                target,
                ev.line,
                FillAttrs {
                    dirty: true,
                    ..FillAttrs::default()
                },
            );
        } else if self.sec[core] && ev.wb_bit {
            self.functional_fill(
                core,
                target,
                ev.line,
                FillAttrs {
                    wb_bit: if lvl == 0 { ev.wb_next } else { false },
                    ..FillAttrs::default()
                },
            );
        }
    }

    /// Mirrors the commit-path re-fetch: a demand-kind walk whose L1D
    /// fill carries the filter's writeback bits.
    fn functional_refetch(&mut self, now: Cycle, core: CoreId, ip: Ip, line: LineAddr, wb: WbBits) {
        let mut missed = [false; 3];
        let mut hit_level = HitLevel::Dram;
        for lvl in 0..3u8 {
            let hit = match lvl {
                0 => self.l1d[core].cache.touch_demand(line, false).is_some(),
                1 => self.l2[core].cache.touch_demand(line, false).is_some(),
                _ => self.llc.cache.touch_demand(line, false).is_some(),
            };
            if hit {
                hit_level = match lvl {
                    0 => HitLevel::L1d,
                    1 => HitLevel::L2,
                    _ => HitLevel::Llc,
                };
                break;
            }
            missed[lvl as usize] = true;
        }
        for lvl in (0..3u8).rev() {
            if !missed[lvl as usize] {
                continue;
            }
            let attrs = if lvl == 0 {
                FillAttrs {
                    wb_bit: wb.l1_to_l2,
                    wb_next: wb.l2_to_llc,
                    ..FillAttrs::default()
                }
            } else {
                FillAttrs::default()
            };
            self.functional_fill(core, lvl, line, attrs);
        }
        if hit_level != HitLevel::L1d {
            let lat = self.functional_latency(core, hit_level);
            self.functional_fill_event(core, true, line, ip, now, lat);
        }
    }
}
