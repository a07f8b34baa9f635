//! Exactness of the core's load-issue order.
//!
//! Drives `Core` directly through a recording `LoadPort` that rejects
//! every k-th attempt (backpressure, counted in `issue_rejects`) and
//! completes each accepted load after a pseudo-random latency. The
//! traces mix dependent-load chains with mispredicting branches, so
//! dependents are squashed both while waiting on an unfinished producer
//! and together with their producers; each run also drains to
//! functional mode mid-trace and re-enters detailed mode. Every cell
//! runs twice, cycle by cycle and skipping idle cycles via
//! `Core::next_wake` the way `System::run` does, and the two issue
//! sequences must match.
//!
//! The digests pin the `(cycle, lq_id, trace_idx)` issue sequence and
//! the core statistics. They were recorded with the load queue scanned
//! linearly every cycle, before the scan became a walk over issuable
//! slots (DESIGN.md §10).

use std::io::Cursor;
use std::sync::Arc;

use secpref_cpu::{Core, CoreEvent, FunctionalPort, LoadIssue, LoadPort};
use secpref_trace::{Instr, Trace};
use secpref_tracestore::{ReadSeek, StreamFeed, TraceFeed, TraceReader, TraceWriter};
use secpref_types::fnv::{fnv1a64, FNV_OFFSET};
use secpref_types::rng::Xoshiro256ss;
use secpref_types::{config::CoreConfig, Addr, CoreId, Cycle, FillInfo, HitLevel, Ip};

const TRACE_LEN: usize = 6_000;
/// Every k-th issue attempt (wrong-path ones included) is rejected.
const REJECT_EVERY: u64 = 7;
/// Detailed mode drains once this many instructions have retired...
const DRAIN_AFTER: u64 = 2_500;
/// ...and functional mode then retires this many.
const FUNCTIONAL_SPAN: u64 = 700;

/// Expected digest per cell: (name, streamed, digest).
const PINNED: [(&str, bool, u64); 4] = [
    ("default", false, 0xEF6BF2BDC08F2C16),
    ("default", true, 0xEF6BF2BDC08F2C16),
    ("narrow", false, 0x4AA6B3E7A23FA0A4),
    ("narrow", true, 0x4AA6B3E7A23FA0A4),
];

/// The default core and an odd-sized one whose load queue ends inside a
/// 64-slot word and whose issue width is 3.
fn core_cfg(name: &str) -> CoreConfig {
    match name {
        "default" => CoreConfig::default(),
        "narrow" => CoreConfig {
            rob_entries: 96,
            lq_entries: 70,
            load_issue_width: 3,
            ..CoreConfig::default()
        },
        _ => unreachable!("unknown cell {name}"),
    }
}

/// Load addresses encode their trace index (`addr >> 6`), so the port
/// can record which instruction each issue belongs to.
fn gen_trace(seed: u64) -> Trace {
    let mut rng = Xoshiro256ss::seed_from_u64(seed);
    let mut instrs = Vec::with_capacity(TRACE_LEN);
    let mut wrong_path = Vec::new();
    while instrs.len() < TRACE_LEN {
        let idx = instrs.len() as u64;
        match rng.gen_u32(100) {
            // A pointer chase: each load depends on the one before it,
            // then a branch that often mispredicts.
            0..=14 => {
                let len = 2 + rng.gen_u64(6);
                for i in 0..len {
                    let dep = if i == 0 { 0 } else { 1 };
                    let at = instrs.len() as u64;
                    instrs.push(Instr::load_dep(0x100 + i, at << 6, dep));
                }
                let at = instrs.len() as u32;
                instrs.push(Instr::branch(0x200 + rng.gen_u64(4), rng.gen_u32(2) == 0));
                if rng.gen_u32(4) == 0 {
                    wrong_path.push(at);
                }
            }
            // A load that depends on an earlier instruction, which may
            // or may not be a load.
            15..=34 => {
                let dist = 1 + rng.gen_u32(24) as u16;
                instrs.push(Instr::load_dep(0x300, idx << 6, dist));
            }
            35..=49 => instrs.push(Instr::load(0x400 + rng.gen_u64(8), idx << 6)),
            50..=64 => {
                // Mostly-taken branches: some mispredict.
                instrs.push(Instr::branch(0x500 + rng.gen_u64(16), rng.gen_u32(5) != 0));
            }
            65..=74 => instrs.push(Instr::store(0x600, (idx << 6) | 0x20)),
            _ => instrs.push(Instr::alu(0x700)),
        }
    }
    instrs.truncate(TRACE_LEN);
    let mut t = Trace::new("issue_order", instrs);
    for at in wrong_path {
        if (at as usize) < TRACE_LEN {
            t.attach_wrong_path(at, vec![Addr::new(0xdead_0000 + u64::from(at) * 64)]);
        }
    }
    t
}

fn stream_feed(trace: &Trace, rob_entries: usize) -> TraceFeed {
    let mut w = TraceWriter::create(Vec::new(), &trace.name, 512).unwrap();
    for i in trace.instrs.iter() {
        w.push(i).unwrap();
    }
    for (&idx, addrs) in &trace.wrong_path {
        w.push_wrong_path(u64::from(idx), addrs.clone());
    }
    let (_, bytes) = w.finish().unwrap();
    let reader = TraceReader::open(Box::new(Cursor::new(bytes)) as Box<dyn ReadSeek>).unwrap();
    TraceFeed::Stream(Box::new(StreamFeed::for_core(reader, rob_entries)))
}

/// Records every issue attempt, rejects every k-th, and completes each
/// accepted load after a latency derived from its address and cycle.
#[derive(Default)]
struct RecordingPort {
    attempts: u64,
    /// `(cycle, lq_id, trace_idx)` of every accepted issue.
    issued: Vec<(Cycle, u32, u64)>,
    /// `(due, seq, lq_id, gen, issued_at)`; seq keeps delivery FIFO.
    inflight: Vec<(Cycle, u64, u32, u32, Cycle)>,
}

impl RecordingPort {
    fn latency(addr: u64, now: Cycle) -> Cycle {
        let h = fnv1a64(&(addr ^ now.rotate_left(17)).to_le_bytes(), FNV_OFFSET);
        match h % 10 {
            0..=2 => 1,
            3..=6 => 4 + h % 40,
            _ => 150 + h % 300,
        }
    }

    fn next_due(&self) -> Cycle {
        self.inflight
            .iter()
            .map(|e| e.0)
            .min()
            .unwrap_or(Cycle::MAX)
    }

    /// Delivers every completion due at or before `now`, in (due, issue)
    /// order.
    fn deliver(&mut self, now: Cycle, core: &mut Core) {
        self.inflight.sort_unstable();
        let n = self.inflight.partition_point(|e| e.0 <= now);
        for (due, _, lq, gen, issued_at) in self.inflight.drain(..n) {
            core.complete_load(lq, gen, fill(due, issued_at));
        }
    }
}

fn fill(filled_at: Cycle, issued_at: Cycle) -> FillInfo {
    FillInfo {
        line: secpref_types::LineAddr::new(0),
        hit_level: HitLevel::L2,
        issued_at,
        filled_at,
        merged_with_prefetch: false,
        hit_prefetched_line: false,
        fetch_latency: (filled_at - issued_at) as u32,
    }
}

impl LoadPort for RecordingPort {
    fn try_issue_load(&mut self, now: Cycle, req: LoadIssue) -> bool {
        self.attempts += 1;
        if self.attempts.is_multiple_of(REJECT_EVERY) {
            return false;
        }
        self.issued.push((now, req.lq_id, req.addr.raw() >> 6));
        if !req.wrong_path {
            let seq = self.attempts;
            let due = now + Self::latency(req.addr.raw(), now);
            self.inflight.push((due, seq, req.lq_id, req.gen, now));
        }
        true
    }
}

struct NullPort;
impl FunctionalPort for NullPort {
    fn functional_load(&mut self, _: CoreId, _: Ip, _: Addr, _: u64) {}
    fn functional_store(&mut self, _: CoreId, _: Ip, _: Addr, _: u64) {}
}

struct Outcome {
    issued: Vec<(Cycle, u32, u64)>,
    stats: [u64; 7],
    /// Unissued loads squashed while their producer was unfinished.
    squashed_waiting: u64,
    drained_waiting: usize,
}

fn drive(cfg: &CoreConfig, feed: TraceFeed, skip: bool) -> Outcome {
    let mut core = Core::from_feed(0, cfg.clone(), feed);
    let mut port = RecordingPort::default();
    let mut events: Vec<CoreEvent> = Vec::new();
    let mut squashed_waiting = 0;
    let mut drained_waiting = None;
    let mut now: Cycle = 0;
    loop {
        port.deliver(now, &mut core);
        let (retired, squashed, waiting) = (core.retired(), core.squashed(), core.lq_waiting());
        core.tick(now, &mut port, &mut events);
        // A squash stalls dispatch for the rest of the cycle, so the
        // drop in waiting slots is exactly the squashed waiting ones.
        if core.squashed() > squashed {
            squashed_waiting += (waiting - core.lq_waiting()) as u64;
        }
        if core.is_done() {
            break;
        }
        if drained_waiting.is_none() && core.retired() >= DRAIN_AFTER && core.lq_waiting() > 0 {
            drained_waiting = Some(core.lq_waiting());
            core.drain_to_functional();
            assert_eq!(core.lq_occupancy(), 0);
            assert_eq!(core.lq_waiting(), 0);
            // The abandoned loads complete later with stale generations.
            assert_eq!(
                core.functional_step(FUNCTIONAL_SPAN, &mut NullPort),
                FUNCTIONAL_SPAN
            );
            now += 1;
            continue;
        }
        let mut next = now + 1;
        if skip && core.retired() == retired {
            let wake = core.next_wake(now).min(port.next_due());
            assert_ne!(wake, Cycle::MAX, "core stuck at cycle {now}");
            next = wake.max(next);
        }
        now = next;
    }
    assert_eq!(core.lq_occupancy(), 0);
    let s = core.stats();
    Outcome {
        issued: port.issued,
        stats: [
            s.retired,
            s.dispatched,
            s.branches,
            s.mispredicts,
            s.squashed,
            s.wrong_path_loads,
            s.issue_rejects,
        ],
        squashed_waiting,
        drained_waiting: drained_waiting.expect("drain happened"),
    }
}

fn digest(o: &Outcome) -> u64 {
    let mut h = FNV_OFFSET;
    for &(cycle, lq, idx) in &o.issued {
        h = fnv1a64(&cycle.to_le_bytes(), h);
        h = fnv1a64(&lq.to_le_bytes(), h);
        h = fnv1a64(&idx.to_le_bytes(), h);
    }
    for s in o.stats {
        h = fnv1a64(&s.to_le_bytes(), h);
    }
    h
}

#[test]
fn issue_order_matches_pinned_digests() {
    let trace = gen_trace(0x155e_0de5);
    let mut mismatches = Vec::new();
    for &(name, streamed, expected) in &PINNED {
        let cfg = core_cfg(name);
        let feed = || {
            if streamed {
                stream_feed(&trace, cfg.rob_entries)
            } else {
                TraceFeed::Mem(Arc::new(trace.clone()))
            }
        };
        let stepped = drive(&cfg, feed(), false);
        let skipped = drive(&cfg, feed(), true);
        assert_eq!(
            stepped.issued, skipped.issued,
            "{name}/streamed={streamed}: skipping idle cycles changed the issue sequence"
        );
        assert_eq!(stepped.stats, skipped.stats, "{name}/streamed={streamed}");
        // Anti-vacuity: the paths this test guards all fired.
        assert_eq!(
            stepped.stats[0], TRACE_LEN as u64,
            "{name}: every instruction retires"
        );
        assert!(stepped.stats[6] > 0, "{name}: no issue was rejected");
        assert!(
            stepped.squashed_waiting > 0,
            "{name}: no waiting load was squashed"
        );
        assert!(
            stepped.drained_waiting > 0,
            "{name}: drain found no waiting load"
        );
        assert!(stepped.stats[5] > 0, "{name}: no wrong-path load");
        let actual = digest(&stepped);
        if actual != expected {
            mismatches.push(format!(
                "{name}/streamed={streamed}: expected {expected:#018X}, got {actual:#018X}"
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "issue order drifted:\n{}",
        mismatches.join("\n")
    );
}
