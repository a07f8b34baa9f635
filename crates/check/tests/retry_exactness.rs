//! Exactness of the blocked-request retry path under heavy contention.
//!
//! The hierarchy queues requests blocked on a full MSHR file or an
//! exhausted port as *retry runs*: one wheel entry per run of
//! consecutive same-key requests (DESIGN.md §10). The default
//! configuration only brushes against those limits on most traces, so
//! this test shrinks the L1D to 4 MSHRs and one port and runs secure and
//! non-secure cells on a GAP BC trace and a streaming trace, plus a
//! 2-core mix sharing the LLC. The digests below were recorded with the
//! per-request retry path that retry runs replaced; every counter, every
//! cycle and every recorded event must come out the same.
//!
//! Each cell also asserts that both retry kinds fired, so the test
//! cannot pass without exercising the path it guards.

use std::sync::Arc;

use secpref_exp::codec::report_to_string;
use secpref_exp::obs::events_jsonl;
use secpref_sim::{run_single_with_window_obs, ObsConfig, SimReport, System};
use secpref_trace::gen::gap::GapKernel;
use secpref_trace::suite::{trace_by_name, GapGenerator};
use secpref_trace::{Trace, TraceGenerator};
use secpref_types::fnv::{fnv1a64, FNV_OFFSET};
use secpref_types::{CorePolicy, PrefetchMode, PrefetcherKind, SecureMode, SystemConfig};

const WARMUP: u64 = 2_000;
const MEASURE: u64 = 12_000;

/// Expected FNV-1a-64 report digest per (config, trace) cell.
const PINNED: [(&str, &str, u64); 6] = [
    ("nonsecure/nopf", "bc_small", 0x0C6DF411DC3E1A0B),
    ("nonsecure/nopf", "bwaves_like", 0xFB56709C0B734A95),
    (
        "ghostminion+suf/ip-stride-on-commit",
        "bc_small",
        0xC502DBDCCCF86560,
    ),
    (
        "ghostminion+suf/ip-stride-on-commit",
        "bwaves_like",
        0xEB1C48CFE91B4CF8,
    ),
    ("tsb+suf/berti", "bc_small", 0xDC8160F0A17E367F),
    ("tsb+suf/berti", "bwaves_like", 0x26060576FF9A52F0),
];
/// Expected digest of the 2-core mix report.
const PINNED_MIX: u64 = 0x4D561F0454111ACD;
/// Expected digest of the events JSONL of an obs-enabled run of the
/// GhostMinion cell on the BC trace (report digest, then events digest).
const PINNED_OBS: (u64, u64) = (0xC502DBDCCCF86560, 0xF2120EA95CC7FBFE);

/// Shrinks the L1D until both MSHRs and ports are a bottleneck.
fn contended(mut cfg: SystemConfig) -> SystemConfig {
    cfg.l1d.mshrs = 4;
    cfg.l1d.ports_per_cycle = 1;
    cfg.validate().expect("contended config must be valid");
    cfg
}

fn configs() -> [(&'static str, SystemConfig); 3] {
    let gm = SystemConfig::baseline(1)
        .with_secure(SecureMode::GhostMinion)
        .with_mode(PrefetchMode::OnCommit)
        .with_suf(true);
    [
        ("nonsecure/nopf", contended(SystemConfig::baseline(1))),
        (
            "ghostminion+suf/ip-stride-on-commit",
            contended(gm.clone().with_prefetcher(PrefetcherKind::IpStride)),
        ),
        (
            "tsb+suf/berti",
            contended(
                gm.with_prefetcher(PrefetcherKind::Berti)
                    .with_timely_secure(true),
            ),
        ),
    ]
}

fn traces() -> [(&'static str, Arc<Trace>); 2] {
    let n = (WARMUP + MEASURE) as usize;
    let bc = GapGenerator::new("bc_small", GapKernel::Bc, 20_000, 12, 7).generate(n);
    let bwaves = trace_by_name("bwaves_like")
        .expect("bwaves_like is in the suite")
        .generate(n);
    [
        ("bc_small", Arc::new(bc)),
        ("bwaves_like", Arc::new(bwaves)),
    ]
}

/// Both retry kinds fired somewhere in the hierarchy.
fn assert_contended(label: &str, r: &SimReport) {
    for (core, m) in r.cores.iter().enumerate() {
        let mshr = m.l1d.mshr_full_stalls + m.l2.mshr_full_stalls + m.llc.mshr_full_stalls;
        let port = m.l1d.port_stalls + m.l2.port_stalls + m.llc.port_stalls;
        assert!(mshr > 0, "{label} core {core}: no MSHR-full stalls");
        assert!(port > 0, "{label} core {core}: no port stalls");
    }
}

fn run(cfg: SystemConfig, traces: Vec<Arc<Trace>>) -> SimReport {
    let mut sys = System::new(cfg, traces).with_window(WARMUP, MEASURE);
    sys.run();
    sys.report()
}

#[test]
fn contended_single_core_reports_are_pinned() {
    let traces = traces();
    let mut mismatches = Vec::new();
    let mut k = 0;
    for (label, cfg) in configs() {
        for (trace_name, trace) in &traces {
            let (pl, pt, expected) = PINNED[k];
            k += 1;
            assert_eq!((pl, pt), (label, *trace_name), "cell order changed");
            let r = run(cfg.clone(), vec![trace.clone()]);
            assert_contended(label, &r);
            let actual = fnv1a64(report_to_string(&r).as_bytes(), FNV_OFFSET);
            if actual != expected {
                mismatches.push(format!(
                    "    (\"{label}\", \"{trace_name}\", {actual:#018X}), // was {expected:#018X}"
                ));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "contended report digests moved — retry path is not exact:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn contended_two_core_mix_is_pinned() {
    let [(_, gm), (_, tsb)] = [configs()[1].clone(), configs()[2].clone()];
    let cfg = contended(SystemConfig::baseline(2))
        .with_core_policies(vec![CorePolicy::of(&gm), CorePolicy::of(&tsb)]);
    cfg.validate().expect("mix config must be valid");
    let [(_, bc), (_, bwaves)] = traces();
    let r = run(cfg, vec![bc, bwaves]);
    assert_contended("mix", &r);
    let actual = fnv1a64(report_to_string(&r).as_bytes(), FNV_OFFSET);
    assert_eq!(
        actual, PINNED_MIX,
        "mix digest moved: {actual:#018X} (pinned {PINNED_MIX:#018X})"
    );
}

#[test]
fn contended_obs_capture_is_pinned() {
    let (_, cfg) = configs()[1].clone();
    let [(_, bc), _] = traces();
    let obs = ObsConfig::enabled();
    let (r, cap) = run_single_with_window_obs(&cfg, &bc, WARMUP, MEASURE, &obs);
    assert_contended("obs", &r);
    let cap = cap.expect("obs was enabled");
    let actual = (
        fnv1a64(report_to_string(&r).as_bytes(), FNV_OFFSET),
        fnv1a64(events_jsonl(&cap, &obs).as_bytes(), FNV_OFFSET),
    );
    assert_eq!(
        actual, PINNED_OBS,
        "obs digests moved: ({:#018X}, {:#018X}) (pinned ({:#018X}, {:#018X}))",
        actual.0, actual.1, PINNED_OBS.0, PINNED_OBS.1
    );
}
