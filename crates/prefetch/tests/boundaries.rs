//! Boundary-behavior pins for the prefetcher hot tables.
//!
//! These tests pin the *eviction and saturation* semantics of the three
//! prefetchers whose internal lookups the hot-structure overhaul
//! replaces with indexed structures: Berti's delta table (LRU victim),
//! Bingo's filter/accumulation tables (LRU victim, commit-on-evict,
//! LRU refresh), and IPCP's CSPT confidence saturation + RST churn.
//! They were written and pinned against the linear-scan implementations
//! *before* the indexed rewrites, so a rewrite that silently changes a
//! victim choice or a saturation bound fails here, not just in the
//! whole-system report digests.
//!
//! Two styles are used: semantic assertions that name the expected
//! victim explicitly, and FNV-1a digests over the full prefetch output
//! stream of a deterministic table-churning drive (an exact pin of
//! every target and fill level the old code produced).

use secpref_prefetch::{simple_access, BertiEngine, Bingo, Ipcp, PfBuf, Prefetcher};
use secpref_types::fnv::{fnv1a64, FNV_OFFSET};
use secpref_types::{CacheLevel, Ip, LineAddr, PrefetchRequest};

/// FNV-1a-64 over the prefetch output stream (target line + fill level).
fn digest_requests(reqs: &[PrefetchRequest]) -> u64 {
    reqs.iter().fold(FNV_OFFSET, |hash, r| {
        let level: u8 = match r.fill_level {
            CacheLevel::L1d => 1,
            CacheLevel::L2 => 2,
            _ => 0xFF,
        };
        fnv1a64(&[level], fnv1a64(&r.line.raw().to_le_bytes(), hash))
    })
}

// ---------------------------------------------------------------------
// Berti: delta-table-full → LRU victim choice
// ---------------------------------------------------------------------

/// Trains `ip` on a +1 stream at 5-cycle latency starting at `base`,
/// enough rounds to exceed `MIN_SEARCHES` and establish the delta entry.
fn berti_train_stream(e: &mut BertiEngine, ip: u64, base: u64, rounds: u64) {
    for i in 0..rounds {
        let t = i * 10;
        e.record_access(Ip::new(ip), LineAddr::new(base + i), t);
        e.train(Ip::new(ip), LineAddr::new(base + i), t, 5);
    }
}

fn berti_prefetches(e: &BertiEngine, ip: u64, line: u64) -> Vec<PrefetchRequest> {
    let mut out = PfBuf::new();
    e.prefetches(Ip::new(ip), LineAddr::new(line), 16, &mut out);
    out.to_vec()
}

#[test]
fn berti_full_table_evicts_lru_entry() {
    let mut e = BertiEngine::new();
    // Fill the 16-entry delta table with 16 IPs, oldest-trained first.
    // Disjoint 4096-line ranges keep the streams from sharing lines.
    let ips: Vec<u64> = (0..16).map(|k| 0x1000 + k * 0x40).collect();
    for (k, &ip) in ips.iter().enumerate() {
        berti_train_stream(&mut e, ip, (k as u64) << 12, 20);
    }
    for (k, &ip) in ips.iter().enumerate() {
        assert!(
            !berti_prefetches(&e, ip, ((k as u64) << 12) + 100).is_empty(),
            "ip #{k} trained"
        );
    }
    // Refresh every IP except the first: the first becomes the LRU entry.
    for (k, &ip) in ips.iter().enumerate().skip(1) {
        berti_train_stream(&mut e, ip, ((k as u64) << 12) + 512, 8);
    }
    // A 17th IP must evict exactly the stale ip[0].
    let newcomer = 0x9999u64;
    berti_train_stream(&mut e, newcomer, 17 << 12, 20);
    assert!(
        berti_prefetches(&e, ips[0], 100).is_empty(),
        "LRU entry (ip[0]) must be the victim"
    );
    for (k, &ip) in ips.iter().enumerate().skip(1) {
        assert!(
            !berti_prefetches(&e, ip, ((k as u64) << 12) + 600).is_empty(),
            "refreshed ip #{k} must survive"
        );
    }
    assert!(
        !berti_prefetches(&e, newcomer, (17 << 12) + 100).is_empty(),
        "newcomer trained into the freed slot"
    );
}

// ---------------------------------------------------------------------
// Bingo: FT overflow loses the first touch; AT overflow commits the
// LRU victim's footprint (and an AT touch refreshes LRU).
// ---------------------------------------------------------------------

fn bingo_access(p: &mut Bingo, ip: u64, line: u64) -> Vec<PrefetchRequest> {
    let mut out = PfBuf::new();
    p.observe_access(&simple_access(ip, line, 0, false), &mut out);
    out.to_vec()
}

#[test]
fn bingo_ft_overflow_drops_first_touch() {
    let mut p = Bingo::new();
    let ip = 0x42u64;
    // First touch of region 0 at offset 0 allocates its FT entry...
    bingo_access(&mut p, ip, 0);
    // ...then 64 more single-touch regions overflow the 64-entry FT,
    // evicting region 0 (the LRU entry).
    for r in 1..=64u64 {
        bingo_access(&mut p, ip, r * 32);
    }
    // Region 0's next touches therefore start a *fresh* trigger at
    // offset 5 — the original offset-0 touch is forgotten.
    bingo_access(&mut p, ip, 5);
    bingo_access(&mut p, ip, 6); // FT→AT: bitmap {5,6}, trigger offset 5
                                 // Flush the AT (distinct IP so the flush commits under other keys).
    for r in 1000..(1000 + 132u64) {
        bingo_access(&mut p, 0x77, r * 32 + 1);
        bingo_access(&mut p, 0x77, r * 32 + 2);
    }
    // Probe a fresh region at offset 5: the committed short key is
    // (ip, 5) with footprint {5,6} → exactly offset 6 is prefetched.
    let at5 = bingo_access(&mut p, ip, 7000 * 32 + 5);
    assert_eq!(
        at5.iter().map(|r| r.line.raw()).collect::<Vec<_>>(),
        vec![7000 * 32 + 6],
        "footprint must be {{5,6}} with trigger offset 5"
    );
    // Probe at offset 0: had the FT entry survived the overflow, the
    // footprint would be {0,5,6} with trigger offset 0 and this probe
    // would fire instead. It must not.
    let at0 = bingo_access(&mut p, ip, 8000 * 32);
    assert!(at0.is_empty(), "offset-0 trigger was evicted: {at0:?}");
}

#[test]
fn bingo_at_overflow_commits_lru_victim_and_touch_refreshes() {
    let ip = 0x55u64;
    let drive = |refresh: bool| -> Bingo {
        let mut p = Bingo::new();
        // Fill the 128-entry AT with regions 0..=127 (two touches each).
        for r in 0..128u64 {
            bingo_access(&mut p, ip, r * 32 + 1);
            bingo_access(&mut p, ip, r * 32 + 2);
        }
        if refresh {
            // Touch region 0 again: refreshes its AT LRU stamp.
            bingo_access(&mut p, ip, 3);
        }
        // One more region forces an AT eviction + footprint commit.
        bingo_access(&mut p, ip, 500 * 32 + 1);
        bingo_access(&mut p, ip, 500 * 32 + 2);
        p
    };

    // With the refresh, the victim is region 1; region 0 stays in the
    // AT. Re-triggering region 1's exact trigger line hits the long
    // key; re-triggering region 0's does nothing (still accumulating).
    let mut p = drive(true);
    let r1 = bingo_access(&mut p, ip, 32 + 1);
    assert_eq!(
        r1.iter().map(|r| r.line.raw()).collect::<Vec<_>>(),
        vec![32 + 2],
        "refresh shifts the AT victim to region 1"
    );
    assert!(
        bingo_access(&mut p, ip, 1).is_empty(),
        "region 0 still in AT"
    );

    // Without the refresh, region 0 is the LRU victim instead.
    let mut p = drive(false);
    let r0 = bingo_access(&mut p, ip, 1);
    assert_eq!(
        r0.iter().map(|r| r.line.raw()).collect::<Vec<_>>(),
        vec![2],
        "without refresh region 0 is the AT victim"
    );
    assert!(
        bingo_access(&mut p, ip, 32 + 1).is_empty(),
        "region 1 still in AT"
    );
}

// ---------------------------------------------------------------------
// IPCP: CSPT confidence saturates (noise-resistant) + churn digest
// ---------------------------------------------------------------------

fn ipcp_drive(p: &mut Ipcp, ip: u64, lines: &[u64]) -> Vec<PrefetchRequest> {
    let mut out = PfBuf::new();
    let mut all = Vec::new();
    for (i, &l) in lines.iter().enumerate() {
        out.clear();
        p.observe_access(&simple_access(ip, l, i as u64, false), &mut out);
        all.extend(out.iter().copied());
    }
    all
}

#[test]
fn ipcp_cspt_saturation_survives_brief_noise() {
    let mut p = Ipcp::new();
    // Long +1,+2,+3 CPLX training: the chain's CSPT entries saturate
    // their 2-bit confidence at 3.
    let mut lines = Vec::new();
    let mut cur = 10_000u64;
    for _ in 0..40 {
        for d in [1u64, 2, 3] {
            cur += d;
            lines.push(cur);
        }
    }
    assert!(!ipcp_drive(&mut p, 0x99, &lines).is_empty(), "CPLX trained");
    // Two wild deltas: saturated (conf=3) entries can lose at most two
    // points here, staying at or above the conf>=2 issue threshold.
    ipcp_drive(&mut p, 0x99, &[500_000, 900_000]);
    // Resume the pattern from where the noise left us: prefetches must
    // reappear within two pattern periods.
    let mut resume = Vec::new();
    let mut cur = 900_000u64;
    for _ in 0..2 {
        for d in [1u64, 2, 3] {
            cur += d;
            resume.push(cur);
        }
    }
    assert!(
        !ipcp_drive(&mut p, 0x99, &resume).is_empty(),
        "saturated CSPT confidence must survive two noise deltas"
    );
}

// ---------------------------------------------------------------------
// Digest pins: exact output of deterministic table-churning drives
// ---------------------------------------------------------------------

#[test]
fn bingo_churn_digest_is_pinned() {
    let mut p = Bingo::new();
    let mut buf = PfBuf::new();
    let mut out = Vec::new();
    // Deterministic churn: interleaved regions from three IPs, enough to
    // overflow FT and AT repeatedly, with recurring footprints so the
    // PHT predicts (exercising victim choice on every path).
    for round in 0..6u64 {
        for r in 0..80u64 {
            let ip = 0x10 + (r % 3) * 8;
            let base = (round * 80 + r) * 32;
            for off in [0u64, 3, 9, (r % 7) + 10] {
                buf.clear();
                p.observe_access(&simple_access(ip, base + off, round, false), &mut buf);
                out.extend(buf.iter().copied());
            }
        }
    }
    assert_eq!(
        digest_requests(&out),
        0x3F62_ECD4_DD59_5933,
        "bingo churn output changed ({} reqs) — eviction semantics moved",
        out.len()
    );
}

#[test]
fn ipcp_churn_digest_is_pinned() {
    let mut p = Ipcp::new();
    let mut buf = PfBuf::new();
    let mut out = Vec::new();
    // Churn all three structures: 24 IPs alias the 128-entry IP table
    // lightly, accesses spread over 20 regions churn the 8-entry RST,
    // and mixed stride/complex patterns exercise the CSPT.
    let mut cycle = 0u64;
    for round in 0..5u64 {
        for k in 0..24u64 {
            let ip = 0x400 + k * 0x11;
            let base = (k % 20) * 32 * 4 + round * 7;
            for step in 0..6u64 {
                let line = base + step * (1 + k % 3) + (round % 2) * step * step;
                buf.clear();
                p.observe_access(&simple_access(ip, line, cycle, false), &mut buf);
                out.extend(buf.iter().copied());
                cycle += 1;
            }
        }
    }
    assert_eq!(
        digest_requests(&out),
        0x97BD_2974_B2E4_4D5C,
        "ipcp churn output changed ({} reqs) — table semantics moved",
        out.len()
    );
}

#[test]
fn berti_churn_digest_is_pinned() {
    let mut e = BertiEngine::new();
    let mut buf = PfBuf::new();
    let mut out = Vec::new();
    // 24 IPs compete for the 16-entry delta table; varying strides and
    // latencies churn victims and coverage ranking continuously.
    let mut t = 0u64;
    for round in 0..4u64 {
        for k in 0..24u64 {
            let ip = 0x2000 + k * 0x8;
            let stride = 1 + (k % 5);
            let base = k << 14;
            for i in 0..12u64 {
                let line = base + (round * 12 + i) * stride;
                e.record_access(Ip::new(ip), LineAddr::new(line), t);
                e.train(Ip::new(ip), LineAddr::new(line), t, 5 + (k % 3) as u32 * 10);
                buf.clear();
                e.prefetches(
                    Ip::new(ip),
                    LineAddr::new(line),
                    (i % 16) as usize,
                    &mut buf,
                );
                out.extend(buf.iter().copied());
                t += 10;
            }
        }
    }
    assert_eq!(
        digest_requests(&out),
        0xE2D1_3679_EF86_0170,
        "berti churn output changed ({} reqs) — ranking/eviction moved",
        out.len()
    );
}
