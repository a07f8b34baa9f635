//! Host-speed probe.
//!
//! The benchmark runs on shared hosts where one thread's speed changes by
//! half from one second to the next and drifts over minutes, and a slow
//! phase can last a whole run. To keep runs comparable, every timed
//! operation is also measured against a fixed probe: a small model of a
//! 16-way LRU cache fed a seeded address stream. It is code of the
//! benchmark's own, so no change to the simulator moves it. Like the
//! simulator's inner loops it is branchy, data-dependent work whose time
//! goes mostly to cache misses (the model's arrays take 12 MiB), so slow
//! host phases slow it much as they slow a simulation.
//!
//! A host-normalized time is a wall time divided by the host's slowdown:
//! the probe's time over [`REFERENCE`].
//!
//! A serial operation is timed between two probes on its own thread while
//! a second thread runs probes back to back on the host's other core
//! ([`timed`]), so the operation and its probes always share the host with
//! the same load, whatever else the host runs. On the 2-vCPU machine the
//! bounds were set on, that cut the spread of `secure_detail`'s
//! host-normalized times over six seeds from 12% to 5% (interquartile
//! range over median). A parallel batch keeps both cores busy itself; a
//! thread probes every so often while it runs ([`sample_during`]).
//!
//! A probe with a core to itself is timed by wall time, which counts
//! everything that slows the host, the hypervisor taking the core
//! included. A probe that shares a core with sweep workers is timed by
//! its thread's CPU time, since its wall time would count its waits for
//! the core, which measure the scheduler, not the host.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const SETS: usize = 65_536;
const WAYS: usize = 16;

/// The probe's time at the reference host speed, for [`FULL`] accesses:
/// near its fastest time on the 2-vCPU machine the bounds were set on.
const REFERENCE: Duration = Duration::from_millis(10);

/// Accesses in one full probe (10 ms at reference speed).
pub const FULL: u32 = 150_000;
/// Accesses in one short probe, for sampling while other threads run.
pub const SHORT: u32 = FULL / 8;

pub struct HostProbe {
    tags: Vec<u64>,
    ages: Vec<u32>,
    /// Address stream state; it carries over from one probe to the next,
    /// so no probe finds the lines an earlier one left.
    x: u64,
    /// Accesses made so far (the LRU clock).
    n: u32,
}

impl Default for HostProbe {
    /// A probe whose arrays are mapped and warm: one full probe has run.
    fn default() -> Self {
        let mut probe = HostProbe {
            tags: vec![u64::MAX; SETS * WAYS],
            ages: vec![0; SETS * WAYS],
            x: 0x2545_f491_4f6c_dd1d,
            n: 0,
        };
        probe.run(FULL);
        probe
    }
}

impl HostProbe {
    /// Runs `accesses` probe accesses and returns the host's slowdown:
    /// their time by `clock` over the reference time.
    pub fn slowdown(&mut self, accesses: u32, clock: Clock) -> f64 {
        let start = clock.now();
        let hits = self.run(accesses);
        let elapsed = clock.now() - start;
        std::hint::black_box(hits);
        let reference = REFERENCE.as_secs_f64() * f64::from(accesses) / f64::from(FULL);
        elapsed.as_secs_f64() / reference
    }

    fn run(&mut self, accesses: u32) -> u64 {
        let mut x = self.x;
        let mut base = 0u64;
        let mut hits = 0u64;
        for _ in 0..accesses {
            self.n = self.n.wrapping_add(1);
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // A new region one time in four, else a line near the last one.
            let addr = if x & 3 == 0 {
                base = x >> 40;
                base
            } else {
                base + ((x >> 20) & 63)
            };
            let set = addr as usize % SETS;
            let tags = &mut self.tags[set * WAYS..(set + 1) * WAYS];
            let ages = &mut self.ages[set * WAYS..(set + 1) * WAYS];
            let way = match tags.iter().position(|&t| t == addr) {
                Some(w) => {
                    hits += 1;
                    w
                }
                None => {
                    let lru = (0..WAYS).min_by_key(|&w| ages[w]).unwrap_or(0);
                    tags[lru] = addr;
                    lru
                }
            };
            ages[way] = self.n;
        }
        self.x = x;
        hits
    }
}

/// How a probe is timed.
#[derive(Clone, Copy)]
pub enum Clock {
    /// Wall time, for a probe with a core to itself.
    Wall,
    /// This thread's CPU time, for a probe that shares a core.
    ThreadCpu,
}

impl Clock {
    /// Time since a fixed point of this clock's.
    fn now(self) -> Duration {
        match self {
            Clock::Wall => EPOCH.get_or_init(Instant::now).elapsed(),
            Clock::ThreadCpu => thread_cpu_time(),
        }
    }
}

static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();

/// Time this thread has spent on a CPU: `clock_gettime` with Linux's
/// `CLOCK_THREAD_CPUTIME_ID`, from the C library the standard library
/// already links.
fn thread_cpu_time() -> Duration {
    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call, and the clock id is
    // one Linux defines.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Runs `f` between two full probes, with short probes running on another
/// thread throughout (1 ms apart); returns `f`'s result, its wall time and the
/// host's slowdown around it (the mean of the two probes).
pub fn timed<T>(probe: &mut HostProbe, f: impl FnOnce() -> T) -> (T, Duration, f64) {
    let (out, _) = sample_during(Duration::from_millis(1), || {
        let before = probe.slowdown(FULL, Clock::Wall);
        let t = Instant::now();
        let out = f();
        let wall = t.elapsed();
        let after = probe.slowdown(FULL, Clock::Wall);
        (out, wall, (before + after) / 2.0)
    });
    out
}

/// Samples the host's slowdown with short probes every `period` on a
/// thread of its own, timed by that thread's CPU time, while `f` runs on
/// this one; returns `f`'s result and the median slowdown. Between samples the thread sleeps for `period`:
/// at 200 ms it takes about 1% of a core.
pub fn sample_during<T>(period: Duration, f: impl FnOnce() -> T) -> (T, f64) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut probe = HostProbe::default();
            let mut samples = Vec::new();
            loop {
                samples.push(probe.slowdown(SHORT, Clock::ThreadCpu));
                if stop.load(Ordering::Relaxed) {
                    return samples;
                }
                std::thread::sleep(period);
            }
        });
        let out = f();
        stop.store(true, Ordering::Relaxed);
        let mut samples = sampler.join().expect("the host probe does not panic");
        samples.sort_by(f64::total_cmp);
        (out, samples[samples.len() / 2])
    })
}
