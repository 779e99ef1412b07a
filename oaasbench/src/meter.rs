//! The client's timing: every moment of the timed phase is spent inside
//! one section of a known [`Kind`], timed from outside the platform and
//! tagged for the counting allocator.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use oprc_platform::embedded::EmbeddedPlatform;
use oprc_simcore::SimDuration;

use crate::alloc;
use crate::hist::Hist;

/// What the client is doing: one call kind into the platform's public
/// API, maintenance, or the benchmark's own work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    Untagged,
    Setup,
    Harness,
    Tick,
    InvokeWrite,
    InvokeRead,
    Batch,
    Flow,
    GetState,
    Presign,
    S3Upload,
    S3Download,
    Migrate,
    /// Reading the traced phase's span ring (traced runs only).
    Harvest,
}

pub const KINDS: usize = 14;

impl Kind {
    pub const CALLS: [Kind; 9] = [
        Kind::InvokeWrite,
        Kind::InvokeRead,
        Kind::Batch,
        Kind::Flow,
        Kind::GetState,
        Kind::Presign,
        Kind::S3Upload,
        Kind::S3Download,
        Kind::Migrate,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Untagged => "untagged",
            Kind::Setup => "setup",
            Kind::Harness => "harness",
            Kind::Tick => "tick",
            Kind::InvokeWrite => "invoke.write",
            Kind::InvokeRead => "invoke.read",
            Kind::Batch => "batch",
            Kind::Flow => "flow",
            Kind::GetState => "get_state",
            Kind::Presign => "presign",
            Kind::S3Upload => "s3.upload",
            Kind::S3Download => "s3.download",
            Kind::Migrate => "migrate",
            Kind::Harvest => "harvest",
        }
    }
}

/// The client's measurements.
#[derive(Debug, Default)]
pub struct Meter {
    /// Rounds per slice of the timed phase (none while setting up).
    slice_rounds: Option<u64>,
    /// Completed ops and end-to-end latency samples (durations of whole
    /// calls into the public API; a presigned download is one call) per
    /// slice of the timed phase: a fixed number of rounds, so every
    /// slice sees the same platform state whatever the host speed.
    pub slice_ops: Vec<u64>,
    pub slice_api: Vec<Hist>,
    /// When each slice started, and (after the phase) when the last one
    /// ended.
    pub slice_starts: Vec<Instant>,
    /// The host's steal time as each slice started (cumulative clock
    /// ticks), to tell interference apart in the per-slice ledger.
    pub slice_steal: Vec<u64>,
    pub time_ns: [u64; KINDS],
    pub calls: [u64; KINDS],
    /// Per-kind call durations, for per-layer medians.
    pub hists: [Hist; KINDS],
    /// Completed object operations (an invocation, a batch item or a
    /// whole dataflow).
    pub ops: u64,
    /// Acknowledged state updates among them.
    pub writes: u64,
    pub attempted: u64,
    pub failed: u64,
    pub rounds: u64,
    /// Durable state commits made inside flow calls, and fused units
    /// those calls ran.
    pub flow_commits: u64,
    pub flow_fused: u64,
    pub migrations: Vec<(u64, u64)>,
    /// Items sent through `invoke_batch`.
    pub batch_items: u64,
}

impl Meter {
    /// A meter for a timed phase cut into slices of `slice_rounds`
    /// rounds, or (with none) for set-up.
    pub fn new(slice_rounds: Option<u64>) -> Self {
        Meter {
            slice_rounds: slice_rounds.map(|n| n.max(1)),
            ..Meter::default()
        }
    }

    /// The slice the current round belongs to.
    fn slice(&self) -> Option<usize> {
        Some((self.rounds / self.slice_rounds?) as usize)
    }

    /// Called before each round of the timed phase: opens a slice when
    /// the round is the first of one.
    pub fn start_round(&mut self) {
        if let Some(i) = self.slice() {
            if self.slice_starts.len() <= i {
                self.slice_starts.push(Instant::now());
                self.slice_steal.push(steal_ticks());
                self.slice_ops.push(0);
                self.slice_api.push(Hist::default());
            }
        }
    }

    /// Closes the last slice at the end of the timed phase.
    pub fn end_phase(&mut self) {
        self.slice_starts.push(Instant::now());
        self.slice_steal.push(steal_ticks());
    }

    /// Wall time of slice `i` (ns).
    pub fn slice_ns(&self, i: usize) -> u64 {
        self.slice_starts[i + 1]
            .duration_since(self.slice_starts[i])
            .as_nanos() as u64
    }

    /// Records `n` completed operations, `writes` of which were
    /// acknowledged state updates.
    pub fn done(&mut self, n: u64, writes: u64) {
        self.ops += n;
        self.writes += writes;
        if let Some(ops) = self.slice().and_then(|i| self.slice_ops.get_mut(i)) {
            *ops += n;
        }
    }

    /// Records one end-to-end latency sample.
    pub fn api(&mut self, ns: u64) {
        if let Some(h) = self.slice().and_then(|i| self.slice_api.get_mut(i)) {
            h.record(ns);
        }
    }

    /// Runs `f` as one section of `kind`: timed, counted, and with its
    /// allocations tagged. Returns the result and the duration.
    pub fn time<R>(&mut self, kind: Kind, f: impl FnOnce() -> R) -> (R, u64) {
        alloc::set_tag(kind);
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let end = Instant::now();
        // Between sections the client is running benchmark code.
        alloc::set_tag(Kind::Harness);
        let ns = end.duration_since(start).as_nanos() as u64;
        let k = kind as usize;
        self.time_ns[k] += ns;
        self.calls[k] += 1;
        if kind != Kind::Harness && kind != Kind::Harvest {
            self.hists[k].record(ns);
        }
        // This bookkeeping is the benchmark's own work too.
        self.time_ns[Kind::Harness as usize] += end.elapsed().as_nanos() as u64;
        (out, ns)
    }

    /// Times one whole call into the public API as `kind`, recording it
    /// as an end-to-end latency sample too.
    pub fn call<R>(&mut self, kind: Kind, f: impl FnOnce() -> R) -> R {
        let (out, ns) = self.time(kind, f);
        self.api(ns);
        out
    }

    /// Benchmark-side work: argument generation and oracle checks.
    pub fn harness<R>(&mut self, f: impl FnOnce() -> R) -> R {
        self.time(Kind::Harness, f).0
    }
}

/// The timed phase is cut into slices of this many seconds of work at a
/// workload's reference rate; throughput and latency quantiles are
/// trimmed means over the slices (see [`trimmed_mean`]), so a short
/// disturbance on a shared host moves them less than a whole-run figure.
pub const SLICE_SECONDS: u64 = 2;

/// Drives the platform's virtual clock: a fixed step per completed
/// operation and a maintenance `tick()` at fixed virtual intervals, so
/// write-behind flush points depend on the operation sequence alone,
/// never on wall time.
#[derive(Debug)]
pub struct Pace {
    /// False in traced runs: the platform then keeps wall time, so
    /// spans measure real time, and only the tick cadence is kept.
    drive_clock: bool,
    step_ns: u64,
    interval_ns: u64,
    virtual_ns: AtomicU64,
    next_tick_ns: AtomicU64,
    pub ticks: AtomicU64,
}

impl Pace {
    pub fn new(step: SimDuration, interval: SimDuration, drive_clock: bool) -> Self {
        Pace {
            drive_clock,
            step_ns: step.as_nanos(),
            interval_ns: interval.as_nanos(),
            virtual_ns: AtomicU64::new(0),
            next_tick_ns: AtomicU64::new(interval.as_nanos()),
            ticks: AtomicU64::new(0),
        }
    }

    /// Accounts `ops` completed operations: advances the clock and
    /// claims every tick that became due. Returns how many ticks the
    /// caller must run (see [`Pace::tick`]).
    pub fn advance(&self, p: &EmbeddedPlatform, ops: u64) -> u64 {
        let d = self.step_ns * ops;
        if self.drive_clock {
            p.advance_clock(SimDuration::from_nanos(d));
        }
        let now = self.virtual_ns.fetch_add(d, Ordering::Relaxed) + d;
        let mut due = 0;
        loop {
            let next = self.next_tick_ns.load(Ordering::Relaxed);
            if now < next {
                return due;
            }
            if self
                .next_tick_ns
                .compare_exchange(
                    next,
                    next + self.interval_ns,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                )
                .is_ok()
            {
                due += 1;
            }
        }
    }

    /// Runs `due` maintenance ticks, timed as [`Kind::Tick`].
    pub fn tick(&self, p: &EmbeddedPlatform, m: &mut Meter, due: u64) {
        for _ in 0..due {
            m.time(Kind::Tick, || p.tick());
            self.ticks.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// CPU time the hypervisor gave to other guests while this host's vCPUs
/// wanted to run (`steal` in `/proc/stat`, in clock ticks); 0 where the
/// file is unreadable.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// The mean of `v` without its lowest and highest value (of all of `v`
/// when it has fewer than five; 0 when empty).
pub fn trimmed_mean(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let kept = if v.len() >= 5 {
        &v[1..v.len() - 1]
    } else {
        &v[..]
    };
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// The median of `v` (0 when empty).
pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
