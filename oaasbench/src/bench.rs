//! The benchmark run: repeated set-up, the timed phase, the count window,
//! the traced phase, and every metric computed from them.

use std::time::Instant;

use oprc_platform::embedded::EmbeddedPlatform;

use crate::alloc::{self, AllocSnapshot};
use crate::meter::{median, trimmed_mean, Kind, Meter, KINDS, SLICE_SECONDS};
use crate::trace::{SpanFold, BENCH_SPANS, PLATFORM_SPANS};

/// Set-up runs in two batches, before and after the timed phase, each
/// of at least `SETUPS` set-ups and `SETUP_SECONDS`; `setup_s` is the
/// median of all of them. A set-up of a few milliseconds is then sampled
/// often, and at both ends of the run, since this host's speed shifts
/// on a scale of seconds.
const SETUPS: usize = 4;
const SETUP_SECONDS: f64 = 2.0;

/// Per-layer figures gathered while setting up (from the last set-up).
#[derive(Debug, Default)]
pub struct SetupStats {
    pub deploy_ns: u64,
    pub create_ns: u64,
    pub creates: u64,
}

/// A set-up workload, ready for its timed phase.
pub trait Instance {
    fn platform(&self) -> &EmbeddedPlatform;
    /// Rounds the client completes inside the count window.
    fn window_rounds(&self) -> u64;
    /// Rounds per second of work: the workload's rate on the reference
    /// host. A timed phase of `s` seconds runs `s` times this many
    /// rounds, whatever the host speed.
    fn rounds_per_second(&self) -> u64;
    /// The closed-loop client. It takes the oracle model out of the
    /// instance, so call it once per instance.
    fn client(&self) -> Box<dyn Client + '_>;
    /// Which benchmark call kind opened a platform root `invoke` span
    /// for `function`.
    fn root_kind(&self, function: &str) -> Kind;
    fn pace_ticks(&self) -> u64;
}

/// The closed-loop client: it sends its next call only after the
/// previous one returned.
pub trait Client {
    /// Runs one round: a fixed sequence of operations, each checked
    /// against the model.
    fn round(&mut self, m: &mut Meter) -> Result<(), String>;
    /// Checks every object against the model, through `get_state` (or,
    /// when `durable`, the durable tier after a flush).
    fn verify(&self, durable: bool) -> Result<(), String>;
    /// Heap bytes the oracle model occupies (see
    /// [`alloc::heap_bytes_of`]).
    fn model_bytes(&self) -> u64;
}

/// A workload: builds a fresh [`Instance`] for a seed.
pub type SetupFn = fn(
    seed: u64,
    telemetry: bool,
    m: &mut Meter,
    s: &mut SetupStats,
) -> Result<Box<dyn Instance>, String>;

/// Platform counters read from outside: `storage_stats`, `shard_stats`,
/// `node_stats` and `MetricsHub`.
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    dht_puts: u64,
    consolidated: u64,
    db_writes: u64,
    commits: u64,
    retries: u64,
    batch_groups: u64,
    faults: u64,
    shard_locks: u64,
    shard_contended: u64,
    remote: u64,
}

impl Counters {
    fn read(p: &EmbeddedPlatform) -> Self {
        // Shard counters first: `storage_stats` itself takes every
        // shard lock.
        let shards = p.shard_stats();
        let (dht_puts, consolidated, batch, single) = p.storage_stats();
        let m = p.metrics();
        Counters {
            dht_puts,
            consolidated,
            db_writes: batch + single,
            commits: m.commits_total(),
            retries: m.retries_total(),
            batch_groups: m.batch_groups_total(),
            faults: m.fault_totals().iter().map(|(_, n)| n).sum(),
            shard_locks: shards.iter().map(|s| s.acquisitions).sum(),
            shard_contended: shards.iter().map(|s| s.contended).sum(),
            remote: p.node_stats().iter().map(|n| n.remote_invokes).sum(),
        }
    }

    fn since(&self, e: &Counters) -> Counters {
        Counters {
            dht_puts: self.dht_puts - e.dht_puts,
            consolidated: self.consolidated - e.consolidated,
            db_writes: self.db_writes - e.db_writes,
            commits: self.commits - e.commits,
            retries: self.retries - e.retries,
            batch_groups: self.batch_groups - e.batch_groups,
            faults: self.faults - e.faults,
            shard_locks: self.shard_locks - e.shard_locks,
            shard_contended: self.shard_contended - e.shard_contended,
            remote: self.remote - e.remote,
        }
    }
}

/// The count window: the first `window_rounds` rounds, a fixed amount
/// of work, so its counts repeat exactly for one seed however fast the
/// host runs.
#[derive(Debug, Clone, Copy)]
struct Window {
    ops: u64,
    writes: u64,
    batch_items: u64,
    calls: [u64; KINDS],
    allocs: AllocSnapshot,
    counters: Counters,
}

/// Everything one timed phase measured.
struct Phase<'a> {
    client: Box<dyn Client + 'a>,
    meter: Meter,
    wall_ns: u64,
    allocs: AllocSnapshot,
    window: Window,
    ticks: u64,
}

/// Runs a fixed amount of work: `seconds` worth of rounds at the
/// workload's reference rate, in whole slices, and at least the count
/// window. Every slice then sees the same platform state whatever the
/// host speed.
fn run_phase<'a>(
    inst: &'a dyn Instance,
    seconds: f64,
    mut fold: Option<&mut SpanFold>,
) -> Result<Phase<'a>, String> {
    let p = inst.platform();
    let window_rounds = inst.window_rounds();
    let slice_rounds = inst.rounds_per_second() * SLICE_SECONDS;
    let slices = ((seconds / SLICE_SECONDS as f64).round() as u64)
        .max(window_rounds.div_ceil(slice_rounds))
        .max(1);
    let rounds = slices * slice_rounds;
    if fold.is_some() {
        // Spans from set-up and warm-up are not part of the phase.
        p.telemetry().clear();
    }
    alloc::set_tag(Kind::Harness);
    let counters0 = Counters::read(p);
    let ticks0 = inst.pace_ticks();
    let mut client = inst.client();
    let start = Instant::now();
    let alloc0 = AllocSnapshot::now();
    let mut m = Meter::new(Some(slice_rounds));
    let mut window = None;
    while m.rounds < rounds {
        m.start_round();
        client.round(&mut m)?;
        m.rounds += 1;
        if m.rounds == window_rounds {
            let (ops, writes, batch_items, calls) = (m.ops, m.writes, m.batch_items, m.calls);
            window = Some(m.harness(|| Window {
                ops,
                writes,
                batch_items,
                calls,
                allocs: AllocSnapshot::now().since(&alloc0),
                counters: Counters::read(p).since(&counters0),
            }));
        }
        if let Some(fold) = fold.as_deref_mut() {
            m.time(Kind::Harvest, || fold.harvest(p, inst));
        }
    }
    m.end_phase();
    let wall_ns = start.elapsed().as_nanos() as u64;
    let allocs = AllocSnapshot::now().since(&alloc0);
    alloc::set_tag(Kind::Untagged);
    Ok(Phase {
        client,
        meter: m,
        wall_ns,
        allocs,
        window: window.expect("the loop runs until the window is complete"),
        ticks: inst.pace_ticks() - ticks0,
    })
}

/// Final oracle: `get_state` of every object, then the durable tier
/// after a flush.
fn finish(inst: &dyn Instance, client: &dyn Client) -> Result<(), String> {
    client.verify(false)?;
    inst.platform().flush();
    client.verify(true)
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn per(n: f64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n / d as f64
    }
}

/// The outcome of one benchmark run.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

/// One batch of set-ups: at least `SETUPS` and `SETUP_SECONDS` of them,
/// each timed into `times`. Returns the last instance, with the meter
/// and per-layer figures of its set-up.
fn set_up_batch(
    setup: SetupFn,
    seed: u64,
    times: &mut Vec<f64>,
) -> Result<(Box<dyn Instance>, Meter, SetupStats), String> {
    let (mut n, mut spent) = (0, 0.0);
    let mut last = None;
    while n < SETUPS || spent < SETUP_SECONDS {
        drop(last.take());
        let (mut meter, mut stats) = (Meter::new(None), SetupStats::default());
        let started = Instant::now();
        let inst = setup(seed, false, &mut meter, &mut stats)?;
        let s = started.elapsed().as_secs_f64();
        times.push(s);
        (n, spent) = (n + 1, spent + s);
        last = Some((inst, meter, stats));
    }
    Ok(last.expect("set up at least once"))
}

/// Runs a batch of set-ups (keeping the last instance), then the
/// untraced timed phase and another batch of set-ups; with `traced`, a
/// half-length untraced phase and a traced one on a fresh instance. Any
/// oracle failure is an error.
pub fn run(setup: SetupFn, seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let (inst, setup_meter, stats) = set_up_batch(setup, seed, &mut setup_s)?;
    let phase_seconds = if traced { seconds / 2.0 } else { seconds };
    let phase = run_phase(inst.as_ref(), phase_seconds, None)?;
    finish(inst.as_ref(), phase.client.as_ref())?;
    let rss = peak_rss_mb();
    let coverage = coverage_check(&phase)?;
    eprintln!(
        "  oracle model: {:.2} MiB of heap (peak RSS {rss:.2} MiB)",
        phase.client.model_bytes() as f64 / (1 << 20) as f64
    );
    let (m, w) = (&phase.meter, &phase.window);
    let mut metrics = Vec::new();
    let mut push = |name, value, unit| metrics.push((name, value, unit));

    if !traced {
        let platform = |counts: &[u64; KINDS]| -> u64 {
            Kind::CALLS
                .iter()
                .chain(&[Kind::Tick])
                .map(|&k| counts[k as usize])
                .sum()
        };
        let (throughput, p50, p99) = sliced(m);
        push("throughput_ops", throughput, "ops/s");
        push("p50_us", p50, "us");
        push("p99_us", p99, "us");
        push(
            "allocs_per_op",
            per(platform(&w.allocs.counts) as f64, w.ops),
            "count",
        );
        push(
            "alloc_bytes_per_op",
            per(platform(&w.allocs.bytes) as f64, w.ops),
            "bytes",
        );
        push(
            "db_writes_per_1k_updates",
            per(w.counters.db_writes as f64 * 1e3, w.writes),
            "count",
        );
        push("peak_rss_mb", rss, "MiB");
        let (attempted, failed) = (m.attempted, m.failed);
        drop(phase);
        drop(inst);
        set_up_batch(setup, seed, &mut setup_s)?;
        metrics.insert(0, ("setup_s", median(setup_s), "s"));
        return Ok(Outcome {
            attempted,
            failed,
            metrics,
        });
    }

    // Per-layer figures from the untraced phase.
    let p50_us = |k: Kind| m.hists[k as usize].quantile(0.5) / 1e3;
    let calls = |k: Kind| w.calls[k as usize];
    let c = &w.counters;
    push("deploy.ms", stats.deploy_ns as f64 / 1e6, "ms");
    push(
        "create.us_per_object",
        per(stats.create_ns as f64 / 1e3, stats.creates),
        "us",
    );
    for (name, kind) in [
        ("presign.p50_us", Kind::Presign),
        ("s3.upload.p50_us", Kind::S3Upload),
        ("s3.download.p50_us", Kind::S3Download),
    ] {
        // Uploads happen during set-up; presigns and downloads in both.
        let mut all = setup_meter.hists[kind as usize].clone();
        all.merge(&m.hists[kind as usize]);
        push(name, all.quantile(0.5) / 1e3, "us");
    }
    let invoke_calls = calls(Kind::InvokeWrite) + calls(Kind::InvokeRead);
    let invoke =
        |v: &[u64; KINDS]| (v[Kind::InvokeWrite as usize] + v[Kind::InvokeRead as usize]) as f64;
    push("invoke.write.p50_us", p50_us(Kind::InvokeWrite), "us");
    push("invoke.read.p50_us", p50_us(Kind::InvokeRead), "us");
    push(
        "invoke.allocs_per_call",
        per(invoke(&w.allocs.counts), invoke_calls),
        "count",
    );
    push(
        "invoke.bytes_per_call",
        per(invoke(&w.allocs.bytes), invoke_calls),
        "bytes",
    );
    push("batch.p50_us", p50_us(Kind::Batch), "us");
    push(
        "batch.allocs_per_item",
        per(w.allocs.count(Kind::Batch) as f64, w.batch_items),
        "count",
    );
    push(
        "batch.groups_per_batch",
        per(c.batch_groups as f64, calls(Kind::Batch)),
        "count",
    );
    push(
        "shard.locks_per_op",
        per(c.shard_locks as f64, w.ops),
        "count",
    );
    push(
        "shard.contended_per_op",
        per(c.shard_contended as f64, w.ops),
        "count",
    );
    let flows = m.calls[Kind::Flow as usize];
    push("flow.p50_us", p50_us(Kind::Flow), "us");
    push(
        "flow.allocs_per_call",
        per(w.allocs.count(Kind::Flow) as f64, calls(Kind::Flow)),
        "count",
    );
    push(
        "flow.commits_per_call",
        per(m.flow_commits as f64, flows),
        "count",
    );
    push(
        "flow.fused_units_per_call",
        per(m.flow_fused as f64, flows),
        "count",
    );
    push("tick.p50_us", p50_us(Kind::Tick), "us");
    push(
        "tick.us_per_op",
        per(m.time_ns[Kind::Tick as usize] as f64 / 1e3, m.ops),
        "us",
    );
    push(
        "tick.allocs_per_op",
        per(w.allocs.count(Kind::Tick) as f64, w.ops),
        "count",
    );
    push(
        "wb.consolidated_per_1k_updates",
        per(c.consolidated as f64 * 1e3, w.writes),
        "count",
    );
    push("dht.puts_per_op", per(c.dht_puts as f64, w.ops), "count");
    push(
        "retry.retries_per_op",
        per(c.retries as f64, w.ops),
        "count",
    );
    push("chaos.faults_per_op", per(c.faults as f64, w.ops), "count");
    push("node.remote_per_op", per(c.remote as f64, w.ops), "count");
    let moved: u64 = m.migrations.iter().map(|&(_, r)| r).sum();
    push(
        "migrate.ms",
        median(
            m.migrations
                .iter()
                .map(|&(ns, _)| ns as f64 / 1e6)
                .collect(),
        ),
        "ms",
    );
    push(
        "migrate.moved_records",
        per(moved as f64, m.migrations.len() as u64),
        "count",
    );
    push(
        "metrics.commits_per_op",
        per(c.commits as f64, w.ops),
        "count",
    );
    push(
        "harness.us_per_op",
        per(m.time_ns[Kind::Harness as usize] as f64 / 1e3, m.ops),
        "us",
    );
    push("coverage.time_pct", coverage * 100.0, "%");

    // Span self times from a traced phase on a fresh instance.
    let mut fold = SpanFold::default();
    let traced_inst = setup(
        seed,
        true,
        &mut Meter::new(None),
        &mut SetupStats::default(),
    )?;
    let traced = run_phase(traced_inst.as_ref(), phase_seconds, Some(&mut fold))?;
    finish(traced_inst.as_ref(), traced.client.as_ref())?;
    fold.harvest(traced_inst.platform(), traced_inst.as_ref());
    let tm = &traced.meter;
    push(
        "wb.records_per_tick",
        per(fold.flushed_records as f64, traced.ticks),
        "count",
    );
    push(
        "breaker.transitions",
        fold.breaker_transitions as f64,
        "count",
    );
    push(
        "trace.overhead_us_per_op",
        call_us_per_op(tm) - call_us_per_op(m),
        "us",
    );
    for (span, name) in PLATFORM_SPANS {
        let ns = fold.self_ns.get(span).copied().unwrap_or(0).max(0);
        push(name, per(ns as f64 / 1e3, tm.ops), "us");
    }
    for (name, kinds) in BENCH_SPANS {
        let total: u64 = kinds.iter().map(|&k| tm.time_ns[k as usize]).sum();
        let roots: u64 = kinds.iter().map(|&k| fold.root_ns[k as usize]).sum();
        push(
            name,
            per(total.saturating_sub(roots) as f64 / 1e3, tm.ops),
            "us",
        );
    }
    Ok(Outcome {
        attempted: m.attempted + tm.attempted,
        failed: m.failed + tm.failed,
        metrics,
    })
}

/// Throughput and end-to-end latency quantiles (µs) as trimmed means
/// over the phase's slices. This host's speed switches between a fast
/// and a slow regime within seconds; a median over slices jumps between
/// the two as their shares change from run to run, while the trimmed
/// mean moves with the shares and still drops a one-off stalled slice.
fn sliced(m: &Meter) -> (f64, f64, f64) {
    let slices = 0..m.slice_api.len();
    let tput = trimmed_mean(
        slices
            .clone()
            .map(|i| per(m.slice_ops[i] as f64 * 1e9, m.slice_ns(i)))
            .collect(),
    );
    let q = |p: f64| {
        trimmed_mean(
            slices
                .clone()
                .map(|i| m.slice_api[i].quantile(p) / 1e3)
                .collect(),
        )
    };
    (tput, q(0.5), q(0.99))
}

/// Platform time per op: every call kind plus ticks.
fn call_us_per_op(m: &Meter) -> f64 {
    let ns: u64 = Kind::CALLS
        .iter()
        .chain(&[Kind::Tick])
        .map(|&k| m.time_ns[k as usize])
        .sum();
    per(ns as f64 / 1e3, m.ops)
}

/// The layer coverage self-check: per-call-kind time + tick time +
/// harness time must cover at least 95 % of the timed phase's wall
/// time, and no allocation of the timed phase may escape the per-kind
/// attribution. Prints the ledger, and the per-slice figures, to
/// stderr.
fn coverage_check(phase: &Phase<'_>) -> Result<f64, String> {
    let m = &phase.meter;
    let ops = m.ops.max(1) as f64;
    let mut covered = 0;
    eprintln!("layer ledger ({} ops):", m.ops);
    eprintln!("  {:<12} {:>12} {:>14}", "kind", "us/op", "allocs/op");
    for &k in Kind::CALLS
        .iter()
        .chain(&[Kind::Tick, Kind::Harness, Kind::Harvest])
    {
        let (ns, allocs) = (m.time_ns[k as usize], phase.allocs.count(k));
        covered += ns;
        if ns > 0 || allocs > 0 {
            eprintln!(
                "  {:<12} {:>12.3} {:>14.2}",
                k.name(),
                ns as f64 / 1e3 / ops,
                allocs as f64 / ops
            );
        }
    }
    let row =
        |f: &dyn Fn(usize) -> String| (0..m.slice_api.len()).map(f).collect::<Vec<_>>().join(" ");
    eprintln!("  per slice ({SLICE_SECONDS} s of work at the reference rate):");
    eprintln!(
        "    ops/s  {}",
        row(&|i| format!("{:.0}", per(m.slice_ops[i] as f64 * 1e9, m.slice_ns(i))))
    );
    eprintln!(
        "    p50 us {}",
        row(&|i| format!("{:.2}", m.slice_api[i].quantile(0.5) / 1e3))
    );
    eprintln!(
        "    p99 us {}",
        row(&|i| format!("{:.1}", m.slice_api[i].quantile(0.99) / 1e3))
    );
    eprintln!(
        "    steal  {}",
        row(&|i| (m.slice_steal[i + 1] - m.slice_steal[i]).to_string())
    );
    let share = covered as f64 / phase.wall_ns.max(1) as f64;
    let untagged = phase.allocs.count(Kind::Untagged) + phase.allocs.count(Kind::Setup);
    eprintln!(
        "  covered {:.2} % of {:.3} s; unattributed allocations: {untagged}",
        share * 100.0,
        phase.wall_ns as f64 / 1e9
    );
    if share < 0.95 {
        return Err(format!(
            "layer coverage {:.2} % is below 95 %",
            share * 100.0
        ));
    }
    if untagged != 0 {
        return Err(format!(
            "{untagged} timed-phase allocations escaped attribution"
        ));
    }
    Ok(share)
}
