//! Per-span-name self time from the traced phase.
//!
//! The platform's telemetry runs with `ClockMode::External` on the wall
//! clock, so its spans carry real time. The ring is harvested after
//! every round and folded here: a span's self time is its duration less
//! that of its children. The benchmark's own spans are its timed call
//! sections; their self time is the section time less the platform root
//! spans those calls opened.

use std::collections::{BTreeMap, HashMap};

use oprc_platform::embedded::EmbeddedPlatform;

use crate::bench::Instance;
use crate::meter::{Kind, KINDS};

/// The platform's own spans and the metric each is reported as.
pub const PLATFORM_SPANS: [(&str, &str); 13] = [
    ("invoke", "span.invoke.self_us"),
    ("invoke.attempt", "span.invoke.attempt.self_us"),
    ("route", "span.route.self_us"),
    ("state.load", "span.state.load.self_us"),
    ("presign", "span.presign.self_us"),
    ("engine.execute", "span.engine.execute.self_us"),
    ("state.commit", "span.state.commit.self_us"),
    ("dataflow.stage", "span.dataflow.stage.self_us"),
    ("dataflow.step", "span.dataflow.step.self_us"),
    ("dataflow.fused", "span.dataflow.fused.self_us"),
    ("invoke.batch", "span.invoke.batch.self_us"),
    ("invoke.batch.group", "span.invoke.batch.group.self_us"),
    ("invoke.batch.item", "span.invoke.batch.item.self_us"),
];

/// The benchmark's spans around each public call, by call kind.
pub const BENCH_SPANS: [(&str, &[Kind]); 7] = [
    (
        "span.bench.invoke.self_us",
        &[Kind::InvokeWrite, Kind::InvokeRead],
    ),
    ("span.bench.batch.self_us", &[Kind::Batch]),
    ("span.bench.flow.self_us", &[Kind::Flow]),
    ("span.bench.get_state.self_us", &[Kind::GetState]),
    (
        "span.bench.download.self_us",
        &[Kind::Presign, Kind::S3Download],
    ),
    ("span.bench.tick.self_us", &[Kind::Tick]),
    ("span.bench.migrate.self_us", &[Kind::Migrate]),
];

#[derive(Debug, Default)]
pub struct SpanFold {
    /// Self time per span name (ns).
    pub self_ns: BTreeMap<String, i64>,
    /// Child time waiting for its parent span to finish (by span id).
    pending: HashMap<u64, u64>,
    /// Platform root-span time per benchmark call kind (ns).
    pub root_ns: [u64; KINDS],
    /// Records reported by `wb.flush` instants.
    pub flushed_records: u64,
    /// `breaker.transition` instants.
    pub breaker_transitions: u64,
}

impl SpanFold {
    /// Folds and clears every finished span in the platform's ring.
    pub fn harvest(&mut self, p: &EmbeddedPlatform, inst: &dyn Instance) {
        let sink = p.telemetry();
        let spans = sink.finished();
        sink.clear();
        // Finished spans arrive in close order, so children precede
        // their parents.
        for s in &spans {
            match s.name.as_str() {
                "wb.flush" => {
                    self.flushed_records += s.attrs["records"].as_u64().unwrap_or(0);
                }
                "breaker.transition" => self.breaker_transitions += 1,
                _ => {}
            }
            let d = s.duration_ns();
            let children = self.pending.remove(&s.id).unwrap_or(0);
            *self.self_ns.entry(s.name.clone()).or_insert(0) += d as i64 - children as i64;
            match s.parent {
                Some(parent) => *self.pending.entry(parent).or_insert(0) += d,
                None => {
                    let kind = match s.name.as_str() {
                        "invoke" => inst.root_kind(s.attrs["function"].as_str().unwrap_or("")),
                        "invoke.batch" => Kind::Batch,
                        _ => Kind::Untagged,
                    };
                    self.root_ns[kind as usize] += d;
                }
            }
        }
    }
}
