//! The four application workloads and what they share.

use oprc_core::template::TemplateCatalog;
use oprc_platform::embedded::EmbeddedPlatform;
use oprc_simcore::{SimDuration, SimRng};
use oprc_telemetry::{ClockMode, TelemetryConfig, TelemetryLevel};
use oprc_workloads::scenario::ZipfSampler;

use crate::bench::SetupFn;

mod chaos;
mod image;
mod iot;
mod json_batch;

pub const NAMES: [&str; 4] = ["iot_twin", "json_batch", "image_pipeline", "cluster_chaos"];

pub fn find(name: &str) -> Option<SetupFn> {
    match name {
        "iot_twin" => Some(iot::setup),
        "json_batch" => Some(json_batch::setup),
        "image_pipeline" => Some(image::setup),
        "cluster_chaos" => Some(chaos::setup),
        _ => None,
    }
}

/// Virtual time one completed operation advances the platform clock.
pub const STEP: SimDuration = SimDuration::from_micros(100);
/// Virtual time between maintenance ticks (the write-behind delay).
pub const TICK_EVERY: SimDuration = SimDuration::from_millis(50);

/// The payload of the panic the poisoned batch item raises.
pub const INJECTED_PANIC: &str = "oaasbench: injected user-function panic";

/// Silences the default panic report for the injected panic only.
pub fn quiet_injected_panics() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if info.payload().downcast_ref::<&str>() != Some(&INJECTED_PANIC) {
            default(info);
        }
    }));
}

/// A fresh platform. Untraced runs use the virtual clock alone; traced
/// runs record spans stamped with wall time (`ClockMode::External` over
/// the platform's wall clock).
pub fn platform(telemetry: bool, catalog: Option<TemplateCatalog>) -> EmbeddedPlatform {
    let mut p = match catalog {
        Some(c) => EmbeddedPlatform::with_catalog(c),
        None => EmbeddedPlatform::new(),
    };
    if telemetry {
        p.enable_telemetry(TelemetryConfig {
            level: TelemetryLevel::Spans,
            clock: ClockMode::External,
            capacity: 1 << 16,
        });
    } else {
        p.enable_virtual_clock();
    }
    p
}

/// Zipf-skewed picks over `n` objects whose popularity ranks are
/// shuffled by the seed, so hot objects spread over shards.
#[derive(Debug, Clone)]
pub struct Picker {
    zipf: ZipfSampler,
    order: Vec<usize>,
}

impl Picker {
    pub fn new(n: usize, skew: f64, rng: &mut SimRng) -> Self {
        let mut order: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut order);
        Picker {
            zipf: ZipfSampler::new(n, skew),
            order,
        }
    }

    pub fn pick(&self, rng: &mut SimRng) -> usize {
        self.order[self.zipf.sample(rng)]
    }
}
