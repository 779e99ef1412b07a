//! `iot_twin`: the §II-D device-twin application driven by single
//! invokes. Zipf-skewed writes (`ingest`, `configure`, `ack`) run beside
//! readonly `health` reads; batch, dataflow, chaos and multi-node code
//! stay idle.

use std::cell::Cell;
use std::collections::VecDeque;

use oprc_core::object::ObjectId;
use oprc_platform::embedded::EmbeddedPlatform;
use oprc_simcore::SimRng;
use oprc_value::{Map, Value};
use oprc_workloads::iot::{self, TELEMETRY_WINDOW};

use super::{Picker, STEP, TICK_EVERY};
use crate::alloc::heap_bytes_of;
use crate::bench::{Client, Instance, SetupStats};
use crate::meter::{Kind, Meter, Pace};

const DEVICES: usize = 2048;
/// Fields in each of the desired and reported configurations.
const FIELDS: usize = 64;
const SKEW: f64 = 0.99;
const OPS_PER_ROUND: usize = 100;
const WINDOW_ROUNDS: u64 = 100;
/// Rounds per second on the reference host.
const ROUNDS_PER_SECOND: u64 = 180;

/// The twin model the oracle keeps: field index → value.
#[derive(Debug, Clone, PartialEq)]
struct Twin {
    desired: Vec<Option<i64>>,
    reported: Vec<Option<i64>>,
    telemetry: VecDeque<f64>,
}

fn field(i: usize) -> String {
    format!("f{i:02}")
}

fn config_value(c: &[Option<i64>]) -> Value {
    let mut m = Map::new();
    for (i, v) in c.iter().enumerate() {
        if let Some(v) = v {
            m.insert(field(i), Value::from(*v));
        }
    }
    Value::Object(m)
}

fn config_matches(v: &Value, c: &[Option<i64>]) -> bool {
    v.len() == c.iter().flatten().count()
        && c.iter()
            .enumerate()
            .all(|(i, want)| want.is_none_or(|w| v[field(i).as_str()].as_i64() == Some(w)))
}

impl Twin {
    fn state(&self) -> Value {
        let mut m = Map::new();
        m.insert("desired".into(), config_value(&self.desired));
        m.insert("reported".into(), config_value(&self.reported));
        m.insert(
            "telemetry".into(),
            Value::Array(self.telemetry.iter().map(|&r| Value::from(r)).collect()),
        );
        Value::Object(m)
    }

    fn matches(&self, state: &Value) -> bool {
        let window = state["telemetry"].as_array().unwrap_or(&[]);
        config_matches(&state["desired"], &self.desired)
            && config_matches(&state["reported"], &self.reported)
            && window.len() == self.telemetry.len()
            && window
                .iter()
                .zip(&self.telemetry)
                .all(|(v, &r)| v.as_f64() == Some(r))
    }
}

struct Iot {
    p: EmbeddedPlatform,
    pace: Pace,
    seed: u64,
    ids: Vec<ObjectId>,
    /// The twin model, until the client takes it.
    twins: Cell<Vec<Twin>>,
}

pub fn setup(
    seed: u64,
    telemetry: bool,
    m: &mut Meter,
    s: &mut SetupStats,
) -> Result<Box<dyn Instance>, String> {
    let mut p = super::platform(telemetry, None);
    let (deployed, ns) = m.time(Kind::Setup, || iot::install(&mut p));
    deployed.map_err(|e| format!("deploy: {e}"))?;
    s.deploy_ns = ns;
    let mut rng = SimRng::seed_from_u64(seed);
    let mut ids = Vec::with_capacity(DEVICES);
    let mut twins = Vec::with_capacity(DEVICES);
    for _ in 0..DEVICES {
        let desired: Vec<Option<i64>> = (0..FIELDS)
            .map(|_| Some(rng.range(0, 1_000_000) as i64))
            .collect();
        let twin = Twin {
            reported: desired.clone(),
            desired,
            telemetry: (0..TELEMETRY_WINDOW)
                .map(|_| rng.range(0, 4000) as f64 / 8.0)
                .collect(),
        };
        let state = twin.state();
        let (id, ns) = m.time(Kind::Setup, || p.create_object("Device", state));
        s.create_ns += ns;
        s.creates += 1;
        ids.push(id.map_err(|e| format!("create: {e}"))?);
        twins.push(twin);
    }
    // Warm-up: one read of every twin.
    for (&id, twin) in ids.iter().zip(&twins) {
        let out = p
            .invoke(id, "health", vec![])
            .map_err(|e| format!("warm-up: {e}"))?;
        check_health(&out.output, twin)?;
    }
    Ok(Box::new(Iot {
        pace: Pace::new(STEP, TICK_EVERY, !telemetry),
        p,
        seed,
        ids,
        twins: Cell::new(twins),
    }))
}

fn check_health(out: &Value, t: &Twin) -> Result<(), String> {
    let in_sync = t.desired.iter().any(Option::is_some) && t.desired == t.reported;
    let mean = if t.telemetry.is_empty() {
        None
    } else {
        Some(t.telemetry.iter().sum::<f64>() / t.telemetry.len() as f64)
    };
    if out["in_sync"].as_bool() != Some(in_sync)
        || out["samples"].as_u64() != Some(t.telemetry.len() as u64)
        || out["mean"].as_f64() != mean
    {
        return Err(format!("health output {out} disagrees with the twin model"));
    }
    Ok(())
}

impl Instance for Iot {
    fn platform(&self) -> &EmbeddedPlatform {
        &self.p
    }

    fn window_rounds(&self) -> u64 {
        WINDOW_ROUNDS
    }

    fn rounds_per_second(&self) -> u64 {
        ROUNDS_PER_SECOND
    }

    fn client(&self) -> Box<dyn Client + '_> {
        let mut rng = SimRng::seed_from_u64(self.seed ^ 0x10_7717);
        Box::new(IotClient {
            picker: Picker::new(DEVICES, SKEW, &mut rng),
            rng,
            inst: self,
            twins: self.twins.take(),
        })
    }

    fn root_kind(&self, function: &str) -> Kind {
        if function == "health" {
            Kind::InvokeRead
        } else {
            Kind::InvokeWrite
        }
    }

    fn pace_ticks(&self) -> u64 {
        self.pace.ticks.load(std::sync::atomic::Ordering::Relaxed)
    }
}

/// Applies a completed operation to the twin model and checks its
/// output against it.
fn check_op(op: Op, out: &Value, twin: &mut Twin) -> Result<(), String> {
    match op {
        Op::Ingest(r) => {
            twin.telemetry.push_back(r);
            if twin.telemetry.len() > TELEMETRY_WINDOW {
                twin.telemetry.pop_front();
            }
            if out.as_u64() != Some(twin.telemetry.len() as u64) {
                return Err(format!("ingest returned {out}"));
            }
            Ok(())
        }
        Op::Configure(patch) => {
            for (f, v) in patch {
                twin.desired[f] = Some(v);
            }
            if !config_matches(out, &twin.desired) {
                return Err(format!("configure returned {out}"));
            }
            Ok(())
        }
        Op::Ack => {
            twin.reported.clone_from(&twin.desired);
            if out["in_sync"].as_bool() != Some(true) {
                return Err(format!("ack returned {out}"));
            }
            Ok(())
        }
        Op::Health => check_health(out, twin),
    }
}

struct IotClient<'a> {
    inst: &'a Iot,
    rng: SimRng,
    picker: Picker,
    twins: Vec<Twin>,
}

enum Op {
    Ingest(f64),
    Configure(Vec<(usize, i64)>),
    Ack,
    Health,
}

impl Client for IotClient<'_> {
    fn round(&mut self, m: &mut Meter) -> Result<(), String> {
        let p = &self.inst.p;
        for _ in 0..OPS_PER_ROUND {
            let (i, op, args) = m.harness(|| {
                let i = self.picker.pick(&mut self.rng);
                let roll = self.rng.range(0, 100);
                let op = match roll {
                    0..=39 => Op::Ingest(self.rng.range(0, 4000) as f64 / 8.0),
                    40..=54 => Op::Configure(
                        (0..4)
                            .map(|_| {
                                (
                                    self.rng.range(0, FIELDS as u64) as usize,
                                    self.rng.range(0, 1_000_000) as i64,
                                )
                            })
                            .collect(),
                    ),
                    55..=64 => Op::Ack,
                    _ => Op::Health,
                };
                let args = match &op {
                    Op::Ingest(r) => vec![Value::from(*r)],
                    Op::Configure(patch) => {
                        let mut m = Map::new();
                        for (f, v) in patch {
                            m.insert(field(*f), Value::from(*v));
                        }
                        vec![Value::Object(m)]
                    }
                    Op::Ack | Op::Health => vec![],
                };
                (i, op, args)
            });
            let id = self.inst.ids[i];
            let (kind, function) = match op {
                Op::Ingest(_) => (Kind::InvokeWrite, "ingest"),
                Op::Configure(_) => (Kind::InvokeWrite, "configure"),
                Op::Ack => (Kind::InvokeWrite, "ack"),
                Op::Health => (Kind::InvokeRead, "health"),
            };
            let out = m.call(kind, || p.invoke(id, function, args));
            m.attempted += 1;
            m.done(1, u64::from(kind == Kind::InvokeWrite));
            let twin = &mut self.twins[i];
            let pace = &self.inst.pace;
            let due = m.harness(move || {
                let out = out.map_err(|e| format!("{function} on {id}: {e}"))?.output;
                check_op(op, &out, twin).map(|()| pace.advance(p, 1))
            })?;
            pace.tick(p, m, due);
        }
        Ok(())
    }

    fn verify(&self, durable: bool) -> Result<(), String> {
        let p = &self.inst.p;
        for (&id, twin) in self.inst.ids.iter().zip(&self.twins) {
            let state = if durable {
                p.durable_state(id).unwrap_or(Value::Null)
            } else {
                p.get_state(id)
                    .map_err(|e| format!("get_state {id}: {e}"))?
            };
            if !twin.matches(&state) {
                let tier = if durable { "durable" } else { "live" };
                return Err(format!(
                    "{tier} state of {id} disagrees with the twin model"
                ));
            }
        }
        Ok(())
    }

    fn model_bytes(&self) -> u64 {
        heap_bytes_of(&self.twins)
    }
}
