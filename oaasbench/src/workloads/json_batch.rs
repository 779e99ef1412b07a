//! `json_batch`: the §V JSON-randomization application driven through
//! `invoke_batch`. Batches of 16 Zipf-drawn items mix `randomize` writes
//! with `read`s, so shard grouping, merged commits, the batch arena and
//! write-behind consolidation do the work. (Batches of 64 made each call
//! last ~1.4 ms, long enough that host interference moved its p99 by up
//! to 45 % between runs; 16-item calls keep it steady.)
//!
//! The last batch of every round carries one item whose user function
//! panics. The panic unwinds out of `invoke_batch`, so every item of
//! that batch is counted failed; the oracle accepts each unacknowledged
//! write as either applied or not.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

use oprc_core::object::ObjectId;
use oprc_platform::embedded::{BatchItem, EmbeddedPlatform};
use oprc_simcore::SimRng;
use oprc_value::{vjson, Value};
use oprc_workloads::jsonrand::{self, randomized_doc};

use super::{Picker, INJECTED_PANIC, STEP, TICK_EVERY};
use crate::alloc::heap_bytes_of;
use crate::bench::{Client, Instance, SetupStats};
use crate::meter::{Kind, Meter, Pace};

const DOCS: usize = 4096;
const KEYS: usize = 16;
const SKEW: f64 = 0.9;
const BATCH: usize = 16;
const BATCHES_PER_ROUND: usize = 64;
/// Slot of the panicking item in the round's last batch.
const POISON_SLOT: usize = 8;
const WINDOW_ROUNDS: u64 = 12;
/// Rounds per second on the reference host.
const ROUNDS_PER_SECOND: u64 = 22;

const FAULTY_YAML: &str = "
name: faulty
classes:
  - name: Faulty
    functions:
      - name: explode
        image: bench/explode
";

/// What the oracle knows about one document.
#[derive(Debug, Clone)]
struct Doc {
    /// The document of the last acknowledged write (`Null` before any).
    acked: Value,
    /// Seeds of writes sent in a batch that panicked since then: each
    /// may or may not have been applied.
    unacked: Vec<u64>,
}

impl Doc {
    /// Whether `doc` is a state the object may be in; a match on an
    /// unacknowledged write pins that write as applied.
    fn observe(&mut self, doc: &Value) -> bool {
        if *doc == self.acked {
            return true;
        }
        match self
            .unacked
            .iter()
            .find(|&&s| randomized_doc(s, KEYS) == *doc)
        {
            Some(&s) => {
                self.acked = randomized_doc(s, KEYS);
                self.unacked.clear();
                true
            }
            None => false,
        }
    }
}

struct JsonBatch {
    p: EmbeddedPlatform,
    pace: Pace,
    seed: u64,
    ids: Vec<ObjectId>,
    faulty: ObjectId,
    /// The model, until the client takes it.
    docs: Cell<Vec<Doc>>,
}

fn args(seed: u64) -> Vec<Value> {
    vec![vjson!({"keys": (KEYS as u64), "seed": seed})]
}

pub fn setup(
    seed: u64,
    telemetry: bool,
    m: &mut Meter,
    s: &mut SetupStats,
) -> Result<Box<dyn Instance>, String> {
    let mut p = super::platform(telemetry, None);
    let (deployed, ns) = m.time(Kind::Setup, || {
        jsonrand::install(&mut p)?;
        p.register_function("bench/explode", |_| std::panic::panic_any(INJECTED_PANIC));
        p.deploy_yaml(FAULTY_YAML)
    });
    deployed.map_err(|e| format!("deploy: {e}"))?;
    s.deploy_ns = ns;
    let mut rng = SimRng::seed_from_u64(seed);
    let mut ids = Vec::with_capacity(DOCS);
    for _ in 0..DOCS {
        let (id, ns) = m.time(Kind::Setup, || p.create_object("JsonDoc", vjson!({})));
        s.create_ns += ns;
        s.creates += 1;
        ids.push(id.map_err(|e| format!("create: {e}"))?);
    }
    let faulty = p
        .create_object("Faulty", vjson!({}))
        .map_err(|e| format!("create: {e}"))?;
    // Populate every document through batches (also the warm-up).
    let mut docs = Vec::with_capacity(DOCS);
    for chunk in ids.chunks(BATCH) {
        let seeds: Vec<u64> = chunk.iter().map(|_| rng.range(0, 1 << 52)).collect();
        let items = chunk
            .iter()
            .zip(&seeds)
            .map(|(&id, &s)| BatchItem::new(id, "randomize", args(s)))
            .collect();
        for (out, &s) in p.invoke_batch(items).into_iter().zip(&seeds) {
            let out = out.map_err(|e| format!("populate: {e}"))?.output;
            if out != randomized_doc(s, KEYS) {
                return Err("populate: randomize output is not the seeded document".into());
            }
            docs.push(Doc {
                acked: out,
                unacked: Vec::new(),
            });
        }
    }
    Ok(Box::new(JsonBatch {
        pace: Pace::new(STEP, TICK_EVERY, !telemetry),
        p,
        seed,
        ids,
        faulty,
        docs: Cell::new(docs),
    }))
}

impl Instance for JsonBatch {
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
        let mut rng = SimRng::seed_from_u64(self.seed ^ 0x15_0b47);
        Box::new(BatchClient {
            picker: Picker::new(DOCS, SKEW, &mut rng),
            rng,
            inst: self,
            docs: self.docs.take(),
        })
    }

    fn root_kind(&self, _function: &str) -> Kind {
        Kind::InvokeWrite
    }

    fn pace_ticks(&self) -> u64 {
        self.pace.ticks.load(std::sync::atomic::Ordering::Relaxed)
    }
}

struct BatchClient<'a> {
    inst: &'a JsonBatch,
    rng: SimRng,
    picker: Picker,
    docs: Vec<Doc>,
}

/// One planned batch item: a write of a seeded document, a read, or the
/// call whose function panics.
#[derive(Clone, Copy)]
enum Item {
    Write(usize, u64),
    Read(usize),
    Explode,
}

impl BatchClient<'_> {
    fn plan(&mut self, poisoned: bool) -> (Vec<Item>, Vec<BatchItem>) {
        let mut plan = Vec::with_capacity(BATCH);
        let mut items = Vec::with_capacity(BATCH);
        for slot in 0..BATCH {
            let item = if poisoned && slot == POISON_SLOT {
                Item::Explode
            } else {
                let d = self.picker.pick(&mut self.rng);
                if self.rng.chance(0.5) {
                    Item::Write(d, self.rng.range(0, 1 << 52))
                } else {
                    Item::Read(d)
                }
            };
            items.push(match item {
                Item::Write(d, s) => BatchItem::new(self.inst.ids[d], "randomize", args(s)),
                Item::Read(d) => BatchItem::new(self.inst.ids[d], "read", vec![]),
                Item::Explode => BatchItem::new(self.inst.faulty, "explode", vec![]),
            });
            plan.push(item);
        }
        (plan, items)
    }

    /// Checks an acknowledged batch slot by slot, in submission order.
    fn check(
        &mut self,
        plan: &[Item],
        results: Vec<Result<oprc_core::invocation::TaskResult, oprc_platform::PlatformError>>,
    ) -> Result<(u64, u64, u64), String> {
        let (mut ok, mut writes, mut failed) = (0, 0, 0);
        for (item, result) in plan.iter().zip(results) {
            match (*item, result) {
                (Item::Explode, Err(_)) => failed += 1,
                (Item::Explode, Ok(_)) => return Err("the panicking item succeeded".into()),
                (_, Err(e)) => return Err(format!("batch item failed: {e}")),
                (Item::Write(d, s), Ok(out)) => {
                    let want = randomized_doc(s, KEYS);
                    if out.output != want {
                        return Err(format!("randomize(seed {s}) returned another document"));
                    }
                    self.docs[d] = Doc {
                        acked: want,
                        unacked: Vec::new(),
                    };
                    ok += 1;
                    writes += 1;
                }
                (Item::Read(d), Ok(out)) => {
                    if !self.docs[d].observe(&out.output) {
                        return Err(format!(
                            "read of {} returned a state never written",
                            self.inst.ids[d]
                        ));
                    }
                    ok += 1;
                }
            }
        }
        Ok((ok, writes, failed))
    }
}

impl Client for BatchClient<'_> {
    fn round(&mut self, m: &mut Meter) -> Result<(), String> {
        let p = &self.inst.p;
        for b in 0..BATCHES_PER_ROUND {
            let poisoned = b == BATCHES_PER_ROUND - 1;
            let (plan, items) = m.harness(|| self.plan(poisoned));
            let out = m.call(Kind::Batch, || {
                catch_unwind(AssertUnwindSafe(|| p.invoke_batch(items)))
            });
            m.attempted += BATCH as u64;
            m.batch_items += BATCH as u64;
            let pace = &self.inst.pace;
            let (ok, writes, failed, due) = m.harness(|| {
                let (ok, writes, failed) = match out {
                    Ok(results) => self.check(&plan, results)?,
                    Err(_) => {
                        // The whole batch is lost to the caller; any
                        // write in it may have landed.
                        for item in &plan {
                            if let Item::Write(d, s) = *item {
                                self.docs[d].unacked.push(s);
                            }
                        }
                        (0, 0, BATCH as u64)
                    }
                };
                Ok::<_, String>((ok, writes, failed, pace.advance(p, BATCH as u64)))
            })?;
            m.done(ok, writes);
            m.failed += failed;
            pace.tick(p, m, due);
        }
        Ok(())
    }

    fn verify(&self, durable: bool) -> Result<(), String> {
        let p = &self.inst.p;
        for (&id, doc) in self.inst.ids.iter().zip(&self.docs) {
            let state = if durable {
                p.durable_state(id).unwrap_or(Value::Null)
            } else {
                p.get_state(id)
                    .map_err(|e| format!("get_state {id}: {e}"))?
            };
            if !doc.clone().observe(&state["doc"]) {
                let tier = if durable { "durable" } else { "live" };
                return Err(format!("{tier} document of {id} was never written"));
            }
        }
        Ok(())
    }

    fn model_bytes(&self) -> u64 {
        heap_bytes_of(&self.docs)
    }
}
