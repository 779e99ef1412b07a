//! `cluster_chaos`: a 4-node plane serving availability-0.999 classes
//! under seeded fault injection. Errors and latency spikes fire at every
//! injection site at a rate the retries absorb, and torn faults are
//! armed at seeded points on the four sites every invocation crosses.
//! The mix is single invokes, a 3-step dataflow and small batches;
//! `Ledger` runs with locality routing off, so its state is shipped
//! between nodes; and `node_leave`/`node_join` cycles run throughout.
//! It is the only workload that runs the retry loop, the interpreted
//! dataflow engine, the batch sequential fallback, function shipping and
//! live migration.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::Ordering;

use oprc_chaos::{FaultKind, FaultPlan, InjectionSite};
use oprc_core::invocation::{TaskError, TaskResult};
use oprc_core::object::ObjectId;
use oprc_core::template::{
    ClassRuntimeTemplate, RuntimeConfig, TemplateCatalog, TemplateCondition,
};
use oprc_platform::embedded::{BatchItem, EmbeddedPlatform};
use oprc_simcore::{SimDuration, SimRng};
use oprc_value::{vjson, Value};

use super::{Picker, STEP, TICK_EVERY};
use crate::alloc::heap_bytes_of;
use crate::bench::{Client, Instance, SetupStats};
use crate::meter::{Kind, Meter, Pace};

const ACCOUNTS: usize = 512;
const LEDGERS: usize = 256;
const SKEW: f64 = 0.8;
const NODES: usize = 4;
/// Probability of a fault at each site per call; half are errors, half
/// latency spikes.
const FAULT_RATE: f64 = 0.01;
/// Probability that an operation is preceded by an armed torn fault.
const TORN_RATE: f64 = 0.02;
/// Sites every invocation attempt crosses (no class here has files, so
/// `storage.presign` is never reached).
const TORN_SITES: [InjectionSite; 4] = [
    InjectionSite::StateLoad,
    InjectionSite::OffloadRpc,
    InjectionSite::EngineExecute,
    InjectionSite::StateCommit,
];
const BATCH: usize = 3;
/// Rounds between two migration cycles (one leave, one join).
const MIGRATE_EVERY: u64 = 25;
const WINDOW_ROUNDS: u64 = 2000;
/// Rounds per second on the reference host.
const ROUNDS_PER_SECOND: u64 = 2700;

const PACKAGE_YAML: &str = r#"
name: bank
classes:
  - name: Account
    qos:
      availability: 0.999
    constraint:
      persistent: true
    keySpecs: [balance, ops]
    functions:
      - name: deposit
        image: bank/deposit
      - name: fee
        image: bank/fee
      - name: stamp
        image: bank/stamp
      - name: balance
        image: bank/balance
        readonly: true
    dataflows:
      - name: settle
        output: done
        steps:
          - id: credit
            function: deposit
            inputs: [input]
          - id: charge
            function: fee
            inputs: ["step:credit"]
          - id: done
            function: stamp
            inputs: ["step:charge"]
  - name: Ledger
    qos:
      availability: 0.999
      throughput: 5000
    constraint:
      persistent: true
    keySpecs: [count]
    functions:
      - name: incr
        image: bank/incr
"#;

/// The standard catalog plus a template that turns locality routing off
/// for high-throughput, high-availability classes (`Ledger`).
fn catalog() -> TemplateCatalog {
    let mut c = TemplateCatalog::standard();
    c.add(
        ClassRuntimeTemplate::new(
            "shipping",
            30,
            RuntimeConfig {
                locality_routing: false,
                dht_replication: 3,
                min_replicas: 2,
                ..RuntimeConfig::default()
            },
        )
        .condition(TemplateCondition {
            availability_at_least: Some(0.999),
            throughput_at_least: Some(5000),
            ..TemplateCondition::default()
        }),
    );
    c
}

fn field(task_state: &Value, key: &str) -> i64 {
    task_state[key].as_i64().unwrap_or(0)
}

fn install(p: &mut EmbeddedPlatform) -> Result<(), oprc_platform::PlatformError> {
    p.register_function("bank/deposit", |t| {
        let amount = t
            .args
            .first()
            .and_then(|a| a["amount"].as_i64())
            .ok_or_else(|| TaskError::Application("deposit needs an amount".into()))?;
        let balance = field(&t.state_in, "balance") + amount;
        let ops = field(&t.state_in, "ops") + 1;
        Ok(TaskResult::output(vjson!({"balance": balance, "ops": ops}))
            .with_patch(vjson!({"balance": balance, "ops": ops})))
    });
    p.register_function("bank/fee", |t| {
        let balance = field(&t.state_in, "balance") - 1;
        let ops = field(&t.state_in, "ops") + 1;
        Ok(TaskResult::output(vjson!({"balance": balance, "ops": ops}))
            .with_patch(vjson!({"balance": balance, "ops": ops})))
    });
    p.register_function("bank/stamp", |t| {
        let ops = field(&t.state_in, "ops") + 1;
        Ok(
            TaskResult::output(vjson!({"balance": (field(&t.state_in, "balance")), "ops": ops}))
                .with_patch(vjson!({"ops": ops})),
        )
    });
    p.register_function("bank/balance", |t| {
        Ok(TaskResult::output(vjson!({
            "balance": (field(&t.state_in, "balance")),
            "ops": (field(&t.state_in, "ops")),
        })))
    });
    p.register_function("bank/incr", |t| {
        let n = field(&t.state_in, "count") + 1;
        Ok(TaskResult::output(n).with_patch(vjson!({"count": n})))
    });
    p.deploy_yaml(PACKAGE_YAML)
}

/// Oracle state: `(balance, ops)` per account, a count per ledger.
#[derive(Debug, Clone, Default)]
struct Model {
    accounts: Vec<(i64, i64)>,
    ledgers: Vec<i64>,
}

struct Chaos {
    p: EmbeddedPlatform,
    pace: Pace,
    seed: u64,
    accounts: Vec<ObjectId>,
    ledgers: Vec<ObjectId>,
    /// The model, until the client takes it.
    model: Cell<Model>,
}

pub fn setup(
    seed: u64,
    telemetry: bool,
    m: &mut Meter,
    s: &mut SetupStats,
) -> Result<Box<dyn Instance>, String> {
    let mut p = super::platform(telemetry, Some(catalog()));
    let (deployed, ns) = m.time(Kind::Setup, || install(&mut p));
    deployed.map_err(|e| format!("deploy: {e}"))?;
    s.deploy_ns = ns;
    p.enable_chaos(
        FaultPlan::new(seed)
            .rate_all(FAULT_RATE)
            .latency_share(0.5)
            .latency(SimDuration::from_millis(2)),
    );
    for _ in 1..NODES {
        p.node_join().map_err(|e| format!("node_join: {e}"))?;
    }
    let mut rng = SimRng::seed_from_u64(seed);
    let mut model = Model {
        accounts: Vec::with_capacity(ACCOUNTS),
        ledgers: vec![0; LEDGERS],
    };
    let mut create = |class: &str, state: Value, m: &mut Meter| {
        let (id, ns) = m.time(Kind::Setup, || p.create_object(class, state));
        s.create_ns += ns;
        s.creates += 1;
        id.map_err(|e| format!("create: {e}"))
    };
    let mut accounts = Vec::with_capacity(ACCOUNTS);
    for _ in 0..ACCOUNTS {
        let balance = rng.range(0, 10_000) as i64;
        accounts.push(create(
            "Account",
            vjson!({"balance": balance, "ops": 0}),
            m,
        )?);
        model.accounts.push((balance, 0));
    }
    let ledgers = (0..LEDGERS)
        .map(|_| create("Ledger", vjson!({"count": 0}), m))
        .collect::<Result<Vec<_>, _>>()?;
    // Warm-up: read every account once.
    for (&id, &(balance, ops)) in accounts.iter().zip(&model.accounts) {
        let out = p
            .invoke(id, "balance", vec![])
            .map_err(|e| format!("warm-up: {e}"))?;
        if out.output != vjson!({"balance": balance, "ops": ops}) {
            return Err(format!("warm-up read of {id} returned {}", out.output));
        }
    }
    Ok(Box::new(Chaos {
        pace: Pace::new(STEP, TICK_EVERY, !telemetry),
        p,
        seed,
        accounts,
        ledgers,
        model: Cell::new(model),
    }))
}

impl Instance for Chaos {
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
        let mut rng = SimRng::seed_from_u64(self.seed ^ 0xc4_a05);
        let joined = self
            .p
            .node_stats()
            .iter()
            .filter(|n| n.status == "ready")
            .map(|n| n.node)
            .skip(1)
            .collect();
        Box::new(ChaosClient {
            accounts: Picker::new(ACCOUNTS, SKEW, &mut rng),
            ledgers: Picker::new(LEDGERS, SKEW, &mut rng),
            rng,
            inst: self,
            model: self.model.take(),
            joined,
            commits_at_start: self.p.metrics().commits_total(),
            acked_calls: 0,
            rounds: 0,
        })
    }

    fn root_kind(&self, function: &str) -> Kind {
        match function {
            "settle" => Kind::Flow,
            "balance" => Kind::InvokeRead,
            _ => Kind::InvokeWrite,
        }
    }

    fn pace_ticks(&self) -> u64 {
        self.pace.ticks.load(Ordering::Relaxed)
    }
}

struct ChaosClient<'a> {
    inst: &'a Chaos,
    rng: SimRng,
    accounts: Picker,
    ledgers: Picker,
    model: Model,
    /// Joined nodes, oldest first (the boot node never leaves).
    joined: VecDeque<u64>,
    commits_at_start: u64,
    /// Function executions of the acknowledged invocations (one per
    /// dataflow step): the most state commits exactly-once allows.
    acked_calls: u64,
    rounds: u64,
}

/// One planned operation.
#[derive(Debug, Clone, Copy)]
enum Op {
    Deposit(usize, i64),
    Balance(usize),
    Incr(usize),
    Settle(usize, i64),
}

impl Op {
    /// The call: target, function and arguments.
    fn call(self, c: &ChaosClient<'_>) -> (ObjectId, &'static str, Vec<Value>) {
        match self {
            Op::Deposit(a, amount) => (
                c.inst.accounts[a],
                "deposit",
                vec![vjson!({"amount": amount})],
            ),
            Op::Balance(a) => (c.inst.accounts[a], "balance", vec![]),
            Op::Incr(l) => (c.inst.ledgers[l], "incr", vec![]),
            Op::Settle(a, amount) => (
                c.inst.accounts[a],
                "settle",
                vec![vjson!({"amount": amount})],
            ),
        }
    }

    fn item(self, c: &ChaosClient<'_>) -> BatchItem {
        let (id, function, args) = self.call(c);
        BatchItem::new(id, function, args)
    }

    /// Function executions: one per dataflow step.
    fn calls(self) -> u64 {
        match self {
            Op::Settle(..) => 3,
            _ => 1,
        }
    }

    /// State updates the operation makes: one per writing function
    /// (every dataflow step patches the state), none for a read. A
    /// property of the application, not of how the platform commits.
    fn updates(self) -> u64 {
        match self {
            Op::Balance(_) => 0,
            op => op.calls(),
        }
    }

    fn kind(self) -> Kind {
        match self {
            Op::Deposit(..) | Op::Incr(_) => Kind::InvokeWrite,
            Op::Balance(_) => Kind::InvokeRead,
            Op::Settle(..) => Kind::Flow,
        }
    }

    /// Applies the acknowledged operation to the model and checks its
    /// output.
    fn check(self, model: &mut Model, out: &Value) -> Result<(), String> {
        let want = match self {
            Op::Deposit(a, amount) => {
                let acct = &mut model.accounts[a];
                *acct = (acct.0 + amount, acct.1 + 1);
                vjson!({"balance": (acct.0), "ops": (acct.1)})
            }
            Op::Balance(a) => {
                let acct = model.accounts[a];
                vjson!({"balance": (acct.0), "ops": (acct.1)})
            }
            Op::Incr(l) => {
                model.ledgers[l] += 1;
                Value::from(model.ledgers[l])
            }
            Op::Settle(a, amount) => {
                let acct = &mut model.accounts[a];
                *acct = (acct.0 + amount - 1, acct.1 + 3);
                vjson!({"balance": (acct.0), "ops": (acct.1)})
            }
        };
        if *out != want {
            return Err(format!("{self:?} returned {out}, the model expects {want}"));
        }
        Ok(())
    }
}

impl ChaosClient<'_> {
    fn draw(&mut self) -> Op {
        let roll = self.rng.range(0, 100);
        let amount = self.rng.range(1, 100) as i64;
        match roll {
            0..=39 => Op::Deposit(self.accounts.pick(&mut self.rng), amount),
            40..=59 => Op::Balance(self.accounts.pick(&mut self.rng)),
            60..=89 => Op::Incr(self.ledgers.pick(&mut self.rng)),
            _ => Op::Settle(self.accounts.pick(&mut self.rng), amount),
        }
    }

    /// Arms a torn fault on a seeded site before some operations.
    fn maybe_arm_torn(&mut self) {
        if self.rng.chance(TORN_RATE) {
            let site = TORN_SITES[self.rng.range(0, TORN_SITES.len() as u64) as usize];
            self.inst.p.chaos().script_next(site, FaultKind::Torn);
        }
    }

    /// One migration cycle: the oldest joined node leaves, a new one
    /// joins.
    fn migrate(&mut self, m: &mut Meter) -> Result<(), String> {
        let p = &self.inst.p;
        let node = self.joined.pop_front().ok_or("no joined node to retire")?;
        let (left, ns) = m.time(Kind::Migrate, || p.node_leave(node));
        let left = left.map_err(|e| format!("node_leave: {e}"))?;
        m.migrations.push((ns, left.records_moved));
        let (joined, ns) = m.time(Kind::Migrate, || p.node_join());
        let joined = joined.map_err(|e| format!("node_join: {e}"))?;
        m.migrations.push((ns, joined.records_moved));
        self.joined.push_back(joined.node);
        Ok(())
    }
}

/// Operations per round: single invokes and dataflows, then the items
/// of `BATCHES` small batches.
const SINGLES: usize = 34;
const BATCHES: usize = 2;

impl Client for ChaosClient<'_> {
    fn round(&mut self, m: &mut Meter) -> Result<(), String> {
        let p = &self.inst.p;
        let counts = || (p.metrics().commits_total(), p.metrics().fused_units_total());
        for _ in 0..SINGLES {
            let (op, item, before) = m.harness(|| {
                self.maybe_arm_torn();
                let op = self.draw();
                (op, op.call(self), counts())
            });
            m.attempted += 1;
            let (id, function, args) = item;
            let out = m.call(op.kind(), || p.invoke(id, function, args));
            let pace = &self.inst.pace;
            let model = &mut self.model;
            let (after, due) = m.harness(|| {
                let after = counts();
                let out = out.map_err(|e| format!("{op:?} failed: {e}"))?.output;
                op.check(model, &out)?;
                Ok::<_, String>((after, pace.advance(p, 1)))
            })?;
            if op.kind() == Kind::Flow {
                m.flow_commits += after.0 - before.0;
                m.flow_fused += after.1 - before.1;
            }
            self.acked_calls += op.calls();
            m.done(1, op.updates());
            pace.tick(p, m, due);
        }
        for _ in 0..BATCHES {
            let (ops, items) = m.harness(|| {
                self.maybe_arm_torn();
                let ops: Vec<Op> = (0..BATCH)
                    .map(|_| loop {
                        match self.draw() {
                            Op::Settle(..) => continue,
                            op => break op,
                        }
                    })
                    .collect();
                let items: Vec<BatchItem> = ops.iter().map(|op| op.item(self)).collect();
                (ops, items)
            });
            m.attempted += BATCH as u64;
            m.batch_items += BATCH as u64;
            let results = m.call(Kind::Batch, || p.invoke_batch(items));
            let pace = &self.inst.pace;
            let model = &mut self.model;
            let (calls, updates, due) = m.harness(|| {
                let (mut calls, mut updates) = (0, 0);
                for (op, out) in ops.iter().zip(results) {
                    let out = out
                        .map_err(|e| format!("batch item {op:?} failed: {e}"))?
                        .output;
                    op.check(model, &out)?;
                    calls += op.calls();
                    updates += op.updates();
                }
                Ok::<_, String>((calls, updates, pace.advance(p, BATCH as u64)))
            })?;
            self.acked_calls += calls;
            m.done(BATCH as u64, updates);
            pace.tick(p, m, due);
        }
        self.rounds += 1;
        if self.rounds.is_multiple_of(MIGRATE_EVERY) {
            self.migrate(m)?;
        }
        Ok(())
    }

    fn verify(&self, durable: bool) -> Result<(), String> {
        let p = &self.inst.p;
        let tier = if durable { "durable" } else { "live" };
        let read = |id: ObjectId| {
            if durable {
                Ok(p.durable_state(id).unwrap_or(Value::Null))
            } else {
                p.get_state(id).map_err(|e| format!("get_state {id}: {e}"))
            }
        };
        for (&id, &(balance, ops)) in self.inst.accounts.iter().zip(&self.model.accounts) {
            let state = read(id)?;
            if state["balance"].as_i64() != Some(balance) || state["ops"].as_i64() != Some(ops) {
                return Err(format!(
                    "{tier} state of account {id} is {state}, expected {balance}/{ops}"
                ));
            }
        }
        for (&id, &count) in self.inst.ledgers.iter().zip(&self.model.ledgers) {
            let state = read(id)?;
            if state["count"].as_i64() != Some(count) {
                return Err(format!(
                    "{tier} state of ledger {id} is {state}, expected {count}"
                ));
            }
        }
        // The exact balances and counters above prove every
        // acknowledged write landed once. Commits may fall short of the
        // acknowledged function executions (a platform need not commit
        // a read, and may fuse a dataflow's commits) but never exceed
        // them: no retry may commit twice.
        let commits = p.metrics().commits_total() - self.commits_at_start;
        if commits > self.acked_calls {
            return Err(format!(
                "{commits} state commits for {} acknowledged function executions",
                self.acked_calls
            ));
        }
        Ok(())
    }

    fn model_bytes(&self) -> u64 {
        heap_bytes_of(&self.model)
    }
}
