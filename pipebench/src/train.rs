//! The training side of the pipeline: seeded client generation, one timed
//! PFRL-DM training schedule, snapshot export and held-out evaluation.

use crate::schedule::mix;
use pfrl_core::experiment::{evaluate_generalization, Algorithm, TrainedFederation};
use pfrl_core::fed::{ClientSetup, FedConfig, FederatedRunner, PfrlDmRunner, TrainingCurves};
use pfrl_core::presets::{table2_clients, table3_clients, TABLE2_DIMS, TABLE3_DIMS};
use pfrl_core::rl::PpoConfig;
use pfrl_core::sim::{EnvConfig, EnvDims};
use pfrl_core::telemetry::{InMemoryRecorder, MetricsSnapshot, Telemetry};
use pfrl_core::workloads::{hybrid_test_set, TaskSpec};
use std::sync::Arc;
use std::time::Instant;

/// Tasks in each client's training pool; episodes draw seeded windows.
const TRAIN_POOL: usize = 1000;
/// Tasks in each client's held-out set (Sec. 5.3 hybrid sets and the
/// serving windows are drawn from these).
const HELDOUT_TASKS: usize = 200;
/// Decision cap per episode. A policy that places the 200 held-out tasks
/// needs about 800 decisions; one that only waits runs to the cap, which
/// bounds what evaluating it costs (the default cap is 200k).
const MAX_DECISIONS: usize = 10_000;
/// Share of a hybrid held-out set drawn from the client's own tasks.
const OWN_FRAC: f64 = 0.2;

/// Which clients a workload federates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clients {
    /// The four exploratory clients of the paper's Table 2.
    Table2,
    /// `n` clients cycling through the ten Table 3 presets.
    Table3Cycled(usize),
}

impl Clients {
    pub fn count(self) -> usize {
        match self {
            Clients::Table2 => 4,
            Clients::Table3Cycled(n) => n,
        }
    }

    pub fn dims(self) -> EnvDims {
        match self {
            Clients::Table2 => TABLE2_DIMS,
            Clients::Table3Cycled(_) => TABLE3_DIMS,
        }
    }

    /// `samples` tasks per client from the preset generative models.
    fn sample(self, samples: usize, seed: u64) -> Vec<ClientSetup> {
        match self {
            Clients::Table2 => table2_clients(samples, seed),
            Clients::Table3Cycled(n) => (0..n.div_ceil(10))
                .flat_map(|block| {
                    table3_clients(samples, mix(seed, block as u64)).into_iter().enumerate().map(
                        move |(i, mut c)| {
                            c.name = format!("{:03}-{}", block * 10 + i, c.name);
                            c
                        },
                    )
                })
                .take(n)
                .collect(),
        }
    }
}

/// The generated inputs of one workload.
pub struct Inputs {
    pub setups: Vec<ClientSetup>,
    pub heldout: Vec<Vec<TaskSpec>>,
}

/// Draws every client's training pool and held-out set from `seed`.
pub fn generate(clients: Clients, seed: u64) -> Inputs {
    let setups = clients.sample(TRAIN_POOL, seed);
    let heldout = clients
        .sample(HELDOUT_TASKS, mix(seed, 0x4845_4c44))
        .into_iter()
        .map(|c| c.train_tasks)
        .collect();
    Inputs { setups, heldout }
}

/// One training schedule, run to completion.
pub struct Trained {
    pub runner: PfrlDmRunner,
    pub curves: TrainingCurves,
    /// Wall time of the schedule's `train_round` calls plus `finish`.
    pub train_s: f64,
    pub rounds_ms: Vec<f64>,
    pub finish_ms: f64,
    /// The recorder's contents after training, when traced.
    pub trace: Option<MetricsSnapshot>,
}

fn env_config() -> EnvConfig {
    EnvConfig { max_decisions: MAX_DECISIONS, ..EnvConfig::default() }
}

/// Builds the PFRL-DM federation of `inputs`, untrained, and the time
/// that took.
pub fn build(
    clients: Clients,
    inputs: &Inputs,
    fed: FedConfig,
    telemetry: Telemetry,
) -> (PfrlDmRunner, f64) {
    let setups = inputs.setups.clone();
    let t = Instant::now();
    let runner = PfrlDmRunner::new(setups, clients.dims(), env_config(), PpoConfig::default(), fed)
        .with_telemetry(telemetry);
    (runner, t.elapsed().as_secs_f64())
}

/// Builds the PFRL-DM federation from `inputs` and trains `fed` on it.
pub fn train(clients: Clients, inputs: &Inputs, fed: FedConfig, traced: bool) -> Trained {
    let recorder = traced.then(|| Arc::new(InMemoryRecorder::new()));
    let telemetry = match &recorder {
        Some(r) => Telemetry::new(r.clone()),
        None => Telemetry::noop(),
    };
    let (mut runner, _) = build(clients, inputs, fed, telemetry);

    let t = Instant::now();
    let mut rounds_ms = Vec::with_capacity(fed.rounds());
    for _ in 0..fed.rounds() {
        let r = Instant::now();
        runner.train_round();
        rounds_ms.push(r.elapsed().as_secs_f64() * 1e3);
    }
    let f = Instant::now();
    let curves = runner.finish();
    let finish_ms = f.elapsed().as_secs_f64() * 1e3;
    let train_s = t.elapsed().as_secs_f64();
    let trace = recorder.map(|r| r.snapshot());
    Trained { runner, curves, train_s, rounds_ms, finish_ms, trace }
}

/// Exports one snapshot per client and encodes it (`policy_snapshots` +
/// `to_bytes`).
pub fn export(runner: &PfrlDmRunner) -> Vec<Vec<u8>> {
    runner.policy_snapshots().iter().map(|s| s.to_bytes()).collect()
}

/// Fails unless every blob decodes to a snapshot that validates and
/// encodes back to the same bytes.
pub fn verify_export(blobs: &[Vec<u8>]) -> Result<(), String> {
    for blob in blobs {
        let snap = pfrl_core::fed::PolicySnapshot::from_bytes(blob)
            .map_err(|e| format!("exported snapshot does not decode: {e}"))?;
        snap.validate().map_err(|e| format!("exported snapshot does not validate: {e}"))?;
        if &snap.to_bytes() != blob {
            return Err(format!("snapshot of {} does not round-trip to equal bytes", snap.client));
        }
    }
    Ok(())
}

/// Held-out quality of a trained federation, averaged over clients.
pub struct Heldout {
    pub response: f64,
    pub makespan: f64,
    /// Held-out tasks a policy left unplaced when its episode hit the
    /// decision cap, and all held-out tasks evaluated.
    pub unplaced: usize,
    pub tasks: usize,
    pub eval_s: f64,
}

/// Evaluates every client on its seeded hybrid held-out set with
/// `evaluate_generalization`, then replays each evaluation to count the
/// tasks it left unplaced. Fails unless every metric is finite.
pub fn evaluate(
    runner: PfrlDmRunner,
    heldout: &[Vec<TaskSpec>],
    seed: u64,
) -> Result<Heldout, String> {
    let mut fed = TrainedFederation::new(Algorithm::PfrlDm, Box::new(runner));
    let eval_seed = mix(seed, 0x4556_414c);
    let t = Instant::now();
    let g = evaluate_generalization(&mut fed, heldout, OWN_FRAC, eval_seed);
    let eval_s = t.elapsed().as_secs_f64();
    let (mut unplaced, mut tasks) = (0, 0);
    for i in 0..fed.n_clients() {
        let hybrid = hybrid_test_set(heldout, i, OWN_FRAC, eval_seed);
        let m = fed.evaluate_client(i, &hybrid);
        if m.avg_response.to_bits() != g.response[i].to_bits() {
            return Err(format!("held-out evaluation of client {i} does not repeat"));
        }
        unplaced += m.tasks_unplaced;
        tasks += hybrid.len();
    }
    let n = g.response.len() as f64;
    let response = g.response.iter().sum::<f64>() / n;
    let makespan = g.makespan.iter().sum::<f64>() / n;
    if !(response.is_finite() && makespan.is_finite()) {
        return Err(format!("held-out metrics are not finite: {response} / {makespan}"));
    }
    Ok(Heldout { response, makespan, unplaced, tasks, eval_s })
}

/// Bit patterns of every reward in `curves`, for exact comparison.
pub fn curve_bits(curves: &TrainingCurves) -> Vec<u64> {
    curves.per_client.iter().flatten().map(|r| r.to_bits()).collect()
}
