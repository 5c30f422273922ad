//! Behaviour pins for the four federation runners.
//!
//! Each run below trains one runner to completion and pins two things: a
//! 64-bit digest (plus the length) of `checkpoint_bytes()`, which covers
//! the round cursor, every client's agent and optimizer state, the rule's
//! server state and the fault bookkeeping; and a digest of the reward
//! curves' bit patterns. Restore-then-re-encode tests only prove that the
//! encoder and decoder agree; these pins prove that a *fresh* run still
//! writes the same bytes, so a refactor of the round loop or the
//! checkpoint framing cannot drift silently.
//!
//! The telemetry half pins each algorithm's deterministic fingerprint
//! (counters and histogram shapes) from the fault-free configuration of
//! `tests/telemetry_determinism.rs` as a text fixture under
//! `tests/fixtures/`.
//!
//! The pinned values are portable: they do not depend on the build
//! profile or on the SIMD tier the tensor kernels dispatch to.

use pfrl_core::experiment::{run_federation_with_options, Algorithm, RunOptions};
use pfrl_core::fed::scenario::{ChurnEvent, ChurnKind, ChurnPlan, ScenarioBinding, ScenarioPlan};
use pfrl_core::fed::{
    AttackPlan, ClientSetup, FaultPlan, FedAvgRunner, FedConfig, IndependentRunner, PfrlDmRunner,
    RobustConfig, TrainingCurves,
};
use pfrl_core::presets::{table2_clients, TABLE2_DIMS};
use pfrl_core::rl::PpoConfig;
use pfrl_core::sim::{EnvConfig, EnvDims, VmSpec};
use pfrl_core::tensor::Matrix;
use pfrl_core::workloads::DatasetId;
use pfrl_telemetry::{InMemoryRecorder, Telemetry};
use std::path::PathBuf;
use std::sync::Arc;

const DATASETS: [DatasetId; 4] =
    [DatasetId::K8s, DatasetId::Google, DatasetId::Alibaba2017, DatasetId::Kvm2019];

/// `(run, checkpoint length, checkpoint digest, curves digest)`.
const PINS: &[(&str, usize, u64, u64)] = &[
    ("PFRL-DM/clean", 371803, 0xc3354074d5afd61f, 0x8c7dbf8dc8f723d4),
    ("PFRL-DM/chaos", 378847, 0xca89a024f7960820, 0x8c7dbf8dc8f723d4),
    ("FedAvg/clean", 304966, 0x9ada896fe9f1ba60, 0xad615ff40274a9f0),
    ("FedAvg/chaos", 353018, 0x955d5c57e599ab8f, 0xe26926f2c914dced),
    ("MFPO/clean", 341184, 0xb994e9cb7524cbe2, 0x8e9faf7bcbb3a352),
    ("MFPO/chaos", 382702, 0x6237141a67e2a2d3, 0x56c4c683184f024b),
    ("PPO/clean", 251627, 0x3cd5a8bd8d0d6263, 0x1677b135a6b33485),
    ("PPO/chaos", 251627, 0x3cd5a8bd8d0d6263, 0x1677b135a6b33485),
    ("FedAvg/mixing", 305571, 0x75bf9bd9718e7ad4, 0xcf24d357d6ddc548),
    ("FedAvg/secure", 304966, 0x354b3672fa8dfb10, 0xad615ff40274a9f0),
    ("PFRL-DM/add_client", 455312, 0x86952b6f0fc6684b, 0xcd4bd4f84c62aac8),
    ("PFRL-DM/fixed_alpha", 371819, 0x1219e28dd1585a95, 0x8c7dbf8dc8f723d4),
    ("PPO/critic_first", 224774, 0x324780c0ac3ee599, 0xc9793503a9c50d5c),
    ("PFRL-DM/critic_first", 346130, 0x4a1ba6a2bd203d45, 0xe1e95254af131134),
];

fn dims() -> EnvDims {
    EnvDims::new(2, 8, 64.0, 3)
}

fn setups(n: usize) -> Vec<ClientSetup> {
    (0..n)
        .map(|i| ClientSetup {
            name: format!("client{i}"),
            vms: vec![VmSpec::new(8, 64.0), VmSpec::new(4, 32.0)],
            train_tasks: DATASETS[i % DATASETS.len()].model().sample(80, 500 + i as u64),
        })
        .collect()
}

fn fed() -> FedConfig {
    FedConfig {
        episodes: 7,
        comm_every: 2,
        participation_k: 3,
        tasks_per_episode: Some(30),
        seed: 91,
        parallel: false,
    }
}

/// Every fault type, a defended sign-flip coalition, and a client that
/// leaves at round 1 and rejoins at round 2.
fn chaos_options() -> RunOptions {
    let churn = ChurnPlan::new(vec![
        ChurnEvent { round: 1, client: 3, kind: ChurnKind::Leave },
        ChurnEvent { round: 2, client: 3, kind: ChurnKind::Join },
    ]);
    RunOptions {
        fault_plan: FaultPlan::new(17)
            .with_dropout(0.2)
            .with_straggle(0.15, 2)
            .with_corrupt(0.2)
            .with_stale(0.2, 2),
        scenario: Some(ScenarioBinding::new(
            ScenarioPlan::new(5).with_churn(churn),
            DATASETS.to_vec(),
        )),
        attack_plan: AttackPlan::new(41).with_sign_flip(0.4, 1.0),
        robust: RobustConfig::defended(),
        ..RunOptions::default()
    }
}

/// FNV-1a over a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

fn curves_digest(curves: &TrainingCurves) -> u64 {
    fnv1a(curves.per_client.iter().flat_map(|c| {
        std::iter::once(c.len() as u64)
            .chain(c.iter().map(|r| r.to_bits()))
            .flat_map(u64::to_le_bytes)
    }))
}

fn pin(name: &str, checkpoint: Vec<u8>, curves: &TrainingCurves) -> (String, usize, u64, u64) {
    (name.to_string(), checkpoint.len(), fnv1a(checkpoint.iter().copied()), curves_digest(curves))
}

fn algorithm_run(alg: Algorithm, options: &RunOptions) -> (Vec<u8>, TrainingCurves) {
    let (curves, trained) = run_federation_with_options(
        alg,
        setups(4),
        dims(),
        EnvConfig::default(),
        PpoConfig::default(),
        fed(),
        options,
        Telemetry::noop(),
    );
    (trained.runner().checkpoint_bytes(), curves)
}

fn all_pins() -> Vec<(String, usize, u64, u64)> {
    let mut out = Vec::new();
    for alg in Algorithm::ALL {
        let (bytes, curves) = algorithm_run(alg, &RunOptions::default());
        out.push(pin(&format!("{alg}/clean"), bytes, &curves));
        let (bytes, curves) = algorithm_run(alg, &chaos_options());
        out.push(pin(&format!("{alg}/chaos"), bytes, &curves));
    }

    let (d, e, p) = (dims(), EnvConfig::default(), PpoConfig::default());
    // A fixed row-stochastic matrix with unequal weights per row.
    let mixing =
        Matrix::from_vec(4, 4, (0..16).map(|k| if k % 5 == 0 { 0.55 } else { 0.15 }).collect());
    let mut mixed = FedAvgRunner::new(setups(4), d, e, p, fed()).with_mixing(mixing);
    let curves = mixed.train();
    out.push(pin("FedAvg/mixing", mixed.checkpoint_bytes(), &curves));

    let mut secure = FedAvgRunner::new(setups(4), d, e, p, fed()).with_secure_aggregation(true);
    let curves = secure.train();
    out.push(pin("FedAvg/secure", secure.checkpoint_bytes(), &curves));

    let mut all = setups(5);
    let joiner = all.pop().unwrap();
    let mut joined = PfrlDmRunner::new(all, d, e, p, fed());
    joined.train_rounds(1);
    joined.add_client(joiner, true);
    let curves = joined.train();
    out.push(pin("PFRL-DM/add_client", joined.checkpoint_bytes(), &curves));

    // α pinned to the local critic: the blend ignores the public critic.
    let mut fixed = PfrlDmRunner::new(setups(4), d, e, p, fed());
    fixed.set_fixed_alpha(Some(1.0));
    let curves = fixed.train();
    out.push(pin("PFRL-DM/fixed_alpha", fixed.checkpoint_bytes(), &curves));

    // The update-order ablation: critics step before the actor, with
    // feasibility masking on.
    let ordered = PpoConfig { critic_first: true, mask_invalid_actions: true, ..p };
    let mut ppo = IndependentRunner::new(setups(4), d, e, ordered, fed());
    let curves = ppo.train();
    out.push(pin("PPO/critic_first", ppo.checkpoint_bytes(), &curves));
    let mut dm = PfrlDmRunner::new(setups(4), d, e, ordered, fed());
    let curves = dm.train();
    out.push(pin("PFRL-DM/critic_first", dm.checkpoint_bytes(), &curves));
    out
}

#[test]
fn fresh_runs_write_pinned_checkpoints_and_curves() {
    let actual = all_pins();
    let table: String = actual
        .iter()
        .map(|(n, len, ck, cv)| format!("    ({n:?}, {len}, 0x{ck:016x}, 0x{cv:016x}),\n"))
        .collect();
    let expected: Vec<(String, usize, u64, u64)> =
        PINS.iter().map(|&(n, len, ck, cv)| (n.to_string(), len, ck, cv)).collect();
    assert_eq!(actual, expected, "runner behaviour drifted; fresh values:\n{table}");
}

fn fingerprint_fixture(alg: Algorithm) -> PathBuf {
    let slug = alg.name().to_lowercase().replace('-', "_");
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(format!("fingerprint_{slug}.txt"))
}

/// The fault-free configuration of `tests/telemetry_determinism.rs`.
fn fingerprint_text(alg: Algorithm) -> String {
    let fed_cfg = FedConfig {
        episodes: 4,
        comm_every: 2,
        participation_k: 2,
        tasks_per_episode: Some(12),
        seed: 23,
        parallel: false,
    };
    let recorder = Arc::new(InMemoryRecorder::new());
    run_federation_with_options(
        alg,
        table2_clients(40, 6),
        TABLE2_DIMS,
        EnvConfig::default(),
        PpoConfig::default(),
        fed_cfg,
        &RunOptions::default(),
        Telemetry::new(recorder.clone()),
    );
    format!("{:#?}\n", recorder.snapshot().deterministic_fingerprint())
}

#[test]
fn telemetry_fingerprints_match_fixtures() {
    for alg in Algorithm::ALL {
        let path = fingerprint_fixture(alg);
        let expected = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
        assert!(fingerprint_text(alg) == expected, "{alg}: telemetry fingerprint drifted");
    }
}

/// Rewrites the fingerprint fixtures. Ignored: run it only when a change
/// to the recorded telemetry is intended, and commit the new text with it.
#[test]
#[ignore = "writes tests/fixtures/; run manually on intentional telemetry changes"]
fn regenerate_golden_fixtures_fingerprints() {
    for alg in Algorithm::ALL {
        std::fs::write(fingerprint_fixture(alg), fingerprint_text(alg)).unwrap();
    }
}
