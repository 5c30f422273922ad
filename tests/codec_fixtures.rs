//! Golden-fixture tests for the two binary wire formats: the federation
//! checkpoint container (`PFRL-FEDCKPT\x01`, one fixture per algorithm)
//! and the policy-snapshot container (`PFRL-POLICY\x01`).
//!
//! The fixtures under `tests/fixtures/` are known-good bytes committed to
//! the repository. Round-trip unit tests only prove the *current* encoder
//! and decoder agree with each other; these tests prove today's decoder
//! still accepts bytes written by a past encoder, so a codec edit cannot
//! silently orphan checkpoints and exported policies already on disk.
//! Any intentional format change must bump the version byte in the magic
//! and regenerate the fixtures (see `regenerate_golden_fixtures` below),
//! which makes the compatibility break explicit in the diff.
//!
//! `mfpo_round1.fedckpt` and `ppo_round1.fedckpt` are also what a fresh
//! run writes today, byte for byte
//! (`fresh_checkpoints_equal_committed_fixtures`). The other four —
//! `pfrl_dm_round1.fedckpt`, `fedavg_round1.fedckpt` and both `.policy`
//! files — were written by an older trainer whose numbers have since
//! moved, so they are restore-only: they prove the decoder still reads
//! them, not that training reproduces them. Do not regenerate them to
//! make them match.

use pfrl_core::experiment::{run_federation, Algorithm};
use pfrl_core::fed::{
    ClientSetup, FaultPlan, FedAvgRunner, FedConfig, IndependentRunner, MfpoRunner, PfrlDmRunner,
    PolicySnapshot,
};
use pfrl_core::rl::PpoConfig;
use pfrl_core::serve::Session;
use pfrl_core::sim::{EnvConfig, EnvDims, VmSpec};
use pfrl_core::workloads::DatasetId;
use std::path::PathBuf;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

fn read_fixture(name: &str) -> Vec<u8> {
    std::fs::read(fixture_path(name)).unwrap_or_else(|e| {
        panic!(
            "missing fixture {name}: {e}. Run \
             `cargo test --test codec_fixtures -- --ignored regenerate` to create it."
        )
    })
}

/// The frozen federation the checkpoint fixtures belong to. Everything
/// here is part of the fixture contract: the checkpoint fingerprint pins
/// seed/schedule/client count, so the decode tests must rebuild runners
/// with these exact values.
fn fixture_dims() -> EnvDims {
    EnvDims::new(2, 8, 64.0, 3)
}

fn fixture_setups() -> Vec<ClientSetup> {
    let datasets = [DatasetId::K8s, DatasetId::Google, DatasetId::Alibaba2017];
    datasets
        .iter()
        .enumerate()
        .map(|(i, d)| ClientSetup {
            name: format!("client{i}"),
            vms: vec![VmSpec::new(8, 64.0), VmSpec::new(4, 32.0)],
            train_tasks: d.model().sample(40, 1000 + i as u64),
        })
        .collect()
}

fn fixture_fed() -> FedConfig {
    FedConfig {
        episodes: 4,
        comm_every: 2,
        participation_k: 2,
        tasks_per_episode: Some(10),
        seed: 4242,
        parallel: false,
    }
}

/// A plan touching every fault type, so the checkpoint fixtures carry
/// non-trivial `ClientFault` state (quarantine history, straggler cursors).
fn fixture_plan() -> FaultPlan {
    FaultPlan::new(17).with_dropout(0.2).with_straggle(0.1, 2).with_corrupt(0.1).with_stale(0.1, 2)
}

fn pfrl_dm_runner() -> PfrlDmRunner {
    PfrlDmRunner::new(
        fixture_setups(),
        fixture_dims(),
        EnvConfig::default(),
        PpoConfig::default(),
        fixture_fed(),
    )
    .with_fault_plan(fixture_plan())
}

fn fedavg_runner() -> FedAvgRunner {
    FedAvgRunner::new(
        fixture_setups(),
        fixture_dims(),
        EnvConfig::default(),
        PpoConfig::default(),
        fixture_fed(),
    )
    .with_fault_plan(fixture_plan())
}

fn mfpo_runner() -> MfpoRunner {
    MfpoRunner::new(
        fixture_setups(),
        fixture_dims(),
        EnvConfig::default(),
        PpoConfig::default(),
        fixture_fed(),
    )
    .with_fault_plan(fixture_plan())
}

fn ppo_runner() -> IndependentRunner {
    IndependentRunner::new(
        fixture_setups(),
        fixture_dims(),
        EnvConfig::default(),
        PpoConfig::default(),
        fixture_fed(),
    )
    .with_fault_plan(fixture_plan())
}

/// Policy fixtures come from a tiny full federation (both agent bodies:
/// PFRL-DM exercises the dual-critic snapshot, PPO the single-critic one).
fn policy_fixture_bytes(alg: Algorithm) -> Vec<u8> {
    let (_, trained) = run_federation(
        alg,
        fixture_setups(),
        fixture_dims(),
        EnvConfig::default(),
        PpoConfig::default(),
        fixture_fed(),
    );
    trained.policy_snapshots()[0].to_bytes()
}

#[test]
fn golden_fedckpt_pfrl_dm_still_restores() {
    let bytes = read_fixture("pfrl_dm_round1.fedckpt");
    let mut runner = pfrl_dm_runner();
    runner.restore_checkpoint(&bytes).expect("committed PFRL-DM checkpoint must restore");
    assert_eq!(runner.rounds_done(), 1, "fixture was written after exactly one round");
    // The restored state must be trainable, not just parseable.
    let curves = runner.train();
    assert_eq!(curves.clients(), 3);
    assert!(curves.per_client.iter().all(|c| c.iter().all(|r| r.is_finite())));
}

#[test]
fn golden_fedckpt_fedavg_still_restores() {
    let bytes = read_fixture("fedavg_round1.fedckpt");
    let mut runner = fedavg_runner();
    runner.restore_checkpoint(&bytes).expect("committed FedAvg checkpoint must restore");
    assert_eq!(runner.rounds_done(), 1);
    let curves = runner.train();
    assert_eq!(curves.clients(), 3);
    assert!(curves.per_client.iter().all(|c| c.iter().all(|r| r.is_finite())));
}

#[test]
fn golden_fedckpt_mfpo_still_restores() {
    let bytes = read_fixture("mfpo_round1.fedckpt");
    let mut runner = mfpo_runner();
    runner.restore_checkpoint(&bytes).expect("committed MFPO checkpoint must restore");
    assert_eq!(runner.rounds_done(), 1);
    let curves = runner.train();
    assert_eq!(curves.clients(), 3);
    assert!(curves.per_client.iter().all(|c| c.iter().all(|r| r.is_finite())));
}

/// The PPO format carries no fault bookkeeping (nothing travels, so the
/// quarantine state never reaches training).
#[test]
fn golden_fedckpt_ppo_still_restores() {
    let bytes = read_fixture("ppo_round1.fedckpt");
    let mut runner = ppo_runner();
    runner.restore_checkpoint(&bytes).expect("committed PPO checkpoint must restore");
    assert_eq!(runner.rounds_done(), 1);
    let curves = runner.train();
    assert_eq!(curves.clients(), 3);
    assert!(curves.per_client.iter().all(|c| c.iter().all(|r| r.is_finite())));
}

/// A fresh runner still writes the committed MFPO and PPO fixtures after
/// one round, so both the trainer and the encoder are pinned to the bytes.
#[test]
fn fresh_checkpoints_equal_committed_fixtures() {
    let mut mf = mfpo_runner();
    mf.train_round();
    assert!(mf.checkpoint_bytes() == read_fixture("mfpo_round1.fedckpt"), "MFPO bytes drifted");
    let mut ppo = ppo_runner();
    ppo.train_round();
    assert!(ppo.checkpoint_bytes() == read_fixture("ppo_round1.fedckpt"), "PPO bytes drifted");
}

#[test]
fn golden_policy_snapshots_still_decode_and_serve() {
    for (name, algorithm) in [("pfrl_dm_client0.policy", "PFRL-DM"), ("ppo_client0.policy", "PPO")]
    {
        let bytes = read_fixture(name);
        let snap = PolicySnapshot::from_bytes(&bytes)
            .unwrap_or_else(|e| panic!("committed snapshot {name} must decode: {e}"));
        assert_eq!(snap.algorithm, algorithm, "{name}");
        assert_eq!(snap.client, "client0", "{name}");
        // Decoding is not enough: the snapshot must instantiate a serving
        // session and drive a full episode.
        let tasks = DatasetId::Google.model().sample(15, 7);
        let mut session =
            Session::new(&snap).unwrap_or_else(|e| panic!("snapshot {name} must instantiate: {e}"));
        let m = session.run_episode(&tasks);
        assert_eq!(m.tasks_placed + m.tasks_unplaced, 15, "{name}");
    }
}

/// Corrupting the magic or truncating the payload must be an error, never
/// a garbage decode — for both containers.
#[test]
fn corrupted_fixtures_are_rejected() {
    let mut ckpt = read_fixture("fedavg_round1.fedckpt");
    ckpt[0] ^= 0xFF;
    assert!(fedavg_runner().restore_checkpoint(&ckpt).is_err(), "bad magic accepted");
    ckpt[0] ^= 0xFF;
    let truncated = &ckpt[..ckpt.len() / 2];
    assert!(fedavg_runner().restore_checkpoint(truncated).is_err(), "truncation accepted");

    let mut policy = read_fixture("pfrl_dm_client0.policy");
    policy[0] ^= 0xFF;
    assert!(PolicySnapshot::from_bytes(&policy).is_err(), "bad magic accepted");
    policy[0] ^= 0xFF;
    assert!(
        PolicySnapshot::from_bytes(&policy[..policy.len() - 3]).is_err(),
        "truncation accepted"
    );
}

/// Regenerates every fixture. Ignored: run it only when the wire format
/// changes *intentionally* (after bumping the magic's version byte), and
/// commit the new bytes together with the format change.
#[test]
#[ignore = "writes tests/fixtures/; run manually on intentional format changes"]
fn regenerate_golden_fixtures() {
    let dir = fixture_path("");
    std::fs::create_dir_all(&dir).unwrap();

    let mut dm = pfrl_dm_runner();
    dm.train_round();
    std::fs::write(fixture_path("pfrl_dm_round1.fedckpt"), dm.checkpoint_bytes()).unwrap();

    let mut fa = fedavg_runner();
    fa.train_round();
    std::fs::write(fixture_path("fedavg_round1.fedckpt"), fa.checkpoint_bytes()).unwrap();

    let mut mf = mfpo_runner();
    mf.train_round();
    std::fs::write(fixture_path("mfpo_round1.fedckpt"), mf.checkpoint_bytes()).unwrap();

    let mut ppo = ppo_runner();
    ppo.train_round();
    std::fs::write(fixture_path("ppo_round1.fedckpt"), ppo.checkpoint_bytes()).unwrap();

    std::fs::write(fixture_path("pfrl_dm_client0.policy"), policy_fixture_bytes(Algorithm::PfrlDm))
        .unwrap();
    std::fs::write(fixture_path("ppo_client0.policy"), policy_fixture_bytes(Algorithm::Ppo))
        .unwrap();
}
