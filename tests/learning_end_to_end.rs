//! End-to-end learning tests (release-friendly sizes): the agents must
//! demonstrably learn, and the trained-policy machinery must hold together
//! through the full public API.

use pfrl_core::experiment::{run_federation, Algorithm};
use pfrl_core::fed::FedConfig;
use pfrl_core::rl::{Agent, PpoConfig};
use pfrl_core::sim::{CloudEnv, EnvConfig, EnvDims, VmSpec};
use pfrl_core::workloads::DatasetId;

fn dims() -> EnvDims {
    EnvDims::new(2, 8, 64.0, 3)
}

fn mk_env() -> CloudEnv {
    CloudEnv::new(dims(), vec![VmSpec::new(8, 64.0), VmSpec::new(4, 32.0)], EnvConfig::default())
}

#[test]
#[ignore = "slow tier: 160 training episodes; run via `--include-ignored` (CI scheduled job)"]
fn ppo_and_dual_critic_both_improve() {
    let tasks = DatasetId::K8s.model().sample(25, 5);
    let d = dims();

    let improvement = |rewards: &[f64]| {
        let k = 10.min(rewards.len() / 2);
        let early: f64 = rewards[..k].iter().sum::<f64>() / k as f64;
        let late: f64 = rewards[rewards.len() - k..].iter().sum::<f64>() / k as f64;
        late - early
    };

    let mut env = mk_env();
    let mut ppo = Agent::new(d.state_dim(), d.action_dim(), 1, PpoConfig::default(), 1);
    let mut r1 = Vec::new();
    for _ in 0..80 {
        env.reset(tasks.clone());
        r1.push(ppo.train_one_episode(&mut env) as f64);
    }
    assert!(improvement(&r1) > 5.0, "PPO improvement {:.1}", improvement(&r1));

    let mut dual = Agent::new(d.state_dim(), d.action_dim(), 2, PpoConfig::default(), 1);
    let mut r2 = Vec::new();
    for _ in 0..80 {
        env.reset(tasks.clone());
        r2.push(dual.train_one_episode(&mut env) as f64);
    }
    assert!(improvement(&r2) > 5.0, "dual-critic improvement {:.1}", improvement(&r2));
    assert!((0.0..=1.0).contains(&dual.alpha()));
}

#[test]
fn all_four_algorithms_complete_a_federation_and_evaluate() {
    use pfrl_core::presets::{table2_clients, TABLE2_DIMS};
    let fed = FedConfig {
        episodes: 4,
        comm_every: 2,
        participation_k: 2,
        tasks_per_episode: Some(15),
        seed: 7,
        parallel: true,
    };
    for alg in Algorithm::ALL {
        let (curves, mut trained) = run_federation(
            alg,
            table2_clients(60, 4),
            TABLE2_DIMS,
            EnvConfig::default(),
            PpoConfig::default(),
            fed,
        );
        assert_eq!(curves.clients(), 4, "{alg}");
        // Evaluate every client on a foreign workload through the API.
        let foreign = DatasetId::K8s.model().sample(25, 99);
        for i in 0..trained.n_clients() {
            let m = trained.evaluate_client(i, &foreign);
            assert_eq!(m.tasks_placed + m.tasks_unplaced, 25, "{alg} client {i}");
        }
    }
}

/// The Fig. 9 mechanism at integration scope: after heterogeneous clients
/// diverge, loading the FedAvg-averaged critic must not *improve* the mean
/// local critic loss (it typically worsens it).
#[test]
#[ignore = "slow tier: 4-client divergence run; run via `--include-ignored` (CI scheduled job)"]
fn fedavg_aggregation_hurts_local_critic_fit() {
    use pfrl_core::fed::{ClientSetup, FedAvgRunner};
    let datasets = [DatasetId::K8s, DatasetId::HpcWz, DatasetId::Kvm2019, DatasetId::Google];
    let setups: Vec<ClientSetup> = datasets
        .iter()
        .enumerate()
        .map(|(i, d)| ClientSetup {
            name: format!("c{i}"),
            vms: vec![VmSpec::new(8, 64.0), VmSpec::new(4, 32.0)],
            train_tasks: d.model().sample(100, 50 + i as u64),
        })
        .collect();
    let fed = FedConfig {
        episodes: 20,
        comm_every: 10,
        participation_k: 2,
        tasks_per_episode: Some(20),
        seed: 8,
        parallel: true,
    };
    let mut runner =
        FedAvgRunner::new(setups, dims(), EnvConfig::default(), PpoConfig::default(), fed);
    runner.train();
    assert!(!runner.loss_probes().is_empty());
    let worsened = runner.loss_probes().iter().filter(|p| p.loss_after >= p.loss_before).count();
    // At least half the rounds show the degradation the paper reports.
    assert!(
        worsened * 2 >= runner.loss_probes().len(),
        "aggregation worsened only {worsened}/{} rounds",
        runner.loss_probes().len()
    );
}
