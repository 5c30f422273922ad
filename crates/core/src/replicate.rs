//! Multi-seed replication driver over [`FederatedRunner`](pfrl_fed::FederatedRunner).
//!
//! Single-seed curves are one sample from a noisy distribution — nothing a
//! regression gate can lean on. [`run_replications`] fans `R` independent
//! replications of one federation out over the rayon pool, each with a seed
//! derived through its own labeled [`SeedStream`] branch, and hands the
//! trained federations back for metric extraction.
//!
//! # Seed policy
//!
//! Replication `r` of root seed `s` runs with
//! `SeedStream::new(s).child("replication").index(r)`. The label matters:
//! the federation machinery derives its own streams from the *run* seed via
//! `child("episodes")` / `child("agent")` / `child("server")` /
//! `child("participation")`, the workload presets use plain
//! `derive_seed(seed, client_index)`, and fault plans hash
//! `child("round").index(...)` — a replication seed produced by a bare
//! `derive_seed(root, r)` could collide with the per-client workload
//! stream of the same root (identical `(root, index)` pairs). Routing
//! replications through their own labeled child makes the replication
//! axis disjoint from every existing stream by construction;
//! `replication_seed` is the one place that derivation lives.

use crate::experiment::{run_federation_with_options, Algorithm, RunOptions, TrainedFederation};
use pfrl_fed::{ClientSetup, FedConfig, TrainingCurves};
use pfrl_rl::PpoConfig;
use pfrl_sim::{EnvConfig, EnvDims};
use pfrl_stats::SeedStream;
use rayon::prelude::*;

/// The run seed of replication `rep` under `root` (see the module docs for
/// why this is a labeled stream rather than `derive_seed(root, rep)`).
pub fn replication_seed(root: u64, rep: usize) -> u64 {
    SeedStream::new(root).child("replication").index(rep as u64).seed()
}

/// Everything one replication needs: the clients, the shared environment
/// shape, and the algorithm/federation schedules.
#[derive(Debug, Clone)]
pub struct ReplicationSpec {
    /// Client environments and private task pools.
    pub setups: Vec<ClientSetup>,
    /// Federation-wide observation/action dimensions.
    pub dims: EnvDims,
    /// Reward shaping and simulation options.
    pub env_cfg: EnvConfig,
    /// Agent hyperparameters.
    pub ppo_cfg: PpoConfig,
    /// Federation schedule. `seed` is overwritten with the replication
    /// seed, and `parallel` is forced off when the replications themselves
    /// run on the pool (one layer of parallelism, fanned at the widest
    /// axis).
    pub fed_cfg: FedConfig,
    /// Run-shaping knobs: fault plan, drift/churn scenario, workflow pools
    /// ([`RunOptions::default`] for a healthy flat-task run).
    pub options: RunOptions,
}

/// One completed replication: its derived seed, the training curves, and
/// the trained federation (for post-training evaluation).
pub struct Replication {
    /// Replication index, `0..n_reps`.
    pub rep: usize,
    /// The derived run seed (`replication_seed(root, rep)`).
    pub seed: u64,
    /// Per-client reward curves.
    pub curves: TrainingCurves,
    /// The trained federation, ready for greedy evaluation.
    pub federation: TrainedFederation,
}

/// Trains `n_reps` independent replications of `algorithm` and returns
/// them in replication order.
///
/// `spec_for(seed, rep)` builds each replication's spec; it MUST derive
/// any randomness (workload sampling, splits) from `seed` alone so that a
/// replication is a pure function of `(root_seed, rep)` — that is what
/// makes paired cross-algorithm comparisons valid (same `rep` ⇒ identical
/// clients and task pools for every algorithm).
///
/// With `parallel`, replications fan out over the rayon pool and each
/// inner federation is forced sequential — the widest axis gets the
/// threads, and results are bit-identical either way.
pub fn run_replications(
    algorithm: Algorithm,
    n_reps: usize,
    root_seed: u64,
    parallel: bool,
    spec_for: impl Fn(u64, usize) -> ReplicationSpec + Sync,
) -> Vec<Replication> {
    assert!(n_reps >= 1, "need at least one replication");
    let run_one = |rep: &usize| -> Replication {
        let rep = *rep;
        let seed = replication_seed(root_seed, rep);
        let mut spec = spec_for(seed, rep);
        spec.fed_cfg.seed = seed;
        if parallel {
            spec.fed_cfg.parallel = false;
        }
        let (curves, federation) = run_federation_with_options(
            algorithm,
            spec.setups,
            spec.dims,
            spec.env_cfg,
            spec.ppo_cfg,
            spec.fed_cfg,
            &spec.options,
            pfrl_telemetry::Telemetry::noop(),
        );
        Replication { rep, seed, curves, federation }
    };
    let reps: Vec<usize> = (0..n_reps).collect();
    if parallel {
        reps.par_iter().map(run_one).collect()
    } else {
        reps.iter().map(run_one).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::{table2_clients, TABLE2_DIMS};

    fn tiny_spec(seed: u64) -> ReplicationSpec {
        ReplicationSpec {
            setups: table2_clients(30, seed),
            dims: TABLE2_DIMS,
            env_cfg: EnvConfig::default(),
            ppo_cfg: PpoConfig::default(),
            fed_cfg: FedConfig {
                episodes: 2,
                comm_every: 1,
                participation_k: 2,
                tasks_per_episode: Some(8),
                seed,
                parallel: false,
            },
            options: RunOptions::default(),
        }
    }

    #[test]
    fn replication_seeds_are_distinct_and_labeled() {
        let root = 42;
        let mut seen = std::collections::HashSet::new();
        for rep in 0..64 {
            let s = replication_seed(root, rep);
            assert!(seen.insert(s), "replication seed collision at rep {rep}");
            // Disjoint from the bare derive_seed stream the workload
            // presets consume (the collision the harness must avoid).
            for client in 0..16u64 {
                assert_ne!(s, pfrl_stats::derive_seed(root, client), "rep {rep}");
            }
        }
    }

    #[test]
    fn parallel_and_sequential_replications_are_bit_identical() {
        let seq = run_replications(Algorithm::FedAvg, 3, 5, false, tiny_spec_for);
        let par = run_replications(Algorithm::FedAvg, 3, 5, true, tiny_spec_for);
        assert_eq!(seq.len(), 3);
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.rep, b.rep);
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.curves, b.curves, "rep {} diverged across thread counts", a.rep);
        }
        // Distinct replications must actually differ (independent seeds).
        assert_ne!(seq[0].curves, seq[1].curves);
    }

    fn tiny_spec_for(seed: u64, _rep: usize) -> ReplicationSpec {
        tiny_spec(seed)
    }

    #[test]
    fn federations_come_back_trained_and_evaluable() {
        let mut reps = run_replications(Algorithm::Ppo, 2, 9, true, tiny_spec_for);
        for r in &mut reps {
            assert_eq!(r.federation.n_clients(), 4);
            let tasks = r.federation.client_task_pools()[0].clone();
            let m = r.federation.evaluate_client(0, &tasks);
            assert!(m.makespan.is_finite());
        }
    }
}
