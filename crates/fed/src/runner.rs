//! The uniform runner API: one object-safe trait over every federation.
//!
//! [`FederatedRunner`] is what downstream code dispatches through — the
//! `pfrl-core` experiment driver, the resumable checkpoint loop,
//! generalization evaluation, and the `pfrl-serve` snapshot pipeline — so
//! none of it matches on a per-algorithm enum. Its one implementation is
//! the generic [`crate::Federation`]; the extension point for a new policy
//! family is a [`crate::ServerRule`], not a new trait impl.
//!
//! Every client holds the same agent type (one or two critics), so the
//! trait hands out plain `&[Client]` slices: identity, reward history, the
//! private task pool, greedy evaluation, and policy export are inherent
//! [`Client`] methods.

use crate::client::Client;
use crate::config::FedConfig;
use crate::curves::TrainingCurves;
use crate::error::FedError;
use crate::snapshot::PolicySnapshot;
use std::any::Any;

/// Runner-owned pool of upload buffers: one *stream group* (a
/// `Vec<Vec<f32>>`, e.g. `[actor, critic]` for FedAvg or `[ψ]` for
/// PFRL-DM) per in-flight upload. K uploads per round cycle K groups
/// through [`UploadArena::acquire`]/[`UploadArena::release`] instead of
/// allocating K fresh `ParamVec`s; after the first round every buffer has
/// its steady-state capacity and the upload phase stops touching the heap.
///
/// The arena never checkpoints — it is pure capacity, not state.
#[derive(Debug, Default)]
pub struct UploadArena {
    free: Vec<Vec<Vec<f32>>>,
}

impl UploadArena {
    /// An empty arena; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Hands out a stream group of exactly `streams` cleared vectors,
    /// reusing pooled capacity when available.
    pub fn acquire(&mut self, streams: usize) -> Vec<Vec<f32>> {
        let mut group = self.free.pop().unwrap_or_default();
        group.truncate(streams);
        for s in &mut group {
            s.clear();
        }
        while group.len() < streams {
            group.push(Vec::new());
        }
        group
    }

    /// Returns a group to the pool for reuse in a later round.
    pub fn release(&mut self, group: Vec<Vec<f32>>) {
        self.free.push(group);
    }

    /// Bytes of `f32` capacity currently parked in the pool (the
    /// `fed/arena_bytes` gauge). Excludes groups checked out by in-flight
    /// uploads, so a steady-state round reports the full pool between
    /// rounds.
    pub fn pooled_bytes(&self) -> u64 {
        self.free
            .iter()
            .flat_map(|g| g.iter())
            .map(|s| (s.capacity() * std::mem::size_of::<f32>()) as u64)
            .sum()
    }
}

/// The uniform federation-runner API, implemented once by
/// [`crate::Federation`]: round-by-round training, checkpoint/restore,
/// client access, and policy export, with no per-algorithm special cases.
pub trait FederatedRunner: Send {
    /// Paper name of the algorithm (e.g. `"PFRL-DM"`).
    fn algorithm(&self) -> &'static str;
    /// The federation schedule in use.
    fn config(&self) -> &FedConfig;
    /// One round-sized chunk of training (local episodes + aggregation).
    fn train_round(&mut self);
    /// Runs any leftover episodes and returns the reward curves.
    fn finish(&mut self) -> TrainingCurves;
    /// Rounds completed so far.
    fn rounds_done(&self) -> usize;
    /// Serializes the full resumable training state.
    fn checkpoint_bytes(&self) -> Vec<u8>;
    /// Restores state captured by [`Self::checkpoint_bytes`].
    fn restore_checkpoint(&mut self, bytes: &[u8]) -> Result<(), FedError>;
    /// The clients, in index order.
    fn clients(&self) -> &[Client];
    /// The clients, mutably, in index order.
    fn clients_mut(&mut self) -> &mut [Client];
    /// Escape hatch to the concrete runner (e.g. for PFRL-DM's attention
    /// weight history).
    fn as_any(&self) -> &dyn Any;

    /// Trains the remaining schedule to completion. Resume-safe: continues
    /// from [`Self::rounds_done`].
    fn train_to_completion(&mut self) -> TrainingCurves {
        while self.rounds_done() < self.config().rounds() {
            self.train_round();
        }
        self.finish()
    }

    /// Exports one inference-only [`PolicySnapshot`] per client.
    fn policy_snapshots(&self) -> Vec<PolicySnapshot> {
        let algorithm = self.algorithm();
        self.clients().iter().map(|c| c.policy_snapshot(algorithm)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::tests_support::small_setups;
    use crate::{FedAvgRunner, IndependentRunner, MfpoRunner, PfrlDmRunner};
    use pfrl_rl::PpoConfig;

    fn tiny_fed() -> FedConfig {
        FedConfig {
            episodes: 2,
            comm_every: 1,
            participation_k: 2,
            tasks_per_episode: Some(8),
            seed: 5,
            parallel: false,
        }
    }

    /// All four runners behind one `Box<dyn FederatedRunner>`: train,
    /// evaluate, export — no enum dispatch anywhere.
    #[test]
    fn all_runners_drive_uniformly_through_the_trait() {
        let (setups, dims, env_cfg) = small_setups(2);
        let ppo = PpoConfig::default();
        let runners: Vec<Box<dyn FederatedRunner>> = vec![
            Box::new(IndependentRunner::new(setups.clone(), dims, env_cfg, ppo, tiny_fed())),
            Box::new(FedAvgRunner::new(setups.clone(), dims, env_cfg, ppo, tiny_fed())),
            Box::new(MfpoRunner::new(setups.clone(), dims, env_cfg, ppo, tiny_fed())),
            Box::new(PfrlDmRunner::new(setups.clone(), dims, env_cfg, ppo, tiny_fed())),
        ];
        let mut names = Vec::new();
        for mut r in runners {
            names.push(r.algorithm());
            let curves = r.train_to_completion();
            assert_eq!(curves.clients(), 2, "{}", r.algorithm());
            assert_eq!(r.clients().len(), 2);
            let eval_tasks = r.clients()[0].train_tasks().to_vec();
            let m = r.clients_mut()[1].evaluate_on(&eval_tasks);
            assert!(m.makespan.is_finite());
            let snaps = r.policy_snapshots();
            assert_eq!(snaps.len(), 2);
            for s in &snaps {
                assert_eq!(s.algorithm, r.algorithm());
                s.validate().expect("exported snapshot must validate");
            }
        }
        assert_eq!(names, ["PPO", "FedAvg", "MFPO", "PFRL-DM"]);
    }

    #[test]
    fn trait_checkpoint_roundtrips_and_rejects_garbage() {
        let (setups, dims, env_cfg) = small_setups(2);
        let mut r: Box<dyn FederatedRunner> = Box::new(FedAvgRunner::new(
            setups.clone(),
            dims,
            env_cfg,
            PpoConfig::default(),
            tiny_fed(),
        ));
        r.train_round();
        let bytes = r.checkpoint_bytes();
        let mut fresh: Box<dyn FederatedRunner> =
            Box::new(FedAvgRunner::new(setups, dims, env_cfg, PpoConfig::default(), tiny_fed()));
        fresh.restore_checkpoint(&bytes).expect("restore through the trait");
        assert_eq!(fresh.rounds_done(), 1);
        assert!(matches!(fresh.restore_checkpoint(b"garbage"), Err(FedError::Checkpoint(_))));
        assert!(fresh.as_any().downcast_ref::<FedAvgRunner>().is_some());
        assert!(fresh.as_any().downcast_ref::<MfpoRunner>().is_none());
    }
}
