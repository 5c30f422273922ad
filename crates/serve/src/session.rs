//! A stateful serving session: one cluster's environment mirror plus its
//! pinned policy.
//!
//! The hot path is [`Session::decide`]: observe → actor forward → (mask) →
//! argmax → env step. All per-decision tensors live in a thread-local
//! scratch pool (`scratch`), so the steady-state path allocates nothing —
//! the same discipline the training loop follows (see
//! `tests/zero_alloc.rs` at the workspace root).

use pfrl_fed::{FedError, PolicySnapshot};
use pfrl_nn::{Activation, Mlp};
use pfrl_rl::policy;
use pfrl_sim::{Action, CloudEnv, EpisodeMetrics};
use pfrl_workloads::TaskSpec;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Thread-local pool of per-decision scratch buffers.
///
/// Sessions are plain data and can migrate between threads; the scratch
/// they borrow is per-thread, checked out for the duration of one decision
/// and returned afterwards. After the first decision on a thread the pool
/// is warm and a checkout performs no allocation.
pub(crate) mod scratch {
    use std::cell::RefCell;

    #[derive(Default)]
    pub(crate) struct DecisionScratch {
        pub state: Vec<f32>,
        pub logits: Vec<f32>,
        pub mask: Vec<bool>,
    }

    thread_local! {
        static POOL: RefCell<Vec<DecisionScratch>> = const { RefCell::new(Vec::new()) };
    }

    /// Runs `f` with a pooled scratch buffer. Re-entrant: a nested call
    /// simply pops (or creates) another buffer.
    pub(crate) fn with<R>(f: impl FnOnce(&mut DecisionScratch) -> R) -> R {
        let mut s = POOL.with(|p| p.borrow_mut().pop()).unwrap_or_default();
        let r = f(&mut s);
        POOL.with(|p| p.borrow_mut().push(s));
        r
    }
}

/// The outcome of one served scheduling decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    /// Chosen action index (`max_vms` means "wait").
    pub action: usize,
    /// Whether a task was placed on a VM by this decision.
    pub placed: bool,
    /// The environment's reward signal for the decision.
    pub reward: f32,
    /// Whether the episode is now complete.
    pub done: bool,
    /// Snapshot version of the policy that produced this decision — the
    /// audit trail for hot-swap ramps: after a cutover commits, no decision
    /// may carry a retired version (asserted by the stress suite).
    pub version: u64,
}

/// One cluster's serving session: an environment mirror plus the frozen
/// greedy policy from a [`PolicySnapshot`].
pub struct Session {
    actor: Mlp,
    env: CloudEnv,
    algorithm: String,
    client: String,
    version: u64,
    mask_actions: bool,
    max_vms: usize,
    decisions: u64,
}

impl Session {
    /// Instantiates the snapshot: rebuilds the actor network and the
    /// environment mirror (dims, VM fleet, reward config) it was trained
    /// against. The snapshot is re-validated, so a `Session` can never hold
    /// a policy whose shape disagrees with its environment.
    pub fn new(snapshot: &PolicySnapshot) -> Result<Self, FedError> {
        snapshot.validate()?;
        // The seed is irrelevant: every weight is overwritten immediately.
        let mut rng = SmallRng::seed_from_u64(0);
        let mut actor = Mlp::new(&snapshot.sizes(), Activation::Tanh, &mut rng);
        actor.set_flat_params(&snapshot.actor_params);
        let env = CloudEnv::new(snapshot.dims, snapshot.vms.clone(), snapshot.env_cfg);
        Ok(Self {
            actor,
            env,
            algorithm: snapshot.algorithm.clone(),
            client: snapshot.client.clone(),
            version: snapshot.version,
            mask_actions: snapshot.mask_actions,
            max_vms: snapshot.dims.max_vms,
            decisions: 0,
        })
    }

    /// Algorithm that trained the served policy.
    pub fn algorithm(&self) -> &str {
        &self.algorithm
    }

    /// Client (cluster) this session serves.
    pub fn client(&self) -> &str {
        &self.client
    }

    /// Version of the pinned snapshot.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Decisions served over the session's lifetime.
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Starts a new episode over `tasks` (the one defensive copy the
    /// environment needs happens here).
    pub fn begin_episode(&mut self, tasks: &[TaskSpec]) {
        self.env.reset(tasks.to_vec());
    }

    /// Whether the current episode has completed (or none was begun).
    pub fn is_done(&self) -> bool {
        self.env.is_done()
    }

    /// Metrics of the current episode so far.
    pub fn metrics(&self) -> EpisodeMetrics {
        self.env.metrics()
    }

    /// Serves one greedy scheduling decision. Steady-state this allocates
    /// nothing: state, logits, and mask live in the thread-local scratch
    /// pool and the actor forwards through its internal buffers.
    ///
    /// # Panics
    ///
    /// If the episode is already complete — callers gate on
    /// [`Self::is_done`] (the batching service does this for you).
    pub fn decide(&mut self) -> Decision {
        assert!(!self.env.is_done(), "decide on a completed episode; call begin_episode");
        scratch::with(|s| {
            self.env.observe_into(&mut s.state);
            self.actor.forward_one_into(&s.state, &mut s.logits);
            self.finish_with_logits_in(&mut s.logits, &mut s.mask)
        })
    }

    /// Writes the current observation into `state` (first half of a
    /// decision). The sharded service uses this to fill one row of a wave's
    /// state matrix before running a single batched forward for the wave.
    pub(crate) fn observe_into(&self, state: &mut Vec<f32>) {
        self.env.observe_into(state);
    }

    /// Second half of a decision, given already-computed `logits` for the
    /// current observation: mask → argmax → env step. `logits` is consumed
    /// in place (masking overwrites it); `mask` is caller scratch. Exactly
    /// the tail of [`Session::decide`], so a wave-batched decision is
    /// bit-identical to a sequential one whenever the logits are.
    pub(crate) fn finish_with_logits_in(
        &mut self,
        logits: &mut [f32],
        mask: &mut Vec<bool>,
    ) -> Decision {
        if self.mask_actions {
            self.env.action_mask_into(mask);
            policy::apply_mask(logits, mask);
        }
        let action = policy::greedy_action(logits);
        let out = self.env.step(Action::from_index(action, self.max_vms));
        self.decisions += 1;
        Decision {
            action,
            placed: out.placed,
            reward: out.reward,
            done: out.done,
            version: self.version,
        }
    }

    /// Swaps in new actor parameters at `version` — the commit step of a
    /// hot-swap ramp. Parameters must already be validated (the ramp
    /// rejects non-finite candidates before any session sees them).
    pub(crate) fn adopt_params(&mut self, params: &[f32], version: u64) {
        self.actor.set_flat_params(params);
        self.version = version;
    }

    /// Convenience: runs one full episode over `tasks` and returns its
    /// metrics. Decision-for-decision identical to the trainer's greedy
    /// evaluation of the same policy.
    pub fn run_episode(&mut self, tasks: &[TaskSpec]) -> EpisodeMetrics {
        self.begin_episode(tasks);
        while !self.decide().done {}
        self.env.metrics()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_support::{tiny_snapshot, tiny_tasks};

    #[test]
    fn session_mirrors_snapshot_identity() {
        let snap = tiny_snapshot("bank-0");
        let s = Session::new(&snap).unwrap();
        assert_eq!(s.client(), "bank-0");
        assert_eq!(s.algorithm(), "PFRL-DM");
        assert_eq!(s.version(), snap.version);
        assert_eq!(s.decisions(), 0);
    }

    #[test]
    fn invalid_snapshot_cannot_become_a_session() {
        let mut snap = tiny_snapshot("x");
        snap.actor_params[0] = f32::NAN;
        assert!(matches!(Session::new(&snap), Err(FedError::Snapshot(_))));
    }

    #[test]
    fn episode_runs_to_completion_and_counts_decisions() {
        let snap = tiny_snapshot("x");
        let mut s = Session::new(&snap).unwrap();
        let tasks = tiny_tasks(12);
        let m = s.run_episode(&tasks);
        assert_eq!(m.tasks_placed + m.tasks_unplaced, 12);
        assert!(s.is_done());
        assert!(s.decisions() >= 12, "at least one decision per task");
        // Same tasks, same frozen policy → bit-identical metrics.
        assert_eq!(s.run_episode(&tasks), m);
    }

    #[test]
    #[should_panic(expected = "completed episode")]
    fn deciding_past_the_end_is_a_bug() {
        let snap = tiny_snapshot("x");
        let mut s = Session::new(&snap).unwrap();
        s.run_episode(&tiny_tasks(5));
        s.decide();
    }
}
