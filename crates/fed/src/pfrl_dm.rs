//! The PFRL-DM server rule (Algorithm 1): dual-critic clients +
//! multi-head-attention personalization on the server.
//!
//! Per communication round:
//!
//! 1. every client trains `Ω = comm_every` local episodes with its
//!    dual-critic PPO;
//! 2. the server collects the public critics `{ψ_k}` of `K ≤ N` clients
//!    (a seeded random subset each round, modeling the paper's
//!    "aggregate once K uploads arrive");
//! 3. the server computes the multi-head attention weight matrix
//!    `W ∈ R^{K×K}` over the uploaded parameter vectors (Eq. 18) and sends
//!    client `k` its personalized critic `ψ_k' = Σ_j W_{kj}·ψ_j` (Eq. 21);
//! 4. the global critic `ψ_G = (1/K)·Σ_k ψ_k'` (Eq. 22) is stored and sent
//!    to the clients that did not participate this round.
//!
//! Only critic parameters ever travel — the paper's communication-cost
//! advantage over FedAvg, which must ship actor + critic.

use crate::checkpoint::{read_matrix, write_matrix, Reader, Writer};
use crate::client::Client;
use crate::config::{ClientSetup, FedConfig};
use crate::fault::{AbsenceReason, Presence};
use crate::federation::{agent_seed, mean_loss, param_bytes, Federation, Round, ServerRule};
use crate::robust::reduce_into;
use crate::similarity::{attention_weights_into, mean_row_entropy};
use pfrl_nn::params::{apply_mixing_matrix_into, average_params};
use pfrl_nn::{Activation, AttentionScratch, Mlp, MultiHeadConfig};
use pfrl_rl::{DualCriticAgent, PpoConfig};
use pfrl_sim::{EnvConfig, EnvDims};
use pfrl_stats::seeding::SeedStream;
use pfrl_telemetry::Telemetry;
use pfrl_tensor::Matrix;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::io;

/// PFRL-DM federation runner.
pub type PfrlDmRunner = Federation<PfrlDm>;

/// The PFRL-DM server rule: a seeded `K`-of-`N` cohort uploads public
/// critics, the server personalizes them by attention, and everyone else
/// receives the global critic `ψ_G`.
#[derive(Debug, Clone)]
pub struct PfrlDm {
    attention: MultiHeadConfig,
    /// Server-held global public critic `ψ_G`.
    server_global: Vec<f32>,
    participation_rng: SmallRng,
    /// Attention weight matrices of every aggregation round (for Fig. 11
    /// style inspection).
    weight_history: Vec<Matrix>,
    /// Client indices that participated in each round.
    participant_history: Vec<Vec<usize>>,
    record_history: bool,
    next_client_index: usize,
    /// Per-round scratch: the shuffled client order, the attention
    /// workspace and weights, and the personalized critics.
    order: Vec<usize>,
    scratch: AttentionScratch,
    weights: Matrix,
    personalized: Vec<Vec<f32>>,
}

impl PfrlDm {
    /// A rule with the given attention configuration (seeded when the
    /// federation is built).
    pub(crate) fn new(attention: MultiHeadConfig) -> Self {
        Self {
            attention,
            server_global: Vec::new(),
            participation_rng: SmallRng::seed_from_u64(0),
            weight_history: Vec::new(),
            participant_history: Vec::new(),
            record_history: true,
            next_client_index: 0,
            order: Vec::new(),
            scratch: AttentionScratch::default(),
            weights: Matrix::default(),
            personalized: Vec::new(),
        }
    }
}

impl Default for PfrlDm {
    fn default() -> Self {
        Self::new(MultiHeadConfig::default())
    }
}

impl ServerRule for PfrlDm {
    type Agent = DualCriticAgent;
    const NAME: &'static str = "PFRL-DM";
    const FINGERPRINT: u8 = 3;
    const STREAMS: usize = 1;

    /// `ψ_G^{(0)}`: a fresh server-seeded critic, broadcast to everyone so
    /// the federation starts from a shared public critic (Algorithm 1,
    /// lines 4–5).
    fn init(
        &mut self,
        clients: &mut [Client<DualCriticAgent>],
        cfg: &FedConfig,
        dims: EnvDims,
        ppo: &PpoConfig,
    ) {
        let seeds = SeedStream::new(cfg.seed);
        let server_net = Mlp::new(
            &[dims.state_dim(), ppo.hidden, 1],
            Activation::Tanh,
            &mut SmallRng::seed_from_u64(seeds.child("server").seed()),
        );
        self.server_global = server_net.flat_params();
        for c in clients.iter_mut() {
            c.agent.receive_public_critic(&self.server_global);
        }
        self.participation_rng = SmallRng::seed_from_u64(seeds.child("participation").seed());
        self.next_client_index = clients.len();
    }

    fn upload(agent: &DualCriticAgent, streams: &mut [Vec<f32>]) {
        agent.public_critic_params_into(&mut streams[0]);
    }

    /// The first `k` enrolled clients of a seeded shuffle of all `N`: churn
    /// shrinks the pool, never the RNG stream.
    fn select_cohort(&mut self, presences: &[Presence], k: usize, cohort: &mut Vec<usize>) {
        self.order.clear();
        self.order.extend(0..presences.len());
        self.order.shuffle(&mut self.participation_rng);
        let eligible = |&&i: &&usize| presences[i] != Presence::Absent(AbsenceReason::NotEnrolled);
        cohort.extend(self.order.iter().filter(eligible).take(k));
    }

    /// Mean public-critic MSE (`L_ψ`) across clients with buffered
    /// trajectories; telemetry-only, so skipped when telemetry is off.
    fn critic_loss(&self, clients: &[Client<DualCriticAgent>], t: &Telemetry) -> Option<f64> {
        let buffered = clients.iter().filter(|c| c.agent.has_trajectories());
        t.is_enabled().then(|| mean_loss(buffered.map(|c| c.agent.critic_losses().1))).flatten()
    }

    /// Staleness-weighted re-entry — a survivor back after `s` silent
    /// rounds contributes `decay^s · ψ + (1 − decay^s) · ψ_G` — then the
    /// attention weights (Eq. 18).
    fn prepare(&mut self, round: &mut Round<'_, DualCriticAgent>) {
        for (psi, &missed) in round.uploads[0].iter_mut().zip(round.missed) {
            if missed > 0 {
                let w = round.fault.reentry_weight(missed);
                for (x, g) in psi.iter_mut().zip(&self.server_global) {
                    *x = w * *x + (1.0 - w) * g;
                }
            }
        }
        let span = round.telemetry.span("fed/round/attention");
        attention_weights_into(
            &round.uploads[0],
            &self.attention,
            round.cfg.parallel,
            &mut self.scratch,
            &mut self.weights,
        );
        drop(span);
        round.telemetry.observe("fed/attention_entropy", mean_row_entropy(&self.weights));
    }

    /// Personalized critics (Eq. 21) and their robust mean `ψ_G` (Eq. 22).
    fn aggregate(&mut self, round: &mut Round<'_, DualCriticAgent>) {
        let psis = &round.uploads[0];
        apply_mixing_matrix_into(&self.weights, psis, round.cfg.parallel, &mut self.personalized);
        let agg = round.robust.aggregator;
        let out = &mut self.server_global;
        reduce_into(agg, &self.personalized, round.scratch, out, round.telemetry);
    }

    /// Survivors get their personalized critic, other connected clients
    /// `ψ_G`; absent clients keep their last critic.
    fn broadcast(&mut self, round: &mut Round<'_, DualCriticAgent>) {
        for (slot, &i) in round.survivors.iter().enumerate() {
            round.clients[i].agent.receive_public_critic(&self.personalized[slot]);
        }
        let mut global_receivers = 0u64;
        for i in 0..round.clients.len() {
            if round.presences[i].is_present() && !round.survivors.contains(&i) {
                round.clients[i].agent.receive_public_critic(&self.server_global);
                round.fault.note_refreshed(i);
                global_receivers += 1;
            }
        }
        let global_bytes = global_receivers * 4 * self.server_global.len() as u64;
        round.telemetry.counter("fed/bytes_down", param_bytes(&self.personalized) + global_bytes);
        if self.record_history {
            self.weight_history.push(self.weights.clone());
            self.participant_history.push(round.survivors.to_vec());
        }
    }

    fn write_state(&self, w: &mut Writer) {
        w.vec_f32(&self.server_global);
        w.rng_state(self.participation_rng.state());
        w.usize(self.next_client_index);
        w.usize(self.weight_history.len());
        for m in &self.weight_history {
            write_matrix(w, m);
        }
        w.usize(self.participant_history.len());
        for p in &self.participant_history {
            w.vec_usize(p);
        }
    }

    fn read_state(&mut self, r: &mut Reader<'_>) -> io::Result<()> {
        self.server_global = r.vec_f32()?;
        self.participation_rng = SmallRng::from_state(r.rng_state()?);
        self.next_client_index = r.usize()?;
        let n_weights = r.usize()?;
        self.weight_history = (0..n_weights).map(|_| read_matrix(r)).collect::<io::Result<_>>()?;
        let n_parts = r.usize()?;
        self.participant_history =
            (0..n_parts).map(|_| r.vec_usize()).collect::<io::Result<_>>()?;
        Ok(())
    }
}

impl Federation<PfrlDm> {
    /// Builds the federation with an explicit attention configuration
    /// (used by the head-count ablation).
    pub fn with_attention(
        setups: Vec<ClientSetup>,
        dims: EnvDims,
        env_cfg: EnvConfig,
        ppo_cfg: PpoConfig,
        fed_cfg: FedConfig,
        attention: MultiHeadConfig,
    ) -> Self {
        Self::with_rule(PfrlDm::new(attention), setups, dims, env_cfg, ppo_cfg, fed_cfg)
    }

    /// Toggles per-round weight/participant history recording. Each entry
    /// clones a `K×K` matrix — at federation scale that is the dominant
    /// steady-state allocation, so the scale probe and the zero-alloc gate
    /// turn it off. On by default (Fig. 11 inspection and checkpoint
    /// contents are unchanged).
    pub fn set_record_history(&mut self, on: bool) {
        self.rule.record_history = on;
    }

    /// Attention weight matrices of every aggregation round.
    pub fn weight_history(&self) -> &[Matrix] {
        &self.rule.weight_history
    }

    /// Client indices that participated in each aggregation round.
    pub fn participant_history(&self) -> &[Vec<usize>] {
        &self.rule.participant_history
    }

    /// Pins every client's `α` to a fixed value (ablation of the adaptive
    /// Eq. 15); `None` restores adaptivity.
    pub fn set_fixed_alpha(&mut self, alpha: Option<f32>) {
        for c in &mut self.clients {
            c.agent.set_fixed_alpha(alpha);
        }
    }

    /// The server's current global public critic `ψ_G`.
    pub fn server_global(&self) -> &[f32] {
        &self.rule.server_global
    }

    /// Adds a new client to a running federation (the Fig. 20 scenario):
    /// its public critic is initialized from the server's `ψ_G`, and —
    /// as a one-time onboarding bootstrap — its actor may be seeded from
    /// the average of the existing clients' actors (the paper initializes
    /// the joiner "with the model provided by the server"; since PFRL-DM
    /// servers only store critics, the actor bootstrap is the natural
    /// completion and is documented in DESIGN.md). Returns the new
    /// client's index.
    pub fn add_client(&mut self, setup: ClientSetup, bootstrap_actor: bool) -> usize {
        let i = self.rule.next_client_index;
        self.rule.next_client_index += 1;
        let (state_dim, action_dim) = (self.dims.state_dim(), self.dims.action_dim());
        let seed = agent_seed(&self.cfg, i);
        let mut agent = DualCriticAgent::new(state_dim, action_dim, self.ppo_cfg, seed);
        agent.receive_public_critic(&self.rule.server_global);
        if bootstrap_actor && !self.clients.is_empty() {
            let actors: Vec<Vec<f32>> =
                self.clients.iter().map(|c| c.agent.actor.flat_params()).collect();
            agent.actor.set_flat_params(&average_params(&actors));
        }
        let mut client = Client::new(setup, agent, self.dims, self.env_cfg, &self.cfg, i);
        client.set_telemetry(self.telemetry.clone());
        self.clients.push(client);
        self.fault.add_client();
        self.clients.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::tests_support::small_setups;
    use crate::federation::run_all;

    fn fed(n_clients: usize) -> FedConfig {
        FedConfig {
            episodes: 4,
            comm_every: 2,
            participation_k: (n_clients / 2).max(1),
            tasks_per_episode: Some(12),
            seed: 21,
            parallel: false,
        }
    }

    #[test]
    fn initial_broadcast_synchronizes_public_critics() {
        let (setups, dims, env_cfg) = small_setups(3);
        let r = PfrlDmRunner::new(setups, dims, env_cfg, PpoConfig::default(), fed(3));
        let p0 = r.clients[0].agent.public_critic_params();
        for c in &r.clients {
            assert_eq!(c.agent.public_critic_params(), p0);
        }
        assert_eq!(r.server_global(), &p0[..]);
    }

    #[test]
    fn aggregation_records_row_stochastic_weights() {
        let (setups, dims, env_cfg) = small_setups(4);
        let mut r = PfrlDmRunner::new(setups, dims, env_cfg, PpoConfig::default(), fed(4));
        run_all(&mut r.clients, 1, false);
        r.aggregate();
        assert_eq!(r.weight_history().len(), 1);
        let w = &r.weight_history()[0];
        assert_eq!(w.shape(), (2, 2)); // K = 2 of 4
        for row in 0..2 {
            let s: f32 = w.row(row).iter().sum();
            assert!((s - 1.0).abs() < 1e-4);
        }
        assert_eq!(r.participant_history()[0].len(), 2);
    }

    #[test]
    fn participants_get_personalized_models_others_get_global() {
        let (setups, dims, env_cfg) = small_setups(4);
        let mut r = PfrlDmRunner::new(setups, dims, env_cfg, PpoConfig::default(), fed(4));
        run_all(&mut r.clients, 2, false);
        r.aggregate();
        let participants = r.participant_history()[0].clone();
        let global = r.server_global().to_vec();
        for i in 0..4 {
            let psi = r.clients[i].agent.public_critic_params();
            if participants.contains(&i) {
                // Personalized: generally different from the global mean
                // (the attention rows are not uniform).
                assert_eq!(psi.len(), global.len());
            } else {
                assert_eq!(psi, global, "non-participant {i} must hold ψ_G");
            }
        }
    }

    #[test]
    fn actors_never_synchronized() {
        // Only critics travel: actors must stay distinct across clients.
        let (setups, dims, env_cfg) = small_setups(3);
        let mut r = PfrlDmRunner::new(setups, dims, env_cfg, PpoConfig::default(), fed(3));
        r.train();
        let a0 = r.clients[0].agent.actor.flat_params();
        let a1 = r.clients[1].agent.actor.flat_params();
        assert_ne!(a0, a1);
    }

    #[test]
    fn full_training_produces_curves_and_history() {
        let (setups, dims, env_cfg) = small_setups(4);
        let mut r = PfrlDmRunner::new(setups, dims, env_cfg, PpoConfig::default(), fed(4));
        let curves = r.train();
        assert_eq!(curves.clients(), 4);
        assert!(curves.per_client.iter().all(|c| c.len() == 4));
        assert_eq!(r.weight_history().len(), 2);
    }

    #[test]
    fn deterministic_across_runs() {
        let (setups, dims, env_cfg) = small_setups(3);
        let run = || {
            let mut r =
                PfrlDmRunner::new(setups.clone(), dims, env_cfg, PpoConfig::default(), fed(3));
            let c = r.train();
            (c, r.server_global().to_vec())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn new_client_joins_with_server_model() {
        let (mut setups, dims, env_cfg) = small_setups(3);
        let joiner = setups.pop().unwrap();
        let mut r = PfrlDmRunner::new(setups, dims, env_cfg, PpoConfig::default(), fed(2));
        r.train_rounds(1);
        let idx = r.add_client(joiner, true);
        assert_eq!(idx, 2);
        assert_eq!(r.clients[idx].agent.public_critic_params(), r.server_global().to_vec());
        // The joiner trains along in subsequent rounds.
        r.train_rounds(1);
        assert_eq!(r.clients[idx].rewards.len(), 2);
    }
}
