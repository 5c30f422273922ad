//! The PPO agent, with a critic set of one or two value networks.
//!
//! With one critic it is the standard PPO agent: the paper's "independent
//! PPO" baseline and the client algorithm inside FedAvg and MFPO. With two
//! it is PFRL-DM's dual-critic client (Sec. 4.3): a *local* critic `φ`
//! (never shared) and a *public* critic `ψ` (uploaded to and replaced by
//! the server). State values are then the blend
//! `V(s) = α·V_φ(s) + (1−α)·V_ψ(s)` (Eq. 14).
//!
//! Eq. 15 weights the critics by `e^{−L}` of their MSE on the buffered
//! trajectories. Those raw weights underflow and saturate to exactly 0/1
//! while the losses are large, which they are until the critics track the
//! return scale, so the agent runs the scale-normalised form
//!
//! ```text
//! α = sigmoid((L_ψ − L_φ) / τ),   τ = (L_φ + L_ψ) / 2
//! ```
//!
//! It keeps Eq. 15's ordering (a worse public critic ⇒ larger α), but
//! `(L_ψ − L_φ)/τ` lies in `[−2, 2]`, so α is bounded to about
//! `[0.12, 0.88]` and can never switch either critic off. Whether that
//! leaves personalisation inert is ROADMAP item 2's open question. α is
//! recomputed whenever a critic changes: after each update, on receiving
//! a public critic, and on loading a checkpoint.

use crate::buffer::{BufferSnapshot, RolloutBuffer};
use crate::config::PpoConfig;
use crate::policy::{self, PolicyScratch, PpoLossStats};
use crate::returns::{
    discounted_returns, discounted_returns_into, gae_advantages_into, normalize_in_place,
};
use pfrl_nn::{Activation, Adam, AdamState, Mlp};
use pfrl_sim::{Action, EpisodeMetrics, SchedulingEnv};
use pfrl_telemetry::Telemetry;
use pfrl_tensor::Matrix;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Builds the paper's scheduler network shape: one hidden tanh layer.
fn build_net(in_dim: usize, hidden: usize, out_dim: usize, rng: &mut SmallRng) -> Mlp {
    Mlp::new(&[in_dim, hidden, out_dim], Activation::Tanh, rng)
}

/// Reusable buffers for the agent's two hot paths — the per-decision
/// rollout/eval loop and the PPO minibatch update. Every buffer retains its
/// capacity across episodes and updates, so steady-state training and
/// inference allocate nothing after warmup.
#[derive(Debug, Clone, Default)]
struct AgentScratch {
    // Per-decision path.
    state: Vec<f32>,
    logits: Vec<f32>,
    mask: Vec<bool>,
    policy: PolicyScratch,
    // Batch tensors (borrowed shared while the epoch scratch is borrowed
    // mutably — kept as sibling fields so the borrows are disjoint).
    states: Matrix,
    returns: Vec<f32>,
    values: Vec<f32>,
    advantages: Vec<f32>,
    value_mat: Matrix,
    value_mat2: Matrix,
    epoch: EpochScratch,
}

/// Per-epoch intermediates of [`actor_update`] / [`critic_update`]:
/// network outputs, the loss gradient, and the input-gradient sink.
#[derive(Debug, Clone, Default)]
struct EpochScratch {
    policy: PolicyScratch,
    logit_mat: Matrix,
    value_mat: Matrix,
    grad: Matrix,
    dx: Matrix,
}

/// One clipped-surrogate policy update (all epochs) on a prepared batch.
/// `masks` (flattened `n × action_dim`) must be the masks the rollout was
/// collected under, or `None` for unmasked rollouts.
#[allow(clippy::too_many_arguments)]
fn actor_update(
    actor: &mut Mlp,
    opt: &mut Adam,
    states: &Matrix,
    actions: &[usize],
    old_log_probs: &[f32],
    advantages: &[f32],
    masks: Option<&[bool]>,
    cfg: &PpoConfig,
    scratch: &mut EpochScratch,
) -> PpoLossStats {
    let mut last = PpoLossStats { surrogate: 0.0, entropy: 0.0, clip_fraction: 0.0 };
    let EpochScratch { policy, logit_mat, grad, dx, .. } = scratch;
    for _ in 0..cfg.update_epochs {
        actor.forward_train_into(states, logit_mat);
        let stats = policy::clipped_surrogate_grad_masked_into(
            logit_mat,
            actions,
            old_log_probs,
            advantages,
            cfg.clip,
            cfg.entropy_coef,
            masks,
            grad,
            policy,
        );
        actor.zero_grad();
        actor.backward_into(grad, dx);
        opt.step_mlp(actor);
        last = stats;
    }
    last
}

/// One squared-error regression pass of a value network onto returns
/// (Eqs. 16–17); returns the pre-update MSE.
fn critic_update(
    critic: &mut Critic,
    states: &Matrix,
    returns: &[f32],
    epochs: usize,
    scratch: &mut EpochScratch,
) -> f32 {
    let n = states.rows();
    let mut first_loss = 0.0f32;
    let EpochScratch { value_mat, grad, dx, .. } = scratch;
    for epoch in 0..epochs {
        critic.net.forward_train_into(states, value_mat);
        grad.resize(n, 1);
        let mut loss = 0.0f32;
        for i in 0..n {
            let err = value_mat[(i, 0)] - returns[i];
            loss += err * err;
            grad[(i, 0)] = 2.0 * err / n as f32;
        }
        loss /= n as f32;
        if epoch == 0 {
            first_loss = loss;
        }
        critic.net.zero_grad();
        critic.net.backward_into(grad, dx);
        critic.opt.step_mlp(&mut critic.net);
    }
    first_loss
}

/// Regresses every critic, in order, on the batch's returns; returns the
/// pre-update MSEs (`[L_V, 0]` or `[L_φ, L_ψ]`).
fn critic_pass(critics: &mut [Critic], scratch: &mut AgentScratch, epochs: usize) -> [f32; 2] {
    let mut losses = [0.0; 2];
    for (critic, loss) in critics.iter_mut().zip(&mut losses) {
        *loss =
            critic_update(critic, &scratch.states, &scratch.returns, epochs, &mut scratch.epoch);
    }
    losses
}

/// Mean squared error of a one-column value matrix against returns.
fn mse(values: &Matrix, returns: &[f32]) -> f32 {
    let n = values.rows();
    (0..n)
        .map(|i| {
            let e = values[(i, 0)] - returns[i];
            e * e
        })
        .sum::<f32>()
        / n as f32
}

/// Eq. 15 in the normalised form the agent runs (see the module docs).
fn blend_weight(l_local: f32, l_public: f32) -> f32 {
    let tau = (0.5 * (l_local + l_public)).max(1e-6);
    1.0 / (1.0 + (-(l_public - l_local) / tau).exp())
}

/// A value network and its optimizer.
#[derive(Debug, Clone)]
struct Critic {
    net: Mlp,
    opt: Adam,
}

/// The α state of a two-critic agent (Eqs. 14–15).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Blend {
    /// Current weight of the local critic `φ`.
    pub alpha: f32,
    /// When set, `α` is pinned to this value and Eq. 15 is off (the
    /// ablation study).
    pub fixed: Option<f32>,
}

/// Everything an [`Agent`] needs to resume training mid-stream with
/// bit-identical results: parameters, optimizer moments, the α state, the
/// RNG cursor, and the retained rollout batch.
#[derive(Debug, Clone, PartialEq)]
pub struct AgentSnapshot {
    /// Flat actor parameters.
    pub actor: Vec<f32>,
    /// Flat critic parameters, in critic order (`[V]` or `[φ, ψ]`).
    pub critics: Vec<Vec<f32>>,
    /// Actor optimizer moments.
    pub actor_opt: AdamState,
    /// Critic optimizer moments, in critic order.
    pub critic_opts: Vec<AdamState>,
    /// The α state; present exactly when there are two critics.
    pub blend: Option<Blend>,
    /// Sampling RNG state (xoshiro256++ words).
    pub rng: [u64; 4],
    /// Retained rollout batch.
    pub buffer: BufferSnapshot,
    /// Episodes collected into the current batch.
    pub episodes_buffered: usize,
}

/// A PPO agent: one actor and a critic set of one critic `V`, or two
/// critics `φ` (local) and `ψ` (public) blended by α. The methods named
/// after `ψ` or α need two critics and panic on one.
#[derive(Debug, Clone)]
pub struct Agent {
    /// Policy network (logits over `{VM 1..L, wait}`).
    pub actor: Mlp,
    actor_opt: Adam,
    critics: Vec<Critic>,
    blend: Option<Blend>,
    cfg: PpoConfig,
    rng: SmallRng,
    /// Collected episodes of the current batch (retained after the update
    /// for loss probes and α refreshes).
    buffer: RolloutBuffer,
    episodes_buffered: usize,
    telemetry: Telemetry,
    scratch: AgentScratch,
}

impl Agent {
    /// Creates an agent with `critics` value networks (1 or 2). One RNG
    /// seeded from `seed` initializes the actor, then each critic in
    /// order, so two critics start from *different* initializations (they
    /// must be distinguishable for Eq. 15 to carry signal).
    ///
    /// # Panics
    /// If `critics` is not 1 or 2, or `cfg` is invalid.
    pub fn new(
        state_dim: usize,
        action_dim: usize,
        critics: usize,
        cfg: PpoConfig,
        seed: u64,
    ) -> Self {
        assert!(matches!(critics, 1 | 2), "an agent has one or two critics, not {critics}");
        cfg.validate();
        let mut rng = SmallRng::seed_from_u64(seed);
        let actor = build_net(state_dim, cfg.hidden, action_dim, &mut rng);
        let critics: Vec<Critic> = (0..critics)
            .map(|_| {
                let net = build_net(state_dim, cfg.hidden, 1, &mut rng);
                Critic { opt: Adam::new(net.param_count(), cfg.lr_critic), net }
            })
            .collect();
        Self {
            actor_opt: Adam::new(actor.param_count(), cfg.lr_actor),
            actor,
            blend: (critics.len() == 2).then_some(Blend { alpha: 0.5, fixed: None }),
            critics,
            cfg,
            rng,
            buffer: RolloutBuffer::new(state_dim),
            episodes_buffered: 0,
            telemetry: Telemetry::noop(),
            scratch: AgentScratch::default(),
        }
    }

    /// The agent's configuration.
    pub fn config(&self) -> &PpoConfig {
        &self.cfg
    }

    /// Number of critics (1 or 2).
    pub fn critic_count(&self) -> usize {
        self.critics.len()
    }

    /// Critic `k`'s network (`V`, or `φ` = 0 and `ψ` = 1).
    pub fn critic(&self, k: usize) -> &Mlp {
        &self.critics[k].net
    }

    /// Routes this agent's metrics (episode reward, losses, update timing,
    /// buffer size, α) to `telemetry`. Defaults to a noop handle.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Current local-critic weight `α`.
    pub fn alpha(&self) -> f32 {
        self.blend.expect("alpha needs two critics").alpha
    }

    /// Pins `α` to a fixed value (disabling the adaptive Eq. 15), or
    /// restores adaptivity with `None`. `α = 1` ignores the public critic;
    /// `α = 0` ignores the local critic.
    ///
    /// # Panics
    /// If the value is outside `[0, 1]`.
    pub fn set_fixed_alpha(&mut self, alpha: Option<f32>) {
        let blend = self.blend.as_mut().expect("alpha needs two critics");
        if let Some(a) = alpha {
            assert!((0.0..=1.0).contains(&a), "alpha {a} out of [0,1]");
            blend.alpha = a;
        }
        blend.fixed = alpha;
    }

    /// Collects one episode on a freshly reset `env`, performs a PPO update
    /// once `episodes_per_update` episodes are batched, and returns the
    /// total (undiscounted) episode reward. Works on any [`SchedulingEnv`]
    /// with matching dims (flat or DAG).
    pub fn train_one_episode<E: SchedulingEnv + ?Sized>(&mut self, env: &mut E) -> f32 {
        if self.episodes_buffered >= self.cfg.episodes_per_update {
            self.buffer.clear();
            self.episodes_buffered = 0;
        }
        assert!(!env.is_done(), "train_one_episode needs a freshly reset env");
        let max_vms = env.dims().max_vms;
        let mut total = 0.0f32;
        let AgentScratch { state, logits, mask, policy, .. } = &mut self.scratch;
        loop {
            env.observe_into(state);
            self.actor.forward_one_into(state, logits);
            let outcome;
            if self.cfg.mask_invalid_actions {
                env.action_mask_into(mask);
                let (a, lp) =
                    policy::sample_action_masked_scratch(logits, mask, &mut self.rng, policy);
                outcome = env.step(Action::from_index(a, max_vms));
                self.buffer.push_masked(state, a, outcome.reward, lp, mask);
            } else {
                let (a, lp) = policy::sample_action_scratch(logits, &mut self.rng, policy);
                outcome = env.step(Action::from_index(a, max_vms));
                self.buffer.push(state, a, outcome.reward, lp);
            }
            total += outcome.reward;
            if outcome.done {
                self.buffer.end_episode();
                break;
            }
        }
        self.episodes_buffered += 1;
        self.telemetry.observe("rl/episode_reward", total as f64);
        self.telemetry.gauge("rl/buffer_transitions", self.buffer.len() as f64);
        if self.episodes_buffered >= self.cfg.episodes_per_update {
            self.update();
        }
        total
    }

    /// Rebuilds the retained batch's states and discounted returns in
    /// scratch.
    fn load_batch(&mut self) {
        self.buffer.states_matrix_into(&mut self.scratch.states);
        let (rewards, terminals) = (self.buffer.rewards(), self.buffer.terminals());
        discounted_returns_into(rewards, terminals, self.cfg.gamma, &mut self.scratch.returns);
    }

    /// PPO update on the retained buffer (no-op when empty): advantages
    /// from the pre-update state values, the clipped policy pass, the
    /// critic regressions, then the α refresh. Batch tensors and every
    /// per-epoch intermediate live in scratch, so repeated updates at a
    /// stable batch size allocate nothing.
    pub fn update(&mut self) {
        if self.buffer.is_empty() {
            return;
        }
        self.load_batch();
        let s = &mut self.scratch;
        // State values over the batch: `V`, or the α-blend of Eq. 14.
        self.critics[0].net.forward_into(&s.states, &mut s.value_mat);
        s.values.clear();
        s.values.extend((0..s.value_mat.rows()).map(|i| s.value_mat[(i, 0)]));
        if let Some(Blend { alpha, .. }) = self.blend {
            self.critics[1].net.forward_into(&s.states, &mut s.value_mat2);
            for (i, v) in s.values.iter_mut().enumerate() {
                *v = alpha * *v + (1.0 - alpha) * s.value_mat2[(i, 0)];
            }
        }
        let (rewards, terminals) = (self.buffer.rewards(), self.buffer.terminals());
        let (gamma, lambda) = (self.cfg.gamma, self.cfg.gae_lambda);
        gae_advantages_into(rewards, &s.values, terminals, gamma, lambda, &mut s.advantages);
        if self.cfg.normalize_advantages {
            normalize_in_place(&mut s.advantages);
        }
        let span = self.telemetry.span("rl/ppo_update");
        // Advantages came from the pre-update values, so the passes commute
        // data-wise; `critic_first` only swaps which network steps first
        // (the update-order ablation).
        let epochs = self.cfg.critic_epochs;
        let mut losses = [0.0; 2];
        if self.cfg.critic_first {
            losses = critic_pass(&mut self.critics, s, epochs);
        }
        let stats = actor_update(
            &mut self.actor,
            &mut self.actor_opt,
            &s.states,
            self.buffer.actions(),
            self.buffer.old_log_probs(),
            &s.advantages,
            self.buffer.masks_flat(),
            &self.cfg,
            &mut s.epoch,
        );
        if !self.cfg.critic_first {
            losses = critic_pass(&mut self.critics, s, epochs);
        }
        drop(span);
        self.telemetry.observe("rl/actor_surrogate", stats.surrogate as f64);
        self.telemetry.observe("rl/actor_entropy", stats.entropy as f64);
        self.telemetry.observe("rl/clip_fraction", stats.clip_fraction as f64);
        if self.blend.is_none() {
            self.telemetry.observe("rl/critic_loss", losses[0] as f64);
            return;
        }
        self.telemetry.observe("rl/critic_loss_local", losses[0] as f64);
        self.telemetry.observe("rl/critic_loss_public", losses[1] as f64);
        self.refresh_alpha(true);
        self.telemetry.observe("rl/alpha", self.alpha() as f64);
    }

    /// Recomputes an adaptive `α` from both critics' MSE on the retained
    /// batch; a no-op with one critic, a pinned `α`, or no trajectories.
    /// `loaded` says the batch is already in scratch (as inside
    /// [`Self::update`]); otherwise it is rebuilt there first, so the
    /// refresh allocates nothing once scratch is warm.
    fn refresh_alpha(&mut self, loaded: bool) {
        if !matches!(self.blend, Some(Blend { fixed: None, .. })) || self.buffer.is_empty() {
            return;
        }
        if !loaded {
            self.load_batch();
        }
        let s = &mut self.scratch;
        let [l_local, l_public] = [0, 1].map(|k| {
            self.critics[k].net.forward_into(&s.states, &mut s.value_mat);
            mse(&s.value_mat, &s.returns)
        });
        self.blend = Some(Blend { alpha: blend_weight(l_local, l_public), fixed: None });
    }

    /// Each critic's MSE on the retained trajectories (`[L_V]` or
    /// `[L_φ, L_ψ]`), without updating anything — the loss probe of Eq. 15
    /// and Fig. 9. Empty before the first episode. Allocates.
    pub fn critic_losses(&self) -> Vec<f32> {
        if self.buffer.is_empty() {
            return Vec::new();
        }
        let states = self.buffer.states_matrix();
        let returns =
            discounted_returns(self.buffer.rewards(), self.buffer.terminals(), self.cfg.gamma);
        self.critics.iter().map(|c| mse(&c.net.forward(&states), &returns)).collect()
    }

    /// MSE of the shared critic (`V`, or `ψ`) on the retained trajectories;
    /// `None` before the first episode.
    pub fn critic_loss_on_last_episode(&self) -> Option<f32> {
        self.critic_losses().last().copied()
    }

    /// Greedy evaluation episode on a freshly reset `env`. Takes `&mut self`
    /// to route per-decision tensors through the agent's scratch buffers;
    /// no learnable state changes.
    pub fn evaluate<E: SchedulingEnv + ?Sized>(&mut self, env: &mut E) -> EpisodeMetrics {
        assert!(!env.is_done(), "evaluate needs a freshly reset env");
        let max_vms = env.dims().max_vms;
        let AgentScratch { state, logits, mask, .. } = &mut self.scratch;
        loop {
            env.observe_into(state);
            self.actor.forward_one_into(state, logits);
            if self.cfg.mask_invalid_actions {
                env.action_mask_into(mask);
                policy::apply_mask(logits, mask);
            }
            let a = policy::greedy_action(logits);
            if env.step(Action::from_index(a, max_vms)).done {
                return env.metrics();
            }
        }
    }

    /// Saves the actor and every critic to a checkpoint file.
    pub fn save_checkpoint(&self, path: &std::path::Path) -> std::io::Result<()> {
        let nets: Vec<&Mlp> =
            std::iter::once(&self.actor).chain(self.critics.iter().map(|c| &c.net)).collect();
        pfrl_nn::checkpoint::save(path, &nets)
    }

    /// Restores the actor and every critic from a checkpoint written by
    /// [`Self::save_checkpoint`]. Optimizer state is reset (momentum from a
    /// different trajectory would be stale) and `α` is re-derived.
    ///
    /// Fails with `InvalidData` when the checkpoint's network count or
    /// shapes do not match this agent's.
    pub fn load_checkpoint(&mut self, path: &std::path::Path) -> std::io::Result<()> {
        let invalid = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
        let mut nets = pfrl_nn::checkpoint::load(path)?;
        if nets.len() != 1 + self.critics.len() {
            return Err(invalid(format!("expected {} networks", 1 + self.critics.len())));
        }
        let mine = std::iter::once(&self.actor).chain(self.critics.iter().map(|c| &c.net));
        if nets.iter().zip(mine).any(|(net, own)| net.sizes() != own.sizes()) {
            return Err(invalid("checkpoint shapes do not match agent".into()));
        }
        for (critic, net) in self.critics.iter_mut().zip(nets.drain(1..)) {
            critic.net = net;
            critic.opt.reset_state();
        }
        self.actor = nets.pop().expect("actor network");
        self.actor_opt.reset_state();
        self.refresh_alpha(false);
        Ok(())
    }

    /// Captures the complete resumable training state.
    pub fn snapshot(&self) -> AgentSnapshot {
        AgentSnapshot {
            actor: self.actor.flat_params(),
            critics: self.critics.iter().map(|c| c.net.flat_params()).collect(),
            actor_opt: self.actor_opt.snapshot_state(),
            critic_opts: self.critics.iter().map(|c| c.opt.snapshot_state()).collect(),
            blend: self.blend,
            rng: self.rng.state(),
            buffer: self.buffer.snapshot(),
            episodes_buffered: self.episodes_buffered,
        }
    }

    /// Restores state captured by [`Self::snapshot`] on an agent built with
    /// the same dims, critic count and config; training continues
    /// bit-identically.
    ///
    /// # Panics
    /// If the critic count, parameter or optimizer lengths disagree with
    /// this agent's shape.
    pub fn restore(&mut self, snap: &AgentSnapshot) {
        assert_eq!(snap.critics.len(), self.critics.len(), "critic count mismatch");
        self.actor.set_flat_params(&snap.actor);
        self.actor_opt.restore_state(&snap.actor_opt);
        for ((c, params), opt) in self.critics.iter_mut().zip(&snap.critics).zip(&snap.critic_opts)
        {
            c.net.set_flat_params(params);
            c.opt.restore_state(opt);
        }
        self.blend = snap.blend;
        self.rng = SmallRng::from_state(snap.rng);
        self.buffer.restore(&snap.buffer);
        self.episodes_buffered = snap.episodes_buffered;
    }

    /// Flat actor parameters (FedAvg transmits the actor too).
    pub fn actor_params(&self) -> Vec<f32> {
        self.actor.flat_params()
    }

    /// [`Self::actor_params`] into a reusable buffer — the upload form the
    /// pooled arena uses, allocation-free once capacity suffices.
    pub fn actor_params_into(&self, out: &mut Vec<f32>) {
        self.actor.flat_params_into(out);
    }

    /// Replaces the actor parameters.
    pub fn set_actor_params(&mut self, p: &[f32]) {
        self.actor.set_flat_params(p);
    }

    /// Flat parameters of the first critic (`V`, or `φ`).
    pub fn critic_params(&self) -> Vec<f32> {
        self.critics[0].net.flat_params()
    }

    /// [`Self::critic_params`] into a reusable buffer.
    pub fn critic_params_into(&self, out: &mut Vec<f32>) {
        self.critics[0].net.flat_params_into(out);
    }

    /// Replaces the first critic's parameters.
    pub fn set_critic_params(&mut self, p: &[f32]) {
        self.critics[0].net.set_flat_params(p);
    }

    /// Flat public-critic parameters `ψ` (what a PFRL-DM client uploads).
    pub fn public_critic_params(&self) -> Vec<f32> {
        self.critics[1].net.flat_params()
    }

    /// [`Self::public_critic_params`] into a reusable buffer — the upload
    /// form the pooled arena uses, allocation-free once capacity suffices.
    pub fn public_critic_params_into(&self, out: &mut Vec<f32>) {
        self.critics[1].net.flat_params_into(out);
    }

    /// Installs a (personalized) public critic from the server and
    /// refreshes `α` against the buffered trajectories, per Algorithm 1.
    /// The public critic's optimizer state is reset: stale momentum from
    /// the pre-aggregation parameters would point nowhere useful.
    pub fn receive_public_critic(&mut self, params: &[f32]) {
        let public = &mut self.critics[1];
        public.net.set_flat_params(params);
        public.opt.reset_state();
        self.refresh_alpha(false);
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use pfrl_sim::{CloudEnv, EnvConfig, EnvDims, HeuristicPolicy, VmSpec};
    use pfrl_workloads::DatasetId;

    fn small_env() -> CloudEnv {
        CloudEnv::new(
            EnvDims::new(2, 8, 64.0, 3),
            vec![VmSpec::new(8, 64.0), VmSpec::new(4, 32.0)],
            EnvConfig::default(),
        )
    }

    #[test]
    fn training_episode_runs_and_returns_finite_reward() {
        let mut env = small_env();
        let dims = *env.dims();
        let mut agent = Agent::new(dims.state_dim(), dims.action_dim(), 1, PpoConfig::default(), 1);
        env.reset(DatasetId::K8s.model().sample(25, 3));
        let r = agent.train_one_episode(&mut env);
        assert!(r.is_finite());
        assert!(env.is_done());
        assert!(agent.critic_loss_on_last_episode().is_some());
    }

    #[test]
    fn evaluation_places_tasks() {
        let mut env = small_env();
        let dims = *env.dims();
        let mut agent = Agent::new(dims.state_dim(), dims.action_dim(), 1, PpoConfig::default(), 2);
        env.reset(DatasetId::K8s.model().sample(25, 3));
        let m = agent.evaluate(&mut env);
        assert_eq!(m.tasks_placed + m.tasks_unplaced, 25);
    }

    #[test]
    fn deterministic_given_seed() {
        let tasks = DatasetId::K8s.model().sample(20, 5);
        let run = |seed: u64| {
            let mut env = small_env();
            let dims = *env.dims();
            let mut agent =
                Agent::new(dims.state_dim(), dims.action_dim(), 1, PpoConfig::default(), seed);
            let mut rewards = Vec::new();
            for _ in 0..3 {
                env.reset(tasks.clone());
                rewards.push(agent.train_one_episode(&mut env));
            }
            (rewards, agent.actor_params())
        };
        let (r1, p1) = run(42);
        let (r2, p2) = run(42);
        let (r3, _) = run(43);
        assert_eq!(r1, r2);
        assert_eq!(p1, p2);
        assert_ne!(r1, r3);
    }

    /// Learning sanity: training reward climbs clearly from the early
    /// episodes to the late ones on a fixed workload (the paper's Fig. 8 /
    /// Fig. 15 measure exactly this quantity).
    #[test]
    fn training_reward_improves_early_to_late() {
        let tasks = DatasetId::K8s.model().sample(30, 17);
        let mut env = small_env();
        let dims = *env.dims();
        let mut agent = Agent::new(dims.state_dim(), dims.action_dim(), 1, PpoConfig::default(), 7);
        let mut rewards = Vec::new();
        for _ in 0..120 {
            env.reset(tasks.clone());
            rewards.push(agent.train_one_episode(&mut env) as f64);
        }
        let early: f64 = rewards[..15].iter().sum::<f64>() / 15.0;
        let late: f64 = rewards[rewards.len() - 15..].iter().sum::<f64>() / 15.0;
        assert!(late > early + 10.0, "training did not improve: early {early:.1} late {late:.1}");

        // The learned stochastic policy should be far above the all-wait
        // floor and in the same regime as random feasible placement.
        let mut e = small_env();
        e.reset(tasks.clone());
        pfrl_sim::run_heuristic(&mut e, HeuristicPolicy::Random, 1);
        let random_r = e.metrics().total_reward;
        assert!(
            late > random_r - 45.0,
            "late training reward {late:.1} too far below random {random_r:.1}"
        );
    }

    /// With feasibility masking, the agent can never be denied a placement
    /// or pick a void VM slot: every reward is a placement (> 0), a neutral
    /// forced wait (0), or the lazy-wait constant.
    #[test]
    fn masked_agent_never_gets_denied() {
        let mut env = small_env();
        let dims = *env.dims();
        let cfg = PpoConfig { mask_invalid_actions: true, ..Default::default() };
        let mut agent = Agent::new(dims.state_dim(), dims.action_dim(), 1, cfg, 5);
        let lazy = env.config().lazy_wait_penalty;
        for seed in 0..3 {
            env.reset(DatasetId::K8s.model().sample(25, seed));
            agent.train_one_episode(&mut env);
            for &r in agent.buffer.rewards() {
                assert!(
                    r >= 0.0 || (r - lazy).abs() < 1e-6,
                    "denial-like reward {r} under masking"
                );
            }
            assert!(agent.buffer.is_masked());
        }
    }

    #[test]
    fn checkpoint_roundtrip_restores_policy() {
        let dir = std::env::temp_dir().join("pfrl_agent_ckpt");
        let path = dir.join("ppo.ckpt");
        let mut env = small_env();
        let dims = *env.dims();
        let mut a = Agent::new(dims.state_dim(), dims.action_dim(), 1, PpoConfig::default(), 4);
        env.reset(DatasetId::K8s.model().sample(15, 1));
        a.train_one_episode(&mut env);
        a.save_checkpoint(&path).unwrap();

        let mut b = Agent::new(dims.state_dim(), dims.action_dim(), 1, PpoConfig::default(), 99);
        assert_ne!(a.actor_params(), b.actor_params());
        b.load_checkpoint(&path).unwrap();
        assert_eq!(a.actor_params(), b.actor_params());
        assert_eq!(a.critic_params(), b.critic_params());

        // Shape mismatch is rejected.
        let mut small = Agent::new(4, 3, 1, PpoConfig::default(), 0);
        assert!(small.load_checkpoint(&path).is_err());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn param_roundtrip_through_federation_api() {
        let mut a = Agent::new(10, 3, 1, PpoConfig::default(), 1);
        let b = Agent::new(10, 3, 1, PpoConfig::default(), 2);
        a.set_actor_params(&b.actor_params());
        a.set_critic_params(&b.critic_params());
        assert_eq!(a.actor_params(), b.actor_params());
        assert_eq!(a.critic_params(), b.critic_params());
    }

    fn dual(seed: u64) -> Agent {
        let dims = EnvDims::new(2, 8, 64.0, 3);
        Agent::new(dims.state_dim(), dims.action_dim(), 2, PpoConfig::default(), seed)
    }

    #[test]
    fn alpha_starts_balanced_and_stays_in_unit_interval() {
        let mut a = dual(1);
        assert_eq!(a.alpha(), 0.5);
        let mut env = small_env();
        for _ in 0..3 {
            env.reset(DatasetId::K8s.model().sample(20, 9));
            a.train_one_episode(&mut env);
            assert!((0.0..=1.0).contains(&a.alpha()), "alpha {}", a.alpha());
        }
    }

    #[test]
    fn critics_start_different_and_both_fit_a_fixed_buffer() {
        let mut a = dual(2);
        assert_ne!(a.critic(0).flat_params(), a.critic(1).flat_params());
        let tasks = DatasetId::K8s.model().sample(20, 4);
        let mut env = small_env();
        env.reset(tasks);
        a.train_one_episode(&mut env);
        let [l1, p1] = a.critic_losses()[..] else { unreachable!() };
        // Re-running the update on the retained buffer regresses both
        // critics on *fixed* targets: losses must fall. (During live
        // training the targets move with the policy, so the per-episode
        // loss is not monotone — that non-stationarity is exactly what
        // Fig. 9 exploits.)
        for _ in 0..10 {
            a.update();
        }
        let [l2, p2] = a.critic_losses()[..] else { unreachable!() };
        assert!(l2 < l1, "local critic loss {l1:.2} -> {l2:.2}");
        assert!(p2 < p1, "public critic loss {p1:.2} -> {p2:.2}");
    }

    /// The heterogeneity-defense property: installing a garbage public
    /// critic must shift α toward the local critic.
    #[test]
    fn bad_public_critic_downweighted() {
        let mut a = dual(3);
        let mut env = small_env();
        for _ in 0..5 {
            env.reset(DatasetId::K8s.model().sample(20, 6));
            a.train_one_episode(&mut env);
        }
        // Install the local critic as the public one: α snaps to 0.5 and
        // gives a clean reference point.
        let local = a.critic(0).flat_params();
        a.receive_public_critic(&local);
        let alpha_before = a.alpha();
        assert!((alpha_before - 0.5).abs() < 1e-4);
        // Garbage parameters: large random-ish constants whose predictions
        // (linear output layer) dwarf any plausible return scale, so
        // L_ψ ≫ L_φ independent of the sampled workload. The normalized
        // Eq. 15 saturates toward sigmoid(2) ≈ 0.88 as L_ψ → ∞.
        let garbage: Vec<f32> =
            (0..a.public_critic_params().len()).map(|i| ((i as f32 * 0.7).sin()) * 500.0).collect();
        a.receive_public_critic(&garbage);
        assert!(a.alpha() > 0.8, "alpha {} -> {}", alpha_before, a.alpha());
    }

    /// Installing a copy of the (good) local critic as the public critic
    /// must pull α back toward 0.5.
    #[test]
    fn equal_critics_give_balanced_alpha() {
        let mut a = dual(4);
        let mut env = small_env();
        for _ in 0..5 {
            env.reset(DatasetId::K8s.model().sample(20, 6));
            a.train_one_episode(&mut env);
        }
        let local = a.critic(0).flat_params();
        a.receive_public_critic(&local);
        assert!((a.alpha() - 0.5).abs() < 1e-4, "alpha {}", a.alpha());
    }

    #[test]
    fn receive_before_any_training_keeps_default_alpha() {
        let mut a = dual(5);
        let params = a.public_critic_params();
        a.receive_public_critic(&params);
        assert_eq!(a.alpha(), 0.5);
        assert!(a.critic_losses().is_empty());
    }

    #[test]
    fn deterministic_training() {
        let tasks = DatasetId::Google.model().sample(20, 8);
        let run = |seed| {
            let mut a = dual(seed);
            let mut env = small_env();
            let mut rs = Vec::new();
            for _ in 0..3 {
                env.reset(tasks.clone());
                rs.push(a.train_one_episode(&mut env));
            }
            (rs, a.alpha(), a.public_critic_params())
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn fixed_alpha_disables_adaptation() {
        let mut a = dual(7);
        a.set_fixed_alpha(Some(1.0));
        let mut env = small_env();
        for _ in 0..3 {
            env.reset(DatasetId::K8s.model().sample(15, 2));
            a.train_one_episode(&mut env);
            assert_eq!(a.alpha(), 1.0);
        }
        a.set_fixed_alpha(None);
        env.reset(DatasetId::K8s.model().sample(15, 2));
        a.train_one_episode(&mut env);
        assert_ne!(a.alpha(), 1.0, "adaptive alpha should move off the pin");
    }

    #[test]
    #[should_panic(expected = "out of [0,1]")]
    fn bad_fixed_alpha_rejected() {
        dual(8).set_fixed_alpha(Some(1.5));
    }

    #[test]
    fn dual_checkpoint_roundtrip() {
        let dir = std::env::temp_dir().join("pfrl_dual_ckpt");
        let path = dir.join("dual.ckpt");
        let mut a = dual(11);
        let mut env = small_env();
        env.reset(DatasetId::K8s.model().sample(15, 2));
        a.train_one_episode(&mut env);
        a.save_checkpoint(&path).unwrap();

        let mut b = dual(77);
        b.load_checkpoint(&path).unwrap();
        assert_eq!(a.actor.flat_params(), b.actor.flat_params());
        assert_eq!(a.public_critic_params(), b.public_critic_params());
        assert_eq!(a.critic(0).flat_params(), b.critic(0).flat_params());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn evaluate_runs_greedy_episode() {
        let mut a = dual(6);
        let mut env = small_env();
        env.reset(DatasetId::K8s.model().sample(15, 2));
        let m = a.evaluate(&mut env);
        assert_eq!(m.tasks_placed + m.tasks_unplaced, 15);
    }
}
