//! The federation round driver (Algorithm 1), written once for every
//! algorithm: local PPO episodes, upload, server aggregation, broadcast.
//!
//! [`Federation<R>`] owns what the algorithms share: clients and schedule,
//! fault injection and the quarantine gate, robust screens, the pooled
//! upload arena, the span tree (`fed/round` with `local_train`, `upload`,
//! `aggregate` and `broadcast` children), the builders and the checkpoint
//! framing. A [`ServerRule`] supplies what differs: the critic count of
//! the client agents, the upload, the round's cohort, and the aggregate
//! and broadcast steps.

use crate::attack::AttackPlan;
use crate::checkpoint::{
    read_agent, read_client_fault, write_agent, write_client_fault, Fingerprint, Reader, Writer,
};
use crate::client::Client;
use crate::config::{ClientSetup, FedConfig};
use crate::curves::TrainingCurves;
use crate::error::FedError;
use crate::fault::{AcceptedUpload, FaultPlan, FaultState, Presence, QuarantinePolicy};
use crate::robust::{screen_uploads, RobustConfig, RobustScratch};
use crate::runner::{FederatedRunner, UploadArena};
use pfrl_rl::{Agent, PpoConfig};
use pfrl_scenario::ScenarioBinding;
use pfrl_sim::{EnvConfig, EnvDims};
use pfrl_stats::seeding::SeedStream;
use pfrl_telemetry::Telemetry;
use rayon::prelude::*;
use std::any::Any;
use std::io;
use std::time::Instant;

/// Runs `n` episodes on every client, in parallel when configured
/// (bit-identical either way: clients share no state).
pub(crate) fn run_all(clients: &mut [Client], n: usize, parallel: bool) {
    if parallel {
        clients.par_iter_mut().for_each(|c| c.run_episodes(n));
    } else {
        clients.iter_mut().for_each(|c| c.run_episodes(n));
    }
}

/// Derives the deterministic agent seed for client `i`.
pub(crate) fn agent_seed(fed_cfg: &FedConfig, i: usize) -> u64 {
    SeedStream::new(fed_cfg.seed).child("agent").index(i as u64).seed()
}

/// Mean loss of the shared critic (`V`, or PFRL-DM's `ψ`) across clients
/// on their own last episodes, `None` before any training happened.
pub(crate) fn mean_critic_loss(clients: &[Client]) -> Option<f64> {
    let losses = clients.iter().filter_map(|c| c.agent.critic_loss_on_last_episode());
    let (sum, count) = losses.fold((0.0f64, 0usize), |(sum, n), l| (sum + l as f64, n + 1));
    (count > 0).then(|| sum / count as f64)
}

/// Wire size of flat `f32` parameter vectors, for bytes-on-wire counters.
pub(crate) fn param_bytes(params: &[Vec<f32>]) -> u64 {
    params.iter().map(|p| p.len() as u64 * 4).sum()
}

/// The server side of one federated algorithm — a new algorithm is a new
/// rule. `Clone` lets a restore decode into a copy and commit only once the
/// whole checkpoint has parsed.
pub trait ServerRule: Clone + Send + 'static {
    /// Paper name of the algorithm (e.g. `"PFRL-DM"`).
    const NAME: &'static str;
    /// Checkpoint fingerprint tag, distinct per rule.
    const FINGERPRINT: u8;
    /// Parameter streams each client uploads per round; 0 means clients
    /// never communicate and the round ends after local training.
    const STREAMS: usize;
    /// Critics per client agent: 1 (plain PPO) or 2 (PFRL-DM's local `φ`
    /// and public `ψ`).
    const CRITICS: usize = 1;
    /// Whether checkpoints carry the per-client fault bookkeeping.
    const CHECKPOINT_FAULTS: bool = true;

    /// One-time setup over the new clients (shared start, server model),
    /// given the schedule, env dims and PPO config.
    fn init(&mut self, _: &mut [Client], _: &FedConfig, _: EnvDims, _: &PpoConfig) {}

    /// Writes `agent`'s upload into `streams` (`STREAMS` cleared buffers).
    fn upload(_agent: &Agent, _streams: &mut [Vec<f32>]) {}

    /// Picks the clients asked to upload; `k` is the participation target
    /// capped at the enrolled cohort. Default: every client.
    fn select_cohort(&mut self, presences: &[Presence], _k: usize, cohort: &mut Vec<usize>) {
        cohort.extend(0..presences.len());
    }

    /// Mean client critic loss, probed around each aggregation
    /// (`fed/critic_loss_{before,after}_agg`); `None` skips the probe.
    /// Default: the shared critic's mean loss, only when telemetry is on.
    fn critic_loss(&self, clients: &[Client], telemetry: &Telemetry) -> Option<f64> {
        telemetry.is_enabled().then(|| mean_critic_loss(clients)).flatten()
    }

    /// Receives each round's critic-loss probe.
    fn note_critic_loss(&mut self, _round: usize, _before: f64, _after: f64) {}

    /// Server work before the aggregate span (PFRL-DM's re-entry blend
    /// and attention).
    fn prepare(&mut self, _round: &mut Round<'_>) {}

    /// Folds the surviving uploads into the server's models. Default:
    /// nothing, for rules that never communicate.
    fn aggregate(&mut self, _round: &mut Round<'_>) {}

    /// Sends models back to the clients and counts `fed/bytes_down`.
    fn broadcast(&mut self, _round: &mut Round<'_>) {}

    /// Settings a checkpoint must match, written after the fingerprint.
    fn write_config(&self, _w: &mut Writer) {}

    /// Verifies settings written by [`Self::write_config`].
    fn check_config(&self, _r: &mut Reader<'_>) -> io::Result<()> {
        Ok(())
    }

    /// The rule's resumable server state.
    fn write_state(&self, _w: &mut Writer) {}

    /// Loads state written by [`Self::write_state`].
    fn read_state(&mut self, _r: &mut Reader<'_>) -> io::Result<()> {
        Ok(())
    }
}

/// What a [`ServerRule`] sees of one round once the upload phase is over.
pub struct Round<'a> {
    /// Index of the round (rounds completed before it).
    pub index: usize,
    /// The federation schedule.
    pub cfg: &'a FedConfig,
    /// Every client, by index.
    pub clients: &'a mut [Client],
    /// Every client's connectivity this round.
    pub presences: &'a [Presence],
    /// Clients whose uploads survived the gate and screens, in cohort order.
    pub survivors: &'a [usize],
    /// Silent rounds before each survivor's contribution (0 = fresh).
    pub missed: &'a [usize],
    /// The surviving uploads, stream-major: `uploads[stream][slot]`.
    pub uploads: &'a mut [Vec<Vec<f32>>],
    /// Fault bookkeeping (refresh notes, re-entry weights).
    pub fault: &'a mut FaultState,
    /// The robust aggregation config.
    pub robust: &'a RobustConfig,
    /// Reusable buffers for robust reductions.
    pub scratch: &'a mut RobustScratch,
    /// Metrics sink.
    pub telemetry: &'a Telemetry,
}

/// Per-round buffers, reused so steady-state rounds stay off the heap.
#[derive(Default)]
struct Workspace {
    presences: Vec<Presence>,
    cohort: Vec<usize>,
    accepted: Vec<AcceptedUpload>,
    survivors: Vec<usize>,
    missed: Vec<usize>,
    uploads: Vec<Vec<Vec<f32>>>,
    robust: RobustScratch,
}

/// A federation of clients trained under one [`ServerRule`].
pub struct Federation<R: ServerRule> {
    /// The clients, by index.
    pub clients: Vec<Client>,
    pub(crate) rule: R,
    pub(crate) cfg: FedConfig,
    pub(crate) dims: EnvDims,
    pub(crate) env_cfg: EnvConfig,
    pub(crate) ppo_cfg: PpoConfig,
    pub(crate) fault: FaultState,
    pub(crate) telemetry: Telemetry,
    rounds_done: usize,
    robust: RobustConfig,
    arena: UploadArena,
    work: Workspace,
}

impl<R: ServerRule + Default> Federation<R> {
    /// Builds the federation with the rule's default configuration.
    pub fn new(
        setups: Vec<ClientSetup>,
        dims: EnvDims,
        env_cfg: EnvConfig,
        ppo_cfg: PpoConfig,
        fed_cfg: FedConfig,
    ) -> Self {
        Self::with_rule(R::default(), setups, dims, env_cfg, ppo_cfg, fed_cfg)
    }
}

impl<R: ServerRule> Federation<R> {
    /// Builds one client per setup (agents seeded per `(seed, client)`)
    /// under `rule`.
    pub(crate) fn with_rule(
        mut rule: R,
        setups: Vec<ClientSetup>,
        dims: EnvDims,
        env_cfg: EnvConfig,
        ppo_cfg: PpoConfig,
        fed_cfg: FedConfig,
    ) -> Self {
        fed_cfg.validate(setups.len());
        let mut clients: Vec<Client> = setups
            .into_iter()
            .enumerate()
            .map(|(i, s)| {
                let seed = agent_seed(&fed_cfg, i);
                let (state_dim, action_dim) = (dims.state_dim(), dims.action_dim());
                let agent = Agent::new(state_dim, action_dim, R::CRITICS, ppo_cfg, seed);
                Client::new(s, agent, dims, env_cfg, &fed_cfg, i)
            })
            .collect();
        rule.init(&mut clients, &fed_cfg, dims, &ppo_cfg);
        let n = clients.len();
        Self {
            clients,
            rule,
            cfg: fed_cfg,
            dims,
            env_cfg,
            ppo_cfg,
            fault: FaultState::new(FaultPlan::none(), QuarantinePolicy::default(), n),
            telemetry: Telemetry::noop(),
            rounds_done: 0,
            robust: RobustConfig::default(),
            arena: UploadArena::new(),
            work: Workspace::default(),
        }
    }

    /// Routes runner, agent, and environment metrics to `telemetry`
    /// (per-round phase timings, bytes on the wire, critic-loss probes).
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        for c in &mut self.clients {
            c.set_telemetry(telemetry.clone());
        }
        self.fault.set_telemetry(telemetry.clone());
        self.telemetry = telemetry;
        self
    }

    /// Installs a deterministic fault schedule (see [`crate::fault`]),
    /// injected at the client→server boundary of every round. Faults act
    /// on the sampled cohort; they never change the sampling.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault.set_plan(plan);
        self
    }

    /// Overrides the update-quarantine policy (norm limit, eviction
    /// threshold, staleness decay).
    pub fn with_quarantine_policy(mut self, policy: QuarantinePolicy) -> Self {
        self.fault.set_policy(policy);
        self
    }

    /// Installs a deterministic Byzantine attack schedule (see
    /// [`crate::attack`]): coalition uploads are poisoned at the gate.
    pub fn with_attack_plan(mut self, plan: AttackPlan) -> Self {
        self.fault.set_attack(plan);
        self
    }

    /// Installs the Byzantine-robust aggregation config (see
    /// [`crate::robust`]): screens over the gated uploads, and the
    /// configured reduction wherever a rule takes a mean.
    pub fn with_robust_aggregator(mut self, robust: RobustConfig) -> Self {
        robust.validate();
        self.robust = robust;
        self
    }

    /// Installs a deterministic scenario (workload drift + churn, see
    /// [`pfrl_scenario`]): drifting clients regenerate their episode
    /// traces from the plan, and the plan's churn schedule drives which
    /// clients are in the cohort each round. A churn-only plan leaves the training traces untouched.
    pub fn with_scenario(mut self, binding: &ScenarioBinding) -> Self {
        let n = self.clients.len();
        assert_eq!(binding.datasets.len(), n, "scenario binding needs one dataset per client");
        if binding.plan.has_drift() {
            for (i, c) in self.clients.iter_mut().enumerate() {
                let tasks = self.cfg.tasks_per_episode.unwrap_or(c.train_tasks().len());
                c.set_scenario_trace(binding.trace_for(i, tasks));
            }
        }
        self.fault.set_churn(binding.plan.churn().clone());
        self
    }

    /// Switches every client to DAG workflow scheduling: client `i` draws
    /// its episodes from `pools[i]` (seeded windows of `per_episode`
    /// workflows; `None` replays the full pool each episode).
    pub fn with_workflows(
        mut self,
        pools: Vec<Vec<pfrl_workloads::workflow::Workflow>>,
        per_episode: Option<usize>,
    ) -> Self {
        assert_eq!(pools.len(), self.clients.len(), "one workflow pool per client");
        for (c, pool) in self.clients.iter_mut().zip(pools) {
            c.use_workflows(pool, per_episode);
        }
        self
    }

    /// Full training run. Resume-safe: starts from `rounds_done`.
    pub fn train(&mut self) -> TrainingCurves {
        while self.rounds_done < self.cfg.rounds() {
            self.train_round();
        }
        self.finish()
    }

    /// Runs `rounds` more rounds.
    pub fn train_rounds(&mut self, rounds: usize) {
        (0..rounds).for_each(|_| self.train_round());
    }

    /// One communication round: `comm_every` local episodes on every
    /// client (faulted clients keep training locally — only their
    /// communication fails), then [`Self::aggregate`].
    pub fn train_round(&mut self) {
        let telemetry = self.telemetry.clone();
        let _round = telemetry.span("fed/round");
        {
            let _local = telemetry.span("fed/round/local_train");
            run_all(&mut self.clients, self.cfg.comm_every, self.cfg.parallel);
        }
        self.aggregate();
    }

    /// Runs any leftover episodes and returns the curves. Idempotent.
    pub fn finish(&mut self) -> TrainingCurves {
        let done = self.clients.first().map_or(0, |c| c.episodes_done());
        if self.cfg.episodes > done {
            run_all(&mut self.clients, self.cfg.episodes - done, self.cfg.parallel);
        }
        TrainingCurves { per_client: self.clients.iter().map(|c| c.rewards.clone()).collect() }
    }

    /// The communication half of a round: the connected cohort uploads
    /// through the gate and screens, then the rule aggregates and
    /// broadcasts. With no surviving upload the server step is skipped.
    pub fn aggregate(&mut self) {
        let round = self.rounds_done;
        let w = &mut self.work;
        self.fault.begin_round_into(round, &mut w.presences);
        for (i, p) in w.presences.iter().enumerate() {
            if !p.is_present() {
                self.fault.note_missed(i);
            }
        }
        if R::STREAMS == 0 {
            let present = w.presences.iter().filter(|p| p.is_present()).count();
            self.fault.record_participation(present);
            return self.end_round();
        }
        let k = self.cfg.participation_k.min(self.fault.enrolled_now());
        w.cohort.clear();
        self.rule.select_cohort(&w.presences, k, &mut w.cohort);

        let upload = self.telemetry.span("fed/round/upload");
        w.accepted.clear();
        for &i in &w.cohort {
            let presence = w.presences[i];
            if !presence.is_present() {
                continue;
            }
            let mut streams = self.arena.acquire(R::STREAMS);
            R::upload(&self.clients[i].agent, &mut streams);
            if let Some(up) = self.fault.gate_upload(round, i, streams, presence) {
                w.accepted.push(up);
            }
        }
        drop(upload);
        // Cohort-relative robust screens (no-ops on the default config):
        // outliers are ejected before any float touches the aggregate.
        screen_uploads(
            &self.robust,
            round,
            &mut self.fault,
            &mut w.accepted,
            &mut self.arena,
            &mut w.robust,
        );
        self.fault.record_participation(w.accepted.len());
        if w.accepted.is_empty() {
            return self.end_round();
        }

        let agg_start = Instant::now();
        w.uploads.resize_with(R::STREAMS, Vec::new);
        for (s, stream) in w.uploads.iter_mut().enumerate() {
            stream.resize_with(w.accepted.len(), Vec::new);
            for (dst, up) in stream.iter_mut().zip(&w.accepted) {
                dst.clone_from(&up.streams[s]);
            }
        }
        w.survivors.clear();
        w.missed.clear();
        // The upload buffers are copied out; park them for the next round.
        for up in w.accepted.drain(..) {
            w.survivors.push(up.client);
            w.missed.push(up.missed_rounds);
            self.arena.release(up.streams);
        }
        self.telemetry.counter("fed/bytes_up", w.uploads.iter().map(|s| param_bytes(s)).sum());

        let loss_before = self.rule.critic_loss(&self.clients, &self.telemetry);
        let mut ctx = Round {
            index: round,
            cfg: &self.cfg,
            clients: &mut self.clients,
            presences: &w.presences,
            survivors: &w.survivors,
            missed: &w.missed,
            uploads: &mut w.uploads,
            fault: &mut self.fault,
            robust: &self.robust,
            scratch: &mut w.robust,
            telemetry: &self.telemetry,
        };
        self.rule.prepare(&mut ctx);
        let aggregate = self.telemetry.span("fed/round/aggregate");
        self.rule.aggregate(&mut ctx);
        drop(aggregate);
        let broadcast = self.telemetry.span("fed/round/broadcast");
        self.rule.broadcast(&mut ctx);
        drop(broadcast);
        // Wall-clock, so excluded from the deterministic fingerprint.
        self.telemetry.observe("fed/agg_wall_us", agg_start.elapsed().as_secs_f64() * 1e6);
        self.telemetry.gauge("fed/arena_bytes", self.arena.pooled_bytes() as f64);

        let loss_after = self.rule.critic_loss(&self.clients, &self.telemetry);
        if let (Some(before), Some(after)) = (loss_before, loss_after) {
            self.telemetry.observe("fed/critic_loss_before_agg", before);
            self.telemetry.observe("fed/critic_loss_after_agg", after);
            self.rule.note_critic_loss(round, before, after);
        }
        self.end_round();
    }

    fn end_round(&mut self) {
        self.telemetry.counter("fed/rounds", 1);
        self.rounds_done += 1;
    }

    /// Communication rounds completed so far.
    pub fn rounds_done(&self) -> usize {
        self.rounds_done
    }

    /// Bytes of `f32` capacity pooled in the upload arena between rounds.
    pub fn arena_bytes(&self) -> u64 {
        self.arena.pooled_bytes()
    }

    fn fingerprint(&self) -> Fingerprint {
        Fingerprint {
            algo: R::FINGERPRINT,
            seed: self.cfg.seed,
            episodes: self.cfg.episodes,
            comm_every: self.cfg.comm_every,
            participation_k: self.cfg.participation_k,
            n_clients: self.clients.len(),
        }
    }

    /// Serializes the training state: fingerprint, round cursor, rule
    /// state, per-client rewards/cursor/agent, then fault bookkeeping
    /// (unless [`ServerRule::CHECKPOINT_FAULTS`] is off). Construction-time
    /// configuration is not stored: restore into a federation built alike.
    pub fn checkpoint_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.fingerprint().write(&mut w);
        self.rule.write_config(&mut w);
        w.usize(self.rounds_done);
        self.rule.write_state(&mut w);
        for c in &self.clients {
            w.vec_f64(&c.rewards);
            w.usize(c.episodes_done());
            write_agent(&mut w, &c.agent.snapshot());
        }
        if R::CHECKPOINT_FAULTS {
            for f in self.fault.client_states() {
                write_client_fault(&mut w, f);
            }
        }
        w.finish()
    }

    /// Restores state captured by [`Self::checkpoint_bytes`]; training
    /// then resumes to bit-identical curves. Malformed, truncated, or
    /// mismatched checkpoints surface as [`FedError::Checkpoint`] and
    /// change nothing.
    pub fn restore_checkpoint(&mut self, bytes: &[u8]) -> Result<(), FedError> {
        self.restore_impl(bytes).map_err(FedError::checkpoint)
    }

    fn restore_impl(&mut self, bytes: &[u8]) -> io::Result<()> {
        let n = self.clients.len();
        let mut r = Reader::new(bytes)?;
        Fingerprint::check(&mut r, &self.fingerprint())?;
        self.rule.check_config(&mut r)?;
        let rounds_done = r.usize()?;
        let mut rule = self.rule.clone();
        rule.read_state(&mut r)?;
        let mut snaps = Vec::with_capacity(n);
        for c in &self.clients {
            let rewards = r.vec_f64()?;
            let episodes_done = r.usize()?;
            snaps.push((rewards, episodes_done, read_agent(&mut r, c.agent.critic_count())?));
        }
        let n_faults = if R::CHECKPOINT_FAULTS { n } else { 0 };
        let faults = (0..n_faults).map(|_| read_client_fault(&mut r)).collect::<io::Result<_>>()?;
        r.finish()?;
        self.rounds_done = rounds_done;
        self.rule = rule;
        for (c, (rewards, episodes_done, snap)) in self.clients.iter_mut().zip(snaps) {
            c.rewards = rewards;
            c.restore_episode_cursor(episodes_done);
            c.agent.restore(&snap);
        }
        if R::CHECKPOINT_FAULTS {
            self.fault.restore_client_states(faults);
        }
        Ok(())
    }
}

impl<R: ServerRule> FederatedRunner for Federation<R> {
    fn algorithm(&self) -> &'static str {
        R::NAME
    }
    fn config(&self) -> &FedConfig {
        &self.cfg
    }
    fn train_round(&mut self) {
        Federation::train_round(self)
    }
    fn finish(&mut self) -> TrainingCurves {
        Federation::finish(self)
    }
    fn rounds_done(&self) -> usize {
        self.rounds_done
    }
    fn checkpoint_bytes(&self) -> Vec<u8> {
        Federation::checkpoint_bytes(self)
    }
    fn restore_checkpoint(&mut self, bytes: &[u8]) -> Result<(), FedError> {
        Federation::restore_checkpoint(self, bytes)
    }
    fn clients(&self) -> &[Client] {
        &self.clients
    }
    fn clients_mut(&mut self) -> &mut [Client] {
        &mut self.clients
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}
