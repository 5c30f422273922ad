//! A federated client: an agent bound to its private environment and
//! workload pool.

use crate::config::{ClientSetup, FedConfig};
use crate::snapshot::PolicySnapshot;
use pfrl_rl::Agent;
use pfrl_scenario::ClientTrace;
use pfrl_sim::{CloudEnv, DagCloudEnv, EnvConfig, EnvDims, EpisodeMetrics, SchedulingEnv};
use pfrl_stats::seeding::SeedStream;
use pfrl_telemetry::Telemetry;
use pfrl_workloads::workflow::{DagTask, Workflow};
use pfrl_workloads::TaskSpec;
use rand::rngs::SmallRng;
use rand::Rng;
use rand::SeedableRng;

/// The environment a client trains in: the paper's flat task stream, or the
/// dependency-aware workflow environment (both share dims, action space, and
/// reward shape, so the agents are oblivious to the choice).
enum ClientEnv {
    /// Flat per-task scheduling ([`CloudEnv`]).
    Flat(CloudEnv),
    /// DAG workflow scheduling ([`DagCloudEnv`]).
    Dag(DagCloudEnv),
}

impl ClientEnv {
    fn dims(&self) -> &EnvDims {
        match self {
            ClientEnv::Flat(e) => e.dims(),
            ClientEnv::Dag(e) => e.dims(),
        }
    }

    fn config(&self) -> &EnvConfig {
        match self {
            ClientEnv::Flat(e) => e.config(),
            ClientEnv::Dag(e) => e.config(),
        }
    }

    fn vm_specs(&self) -> &[pfrl_sim::VmSpec] {
        match self {
            ClientEnv::Flat(e) => e.vm_specs(),
            ClientEnv::Dag(e) => e.vm_specs(),
        }
    }
}

/// One client of the federation.
pub struct Client {
    /// The learning agent.
    pub agent: Agent,
    /// Display name.
    pub name: String,
    /// Episode rewards collected so far.
    pub rewards: Vec<f64>,
    env: ClientEnv,
    train_tasks: Vec<TaskSpec>,
    episode_seeds: SeedStream,
    episodes_done: usize,
    tasks_per_episode: Option<usize>,
    /// Non-stationary trace override: when set, episode tasks come from the
    /// scenario plan (pure in `(client, episode)`) instead of the pool.
    scenario: Option<ClientTrace>,
    /// Workflow pool (DAG mode only).
    workflows: Vec<Workflow>,
    /// Per-episode workflow window (DAG mode; `None` = full pool).
    workflows_per_episode: Option<usize>,
}

impl Client {
    /// Builds a client from its setup, agent, and the shared dims/config.
    pub fn new(
        setup: ClientSetup,
        agent: Agent,
        dims: EnvDims,
        env_cfg: EnvConfig,
        fed_cfg: &FedConfig,
        client_index: usize,
    ) -> Self {
        assert!(!setup.train_tasks.is_empty(), "client {} has no tasks", setup.name);
        let env = CloudEnv::new(dims, setup.vms, env_cfg);
        let episode_seeds =
            SeedStream::new(fed_cfg.seed).child("episodes").index(client_index as u64);
        Self {
            agent,
            name: setup.name,
            rewards: Vec::new(),
            env: ClientEnv::Flat(env),
            train_tasks: setup.train_tasks,
            episode_seeds,
            episodes_done: 0,
            tasks_per_episode: fed_cfg.tasks_per_episode,
            scenario: None,
            workflows: Vec::new(),
            workflows_per_episode: None,
        }
    }

    /// Display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Routes this client's agent and environment metrics to `telemetry`.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.agent.set_telemetry(telemetry.clone());
        match &mut self.env {
            ClientEnv::Flat(env) => env.set_telemetry(telemetry),
            ClientEnv::Dag(env) => env.set_telemetry(telemetry),
        }
    }

    /// Installs a scenario trace: from now on episode tasks are sampled
    /// from the drifting plan instead of the static pool. The pool is kept
    /// (it still defines `train_tasks()` for evaluation bookkeeping).
    pub fn set_scenario_trace(&mut self, trace: ClientTrace) {
        self.scenario = Some(trace);
    }

    /// Switches the client to the dependency-aware workflow environment,
    /// training on windows of `pool` (same dims/config/VMs as the flat env
    /// it replaces). `per_episode` bounds the workflows per episode window
    /// (`None` = the whole pool every episode).
    pub fn use_workflows(&mut self, pool: Vec<Workflow>, per_episode: Option<usize>) {
        assert!(!pool.is_empty(), "client {} has no workflows", self.name);
        let dims = *self.env.dims();
        let cfg = *self.env.config();
        let vms = self.env.vm_specs().to_vec();
        self.env = ClientEnv::Dag(DagCloudEnv::new(dims, vms, cfg));
        self.workflows = pool;
        self.workflows_per_episode = per_episode;
    }

    /// Number of training episodes completed.
    pub fn episodes_done(&self) -> usize {
        self.episodes_done
    }

    /// Restores the episode cursor from a checkpoint (the reward history is
    /// restored directly through the public `rewards` field). Episode seeds
    /// derive from `(config seed, client index, episode index)`, so setting
    /// the cursor is all that is needed to resume the episode stream.
    pub(crate) fn restore_episode_cursor(&mut self, episodes_done: usize) {
        self.episodes_done = episodes_done;
    }

    /// The client's private training pool.
    pub fn train_tasks(&self) -> &[TaskSpec] {
        &self.train_tasks
    }

    /// Draws this episode's task window. A scenario trace, when installed,
    /// takes precedence (the drifting plan is the workload law); otherwise a
    /// seeded random contiguous slice of the pool, rebased to arrival 0 (or
    /// the full pool when `tasks_per_episode` is `None`).
    fn episode_tasks(&self, episode: usize) -> Vec<TaskSpec> {
        if let Some(trace) = &self.scenario {
            return trace.episode_tasks(episode);
        }
        match self.tasks_per_episode {
            None => self.train_tasks.clone(),
            Some(n) if n >= self.train_tasks.len() => self.train_tasks.clone(),
            Some(n) => {
                let seed = self.episode_seeds.index(episode as u64).seed();
                let mut rng = SmallRng::seed_from_u64(seed);
                let start = rng.gen_range(0..=self.train_tasks.len() - n);
                let mut window = self.train_tasks[start..start + n].to_vec();
                let base = window.first().map_or(0, |t| t.arrival);
                for (i, t) in window.iter_mut().enumerate() {
                    t.id = i as u64;
                    t.arrival -= base;
                }
                window
            }
        }
    }

    /// Draws this episode's workflow window (DAG mode): the same seeded
    /// windowing discipline as [`Self::episode_tasks`], with submission
    /// times rebased to 0.
    fn episode_workflows(&self, episode: usize) -> Vec<Workflow> {
        let n = match self.workflows_per_episode {
            None => return self.workflows.clone(),
            Some(n) if n >= self.workflows.len() => return self.workflows.clone(),
            Some(n) => n,
        };
        let seed = self.episode_seeds.index(episode as u64).seed();
        let mut rng = SmallRng::seed_from_u64(seed);
        let start = rng.gen_range(0..=self.workflows.len() - n);
        let mut window = self.workflows[start..start + n].to_vec();
        let base = window.first().map_or(0, |w| w.submit);
        for wf in &mut window {
            wf.submit -= base;
            for t in &mut wf.tasks {
                t.spec.arrival = wf.submit;
            }
        }
        window
    }

    /// Runs `n` training episodes, appending to `rewards`.
    pub fn run_episodes(&mut self, n: usize) {
        for _ in 0..n {
            let episode = self.episodes_done;
            let r = if matches!(self.env, ClientEnv::Dag(_)) {
                let workflows = self.episode_workflows(episode);
                let ClientEnv::Dag(env) = &mut self.env else { unreachable!() };
                env.reset(workflows);
                self.agent.train_one_episode(env)
            } else {
                let tasks = self.episode_tasks(episode);
                let ClientEnv::Flat(env) = &mut self.env else { unreachable!() };
                env.reset(tasks);
                self.agent.train_one_episode(env)
            };
            self.rewards.push(r as f64);
            self.episodes_done += 1;
        }
    }

    /// Greedy evaluation of the current policy on an arbitrary task set
    /// (e.g. a held-out or hybrid test set). Borrows the tasks: the one
    /// copy the environment needs (it re-sorts by arrival) happens here,
    /// not at every call site. In DAG mode the tasks run as singleton
    /// workflows, so flat- and workflow-trained policies share one
    /// evaluation pipeline.
    pub fn evaluate_on(&mut self, tasks: &[TaskSpec]) -> EpisodeMetrics {
        match &mut self.env {
            ClientEnv::Flat(env) => {
                env.reset(tasks.to_vec());
                self.agent.evaluate(env)
            }
            ClientEnv::Dag(env) => {
                let workflows = tasks
                    .iter()
                    .map(|t| Workflow {
                        tasks: vec![DagTask { spec: TaskSpec { id: 0, ..*t }, deps: vec![] }],
                        submit: t.arrival,
                    })
                    .collect();
                env.reset(workflows);
                self.agent.evaluate(env)
            }
        }
    }

    /// Exports the client's current greedy policy plus its environment
    /// definition as an inference-only snapshot. `algorithm` is the paper
    /// name of the runner that trained it.
    pub fn policy_snapshot(&self, algorithm: &str) -> PolicySnapshot {
        let cfg = self.agent.config();
        PolicySnapshot {
            algorithm: algorithm.to_string(),
            client: self.name.clone(),
            version: self.episodes_done as u64,
            dims: *self.env.dims(),
            env_cfg: *self.env.config(),
            vms: self.env.vm_specs().to_vec(),
            hidden: cfg.hidden,
            mask_actions: cfg.mask_invalid_actions,
            actor_params: self.agent.actor.flat_params(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfrl_rl::PpoConfig;
    use pfrl_sim::VmSpec;
    use pfrl_workloads::DatasetId;

    fn dims() -> EnvDims {
        EnvDims::new(2, 8, 64.0, 3)
    }

    fn setup() -> ClientSetup {
        ClientSetup {
            name: "test".into(),
            vms: vec![VmSpec::new(8, 64.0), VmSpec::new(4, 32.0)],
            train_tasks: DatasetId::K8s.model().sample(200, 1),
        }
    }

    fn client(fed_cfg: &FedConfig) -> Client {
        let d = dims();
        let agent = Agent::new(d.state_dim(), d.action_dim(), 1, PpoConfig::default(), 5);
        Client::new(setup(), agent, d, EnvConfig::default(), fed_cfg, 0)
    }

    #[test]
    fn runs_episodes_and_collects_rewards() {
        let cfg = FedConfig { tasks_per_episode: Some(20), ..Default::default() };
        let mut c = client(&cfg);
        c.run_episodes(3);
        assert_eq!(c.rewards.len(), 3);
        assert_eq!(c.episodes_done(), 3);
        assert!(c.rewards.iter().all(|r| r.is_finite()));
    }

    #[test]
    fn episode_windows_differ_but_are_deterministic() {
        let cfg = FedConfig { tasks_per_episode: Some(20), seed: 3, ..Default::default() };
        let c1 = client(&cfg);
        let w0 = c1.episode_tasks(0);
        let w1 = c1.episode_tasks(1);
        assert_eq!(w0.len(), 20);
        assert_eq!(w0[0].arrival, 0);
        assert_ne!(w0, w1);
        let c2 = client(&cfg);
        assert_eq!(c2.episode_tasks(0), w0);
    }

    #[test]
    fn full_pool_when_window_is_none_or_large() {
        let cfg = FedConfig { tasks_per_episode: None, ..Default::default() };
        let c = client(&cfg);
        assert_eq!(c.episode_tasks(0).len(), 200);
        let cfg = FedConfig { tasks_per_episode: Some(500), ..Default::default() };
        let c = client(&cfg);
        assert_eq!(c.episode_tasks(0).len(), 200);
    }

    #[test]
    fn evaluate_on_external_tasks() {
        let cfg = FedConfig::default();
        let mut c = client(&cfg);
        let m = c.evaluate_on(&DatasetId::Google.model().sample(30, 2));
        assert_eq!(m.tasks_placed + m.tasks_unplaced, 30);
    }

    #[test]
    #[should_panic(expected = "no tasks")]
    fn empty_task_pool_rejected() {
        let d = dims();
        let agent = Agent::new(d.state_dim(), d.action_dim(), 1, PpoConfig::default(), 5);
        let s = ClientSetup {
            name: "empty".into(),
            vms: vec![VmSpec::new(8, 64.0)],
            train_tasks: vec![],
        };
        let _ = Client::new(s, agent, d, EnvConfig::default(), &FedConfig::default(), 0);
    }
}
