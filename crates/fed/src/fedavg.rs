//! Classic FedAvg over actor *and* critic parameters (McMahan et al.),
//! the paper's traditional-FRL baseline — optionally with a fixed
//! per-client mixing matrix for the Fig. 10 similarity-weighting study.

use crate::checkpoint::{Reader, Writer};
use crate::client::Client;
use crate::config::FedConfig;
use crate::federation::{mean_critic_loss, Federation, Round, ServerRule};
use crate::robust::reduce_into;
use crate::secure::aggregate_masked;
use pfrl_nn::params::apply_mixing_matrix_into;
use pfrl_rl::{Agent, PpoConfig};
use pfrl_sim::EnvDims;
use pfrl_telemetry::Telemetry;
use pfrl_tensor::Matrix;
use std::io;

/// FedAvg federation runner.
pub type FedAvgRunner = Federation<FedAvg>;

/// Restricts an `N × N` mixing matrix to the participating subset: rows and
/// columns of the survivors, with each row renormalized to sum 1 (uniform
/// fallback when a row has no mass on the survivors). The full matrix is
/// returned untouched when everyone participates, so fault-free runs stay
/// bit-identical.
pub(crate) fn restrict_mixing(mix: &Matrix, survivors: &[usize], n: usize) -> Matrix {
    if survivors.len() == n {
        return mix.clone();
    }
    let k = survivors.len();
    let mut out = Matrix::zeros(k, k);
    for (a, &i) in survivors.iter().enumerate() {
        let row = mix.row(i);
        let mass: f32 = survivors.iter().map(|&j| row[j]).sum();
        for (b, &j) in survivors.iter().enumerate() {
            out[(a, b)] = if mass > 1e-12 { row[j] / mass } else { 1.0 / k as f32 };
        }
    }
    out
}

/// Uploads a PPO client's `[actor, critic]` (FedAvg and MFPO ship both).
pub(crate) fn upload_actor_critic(agent: &Agent, streams: &mut [Vec<f32>]) {
    agent.actor_params_into(&mut streams[0]);
    agent.critic_params_into(&mut streams[1]);
}

/// Mean critic loss across clients immediately before and after one
/// aggregation (the Fig. 9 probe: heterogeneity makes the aggregated critic
/// evaluate local trajectories worse).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundLossProbe {
    /// Communication round index.
    pub round: usize,
    /// Mean critic MSE on each client's own last episode, before loading
    /// the aggregate.
    pub loss_before: f64,
    /// Same, after loading the aggregate.
    pub loss_after: f64,
}

/// The FedAvg server rule: every client uploads actor and critic; the
/// server averages them (or mixes them per client) and sends the result
/// back. Clients start from one shared model, as in standard FedAvg —
/// averaging unrelated random initializations would be meaningless.
#[derive(Debug, Clone, Default)]
pub struct FedAvg {
    /// Optional `N × N` row-stochastic mixing matrix; row `k` is client
    /// `k`'s personal averaging weights (uniform FedAvg when `None`).
    mixing: Option<Matrix>,
    /// Uniform aggregation through pairwise-masked secure aggregation
    /// (Sec. 3.4 threat model): the server never sees raw client updates,
    /// yet the average is exact up to float round-off.
    secure: bool,
    loss_probes: Vec<RoundLossProbe>,
    /// Aggregated `[actors, critics]`: one shared average in slot 0
    /// (uniform), or one model per survivor slot (mixing).
    out: [Vec<Vec<f32>>; 2],
}

impl ServerRule for FedAvg {
    const NAME: &'static str = "FedAvg";
    const FINGERPRINT: u8 = 1;
    const STREAMS: usize = 2;

    fn init(&mut self, clients: &mut [Client], _: &FedConfig, _: EnvDims, _: &PpoConfig) {
        let actor0 = clients[0].agent.actor_params();
        let critic0 = clients[0].agent.critic_params();
        for c in &mut clients[1..] {
            c.agent.set_actor_params(&actor0);
            c.agent.set_critic_params(&critic0);
        }
    }

    fn upload(agent: &Agent, streams: &mut [Vec<f32>]) {
        upload_actor_critic(agent, streams);
    }

    /// Always probed: the probes feed [`Federation::loss_probes`].
    fn critic_loss(&self, clients: &[Client], _: &Telemetry) -> Option<f64> {
        mean_critic_loss(clients)
    }

    fn note_critic_loss(&mut self, round: usize, loss_before: f64, loss_after: f64) {
        self.loss_probes.push(RoundLossProbe { round, loss_before, loss_after });
    }

    fn aggregate(&mut self, round: &mut Round<'_>) {
        let parallel = round.cfg.parallel;
        if let Some(mix) = &self.mixing {
            let sub = restrict_mixing(mix, round.survivors, round.clients.len());
            for (ups, out) in round.uploads.iter().zip(&mut self.out) {
                apply_mixing_matrix_into(&sub, ups, parallel, out);
            }
            return;
        }
        // Uniform FedAvg computes one shared average, held in slot 0.
        let round_seed = round.cfg.seed ^ (0x5EC0_0000_0000_0000 | round.index as u64);
        for (ups, out) in round.uploads.iter().zip(&mut self.out) {
            out.resize_with(1, Vec::new);
            if self.secure {
                // The masking cohort is the surviving subset (fixed before
                // masks are generated, so cancellation is exact); slots
                // re-base the pair indices.
                let k = ups.len();
                let masked: Vec<Vec<f32>> = ups
                    .iter()
                    .enumerate()
                    .map(|(slot, u)| crate::secure::mask_update(u, slot, k, round_seed))
                    .collect();
                out[0] = aggregate_masked(&masked, k).expect("cohort fixed at masking time");
            } else {
                let agg = round.robust.aggregator;
                reduce_into(agg, ups, round.scratch, &mut out[0], round.telemetry);
            }
        }
    }

    fn broadcast(&mut self, round: &mut Round<'_>) {
        let shared = self.mixing.is_none();
        let [actors, critics] = &self.out;
        for (slot, &i) in round.survivors.iter().enumerate() {
            let src = if shared { 0 } else { slot };
            round.clients[i].agent.set_actor_params(&actors[src]);
            round.clients[i].agent.set_critic_params(&critics[src]);
        }
        let mut receivers = round.survivors.len() as u64;
        if shared {
            // Connected clients whose uploads were refused still receive
            // the round's uniform average.
            for i in 0..round.clients.len() {
                if round.presences[i].is_present() && !round.survivors.contains(&i) {
                    round.clients[i].agent.set_actor_params(&actors[0]);
                    round.clients[i].agent.set_critic_params(&critics[0]);
                    round.fault.note_refreshed(i);
                    receivers += 1;
                }
            }
        }
        let per_model = (actors[0].len() + critics[0].len()) as u64 * 4;
        round.telemetry.counter("fed/bytes_down", receivers * per_model);
    }

    fn write_state(&self, w: &mut Writer) {
        w.usize(self.loss_probes.len());
        for p in &self.loss_probes {
            w.usize(p.round);
            w.f64(p.loss_before);
            w.f64(p.loss_after);
        }
    }

    fn read_state(&mut self, r: &mut Reader<'_>) -> io::Result<()> {
        let n = r.usize()?;
        self.loss_probes = (0..n)
            .map(|_| {
                Ok(RoundLossProbe {
                    round: r.usize()?,
                    loss_before: r.f64()?,
                    loss_after: r.f64()?,
                })
            })
            .collect::<io::Result<_>>()?;
        Ok(())
    }
}

impl Federation<FedAvg> {
    /// Enables pairwise-masked secure aggregation for uniform averaging
    /// (ignored when a mixing matrix is installed — personalized weights
    /// require the server to see individual updates).
    pub fn with_secure_aggregation(mut self, secure: bool) -> Self {
        self.rule.secure = secure;
        self
    }

    /// Installs a fixed `N × N` mixing matrix (rows ≈ sum to 1): client `k`
    /// receives `Σ_j W[k][j]·θ_j` instead of the uniform average. Used by
    /// the Fig. 10 `Fed-*-weight` configurations.
    ///
    /// # Panics
    /// If the shape is not `N × N`.
    pub fn with_mixing(mut self, mixing: Matrix) -> Self {
        let n = self.clients.len();
        assert_eq!(mixing.shape(), (n, n), "mixing matrix must be N x N");
        self.rule.mixing = Some(mixing);
        self
    }

    /// Critic-loss probes collected at every aggregation.
    pub fn loss_probes(&self) -> &[RoundLossProbe] {
        &self.rule.loss_probes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::tests_support::small_setups;
    use crate::federation::run_all;
    use pfrl_nn::params::average_params;

    fn fed(episodes: usize) -> FedConfig {
        FedConfig {
            episodes,
            comm_every: 2,
            participation_k: 1,
            tasks_per_episode: Some(12),
            seed: 5,
            parallel: false,
        }
    }

    #[test]
    fn aggregation_synchronizes_all_clients() {
        let (setups, dims, env_cfg) = small_setups(3);
        let mut r = FedAvgRunner::new(setups, dims, env_cfg, PpoConfig::default(), fed(4));
        r.train();
        // After the final aggregation + leftover-free schedule, all actors
        // equal (4 episodes = 2 rounds exactly).
        let p0 = r.clients[0].agent.actor_params();
        for c in &r.clients[1..] {
            assert_eq!(c.agent.actor_params(), p0);
        }
        assert_eq!(r.loss_probes().len(), 2);
    }

    #[test]
    fn average_preserves_parameter_mean() {
        let (setups, dims, env_cfg) = small_setups(2);
        let mut r = FedAvgRunner::new(setups, dims, env_cfg, PpoConfig::default(), fed(2));
        run_all(&mut r.clients, 2, false);
        let before: Vec<Vec<f32>> = r.clients.iter().map(|c| c.agent.actor_params()).collect();
        let mean = average_params(&before);
        r.aggregate();
        let after = r.clients[0].agent.actor_params();
        for (a, m) in after.iter().zip(&mean) {
            assert!((a - m).abs() < 1e-6);
        }
    }

    #[test]
    fn identity_mixing_matrix_leaves_clients_independent() {
        let (setups, dims, env_cfg) = small_setups(2);
        let mut r = FedAvgRunner::new(setups, dims, env_cfg, PpoConfig::default(), fed(2))
            .with_mixing(Matrix::identity(2));
        run_all(&mut r.clients, 1, false);
        let before: Vec<Vec<f32>> = r.clients.iter().map(|c| c.agent.actor_params()).collect();
        r.aggregate();
        for (c, b) in r.clients.iter().zip(&before) {
            assert_eq!(&c.agent.actor_params(), b);
        }
    }

    #[test]
    fn loss_probe_records_before_and_after() {
        let (setups, dims, env_cfg) = small_setups(2);
        let mut r = FedAvgRunner::new(setups, dims, env_cfg, PpoConfig::default(), fed(2));
        run_all(&mut r.clients, 2, false);
        r.aggregate();
        assert_eq!(r.loss_probes().len(), 1);
        let p = r.loss_probes()[0];
        assert!(p.loss_before.is_finite() && p.loss_after.is_finite());
        assert!(p.loss_before >= 0.0 && p.loss_after >= 0.0);
    }

    #[test]
    fn secure_aggregation_matches_plain_average() {
        let (setups, dims, env_cfg) = small_setups(3);
        let mut plain =
            FedAvgRunner::new(setups.clone(), dims, env_cfg, PpoConfig::default(), fed(2));
        let mut secure = FedAvgRunner::new(setups, dims, env_cfg, PpoConfig::default(), fed(2))
            .with_secure_aggregation(true);
        run_all(&mut plain.clients, 2, false);
        run_all(&mut secure.clients, 2, false);
        plain.aggregate();
        secure.aggregate();
        let a = plain.clients[0].agent.actor_params();
        let b = secure.clients[0].agent.actor_params();
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    #[should_panic(expected = "N x N")]
    fn wrong_mixing_shape_rejected() {
        let (setups, dims, env_cfg) = small_setups(2);
        let _ = FedAvgRunner::new(setups, dims, env_cfg, PpoConfig::default(), fed(2))
            .with_mixing(Matrix::identity(3));
    }
}
