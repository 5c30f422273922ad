//! Momentum-based federated RL in the spirit of MFPO (Yue et al.,
//! INFOCOM'24), the paper's state-of-the-art comparison point.
//!
//! Substitution note (see DESIGN.md): the original MFPO couples momentum
//! into both the client-side policy updates and the server-side
//! aggregation to cut interaction/communication cost. The property the
//! PFRL-DM paper exercises is that *"its momentum mechanism preserves the
//! influence of past solutions"* under heterogeneity — which is carried by
//! the server momentum on aggregated parameter deltas implemented here
//! (FedAvg-M form): `v ← β·v + (x̄ − x_g)`, `x_g ← x_g + v`, broadcast
//! `x_g`, applied to both actor and critic.

use crate::checkpoint::{bad, Reader, Writer};
use crate::client::Client;
use crate::config::{ClientSetup, FedConfig};
use crate::fedavg::upload_actor_critic;
use crate::federation::{Federation, Round, ServerRule};
use crate::robust::reduce_into;
use pfrl_rl::{Agent, PpoConfig};
use pfrl_sim::{EnvConfig, EnvDims};
use std::io;

/// Momentum-FRL runner.
pub type MfpoRunner = Federation<Mfpo>;

/// One server-momentum update: `v ← β·v + (x̄ − x_g)`, `x_g ← x_g + v`.
fn momentum_step(server: &mut [f32], velocity: &mut [f32], avg: &[f32], beta: f32) {
    for ((s, v), a) in server.iter_mut().zip(velocity.iter_mut()).zip(avg) {
        let delta = a - *s;
        *v = beta * *v + delta;
        *s += *v;
    }
}

/// The MFPO server rule: the client average (or its robust replacement)
/// drives a server model through momentum, and the server model is
/// broadcast to every connected client. The server model starts from
/// client 0's initialization, shared by all clients. Every per-model
/// field holds `[actor, critic]`, matching the upload streams.
#[derive(Debug, Clone)]
pub struct Mfpo {
    beta: f32,
    server: [Vec<f32>; 2],
    velocity: [Vec<f32>; 2],
    avg: [Vec<f32>; 2],
}

impl Mfpo {
    /// Default server momentum coefficient (as in FedAvgM practice and the
    /// MFPO paper's momentum range).
    pub const DEFAULT_BETA: f32 = 0.9;

    /// A rule with momentum coefficient `beta`.
    ///
    /// # Panics
    /// If `beta` is outside `[0, 1)`.
    pub(crate) fn new(beta: f32) -> Self {
        assert!((0.0..1.0).contains(&beta), "beta out of [0,1)");
        Self {
            beta,
            server: Default::default(),
            velocity: Default::default(),
            avg: Default::default(),
        }
    }
}

impl Default for Mfpo {
    fn default() -> Self {
        Self::new(Self::DEFAULT_BETA)
    }
}

impl ServerRule for Mfpo {
    const NAME: &'static str = "MFPO";
    const FINGERPRINT: u8 = 2;
    const STREAMS: usize = 2;

    fn init(&mut self, clients: &mut [Client], _: &FedConfig, _: EnvDims, _: &PpoConfig) {
        self.server = [clients[0].agent.actor_params(), clients[0].agent.critic_params()];
        for c in clients.iter_mut() {
            c.agent.set_actor_params(&self.server[0]);
            c.agent.set_critic_params(&self.server[1]);
        }
        self.velocity = self.server.each_ref().map(|p| vec![0.0; p.len()]);
    }

    fn upload(agent: &Agent, streams: &mut [Vec<f32>]) {
        upload_actor_critic(agent, streams);
    }

    fn aggregate(&mut self, round: &mut Round<'_>) {
        // The robust reduction replaces the plain client average that
        // feeds the momentum (Mean delegates bit-identically).
        for s in 0..2 {
            let agg = round.robust.aggregator;
            reduce_into(agg, &round.uploads[s], round.scratch, &mut self.avg[s], round.telemetry);
        }
        for s in 0..2 {
            momentum_step(&mut self.server[s], &mut self.velocity[s], &self.avg[s], self.beta);
        }
    }

    fn broadcast(&mut self, round: &mut Round<'_>) {
        let mut receivers = 0u64;
        for i in 0..round.clients.len() {
            if round.presences[i].is_present() {
                round.clients[i].agent.set_actor_params(&self.server[0]);
                round.clients[i].agent.set_critic_params(&self.server[1]);
                round.fault.note_refreshed(i);
                receivers += 1;
            }
        }
        let per_model = 4 * (self.server[0].len() + self.server[1].len()) as u64;
        round.telemetry.counter("fed/bytes_down", receivers * per_model);
    }

    fn write_config(&self, w: &mut Writer) {
        w.f32(self.beta);
    }

    fn check_config(&self, r: &mut Reader<'_>) -> io::Result<()> {
        let beta = r.f32()?;
        if beta != self.beta {
            return Err(bad(format!("checkpoint beta {beta} vs runner beta {}", self.beta)));
        }
        Ok(())
    }

    fn write_state(&self, w: &mut Writer) {
        for v in self.server.iter().chain(&self.velocity) {
            w.vec_f32(v);
        }
    }

    fn read_state(&mut self, r: &mut Reader<'_>) -> io::Result<()> {
        for v in self.server.iter_mut().chain(&mut self.velocity) {
            *v = r.vec_f32()?;
        }
        Ok(())
    }
}

impl Federation<Mfpo> {
    /// Builds the federation with an explicit momentum coefficient.
    pub fn with_beta(
        setups: Vec<ClientSetup>,
        dims: EnvDims,
        env_cfg: EnvConfig,
        ppo_cfg: PpoConfig,
        fed_cfg: FedConfig,
        beta: f32,
    ) -> Self {
        Self::with_rule(Mfpo::new(beta), setups, dims, env_cfg, ppo_cfg, fed_cfg)
    }

    /// Current L2 norm of the actor velocity (diagnostics: how much history
    /// the momentum is carrying).
    pub fn actor_velocity_norm(&self) -> f32 {
        self.rule.velocity[0].iter().map(|v| v * v).sum::<f32>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::tests_support::small_setups;
    use crate::federation::run_all;
    use pfrl_nn::params::average_params;

    fn fed() -> FedConfig {
        FedConfig {
            episodes: 4,
            comm_every: 2,
            participation_k: 1,
            tasks_per_episode: Some(12),
            seed: 11,
            parallel: false,
        }
    }

    #[test]
    fn clients_start_synchronized() {
        let (setups, dims, env_cfg) = small_setups(3);
        let r = MfpoRunner::new(setups, dims, env_cfg, PpoConfig::default(), fed());
        let p0 = r.clients[0].agent.actor_params();
        for c in &r.clients[1..] {
            assert_eq!(c.agent.actor_params(), p0);
        }
    }

    #[test]
    fn zero_beta_first_round_equals_fedavg() {
        // With β=0 and zero initial velocity, the first aggregation lands
        // exactly on the client average.
        let (setups, dims, env_cfg) = small_setups(2);
        let mut r = MfpoRunner::with_beta(setups, dims, env_cfg, PpoConfig::default(), fed(), 0.0);
        run_all(&mut r.clients, 1, false);
        let actors: Vec<Vec<f32>> = r.clients.iter().map(|c| c.agent.actor_params()).collect();
        let avg = average_params(&actors);
        r.aggregate();
        let got = r.clients[0].agent.actor_params();
        for (g, a) in got.iter().zip(&avg) {
            assert!((g - a).abs() < 1e-6);
        }
    }

    #[test]
    fn momentum_accumulates_velocity() {
        let (setups, dims, env_cfg) = small_setups(2);
        let mut r = MfpoRunner::new(setups, dims, env_cfg, PpoConfig::default(), fed());
        assert_eq!(r.actor_velocity_norm(), 0.0);
        run_all(&mut r.clients, 1, false);
        r.aggregate();
        let v1 = r.actor_velocity_norm();
        assert!(v1 > 0.0);
    }

    #[test]
    fn momentum_overshoots_average_on_second_round() {
        // After two aggregations in the same direction, the server model
        // moves beyond the plain average — the "preserves the influence of
        // past solutions" behavior the paper attributes to MFPO.
        let (setups, dims, env_cfg) = small_setups(2);
        let mut r = MfpoRunner::new(setups, dims, env_cfg, PpoConfig::default(), fed());
        run_all(&mut r.clients, 1, false);
        r.aggregate();
        run_all(&mut r.clients, 1, false);
        let actors: Vec<Vec<f32>> = r.clients.iter().map(|c| c.agent.actor_params()).collect();
        let avg = average_params(&actors);
        r.aggregate();
        let server = r.clients[0].agent.actor_params();
        let diff: f32 = server.iter().zip(&avg).map(|(s, a)| (s - a).abs()).sum::<f32>();
        assert!(diff > 1e-6, "server should deviate from the plain average");
    }

    #[test]
    fn full_training_produces_curves() {
        let (setups, dims, env_cfg) = small_setups(2);
        let mut r = MfpoRunner::new(setups, dims, env_cfg, PpoConfig::default(), fed());
        let curves = r.train();
        assert_eq!(curves.clients(), 2);
        assert!(curves.per_client.iter().all(|c| c.len() == 4));
    }

    #[test]
    #[should_panic(expected = "beta")]
    fn bad_beta_rejected() {
        let (setups, dims, env_cfg) = small_setups(2);
        let _ = MfpoRunner::with_beta(setups, dims, env_cfg, PpoConfig::default(), fed(), 1.0);
    }
}
