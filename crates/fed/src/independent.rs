//! Independent (non-federated) PPO training — the paper's "PPO" baseline.

use crate::federation::{Federation, ServerRule};
use pfrl_rl::PpoAgent;

/// Baseline runner: every client trains alone, no communication.
pub type IndependentRunner = Federation<Independent>;

/// The no-communication rule. Rounds still run (chunked like the federated
/// rules) and record participation, so fault plans and churn surface only
/// in telemetry; attack plans and robust configs have nothing to act on.
/// Checkpoints omit the fault bookkeeping, which never reaches training.
#[derive(Debug, Clone, Copy, Default)]
pub struct Independent;

impl ServerRule for Independent {
    type Agent = PpoAgent;
    const NAME: &'static str = "PPO";
    const FINGERPRINT: u8 = 0;
    const STREAMS: usize = 0;
    const CHECKPOINT_FAULTS: bool = false;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::tests_support::small_setups;
    use crate::config::FedConfig;
    use pfrl_rl::PpoConfig;

    #[test]
    fn trains_all_clients_for_all_episodes() {
        let fed = FedConfig {
            episodes: 6,
            comm_every: 4,
            participation_k: 1,
            tasks_per_episode: Some(15),
            seed: 1,
            parallel: false,
        };
        let (setups, dims, env_cfg) = small_setups(2);
        let mut r = IndependentRunner::new(setups, dims, env_cfg, PpoConfig::default(), fed);
        let curves = r.train();
        assert_eq!(curves.clients(), 2);
        assert!(curves.per_client.iter().all(|c| c.len() == 6));
    }

    #[test]
    fn parallel_equals_sequential() {
        let (setups, dims, env_cfg) = small_setups(3);
        let mk = |parallel: bool| {
            let fed = FedConfig {
                episodes: 4,
                comm_every: 2,
                participation_k: 1,
                tasks_per_episode: Some(12),
                seed: 7,
                parallel,
            };
            let mut r =
                IndependentRunner::new(setups.clone(), dims, env_cfg, PpoConfig::default(), fed);
            r.train()
        };
        assert_eq!(mk(true), mk(false));
    }
}
