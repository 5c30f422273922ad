//! Ablation: the reward mix `ρ` between response time and load balancing
//! (Eq. 6). Higher `ρ` should trade load balance for response time.

use pfrl_bench::{emit, start};
use pfrl_core::csv_row;
use pfrl_core::presets::{table2_clients, TABLE2_DIMS};
use pfrl_core::rl::{Agent, PpoConfig};
use pfrl_core::sim::{CloudEnv, EnvConfig};
use rayon::prelude::*;

fn main() {
    let scale = start("abl_rho", "Ablation: reward mix rho");
    let client = &table2_clients(scale.samples, 7)[0];
    let rhos = [0.0f32, 0.25, 0.5, 0.75, 1.0];

    let results: Vec<Vec<String>> = rhos
        .par_iter()
        .map(|&rho| {
            let env_cfg = EnvConfig { rho, ..Default::default() };
            let mut env = CloudEnv::new(TABLE2_DIMS, client.vms.clone(), env_cfg);
            let mut agent = Agent::new(
                TABLE2_DIMS.state_dim(),
                TABLE2_DIMS.action_dim(),
                1,
                PpoConfig::default(),
                77,
            );
            let n = scale.tasks_per_episode.unwrap_or(100).min(client.train_tasks.len());
            for ep in 0..scale.episodes_exploratory {
                let start = (ep * 17) % (client.train_tasks.len() - n + 1);
                let mut w = client.train_tasks[start..start + n].to_vec();
                let base = w[0].arrival;
                for (i, t) in w.iter_mut().enumerate() {
                    t.id = i as u64;
                    t.arrival -= base;
                }
                env.reset(w);
                agent.train_one_episode(&mut env);
            }
            // Evaluate on a fixed window.
            env.reset(client.train_tasks[..n].to_vec());
            let m = agent.evaluate(&mut env);
            csv_row![
                format!("{rho:.2}"),
                format!("{:.2}", m.avg_response),
                format!("{:.4}", m.avg_load_balance),
                format!("{:.3}", m.avg_utilization)
            ]
        })
        .collect();

    let mut rows = vec![csv_row!["rho", "avg_response", "avg_load_balance", "avg_utilization"]];
    rows.extend(results);
    emit("abl_rho", &rows);
}
