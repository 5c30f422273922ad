//! Ablation: penalty-based feasibility learning (the paper's Eq. 9
//! mechanism) vs hard action masking.
//!
//! Masking removes the need to *learn* feasibility, so it should converge
//! faster and higher; the gap quantifies how much reward the paper's
//! penalty mechanism spends on exploration of infeasible actions.

use pfrl_bench::{emit, start};
use pfrl_core::presets::{table2_clients, TABLE2_DIMS};
use pfrl_core::rl::{Agent, PpoConfig};
use pfrl_core::sim::{CloudEnv, EnvConfig};
use rayon::prelude::*;

fn main() {
    let scale = start("abl_mask", "Ablation: penalties vs action masking");
    let clients = table2_clients(scale.samples, 7);

    let variants: Vec<(&str, bool)> = vec![("penalties", false), ("masked", true)];
    let curves: Vec<(String, Vec<f64>)> = variants
        .par_iter()
        .map(|&(name, mask)| {
            let cfg = PpoConfig { mask_invalid_actions: mask, ..Default::default() };
            // Mean curve over the four Table 2 clients.
            let mut sums = vec![0.0f64; scale.episodes_exploratory];
            for (ci, c) in clients.iter().enumerate() {
                let mut env = CloudEnv::new(TABLE2_DIMS, c.vms.clone(), EnvConfig::default());
                let mut agent = Agent::new(
                    TABLE2_DIMS.state_dim(),
                    TABLE2_DIMS.action_dim(),
                    1,
                    cfg,
                    40 + ci as u64,
                );
                let n = scale.tasks_per_episode.unwrap_or(60).min(c.train_tasks.len());
                #[allow(clippy::needless_range_loop)]
                for ep in 0..scale.episodes_exploratory {
                    let startx = (ep * 19) % (c.train_tasks.len() - n + 1);
                    let mut w = c.train_tasks[startx..startx + n].to_vec();
                    let base = w[0].arrival;
                    for (i, t) in w.iter_mut().enumerate() {
                        t.id = i as u64;
                        t.arrival -= base;
                    }
                    env.reset(w);
                    sums[ep] += agent.train_one_episode(&mut env) as f64 / 4.0;
                }
            }
            // 10-episode smoothing.
            let smoothed: Vec<f64> = (0..sums.len())
                .map(|i| {
                    let lo = i.saturating_sub(9);
                    sums[lo..=i].iter().sum::<f64>() / (i - lo + 1) as f64
                })
                .collect();
            (name.to_string(), smoothed)
        })
        .collect();

    for (name, c) in &curves {
        let tail = &c[c.len().saturating_sub(15)..];
        eprintln!(
            "# {name}: final-15 mean reward {:.1}",
            tail.iter().sum::<f64>() / tail.len() as f64
        );
    }

    let mut rows = vec![vec!["episode".to_string(), curves[0].0.clone(), curves[1].0.clone()]];
    for e in 0..curves[0].1.len() {
        rows.push(vec![
            e.to_string(),
            format!("{:.2}", curves[0].1[e]),
            format!("{:.2}", curves[1].1[e]),
        ]);
    }
    emit("abl_mask", &rows);
}
