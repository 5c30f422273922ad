//! Figure 20: a new agent joining the federation converges faster when
//! initialized from the server's model than a freshly initialized PPO
//! (Sec. 5.3).

use pfrl_bench::{emit, start};
use pfrl_core::csv_row;
use pfrl_core::fed::{ClientSetup, FedConfig, PfrlDmRunner};
use pfrl_core::presets::{table3_clients, TABLE3_DIMS};
use pfrl_core::rl::{Agent, PpoConfig};
use pfrl_core::sim::{CloudEnv, EnvConfig};
use pfrl_core::workloads::DatasetId;

fn main() {
    let scale = start("fig20_new_agent", "Fig. 20: new agent joins the federation");
    let setups = table3_clients(scale.samples, 3);
    let joiner_template = &setups[0];
    let joiner = ClientSetup {
        name: "NewAgent-Google".into(),
        vms: joiner_template.vms.clone(),
        train_tasks: DatasetId::Google.model().sample(scale.samples, 2020),
    };

    // Warm up: the paper adds the agent at episode 100 of 500 (1/5 of the
    // schedule).
    let warm_rounds = (scale.episodes_eval / 5) / scale.comm_eval;
    let post_rounds = (scale.episodes_eval - warm_rounds * scale.comm_eval) / scale.comm_eval;
    let fed_cfg = FedConfig {
        episodes: scale.episodes_eval,
        comm_every: scale.comm_eval,
        participation_k: 5.min(setups.len()),
        tasks_per_episode: scale.tasks_per_episode,
        seed: 20,
        parallel: true,
    };
    let ppo_cfg = PpoConfig::default();
    let mut runner = PfrlDmRunner::new(setups, TABLE3_DIMS, EnvConfig::default(), ppo_cfg, fed_cfg);
    eprintln!("# warm-up: {warm_rounds} rounds, then join, then {post_rounds} rounds");
    runner.train_rounds(warm_rounds);
    let idx = runner.add_client(joiner.clone(), true);
    runner.train_rounds(post_rounds);
    let joined_curve = runner.clients[idx].rewards.clone();

    // Control: fresh PPO in the identical environment, same episode count,
    // same per-episode task windows.
    let mut control =
        Agent::new(TABLE3_DIMS.state_dim(), TABLE3_DIMS.action_dim(), 1, ppo_cfg, 2021);
    let mut env = CloudEnv::new(TABLE3_DIMS, joiner.vms.clone(), EnvConfig::default());
    let n =
        scale.tasks_per_episode.unwrap_or(joiner.train_tasks.len()).min(joiner.train_tasks.len());
    let mut control_curve = Vec::new();
    for ep in 0..joined_curve.len() {
        let startx = (ep * 37) % (joiner.train_tasks.len() - n + 1);
        let mut w = joiner.train_tasks[startx..startx + n].to_vec();
        let base = w[0].arrival;
        for (i, t) in w.iter_mut().enumerate() {
            t.id = i as u64;
            t.arrival -= base;
        }
        env.reset(w);
        control_curve.push(control.train_one_episode(&mut env) as f64);
    }

    let mut rows = vec![csv_row!["episode_since_join", "PFRL-DM_init", "fresh_PPO"]];
    for e in 0..joined_curve.len() {
        rows.push(csv_row![
            e,
            format!("{:.2}", joined_curve[e]),
            format!("{:.2}", control_curve[e])
        ]);
    }
    emit("fig20_new_agent", &rows);

    let head = |v: &[f64]| v[..5.min(v.len())].iter().sum::<f64>() / 5.0_f64.min(v.len() as f64);
    eprintln!(
        "# first-5-episode mean: server-init {:.1} vs fresh {:.1} (paper: server-init immediately higher)",
        head(&joined_curve),
        head(&control_curve)
    );
}
