//! The Fig. 20 scenario: a new cloud provider joins a running federation.
//!
//! A PFRL-DM federation of three clients trains for a few rounds; then a
//! fourth client (same environment class as client 1) joins. The joiner is
//! initialized from the server's global public critic (plus a one-time
//! actor bootstrap), while a control agent trains from scratch on the same
//! environment. The example prints both reward curves — the joiner should
//! start higher and converge faster.
//!
//! Run with:
//! ```text
//! cargo run --release --example new_tenant_onboarding
//! ```

use pfrl_dm::fed::{ClientSetup, FedConfig, PfrlDmRunner};
use pfrl_dm::presets::{table2_clients, TABLE2_DIMS};
use pfrl_dm::rl::{Agent, PpoConfig};
use pfrl_dm::sim::{CloudEnv, EnvConfig};
use pfrl_dm::workloads::DatasetId;

fn main() {
    let mut setups = table2_clients(600, 9);
    setups.truncate(3);

    let fed_cfg = FedConfig {
        episodes: 120,
        comm_every: 15,
        participation_k: 2,
        tasks_per_episode: Some(60),
        seed: 13,
        parallel: true,
    };
    let ppo_cfg = PpoConfig::default();

    let mut runner = PfrlDmRunner::new(setups, TABLE2_DIMS, EnvConfig::default(), ppo_cfg, fed_cfg);

    // Warm up the federation: 4 rounds = 60 episodes.
    println!("warming up 3-client federation for 60 episodes…");
    runner.train_rounds(4);

    // A new tenant arrives, with client 1's environment class.
    let joiner = ClientSetup {
        name: "NewTenant-Google".into(),
        vms: table2_clients(1, 0)[0].vms.clone(),
        train_tasks: DatasetId::Google.model().sample(600, 555),
    };
    let joiner_idx = runner.add_client(joiner.clone(), true);
    println!("tenant joined as client index {joiner_idx}; training 4 more rounds…");
    runner.train_rounds(4);
    let joined_curve = runner.clients[joiner_idx].rewards.clone();

    // Control: a fresh PPO on the identical environment and episode count.
    let mut control =
        Agent::new(TABLE2_DIMS.state_dim(), TABLE2_DIMS.action_dim(), 1, ppo_cfg, 999);
    let mut env = CloudEnv::new(TABLE2_DIMS, joiner.vms.clone(), EnvConfig::default());
    let mut control_curve = Vec::new();
    for ep in 0..joined_curve.len() {
        let n = 60.min(joiner.train_tasks.len());
        let start = (ep * 13) % (joiner.train_tasks.len() - n + 1);
        let mut window = joiner.train_tasks[start..start + n].to_vec();
        let base = window[0].arrival;
        for (i, t) in window.iter_mut().enumerate() {
            t.id = i as u64;
            t.arrival -= base;
        }
        env.reset(window);
        control_curve.push(control.train_one_episode(&mut env) as f64);
    }

    println!("\n{:<8} {:>16} {:>16}", "episode", "PFRL-DM joiner", "fresh PPO");
    for e in (0..joined_curve.len()).step_by(5) {
        println!("{e:<8} {:>16.1} {:>16.1}", joined_curve[e], control_curve[e]);
    }
    let head = |v: &[f64]| v[..5.min(v.len())].iter().sum::<f64>() / 5.0;
    println!(
        "\nfirst-5-episode mean reward: joiner {:.1} vs fresh {:.1} (server init should win)",
        head(&joined_curve),
        head(&control_curve)
    );
}
