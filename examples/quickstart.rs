//! Quickstart: build one cloud scheduling environment, train a PPO
//! scheduler on a synthetic Google-like workload, and compare it against
//! the heuristic baselines.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```

use pfrl_dm::rl::{Agent, PpoConfig};
use pfrl_dm::sim::{CloudEnv, EnvConfig, EnvDims, HeuristicPolicy, VmSpec};
use pfrl_dm::workloads::DatasetId;

fn main() {
    // A small private cloud: two big VMs, two small ones. Dims fix the
    // observation layout (max 4 VMs of up to 16 vCPUs / 128 GiB, 5 queue
    // slots visible).
    let dims = EnvDims::new(4, 16, 128.0, 5);
    let vms = vec![
        VmSpec::new(16, 128.0),
        VmSpec::new(16, 128.0),
        VmSpec::new(8, 64.0),
        VmSpec::new(4, 32.0),
    ];
    let mk_env = || CloudEnv::new(dims, vms.clone(), EnvConfig::default());

    // A Google-like task stream: many small, short, strongly diurnal tasks.
    let tasks = DatasetId::Google.model().sample(120, 42);
    println!(
        "workload: {} tasks, first arrival t={}, last t={}",
        tasks.len(),
        tasks.first().unwrap().arrival,
        tasks.last().unwrap().arrival
    );

    // Train a PPO scheduler (paper hyperparameters) for 150 episodes.
    let mut agent = Agent::new(dims.state_dim(), dims.action_dim(), 1, PpoConfig::default(), 7);
    let mut env = mk_env();
    let mut first10 = 0.0;
    let mut last10 = 0.0;
    for ep in 0..150 {
        env.reset(tasks.clone());
        let r = agent.train_one_episode(&mut env) as f64;
        if ep < 10 {
            first10 += r / 10.0;
        }
        if ep >= 140 {
            last10 += r / 10.0;
        }
    }
    println!("PPO training reward: first-10 avg {first10:.1} -> last-10 avg {last10:.1}");

    // Evaluate the trained policy greedily and compare with heuristics.
    println!(
        "\n{:<10} {:>10} {:>10} {:>8} {:>9}",
        "policy", "response", "makespan", "util", "loadbal"
    );
    let mut e = mk_env();
    e.reset(tasks.clone());
    let m = agent.evaluate(&mut e);
    println!(
        "{:<10} {:>10.2} {:>10.1} {:>8.3} {:>9.4}",
        "PPO", m.avg_response, m.makespan, m.avg_utilization, m.avg_load_balance
    );
    for policy in [HeuristicPolicy::Random, HeuristicPolicy::FirstFit, HeuristicPolicy::BestFit] {
        let mut e = mk_env();
        e.reset(tasks.clone());
        let m = pfrl_dm::sim::run_heuristic(&mut e, policy, 1);
        println!(
            "{:<10} {:>10.2} {:>10.1} {:>8.3} {:>9.4}",
            format!("{policy:?}"),
            m.avg_response,
            m.makespan,
            m.avg_utilization,
            m.avg_load_balance
        );
    }
}
