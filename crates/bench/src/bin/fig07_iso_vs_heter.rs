//! Figure 7: average response time of PPO schedulers trained on isolated
//! vs combined-heterogeneous workloads, tested on both (Sec. 3.1).
//!
//! For each Table 2 client, a PPO agent is trained in the client's own
//! environment on (a) its *iso-train* split and (b) the *heter-train*
//! combination of all four clients' training splits, then both agents are
//! evaluated greedily on the client's *iso-test* and the combined
//! *heter-test*. The paper's observation: heter-trained schedulers achieve
//! lower average response times across test environments.

use pfrl_bench::{emit, start};
use pfrl_core::csv_row;
use pfrl_core::presets::{table2_clients, TABLE2_DIMS};
use pfrl_core::rl::{Agent, PpoConfig};
use pfrl_core::sim::{CloudEnv, EnvConfig};
use pfrl_core::workloads::{combined_heterogeneous, train_test_split, TaskSpec};
use rayon::prelude::*;

fn train_agent(
    vms: &[pfrl_core::sim::VmSpec],
    pool: &[TaskSpec],
    episodes: usize,
    window: Option<usize>,
    seed: u64,
) -> Agent {
    let mut env = CloudEnv::new(TABLE2_DIMS, vms.to_vec(), EnvConfig::default());
    let mut agent = Agent::new(
        TABLE2_DIMS.state_dim(),
        TABLE2_DIMS.action_dim(),
        1,
        PpoConfig::default(),
        seed,
    );
    let n = window.unwrap_or(pool.len()).min(pool.len());
    for ep in 0..episodes {
        let start = (ep * 31) % (pool.len() - n + 1);
        let mut w = pool[start..start + n].to_vec();
        let base = w[0].arrival;
        for (i, t) in w.iter_mut().enumerate() {
            t.id = i as u64;
            t.arrival -= base;
        }
        env.reset(w);
        agent.train_one_episode(&mut env);
    }
    agent
}

fn eval_response(agent: &mut Agent, vms: &[pfrl_core::sim::VmSpec], tasks: &[TaskSpec]) -> f64 {
    let mut env = CloudEnv::new(TABLE2_DIMS, vms.to_vec(), EnvConfig::default());
    env.reset(tasks.to_vec());
    agent.evaluate(&mut env).avg_response
}

fn main() {
    let scale = start("fig07_iso_vs_heter", "Fig. 7: iso vs heter training");
    let clients = table2_clients(scale.samples, 7);

    // 60/40 iso splits per client.
    let splits: Vec<_> = clients
        .iter()
        .enumerate()
        .map(|(i, c)| train_test_split(&c.train_tasks, 0.6, 70 + i as u64))
        .collect();
    // The combined heterogeneous pool, split 60/40 the same way.
    let per_client = scale.samples / 4;
    let combined = combined_heterogeneous(
        &clients.iter().map(|c| c.train_tasks.clone()).collect::<Vec<_>>(),
        per_client,
        71,
    );
    let heter = train_test_split(&combined, 0.6, 72);

    let episodes = scale.episodes_exploratory;
    let results: Vec<Vec<String>> = clients
        .par_iter()
        .enumerate()
        .flat_map(|(i, c)| {
            let mut iso_agent = train_agent(
                &c.vms,
                &splits[i].train,
                episodes,
                scale.tasks_per_episode,
                700 + i as u64,
            );
            let mut heter_agent = train_agent(
                &c.vms,
                &heter.train,
                episodes,
                scale.tasks_per_episode,
                800 + i as u64,
            );
            let mut rows = Vec::new();
            for (train_name, agent) in
                [("iso-train", &mut iso_agent), ("heter-train", &mut heter_agent)]
            {
                for (test_name, tasks) in
                    [("iso-test", &splits[i].test), ("heter-test", &heter.test)]
                {
                    let resp = eval_response(agent, &c.vms, tasks);
                    rows.push(csv_row![c.name, train_name, test_name, format!("{resp:.2}")]);
                }
            }
            rows
        })
        .collect();

    let mut rows = vec![csv_row!["client", "train_set", "test_set", "avg_response"]];
    rows.extend(results);
    emit("fig07_iso_vs_heter", &rows);

    // Textual summary: mean response per train-set across all tests.
    for train in ["iso-train", "heter-train"] {
        let vals: Vec<f64> = rows
            .iter()
            .skip(1)
            .filter(|r| r[1] == train)
            .map(|r| r[3].parse::<f64>().unwrap())
            .collect();
        eprintln!(
            "# {train}: mean response {:.2} over {} evaluations",
            vals.iter().sum::<f64>() / vals.len() as f64,
            vals.len()
        );
    }
}
