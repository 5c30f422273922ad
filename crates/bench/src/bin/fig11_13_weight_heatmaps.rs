//! Figures 11–13: aggregation-weight heatmaps from three similarity
//! measures over trained critic models (Sec. 3.3).
//!
//! Clients C1 and C1' train in identical environments (Google workload on
//! C1's VMs); C2 and C3 differ. After independent training, the critic
//! models feed three weight generators:
//!
//! * Fig. 11 — multi-head attention (should focus C1 ↔ C1');
//! * Fig. 12 — softmax(−KL) over critic output distributions (paper:
//!   fails to focus);
//! * Fig. 13 — softmax(cosine) over parameter vectors (paper: fails).

use pfrl_bench::{emit, start};
use pfrl_core::fed::{similarity, ClientSetup, IndependentRunner};
use pfrl_core::nn::MultiHeadConfig;
use pfrl_core::presets::{table2_clients, TABLE2_DIMS};
use pfrl_core::rl::PpoConfig;
use pfrl_core::sim::{Action, CloudEnv, EnvConfig};
use pfrl_core::tensor::Matrix;
use pfrl_core::workloads::DatasetId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Collects `n` observation vectors by rolling a random-feasible policy in
/// C1's environment — the shared probe batch for the KL generator.
fn probe_states(setup: &ClientSetup, n: usize) -> Matrix {
    let mut env = CloudEnv::new(TABLE2_DIMS, setup.vms.clone(), EnvConfig::default());
    env.reset(setup.train_tasks[..200.min(setup.train_tasks.len())].to_vec());
    let mut rng = SmallRng::seed_from_u64(99);
    let mut states = Vec::new();
    while states.len() < n * TABLE2_DIMS.state_dim() && !env.is_done() {
        states.extend(env.observe());
        let action = match env.first_fit_action() {
            Some(a) if rng.gen_bool(0.8) => a,
            _ => Action::Wait,
        };
        env.step(action);
    }
    let rows = states.len() / TABLE2_DIMS.state_dim();
    Matrix::from_vec(rows, TABLE2_DIMS.state_dim(), states)
}

fn heatmap_rows(names: &[&str], w: &Matrix) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    let mut header = vec!["client".to_string()];
    header.extend(names.iter().map(|s| s.to_string()));
    rows.push(header);
    for i in 0..w.rows() {
        let mut row = vec![names[i].to_string()];
        row.extend((0..w.cols()).map(|j| format!("{:.4}", w[(i, j)])));
        rows.push(row);
    }
    rows
}

fn main() {
    let scale = start("fig11_13_weight_heatmaps", "Figs. 11-13: weight-generation heatmaps");

    // C1, C1' (twin environment, fresh sample), C2, C3.
    let base = table2_clients(scale.samples, 7);
    let setups = vec![
        base[0].clone(),
        ClientSetup {
            name: "Client1'-Google".into(),
            vms: base[0].vms.clone(),
            train_tasks: DatasetId::Google.model().sample(scale.samples, 4321),
        },
        base[1].clone(),
        base[2].clone(),
    ];
    let names = ["C1", "C1'", "C2", "C3"];

    let fed_cfg = scale.fed_exploratory(4, 11);
    let mut runner = IndependentRunner::new(
        setups.clone(),
        TABLE2_DIMS,
        EnvConfig::default(),
        PpoConfig::default(),
        fed_cfg,
    );
    // As in an FRL round, all clients descend from one broadcast model:
    // parameter-space similarity measures are only meaningful for networks
    // with shared ancestry (independent random inits of the same function
    // are related by hidden-unit permutations and look mutually alien).
    let actor0 = runner.clients[0].agent.actor_params();
    let critic0 = runner.clients[0].agent.critic_params();
    for c in &mut runner.clients[1..] {
        c.agent.set_actor_params(&actor0);
        c.agent.set_critic_params(&critic0);
    }
    runner.train();

    let critic_params: Vec<Vec<f32>> =
        runner.clients.iter().map(|c| c.agent.critic_params()).collect();
    let critics: Vec<pfrl_core::nn::Mlp> =
        runner.clients.iter().map(|c| c.agent.critic(0).clone()).collect();

    let att = similarity::attention_weights(&critic_params, &MultiHeadConfig::default());
    let probes = probe_states(&setups[0], 64);
    let kl = similarity::kl_weights(&critics, &probes);
    let cos = similarity::cosine_weights(&critic_params);

    emit("fig11_attention_weights", &heatmap_rows(&names, &att));
    emit("fig12_kl_weights", &heatmap_rows(&names, &kl));
    emit("fig13_cosine_weights", &heatmap_rows(&names, &cos));

    // Contrast metric: weight(C1 -> C1') − max weight(C1 -> C2/C3).
    for (fig, w) in [("Fig11-attention", &att), ("Fig12-KL", &kl), ("Fig13-cosine", &cos)] {
        let contrast = w[(0, 1)] - w[(0, 2)].max(w[(0, 3)]);
        eprintln!("# {fig}: twin-vs-stranger contrast {contrast:+.4} (paper: positive only for attention)");
    }
}
