//! Figures 8 and 9: algorithm-parameter sweeps.
//!
//! Figure 8 varies the shared ridge strength λ for all algorithms;
//! Figure 9 varies each algorithm's private knob alone (α for UCB, δ for
//! TS, ε for eGreedy) against the OPT reference.

use crate::common::{exp_dir, print_summary, run_cell, write_metric_csvs, AlgoParams};
use crate::Options;
use fasea_bandit::{EpsilonGreedy, LinUcb, Policy, ThompsonSampling};
use fasea_datagen::{SyntheticConfig, SyntheticWorkload};
use fasea_sim::sweep::run_parallel;
use fasea_sim::{run_simulation, RunConfig, SimulationResult};

/// Figure 8: λ ∈ {0.5, 1, 2} for all algorithms.
pub fn effect_of_lambda(opts: &Options) -> Result<(), String> {
    let dir = exp_dir(opts, "fig8");
    let jobs: Vec<_> = [0.5f64, 1.0, 2.0]
        .iter()
        .map(|&lambda| {
            let opts = opts.clone();
            move || {
                let config = SyntheticConfig {
                    seed: opts.seed,
                    horizon: opts.horizon,
                    ..Default::default()
                };
                let params = AlgoParams {
                    lambda,
                    ..Default::default()
                };
                let result = run_cell(config, params, &opts, false);
                (format!("lambda{}", (lambda * 10.0) as u32), result)
            }
        })
        .collect();
    for (label, result) in run_parallel(jobs, opts.threads) {
        print_summary(&format!("fig8 {label}"), &result);
        write_metric_csvs(&dir, &label, &result).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Runs one single-policy simulation (plus OPT) — the Figure 9 cells
/// compare parameter values of a single algorithm.
fn run_single_policy(policy: Box<dyn Policy>, opts: &Options) -> SimulationResult {
    let config = SyntheticConfig {
        seed: opts.seed,
        horizon: opts.horizon,
        ..Default::default()
    };
    let workload = SyntheticWorkload::generate(config);
    let mut policies = vec![policy];
    run_simulation(&workload, &mut policies, &RunConfig::paper(opts.horizon))
}

/// Figure 9: α ∈ {1, 1.5, 2, 2.5} for UCB; δ ∈ {0.05, 0.1, 0.2} for TS;
/// ε ∈ {0.05, 0.1, 0.2} for eGreedy.
pub fn effect_of_alpha_delta_epsilon(opts: &Options) -> Result<(), String> {
    let dir = exp_dir(opts, "fig9");
    let d = 20usize;
    let lambda = 1.0;
    type PolicyFactory = Box<dyn FnOnce() -> Box<dyn Policy> + Send>;
    let mut jobs_spec: Vec<(String, PolicyFactory)> = Vec::new();
    for alpha in [1.0f64, 1.5, 2.0, 2.5] {
        jobs_spec.push((
            format!("ucb_alpha{}", (alpha * 10.0) as u32),
            Box::new(move || Box::new(LinUcb::new(d, lambda, alpha)) as Box<dyn Policy>),
        ));
    }
    let ts_seed = opts.seed ^ 0x7501;
    for delta in [0.05f64, 0.1, 0.2] {
        jobs_spec.push((
            format!("ts_delta{}", (delta * 100.0) as u32),
            Box::new(move || {
                Box::new(ThompsonSampling::new(d, lambda, delta, ts_seed)) as Box<dyn Policy>
            }),
        ));
    }
    let eg_seed = opts.seed ^ 0xE6;
    for epsilon in [0.05f64, 0.1, 0.2] {
        jobs_spec.push((
            format!("egreedy_eps{}", (epsilon * 100.0) as u32),
            Box::new(move || {
                Box::new(EpsilonGreedy::new(d, lambda, epsilon, eg_seed)) as Box<dyn Policy>
            }),
        ));
    }

    let jobs: Vec<_> = jobs_spec
        .into_iter()
        .map(|(label, factory)| {
            let opts = opts.clone();
            move || {
                let result = run_single_policy(factory(), &opts);
                (label, result)
            }
        })
        .collect();
    for (label, result) in run_parallel(jobs, opts.threads) {
        print_summary(&format!("fig9 {label}"), &result);
        write_metric_csvs(&dir, &label, &result).map_err(|e| e.to_string())?;
    }
    Ok(())
}
