//! Shared plumbing for the experiment modules: canonical policy sets,
//! simulation-cell execution and CSV emission.

use crate::Options;
use fasea_bandit::{EpsilonGreedy, Exploit, LinUcb, Policy, RandomPolicy, ThompsonSampling};
use fasea_core::ChurnSchedule;
use fasea_datagen::{SyntheticConfig, SyntheticWorkload};
use fasea_sim::{run_simulation, RunConfig, SimulationResult};
use fasea_stats::crn::mix64;
use std::path::{Path, PathBuf};

/// Default algorithm parameters (Table 4 bold): λ = 1, α = 2, δ = 0.1,
/// ε = 0.1.
#[derive(Debug, Clone, Copy)]
pub struct AlgoParams {
    /// Ridge strength λ.
    pub lambda: f64,
    /// UCB exploration coefficient α.
    pub alpha: f64,
    /// TS confidence parameter δ.
    pub delta: f64,
    /// eGreedy exploration probability ε.
    pub epsilon: f64,
}

impl Default for AlgoParams {
    fn default() -> Self {
        AlgoParams {
            lambda: 1.0,
            alpha: 2.0,
            delta: 0.1,
            epsilon: 0.1,
        }
    }
}

/// The paper's five compared algorithms, in its reporting order.
pub fn paper_policy_set(dim: usize, params: AlgoParams, seed: u64) -> Vec<Box<dyn Policy>> {
    vec![
        Box::new(LinUcb::new(dim, params.lambda, params.alpha)),
        Box::new(ThompsonSampling::new(
            dim,
            params.lambda,
            params.delta,
            seed ^ 0x7501,
        )),
        Box::new(EpsilonGreedy::new(
            dim,
            params.lambda,
            params.epsilon,
            seed ^ 0xE6,
        )),
        Box::new(Exploit::new(dim, params.lambda)),
        Box::new(RandomPolicy::new(seed ^ 0x8A4D)),
    ]
}

/// The churn schedule `--churn N` asks for, derived from a workload's
/// planned capacities (empty when the period is 0). Seeded off the
/// workload seed so every policy in a cell — and OPT — sees the same
/// moving universe.
pub fn churn_for(workload: &SyntheticWorkload, horizon: u64, period: u64) -> ChurnSchedule {
    ChurnSchedule::generate(
        workload.instance.capacities(),
        horizon,
        period,
        mix64(workload.config.seed ^ 0xC4A2_11FE),
    )
}

/// Runs one simulation cell: the paper's five policies plus OPT under
/// `config` for `opts.horizon` rounds.
pub fn run_cell(
    config: SyntheticConfig,
    params: AlgoParams,
    opts: &Options,
    kendall: bool,
) -> SimulationResult {
    let workload = SyntheticWorkload::generate(config);
    let mut policies = paper_policy_set(workload.config.dim, params, workload.config.seed);
    let mut run_cfg = RunConfig::paper(opts.horizon).with_oracle(opts.oracle);
    if opts.churn_period > 0 {
        run_cfg = run_cfg.with_churn(churn_for(&workload, opts.horizon, opts.churn_period));
    }
    if kendall {
        run_cfg = run_cfg.with_kendall();
    }
    run_simulation(&workload, &mut policies, &run_cfg)
}

/// Column order used by every series CSV: checkpoint time then each
/// policy then OPT.
pub fn series_header(result: &SimulationResult) -> Vec<String> {
    let mut h = vec!["t".to_string()];
    h.extend(result.policies.iter().map(|p| p.name.clone()));
    h.push(result.reference.name.clone());
    h
}

/// Extracts one metric as CSV rows (one row per checkpoint).
pub fn series_rows(
    result: &SimulationResult,
    metric: impl Fn(&fasea_sim::Checkpoint) -> f64,
) -> Vec<Vec<f64>> {
    let n_cp = result.reference.checkpoints.len();
    (0..n_cp)
        .map(|i| {
            let mut row = vec![result.reference.checkpoints[i].t as f64];
            for p in &result.policies {
                row.push(metric(&p.checkpoints[i]));
            }
            row.push(metric(&result.reference.checkpoints[i]));
            row
        })
        .collect()
}

/// Writes the four paper metrics (accept ratio, total rewards, total
/// regrets, regret ratio) of a simulation into `<dir>/<prefix>_*.csv`.
pub fn write_metric_csvs(
    dir: &Path,
    prefix: &str,
    result: &SimulationResult,
) -> std::io::Result<()> {
    type MetricFn = fn(&fasea_sim::Checkpoint) -> f64;
    let header_owned = series_header(result);
    let header: Vec<&str> = header_owned.iter().map(|s| s.as_str()).collect();
    let metrics: [(&str, MetricFn); 4] = [
        ("accept_ratio", |c| c.accept_ratio),
        ("total_rewards", |c| c.total_rewards as f64),
        ("total_regrets", |c| c.total_regret as f64),
        ("regret_ratio", |c| c.regret_ratio),
    ];
    for (name, f) in metrics {
        fasea_sim::write_csv(
            &dir.join(format!("{prefix}_{name}.csv")),
            &header,
            &series_rows(result, f),
        )?;
    }
    Ok(())
}

/// Writes the Kendall-τ series (Figure 2 format): learning policies
/// only (OPT's τ with itself is trivially 1).
pub fn write_kendall_csv(
    dir: &Path,
    prefix: &str,
    result: &SimulationResult,
) -> std::io::Result<()> {
    let mut header = vec!["t".to_string()];
    header.extend(result.policies.iter().map(|p| p.name.clone()));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let n_cp = result
        .policies
        .first()
        .map(|p| p.checkpoints.len())
        .unwrap_or(0);
    let rows: Vec<Vec<f64>> = (0..n_cp)
        .map(|i| {
            let mut row = vec![result.policies[0].checkpoints[i].t as f64];
            for p in &result.policies {
                row.push(p.checkpoints[i].kendall_tau.unwrap_or(f64::NAN));
            }
            row
        })
        .collect();
    fasea_sim::write_csv(
        &dir.join(format!("{prefix}_kendall.csv")),
        &header_refs,
        &rows,
    )
}

/// Prints the end-of-run summary line for one simulation (final rewards
/// per policy, exhaustion time) — the textual check of the figures'
/// qualitative shape.
pub fn print_summary(label: &str, result: &SimulationResult) {
    let mut parts: Vec<String> = result
        .policies
        .iter()
        .map(|p| {
            format!(
                "{}={} (ar {:.3})",
                p.name,
                p.accounting.total_rewards(),
                p.accounting.accept_ratio()
            )
        })
        .collect();
    parts.push(format!(
        "OPT={}",
        result.reference.accounting.total_rewards()
    ));
    let exhausted = result
        .reference_exhausted_at
        .map(|t| format!(" | OPT exhausted at t={t}"))
        .unwrap_or_default();
    println!("[{label}] {}{}", parts.join(", "), exhausted);
}

/// Output directory for one experiment id.
pub fn exp_dir(opts: &Options, id: &str) -> PathBuf {
    opts.out_dir.join(id)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> Options {
        Options {
            horizon: 300,
            out_dir: std::env::temp_dir().join("fasea_exp_common_test"),
            ..Default::default()
        }
    }

    fn tiny_config(seed: u64) -> SyntheticConfig {
        SyntheticConfig {
            num_events: 15,
            dim: 3,
            seed,
            ..Default::default()
        }
    }

    #[test]
    fn cell_runs_and_emits_csvs() {
        let opts = tiny_opts();
        let result = run_cell(tiny_config(1), AlgoParams::default(), &opts, true);
        assert_eq!(result.policies.len(), 5);
        assert_eq!(result.policies[0].name, "UCB");
        assert_eq!(result.policies[4].name, "Random");

        let dir = opts.out_dir.join("unit");
        write_metric_csvs(&dir, "test", &result).unwrap();
        write_kendall_csv(&dir, "test", &result).unwrap();
        for f in [
            "test_accept_ratio.csv",
            "test_total_rewards.csv",
            "test_total_regrets.csv",
            "test_regret_ratio.csv",
            "test_kendall.csv",
        ] {
            let content = std::fs::read_to_string(dir.join(f)).unwrap();
            assert!(content.lines().count() > 1, "{f} is empty");
            assert!(content.starts_with("t,"), "{f} header: {content}");
        }
        std::fs::remove_dir_all(&opts.out_dir).ok();
    }

    #[test]
    fn series_rows_align_with_checkpoints() {
        let opts = tiny_opts();
        let result = run_cell(tiny_config(2), AlgoParams::default(), &opts, false);
        let rows = series_rows(&result, |c| c.accept_ratio);
        assert_eq!(rows.len(), result.reference.checkpoints.len());
        // 1 time column + 5 policies + OPT.
        assert_eq!(rows[0].len(), 7);
        assert_eq!(series_header(&result).len(), 7);
    }
}
