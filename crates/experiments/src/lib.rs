//! # fasea-experiments
//!
//! Regenerates every table and figure of the FASEA paper's evaluation
//! (Section 5). Each experiment is a function that runs the relevant
//! simulations and writes CSV series into an output directory; the
//! `fasea-exp` binary dispatches on a subcommand per experiment id.
//!
//! | Subcommand | Paper artefact |
//! |---|---|
//! | `fig1` | Figure 1 — default-setting accept ratio / rewards / regrets / regret ratio (also writes Figure 2's Kendall series) |
//! | `fig2` | Figure 2 — Kendall rank correlation vs OPT |
//! | `fig3` | Figure 3 — effect of \|V\| ∈ {100, 1000} |
//! | `fig4` | Figure 4 — effect of d ∈ {1, 5, 10, 15} |
//! | `fig5` | Figure 5 — θ/x under Normal, Power, Shuffle |
//! | `fig6` | Figure 6 — c_v ∼ N(100,100) and N(500,200) |
//! | `fig7` | Figure 7 — cr ∈ {0, 0.5, 0.75, 1} |
//! | `fig8` | Figure 8 — λ ∈ {0.5, 1, 2} |
//! | `fig9` | Figure 9 — α / δ / ε parameter sweeps |
//! | `fig10` | Figure 10 — real dataset, user u₁ |
//! | `fig11`–`fig13` | Figures 11–13 — basic contextual bandit ablations |
//! | `table5` | Table 5 — time/memory vs \|V\| |
//! | `table6` | Table 6 — time/memory vs d |
//! | `table7` | Table 7 — real-dataset accept ratios, all 19 users |
//! | `ext1` | Remark 1 extension — per-user θ's, shared vs per-user learners |
//! | `ext2` | Remark 2 extension — rotating event sets `V_t` |
//! | `verify` | machine-check the paper's qualitative shapes against `results/` |
//! | `plots` | emit a gnuplot script next to every series CSV |
//! | `all` | every experiment above (not `verify`/`plots`) |
//!
//! The default horizon is the paper's `T = 100 000`; pass `--t N` to
//! scale down for smoke runs (the shipped integration tests use small
//! horizons). Output lands under `results/<id>/`.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod basic;
pub mod bench_check;
pub mod common;
pub mod default_setting;
pub mod extensions;
pub mod multi_user_cmd;
pub mod params;
pub mod real_data;
pub mod serve_cmd;
pub mod sweeps;
pub mod tables;
pub mod verify;

use std::path::PathBuf;

/// Global experiment options parsed from the command line.
#[derive(Debug, Clone)]
pub struct Options {
    /// Horizon `T` for synthetic runs (paper: 100 000).
    pub horizon: u64,
    /// Output directory root (default `results/`).
    pub out_dir: PathBuf,
    /// Master seed.
    pub seed: u64,
    /// Max parallel experiment cells (0 = available parallelism).
    pub threads: usize,
    /// Rounds for real-data accept-ratio runs (paper: 1000).
    pub real_rounds: u64,
    /// Rounds for the real-data regret panel (paper: 10 000).
    pub real_regret_rounds: u64,
    /// Independent replications of the default-setting experiment
    /// (different workload + feedback seeds); 1 reproduces the paper's
    /// single-run figures, larger values add mean ± std error bars.
    pub replications: u32,
    /// Arrangement oracle every simulation runs through
    /// (`--oracle greedy|tabu`; greedy reproduces the paper exactly).
    pub oracle: fasea_bandit::OracleOptions,
    /// Event-churn period in rounds (`--churn N`): every `N` rounds one
    /// event is closed, shrunk or re-opened by a deterministic
    /// [`fasea_core::ChurnSchedule`]. 0 (the default) keeps the paper's
    /// static event universe.
    pub churn_period: u64,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            horizon: 100_000,
            out_dir: PathBuf::from("results"),
            seed: 0x5EED_FA5E_A001,
            threads: 0,
            real_rounds: 1000,
            real_regret_rounds: 10_000,
            replications: 1,
            oracle: fasea_bandit::OracleOptions::greedy(),
            churn_period: 0,
        }
    }
}

/// Runs one experiment by id. Returns an error message for unknown ids.
pub fn run_experiment(id: &str, opts: &Options) -> Result<(), String> {
    match id {
        "fig1" | "fig2" => default_setting::run(opts),
        "fig3" => sweeps::effect_of_num_events(opts),
        "fig4" => sweeps::effect_of_dimension(opts),
        "fig5" => sweeps::effect_of_distributions(opts),
        "fig6" => sweeps::effect_of_event_capacity(opts),
        "fig7" => sweeps::effect_of_conflicts(opts),
        "fig8" => params::effect_of_lambda(opts),
        "fig9" => params::effect_of_alpha_delta_epsilon(opts),
        "fig10" => real_data::figure10(opts),
        "fig11" => basic::vary_num_events(opts),
        "fig12" => basic::vary_dimension(opts),
        "fig13" => basic::vary_distributions(opts),
        "table5" => tables::table5(opts),
        "table6" => tables::table6(opts),
        "table7" => real_data::table7(opts),
        "ext1" => extensions::per_user_models(opts),
        "ext2" => extensions::rotating_events(opts),
        "verify" => verify::verify(opts),
        "plots" => {
            // Emit a gnuplot script next to every series CSV produced by
            // earlier runs, so figures render with stock gnuplot.
            let mut total = 0usize;
            for id in ALL_EXPERIMENTS.iter().chain(["fig2"].iter()) {
                total += fasea_sim::plot::write_scripts_for_dir(&opts.out_dir.join(id), true)
                    .map_err(|e| e.to_string())?;
            }
            println!(
                "wrote {total} gnuplot scripts under {}",
                opts.out_dir.display()
            );
            Ok(())
        }
        "all" => {
            for id in ALL_EXPERIMENTS {
                println!("=== {id} ===");
                run_experiment(id, opts)?;
            }
            Ok(())
        }
        other => Err(format!(
            "unknown experiment '{other}'; valid: {:?} or 'all'",
            ALL_EXPERIMENTS
        )),
    }
}

/// Every individual experiment id, in paper order, plus the two Remark
/// extensions. (`fig2` is produced by the `fig1` run and therefore not
/// repeated.)
pub const ALL_EXPERIMENTS: &[&str] = &[
    "fig1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
    "fig13", "table5", "table6", "table7", "ext1", "ext2",
];
