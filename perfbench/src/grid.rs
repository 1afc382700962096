//! The `figure_grid` workload: the full `all_figures` output (tables
//! plus figs 3–11) regenerated through `mafic_experiments::figures`,
//! and the list of scenario specs that grid runs.

use std::fmt::Write as _;

use mafic_suite::experiments::sweep::figure_from_sweep;
use mafic_suite::experiments::{figures, tables, EngineConfig, SweepSeries};
use mafic_suite::metrics::MetricsReport as R;
use mafic_suite::workload::{NominalRate, ScenarioSpec};

use crate::trace::span;

/// FNV-1a 64 of the grid text at one trial per point. The text is what
/// the `all_figures` binary prints with `MAFIC_TRIALS=1`, at any
/// `MAFIC_JOBS`.
pub const GRID_DIGEST: u64 = 0x4d18_d933_a39a_26d8;

/// Renders the grid and checks its text against [`GRID_DIGEST`].
pub fn render_checked(cfg: &EngineConfig) -> Result<(), String> {
    let text = span("experiments.grid", || render(cfg))?;
    match mafic_suite::obs::fnv64(text.as_bytes()) {
        GRID_DIGEST => Ok(()),
        other => Err(format!(
            "grid digest {other:#018x}, expected {GRID_DIGEST:#018x}"
        )),
    }
}

/// Scenario runs in one grid pass at one trial per point.
pub const GRID_SCENARIOS: usize = 126;

/// A figure panel cut from a shared sweep:
/// `(id, title, x label, y label, metric)`.
type Panel = (
    &'static str,
    &'static str,
    &'static str,
    &'static str,
    fn(&R) -> f64,
);

fn panel(out: &mut String, sweep: &[SweepSeries], (id, title, x, y, metric): Panel) {
    line(out, figure_from_sweep(id, title, x, y, sweep, metric));
}

/// Appends `text` and a newline, as `println!("{}", text)` prints it.
fn line(out: &mut String, text: impl std::fmt::Display) {
    writeln!(out, "{text}").expect("writing to a String cannot fail");
}

/// Regenerates every table and figure, byte for byte as `all_figures`
/// prints them, with one span per shared sweep.
pub fn render(cfg: &EngineConfig) -> Result<String, String> {
    let vt = "Vt (flows)";
    let tcp = "TCP share (%)";
    let n = "N (routers)";
    let mut o = String::new();
    o.push_str(&tables::table_i());
    o.push('\n');
    o.push_str(&tables::table_ii());
    o.push('\n');
    o.push_str(&span("experiments.sweep.summary", || {
        tables::default_run_summary(cfg)
    })?);
    o.push('\n');

    let pd_vt = span("experiments.sweep.pd_vt", || figures::sweep_pd_vt(cfg))?;
    let alpha = "Attack packet dropping accuracy vs traffic volume";
    panel(
        &mut o,
        &pd_vt,
        ("Fig. 3(a)", alpha, vt, "accuracy alpha (%)", |r| {
            r.accuracy_pct
        }),
    );
    line(
        &mut o,
        span("experiments.sweep.fig3b", || figures::fig3b(cfg))?,
    );
    let beta = "Traffic reduction rate vs traffic volume";
    panel(
        &mut o,
        &pd_vt,
        ("Fig. 4(a)", beta, vt, "traffic reduction beta (%)", |r| {
            r.traffic_reduction_pct
        }),
    );
    line(
        &mut o,
        span("experiments.sweep.fig4b", || figures::fig4b(cfg))?,
    );
    let fp = "false positive rate (%)";
    let fp_vt = "False positive rate vs traffic volume";
    panel(
        &mut o,
        &pd_vt,
        ("Fig. 5(a)", fp_vt, vt, fp, |r| r.false_positive_pct),
    );
    let vt_gamma = span("experiments.sweep.vt_gamma", || {
        figures::sweep_vt_gamma(cfg)
    })?;
    let fp_tcp = "False positive rate vs percentage of TCP traffic";
    panel(
        &mut o,
        &vt_gamma,
        ("Fig. 5(b)", fp_tcp, tcp, fp, |r| r.false_positive_pct),
    );
    let gamma_n = span("experiments.sweep.gamma_n", || {
        figures::sweep_gamma_domain(cfg)
    })?;
    let fp_n = "False positive rate vs domain size";
    panel(
        &mut o,
        &gamma_n,
        ("Fig. 5(c)", fp_n, n, fp, |r| r.false_positive_pct),
    );
    let fnr = "false negative rate (%)";
    let fn_vt = "False negative rate vs traffic volume";
    panel(
        &mut o,
        &pd_vt,
        ("Fig. 6(a)", fn_vt, vt, fnr, |r| r.false_negative_pct),
    );
    let fn_tcp = "False negative rate vs percentage of TCP traffic";
    panel(
        &mut o,
        &vt_gamma,
        ("Fig. 6(b)", fn_tcp, tcp, fnr, |r| r.false_negative_pct),
    );
    let fn_n = "False negative rate vs domain size";
    panel(
        &mut o,
        &gamma_n,
        ("Fig. 6(c)", fn_n, n, fnr, |r| r.false_negative_pct),
    );
    let lr = "Legitimate packet dropping rate vs traffic volume";
    panel(
        &mut o,
        &pd_vt,
        ("Fig. 7", lr, vt, "legit packet dropping rate Lr (%)", |r| {
            r.legit_drop_pct
        }),
    );

    let depth = span("experiments.sweep.depth", || {
        figures::sweep_pushback_depth(cfg)
    })?;
    line(&mut o, figures::fig8a_from_sweep(&depth));
    line(&mut o, figures::fig8b_from_sweep(&depth));
    let partial = span("experiments.sweep.partial", || {
        figures::sweep_partial_deployment(cfg)
    })?;
    line(&mut o, figures::fig9a_from_sweep(&partial));
    line(&mut o, figures::fig9b_from_sweep(&partial));
    o.push_str(&span("experiments.sweep.fig9cost", || {
        figures::fig9_cost_summary(cfg)
    })?);
    o.push('\n');
    let trust = span("experiments.sweep.fig10", || {
        figures::run_malicious_pushback_grid(cfg)
    })?;
    line(&mut o, figures::fig10a_from_grid(&trust));
    line(&mut o, figures::fig10b_from_grid(&trust));
    o.push_str(&figures::fig10_denial_summary(&trust));
    o.push('\n');
    let adaptive = span("experiments.sweep.fig11", || {
        figures::run_adaptive_adversary_grid(cfg)
    })?;
    line(&mut o, figures::fig11a_from_grid(&adaptive));
    line(&mut o, figures::fig11b_from_grid(&adaptive));
    line(&mut o, figures::fig11_best_response_summary(&adaptive));
    o.push_str(&figures::fig11_cost_summary(&adaptive));
    Ok(o)
}

/// The sweep names, in grid order (the `experiments.sweep.*` spans).
pub const SWEEPS: [&str; 11] = [
    "summary", "pd_vt", "fig3b", "fig4b", "vt_gamma", "gamma_n", "depth", "partial", "fig9cost",
    "fig10", "fig11",
];

/// Every scenario spec one grid pass runs at one trial per point, in
/// grid order. Single-trial sweeps keep each point's base seed, so the
/// specs are the figure code's own.
pub fn specs() -> Vec<ScenarioSpec> {
    let mut out = vec![ScenarioSpec::default()];
    let vts = figures::vt_axis();
    for (_, pd) in figures::pd_series() {
        for &vt in &vts {
            out.push(ScenarioSpec {
                total_flows: vt as usize,
                drop_probability: pd,
                seed: 11,
                ..ScenarioSpec::default()
            });
        }
    }
    for rate in [NominalRate::R100k, NominalRate::R500k, NominalRate::R1M] {
        for &vt in &vts {
            out.push(ScenarioSpec {
                total_flows: vt as usize,
                flow_rate_pps: rate.pps(),
                seed: 13,
                ..ScenarioSpec::default()
            });
        }
    }
    for vt in [10, 30, 50] {
        out.push(ScenarioSpec {
            total_flows: vt,
            seed: 23,
            ..ScenarioSpec::default()
        });
    }
    for vt in [30, 70, 100] {
        for gamma in figures::gamma_axis() {
            out.push(ScenarioSpec {
                total_flows: vt,
                tcp_share: gamma / 100.0,
                seed: 17,
                ..ScenarioSpec::default()
            });
        }
    }
    for gamma in [95.0f64, 75.0, 55.0, 35.0] {
        for n in figures::domain_axis() {
            out.push(ScenarioSpec {
                total_flows: 50,
                tcp_share: gamma / 100.0,
                n_routers: n as usize,
                seed: 19,
                ..ScenarioSpec::default()
            });
        }
    }
    for depth in figures::depth_axis() {
        out.push(figures::fig8_spec(depth as u32));
    }
    for (_, transit) in figures::transit_policy_series() {
        for fraction in figures::participation_axis() {
            out.push(figures::fig9_spec(fraction, transit));
        }
    }
    for (_, transit) in figures::transit_policy_series() {
        out.push(figures::fig9_spec(1.0, transit));
    }
    let budgets = figures::trust_budget_axis();
    for &b in &budgets {
        out.push(figures::fig10_honest_spec(b as u32));
    }
    for attested in [true, false] {
        for &b in &budgets {
            out.push(figures::fig10_malicious_spec(b as u32, attested));
        }
    }
    for (_, strategy) in figures::adversary_strategy_series() {
        for &b in &budgets {
            out.push(figures::fig11_spec(strategy, b as u32));
        }
    }
    debug_assert_eq!(out.len(), GRID_SCENARIOS);
    out
}
