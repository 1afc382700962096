//! Repository benchmark for the MAFIC suite.
//!
//! ```text
//! mafic-perfbench --workload <single_flood|cascade_adaptive|figure_grid>
//!                 --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs passes of one workload for `--seconds` host seconds, checks
//! every output, and prints as its last stdout line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end set; with `--trace 1` they are the
//! per-layer set, measured by a separate traced run whose spans are
//! written to `perfbench/out/` as JSONL. See `perfbench/README.md`.

// Reading the host clock is this benchmark's purpose (the repository's
// clippy.toml bans it for simulation code); nothing read here feeds back
// into simulation state.
#![allow(clippy::disallowed_methods)]

mod alloc;
mod checks;
mod grid;
mod layers;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::time::Instant;

use layers::Values;
use stats::{median, quantile};
use trace::span;
use workloads::{pass_specs, pinned_digest_check, run_pass, setup_round, Pass, Workload};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Build-only set-up rounds before the measured passes; `setup_s` is
/// their median.
const SETUP_ROUNDS: usize = 21;

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload: Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
        name,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| *s > 0.0)
            .ok_or("--seconds must be positive")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Peak resident set size of this process (VmHWM), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Fails every pass whose exact counters differ from the first pass's.
fn check_counters(passes: &[&Pass], book: &mut Pass) {
    let Some(reference) = passes.first() else {
        return;
    };
    for (i, pass) in passes.iter().enumerate().skip(1) {
        book.attempted += 1;
        let differ = reference
            .counters
            .0
            .iter()
            .find(|(k, v)| pass.counters.get(k) != **v);
        if let Some((name, v)) = differ {
            book.failures.push(format!(
                "pass {i}: counter {name} = {}, first pass {v}",
                pass.counters.get(name)
            ));
        } else if pass.counters != reference.counters {
            book.failures
                .push(format!("pass {i}: counter set differs from the first pass"));
        }
    }
}

/// The end-to-end metrics of a set of measured passes.
fn end_to_end(passes: &[&Pass], setup: &Pass, setup_rounds: &[f64], out: &mut Values) {
    out.insert("setup_s".into(), median(setup_rounds));
    out.insert(
        "wall_s".into(),
        median(&passes.iter().map(|p| p.wall_s).collect::<Vec<_>>()),
    );
    let samples: Vec<_> = passes.iter().flat_map(|p| &p.samples).collect();
    let mut run_ms: Vec<f64> = samples.iter().map(|s| s.run_s * 1e3).collect();
    run_ms.sort_by(f64::total_cmp);
    out.insert("run_p50_ms".into(), quantile(&run_ms, 0.5));
    out.insert("run_p90_ms".into(), quantile(&run_ms, 0.9));
    let run_s: f64 = samples.iter().map(|s| s.run_s).sum();
    let pkts: u64 = samples.iter().map(|s| s.pkts).sum();
    let events: u64 = samples.iter().map(|s| s.events).sum();
    out.insert("sim_pkts_per_s".into(), pkts as f64 / run_s);
    out.insert("sim_events_per_s".into(), events as f64 / run_s);
    out.insert("workload.run_samples".into(), samples.len() as f64);
    out.insert("netsim.ns_per_event".into(), run_s * 1e9 / events as f64);
    let builds: Vec<f64> = setup.builds.iter().map(|b| b * 1e3).collect();
    out.insert("workload.build_ms".into(), median(&builds));
    out.insert("peak_rss_mb".into(), peak_rss_mb());
}

/// Runs passes until `seconds` have elapsed since `start`, starting no
/// new pass (or traced pair) unless at least half of it fits; with
/// `traced` set, every second pass is recorded under a `bench.pass`
/// span. At least one pass (or pair) always runs.
fn measure(
    args: &Args,
    specs: &[mafic_suite::workload::ScenarioSpec],
    jobs: usize,
    start: Instant,
    traced: bool,
) -> (Vec<Pass>, Vec<Pass>) {
    let (mut plain, mut spanned) = (Vec::new(), Vec::new());
    let mut step_start = Instant::now();
    loop {
        let record = traced && plain.len() > spanned.len();
        if record {
            trace::set_enabled(true);
            spanned.push(span("bench.pass", || run_pass(args.workload, specs, jobs)));
            trace::set_enabled(false);
        } else {
            plain.push(run_pass(args.workload, specs, jobs));
        }
        if traced && plain.len() != spanned.len() {
            continue;
        }
        let step = step_start.elapsed().as_secs_f64();
        step_start = Instant::now();
        if start.elapsed().as_secs_f64() + step / 2.0 >= args.seconds {
            return (plain, spanned);
        }
    }
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        eprintln!(
            "usage: mafic-perfbench --workload <single_flood|cascade_adaptive|figure_grid> \
             --seed <n> --seconds <s> --trace <0|1>"
        );
        std::process::exit(2);
    });
    // The grid runs on two engine workers, never more than the host has.
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    let start = Instant::now();
    let mut book = Pass::default();
    let mut values = Values::new();
    trace::start();
    if args.trace {
        trace::set_enabled(true);
        span("bench.layers", || {
            layers::run(args.workload, args.seed, &mut book, &mut values)
        });
        if let Some(x) = book.op("speedup", |_| layers::speedup(jobs)) {
            values.insert("experiments.speedup_2j".into(), x);
        }
        if args.workload != Workload::FigureGrid {
            // The sweeps only run inside the grid: one traced grid pass
            // gives their spans on every workload.
            let cfg = mafic_suite::experiments::EngineConfig { jobs, trials: 1 };
            book.op("figure grid", |_| grid::render_checked(&cfg));
        }
        trace::set_enabled(false);
    }
    pinned_digest_check(&mut book);
    let specs = pass_specs(args.workload, args.seed);
    let mut setup = Pass::default();
    let setups: Vec<f64> = (0..SETUP_ROUNDS)
        .map(|_| setup_round(&specs, &mut setup))
        .collect();
    // Warm-up pass (not timed): lets caches and the allocator settle.
    // The grid pass is long enough to warm itself.
    let warmup =
        (args.workload != Workload::FigureGrid).then(|| run_pass(args.workload, &specs, jobs));
    let measure_start = if args.trace { start } else { Instant::now() };
    let (plain, spanned) = measure(&args, &specs, jobs, measure_start, args.trace);

    let all: Vec<&Pass> = warmup.iter().chain(&plain).chain(&spanned).collect();
    check_counters(&all, &mut book);
    let plain_refs: Vec<&Pass> = plain.iter().collect();
    end_to_end(&plain_refs, &setup, &setups, &mut values);
    if args.trace {
        per_layer(&args, &plain, &spanned, &mut values);
    }
    let books = [&book, &setup];
    let attempted: u64 = books.iter().chain(&all).map(|p| p.attempted).sum();
    let failures: Vec<&String> = books.iter().chain(&all).flat_map(|p| &p.failures).collect();
    values.insert(
        "failed_frac".into(),
        failures.len() as f64 / attempted as f64,
    );
    for f in &failures {
        eprintln!("[perfbench] FAILED {f}");
    }
    eprintln!(
        "[perfbench] {}: {} passes, {} run samples, {:.1} s",
        args.name,
        plain.len(),
        values["workload.run_samples"],
        start.elapsed().as_secs_f64()
    );
    let wanted: &[(&str, &str)] = if args.trace { PER_LAYER } else { END_TO_END };
    println!(
        "{}",
        result_json(&values, wanted, attempted, failures.len() as u64)
    );
}

/// Per-layer metrics of a traced run: exact counters, computed shares,
/// span self times and the tracing overhead.
fn per_layer(args: &Args, plain: &[Pass], spanned: &[Pass], out: &mut Values) {
    let c = &plain[0].counters;
    for name in COUNTERS {
        out.insert(name.to_string(), c.get(name) as f64);
    }
    let runs = c.get("workload.runs").max(1) as f64;
    out.insert(
        "workload.allocs_per_run".into(),
        c.get("workload.allocs") as f64 / runs,
    );
    out.insert(
        "workload.alloc_bytes_per_run".into(),
        c.get("workload.alloc_bytes") as f64 / runs,
    );

    // Layers inside `run_scenario` cannot be timed from outside; their
    // share is computed: microbench time per op × exact op count ÷ the
    // pass's run time.
    let run_ns = median(
        &plain
            .iter()
            .map(|p| p.samples.iter().map(|s| s.run_s).sum::<f64>())
            .collect::<Vec<_>>(),
    ) * 1e9;
    let shares = [
        (
            "computed.core.classify_pct",
            "core.classify_ns",
            1.0,
            "core.filter_decisions",
        ),
        (
            "computed.loglog.insert_pct",
            "loglog.insert_ns",
            1.0,
            "loglog.tap_packets",
        ),
        (
            "computed.adversary.observe_pct",
            "adversary.observe_ns",
            1.0,
            "adversary.observe_calls",
        ),
        (
            "computed.metrics.from_stats_pct",
            "metrics.from_stats_us",
            1e3,
            "workload.runs",
        ),
    ];
    for (name, per_op, scale, ops) in shares {
        let ns = out.get(per_op).copied().unwrap_or(f64::NAN) * scale;
        out.insert(name.into(), ns * c.get(ops) as f64 / run_ns * 100.0);
    }

    let spans = trace::spans();
    for sweep in grid::SWEEPS {
        let name = format!("experiments.sweep.{sweep}");
        let secs: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e9)
            .collect();
        out.insert(format!("{name}_s"), median(&secs));
    }
    let traced_passes = spanned.len().max(1) as f64;
    let by_layer = trace::self_ns_by_layer(&spans, "bench.pass");
    for layer in ["bench", "workload", "obs", "experiments"] {
        let ns = by_layer.get(layer).copied().unwrap_or(0);
        out.insert(
            format!("trace.self_ms.{layer}"),
            ns as f64 / 1e6 / traced_passes,
        );
    }
    out.insert("trace.spans".into(), spans.len() as f64);
    let pass_s = |ps: &[Pass]| median(&ps.iter().map(|p| p.total_s).collect::<Vec<_>>());
    out.insert(
        "trace_overhead_pct".into(),
        (pass_s(spanned) / pass_s(plain) - 1.0) * 100.0,
    );

    let path = std::path::PathBuf::from(format!(
        "perfbench/out/trace-{}-seed{}.jsonl",
        args.name, args.seed
    ));
    match trace::write_jsonl(&path) {
        Ok(()) => eprintln!(
            "[perfbench] wrote {} spans to {}",
            spans.len(),
            path.display()
        ),
        Err(e) => eprintln!("[perfbench] could not write {}: {e}", path.display()),
    }
}

/// The result line: `wanted` metrics with their units. A metric that
/// could not be measured is `null` and makes the run incorrect.
fn result_json(values: &Values, wanted: &[(&str, &str)], attempted: u64, failed: u64) -> String {
    let mut metrics = String::new();
    let mut missing = false;
    for (i, &(name, unit)) in wanted.iter().enumerate() {
        let v = values.get(name).copied().filter(|v| v.is_finite());
        missing |= v.is_none();
        let v = v.map_or("null".to_string(), |v| format!("{v:?}"));
        let sep = if i == 0 { "" } else { ", " };
        write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String cannot fail");
    }
    if missing {
        eprintln!("[perfbench] FAILED some metrics could not be measured");
    }
    let correct = failed == 0 && !missing;
    format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}")
}

/// Per-layer metrics read straight from a pass's exact counters.
const COUNTERS: [&str; 24] = [
    "netsim.events",
    "netsim.events_scheduled",
    "netsim.pkts_sent",
    "netsim.pkts_delivered",
    "netsim.arena_peak",
    "core.filter_decisions",
    "core.probes",
    "core.drops_filter",
    "core.drops_queue",
    "core.table_bytes",
    "core.timer_events",
    "loglog.tap_packets",
    "pushback.requests",
    "pushback.installs",
    "pushback.denials",
    "pushback.stops",
    "pushback.escalations",
    "pushback.max_depth",
    "adversary.observe_calls",
    "obs.ledger_intervals",
    "obs.ledger_bytes",
    "obs.snapshot_bytes",
    "transport.legit_data_sent",
    "transport.legit_data_lost",
];

/// End-to-end metrics (`--trace 0`), with units.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("run_p50_ms", "ms"),
    ("run_p90_ms", "ms"),
    ("sim_pkts_per_s", "1/s"),
    ("sim_events_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), with units.
const PER_LAYER: &[(&str, &str)] = &[
    ("netsim.events", "count"),
    ("netsim.events_scheduled", "count"),
    ("netsim.pkts_sent", "count"),
    ("netsim.pkts_delivered", "count"),
    ("netsim.arena_peak", "count"),
    ("netsim.ns_per_event", "ns"),
    ("netsim.bare_fwd_ns_per_pkt", "ns"),
    ("core.filter_decisions", "count"),
    ("core.probes", "count"),
    ("core.drops_filter", "count"),
    ("core.drops_queue", "count"),
    ("core.table_bytes", "bytes"),
    ("core.timer_events", "count"),
    ("core.classify_ns", "ns"),
    ("computed.core.classify_pct", "%"),
    ("loglog.tap_packets", "count"),
    ("loglog.insert_ns", "ns"),
    ("loglog.estimate_us", "us"),
    ("loglog.observe_us", "us"),
    ("computed.loglog.insert_pct", "%"),
    ("pushback.requests", "count"),
    ("pushback.installs", "count"),
    ("pushback.denials", "count"),
    ("pushback.stops", "count"),
    ("pushback.escalations", "count"),
    ("pushback.max_depth", "count"),
    ("adversary.observe_calls", "count"),
    ("adversary.observe_ns", "ns"),
    ("computed.adversary.observe_pct", "%"),
    ("adversary.hook_on_off_ratio.p10", "ratio"),
    ("adversary.hook_on_off_ratio.p50", "ratio"),
    ("adversary.hook_on_off_ratio.p90", "ratio"),
    ("obs.ledger_intervals", "count"),
    ("obs.ledger_bytes", "bytes"),
    ("obs.ledger_on_off_ratio.p10", "ratio"),
    ("obs.ledger_on_off_ratio.p50", "ratio"),
    ("obs.ledger_on_off_ratio.p90", "ratio"),
    ("obs.snapshot_bytes", "bytes"),
    ("obs.snapshot_write_ms", "ms"),
    ("obs.snapshot_restore_ms", "ms"),
    ("workload.build_ms", "ms"),
    ("workload.allocs_per_run", "count"),
    ("workload.alloc_bytes_per_run", "bytes"),
    ("workload.run_samples", "count"),
    ("experiments.sweep.summary_s", "s"),
    ("experiments.sweep.pd_vt_s", "s"),
    ("experiments.sweep.fig3b_s", "s"),
    ("experiments.sweep.fig4b_s", "s"),
    ("experiments.sweep.vt_gamma_s", "s"),
    ("experiments.sweep.gamma_n_s", "s"),
    ("experiments.sweep.depth_s", "s"),
    ("experiments.sweep.partial_s", "s"),
    ("experiments.sweep.fig9cost_s", "s"),
    ("experiments.sweep.fig10_s", "s"),
    ("experiments.sweep.fig11_s", "s"),
    ("experiments.speedup_2j", "ratio"),
    ("metrics.from_stats_us", "us"),
    ("computed.metrics.from_stats_pct", "%"),
    ("transport.legit_data_sent", "count"),
    ("transport.legit_data_lost", "count"),
    ("trace_overhead_pct", "%"),
    ("trace.self_ms.bench", "ms"),
    ("trace.self_ms.workload", "ms"),
    ("trace.self_ms.obs", "ms"),
    ("trace.self_ms.experiments", "ms"),
    ("trace.spans", "count"),
    ("failed_frac", "fraction"),
];
