//! The three workloads and their passes.
//!
//! A pass is the unit of repetition inside one benchmark run. Every
//! pass of a run uses the same inputs (derived from the run's seed), so
//! its exact counters must repeat bit for bit; a pass whose counters
//! differ from the run's first pass is a failure, not noise.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use mafic_suite::core::LogLogTap;
use mafic_suite::experiments::{figures, EngineConfig};
use mafic_suite::netsim::SimTime;
use mafic_suite::workload::{
    encode_checkpoint, restore_run, resume_scenario, run_scenario, RunOutcome, Scenario,
    ScenarioSpec, StrategyKind,
};

use crate::trace::span;
use crate::{alloc, checks, grid};

/// The paper's traffic-volume axis (flows), cycled by `single_flood`.
const VT_AXIS: [usize; 6] = [10, 30, 50, 70, 90, 110];
/// Scenarios per `single_flood` pass. Odd, and not a multiple of the
/// axis, so the per-scenario median sits inside one `Vt` group rather
/// than on the edge between two.
const FLOOD_REPS: u64 = 21;
/// Straight + resumed run pairs per `cascade_adaptive` pass, each with
/// its own seed, so the percentiles do not hinge on one scenario.
const CASCADE_REPS: u64 = 9;
/// Every `GRID_SAMPLE_STRIDE`-th grid scenario is also run serially by
/// the benchmark, to time single scenarios of the grid from outside.
const GRID_SAMPLE_STRIDE: usize = 6;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SingleFlood,
    CascadeAdaptive,
    FigureGrid,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "single_flood" => Some(Workload::SingleFlood),
            "cascade_adaptive" => Some(Workload::CascadeAdaptive),
            "figure_grid" => Some(Workload::FigureGrid),
            _ => None,
        }
    }
}

/// SplitMix64 over `seed` and a repetition index: the per-scenario seed.
pub fn derive(seed: u64, rep: u64) -> u64 {
    let mut z = seed.wrapping_add(rep.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `single_flood` scenario `rep`: Table II defaults with automatic
/// LogLog detection, at one point of the `Vt` axis.
pub fn flood_spec(seed: u64, rep: u64) -> ScenarioSpec {
    ScenarioSpec {
        total_flows: VT_AXIS[(rep % VT_AXIS.len() as u64) as usize],
        seed: derive(seed, rep),
        ..ScenarioSpec::default()
    }
}

/// The fig11 rotation cell: 3 stubs over chain(2), pushback depth 3,
/// trust budget 2, the source-rotation adversary. `checkpoint` captures
/// a snapshot at attack start.
pub fn cascade_spec(seed: u64, ledger: bool, checkpoint: bool) -> ScenarioSpec {
    let rotation = StrategyKind::SourceRotation {
        period_intervals: 4,
        active_fraction: 0.5,
    };
    let base = figures::fig11_spec(Some(rotation), 2);
    ScenarioSpec {
        ledger,
        checkpoint_at: checkpoint.then_some(base.attack_start),
        seed,
        ..base
    }
}

/// The pinned end-to-end scenario (40 flows, 20 routers, 8 s, seed 6)
/// and the replay digest it must reproduce.
pub fn pinned_spec() -> ScenarioSpec {
    ScenarioSpec {
        total_flows: 40,
        n_routers: 20,
        end: SimTime::from_secs_f64(8.0),
        seed: 6,
        ..ScenarioSpec::default()
    }
}
pub const PINNED_DIGEST: u64 = 0x4af8_4c44_0f16_3301;

/// Exact work counters, summed over a pass (peaks take the maximum).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters(pub BTreeMap<&'static str, u64>);

impl Counters {
    fn add(&mut self, name: &'static str, v: u64) {
        *self.0.entry(name).or_insert(0) += v;
    }
    fn max(&mut self, name: &'static str, v: u64) {
        let slot = self.0.entry(name).or_insert(0);
        *slot = (*slot).max(v);
    }
    pub fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }
}

/// One scenario built and run, timed from outside.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub run_s: f64,
    pub pkts: u64,
    pub events: u64,
}

/// What one pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Host seconds for the whole pass.
    pub total_s: f64,
    /// The pass's user-facing wall time: the whole pass, except on
    /// `figure_grid`, where it is the grid alone.
    pub wall_s: f64,
    /// Every timed `Scenario::build`, in seconds.
    pub builds: Vec<f64>,
    pub samples: Vec<Sample>,
    pub counters: Counters,
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Pass {
    /// Runs one operation, counting it as attempted; an error or a
    /// panic counts it as failed.
    pub fn op<T>(
        &mut self,
        what: &str,
        f: impl FnOnce(&mut Pass) -> Result<T, String>,
    ) -> Option<T> {
        self.attempted += 1;
        let result = catch_unwind(AssertUnwindSafe(|| f(self)))
            .unwrap_or_else(|_| Err("panicked".to_string()));
        result
            .map_err(|e| self.failures.push(format!("{what}: {e}")))
            .ok()
    }

    /// Times `Scenario::build` from outside; also returns the build's
    /// `(allocations, bytes)`.
    fn build(&mut self, spec: ScenarioSpec) -> Result<(Scenario, (u64, u64)), String> {
        let (scenario, secs, allocs) = span("workload.build", || {
            let a = alloc::snapshot();
            let t = Instant::now();
            let scenario = Scenario::build(spec);
            let secs = t.elapsed().as_secs_f64();
            (scenario, secs, alloc_delta(a))
        });
        self.builds.push(secs);
        Ok((scenario.map_err(|e| e.to_string())?, allocs))
    }

    /// Builds and runs one scenario, checks packet conservation, and
    /// adds its exact counters to the pass.
    fn run(&mut self, spec: ScenarioSpec) -> Option<(Scenario, RunOutcome)> {
        self.op("scenario", |pass| {
            let (mut scenario, build_allocs) = pass.build(spec)?;
            let (outcome, run_s, run_allocs) = span("workload.run", || {
                let a = alloc::snapshot();
                let t = Instant::now();
                let outcome = run_scenario(&mut scenario);
                let secs = t.elapsed().as_secs_f64();
                (outcome, secs, alloc_delta(a))
            });
            let outcome = outcome.map_err(|e| e.to_string())?;
            pass.counters
                .add("workload.allocs", build_allocs.0 + run_allocs.0);
            pass.counters
                .add("workload.alloc_bytes", build_allocs.1 + run_allocs.1);
            pass.counters.add("workload.runs", 1);
            checks::conservation(&scenario)?;
            let events = count(&mut pass.counters, &mut scenario, &outcome);
            pass.samples.push(Sample {
                run_s,
                pkts: outcome.packets_sent,
                events,
            });
            Ok((scenario, outcome))
        })
    }
}

fn alloc_delta(before: (u64, u64)) -> (u64, u64) {
    let after = alloc::snapshot();
    (after.0 - before.0, after.1 - before.1)
}

/// Adds a finished run's exact counters; returns its event count.
fn count(c: &mut Counters, scenario: &mut Scenario, outcome: &RunOutcome) -> u64 {
    // The run has processed every event up to its end, so this advances
    // nothing; it only reads the simulator's cumulative loop totals.
    let now = scenario.sim.now();
    let summary = scenario.sim.run_until(now);
    c.add("netsim.events", summary.events_processed);
    c.add("netsim.events_scheduled", summary.events_scheduled);
    c.add("netsim.pkts_sent", outcome.packets_sent);
    c.add("netsim.pkts_delivered", outcome.packets_delivered);
    c.max("netsim.arena_peak", scenario.sim.packet_arena_peak() as u64);
    let stats = scenario.sim.stats();
    for (_, rec) in stats.flows() {
        c.add("core.filter_decisions", rec.seen_at_atr);
        c.add("core.drops_filter", rec.dropped_by_filter());
        c.add("core.drops_queue", rec.dropped_queue);
    }
    c.add("core.probes", stats.probes_emitted);
    for cost in &outcome.policy_costs {
        c.add("core.table_bytes", cost.table_bytes);
        c.add("core.timer_events", cost.timer_events);
    }
    for &(node, idx) in &scenario.taps {
        let tap = scenario.sim.filter::<LogLogTap>(node, idx);
        c.add("loglog.tap_packets", tap.map_or(0, LogLogTap::packets_seen));
    }
    let ctl = &outcome.control;
    c.add("pushback.requests", ctl.requests_sent);
    c.add("pushback.installs", ctl.installs_granted);
    c.add(
        "pushback.denials",
        ctl.denied_bad_version
            + ctl.denied_untrusted
            + ctl.denied_replayed
            + ctl.denied_uncorroborated
            + ctl.denied_budget,
    );
    c.add("pushback.stops", ctl.stops_sent);
    c.add("pushback.escalations", outcome.escalations.len() as u64);
    c.max("pushback.max_depth", u64::from(outcome.max_pushback_depth));
    if scenario.spec.adversary.is_some() {
        // The runner steps the controller once per monitor interval.
        let spec = &scenario.spec;
        let intervals = spec
            .end
            .as_nanos()
            .div_ceil(spec.monitor_interval.as_nanos());
        c.add("adversary.observe_calls", intervals);
    }
    if let Some(ledger) = &outcome.ledger {
        c.add("obs.ledger_intervals", ledger.intervals.len() as u64);
        c.add("obs.ledger_bytes", ledger.to_jsonl().len() as u64);
    }
    if let Some(bytes) = &outcome.checkpoint {
        c.add("obs.snapshot_bytes", bytes.len() as u64);
    }
    c.add("transport.legit_data_sent", outcome.report.legit_data_sent);
    c.add("transport.legit_data_lost", outcome.report.legit_data_lost);
    summary.events_processed
}

/// Runs the pinned scenario once and checks its replay digest.
pub fn pinned_digest_check(pass: &mut Pass) {
    pass.op("pinned digest", |pass| {
        let (mut scenario, _) = pass.build(pinned_spec())?;
        let outcome = run_scenario(&mut scenario).map_err(|e| e.to_string())?;
        checks::conservation(&scenario)?;
        match checks::outcome_digest(&outcome) {
            PINNED_DIGEST => Ok(()),
            other => Err(format!(
                "digest {other:#018x}, expected {PINNED_DIGEST:#018x}"
            )),
        }
    });
}

/// The scenario specs one pass of `workload` builds.
pub fn pass_specs(workload: Workload, seed: u64) -> Vec<ScenarioSpec> {
    match workload {
        Workload::SingleFlood => (0..FLOOD_REPS).map(|r| flood_spec(seed, r)).collect(),
        Workload::CascadeAdaptive => (0..CASCADE_REPS)
            .map(|r| cascade_spec(derive(seed, r), true, true))
            .collect(),
        Workload::FigureGrid => grid::specs(),
    }
}

/// Builds every scenario of a pass without running it: one set-up
/// round. Returns Σ build seconds.
pub fn setup_round(specs: &[ScenarioSpec], pass: &mut Pass) -> f64 {
    let before = pass.builds.len();
    for spec in specs {
        pass.op("build", |pass| pass.build(spec.clone()).map(drop));
    }
    pass.builds[before..].iter().sum()
}

/// Runs one pass of `workload` over `specs` (from [`pass_specs`]).
pub fn run_pass(workload: Workload, specs: &[ScenarioSpec], jobs: usize) -> Pass {
    let mut pass = Pass::default();
    let t = Instant::now();
    match workload {
        Workload::SingleFlood => {
            for spec in specs {
                pass.run(spec.clone());
            }
        }
        Workload::CascadeAdaptive => {
            for spec in specs {
                let Some((_, straight)) = pass.run(spec.clone()) else {
                    continue;
                };
                pass.op("checkpoint resume", |_| resume_check(spec, &straight));
            }
        }
        Workload::FigureGrid => {
            let cfg = EngineConfig { jobs, trials: 1 };
            let g = Instant::now();
            pass.op("figure grid", |_| grid::render_checked(&cfg));
            pass.wall_s = g.elapsed().as_secs_f64();
            for spec in specs.iter().step_by(GRID_SAMPLE_STRIDE) {
                pass.run(spec.clone());
            }
        }
    }
    pass.total_s = t.elapsed().as_secs_f64();
    if workload != Workload::FigureGrid {
        pass.wall_s = pass.total_s;
    }
    pass
}

/// Restores the straight run's checkpoint, re-encodes it, resumes to
/// the end, and checks that the resumed run equals the straight one.
fn resume_check(spec: &ScenarioSpec, straight: &RunOutcome) -> Result<(), String> {
    let bytes = straight
        .checkpoint
        .as_ref()
        .ok_or("no checkpoint captured")?;
    let (mut scenario, state) =
        span("obs.restore", || restore_run(spec, bytes)).map_err(|e| e.to_string())?;
    let encoded = span("obs.encode", || encode_checkpoint(&scenario, &state));
    if encoded != *bytes {
        return Err("re-encoded checkpoint differs from the captured bytes".to_string());
    }
    let resumed = span("workload.resume", || resume_scenario(&mut scenario, state))
        .map_err(|e| e.to_string())?;
    checks::conservation(&scenario)?;
    checks::same_outcome(straight, &resumed)
}
