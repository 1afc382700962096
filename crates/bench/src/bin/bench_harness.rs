//! End-to-end performance harness: runs pinned scenarios and emits a
//! `BENCH_*.json` perf record (packets/sec end-to-end, ns per table op,
//! figure-suite wall clock, allocation counts, peak arena occupancy).
//!
//! Modes:
//!
//! * `bench_harness --out BENCH_6.json --label 6` — full measurement.
//! * `bench_harness --ci --out BENCH_ci.json` — reduced sizes for CI.
//! * `--gate BENCH_baseline.json` — after measuring, compare end-to-end
//!   packets/sec against the committed baseline and exit non-zero if it
//!   regressed more than [`GATE_TOLERANCE`] (the CI regression gate).
//!
//! Wall-clock timing lives only in this binary; the simulator itself
//! never consults the host clock, so none of this can perturb replay
//! determinism.

// Sanctioned wall-clock user (see `mafic-lint`'s nondet config):
// measuring elapsed time is this harness's purpose, and nothing it
// measures feeds back into simulation state.
#![allow(clippy::disallowed_methods)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use mafic_experiments::engine::run_specs;
use mafic_experiments::{sweep, sweep_warm, EngineConfig};
use mafic_netsim::{Addr, FlowInterner, FlowKey, FlowSlab, SimTime};
use mafic_obs::{parse_json_line, JsonValue};
use mafic_topology::TransitTopology;
use mafic_workload::{
    encode_checkpoint, restore_run, run_scenario, run_spec, AdversarySpec, Scenario, ScenarioSpec,
    StrategyKind,
};

/// Fractional packets/sec regression tolerated by `--gate` (10%).
const GATE_TOLERANCE: f64 = 0.10;

/// Counting wrapper around the system allocator: total allocation calls
/// and bytes requested since process start. Reading the counters before
/// and after a measured region gives that region's allocation count —
/// the before/after evidence for the scratch-buffer-reuse work.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation verbatim to `System`; the counter
// updates are lock-free atomics and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: forwards the caller's layout unchanged to `System.alloc`,
    // which upholds the GlobalAlloc contract for it.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }
    // SAFETY: `ptr`/`layout` came from this allocator's `alloc`, which
    // returned a `System` block of the same layout.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
    // SAFETY: same delegation; `ptr` was allocated by `System` with
    // `layout`, and `new_size` is passed through unmodified.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    // SAFETY: forwards the caller's layout unchanged to
    // `System.alloc_zeroed`, which upholds the contract for it.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_snapshot() -> (u64, u64) {
    (
        ALLOC_CALLS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// The pinned end-to-end scenario: Table II structure at a size that
/// keeps a measured repetition well under a second. Identical in `--ci`
/// and full mode — the CI gate compares its measurement against the
/// committed full-mode baseline, so the workload must match exactly.
fn e2e_spec(ledger: bool, adversary: bool) -> ScenarioSpec {
    ScenarioSpec {
        total_flows: 40,
        n_routers: 20,
        end: SimTime::from_secs_f64(8.0),
        ledger,
        // The inert closed loop: rotation no faster than the lease
        // emits zero directives, so the run's output must match the
        // adversary-free run byte for byte while still paying the full
        // per-interval hook (feedback harvest + strategy step). The
        // measured delta therefore upper-bounds the hook's cost when
        // the adversary is disabled outright (one `Option` branch).
        adversary: adversary.then(|| {
            AdversarySpec::with_strategy(StrategyKind::SourceRotation {
                period_intervals: AdversarySpec::default().lease_intervals,
                active_fraction: 0.5,
            })
        }),
        seed: 6,
        ..ScenarioSpec::default()
    }
}

struct E2eResult {
    packets: u64,
    best_wall_s: f64,
    packets_per_sec: f64,
    allocs: u64,
    alloc_bytes: u64,
    peak_arena_packets: u64,
}

/// Runs the pinned scenario `reps` times (after one warmup), reporting
/// the best packets/sec plus the allocation count of a single rep.
/// `ledger` toggles run-ledger recording: the default (gated) number
/// keeps it off, and the ledger-on measurement quantifies the
/// per-interval state-hashing overhead.
fn measure_e2e(reps: u32, ledger: bool) -> E2eResult {
    let run_once = || {
        let mut scenario = Scenario::build(e2e_spec(ledger, false)).expect("e2e spec builds");
        let start = Instant::now();
        let outcome = run_scenario(&mut scenario).expect("e2e run succeeds");
        let wall = start.elapsed().as_secs_f64();
        let peak = scenario.sim.packet_arena_peak() as u64;
        (outcome.packets_sent, wall, peak)
    };
    run_once(); // warmup
    let mut best_wall = f64::INFINITY;
    let mut packets = 0u64;
    let mut peak = 0u64;
    let mut allocs = 0u64;
    let mut alloc_bytes = 0u64;
    for rep in 0..reps {
        let before = alloc_snapshot();
        let (sent, wall, p) = run_once();
        let after = alloc_snapshot();
        if rep == 0 {
            allocs = after.0 - before.0;
            alloc_bytes = after.1 - before.1;
        }
        packets = sent;
        peak = p;
        best_wall = best_wall.min(wall);
    }
    E2eResult {
        packets,
        best_wall_s: best_wall,
        packets_per_sec: packets as f64 / best_wall,
        allocs,
        alloc_bytes,
        peak_arena_packets: peak,
    }
}

/// Quantifies the adversary hook's cost when the closed loop has
/// nothing to do: packets/sec with the hook absent vs armed but inert
/// (see [`e2e_spec`]). The two arms alternate rep by rep so host-speed
/// drift lands on both equally, and each arm keeps its best wall time.
/// Outputs are asserted identical — the inert loop may not perturb the
/// run it is measuring.
fn measure_adversary_overhead(reps: u32) -> (f64, f64) {
    let run_once = |adversary: bool| {
        let mut scenario = Scenario::build(e2e_spec(false, adversary)).expect("e2e spec builds");
        let start = Instant::now();
        let outcome = run_scenario(&mut scenario).expect("e2e run succeeds");
        (outcome.packets_sent, start.elapsed().as_secs_f64())
    };
    run_once(false);
    run_once(true); // warm both arms
    let mut best_off = f64::INFINITY;
    let mut best_on = f64::INFINITY;
    let mut packets = 0u64;
    for _ in 0..reps {
        let (sent_off, wall_off) = run_once(false);
        let (sent_on, wall_on) = run_once(true);
        assert_eq!(sent_off, sent_on, "inert adversary perturbed the run");
        packets = sent_off;
        best_off = best_off.min(wall_off);
        best_on = best_on.min(wall_on);
    }
    (packets as f64 / best_off, packets as f64 / best_on)
}

/// Steady-state per-packet table op: one interner probe plus one dense
/// slab bump over a 10k-flow resident table (the microbench's
/// `interned_slab` case, timed with a plain monotonic clock).
fn measure_table_op() -> f64 {
    const TABLE_FLOWS: u32 = 10_000;
    const OPS: u64 = 2_000_000;
    let flow_key = |n: u32| {
        FlowKey::new(
            Addr::new(0x0A01_0000 | (n & 0xFFFF)),
            Addr::from_octets(10, 200, 0, 1),
            (1024 + (n % 50_000)) as u16,
            80,
        )
    };
    let mut interner = FlowInterner::new();
    let mut table: FlowSlab<u64> = FlowSlab::new();
    for n in 0..TABLE_FLOWS {
        let id = interner.intern(flow_key(n));
        table.insert(id, 0);
    }
    let mut n = 0u32;
    let start = Instant::now();
    for _ in 0..OPS {
        n = (n + 1) % TABLE_FLOWS;
        let id = interner.intern(std::hint::black_box(flow_key(n)));
        if let Some(count) = table.get_mut(id) {
            *count += 1;
        }
    }
    let total = start.elapsed().as_nanos() as f64;
    // Keep the table observable so the loop cannot be optimized away.
    std::hint::black_box(&table);
    total / OPS as f64
}

/// A miniature figure suite: a `Vt` sweep plus one multi-domain cascade
/// point, run serially through the experiment engine (the same code path
/// the figure binaries use).
fn figure_suite_specs(ci: bool) -> Vec<ScenarioSpec> {
    let vts: &[usize] = if ci { &[10, 20] } else { &[10, 20, 30] };
    let seeds: &[u64] = if ci { &[1] } else { &[1, 2] };
    let mut specs = Vec::new();
    for &vt in vts {
        for &seed in seeds {
            specs.push(ScenarioSpec {
                total_flows: vt,
                n_routers: 10,
                end: SimTime::from_secs_f64(3.0),
                seed,
                ..ScenarioSpec::default()
            });
        }
    }
    specs.push(ScenarioSpec {
        domains: 4,
        pushback_depth: 2,
        total_flows: 24,
        n_routers: 8,
        end: SimTime::from_secs_f64(3.0),
        seed: 9,
        ..ScenarioSpec::default()
    });
    specs
}

struct CheckpointResult {
    snapshot_bytes: u64,
    write_ms: f64,
    restore_ms: f64,
}

/// Times the checkpoint paths over the multi-domain cascade scenario:
/// write = probe + serialize + encode (the mid-run capture path),
/// restore = decode + rebuild-from-spec + overlay + digest verification
/// (the whole [`restore_run`] gate, build included).
fn measure_checkpoint(reps: u32) -> CheckpointResult {
    let spec = ScenarioSpec {
        total_flows: 24,
        n_routers: 8,
        domains: 4,
        transit_topology: TransitTopology::Chain { depth: 1 },
        pushback_depth: 2,
        end: SimTime::from_secs_f64(3.0),
        checkpoint_at: Some(SimTime::from_secs_f64(1.5)),
        seed: 9,
        ..ScenarioSpec::default()
    };
    let bytes = run_spec(spec.clone())
        .expect("checkpoint spec runs")
        .checkpoint
        .expect("checkpoint captured");
    let (scenario, state) = restore_run(&spec, &bytes).expect("checkpoint restores");
    let mut write_best = f64::INFINITY;
    let mut restore_best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        let rewritten = encode_checkpoint(&scenario, &state);
        write_best = write_best.min(start.elapsed().as_secs_f64());
        std::hint::black_box(&rewritten);
        let start = Instant::now();
        let pair = restore_run(&spec, &bytes).expect("checkpoint restores");
        restore_best = restore_best.min(start.elapsed().as_secs_f64());
        std::hint::black_box(&pair);
    }
    CheckpointResult {
        snapshot_bytes: bytes.len() as u64,
        write_ms: write_best * 1e3,
        restore_ms: restore_best * 1e3,
    }
}

/// Times the pushback-depth sweep cold (every cell from time zero)
/// against warm-started (`sweep_warm`: the shared pre-attack prefix
/// runs once per trial, every other cell branches from the
/// checkpoint). Both run serially so the ratio reflects the skipped
/// prefix work, not pool scheduling. Outputs are asserted equal — a
/// speedup from wrong results would be worse than no speedup.
fn measure_warm_sweep(ci: bool) -> (f64, f64) {
    let xs: Vec<f64> = if ci {
        vec![0.0, 2.0]
    } else {
        vec![0.0, 1.0, 2.0, 3.0]
    };
    let series = vec![("chain".to_string(), ())];
    let cfg = EngineConfig {
        jobs: 1,
        trials: if ci { 1 } else { 2 },
    };
    let make = |_: &(), depth: f64| ScenarioSpec {
        total_flows: 24,
        n_routers: 8,
        domains: 4,
        transit_topology: TransitTopology::Chain { depth: 1 },
        pushback_depth: depth as u32,
        end: SimTime::from_secs_f64(3.0),
        seed: 9,
        ..ScenarioSpec::default()
    };
    let branch_at = make(&(), 0.0).attack_start;
    let start = Instant::now();
    let cold = sweep(&series, &xs, &cfg, make).expect("cold sweep runs");
    let cold_wall = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let warm = sweep_warm(&series, &xs, &cfg, branch_at, make).expect("warm sweep runs");
    let warm_wall = start.elapsed().as_secs_f64();
    assert_eq!(cold, warm, "warm sweep diverged from cold sweep");
    (cold_wall, warm_wall)
}

fn measure_figure_suite(ci: bool) -> (usize, f64) {
    let specs = figure_suite_specs(ci);
    let n = specs.len();
    let start = Instant::now();
    let outcomes = run_specs(specs, 1).expect("figure suite runs");
    let wall = start.elapsed().as_secs_f64();
    std::hint::black_box(&outcomes);
    (n, wall)
}

fn json_f(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let mut ci = false;
    let mut out: Option<String> = None;
    let mut gate: Option<String> = None;
    let mut label = "local".to_string();
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--ci" => ci = true,
            "--out" => out = Some(argv.next().expect("--out requires a path")),
            "--gate" => gate = Some(argv.next().expect("--gate requires a baseline path")),
            "--label" => label = argv.next().expect("--label requires a value"),
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    let reps = 3;
    eprintln!("[bench] e2e scenario ({reps} reps, ledger off)...");
    let e2e = measure_e2e(reps, false);
    eprintln!(
        "[bench]   {} packets in {:.3}s best -> {:.0} packets/sec, {} allocs/run, arena peak {}",
        e2e.packets, e2e.best_wall_s, e2e.packets_per_sec, e2e.allocs, e2e.peak_arena_packets
    );
    eprintln!("[bench] e2e scenario ({reps} reps, ledger on)...");
    let e2e_ledger = measure_e2e(reps, true);
    // Unclamped: a negative overhead is measurement noise and is
    // reported as measured, not hidden as zero.
    let ledger_overhead_pct = (e2e.packets_per_sec / e2e_ledger.packets_per_sec - 1.0) * 100.0;
    eprintln!(
        "[bench]   {:.0} packets/sec with ledger recording ({:.1}% overhead)",
        e2e_ledger.packets_per_sec, ledger_overhead_pct
    );
    let adversary_reps = 10;
    eprintln!("[bench] adversary hook overhead ({adversary_reps} paired reps, inert loop)...");
    let (pps_hook_off, pps_hook_on) = measure_adversary_overhead(adversary_reps);
    let adversary_overhead_pct = (pps_hook_off / pps_hook_on - 1.0) * 100.0;
    eprintln!(
        "[bench]   {pps_hook_off:.0} packets/sec hook off, {pps_hook_on:.0} armed \
         ({adversary_overhead_pct:.1}% overhead)"
    );
    eprintln!("[bench] table op...");
    let ns_per_table_op = measure_table_op();
    eprintln!("[bench]   {ns_per_table_op:.2} ns/op");
    eprintln!("[bench] figure suite...");
    let (suite_runs, suite_wall) = measure_figure_suite(ci);
    eprintln!("[bench]   {suite_runs} runs in {suite_wall:.3}s");
    eprintln!("[bench] checkpoint write/restore ({reps} reps)...");
    let ckpt = measure_checkpoint(reps);
    eprintln!(
        "[bench]   {} snapshot bytes, write {:.3} ms, restore {:.3} ms",
        ckpt.snapshot_bytes, ckpt.write_ms, ckpt.restore_ms
    );
    eprintln!("[bench] warm vs cold sweep...");
    let (cold_wall, warm_wall) = measure_warm_sweep(ci);
    eprintln!(
        "[bench]   cold {cold_wall:.3}s, warm {warm_wall:.3}s ({:.2}x)",
        cold_wall / warm_wall
    );

    let mode = if ci { "ci" } else { "full" };
    let json = format!(
        concat!(
            "{{\n",
            "  \"schema\": 1,\n",
            "  \"label\": \"{label}\",\n",
            "  \"mode\": \"{mode}\",\n",
            "  \"packets_per_sec\": {pps},\n",
            "  \"packets_per_sec_ledger\": {pps_ledger},\n",
            "  \"ledger_overhead_pct\": {ledger_overhead},\n",
            "  \"packets_per_sec_adversary\": {pps_adversary},\n",
            "  \"adversary_overhead_pct\": {adversary_overhead},\n",
            "  \"e2e_packets\": {packets},\n",
            "  \"e2e_best_wall_s\": {wall},\n",
            "  \"e2e_allocs\": {allocs},\n",
            "  \"e2e_alloc_bytes\": {alloc_bytes},\n",
            "  \"peak_arena_packets\": {peak},\n",
            "  \"ns_per_table_op\": {table},\n",
            "  \"figure_suite_runs\": {suite_runs},\n",
            "  \"figure_suite_wall_s\": {suite_wall},\n",
            "  \"snapshot_bytes\": {snapshot_bytes},\n",
            "  \"snapshot_write_ms\": {snapshot_write},\n",
            "  \"snapshot_restore_ms\": {snapshot_restore},\n",
            "  \"sweep_cold_wall_s\": {cold_wall},\n",
            "  \"sweep_warm_wall_s\": {warm_wall},\n",
            "  \"warm_sweep_speedup\": {warm_speedup}\n",
            "}}\n"
        ),
        label = label,
        mode = mode,
        pps = json_f(e2e.packets_per_sec),
        pps_ledger = json_f(e2e_ledger.packets_per_sec),
        ledger_overhead = json_f(ledger_overhead_pct),
        pps_adversary = json_f(pps_hook_on),
        adversary_overhead = json_f(adversary_overhead_pct),
        packets = e2e.packets,
        wall = json_f(e2e.best_wall_s),
        allocs = e2e.allocs,
        alloc_bytes = e2e.alloc_bytes,
        peak = e2e.peak_arena_packets,
        table = json_f(ns_per_table_op),
        suite_runs = suite_runs,
        suite_wall = json_f(suite_wall),
        snapshot_bytes = ckpt.snapshot_bytes,
        snapshot_write = json_f(ckpt.write_ms),
        snapshot_restore = json_f(ckpt.restore_ms),
        cold_wall = json_f(cold_wall),
        warm_wall = json_f(warm_wall),
        warm_speedup = json_f(cold_wall / warm_wall),
    );
    if let Some(path) = &out {
        std::fs::write(path, &json).expect("write bench record");
        eprintln!("[bench] wrote {path}");
    }
    print!("{json}");

    if let Some(baseline_path) = gate {
        let doc = std::fs::read_to_string(&baseline_path)
            .unwrap_or_else(|e| panic!("cannot read baseline {baseline_path}: {e}"));
        let record = parse_json_line(&doc)
            .unwrap_or_else(|e| panic!("baseline {baseline_path} is not valid JSON: {e}"));
        let baseline_pps = record
            .get("packets_per_sec")
            .and_then(JsonValue::as_f64)
            .unwrap_or_else(|| panic!("baseline {baseline_path} lacks packets_per_sec"));
        let floor = baseline_pps * (1.0 - GATE_TOLERANCE);
        eprintln!(
            "[gate] measured {:.0} packets/sec vs baseline {:.0} (floor {:.0})",
            e2e.packets_per_sec, baseline_pps, floor
        );
        if e2e.packets_per_sec < floor {
            eprintln!(
                "[gate] FAIL: packets/sec regressed more than {:.0}%",
                GATE_TOLERANCE * 100.0
            );
            std::process::exit(1);
        }
        eprintln!("[gate] OK");
    }
}
