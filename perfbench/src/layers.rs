//! Per-layer microbenchmarks and paired overhead ratios, each timed
//! from outside through the layer's public functions.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::time::Instant;

use mafic_suite::adversary::{AdversaryController, SourceFeedback};
use mafic_suite::core::{AddressValidator, LogLogTap, MaficConfig, MaficFilter};
use mafic_suite::experiments::{figures, EngineConfig};
use mafic_suite::loglog::{
    DetectorConfig, LogLog, Precision, RouterSketch, TrafficMatrix, VictimDetector,
};
use mafic_suite::metrics::{MeasureWindows, MetricsReport};
use mafic_suite::netsim::testkit::FilterHarness;
use mafic_suite::netsim::{
    Addr, AgentId, CountingSink, FlowId, FlowKey, LinkSpec, Packet, PacketKind, Provenance,
    SimDuration, SimTime, Simulator,
};
use mafic_suite::transport::{CbrConfig, CbrProtocol, UnresponsiveSender};
use mafic_suite::workload::{
    encode_checkpoint, restore_run, run_scenario, AdversarySpec, Scenario, ScenarioSpec,
    StrategyKind,
};

use crate::stats::{median, quantile};
use crate::trace::span;
use crate::workloads::{cascade_spec, derive, flood_spec, Pass, Workload};

/// Timed rounds per microbench; the median round is reported.
const ROUNDS: usize = 5;
/// Pairs behind each paired overhead ratio.
const PAIRS: u64 = 30;

/// Layer metric name → value.
pub type Values = BTreeMap<String, f64>;

/// Times `rounds` rounds of `per_round` (which returns the operations
/// it performed) and returns the median nanoseconds per operation.
fn ns_per_op(name: &str, mut per_round: impl FnMut() -> u64) -> f64 {
    span(name, || {
        let rounds: Vec<f64> = (0..ROUNDS)
            .map(|_| {
                let t = Instant::now();
                let ops = per_round();
                t.elapsed().as_nanos() as f64 / ops as f64
            })
            .collect();
        median(&rounds)
    })
}

/// The scenario whose state the sketch and metrics microbenches read:
/// one of the workload's own scenarios.
fn representative_spec(workload: Workload, seed: u64) -> ScenarioSpec {
    match workload {
        Workload::SingleFlood => flood_spec(seed, 2),
        Workload::CascadeAdaptive => cascade_spec(derive(seed, 0), false, false),
        Workload::FigureGrid => ScenarioSpec::default(),
    }
}

/// Runs every layer microbench and paired ratio; failures land in `pass`.
pub fn run(workload: Workload, seed: u64, pass: &mut Pass, out: &mut Values) {
    let mut put = |k: &str, v: f64| {
        out.insert(k.to_string(), v);
    };
    put(
        "netsim.bare_fwd_ns_per_pkt",
        ns_per_op("netsim.bare_fwd", bare_forward_round),
    );
    put(
        "core.classify_ns",
        ns_per_op("core.classify", classify_round),
    );
    put("loglog.insert_ns", ns_per_op("loglog.insert", insert_round));
    let spec = representative_spec(workload, seed);
    if let Some(sketches) = pass.op("harvest sketches", |_| harvest(&spec)) {
        let matrix = TrafficMatrix::estimate(&sketches).map_err(|e| e.to_string());
        put(
            "loglog.estimate_us",
            ns_per_op("loglog.estimate", || {
                for _ in 0..200 {
                    black_box(TrafficMatrix::estimate(black_box(&sketches)).ok());
                }
                200
            }) / 1e3,
        );
        if let Some(matrix) = pass.op("traffic matrix", |_| matrix) {
            put(
                "loglog.observe_us",
                ns_per_op("loglog.observe", || observe_round(&matrix)) / 1e3,
            );
        }
    }
    let cascade = cascade_spec(derive(seed, 0), false, false);
    if let Some(stubs) = pass.op("attack stubs", |_| attack_stubs(&cascade)) {
        put(
            "adversary.observe_ns",
            ns_per_op("adversary.observe", || adversary_round(&stubs, seed)),
        );
    }
    if let Some(us) = pass.op("from_stats", |_| from_stats_us(&spec)) {
        put("metrics.from_stats_us", us);
    }
    let snap_spec = cascade_spec(derive(seed, 0), true, true);
    if let Some((write_ms, restore_ms)) = pass.op("snapshot bench", |_| snapshot_ms(&snap_spec)) {
        put("obs.snapshot_write_ms", write_ms);
        put("obs.snapshot_restore_ms", restore_ms);
    }
    let ledger_off = cascade_spec(derive(seed, 0), false, false);
    let ledger_on = cascade_spec(derive(seed, 0), true, false);
    if let Some(q) = pass.op("ledger ratio", |_| {
        span("obs.ledger_ratio", || paired_ratio(&ledger_off, &ledger_on))
    }) {
        put("obs.ledger_on_off_ratio.p10", q[0]);
        put("obs.ledger_on_off_ratio.p50", q[1]);
        put("obs.ledger_on_off_ratio.p90", q[2]);
    }
    // The inert closed loop: rotation no faster than the lease emits no
    // directives, so the armed run must equal the hook-free one while
    // still paying the per-interval hook.
    let hook_off = flood_spec(seed, 2);
    let hook_on = ScenarioSpec {
        adversary: Some(AdversarySpec::with_strategy(StrategyKind::SourceRotation {
            period_intervals: AdversarySpec::default().lease_intervals,
            active_fraction: 0.5,
        })),
        ..hook_off.clone()
    };
    if let Some(q) = pass.op("adversary hook ratio", |_| {
        span("adversary.hook_ratio", || paired_ratio(&hook_off, &hook_on))
    }) {
        put("adversary.hook_on_off_ratio.p10", q[0]);
        put("adversary.hook_on_off_ratio.p50", q[1]);
        put("adversary.hook_on_off_ratio.p90", q[2]);
    }
}

/// A plain forwarding line: one constant-rate sender, five 1 Gb/s hops,
/// 40-byte packets, no filters. Returns packets delivered.
fn bare_forward_round() -> u64 {
    let mut sim = Simulator::new(1);
    let nodes: Vec<_> = (0..6).map(|i| sim.add_node(format!("n{i}"))).collect();
    let dst = Addr::from_octets(10, 0, 0, 2);
    let link = LinkSpec::new(1e9, SimDuration::from_millis(1), 1024);
    for hop in nodes.windows(2) {
        let (out, _) = sim.add_duplex_link(hop[0], hop[1], link);
        sim.add_route(hop[0], dst, out);
    }
    let last = nodes[nodes.len() - 1];
    let sink = sim.add_agent(last, Box::new(CountingSink::new()), SimTime::ZERO);
    sim.bind_local_addr(last, dst, sink);
    let key = FlowKey::new(Addr::from_octets(10, 0, 0, 1), dst, 9, 80);
    let cbr = CbrConfig {
        rate_pps: 500_000.0,
        packet_size: 40,
        jitter: 0.0,
        protocol: CbrProtocol::Udp,
    };
    let sender = UnresponsiveSender::new(key, cbr, false, 1);
    sim.add_agent(nodes[0], Box::new(sender), SimTime::ZERO);
    sim.run_until(SimTime::from_secs_f64(0.4));
    sim.agent::<CountingSink>(sink)
        .map_or(1, |s| s.delivered().max(1))
}

/// `FilterHarness::offer_transit` on an active MAFIC filter over a flow
/// mix shaped like `single_flood`'s Table II default: 47 TCP flows at
/// one packet per millisecond tick, 3 attack flows (half TCP-like,
/// half UDP) at ten. Due probation timers fire between packets.
/// Returns packets offered.
fn classify_round() -> u64 {
    const TICKS: u64 = 2_000;
    const LEGIT: u16 = 47;
    const ATTACK: u16 = 3;
    let victim = Addr::from_octets(10, 200, 0, 1);
    let config = MaficConfig {
        seed: 7,
        ..MaficConfig::default()
    };
    let mut filter = MaficFilter::new(config, AddressValidator::AllowAll);
    filter.activate(victim);
    let mut h = FilterHarness::new();
    let mut timers: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
    let mut pending: Vec<(FlowId, u16)> = Vec::new();
    let mut offered = 0u64;
    let mut id = 0u64;
    for tick in 0..TICKS {
        h.now = SimTime::from_nanos(tick * 1_000_000);
        while let Some(&Reverse((due, slot))) = timers.peek() {
            if due > h.now.as_nanos() {
                break;
            }
            timers.pop();
            let (flow, kind) = pending[slot as usize];
            black_box(h.fire_flow_timer(&mut filter, flow, kind));
        }
        let sends = (0..LEGIT).chain((0..10).flat_map(|_| LEGIT..LEGIT + ATTACK));
        for flow in sends {
            let attack = flow >= LEGIT;
            let kind = if attack && flow % 2 == 0 {
                PacketKind::Udp
            } else {
                PacketKind::TcpData {
                    seq: tick,
                    ts: h.now,
                    ts_echo: SimTime::ZERO,
                }
            };
            id += 1;
            let packet = Packet {
                id,
                key: FlowKey::new(
                    Addr::from_octets(10, 1, 0, 1 + flow as u8),
                    victim,
                    1024 + flow,
                    80,
                ),
                kind,
                size_bytes: 500,
                created_at: h.now,
                provenance: Provenance {
                    origin: AgentId::from_index(flow.into()),
                    is_attack: attack,
                },
                hops: 0,
            };
            let fx = h.offer_transit(&mut filter, black_box(&packet));
            for &(delay, flow, kind) in &fx.flow_timers {
                timers.push(Reverse(((h.now + delay).as_nanos(), pending.len() as u64)));
                pending.push((flow, kind));
            }
            offered += 1;
        }
    }
    black_box(filter.counters());
    offered
}

/// `LogLog` inserts of distinct 64-bit items. Returns inserts.
fn insert_round() -> u64 {
    const N: u64 = 2_000_000;
    let mut sketch = LogLog::new(Precision::P10);
    for i in 0..N {
        sketch.insert_u64(black_box(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
    }
    black_box(sketch.estimate());
    N
}

/// Runs `spec` into its attack and copies every tap's epoch sketches
/// (the taps have accumulated since time zero; nothing harvested them).
fn harvest(spec: &ScenarioSpec) -> Result<Vec<RouterSketch>, String> {
    let mut scenario = Scenario::build(spec.clone()).map_err(|e| e.to_string())?;
    scenario
        .sim
        .run_until(spec.attack_start + SimDuration::from_millis(300));
    let sketches: Vec<RouterSketch> = scenario
        .taps
        .iter()
        .filter_map(|&(node, idx)| scenario.sim.filter::<LogLogTap>(node, idx))
        .map(|tap| tap.sketch().clone())
        .collect();
    if sketches.is_empty() {
        return Err("scenario has no LogLog taps".to_string());
    }
    Ok(sketches)
}

/// `VictimDetector::observe` on one traffic matrix, with the runner's
/// detector settings. Returns observations.
fn observe_round(matrix: &TrafficMatrix) -> u64 {
    const N: u64 = 2_000;
    let config = DetectorConfig {
        min_cardinality: 150.0,
        surge_factor: 1.6,
        baseline_weight: 0.3,
        atr_share: 0.02,
        warmup_rounds: 8,
    };
    let mut detector =
        VictimDetector::new(config).expect("the runner's detector settings are valid");
    for _ in 0..N {
        black_box(detector.observe(black_box(matrix)));
    }
    N
}

/// Stub index of each attack source of `spec`, as the runner hands
/// them to the controller.
fn attack_stubs(spec: &ScenarioSpec) -> Result<Vec<u32>, String> {
    let scenario = Scenario::build(spec.clone()).map_err(|e| e.to_string())?;
    Ok(scenario
        .flows
        .iter()
        .filter(|f| f.is_attack)
        .map(|f| f.stub_index as u32)
        .collect())
}

/// `AdversaryController::observe_interval` for the rotation strategy
/// over the cascade's attack sources, with half of each source's
/// packets delivered. Returns intervals observed.
fn adversary_round(stubs: &[u32], seed: u64) -> u64 {
    const N: u64 = 50_000;
    let rotation = StrategyKind::SourceRotation {
        period_intervals: 4,
        active_fraction: 0.5,
    };
    let mut ctl =
        AdversaryController::new(AdversarySpec::with_strategy(rotation), stubs.to_vec(), seed);
    for i in 0..N {
        let mut feedback = ctl.take_feedback_buf();
        for (s, slot) in feedback.iter_mut().enumerate() {
            let sent = (i + 1) * (100 + s as u64);
            *slot = SourceFeedback {
                sent,
                delivered: sent / 2,
            };
        }
        black_box(ctl.observe_interval(feedback).len());
    }
    N
}

/// `MetricsReport::from_stats` on the end state of a finished run.
fn from_stats_us(spec: &ScenarioSpec) -> Result<f64, String> {
    let mut scenario = Scenario::build(spec.clone()).map_err(|e| e.to_string())?;
    let outcome = run_scenario(&mut scenario).map_err(|e| e.to_string())?;
    let windows = MeasureWindows {
        trigger_at: outcome.triggered_at.unwrap_or(spec.attack_start),
        before: SimDuration::from_millis(500),
        settle: SimDuration::from_millis(50),
        after: SimDuration::from_millis(200),
        residual: SimDuration::from_secs(2),
    };
    let stats = scenario.sim.stats();
    Ok(ns_per_op("metrics.from_stats", || {
        for _ in 0..100 {
            black_box(MetricsReport::from_stats(black_box(stats), &windows));
        }
        100
    }) / 1e3)
}

/// `encode_checkpoint` and `restore_run` on the cascade's attack-start
/// checkpoint, in milliseconds per call.
fn snapshot_ms(spec: &ScenarioSpec) -> Result<(f64, f64), String> {
    let outcome = run_scenario(&mut Scenario::build(spec.clone()).map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;
    let bytes = outcome.checkpoint.ok_or("no checkpoint captured")?;
    let (scenario, state) = restore_run(spec, &bytes).map_err(|e| e.to_string())?;
    let write = ns_per_op("obs.snapshot_write", || {
        for _ in 0..20 {
            black_box(encode_checkpoint(&scenario, &state));
        }
        20
    });
    let restore = ns_per_op("obs.snapshot_restore", || {
        for _ in 0..5 {
            black_box(restore_run(spec, &bytes).ok());
        }
        5
    });
    Ok((write / 1e6, restore / 1e6))
}

/// Times `run_scenario` on `off` and `on` in alternating order, pair by
/// pair, and returns the p10/p50/p90 of the per-pair `on / off` ratio,
/// unclamped. Both arms must simulate the same packets.
fn paired_ratio(off: &ScenarioSpec, on: &ScenarioSpec) -> Result<[f64; 3], String> {
    let time = |spec: &ScenarioSpec| -> Result<(f64, u64), String> {
        let mut scenario = Scenario::build(spec.clone()).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let outcome = run_scenario(&mut scenario).map_err(|e| e.to_string())?;
        Ok((t.elapsed().as_secs_f64(), outcome.packets_sent))
    };
    let mut ratios = Vec::new();
    for i in 0..PAIRS {
        let ((t_off, p_off), (t_on, p_on)) = if i % 2 == 0 {
            let a = time(off)?;
            (a, time(on)?)
        } else {
            let b = time(on)?;
            (time(off)?, b)
        };
        if p_off != p_on {
            return Err(format!("arms diverged: {p_off} vs {p_on} packets sent"));
        }
        ratios.push(t_on / t_off);
    }
    ratios.sort_by(f64::total_cmp);
    Ok([
        quantile(&ratios, 0.1),
        quantile(&ratios, 0.5),
        quantile(&ratios, 0.9),
    ])
}

/// The `pd_vt` sweep (18 scenarios) on one worker and on `jobs`; returns
/// the serial/parallel wall-time ratio. Both grids must be equal.
pub fn speedup(jobs: usize) -> Result<f64, String> {
    let serial_cfg = EngineConfig { jobs: 1, trials: 1 };
    let cfg = EngineConfig { jobs, trials: 1 };
    let t = Instant::now();
    let serial = span("experiments.speedup_1j", || {
        figures::sweep_pd_vt(&serial_cfg)
    })?;
    let t1 = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let parallel = span("experiments.speedup_2j", || figures::sweep_pd_vt(&cfg))?;
    let t2 = t.elapsed().as_secs_f64();
    if serial != parallel {
        return Err("parallel sweep differs from the serial sweep".to_string());
    }
    Ok(t1 / t2)
}
