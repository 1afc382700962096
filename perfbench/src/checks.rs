//! Correctness checks run on every pass. A failed check makes the
//! operation count as failed; it is never treated as noise.

use mafic_suite::metrics::MetricsReport;
use mafic_suite::obs::{fnv64, RunLedger};
use mafic_suite::workload::{RunOutcome, Scenario};

/// The report rendered field by field, without the runner-side
/// instrumentation fields, exactly as the pinned replay digests of the
/// suite's arena tests compose it.
fn report_digest(r: &MetricsReport) -> String {
    format!(
        "MetricsReport {{ accuracy_pct: {:?}, false_negative_pct: {:?}, \
         false_positive_pct: {:?}, legit_drop_pct: {:?}, \
         traffic_reduction_pct: {:?}, attack_seen: {:?}, attack_dropped: {:?}, \
         legit_seen: {:?}, legit_dropped: {:?}, legit_dropped_as_malicious: {:?}, \
         victim_rate_before: {:?}, victim_rate_after: {:?}, \
         residual_attack_bps: {:?}, legit_goodput_bps: {:?}, \
         legit_data_sent: {:?}, legit_data_lost: {:?}, collateral_pct: {:?}, \
         flows: {:?} }}",
        r.accuracy_pct,
        r.false_negative_pct,
        r.false_positive_pct,
        r.legit_drop_pct,
        r.traffic_reduction_pct,
        r.attack_seen,
        r.attack_dropped,
        r.legit_seen,
        r.legit_dropped,
        r.legit_dropped_as_malicious,
        r.victim_rate_before,
        r.victim_rate_after,
        r.residual_attack_bps,
        r.legit_goodput_bps,
        r.legit_data_sent,
        r.legit_data_lost,
        r.collateral_pct,
        r.flows,
    )
}

/// Replay digest of one outcome (report, trigger, ATRs, packet totals
/// and both bandwidth series), hashed to one constant.
pub fn outcome_digest(outcome: &RunOutcome) -> u64 {
    let mut out = format!("{}\n", report_digest(&outcome.report));
    out.push_str(&format!("{:?}\n", outcome.triggered_at));
    out.push_str(&format!("{:?}\n", outcome.atr_nodes));
    out.push_str(&format!(
        "sent={} delivered={}\n",
        outcome.packets_sent, outcome.packets_delivered
    ));
    for p in outcome.series.iter().chain(&outcome.goodput_series) {
        out.push_str(&format!("{p:?}\n"));
    }
    fnv64(out.as_bytes())
}

/// Packet conservation: every packet injected (sent by an agent or
/// emitted as a probe) is delivered, dropped for a counted reason, or
/// still in flight in the arena.
pub fn conservation(scenario: &Scenario) -> Result<(), String> {
    let stats = scenario.sim.stats();
    let created = stats.total_sent + stats.probes_emitted;
    let (mut delivered, mut dropped) = (0u64, 0u64);
    for (_, rec) in stats.flows() {
        delivered += rec.delivered;
        dropped += rec.dropped_total();
    }
    let live = scenario.sim.packet_arena_live() as u64;
    if created == delivered + dropped + live {
        Ok(())
    } else {
        Err(format!(
            "packet conservation: sent {} + probes {} != delivered {delivered} + dropped {dropped} + live {live}",
            stats.total_sent, stats.probes_emitted
        ))
    }
}

/// A resumed run must reproduce the straight run: report, series,
/// control-plane outcome, ledger and checkpoint bytes.
pub fn same_outcome(straight: &RunOutcome, resumed: &RunOutcome) -> Result<(), String> {
    let ledger = |o: &RunOutcome| o.ledger.as_ref().map(RunLedger::to_jsonl);
    let fields = [
        ("report", straight.report == resumed.report),
        ("series", straight.series == resumed.series),
        (
            "goodput series",
            straight.goodput_series == resumed.goodput_series,
        ),
        ("trigger", straight.triggered_at == resumed.triggered_at),
        ("ATR nodes", straight.atr_nodes == resumed.atr_nodes),
        ("escalations", straight.escalations == resumed.escalations),
        ("control plane", straight.control == resumed.control),
        (
            "stand-down",
            straight.stood_down_at == resumed.stood_down_at,
        ),
        (
            "packets sent",
            straight.packets_sent == resumed.packets_sent,
        ),
        ("ledger", ledger(straight) == ledger(resumed)),
        ("checkpoint", straight.checkpoint == resumed.checkpoint),
    ];
    match fields.iter().find(|(_, same)| !same) {
        None => Ok(()),
        Some((what, _)) => Err(format!("resumed run differs from straight run: {what}")),
    }
}
