//! `serve_faulted`: the supervised, sharded service under faults.
//!
//! The same catalog and arrival process as `sched_campaign`, served by
//! [`supervisor_run`] on two shards with auditing on, under the
//! span-relative hardware fault plan of `tapesim serve --chaos` (drive
//! failures, robot jams, media bad spots), a chaos plan of shard kills
//! only, and the default health policy. Retries, kill/replay restarts,
//! health-ladder shedding, channels and snapshot merges all run here.
//! Injected stalls are left out: only the wall-clock watchdog detects
//! them, which would time a sleep rather than the program.
//!
//! The catalog, the hardware fault plan and the kill schedules are fixed;
//! the run's seed draws the arrival streams. A restarted shard replays its
//! log, so a seeded kill schedule made the host work itself depend on the
//! seed.

use crate::catalog::{set_up, Diagnosis, RATE_PER_HOUR};
use crate::report::{list_secs, median, same_bits, Budget, Report};
use crate::sub_seed;
use crate::trace::Tracer;
use std::collections::BTreeMap;
use tapesim_des::stats::Samples;
use tapesim_faults::{ChaosPlan, ChaosSpec, FaultPlan, FaultSpec};
use tapesim_model::SystemConfig;
use tapesim_sched::PolicyKind;
use tapesim_serve::{
    supervisor_run, Health, HealthPolicy, ServeConfig, ServeReport, SuperviseConfig,
};
use tapesim_sim::Simulator;
use tapesim_workload::{ArrivalSpec, Workload};

/// Requests ingested per `supervisor_run` call.
const REQUESTS: usize = 20_000;
/// Calls per repetition, each with its own kill schedule and an arrival
/// stream drawn from the run's seed; outputs are pooled over them. The
/// faulted path is chaotic (when drives die decides what the health
/// ladder sheds): pooling 16 streams halved how far the simulated
/// outputs move from one seed to the next, and more streams did not help.
const STREAMS: usize = 16;
/// Shard threads; fixed, so the simulated outputs do not depend on the
/// host's core count.
const SHARDS: usize = 2;
/// The hardware fault plan's seed: `tapesim serve --chaos`'s default.
const FAULT_SEED: u64 = 23;
/// The seed the streams' kill schedules derive from.
const CHAOS_SEED: u64 = 0xC4A05;

/// One call's inputs besides the catalog and the fault plan.
struct Stream {
    cfg: ServeConfig,
    chaos: ChaosPlan,
}

/// The `serve --chaos` fault plan at intensity 1, rates relative to the
/// campaign span (~4 failures per drive and ~8 robot jams over the run).
fn fault_plan(system: &SystemConfig) -> FaultPlan {
    let span_hours = REQUESTS as f64 / RATE_PER_HOUR;
    let spec = FaultSpec {
        horizon_hours: span_hours,
        drive_mtbf_hours: span_hours / 4.0,
        jams_per_hour: 8.0 / span_hours,
        ..FaultSpec::moderate(FAULT_SEED)
    };
    FaultPlan::generate(&spec, system)
}

/// The calls of one repetition: per stream, its arrivals and a chaos plan
/// of two expected kills per shard and no stalls.
fn streams(seed: u64) -> Vec<Stream> {
    (0..STREAMS as u64)
        .map(|i| {
            let arrivals = ArrivalSpec {
                per_hour: RATE_PER_HOUR,
                seed: sub_seed(seed, 0x5E00 + i),
            };
            let chaos = ChaosSpec {
                stalls_per_shard: 0.0,
                ..ChaosSpec::moderate(sub_seed(CHAOS_SEED, i), (REQUESTS / SHARDS) as u64)
            };
            Stream {
                cfg: ServeConfig::new(arrivals, REQUESTS)
                    .with_shards(SHARDS)
                    .with_channel_bound(256)
                    .with_snapshot_every(REQUESTS / 8),
                chaos: ChaosPlan::generate(&chaos, SHARDS),
            }
        })
        .collect()
}

/// Serves every stream, auditing when `audit` is set.
fn serve_all(
    sim: &Simulator,
    workload: &Workload,
    faults: &FaultPlan,
    streams: &[Stream],
    audit: bool,
) -> Vec<ServeReport> {
    let sup = SuperviseConfig::new()
        .with_watchdog_ms(2_000)
        .with_health(HealthPolicy::default());
    let no_replicas = BTreeMap::new();
    streams
        .iter()
        .map(|s| {
            let kind = PolicyKind::BatchByTape;
            supervisor_run(
                sim,
                workload,
                kind,
                &s.cfg.with_audit(audit),
                faults,
                &no_replicas,
                &s.chaos,
                &sup,
            )
        })
        .collect()
}

/// The simulated outputs a repetition must reproduce bit for bit.
fn fingerprint(reports: &[ServeReport]) -> Vec<u64> {
    let mut bits = Vec::new();
    for r in reports {
        let m = &r.metrics;
        bits.extend([
            r.submitted,
            r.served,
            r.lost,
            r.shed,
            r.rejected,
            r.restarts,
            r.failures.len() as u64,
            r.snapshots.len() as u64,
            m.mounts(),
            m.events(),
            m.retries(),
            m.sojourn_percentile(50.0).to_bits(),
            m.sojourn_percentile(99.0).to_bits(),
            m.availability().to_bits(),
        ]);
        bits.extend(
            r.health_trace
                .iter()
                .map(|&(seq, h)| seq << 2 | h.gauge_value() as u64),
        );
    }
    bits
}

/// The correctness gate of one repetition.
fn check(reports: &[ServeReport], audited: bool, first: &[u64]) -> Vec<String> {
    let mut problems = Vec::new();
    for (i, r) in reports.iter().enumerate() {
        if r.submitted != r.served + r.lost + r.shed + r.rejected || r.submitted != REQUESTS as u64
        {
            problems.push(format!(
                "stream {i}: ledger does not close: {} submitted of {REQUESTS}, {} served, {} lost, {} shed, {} rejected",
                r.submitted, r.served, r.lost, r.shed, r.rejected
            ));
        }
        if audited && (r.reports.is_empty() || !r.is_clean()) {
            problems.push(format!(
                "stream {i}: audit not clean ({} reports: {:?})",
                r.reports.len(),
                r.reports
                    .iter()
                    .filter(|a| !a.is_clean())
                    .collect::<Vec<_>>()
            ));
        }
        if r.served == 0 {
            problems.push(format!("stream {i}: served nothing"));
        }
    }
    problems.extend(same_bits("supervisor_run", first, &fingerprint(reports)));
    problems
}

/// Runs the workload for `seconds`; traced runs add per-layer metrics.
pub fn run(seed: u64, seconds: f64, tracer: &mut Tracer) -> Result<Report, String> {
    let mut report = Report::default();
    let (c, (faults, streams)) = set_up(
        |system, t| {
            t.timed("faults.plans", |_| (fault_plan(system), streams(seed)))
                .0
        },
        tracer,
        &mut report,
    )?;
    report.notes.push(format!(
        "{STREAMS} streams of {REQUESTS} requests on {SHARDS} shards; {} drive failures and {} jams planned; {} kills planned, no stalls",
        faults.n_drive_failures(),
        faults.n_jams(),
        streams.iter().map(|s| s.chaos.n_kills()).sum::<usize>()
    ));

    // Traced runs alternate an untraced repetition with a traced round of
    // two: audited and unaudited.
    let budget = Budget::start(seconds);
    let (mut untraced, mut all, mut traced, mut bare) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut reference: Option<Vec<u64>> = None;
    let mut kept: Option<Vec<ServeReport>> = None;
    let mut diagnosis = None;
    let serve = |audit: bool| serve_all(&c.sim, &c.workload, &faults, &streams, audit);
    while budget.another(&all) {
        let traced_turn = tracer.is_enabled() && untraced.len() > traced.len();
        if !traced_turn {
            let (r, secs) = Tracer::off().timed("serve.supervisor_run", |_| serve(true));
            let reference = reference.get_or_insert_with(|| fingerprint(&r));
            report.check("serve_faulted repetition", check(&r, true, reference));
            untraced.push(secs);
            all.push(secs);
            kept.get_or_insert(r);
            continue;
        }
        let reference = reference.clone().expect("the first repetition is untraced");
        let (_, secs) = tracer.timed("serve_faulted.round", |t| {
            let (r, s) = t.timed("serve.supervisor_run", |_| serve(true));
            report.check("traced repetition", check(&r, true, &reference));
            traced.push(s);
            let (r, s) = t.timed("serve.supervisor_run_unaudited", |_| serve(false));
            report.check("unaudited repetition", check(&r, false, &reference));
            bare.push(s);
        });
        all.push(secs);
        if diagnosis.is_none() {
            diagnosis = Some(Diagnosis::measure(c.sim.placement(), &c.workload, tracer)?);
        }
    }
    let reports = kept.expect("at least one repetition ran");
    let sum = |f: &dyn Fn(&ServeReport) -> u64| reports.iter().map(f).sum::<u64>();
    let (submitted, served) = (sum(&|r| r.submitted), sum(&|r| r.served));
    let mut sojourns = Samples::new();
    for r in &reports {
        for &s in r.metrics.sojourn_seconds() {
            sojourns.push(s);
        }
    }
    let run_s = median(&untraced);
    report.set("run_s", run_s);
    report.set("requests_per_s", served as f64 / run_s);
    report.set("p50_sojourn_s", sojourns.percentile(50.0));
    report.set("p99_sojourn_s", sojourns.percentile(99.0));
    report.set("request_success", served as f64 / submitted as f64);
    report.set("sojourn.samples", sojourns.len() as f64);
    let events = sum(&|r| r.metrics.events());
    let per_stream =
        |f: &dyn Fn(&ServeReport) -> f64| median(&reports.iter().map(f).collect::<Vec<_>>());
    report.set("sched.events", events as f64);
    report.set(
        "sched.mounts_per_request",
        sum(&|r| r.metrics.mounts()) as f64 / served as f64,
    );
    report.set(
        "sched.drive_utilisation",
        per_stream(&|r| r.metrics.utilisation()),
    );
    report.set(
        "sched.p99_wait_s",
        per_stream(&|r| r.metrics.wait_percentile(99.0)),
    );
    report.set("faults.retries", sum(&|r| r.metrics.retries()) as f64);
    report.set("faults.failovers", sum(&|r| r.metrics.failovers()) as f64);
    report.set("faults.lost", sum(&|r| r.lost) as f64);
    report.set("serve.shed", sum(&|r| r.shed) as f64);
    report.set("serve.restarts", sum(&|r| r.restarts) as f64);
    report.set("serve.failures", sum(&|r| r.failures.len() as u64) as f64);
    report.set("serve.snapshots", sum(&|r| r.snapshots.len() as u64) as f64);
    let health = reports.iter().flat_map(|r| &r.health_trace);
    let overloaded = health
        .clone()
        .filter(|(_, h)| *h == Health::Overloaded)
        .count();
    report.set(
        "serve.overloaded_share",
        overloaded as f64 / health.count().max(1) as f64,
    );
    report.set(
        "serve.drive_availability",
        per_stream(&|r| r.metrics.availability()),
    );
    report.notes.push(format!(
        "untraced repetitions {} s host, median {run_s:.3}; {submitted} submitted = {served} served + {} lost + {} shed + {} rejected; {} restarts; sojourn percentiles over {} samples",
        list_secs(&untraced),
        sum(&|r| r.lost),
        sum(&|r| r.shed),
        sum(&|r| r.rejected),
        sum(&|r| r.restarts),
        sojourns.len()
    ));
    if let Some(d) = &diagnosis {
        let serve_s = median(&traced);
        d.report(&mut report);
        report.set("serve.run_s", serve_s);
        report.set("sched.events_per_s", events as f64 / serve_s);
        report.set("des.audit_s", serve_s - median(&bare));
        report.set("trace.overhead_s", serve_s - run_s);
    }
    Ok(report)
}
