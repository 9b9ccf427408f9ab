//! `sched_campaign`: the concurrent scheduler under sustained load.
//!
//! The campaign catalog (see [`crate::catalog`]) placed by PBP, served by
//! [`run_scheduled`] under [`BatchByTape`] with trace auditing on, in
//! process and on one thread. Arrivals are open-loop Poisson in simulated
//! time at 12 requests/h, so every request meets real tape exchanges and
//! the host time goes to the event engine, the scheduler and the seek
//! planner; clustering is a small set-up step. The catalog is fixed; the
//! run's seed draws the arrival stream.

use crate::catalog::{self, Diagnosis, RATE_PER_HOUR};
use crate::report::{list_secs, median, same_bits, Budget, Report};
use crate::sub_seed;
use crate::trace::Tracer;
use tapesim_obs::SpanKind;
use tapesim_sched::{run_scheduled, BatchByTape, SchedConfig, SchedOutcome};
use tapesim_sim::Simulator;
use tapesim_workload::{ArrivalSpec, Workload};

/// Requests per `run_scheduled` call.
const REQUESTS: usize = 20_000;

/// The simulated outputs a repetition must reproduce bit for bit.
fn fingerprint(out: &SchedOutcome) -> Vec<u64> {
    let m = &out.metrics;
    vec![
        m.served(),
        m.lost(),
        m.mounts(),
        m.events(),
        m.sojourn_percentile(50.0).to_bits(),
        m.sojourn_percentile(99.0).to_bits(),
        m.avg_sojourn().to_bits(),
        m.wait_percentile(99.0).to_bits(),
        m.utilisation().to_bits(),
    ]
}

/// The correctness gate of one `run_scheduled` call.
fn check(out: &SchedOutcome, audited: bool, first: &[u64]) -> Vec<String> {
    let m = &out.metrics;
    let mut problems = Vec::new();
    if audited && (out.reports.is_empty() || !out.is_clean()) {
        problems.push(format!(
            "audit not clean ({} reports: {:?})",
            out.reports.len(),
            out.reports
                .iter()
                .filter(|r| !r.is_clean())
                .collect::<Vec<_>>()
        ));
    }
    // run_scheduled neither sheds nor rejects: submitted = served + lost.
    if m.served() + m.lost() != REQUESTS as u64 {
        problems.push(format!(
            "ledger does not close: {REQUESTS} submitted, {} served, {} lost",
            m.served(),
            m.lost()
        ));
    }
    if m.served() != REQUESTS as u64 {
        problems.push(format!("served {} of {REQUESTS} requests", m.served()));
    }
    if m.mounts() == 0 {
        problems.push("no tape exchanges: the robot path never ran".into());
    }
    problems.extend(same_bits("run_scheduled", first, &fingerprint(out)));
    problems
}

fn serve(sim: &mut Simulator, workload: &Workload, cfg: &SchedConfig) -> SchedOutcome {
    run_scheduled(sim, workload, &BatchByTape, cfg)
}

/// Runs the workload for `seconds`; traced runs add per-layer metrics.
pub fn run(seed: u64, seconds: f64, tracer: &mut Tracer) -> Result<Report, String> {
    let mut report = Report::default();
    let (mut c, ()) = catalog::set_up(|_, _| {}, tracer, &mut report)?;
    let arrivals = ArrivalSpec {
        per_hour: RATE_PER_HOUR,
        seed: sub_seed(seed, 0xA7),
    };
    let audited = SchedConfig::new(arrivals, REQUESTS).with_audit(true);
    let unaudited = audited.with_audit(false);
    let observed = audited.with_obs(true);

    // Traced runs alternate an untraced call with a traced round of three
    // calls: audited, unaudited and audited with obs accounting on.
    let budget = Budget::start(seconds);
    let (mut untraced, mut all) = (Vec::new(), Vec::new());
    let (mut traced, mut bare, mut obs) = (Vec::new(), Vec::new(), Vec::new());
    let mut reference: Option<Vec<u64>> = None;
    let mut kept: Option<SchedOutcome> = None;
    let mut budget_out = None;
    let mut diagnosis = None;
    while budget.another(&all) {
        let traced_turn = tracer.is_enabled() && untraced.len() > traced.len();
        if !traced_turn {
            let (out, secs) = Tracer::off().timed("sched.run_scheduled", |_| {
                serve(&mut c.sim, &c.workload, &audited)
            });
            let reference = reference.get_or_insert_with(|| fingerprint(&out));
            report.check("sched_campaign call", check(&out, true, reference));
            untraced.push(secs);
            all.push(secs);
            kept.get_or_insert(out);
            continue;
        }
        let reference = reference.clone().expect("the first call is untraced");
        let (_, secs) = tracer.timed("sched_campaign.round", |t| {
            let (out, s) = t.timed("sched.run_scheduled", |_| {
                serve(&mut c.sim, &c.workload, &audited)
            });
            report.check("traced call", check(&out, true, &reference));
            traced.push(s);
            let (out, s) = t.timed("sched.run_scheduled_unaudited", |_| {
                serve(&mut c.sim, &c.workload, &unaudited)
            });
            report.check("unaudited call", check(&out, false, &reference));
            bare.push(s);
            let (out, s) = t.timed("sched.run_scheduled_observed", |_| {
                serve(&mut c.sim, &c.workload, &observed)
            });
            let mut problems = check(&out, true, &reference);
            match &out.budget {
                Some(b) if b.sum_error() < 1e-6 => {}
                Some(b) => problems.push(format!("time budget does not close ({})", b.sum_error())),
                None => problems.push("obs run carried no time budget".into()),
            }
            report.check("observed call", problems);
            obs.push(s);
            budget_out = out.budget;
        });
        all.push(secs);
        if diagnosis.is_none() {
            diagnosis = Some(Diagnosis::measure(c.sim.placement(), &c.workload, tracer)?);
        }
    }
    let out = kept.expect("at least one call ran");
    let m = &out.metrics;
    let run_s = median(&untraced);
    report.set("run_s", run_s);
    report.set("requests_per_s", m.served() as f64 / run_s);
    report.set("p50_sojourn_s", m.sojourn_percentile(50.0));
    report.set("p99_sojourn_s", m.sojourn_percentile(99.0));
    report.set("request_success", m.served() as f64 / REQUESTS as f64);
    report.set("sojourn.samples", m.sojourn_seconds().len() as f64);
    report.set("sched.events", m.events() as f64);
    report.set(
        "sched.mounts_per_request",
        m.mounts() as f64 / m.served() as f64,
    );
    report.set("sched.drive_utilisation", m.utilisation());
    report.set("sched.p99_wait_s", m.wait_percentile(99.0));
    report.notes.push(format!(
        "untraced calls {} s host, median {run_s:.3}; {} served, {} mounts, p99 sojourn over {} samples",
        list_secs(&untraced),
        m.served(),
        m.mounts(),
        m.sojourn_seconds().len()
    ));
    if let Some(d) = &diagnosis {
        let sched_s = median(&traced);
        d.report(&mut report);
        report.set("sched.run_s", sched_s);
        report.set("sched.events_per_s", m.events() as f64 / sched_s);
        report.set("des.audit_s", sched_s - median(&bare));
        report.set("obs.overhead_s", median(&obs) - sched_s);
        report.set("trace.overhead_s", sched_s - run_s);
    }
    if let Some(b) = &budget_out {
        let drive_s = b.makespan_s * b.drives.len() as f64;
        report.set(
            "obs.drive_seek_share",
            b.drive_total(SpanKind::Seek) / drive_s,
        );
        report.set(
            "obs.drive_transfer_share",
            b.drive_total(SpanKind::Transfer) / drive_s,
        );
        report.set(
            "obs.drive_exchange_share",
            b.drive_total(SpanKind::Exchange) / drive_s,
        );
        report.set("obs.arm_utilisation", b.arm_utilisation());
        report.set("obs.robot_overlap_ratio", b.robot_overlap_ratio());
    }
    Ok(report)
}
