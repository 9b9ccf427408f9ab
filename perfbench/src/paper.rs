//! `paper_point`: one paper-scale figure point (§5–6).
//!
//! The paper workload (30 000 objects, 300 requests, α = 0.3) on three
//! StorageTek L80 libraries of LTO-3 drives with `m = 4`. One repetition
//! places it under all three schemes and serves 200 sampled requests per
//! scheme through [`Simulator::run_sampled`] — the evaluation behind every
//! point of the paper's figures. Clustering (inside PBP and CPP placement)
//! is nearly all of the host time; the simulator is a sliver of it.

use crate::catalog::{l80_system, Diagnosis};
use crate::report::{list_secs, median, same_bits, Budget, Report};
use crate::sub_seed;
use crate::trace::Tracer;
use tapesim_des::stats::Samples;
use tapesim_model::SystemConfig;
use tapesim_placement::{
    ClusterProbabilityPlacement, ObjectProbabilityPlacement, ParallelBatchPlacement, Placement,
    PlacementPolicy,
};
use tapesim_sim::{RunMetrics, Simulator};
use tapesim_workload::{Workload, WorkloadSpec};

/// Switch drives per library (the paper fixes `m = 4` after Figure 5).
const M: u8 = 4;
/// Serviced request samples per scheme (paper: 200).
const SAMPLES: usize = 200;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 41;

/// One placed-and-simulated scheme of a point.
struct SchemeRun {
    sim: Simulator,
    metrics: RunMetrics,
    place_s: f64,
    simulate_s: f64,
}

/// Places and simulates the three schemes, PBP first.
fn point(
    workload: &Workload,
    system: &SystemConfig,
    sim_seed: u64,
    t: &mut Tracer,
) -> Result<Vec<SchemeRun>, String> {
    let schemes: [(&'static str, Box<dyn PlacementPolicy>); 3] = [
        (
            "core.place_pbp",
            Box::new(ParallelBatchPlacement::with_m(M)),
        ),
        (
            "core.place_cpp",
            Box::new(ClusterProbabilityPlacement::default()),
        ),
        (
            "core.place_opp",
            Box::new(ObjectProbabilityPlacement::default()),
        ),
    ];
    let mut runs = Vec::with_capacity(schemes.len());
    for (span, policy) in schemes {
        let (placement, place_s) = t.timed(span, |_| policy.place(workload, system));
        let placement = placement.map_err(|e| format!("{} failed: {e}", policy.display_name()))?;
        let ((sim, metrics), simulate_s) = t.timed("sim.run_sampled", |_| {
            let mut sim = Simulator::with_natural_policy(placement, M);
            let metrics = sim.run_sampled(workload, SAMPLES, sim_seed);
            (sim, metrics)
        });
        runs.push(SchemeRun {
            sim,
            metrics,
            place_s,
            simulate_s,
        });
    }
    Ok(runs)
}

/// The simulated outputs a repetition must reproduce bit for bit.
fn fingerprint(runs: &[SchemeRun]) -> Vec<u64> {
    runs.iter()
        .flat_map(|r| {
            let m = &r.metrics;
            [
                m.count(),
                m.avg_bandwidth_mbs().to_bits(),
                m.avg_response().to_bits(),
                m.avg_switches().to_bits(),
                m.aggregate_bandwidth_mbs().to_bits(),
            ]
        })
        .collect()
}

/// Per-request PBP response times, re-served on a fresh simulator. Checks
/// that folding them reproduces `run_sampled`'s mean bandwidth exactly.
fn pbp_responses(
    placement: &Placement,
    workload: &Workload,
    sim_seed: u64,
    pbp: &RunMetrics,
) -> (Samples, Vec<String>) {
    let detailed = Simulator::with_natural_policy(placement.clone(), M)
        .run_sampled_detailed(workload, SAMPLES, sim_seed);
    let mut folded = RunMetrics::new();
    let mut responses = Samples::new();
    for r in &detailed {
        folded.push(r);
        responses.push(r.response);
    }
    let mut problems = Vec::new();
    if folded.avg_bandwidth_mbs().to_bits() != pbp.avg_bandwidth_mbs().to_bits() {
        problems.push(format!(
            "per-request PBP bandwidth {} differs from run_sampled's {}",
            folded.avg_bandwidth_mbs(),
            pbp.avg_bandwidth_mbs()
        ));
    }
    (responses, problems)
}

/// Checks one repetition: every scheme served every sample, and the
/// simulated outputs match the first repetition's.
fn check_point(runs: &[SchemeRun], first: &[u64]) -> Vec<String> {
    let mut problems = Vec::new();
    for (i, r) in runs.iter().enumerate() {
        if r.metrics.count() != SAMPLES as u64 {
            problems.push(format!(
                "scheme {i} served {} of {SAMPLES} samples",
                r.metrics.count()
            ));
        }
    }
    problems.extend(same_bits("point", first, &fingerprint(runs)));
    problems
}

/// Runs the workload for `seconds`; traced runs add per-layer metrics.
pub fn run(seed: u64, seconds: f64, tracer: &mut Tracer) -> Result<Report, String> {
    let mut report = Report::default();
    let spec = WorkloadSpec::default().with_seed(seed);
    let sim_seed = sub_seed(seed, 0x5A);
    let system = l80_system();

    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut workload = None;
    for _ in 0..SETUP_REPS {
        let (w, secs) = tracer.timed("workload.generate", |_| spec.generate());
        setups.push(secs);
        if let Some(prev) = &workload {
            let shape = |w: &Workload| (w.total_bytes(), w.requests().len());
            if shape(prev) != shape(&w) {
                return Err("workload generation is not deterministic".into());
            }
        }
        workload = Some(w);
    }
    let workload = workload.expect("at least one set-up ran");
    report.set("setup_s", median(&setups));
    report.set("workload.generate_s", median(&setups));
    report.notes.push(format!(
        "paper workload: {} objects, {} requests, {:.1} TB; {} samples per scheme, m = {M}",
        workload.objects().len(),
        workload.requests().len(),
        workload.total_bytes().as_gb() / 1000.0,
        SAMPLES
    ));

    // Traced runs alternate untraced and traced repetitions; every
    // repetition must reproduce the first one's simulated outputs.
    let budget = Budget::start(seconds);
    let (mut untraced, mut traced, mut all) = (Vec::new(), Vec::new(), Vec::new());
    let mut reference: Option<Vec<u64>> = None;
    let mut kept: Option<Vec<SchemeRun>> = None;
    let mut layer = LayerTimes::default();
    while budget.another(&all) {
        let traced_turn = tracer.is_enabled() && untraced.len() > traced.len();
        if traced_turn && traced.is_empty() {
            // Clustering is timed on its own just before and just after the
            // first traced point, so that drift in host speed cancels from
            // the placement self time.
            let first = kept.as_ref().expect("the first repetition is untraced");
            let pbp = first[0].sim.placement();
            layer
                .diagnoses
                .push(Diagnosis::measure(pbp, &workload, tracer)?);
        }
        let mut off = Tracer::off();
        let t = if traced_turn { &mut *tracer } else { &mut off };
        let (runs, secs) = t.timed("paper_point.point", |t| {
            point(&workload, &system, sim_seed, t)
        });
        let runs = runs?;
        let reference = reference.get_or_insert_with(|| fingerprint(&runs));
        report.check("paper_point repetition", check_point(&runs, reference));
        all.push(secs);
        if traced_turn {
            traced.push(secs);
            layer.add(&runs);
            if traced.len() == 1 {
                let pbp = runs[0].sim.placement();
                layer
                    .diagnoses
                    .push(Diagnosis::measure(pbp, &workload, tracer)?);
            }
        } else {
            untraced.push(secs);
        }
        kept.get_or_insert(runs);
    }
    let runs = kept.expect("at least one repetition ran");
    let pbp = &runs[0];
    let (responses, problems) =
        pbp_responses(pbp.sim.placement(), &workload, sim_seed, &pbp.metrics);
    report.check("paper_point per-request PBP", problems);

    let run_s = median(&untraced);
    let served: u64 = runs.iter().map(|r| r.metrics.count()).sum();
    let submitted = (runs.len() * SAMPLES) as u64;
    report.set("run_s", run_s);
    report.set("requests_per_s", served as f64 / run_s);
    report.set("p50_sojourn_s", responses.percentile(50.0));
    report.set("p99_sojourn_s", responses.percentile(99.0));
    report.set("request_success", served as f64 / submitted as f64);
    report.set("sojourn.samples", responses.len() as f64);
    report.set("sim.pbp_switches_per_request", pbp.metrics.avg_switches());
    report.set("sim.pbp_bandwidth_mbs", pbp.metrics.avg_bandwidth_mbs());
    report.notes.push(format!(
        "bandwidth (sim MB/s): PBP {:.1}, CPP {:.1}, OPP {:.1}; PBP response p50/p99 over {} samples",
        runs[0].metrics.avg_bandwidth_mbs(),
        runs[1].metrics.avg_bandwidth_mbs(),
        runs[2].metrics.avg_bandwidth_mbs(),
        responses.len()
    ));
    report.notes.push(format!(
        "untraced points {} s host, median {run_s:.3}",
        list_secs(&untraced)
    ));
    if tracer.is_enabled() {
        layer.report(&mut report);
        report.set("trace.overhead_s", median(&traced) - run_s);
    }
    Ok(report)
}

/// Per-layer host times collected from traced repetitions.
#[derive(Default)]
struct LayerTimes {
    place: [Vec<f64>; 3],
    simulate: Vec<f64>,
    diagnoses: Vec<Diagnosis>,
}

impl LayerTimes {
    fn add(&mut self, runs: &[SchemeRun]) {
        for (times, r) in self.place.iter_mut().zip(runs) {
            times.push(r.place_s);
        }
        self.simulate.push(runs.iter().map(|r| r.simulate_s).sum());
    }

    fn report(&self, report: &mut Report) {
        let diagnosis = Diagnosis::mean(&self.diagnoses);
        let [pbp, cpp, opp] = &self.place;
        report.set("core.place_pbp_s", median(pbp));
        report.set("core.place_cpp_s", median(cpp));
        report.set("core.place_opp_s", median(opp));
        // PBP and CPP each cluster the workload once inside `place`.
        let place = median(pbp) + median(cpp) + median(opp);
        report.set("core.place_self_s", place - 2.0 * diagnosis.clustering_s());
        report.set("sim.run_sampled_s", median(&self.simulate));
        diagnosis.report(report);
    }
}
