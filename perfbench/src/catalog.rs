//! The `serve --campaign` demand catalog shared by `sched_campaign` and
//! `serve_faulted`, and the [`Diagnosis`] of host cost hidden inside
//! placement and the engines, which every traced run reports.
//!
//! The catalog is 80 request templates of 20–30 objects over 4 000
//! objects at 8 GB calibration (~33 TB), placed by PBP on three L80
//! libraries: the working set overflows the mounted capacity, so
//! sustained load performs real tape exchanges (~3 mounts per request).

use crate::report::{median, Report};
use crate::trace::Tracer;
use tapesim_cluster::{average_linkage_clusters, ClusterParams, CoAccessGraph};
use tapesim_model::specs::{lto3_drive, lto3_tape, stk_l80_library};
use tapesim_model::{Bytes, SystemConfig};
use tapesim_placement::{ParallelBatchPlacement, Placement, PlacementPolicy};
use tapesim_sched::tape_jobs;
use tapesim_sim::seek_order::{plan_with, SeekPolicy};
use tapesim_sim::Simulator;
use tapesim_workload::{ObjectSizeSpec, RequestSpec, Workload, WorkloadSpec};

/// Switch drives per library.
const M: u8 = 4;
/// Open-loop Poisson arrival rate, requests per simulated hour.
pub const RATE_PER_HOUR: f64 = 12.0;

/// The catalog's generator seed: `tapesim serve --campaign`'s catalog.
const CATALOG_SEED: u64 = 5;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;

/// The paper's system: 3 StorageTek L80 libraries, 8 LTO-3 drives and 80
/// tapes each.
pub fn l80_system() -> SystemConfig {
    SystemConfig::new(3, stk_l80_library(lto3_drive(), lto3_tape()))
        .expect("the L80 configuration is valid")
}

/// A generated, placed catalog ready to serve.
pub struct Campaign {
    pub workload: Workload,
    pub sim: Simulator,
}

/// Generates the catalog and places it by PBP, `SETUP_REPS` times, each
/// followed by `extra` (the workload's own set-up over the catalog's
/// system). Reports the median times and returns the last set-up.
pub fn set_up<T>(
    extra: impl Fn(&SystemConfig, &mut Tracer) -> T,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(Campaign, T), String> {
    let spec = WorkloadSpec {
        objects: 4_000,
        sizes: ObjectSizeSpec::default().calibrated(Bytes::mb(8192)),
        requests: RequestSpec {
            count: 80,
            min_objects: 20,
            max_objects: 30,
            count_shape: 1.0,
            alpha: 0.3,
        },
        seed: CATALOG_SEED,
    };
    let system = l80_system();
    let (mut total, mut generate, mut place) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let (done, secs) = tracer.timed("setup", |t| {
            let (workload, generate_s) = t.timed("workload.generate", |_| spec.generate());
            let (placement, place_s) = t.timed("core.place_pbp", |_| {
                ParallelBatchPlacement::with_m(M).place(&workload, &system)
            });
            let placement =
                placement.map_err(|e| format!("PBP placement of the catalog failed: {e}"))?;
            let (sim, _) = t.timed("sim.new", |_| Simulator::with_natural_policy(placement, M));
            let x = extra(&system, t);
            generate.push(generate_s);
            place.push(place_s);
            Ok::<_, String>((Campaign { workload, sim }, x))
        });
        total.push(secs);
        last = Some(done?);
    }
    report.set("setup_s", median(&total));
    report.set("workload.generate_s", median(&generate));
    report.set("core.place_pbp_s", median(&place));
    let (c, x) = last.expect("at least one set-up ran");
    report.notes.push(format!(
        "catalog: {} objects, {} templates, {:.1} TB, PBP on {} libraries; arrivals at {RATE_PER_HOUR}/h",
        c.workload.objects().len(),
        c.workload.requests().len(),
        c.workload.total_bytes().as_gb() / 1000.0,
        system.libraries,
    ));
    Ok((c, x))
}

/// Host cost of the work that placement and the engines do internally,
/// timed on its own: the co-access graph and average linkage that PBP and
/// CPP placement run inside `place`, the per-tape job catalog the engines
/// build at set-up, and seek planning over that catalog's job sets.
#[derive(Debug, Default)]
pub struct Diagnosis {
    pub graph_s: f64,
    pub graph_edges: usize,
    pub linkage_s: f64,
    pub clusters: usize,
    pub catalog_s: f64,
    pub seek_plan_s: f64,
    pub seek_plan_calls: u64,
}

impl Diagnosis {
    /// Measures `workload` under `placement`. Fails if a seek plan drops
    /// or repeats an extent.
    pub fn measure(
        placement: &Placement,
        workload: &Workload,
        t: &mut Tracer,
    ) -> Result<Diagnosis, String> {
        let (graph, graph_s) = t.timed("cluster.graph", |_| CoAccessGraph::from_workload(workload));
        let threshold = ClusterParams::default().absolute_threshold(workload);
        let (clusters, linkage_s) = t.timed("cluster.linkage", |_| {
            average_linkage_clusters(&graph, threshold)
        });
        let (catalog, catalog_s) = t.timed("sched.catalog", |_| {
            workload
                .requests()
                .iter()
                .map(|r| tape_jobs(placement, &r.objects))
                .collect::<Vec<_>>()
        });
        let ((calls, planned), seek_plan_s) = t.timed("sim.seek_plan", |_| {
            let mut out = Vec::new();
            let (mut calls, mut planned) = (0u64, 0usize);
            for job in catalog.iter().flatten() {
                plan_with(SeekPolicy::Greedy, Bytes::ZERO, &job.extents, &mut out);
                calls += 1;
                planned += out.len();
            }
            (calls, planned)
        });
        let expected: usize = catalog.iter().flatten().map(|j| j.extents.len()).sum();
        if planned != expected {
            return Err(format!(
                "seek plans hold {planned} extents, the jobs {expected}"
            ));
        }
        Ok(Diagnosis {
            graph_s,
            graph_edges: graph.n_edges(),
            linkage_s,
            clusters: clusters.len(),
            catalog_s,
            seek_plan_s,
            seek_plan_calls: calls,
        })
    }

    /// The mean host times of `measured`, with the first one's counts.
    pub fn mean(measured: &[Diagnosis]) -> Diagnosis {
        let n = measured.len().max(1) as f64;
        let mean = |f: fn(&Diagnosis) -> f64| measured.iter().map(f).sum::<f64>() / n;
        let first = measured.first();
        Diagnosis {
            graph_s: mean(|d| d.graph_s),
            graph_edges: first.map_or(0, |d| d.graph_edges),
            linkage_s: mean(|d| d.linkage_s),
            clusters: first.map_or(0, |d| d.clusters),
            catalog_s: mean(|d| d.catalog_s),
            seek_plan_s: mean(|d| d.seek_plan_s),
            seek_plan_calls: first.map_or(0, |d| d.seek_plan_calls),
        }
    }

    /// Host seconds of one clustering: graph plus linkage.
    pub fn clustering_s(&self) -> f64 {
        self.graph_s + self.linkage_s
    }

    pub fn report(&self, report: &mut Report) {
        report.set("cluster.graph_s", self.graph_s);
        report.set("cluster.graph_edges", self.graph_edges as f64);
        report.set("cluster.linkage_s", self.linkage_s);
        report.set("cluster.clusters", self.clusters as f64);
        report.set("sched.catalog_s", self.catalog_s);
        report.set("sim.seek_plan_s", self.seek_plan_s);
        report.set("sim.seek_plan_calls", self.seek_plan_calls as f64);
    }
}
