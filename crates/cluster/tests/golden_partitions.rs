//! Golden partition fingerprints.
//!
//! The constants below were recorded from the original hash-map graph and
//! single-heap average linkage. Any change to the greedy merge order, the
//! edge order Kruskal consumes, or a pair weight's bits moves at least one
//! of them.

use tapesim_cluster::{
    average_linkage_clusters, ClusterParams, CoAccessGraph, Dendrogram, Linkage,
};
use tapesim_model::ObjectId;
use tapesim_workload::{RequestSpec, Workload, WorkloadSpec};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
}

/// FNV-1a over each cluster's length followed by its member ids.
fn partition_fingerprint(clusters: &[Vec<ObjectId>]) -> u64 {
    clusters.iter().fold(FNV_OFFSET, |h, c| {
        let h = fnv1a(h, &(c.len() as u32).to_le_bytes());
        c.iter().fold(h, |h, o| fnv1a(h, &o.0.to_le_bytes()))
    })
}

/// The paper's §6 workload generated from seed 1.
fn paper_workload() -> Workload {
    WorkloadSpec {
        seed: 1,
        ..WorkloadSpec::default()
    }
    .generate()
}

/// A tenth-scale workload: 3 000 objects, 60 requests of 20–40 objects.
fn reduced_workload(seed: u64) -> Workload {
    WorkloadSpec {
        objects: 3_000,
        requests: RequestSpec {
            count: 60,
            min_objects: 20,
            max_objects: 40,
            ..RequestSpec::default()
        },
        seed,
        ..WorkloadSpec::default()
    }
    .generate()
}

fn average(threshold_fraction: f64) -> ClusterParams {
    ClusterParams {
        threshold_fraction,
        linkage: Linkage::Average,
        ..ClusterParams::default()
    }
}

#[test]
fn paper_scale_average_linkage_partition_is_pinned() {
    let w = paper_workload();
    let set = average(0.5).cluster(&w);
    assert_eq!(
        partition_fingerprint(set.clusters()),
        PAPER_AVERAGE,
        "{} clusters",
        set.clusters().len()
    );
}

#[test]
fn paper_scale_single_linkage_is_pinned() {
    let w = paper_workload();
    let g = CoAccessGraph::from_workload(&w);
    let d = Dendrogram::single_linkage(&g);
    let merges = d.merges().iter().fold(FNV_OFFSET, |h, m| {
        let h = fnv1a(h, &(m.left as u64).to_le_bytes());
        let h = fnv1a(h, &(m.right as u64).to_le_bytes());
        fnv1a(h, &m.weight.to_bits().to_le_bytes())
    });
    let cut = d.cut(ClusterParams::default().absolute_threshold(&w));
    assert_eq!(
        (g.n_edges(), merges, partition_fingerprint(&cut)),
        PAPER_SINGLE
    );
}

#[test]
fn reduced_scale_average_linkage_partitions_are_pinned() {
    let mut got = Vec::new();
    for seed in [1, 7, 20261017] {
        let w = reduced_workload(seed);
        let g = CoAccessGraph::from_workload(&w);
        let mut row = [0; 3];
        for (fraction, slot) in [0.5, 1.0, 2.0].into_iter().zip(&mut row) {
            let params = average(fraction);
            let borrowed = average_linkage_clusters(&g, params.absolute_threshold(&w));
            let owned = params.cluster(&w);
            assert_eq!(
                borrowed,
                owned.clusters(),
                "seed {seed} fraction {fraction}"
            );
            *slot = partition_fingerprint(&borrowed);
        }
        got.push(row);
    }
    assert_eq!(got, REDUCED);
}

/// Seed 1 at 0.5·min_p: 9 294 clusters.
const PAPER_AVERAGE: u64 = 6521532381796888117;
/// Seed 1: `(edges, merge-list fingerprint, cut at 0.5·min_p)`.
const PAPER_SINGLE: (usize, u64, u64) = (2216980, 7153345375508587900, 13086302322606349573);
/// Rows: seeds 1, 7 and 20261017; columns: threshold fractions 0.5, 1, 2.
const REDUCED: [[u64; 3]; 3] = [
    [
        16237000791945718477,
        5537939601185064847,
        16421736318745295531,
    ],
    [
        13765240010165904075,
        720123977387821465,
        16809835845060699327,
    ],
    [
        16007798463964267083,
        13249840340110411587,
        8796805804385035921,
    ],
];
