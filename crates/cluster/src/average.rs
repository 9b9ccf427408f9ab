//! Sparse average-linkage agglomerative clustering.
//!
//! Average linkage scores a cluster pair by the *mean* pairwise similarity
//! across the pair (absent pairs count as zero):
//! `score(A,B) = Σ_{a∈A,b∈B} w(a,b) / (|A|·|B|)`.
//!
//! This is the linkage the placement schemes use on the paper's workload:
//! requests share objects aggressively (two 125-object requests out of a
//! 30 000-object population overlap with probability ≈ ½), and single
//! linkage would chain the whole workload into one mega-cluster through
//! those shared objects. Average linkage dilutes one-object bridges by
//! `1/(|A|·|B|)` and keeps requests apart.
//!
//! ## The merge order
//!
//! The result is the exact greedy: repeatedly merge the live pair with the
//! largest `(score, smaller a, smaller b)` at or above the threshold,
//! folding the smaller cluster into the larger (ties keep `a`, and the
//! kept cluster keeps its index). The `tests::greedy_oracle` below states
//! that definition directly and the proptests hold the fast loop to it.
//!
//! ## Implementation
//!
//! Each live cluster holds a sparse map of cross-cluster weight sums; the
//! singletons start from the co-access graph's per-object adjacency, taken
//! by value. Candidates are `(score, a, b)` triples packed into one `u128`
//! (see [`crate::similarity`]) and carry the two clusters' version stamps
//! from when they were scored. They come from two sources:
//!
//! * **the stream** — every initial edge at or above the threshold, sorted
//!   once and read front to back. These never change once made, so they
//!   need no heap;
//! * **the residual heap** — only the candidates rescored after the
//!   stream was built: a stale entry revalidated at pop time, and the
//!   pairs whose weight sum a merge changed (the dropped side's
//!   neighbours).
//!
//! Each step takes the larger of the stream head and the heap top. That
//! is the order a single heap holding both would pop, so the merge
//! sequence is the single-heap one. Only equal keys can pop in a different
//! order, and an equal key names the same pair: whichever copy pops first
//! either merges that pair (leaving the other dead) or, if stale, pushes
//! the pair's live score, which the live copy already carries.
//!
//! A popped entry whose side was absorbed is dead and skipped. A stale
//! one (a side merged since it was scored) is rescored and pushed back
//! while still above the threshold: scores only fall between a pair's own
//! rescorings, because a merge that grows a pair's weight sum pushes the
//! new score itself. So the live maximum is never behind a stale entry.
//!
//! On the paper's workload (30 000 objects, 2.2 M edges, threshold half
//! the smallest request probability) 4.15 M candidates pop and 3.68 M of
//! them are dead. The 2.22 M initial edges come off the stream, so the
//! heap takes 1.93 M pushes and peaks at 0.74 M entries; one heap for
//! everything took 4.20 M pushes and peaked at 2.75 M (DESIGN.md §18).

use crate::similarity::{pack, unpack, CoAccessGraph, IntMap};
use std::collections::BinaryHeap;
use tapesim_model::ObjectId;

/// Version stamp of an absorbed cluster.
const DEAD: u32 = u32::MAX;

/// A rescored candidate: packed `(score, a, b)` key, then the stamps of
/// `a` and `b` at scoring time. Ordered by key first.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Rescored {
    key: u128,
    ver_a: u32,
    ver_b: u32,
}

#[derive(Default)]
struct Cluster {
    members: Vec<ObjectId>,
    /// Sum of cross-pair weights to each other live cluster.
    adj: IntMap<f64>,
}

/// Flat average-linkage clusters of `graph` at similarity `threshold`.
///
/// Returns a partition of all objects (singletons included), clusters
/// ordered by smallest member, members ascending. Clones the graph's
/// adjacency; [`ClusterParams::cluster`](crate::ClusterParams::cluster)
/// hands its own graph over instead.
pub fn average_linkage_clusters(graph: &CoAccessGraph, threshold: f64) -> Vec<Vec<ObjectId>> {
    average_linkage(graph.clone(), threshold)
}

/// [`average_linkage_clusters`], consuming `graph`.
pub(crate) fn average_linkage(graph: CoAccessGraph, threshold: f64) -> Vec<Vec<ObjectId>> {
    let stream = graph.sorted_keys(threshold);
    let mut clusters: Vec<Cluster> = graph
        .into_adjacency()
        .into_iter()
        .enumerate()
        .map(|(i, adj)| Cluster {
            members: vec![ObjectId(i as u32)],
            adj,
        })
        .collect();
    let mut version = vec![0u32; clusters.len()];

    let mut stream = stream.into_iter().peekable();
    let mut heap: BinaryHeap<Rescored> = BinaryHeap::new();
    loop {
        let from_stream = match (stream.peek(), heap.peek()) {
            (None, None) => break,
            (Some(&s), Some(h)) => s >= h.key,
            (s, _) => s.is_some(),
        };
        let (key, ver_a, ver_b) = if from_stream {
            (stream.next().expect("peeked"), 0, 0)
        } else {
            let h = heap.pop().expect("peeked");
            (h.key, h.ver_a, h.ver_b)
        };
        let (_, a, b) = unpack(key);
        if version[a] == DEAD || version[b] == DEAD {
            continue; // one side already absorbed
        }
        let (len_a, len_b) = (clusters[a].members.len(), clusters[b].members.len());
        if version[a] != ver_a || version[b] != ver_b {
            // Stale: revalidate with the live score (the sum may have
            // changed since this entry was scored).
            if let Some(&sum) = clusters[a].adj.get(&b) {
                let score = sum / (len_a as f64 * len_b as f64);
                if score >= threshold {
                    heap.push(Rescored {
                        key: pack(score, a, b),
                        ver_a: version[a],
                        ver_b: version[b],
                    });
                }
            }
            continue;
        }

        // Merge the smaller cluster into the larger one.
        let (keep, drop) = if len_a >= len_b { (a, b) } else { (b, a) };
        let dropped = std::mem::take(&mut clusters[drop]);
        version[drop] = DEAD;
        version[keep] += 1;
        let kept = &mut clusters[keep];
        kept.members.extend(dropped.members);
        kept.adj.remove(&drop);
        let kept_len = kept.members.len() as f64;

        // Fold the dropped side's adjacency into the kept side and push
        // fresh candidates for exactly the pairs whose sum changed. Pairs
        // adjacent only to `keep` are revalidated lazily at pop time.
        for (other, w) in dropped.adj {
            if other == keep {
                continue;
            }
            let sum = {
                let s = clusters[keep].adj.entry(other).or_insert(0.0);
                *s += w;
                *s
            };
            let oc = &mut clusters[other];
            let from_drop = oc.adj.remove(&drop).unwrap_or(0.0);
            *oc.adj.entry(keep).or_insert(0.0) += from_drop;
            let score = sum / (kept_len * oc.members.len() as f64);
            if score >= threshold {
                let (a, b) = (keep.min(other), keep.max(other));
                heap.push(Rescored {
                    key: pack(score, a, b),
                    ver_a: version[a],
                    ver_b: version[b],
                });
            }
        }
    }

    let mut out: Vec<Vec<ObjectId>> = clusters
        .into_iter()
        .zip(version)
        .filter(|&(_, v)| v != DEAD)
        .map(|(c, _)| {
            let mut m = c.members;
            m.sort_unstable();
            m
        })
        .collect();
    out.sort_by_key(|c| c[0]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tapesim_workload::Request;

    fn graph(n: usize, reqs: &[(f64, &[u32])]) -> CoAccessGraph {
        let requests: Vec<Request> = reqs
            .iter()
            .enumerate()
            .map(|(rank, (p, objs))| Request {
                rank: rank as u32,
                probability: *p,
                objects: objs.iter().map(|&o| ObjectId(o)).collect(),
            })
            .collect();
        CoAccessGraph::from_requests(n, &requests)
    }

    fn partition_size(cs: &[Vec<ObjectId>]) -> usize {
        cs.iter().map(|c| c.len()).sum()
    }

    #[test]
    fn disjoint_requests_cluster_separately() {
        let g = graph(8, &[(0.6, &[0, 1, 2]), (0.4, &[4, 5])]);
        let cs = average_linkage_clusters(&g, 0.1);
        assert!(cs.contains(&vec![ObjectId(0), ObjectId(1), ObjectId(2)]));
        assert!(cs.contains(&vec![ObjectId(4), ObjectId(5)]));
        assert_eq!(partition_size(&cs), 8);
    }

    #[test]
    fn threshold_blocks_weak_merges() {
        let g = graph(4, &[(0.9, &[0, 1]), (0.2, &[1, 2])]);
        let cs = average_linkage_clusters(&g, 0.5);
        assert!(cs.contains(&vec![ObjectId(0), ObjectId(1)]));
        assert!(cs.contains(&vec![ObjectId(2)]));
    }

    #[test]
    fn average_linkage_resists_chaining() {
        // A strong pair {0,1} and a strong pair {2,3} bridged by one weak
        // edge (1,2). Average linkage dilutes the bridge:
        // score({0,1},{2,3}) = 0.3/4 = 0.075 < threshold, while single
        // linkage at 0.25 would chain everything.
        let g = graph(4, &[(0.9, &[0, 1]), (0.9, &[2, 3]), (0.3, &[1, 2])]);
        let cs = average_linkage_clusters(&g, 0.25);
        assert!(cs.contains(&vec![ObjectId(0), ObjectId(1)]));
        assert!(cs.contains(&vec![ObjectId(2), ObjectId(3)]));

        let d = crate::Dendrogram::single_linkage(&g);
        let sl = d.cut(0.25);
        assert_eq!(sl.len(), 1, "single linkage chains the same graph");
    }

    #[test]
    fn shared_object_requests_stay_separate() {
        // Two 5-object requests sharing one object: the bridge dilutes to
        // well under either request's internal cohesion.
        let g = graph(9, &[(0.5, &[0, 1, 2, 3, 4]), (0.5, &[4, 5, 6, 7, 8])]);
        let cs = average_linkage_clusters(&g, 0.25);
        let big: Vec<_> = cs.iter().filter(|c| c.len() >= 4).collect();
        assert_eq!(big.len(), 2, "two request cores: {cs:?}");
        // The shared object 4 belongs to exactly one of them.
        assert_eq!(partition_size(&cs), 9);
    }

    #[test]
    fn rising_scores_are_not_lost_by_lazy_revalidation() {
        // (0,1) strong; 2 connects weakly to 0 and to 1 separately — the
        // pair score of ({0,1}, {2}) is (0.2+0.2)/2 = 0.2, above a 0.15
        // threshold even though each single edge diluted alone would be
        // 0.2/2 = 0.1 after the first merge… the sum must be combined.
        let g = graph(3, &[(0.9, &[0, 1]), (0.2, &[0, 2]), (0.2, &[1, 2])]);
        let cs = average_linkage_clusters(&g, 0.15);
        assert_eq!(cs.len(), 1, "all three merge: {cs:?}");
    }

    #[test]
    fn empty_graph_yields_singletons() {
        let g = graph(5, &[]);
        let cs = average_linkage_clusters(&g, 0.1);
        assert_eq!(cs.len(), 5);
        assert_eq!(partition_size(&cs), 5);
    }

    #[test]
    fn result_is_deterministic() {
        let g = graph(
            10,
            &[
                (0.5, &[0, 1, 2, 3]),
                (0.5, &[3, 4, 5]),
                (0.2, &[6, 7]),
                (0.2, &[8, 9]),
            ],
        );
        let a = average_linkage_clusters(&g, 0.15);
        let b = average_linkage_clusters(&g, 0.15);
        assert_eq!(a, b);
        assert_eq!(partition_size(&a), 10);
    }

    /// The exact greedy, stated directly: score every live pair from the
    /// member pairs, merge the largest `(score, smaller a, smaller b)` at
    /// or above `threshold`, fold the smaller cluster into the larger (ties
    /// keep `a`), repeat. Pairs that never co-occur score nothing.
    pub(super) fn greedy_oracle(g: &CoAccessGraph, threshold: f64) -> Vec<Vec<ObjectId>> {
        let n = g.n_objects();
        let mut clusters: Vec<Option<Vec<ObjectId>>> =
            (0..n).map(|i| Some(vec![ObjectId(i as u32)])).collect();
        loop {
            let mut best: Option<(f64, usize, usize)> = None;
            for a in 0..n {
                for b in a + 1..n {
                    let (Some(ca), Some(cb)) = (&clusters[a], &clusters[b]) else {
                        continue;
                    };
                    let sum: f64 = ca
                        .iter()
                        .flat_map(|&x| cb.iter().map(move |&y| g.pair_weight(x, y)))
                        .sum();
                    let score = sum / (ca.len() as f64 * cb.len() as f64);
                    // Scan order is (a, b) ascending, so only a strictly
                    // higher score displaces the incumbent.
                    if sum > 0.0 && score >= threshold && best.is_none_or(|(s, _, _)| score > s) {
                        best = Some((score, a, b));
                    }
                }
            }
            let Some((_, a, b)) = best else { break };
            let (la, lb) = (
                clusters[a].as_ref().map_or(0, Vec::len),
                clusters[b].as_ref().map_or(0, Vec::len),
            );
            let (keep, drop) = if la >= lb { (a, b) } else { (b, a) };
            let dropped = clusters[drop].take().expect("live");
            clusters[keep].as_mut().expect("live").extend(dropped);
        }
        let mut out: Vec<Vec<ObjectId>> = clusters
            .into_iter()
            .flatten()
            .map(|mut c| {
                c.sort_unstable();
                c
            })
            .collect();
        out.sort_by_key(|c| c[0]);
        out
    }

    #[test]
    fn oracle_agrees_on_the_hand_built_graphs() {
        let g = graph(4, &[(0.9, &[0, 1]), (0.9, &[2, 3]), (0.3, &[1, 2])]);
        assert_eq!(greedy_oracle(&g, 0.25), average_linkage_clusters(&g, 0.25));
        let g = graph(3, &[(0.9, &[0, 1]), (0.2, &[0, 2]), (0.2, &[1, 2])]);
        assert_eq!(greedy_oracle(&g, 0.15), average_linkage_clusters(&g, 0.15));
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::greedy_oracle;
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha12Rng;
    use tapesim_workload::Request;

    /// Overlapping requests with probabilities `k/8`: every weight sum is
    /// a small dyadic rational, exact in any addition order, so the
    /// oracle's member-pair sums carry the same bits as the fast loop's
    /// folded sums, and many pairs tie exactly.
    fn tie_heavy_graph(seed: u64, n_obj: u32, n_req: usize) -> CoAccessGraph {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let requests: Vec<Request> = (0..n_req)
            .map(|rank| {
                let k = rng.gen_range(2..=n_obj.min(8));
                let mut objects: Vec<_> =
                    (0..k).map(|_| ObjectId(rng.gen_range(0..n_obj))).collect();
                objects.sort_unstable();
                objects.dedup();
                Request {
                    rank: rank as u32,
                    probability: rng.gen_range(1..=8u32) as f64 / 8.0,
                    objects,
                }
            })
            .collect();
        CoAccessGraph::from_requests(n_obj as usize, &requests)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// The stream-plus-heap loop merges exactly what the naive greedy
        /// merges, at every threshold from 1/32 up past the heaviest edge.
        #[test]
        fn matches_the_greedy_oracle_on_tie_heavy_graphs(
            seed in any::<u64>(),
            n_obj in 2u32..24,
            n_req in 1usize..14,
        ) {
            let g = tie_heavy_graph(seed, n_obj, n_req);
            let heaviest = g.edges_by_weight_desc().first().map_or(0.0, |e| e.2);
            let steps = (heaviest * 32.0) as u32 + 2;
            for step in 1..=steps {
                let threshold = step as f64 / 32.0;
                prop_assert_eq!(
                    average_linkage_clusters(&g, threshold),
                    greedy_oracle(&g, threshold),
                    "threshold {}", threshold
                );
            }
        }
    }
}
