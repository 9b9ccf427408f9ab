//! The co-access similarity graph.
//!
//! Edge weight between two objects = Σ of probabilities of all requests
//! containing both (§5.1). The graph is sparse: only pairs that actually
//! co-occur in some request carry an edge — for the paper's workload that is
//! a few million pairs out of 30 000² / 2 possible.
//!
//! Higher-order similarities (triples, …) are implicit in the hierarchy: a
//! set of objects co-requested with total probability `p` is connected by
//! pairwise edges of weight ≥ `p`, so any threshold cut at or below `p`
//! groups them — which is how the paper's tree-traversal extraction behaves.
//!
//! ## Layout
//!
//! The graph is per-object adjacency: object `a`'s map holds every
//! co-accessed `b` with the pair's weight, so each edge is stored twice,
//! once from each end. That is the layout average linkage starts from:
//! [`ClusterParams::cluster`](crate::ClusterParams::cluster) hands the
//! maps to it by value as the initial singleton clusters' adjacency.
//!
//! ## Owner-partitioned build
//!
//! [`CoAccessGraph::from_requests`] runs on `available_parallelism()`
//! scoped threads. Thread `t` of `T` owns the objects with `id % T == t`
//! and walks every request in order, adding the request's probability to
//! each owned member's entry for every other member. No two threads write
//! the same map, and each pair's weight is summed in request order on both
//! of its ends — so both copies of an edge agree bit for bit, and the
//! weights are bit-identical for every `T`.
//!
//! ## Edge order
//!
//! Both linkages consume edges through one sort: each edge is
//! packed into one `u128` (weight bits, then `!a`, then `!b`) and the keys
//! are sorted as integers. Weights are non-negative and finite, so their
//! IEEE bits order like the values, and a larger key is a heavier edge,
//! or an equal weight with a smaller first id, then a smaller second id.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use tapesim_model::ObjectId;
use tapesim_workload::{Request, Workload};

/// Multiplicative hasher for small integer keys (FxHash-style); adjacency
/// maps are hot enough that SipHash shows up in profiles.
#[derive(Default)]
pub(crate) struct IntHasher(u64);

impl Hasher for IntHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Fallback for non-integer keys; not used on the hot path.
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100000001b3);
        }
    }
    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.0 = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// `HashMap` keyed by object or cluster index with [`IntHasher`].
pub(crate) type IntMap<V> = HashMap<usize, V, BuildHasherDefault<IntHasher>>;

/// Packs a weighted pair `a < b` into a key whose unsigned order is the
/// linkage order: heavier first, then smaller `a`, then smaller `b`.
#[inline]
pub(crate) fn pack(weight: f64, a: usize, b: usize) -> u128 {
    debug_assert!(weight >= 0.0 && weight.is_finite() && a < b);
    ((weight.to_bits() as u128) << 64) | ((!(a as u32) as u128) << 32) | !(b as u32) as u128
}

/// Inverse of [`pack`]: `(weight, a, b)`.
#[inline]
pub(crate) fn unpack(key: u128) -> (f64, usize, usize) {
    (
        f64::from_bits((key >> 64) as u64),
        !(key >> 32) as u32 as usize,
        !key as u32 as usize,
    )
}

/// Sparse weighted co-access graph over the object population.
#[derive(Debug, Clone)]
pub struct CoAccessGraph {
    /// `adj[a][b]` = weight of the pair; symmetric, no self-pairs.
    adj: Vec<IntMap<f64>>,
    n_edges: usize,
}

impl CoAccessGraph {
    /// Builds the graph from a request set over `n_objects` objects.
    ///
    /// # Panics
    ///
    /// Panics if a request names an object `>= n_objects`, or if a
    /// request's probability is negative or not finite (the edge order
    /// relies on non-negative weights).
    pub fn from_requests(n_objects: usize, requests: &[Request]) -> CoAccessGraph {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        CoAccessGraph::build(n_objects, requests, threads)
    }

    /// Convenience: builds from a [`Workload`].
    pub fn from_workload(workload: &Workload) -> CoAccessGraph {
        CoAccessGraph::from_requests(workload.objects().len(), workload.requests())
    }

    /// The owner-partitioned build on `threads` threads (see the module
    /// doc); the result does not depend on `threads`.
    pub(crate) fn build(n_objects: usize, requests: &[Request], threads: usize) -> CoAccessGraph {
        // Presize each map to its degree bound Σ (|r| − 1) over the
        // requests containing the object, so the workers never reallocate:
        // every map is allocated here, on the calling thread.
        let mut bound = vec![0usize; n_objects];
        for r in requests {
            assert!(
                r.probability >= 0.0 && r.probability.is_finite(),
                "request {} has probability {}; co-access weights need a finite p >= 0",
                r.rank,
                r.probability
            );
            for o in &r.objects {
                bound[o.idx()] += r.objects.len() - 1;
            }
        }
        let mut adj: Vec<IntMap<f64>> = bound
            .into_iter()
            .map(|n| IntMap::with_capacity_and_hasher(n, Default::default()))
            .collect();
        let threads = threads.clamp(1, n_objects.max(1));
        let mut owned: Vec<Vec<&mut IntMap<f64>>> = (0..threads).map(|_| Vec::new()).collect();
        for (a, m) in adj.iter_mut().enumerate() {
            owned[a % threads].push(m);
        }
        let fill = |t: usize, mut maps: Vec<&mut IntMap<f64>>| {
            for r in requests {
                for a in r.objects.iter().map(|o| o.idx()) {
                    if a % threads != t {
                        continue;
                    }
                    let m = &mut maps[a / threads];
                    for b in r.objects.iter().map(|o| o.idx()).filter(|&b| b != a) {
                        *m.entry(b).or_insert(0.0) += r.probability;
                    }
                }
            }
        };
        std::thread::scope(|s| {
            let mut owned = owned.into_iter().enumerate();
            let first = owned.next();
            for (t, maps) in owned {
                s.spawn(move || fill(t, maps));
            }
            if let Some((t, maps)) = first {
                fill(t, maps);
            }
        });
        let n_edges = adj.iter().map(|m| m.len()).sum::<usize>() / 2;
        CoAccessGraph { adj, n_edges }
    }

    /// Number of objects (graph vertices).
    pub fn n_objects(&self) -> usize {
        self.adj.len()
    }

    /// Number of weighted pairs (graph edges).
    pub fn n_edges(&self) -> usize {
        self.n_edges
    }

    /// Similarity of a pair (0 if never co-accessed).
    pub fn pair_weight(&self, a: ObjectId, b: ObjectId) -> f64 {
        self.adj
            .get(a.idx())
            .and_then(|m| m.get(&b.idx()))
            .copied()
            .unwrap_or(0.0)
    }

    /// All edges as `(a, b, weight)` with `a < b`, **sorted by descending
    /// weight** (ties broken by ids) — the order Kruskal consumes.
    pub fn edges_by_weight_desc(&self) -> Vec<(ObjectId, ObjectId, f64)> {
        self.sorted_keys(f64::NEG_INFINITY)
            .into_iter()
            .map(|k| {
                let (w, a, b) = unpack(k);
                (ObjectId(a as u32), ObjectId(b as u32), w)
            })
            .collect()
    }

    /// Packed keys of the edges weighing at least `min_weight`, in
    /// descending key order (heaviest edge first).
    pub(crate) fn sorted_keys(&self, min_weight: f64) -> Vec<u128> {
        let mut keys: Vec<u128> = self
            .adj
            .iter()
            .enumerate()
            .flat_map(|(a, m)| {
                m.iter()
                    .filter(move |&(&b, &w)| a < b && w >= min_weight)
                    .map(move |(&b, &w)| pack(w, a, b))
            })
            .collect();
        keys.sort_unstable_by(|x, y| y.cmp(x));
        keys
    }

    /// The per-object adjacency, by value.
    pub(crate) fn into_adjacency(self) -> Vec<IntMap<f64>> {
        self.adj
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(rank: u32, p: f64, objs: &[u32]) -> Request {
        Request {
            rank,
            probability: p,
            objects: objs.iter().map(|&o| ObjectId(o)).collect(),
        }
    }

    #[test]
    fn weights_accumulate_across_requests() {
        let reqs = vec![req(0, 0.5, &[0, 1, 2]), req(1, 0.3, &[1, 2, 3])];
        let g = CoAccessGraph::from_requests(5, &reqs);
        assert_eq!(g.n_objects(), 5);
        // (1,2) appears in both requests.
        assert!((g.pair_weight(ObjectId(1), ObjectId(2)) - 0.8).abs() < 1e-12);
        // (0,1) only in the first.
        assert!((g.pair_weight(ObjectId(0), ObjectId(1)) - 0.5).abs() < 1e-12);
        // (0,3) never together.
        assert_eq!(g.pair_weight(ObjectId(0), ObjectId(3)), 0.0);
        // Symmetric.
        assert_eq!(
            g.pair_weight(ObjectId(2), ObjectId(1)),
            g.pair_weight(ObjectId(1), ObjectId(2))
        );
        // Self-similarity is not a thing.
        assert_eq!(g.pair_weight(ObjectId(1), ObjectId(1)), 0.0);
    }

    #[test]
    fn edge_count_is_union_of_pairs() {
        let reqs = vec![req(0, 0.5, &[0, 1, 2]), req(1, 0.5, &[1, 2, 3])];
        let g = CoAccessGraph::from_requests(4, &reqs);
        // Pairs: {01,02,12} ∪ {12,13,23} = 5 distinct.
        assert_eq!(g.n_edges(), 5);
    }

    #[test]
    fn edges_sorted_descending_deterministically() {
        let reqs = vec![
            req(0, 0.4, &[0, 1]),
            req(1, 0.4, &[2, 3]),
            req(2, 0.2, &[0, 2]),
        ];
        let g = CoAccessGraph::from_requests(4, &reqs);
        let edges = g.edges_by_weight_desc();
        assert_eq!(edges.len(), 3);
        // Two ties at 0.4 break by smaller first id.
        assert_eq!(edges[0].0, ObjectId(0));
        assert_eq!(edges[0].1, ObjectId(1));
        assert_eq!(edges[1].0, ObjectId(2));
        assert_eq!(edges[1].1, ObjectId(3));
        assert!((edges[2].2 - 0.2).abs() < 1e-12);
    }

    #[test]
    fn empty_requests_give_empty_graph() {
        let g = CoAccessGraph::from_requests(10, &[]);
        assert_eq!(g.n_edges(), 0);
        assert!(g.edges_by_weight_desc().is_empty());
    }

    #[test]
    #[should_panic(expected = "finite p >= 0")]
    fn negative_probability_is_rejected() {
        // A negative weight's IEEE bits would sort above every positive one.
        let _ = CoAccessGraph::from_requests(3, &[req(0, -0.5, &[0, 1, 2])]);
    }

    #[test]
    fn packed_keys_order_like_weight_then_ids() {
        let (a, b) = (pack(0.5, 3, 9), pack(0.5, 3, 10));
        assert!(a > b, "equal weight: smaller second id first");
        assert!(
            pack(0.5, 2, 100) > a,
            "equal weight: smaller first id first"
        );
        assert!(pack(0.5000001, 7, 8) > pack(0.5, 0, 1), "heavier first");
        assert!(pack(1e-300, 0, 1) > pack(0.0, 0, 1));
        assert_eq!(
            unpack(pack(0.375, 12, 4_000_000_000)),
            (0.375, 12, 4_000_000_000)
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha12Rng;

    /// Overlapping requests with arbitrary (non-dyadic) probabilities, so
    /// that a pair's weight bits depend on the summation order.
    fn random_requests(seed: u64, n_obj: u32, n_req: usize) -> Vec<Request> {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        (0..n_req)
            .map(|rank| {
                let k = rng.gen_range(2..=n_obj.min(12));
                let mut objects: Vec<_> =
                    (0..k).map(|_| ObjectId(rng.gen_range(0..n_obj))).collect();
                objects.sort_unstable();
                objects.dedup();
                Request {
                    rank: rank as u32,
                    probability: rng.gen_range(0.0..1.0) / 3.0 + 1e-9,
                    objects,
                }
            })
            .collect()
    }

    /// Every pair's `(a, b, weight bits)`, in object order.
    fn weight_bits(g: &CoAccessGraph) -> Vec<(usize, usize, u64)> {
        let mut bits: Vec<_> = g
            .adj
            .iter()
            .enumerate()
            .flat_map(|(a, m)| m.iter().map(move |(&b, &w)| (a, b, w.to_bits())))
            .collect();
        bits.sort_unstable();
        bits
    }

    proptest! {
        /// Weight bits, both copies of every edge, and the sorted edge
        /// list do not depend on the number of build threads.
        #[test]
        fn weights_are_bit_identical_for_any_thread_count(
            seed in any::<u64>(),
            n_obj in 2u32..50,
            n_req in 0usize..40,
        ) {
            let reqs = random_requests(seed, n_obj, n_req);
            let one = CoAccessGraph::build(n_obj as usize, &reqs, 1);
            let bits = weight_bits(&one);
            for &(a, b, w) in &bits {
                prop_assert_eq!(one.adj[b][&a].to_bits(), w, "edge ({}, {}) asymmetric", a, b);
            }
            let edges = one.edges_by_weight_desc();
            for threads in [2, 3, 7] {
                let g = CoAccessGraph::build(n_obj as usize, &reqs, threads);
                prop_assert_eq!(&weight_bits(&g), &bits, "{} threads", threads);
                prop_assert_eq!(g.n_edges(), one.n_edges());
                let e = g.edges_by_weight_desc();
                prop_assert!(
                    e.iter().zip(&edges).all(|(x, y)| x.0 == y.0 && x.1 == y.1 && x.2.to_bits() == y.2.to_bits())
                        && e.len() == edges.len(),
                    "{} threads reorder the edges", threads
                );
            }
        }
    }
}
