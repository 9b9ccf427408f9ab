//! Backpressure conservation law (ISSUE satellite): a bounded ingestion
//! channel feeding slow shards never drops or duplicates a request.
//! Whatever the channel bound, shard count, snapshot cadence or demand
//! seed, at shutdown `submitted = served + lost`, nothing is rejected,
//! and every global id appears at most once in the joined records.
//!
//! The channel bound goes down to 1 — maximal backpressure — so the
//! ingestion thread spends most of the run blocked on full channels;
//! any drop/duplicate bug in the hand-rolled actor plumbing shows up
//! here as a conservation violation.
//!
//! The chaos family extends the law to the supervised runtime: across a
//! `(seed, shards, kill-schedule)` grid — still at channel bound 1 —
//! killing and restarting shards mid-stream must keep
//! `submitted = served + lost + shed + rejected` closed, every joined
//! record id unique, and the whole run replayable bit for bit.

use proptest::prelude::*;
use std::collections::BTreeMap;
use tapesim_faults::{ChaosPlan, ChaosSpec, FaultPlan};
use tapesim_model::specs::paper_table1;
use tapesim_model::Bytes;
use tapesim_placement::{ParallelBatchPlacement, PlacementPolicy};
use tapesim_sched::PolicyKind;
use tapesim_serve::{supervisor_run, ServeConfig, ServeReport, SuperviseConfig};
use tapesim_sim::Simulator;
use tapesim_workload::{ArrivalSpec, ObjectSizeSpec, RequestSpec, Workload, WorkloadSpec};

/// A small, fast fixture: enough objects that requests span several
/// tapes (real fan-out across shards), small enough that a proptest
/// case finishes in milliseconds.
fn setup(seed: u64) -> (Simulator, Workload) {
    let w = WorkloadSpec {
        objects: 600,
        sizes: ObjectSizeSpec::default().calibrated(Bytes::gb(2)),
        requests: RequestSpec {
            count: 15,
            min_objects: 4,
            max_objects: 10,
            count_shape: 1.0,
            alpha: 0.3,
        },
        seed,
    }
    .generate();
    let cfg = paper_table1();
    let p = ParallelBatchPlacement::with_m(2).place(&w, &cfg).unwrap();
    (Simulator::with_natural_policy(p, 2), w)
}

/// The plain sharded service: no chaos, no health policy, no replicas.
fn serve(
    sim: &Simulator,
    w: &Workload,
    kind: PolicyKind,
    cfg: &ServeConfig,
    plan: &FaultPlan,
) -> ServeReport {
    supervisor_run(
        sim,
        w,
        kind,
        cfg,
        plan,
        &BTreeMap::new(),
        &ChaosPlan::zero(cfg.shards),
        &SuperviseConfig::default(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn bounded_ingestion_conserves_requests(
        wl_seed in 1u64..500,
        arrival_seed in 1u64..500,
        samples in 1usize..48,
        shards in 1usize..=3,
        channel_bound in 1usize..=3,
        snapshot_every in 0usize..8,
        kind_pick in 0usize..3,
    ) {
        let (sim, w) = setup(wl_seed);
        let plan = FaultPlan::zero(sim.placement().config());
        let kind = match kind_pick {
            0 => PolicyKind::Fcfs,
            1 => PolicyKind::BatchByTape,
            _ => PolicyKind::SltfTape,
        };
        let report = serve(
            &sim,
            &w,
            kind,
            &ServeConfig::new(
                ArrivalSpec { per_hour: 120.0, seed: arrival_seed },
                samples,
            )
            .with_shards(shards)
            .with_channel_bound(channel_bound)
            .with_snapshot_every(snapshot_every),
            &plan,
        );

        // Conservation: nothing dropped, nothing duplicated, nothing
        // rejected in a clean shutdown.
        prop_assert_eq!(report.submitted, samples as u64);
        prop_assert_eq!(report.submitted, report.served + report.lost);
        prop_assert_eq!(report.rejected, 0);
        prop_assert!(report.is_clean());

        // Every joined record answers a distinct ingested id.
        let mut ids: Vec<usize> =
            report.records.iter().map(|r| r.request).collect();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        prop_assert_eq!(ids.len(), before, "duplicated request id");
        prop_assert!(ids.iter().all(|&id| id < samples));

        // The per-shard ledgers agree with the global ones.
        let part_served: u64 = report.per_shard.iter().map(|s| s.served).sum();
        let part_sub: u64 = report.per_shard.iter().map(|s| s.submitted).sum();
        prop_assert!(part_served >= report.served, "fan-out parts >= joined");
        prop_assert!(part_sub >= report.submitted);

        // Snapshot rounds: one per full cadence interval, seq ascending.
        match samples.checked_div(snapshot_every) {
            Some(rounds) => {
                prop_assert_eq!(report.snapshots.len(), rounds);
                for (i, s) in report.snapshots.iter().enumerate() {
                    prop_assert_eq!(s.seq, i as u64 + 1);
                }
            }
            None => prop_assert!(report.snapshots.is_empty()),
        }
    }
}

proptest! {
    // Each case runs the supervised service twice (for the replay
    // check), and a stalled barrier costs a watchdog timeout — so this
    // family runs fewer, heavier cases than the backpressure one.
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn chaos_restarts_conserve_requests_and_replay(
        wl_seed in 1u64..300,
        arrival_seed in 1u64..300,
        samples in 6usize..36,
        shards in 1usize..=3,
        chaos_seed in 1u64..1000,
        kills in 1u32..=3,
        stall_flag in 0u32..=1,
        kind_pick in 0usize..3,
    ) {
        let spec = ChaosSpec {
            seed: chaos_seed,
            kills_per_shard: kills as f64,
            stalls_per_shard: stall_flag as f64,
            horizon_submissions: (samples / shards).max(1) as u64,
            restart_base_draws: 1,
            restart_cap_draws: 4,
        };
        let kind = match kind_pick {
            0 => PolicyKind::Fcfs,
            1 => PolicyKind::BatchByTape,
            _ => PolicyKind::SltfTape,
        };
        let run = || {
            let (sim, w) = setup(wl_seed);
            let plan = FaultPlan::zero(sim.placement().config());
            supervisor_run(
                &sim,
                &w,
                kind,
                &ServeConfig::new(
                    ArrivalSpec { per_hour: 120.0, seed: arrival_seed },
                    samples,
                )
                .with_shards(shards)
                .with_channel_bound(1)
                .with_snapshot_every((samples / 3).max(1)),
                &plan,
                &BTreeMap::new(),
                &ChaosPlan::generate(&spec, shards),
                // Injected stalls are detected deterministically (they
                // never ack a tick), so the watchdog only bounds the
                // wait — keep it short.
                &SuperviseConfig::new().with_watchdog_ms(400),
            )
        };
        let a = run();

        // The generalized conservation ledger closes under any
        // kill/stall schedule, with no silent losses.
        prop_assert_eq!(a.submitted, samples as u64);
        prop_assert_eq!(
            a.submitted,
            a.served + a.lost + a.shed + a.rejected,
            "ledger must close: served {} lost {} shed {} rejected {}",
            a.served, a.lost, a.shed, a.rejected
        );
        prop_assert!(a.is_clean());

        // No duplicated record even across restart incarnations.
        let mut ids: Vec<usize> = a.records.iter().map(|r| r.request).collect();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        prop_assert_eq!(ids.len(), before, "duplicated request id");
        prop_assert_eq!(ids.len() as u64, a.served);
        prop_assert!(ids.iter().all(|&id| id < samples));

        // The whole run — failures, restarts, books — replays from
        // `(seed, shards, chaos-seed)`.
        let b = run();
        prop_assert_eq!(&a.registry, &b.registry);
        prop_assert_eq!(&a.records, &b.records);
        prop_assert_eq!(&a.failures, &b.failures);
        prop_assert_eq!(a.restarts, b.restarts);
        prop_assert_eq!(a.shed, b.shed);
    }
}
