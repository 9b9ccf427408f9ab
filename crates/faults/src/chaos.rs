//! Seeded process-level chaos for the serve runtime: shard kills and
//! shard stalls, planned up front the way [`crate::FaultPlan`] plans
//! hardware faults.
//!
//! Hardware faults live in *virtual* time; process chaos cannot — a
//! shard crash is an event of the actor runtime, not of the simulated
//! tape system, and wall-clock instants are not reproducible. A
//! [`ChaosPlan`] therefore keys every event on the target shard's
//! **cumulative accepted submission count**: "kill shard 2 after its
//! 37th accepted submission". The serve supervisor is the only writer
//! of each shard's submission channel, so it can inject the event as an
//! in-band poison message immediately after the triggering submission —
//! FIFO delivery then guarantees the shard dies (or stalls) having
//! processed *exactly* that prefix of its log, no matter how OS threads
//! interleave. That is what makes a chaos run replayable from
//! `(seed, shards, chaos-seed)`.
//!
//! Restart backoff is measured in the same currency — global ingestion
//! *draws* — as a capped exponential: the `k`-th restart of a shard
//! waits `min(cap, base · 2^k)` draws after the death is detected.
//! Requests routed to the shard inside that window are shed (counted,
//! never silently dropped).

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};

/// Seed-domain separator for chaos-plan generation (distinct from the
/// hardware-fault salt `0xFA07`).
const CHAOS_SEED_SALT: u64 = 0xC4A05;

/// What an injected chaos event does to its shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChaosKind {
    /// The shard actor dies immediately: no drain, no report, its
    /// engine state is gone. The supervisor restarts it from the
    /// submission log after the backoff window.
    Kill,
    /// The shard actor wedges: it keeps consuming its channel (so
    /// ingestion never blocks on it) but does no work and never
    /// acknowledges a liveness tick again. The supervisor detects it at
    /// the next snapshot barrier — or, failing that, the drain
    /// watchdog surfaces it as a counted failure.
    Stall,
}

/// One planned chaos event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChaosEvent {
    /// Fires when the shard's cumulative accepted submissions reach
    /// this count (1-based: `after == 1` fires right after the first
    /// accepted submission). Counts keep growing across restarts, so an
    /// event never re-fires on a replayed prefix.
    pub after: u64,
    /// Kill or stall.
    pub kind: ChaosKind,
}

/// Chaos-process parameters. Like [`crate::FaultSpec`], every rate is
/// an expectation realised by a seeded RNG; a zero rate makes no draws.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChaosSpec {
    /// RNG seed for plan generation.
    pub seed: u64,
    /// Expected kills per shard inside the horizon.
    pub kills_per_shard: f64,
    /// Expected stalls per shard inside the horizon.
    pub stalls_per_shard: f64,
    /// Events are placed uniformly over `1..=horizon_submissions`
    /// cumulative accepted submissions per shard. Events beyond a
    /// shard's actual traffic simply never fire.
    pub horizon_submissions: u64,
    /// Restart backoff base, in global ingestion draws (0 = restart at
    /// the very next draw).
    pub restart_base_draws: u64,
    /// Restart backoff cap, in global ingestion draws.
    pub restart_cap_draws: u64,
}

impl ChaosSpec {
    /// A spec that injects nothing.
    pub fn none(seed: u64) -> ChaosSpec {
        ChaosSpec {
            seed,
            kills_per_shard: 0.0,
            stalls_per_shard: 0.0,
            horizon_submissions: 0,
            restart_base_draws: 0,
            restart_cap_draws: 0,
        }
    }

    /// A moderate spec for smoke/bench runs: a couple of kills and one
    /// stall expected per shard over `horizon` submissions, immediate
    /// first restart, capped exponential thereafter.
    pub fn moderate(seed: u64, horizon: u64) -> ChaosSpec {
        ChaosSpec {
            seed,
            kills_per_shard: 2.0,
            stalls_per_shard: 1.0,
            horizon_submissions: horizon,
            restart_base_draws: 8,
            restart_cap_draws: 256,
        }
    }

    /// Whether both chaos processes are disabled.
    pub fn is_zero(&self) -> bool {
        self.horizon_submissions == 0
            || (self.kills_per_shard <= 0.0 && self.stalls_per_shard <= 0.0)
    }
}

/// A fully realised chaos timetable: per shard, the sorted list of
/// kill/stall events. Generated once, consulted read-only by the serve
/// supervisor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosPlan {
    spec: ChaosSpec,
    /// Per shard: events sorted by `after`, at most one per count.
    events: Vec<Vec<ChaosEvent>>,
}

impl ChaosPlan {
    /// Realises `spec` for `shards` shards. Draw order is fixed (shard
    /// by shard; kills then stalls within a shard) so plans reproduce
    /// across runs and platforms.
    pub fn generate(spec: &ChaosSpec, shards: usize) -> ChaosPlan {
        let mut rng = ChaCha12Rng::seed_from_u64(spec.seed ^ CHAOS_SEED_SALT);
        let horizon = spec.horizon_submissions;
        // Knuth's product-of-uniforms Poisson sampler, as in the
        // hardware fault plan: expected rates are small.
        fn poisson(rng: &mut ChaCha12Rng, mean: f64) -> usize {
            if mean <= 0.0 {
                return 0;
            }
            let threshold = (-mean).exp();
            let mut count = 0usize;
            let mut p = 1.0;
            loop {
                p *= rng.gen_range(f64::EPSILON..1.0f64);
                if p <= threshold {
                    return count;
                }
                count += 1;
            }
        }
        fn draw_at(rng: &mut ChaCha12Rng, horizon: u64) -> u64 {
            (1 + (rng.gen_range(0.0..1.0f64) * horizon as f64) as u64).min(horizon)
        }
        let mut events = Vec::with_capacity(shards);
        for _ in 0..shards {
            let mut slots: std::collections::BTreeMap<u64, ChaosKind> =
                std::collections::BTreeMap::new();
            if horizon > 0 {
                let kills = poisson(&mut rng, spec.kills_per_shard);
                let stalls = poisson(&mut rng, spec.stalls_per_shard);
                for _ in 0..kills {
                    let at = draw_at(&mut rng, horizon);
                    slots.entry(at).or_insert(ChaosKind::Kill);
                }
                for _ in 0..stalls {
                    let at = draw_at(&mut rng, horizon);
                    slots.entry(at).or_insert(ChaosKind::Stall);
                }
            }
            events.push(
                slots
                    .into_iter()
                    .map(|(after, kind)| ChaosEvent { after, kind })
                    .collect(),
            );
        }
        ChaosPlan {
            spec: *spec,
            events,
        }
    }

    /// The empty plan for `shards` shards: no chaos, ever. A supervised
    /// run under it injects nothing — the plain sharded service.
    pub fn zero(shards: usize) -> ChaosPlan {
        ChaosPlan {
            spec: ChaosSpec::none(0),
            events: vec![Vec::new(); shards],
        }
    }

    /// The spec this plan realises.
    pub fn spec(&self) -> &ChaosSpec {
        &self.spec
    }

    /// Whether the plan contains no events at all.
    pub fn is_zero(&self) -> bool {
        self.events.iter().all(Vec::is_empty)
    }

    /// Number of shards the plan was generated for.
    pub fn shards(&self) -> usize {
        self.events.len()
    }

    /// The events of one shard, sorted ascending by `after` (empty for
    /// shards beyond the plan).
    pub fn shard_events(&self, shard: usize) -> &[ChaosEvent] {
        self.events.get(shard).map_or(&[], Vec::as_slice)
    }

    /// Total planned kills.
    pub fn n_kills(&self) -> usize {
        self.events
            .iter()
            .flatten()
            .filter(|e| e.kind == ChaosKind::Kill)
            .count()
    }

    /// Total planned stalls.
    pub fn n_stalls(&self) -> usize {
        self.events
            .iter()
            .flatten()
            .filter(|e| e.kind == ChaosKind::Stall)
            .count()
    }

    /// Backoff before the `restart`-th restart of a shard (0-based), in
    /// global ingestion draws: `min(cap, base · 2^restart)`.
    pub fn restart_backoff_draws(&self, restart: u64) -> u64 {
        let base = self.spec.restart_base_draws;
        let cap = self.spec.restart_cap_draws;
        if base == 0 {
            return 0;
        }
        let shift = restart.min(32) as u32;
        base.saturating_mul(1u64.checked_shl(shift).unwrap_or(u64::MAX))
            .min(cap.max(base))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ChaosSpec {
        ChaosSpec::moderate(7, 500)
    }

    #[test]
    fn zero_plan_is_empty() {
        let plan = ChaosPlan::zero(4);
        assert!(plan.is_zero());
        assert_eq!(plan.shards(), 4);
        assert_eq!(plan.n_kills(), 0);
        assert_eq!(plan.n_stalls(), 0);
        assert!(plan.shard_events(2).is_empty());
        assert!(plan.shard_events(99).is_empty());
        assert!(ChaosSpec::none(9).is_zero());
    }

    #[test]
    fn generation_is_deterministic_and_seed_sensitive() {
        let a = ChaosPlan::generate(&spec(), 3);
        let b = ChaosPlan::generate(&spec(), 3);
        assert_eq!(a, b);
        let c = ChaosPlan::generate(&ChaosSpec { seed: 8, ..spec() }, 3);
        assert_ne!(a, c, "different seeds must realise different plans");
    }

    #[test]
    fn moderate_spec_realises_events_in_range() {
        // Aggregate over seeds so both kinds appear with certainty.
        let mut kills = 0;
        let mut stalls = 0;
        for seed in 0..20 {
            let plan = ChaosPlan::generate(&ChaosSpec { seed, ..spec() }, 4);
            kills += plan.n_kills();
            stalls += plan.n_stalls();
            for s in 0..plan.shards() {
                let events = plan.shard_events(s);
                for e in events {
                    assert!((1..=500).contains(&e.after));
                }
                // Sorted, and at most one event per submission count.
                for w in events.windows(2) {
                    if let [a, b] = w {
                        assert!(a.after < b.after);
                    }
                }
            }
        }
        assert!(kills > 0 && stalls > 0);
    }

    #[test]
    fn zero_rates_make_no_events() {
        let plan = ChaosPlan::generate(&ChaosSpec::none(3), 5);
        assert!(plan.is_zero());
        assert_eq!(plan.shards(), 5);
    }

    #[test]
    fn backoff_is_capped_exponential_in_draws() {
        let plan = ChaosPlan::generate(
            &ChaosSpec {
                restart_base_draws: 4,
                restart_cap_draws: 20,
                ..spec()
            },
            1,
        );
        assert_eq!(plan.restart_backoff_draws(0), 4);
        assert_eq!(plan.restart_backoff_draws(1), 8);
        assert_eq!(plan.restart_backoff_draws(2), 16);
        assert_eq!(plan.restart_backoff_draws(3), 20); // capped
        assert_eq!(plan.restart_backoff_draws(63), 20); // shift saturates
        let immediate = ChaosPlan::zero(1);
        assert_eq!(immediate.restart_backoff_draws(5), 0);
    }
}
