//! # tapesim-serve
//!
//! A long-running, sharded scheduling service over the batch simulator:
//! the substrate for sustained-traffic experiments (TALICS³-style
//! multi-library archival serving) that the one-shot `tapesim sched`
//! runs cannot express.
//!
//! The workspace is offline and shim-only — no async runtime — so the
//! service is a hand-rolled actor system on std threads and bounded
//! mpsc channels, with one entry point, [`supervisor_run`]:
//!
//! * an **ingestion stage** on the caller's thread drawing the canonical
//!   seeded demand stream ([`tapesim_workload::RequestStream`]) and
//!   fanning each request out to the library shards holding its tapes,
//!   with explicit backpressure (bounded `sync_channel`: a slow shard
//!   stalls ingestion, nothing is ever dropped);
//! * **N library shards**, each a thread owning the libraries
//!   `lib % N == shard` and running its own virtual-time event loop — a
//!   [`tapesim_sched::ShardEngine`] over the shard's slice of the job
//!   catalog and of the (globally generated, per-shard restricted)
//!   fault plan ([`tapesim_sched::LibrarySplit`]);
//! * **in-band snapshot barriers**: every `snapshot_every` submissions
//!   ingestion sends each shard a tick on the same FIFO as its
//!   submissions, waits for every shard's registry at that tick, and
//!   merges them in shard order into a [`tapesim_obs::RegistrySnapshot`]
//!   — so the snapshot *sequence* is deterministic, not just the final
//!   state;
//! * **clean shutdown**: ingestion closes the shard channels, shards
//!   drain in-flight work ([`ShardEngine::close`] → `finish`), and the
//!   caller joins everything into one [`ServeReport`].
//!
//! # Supervision
//!
//! The same loop is self-healing: the supervisor (the ingestion stage)
//! owns every shard's submission channel and accepted-submission log,
//! injects seeded [`tapesim_faults::ChaosPlan`] kills/stalls as in-band
//! poison messages, detects death via channel disconnect and
//! snapshot-tick acknowledgements, and restarts dead shards from a
//! [`tapesim_sched::EngineCheckpoint`] replay after capped-exponential
//! backoff. A [`HealthPolicy`] over the deterministic snapshot stream
//! (`Healthy → Degraded → Overloaded`) sheds at admission when the
//! service is queue-unstable — every shed counted, conservation
//! `submitted = served + lost + shed + rejected`. An empty
//! `ChaosPlan` with [`SuperviseConfig::default`] (no health policy) is
//! the plain service: nothing is injected, shed or restarted.
//!
//! # Determinism
//!
//! A single-shard run reproduces the equivalent `tapesim sched` batch
//! run bit for bit (same records, same metric bits), and a multi-shard
//! run is a pure function of `(seed, shard_count)`: same inputs, same
//! merged canonical registry, same snapshot sequence, same joined
//! records. A chaotic run replays identically from
//! `(seed, shards, chaos-seed)`. All pinned by tests in this crate.
//!
//! [`ShardEngine::close`]: tapesim_sched::ShardEngine::close

pub mod health;
pub mod runtime;
pub mod supervisor;

pub use health::{Health, HealthPolicy};
pub use runtime::{FailureReason, ServeConfig, ServeReport, ShardFailure, ShardStats};
pub use supervisor::{supervisor_run, SuperviseConfig};
