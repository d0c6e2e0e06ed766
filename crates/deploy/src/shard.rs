//! Multi-array sharding: carving one [`crate::DeployedNetwork`] across
//! several simulated systolic arrays.
//!
//! A [`BandSet`] is the one way to shard. Every packed conv layer's output
//! rows split across the set's arrays, each array owning a contiguous
//! band of the layer's prepared tiles ([`cc_systolic::RowBand`]). The
//! bands of one layer run concurrently (scoped threads, one kernel scratch
//! each, through [`TiledScheduler::run_bands`]) and the gather is pure
//! row concatenation — bit-identical to the unsharded kernel by
//! construction, because per-channel quantization stats are precomputed.
//! Pass a set to [`crate::DeployedNetwork::run_batch_banded`] for a whole
//! network or [`crate::DeployedNetwork::run_stage`] for a layer range.
//!
//! Layer cuts are not a second sharding mode: a contiguous layer range is
//! a pipeline *stage*, cut by the min-max DP over
//! [`crate::DeployedNetwork::layer_costs`]
//! ([`cc_systolic::partition_min_max`]) and run with `run_stage` (see
//! `cc-serve`'s pipeline executor). Stages and bands compose: each stage
//! owns its own set.
//!
//! The shards share one prepared op list (the network's `Arc` internals);
//! nothing is re-prepared per shard. A set reports both the *merged*
//! counters ([`BandSet::merged_stats`]) — bit-identical to the unsharded
//! run's, cycles included (the gather substitutes the
//! sequential-equivalent cycle count) — and the concurrent *makespan*
//! ([`BandSet::makespan_cycles`]), which is what shrinks as shards are
//! added.
//!
//! Fleets need not be homogeneous: [`BandSet::with_fleet`] gives each
//! shard its own [`ArrayGeometry`]. Banding is then weighted by each
//! target's cycle model (a weaker array gets fewer rows), per-shard stats
//! attribute cycles under each shard's own geometry, and the merged view
//! still reports the base array's sequential equivalent — fleet-invariant
//! by construction.

use cc_systolic::tiled::{BandAction, BandOutcome, BandRun, PreparedPacked, TiledScheduler};
use cc_systolic::{ArrayGeometry, RowBand, RunScratch, SimStats};
use cc_tensor::quant::QuantMatrix;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cached shard plans a [`BandSet`] retains (one per conv layer it has
/// seen; bounded so a set rotating across many models cannot grow without
/// limit).
const MAX_CACHED_PLANS: usize = 32;

/// Conv-scatter records a traced [`BandSet`] retains between drains
/// ([`BandSet::take_conv_log`]); enough for every conv of a deep model's
/// batch, bounded so an undrained set cannot grow without limit.
const MAX_CONV_LOG: usize = 1024;

/// One traced conv scatter: when the gather finished and how long each
/// shard lane spent in the kernel for this conv alone. Serving-side
/// tracing turns these into per-lane span events (the span is
/// reconstructed as `ended - lane_busy[lane] .. ended` — lanes run
/// concurrently, so each lane's busy time ends at the gather).
#[derive(Clone, Debug)]
pub struct ConvTrace {
    /// When the scatter's gather completed.
    pub ended: Instant,
    /// Kernel nanoseconds per shard lane for this conv (index = lane).
    pub lane_busy: Vec<u64>,
}

/// Decides what each shard lane does on each of its band executions — the
/// deterministic fault-injection plane. Implementations must be pure
/// functions of `(lane, run_index)` (plus their own seed) so a chaos run
/// is reproducible: `run_index` is the count of band executions the lane
/// has performed in this [`BandSet`], advancing only when the lane
/// actually runs (a quarantined lane's clock is frozen).
pub trait FaultInjector: Send + Sync + std::fmt::Debug {
    /// The action lane `lane` takes on its `run_index`-th band execution.
    fn band_action(&self, lane: usize, run_index: u64) -> BandAction;
}

/// Circuit-breaker and retry thresholds for [`BandSet`] shard health.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardHealthConfig {
    /// Errors (poisoned/dead bands) before a lane is quarantined.
    pub trip_errors: u32,
    /// Consecutive stalls before a slow lane is quarantined.
    pub trip_stalls: u32,
    /// Convs after quarantine until a half-open probe readmits the lane.
    /// A readmitted lane re-trips on its first error; a success fully
    /// clears its record.
    pub probe_after: u64,
    /// Re-runs of one conv before giving up (throwing
    /// [`BandFaultError`]).
    pub retry_budget: u32,
    /// Base backoff slept between retries (scaled by the attempt number).
    pub backoff: Duration,
}

impl Default for ShardHealthConfig {
    fn default() -> Self {
        ShardHealthConfig {
            trip_errors: 2,
            trip_stalls: 16,
            probe_after: 64,
            retry_budget: 3,
            backoff: Duration::from_micros(50),
        }
    }
}

/// One recovery incident inside a [`BandSet`], drained by the serving
/// layer ([`BandSet::take_health_events`]) for trace/telemetry export.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HealthEvent {
    /// A band execution on `lane` returned a wrong or missing result.
    Fault {
        /// The erroring shard lane.
        lane: usize,
    },
    /// `lane` tripped the breaker and was removed from the active set.
    Quarantine {
        /// The quarantined shard lane.
        lane: usize,
    },
    /// A half-open probe readmitted `lane` to the active set.
    Readmit {
        /// The readmitted shard lane.
        lane: usize,
    },
    /// A faulted conv was re-run (attempt number, 1-based).
    Retry {
        /// Which retry this was for the conv.
        attempt: u32,
    },
}

/// Health events a [`BandSet`] retains between drains; bounded so an
/// undrained set cannot grow without limit.
const MAX_HEALTH_EVENTS: usize = 256;

/// Panic payload thrown when one conv exhausts its fault-retry budget (or
/// its deadline) without a clean run — every active lane kept faulting.
/// The serving worker catches it ([`std::panic::catch_unwind`]) and
/// resolves the batch's tickets with a fault error instead of hanging.
#[derive(Clone, Copy, Debug)]
pub struct BandFaultError {
    /// Re-runs attempted before giving up.
    pub attempts: u32,
    /// True when the retry loop stopped early because the batch deadline
    /// passed.
    pub deadline_blown: bool,
}

impl std::fmt::Display for BandFaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "band execution still faulted after {} attempt(s){}",
            self.attempts,
            if self.deadline_blown { " (deadline passed)" } else { "" }
        )
    }
}

/// Cache key for a prepared matrix's shard plan. The pointer identifies
/// the layer (the prepared op list lives behind the network's `Arc`, so
/// it is stable while any executor holds the network); the shape *and
/// array-geometry* fields make a stale entry after address reuse
/// *harmless* rather than relying on the pointer alone — the tile grid
/// depends only on (rows, groups, array rows, array cols), so a plan
/// matching all of them is still a structurally valid banding of the new
/// matrix (worst case: transiently suboptimal balance, never wrong rows).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct PlanKey {
    ptr: usize,
    rows: usize,
    groups: usize,
    tiles: usize,
    array_rows: usize,
    array_cols: usize,
}

impl PlanKey {
    fn of(tiles: &PreparedPacked) -> Self {
        PlanKey {
            ptr: tiles as *const PreparedPacked as usize,
            rows: tiles.rows(),
            groups: tiles.groups(),
            tiles: tiles.num_tiles(),
            array_rows: tiles.config().rows,
            array_cols: tiles.config().cols,
        }
    }
}

/// The row-band shard environment one executor owns: per-shard kernel
/// scratches (long-lived — shard `i ≥ 1` reuses `aux[i-1]` across every
/// layer and batch), per-shard busy/cycle accounting, and the merged
/// counters of everything run since the last reset. Hold one per serving
/// worker or pipeline stage and pass it to
/// [`crate::DeployedNetwork::run_batch_banded`] /
/// [`crate::DeployedNetwork::run_stage`].
#[derive(Debug)]
pub struct BandSet {
    shards: usize,
    /// Per-shard array geometries of a heterogeneous fleet; `None` means
    /// every shard is the preparing config's array (the homogeneous path,
    /// planned by op count). With a fleet, plans are cost-weighted by each
    /// geometry's cycle model and per-shard stats attribute cycles under
    /// that geometry.
    fleet: Option<Vec<ArrayGeometry>>,
    aux: Vec<RunScratch>,
    shard_totals: Vec<SimStats>,
    merged: SimStats,
    busy_nanos: Vec<u64>,
    /// LRU shard-plan cache (most recently used last), keyed on the
    /// prepared matrix and the active lanes the plan was banded over: the
    /// per-conv partitioning DP runs once per layer, not once per batch,
    /// and quarantine re-plans are distinct entries, so flapping between
    /// fleet states never recomputes it.
    plans: Vec<(PlanKey, Vec<usize>, Vec<RowBand>)>,
    /// When set, every conv scatter appends a [`ConvTrace`] (bounded at
    /// [`MAX_CONV_LOG`]) for serving-side span export. Off by default:
    /// the untraced path pays one branch per conv.
    tracing: bool,
    conv_log: Vec<ConvTrace>,
    /// The fault-injection plane; `None` (the default) keeps the
    /// zero-overhead healthy path.
    injector: Option<Arc<dyn FaultInjector>>,
    health_cfg: ShardHealthConfig,
    /// Active (non-quarantined) lane ids, ascending; band `i` of a plan
    /// runs on lane `active[i]`.
    active: Vec<usize>,
    quarantined: Vec<bool>,
    lane_errors: Vec<u32>,
    lane_stalls: Vec<u32>,
    /// Band executions each lane has performed (the injector's clock).
    run_counts: Vec<u64>,
    /// Convs this set has run (the probe clock).
    convs: u64,
    /// Conv count at which each quarantined lane's half-open probe fires.
    probe_at: Vec<u64>,
    events: Vec<HealthEvent>,
    /// Batch deadline the retry loop respects (set per batch by the
    /// serving worker; `None` = retry on budget alone).
    retry_deadline: Option<Instant>,
    /// Reused per-conv scatter scratch.
    actions: Vec<BandAction>,
    runs: Vec<BandRun>,
    active_fleet: Vec<ArrayGeometry>,
}

impl BandSet {
    /// A shard set of `shards` simulated arrays (1 = the serial path with
    /// stats accounting).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        BandSet {
            shards,
            fleet: None,
            aux: (1..shards).map(|_| RunScratch::new()).collect(),
            shard_totals: vec![SimStats::default(); shards],
            merged: SimStats::default(),
            busy_nanos: vec![0; shards],
            plans: Vec::new(),
            tracing: false,
            conv_log: Vec::new(),
            injector: None,
            health_cfg: ShardHealthConfig::default(),
            active: (0..shards).collect(),
            quarantined: vec![false; shards],
            lane_errors: vec![0; shards],
            lane_stalls: vec![0; shards],
            run_counts: vec![0; shards],
            convs: 0,
            probe_at: vec![0; shards],
            events: Vec::new(),
            retry_deadline: None,
            actions: Vec::new(),
            runs: Vec::new(),
            active_fleet: Vec::new(),
        }
    }

    /// A shard set over a heterogeneous fleet: shard `i` simulates an
    /// array of `fleet[i]`'s geometry. Plans weight each band by its
    /// target geometry's cycle model and per-shard stats attribute cycles
    /// under that geometry; the gathered outputs stay bit-identical to the
    /// unsharded run regardless of the mix.
    ///
    /// # Panics
    ///
    /// Panics if `fleet` is empty.
    pub fn with_fleet(fleet: Vec<ArrayGeometry>) -> Self {
        assert!(!fleet.is_empty(), "need at least one shard");
        let mut set = Self::new(fleet.len());
        set.fleet = Some(fleet);
        set
    }

    /// The per-shard geometries, when this set models a heterogeneous
    /// fleet.
    pub fn fleet(&self) -> Option<&[ArrayGeometry]> {
        self.fleet.as_deref()
    }

    /// Re-plans the set in place to a new lane count, carrying over the
    /// installed fault injector, health thresholds, and tracing flag
    /// while discarding per-lane health state, cached band plans, and
    /// accumulated stats — a reshaped set starts from a clean bill of
    /// health, exactly like a freshly constructed one. The serving
    /// control plane uses this to retune shard width on a live worker
    /// between batches; outputs stay bit-identical across the reshape
    /// because lane count only repartitions each conv's rows.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn reshape(&mut self, shards: usize) {
        self.reshape_with(BandSet::new(shards));
    }

    /// [`BandSet::reshape`] onto a heterogeneous fleet; the fleet's
    /// length becomes the lane count.
    ///
    /// # Panics
    ///
    /// Panics if `fleet` is empty.
    pub fn reshape_fleet(&mut self, fleet: Vec<ArrayGeometry>) {
        self.reshape_with(BandSet::with_fleet(fleet));
    }

    fn reshape_with(&mut self, mut next: BandSet) {
        next.injector = self.injector.take();
        next.health_cfg = self.health_cfg;
        next.tracing = self.tracing;
        next.retry_deadline = self.retry_deadline;
        *self = next;
    }

    /// Turns per-conv trace logging on or off. Turning it off discards
    /// any undrained log entries.
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
        if !on {
            self.conv_log.clear();
        }
    }

    /// Drains the per-conv trace log accumulated since the last call
    /// (empty unless [`BandSet::set_tracing`] is on).
    pub fn take_conv_log(&mut self) -> Vec<ConvTrace> {
        std::mem::take(&mut self.conv_log)
    }

    /// Number of simulated arrays in the set.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Merged counters of every conv run since the last
    /// [`BandSet::reset_stats`] — bit-identical to what the unsharded
    /// serial run would have reported (work counters sum exactly across
    /// bands; cycles use the sequential equivalent).
    pub fn merged_stats(&self) -> SimStats {
        self.merged
    }

    /// Per-shard accumulated counters since the last reset; a shard's
    /// `cycles` is the time its array spent, so the set's makespan is the
    /// maximum over shards.
    pub fn shard_stats(&self) -> &[SimStats] {
        &self.shard_totals
    }

    /// The shard totals folded as concurrently running arrays
    /// ([`SimStats::merge_concurrent`]): work counters summed, `cycles` =
    /// the set's makespan.
    pub fn concurrent_stats(&self) -> SimStats {
        let mut folded = SimStats::default();
        for s in &self.shard_totals {
            folded.merge_concurrent(s);
        }
        folded
    }

    /// The concurrent makespan in simulated cycles: the busiest shard's
    /// accumulated cycle count since the last reset.
    pub fn makespan_cycles(&self) -> u64 {
        self.concurrent_stats().cycles
    }

    /// Host nanoseconds each shard has spent in the kernel since the last
    /// [`BandSet::reset_busy`] (occupancy telemetry).
    pub fn busy_nanos(&self) -> &[u64] {
        &self.busy_nanos
    }

    /// Zeroes the per-shard and merged counters.
    pub fn reset_stats(&mut self) {
        self.shard_totals.iter_mut().for_each(|s| *s = SimStats::default());
        self.merged = SimStats::default();
    }

    /// Zeroes the per-shard busy clocks.
    pub fn reset_busy(&mut self) {
        self.busy_nanos.iter_mut().for_each(|b| *b = 0);
    }

    /// Installs (or clears) the fault-injection plane. With an injector,
    /// every conv scatter consults it per (lane, run), scores lane health
    /// from the outcomes, quarantines lanes that trip the breaker
    /// (re-planning bands over the survivors — outputs stay bit-identical
    /// by construction, only the partition changes), and re-runs faulted
    /// convs under [`ShardHealthConfig`]'s retry budget.
    pub fn set_fault_injector(&mut self, injector: Option<Arc<dyn FaultInjector>>) {
        self.injector = injector;
    }

    /// Replaces the breaker/retry thresholds (defaults are
    /// [`ShardHealthConfig::default`]).
    pub fn set_health_config(&mut self, cfg: ShardHealthConfig) {
        self.health_cfg = cfg;
    }

    /// Sets the deadline the retry loop respects for subsequent convs:
    /// once it passes, a still-faulted conv gives up immediately instead
    /// of burning the remaining retry budget. `None` retries on budget
    /// alone.
    pub fn set_retry_deadline(&mut self, deadline: Option<Instant>) {
        self.retry_deadline = deadline;
    }

    /// True when a fault injector is installed.
    pub fn has_faults(&self) -> bool {
        self.injector.is_some()
    }

    /// Drains the recovery incidents accumulated since the last call.
    pub fn take_health_events(&mut self) -> Vec<HealthEvent> {
        std::mem::take(&mut self.events)
    }

    /// Currently quarantined lane ids, ascending.
    pub fn quarantined_lanes(&self) -> Vec<usize> {
        (0..self.shards).filter(|&i| self.quarantined[i]).collect()
    }

    /// The active (non-quarantined) lane ids, ascending. Band `i` of the
    /// current plan runs on lane `active_lanes()[i]`.
    pub fn active_lanes(&self) -> &[usize] {
        &self.active
    }

    fn push_event(&mut self, event: HealthEvent) {
        if self.events.len() < MAX_HEALTH_EVENTS {
            self.events.push(event);
        }
    }

    /// Removes `lane` from the active set (never the last lane) and
    /// schedules its half-open probe.
    fn quarantine(&mut self, lane: usize) {
        if self.active.len() <= 1 || self.quarantined[lane] {
            return;
        }
        self.quarantined[lane] = true;
        self.lane_stalls[lane] = 0;
        self.probe_at[lane] = self.convs + self.health_cfg.probe_after;
        self.active.retain(|&l| l != lane);
        self.push_event(HealthEvent::Quarantine { lane });
    }

    /// Readmits quarantined lanes whose probe time has arrived. A
    /// readmitted lane sits one error from re-tripping (half-open): the
    /// first clean run clears it, the first error re-quarantines it.
    fn maybe_probe(&mut self) {
        for lane in 0..self.shards {
            if self.quarantined[lane] && self.convs >= self.probe_at[lane] {
                self.quarantined[lane] = false;
                self.lane_errors[lane] = self.health_cfg.trip_errors.saturating_sub(1);
                self.active.push(lane);
                self.active.sort_unstable();
                self.push_event(HealthEvent::Readmit { lane });
            }
        }
    }

    /// Scatters one prepared conv across the set's arrays and gathers the
    /// band outputs into `primary`'s plane (row concatenation — the plane
    /// ends bit-identical to `run_prepared_with`). This is the one band
    /// path, at every lane count: look up the cached plan, take each
    /// band's action from the injector (every band runs normally without
    /// one), scatter, score the outcomes, and re-run only on an error.
    /// Without an injector no injector clock advances and no retry code
    /// runs.
    ///
    /// # Panics
    ///
    /// Throws [`BandFaultError`] via [`std::panic::panic_any`] when every
    /// attempt faulted; callers that must not die run the batch under
    /// [`std::panic::catch_unwind`]. Internal bookkeeping is updated
    /// *before* the throw, so the set stays consistent and reusable.
    pub(crate) fn run_conv(
        &mut self,
        sched: &TiledScheduler,
        tiles: &PreparedPacked,
        d: &QuantMatrix,
        primary: &mut RunScratch,
    ) {
        let injector = self.injector.clone();
        if injector.is_some() {
            self.convs += 1;
        }
        let mut attempt = 0u32;
        loop {
            if injector.is_some() {
                self.maybe_probe();
            }
            let idx = self.plan_index(tiles, d.cols());
            let plan = &self.plans[idx].2;
            debug_assert!(plan.len() <= self.active.len(), "plan wider than the active set");
            let mut actions = std::mem::take(&mut self.actions);
            actions.clear();
            if let Some(injector) = &injector {
                for &lane in &self.active[..plan.len()] {
                    actions.push(injector.band_action(lane, self.run_counts[lane]));
                    self.run_counts[lane] += 1;
                }
            }
            // The scatter prices band `i` under lane `active[i]`'s
            // geometry, so a re-plan keeps per-geometry attribution.
            let mut active_fleet = std::mem::take(&mut self.active_fleet);
            active_fleet.clear();
            if let Some(fleet) = &self.fleet {
                active_fleet.extend(self.active.iter().map(|&lane| fleet[lane]));
            }
            let mut runs = std::mem::take(&mut self.runs);
            sched.run_bands(
                tiles,
                plan,
                &active_fleet,
                &actions,
                d,
                primary,
                &mut self.aux,
                &mut runs,
            );
            self.actions = actions;
            self.active_fleet = active_fleet;

            // Host time is real on every attempt, successful or not; band
            // `i` ran on lane `active[i]`. Score lane health from the
            // outcomes.
            let mut any_error = false;
            for (band, run) in runs.iter().enumerate() {
                let lane = self.active[band];
                self.busy_nanos[lane] += run.busy_nanos;
                match run.outcome {
                    BandOutcome::Ran => {
                        self.lane_errors[lane] = 0;
                        self.lane_stalls[lane] = 0;
                    }
                    BandOutcome::Stalled => {
                        self.lane_stalls[lane] += 1;
                        if self.lane_stalls[lane] >= self.health_cfg.trip_stalls {
                            self.quarantine(lane);
                        }
                    }
                    BandOutcome::Poisoned | BandOutcome::Dead => {
                        any_error = true;
                        self.lane_errors[lane] += 1;
                        self.push_event(HealthEvent::Fault { lane });
                        if self.lane_errors[lane] >= self.health_cfg.trip_errors {
                            self.quarantine(lane);
                        }
                    }
                }
            }

            if !any_error {
                self.record(tiles, d.cols(), &runs);
                self.runs = runs;
                return;
            }
            self.runs = runs;

            attempt += 1;
            self.push_event(HealthEvent::Retry { attempt });
            let deadline_blown =
                self.retry_deadline.is_some_and(|deadline| Instant::now() >= deadline);
            if attempt > self.health_cfg.retry_budget || deadline_blown {
                std::panic::panic_any(BandFaultError { attempts: attempt, deadline_blown });
            }
            std::thread::sleep(self.health_cfg.backoff * attempt);
        }
    }

    /// Folds one clean conv into the running totals: band `i`'s counters
    /// into lane `active[i]`'s shard (cycles add — an array runs its bands
    /// of successive layers back to back; under a fleet each band's stats
    /// already carry its own geometry's cycle model), and the merged view
    /// gets the *base* array's sequential-equivalent stats, never the
    /// per-geometry band stats, so merged stats stay plan-, fleet- and
    /// fault-invariant. Only the clean attempt is recorded. Also logs the
    /// conv's per-lane busy time when tracing.
    fn record(&mut self, tiles: &PreparedPacked, l: usize, runs: &[BandRun]) {
        if self.tracing && self.conv_log.len() < MAX_CONV_LOG {
            let mut lane_busy = vec![0u64; self.shards];
            for (band, run) in runs.iter().enumerate() {
                lane_busy[self.active[band]] = run.busy_nanos;
            }
            self.conv_log.push(ConvTrace { ended: Instant::now(), lane_busy });
        }
        for (band, run) in runs.iter().enumerate() {
            self.shard_totals[self.active[band]].merge(&run.stats);
        }
        // A homogeneous one-band plan's stats already are the sequential
        // stats — skip the recompute.
        let seq = match runs {
            [only] if self.fleet.is_none() => only.stats,
            _ => tiles.sequential_stats(l),
        };
        self.merged.merge(&seq);
    }

    /// Index of `tiles`' cached shard plan over the current active lanes,
    /// computing and inserting it on a miss (LRU order, most recently used
    /// last, bounded). `l` is the stream length a fleet-weighted plan is
    /// sized for; the first call's width shapes the cached plan (later
    /// widths reuse it — the balance shifts only marginally with `l`,
    /// never the correctness).
    fn plan_index(&mut self, tiles: &PreparedPacked, l: usize) -> usize {
        let key = PlanKey::of(tiles);
        let hit = self.plans.iter().position(|(k, lanes, _)| *k == key && *lanes == self.active);
        if let Some(i) = hit {
            let entry = self.plans.remove(i);
            self.plans.push(entry);
        } else {
            if self.plans.len() >= MAX_CACHED_PLANS {
                self.plans.remove(0);
            }
            // Bands cover the *active* lanes only — with every lane
            // healthy (the injector-free path) this is the full set.
            let plan = match &self.fleet {
                Some(fleet) => {
                    let active_fleet: Vec<ArrayGeometry> =
                        self.active.iter().map(|&lane| fleet[lane]).collect();
                    tiles.partition_row_bands_for(&active_fleet, l)
                }
                None => tiles.partition_row_bands(self.active.len()),
            };
            self.plans.push((key, self.active.clone(), plan));
        }
        self.plans.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::identity_groups;
    use crate::{ActivationScratch, BatchOutput, DeployedNetwork};
    use cc_dataset::SyntheticSpec;
    use cc_nn::models::{lenet5_shift, resnet20_shift, ModelConfig};
    use cc_systolic::array::ArrayConfig;
    use cc_systolic::partition_min_max;
    use cc_tensor::quant::AccumWidth;
    use cc_tensor::Tensor;

    fn small_array() -> ArrayConfig {
        // A deliberately small array so even tiny test networks span
        // several tile row-groups per conv (rows ≥ 4 bands).
        ArrayConfig::new(4, 8, AccumWidth::Bits32)
    }

    fn lenet_fixture() -> (DeployedNetwork, Vec<Tensor>) {
        let (train, test) =
            SyntheticSpec::mnist_like().with_size(8, 8).with_samples(48, 6).generate(51);
        let net = lenet5_shift(&ModelConfig::tiny(1, 8, 8, 10));
        let deployed =
            DeployedNetwork::build_with_array(&net, &identity_groups(&net), &train, small_array());
        let images = (0..test.len()).map(|i| test.image(i).clone()).collect();
        (deployed, images)
    }

    /// One sharded batch: logits plus per-shard, merged, and makespan
    /// counters.
    struct Sharded {
        logits: Vec<Vec<f32>>,
        per_shard: Vec<SimStats>,
        merged: SimStats,
        makespan: u64,
    }

    /// Row-band sharding: the whole network through `bands`.
    fn row_bands(net: &DeployedNetwork, images: &[Tensor], bands: &mut BandSet) -> Sharded {
        bands.reset_stats();
        let mut scratch = ActivationScratch::new();
        let logits = net.run_batch_banded(&net.scheduler(), images, &mut scratch, bands);
        Sharded {
            logits,
            per_shard: bands.shard_stats().to_vec(),
            merged: bands.merged_stats(),
            makespan: bands.makespan_cycles(),
        }
    }

    /// Layer cuts as stage ranges: `partition_min_max` over the layer
    /// costs, one `run_stage` per range on its own one-array set, the
    /// ranges folded as concurrently running arrays.
    fn layer_cuts(net: &DeployedNetwork, images: &[Tensor], k: usize) -> Sharded {
        let sched = net.scheduler();
        let mut scratch = ActivationScratch::new();
        let mut data = BatchOutput::Maps(net.quantize_batch_scratch(images, &mut scratch));
        let mut per_shard = Vec::new();
        for range in partition_min_max(&net.layer_costs(), k) {
            let mut bands = BandSet::new(1);
            data = net.run_stage(range, data, &sched, &mut scratch, Some(&mut bands));
            per_shard.push(bands.merged_stats());
        }
        let BatchOutput::Logits(logits) = data else { panic!("no classifier head") };
        let (mut merged, mut concurrent) = (SimStats::default(), SimStats::default());
        for s in &per_shard {
            merged.merge(s);
            concurrent.merge_concurrent(s);
        }
        Sharded { logits, per_shard, merged, makespan: concurrent.cycles }
    }

    #[test]
    fn sharded_lenet_matches_unsharded_in_both_modes() {
        let (deployed, images) = lenet_fixture();
        let serial = deployed.run_batch(&images);
        let mut merged_reference: Option<SimStats> = None;
        for layers in [true, false] {
            for shards in 1..=4 {
                let run = if layers {
                    layer_cuts(&deployed, &images, shards)
                } else {
                    row_bands(&deployed, &images, &mut BandSet::new(shards))
                };
                assert_eq!(run.logits, serial, "layers={layers} at {shards} shards diverged");
                // The merged counters are plan-invariant: every geometry
                // reassembles the same unsharded work, cycles included.
                match &merged_reference {
                    None => merged_reference = Some(run.merged),
                    Some(reference) => assert_eq!(
                        &run.merged, reference,
                        "layers={layers} at {shards} shards merged stats diverged"
                    ),
                }
                assert!(
                    run.makespan <= run.merged.cycles,
                    "makespan cannot exceed the sequential run"
                );
                assert!(run.makespan > 0, "conv work must land somewhere");
            }
        }
    }

    #[test]
    fn sharded_resnet_handles_residual_bodies() {
        let (train, test) =
            SyntheticSpec::cifar_like().with_size(8, 8).with_samples(48, 4).generate(52);
        let net = resnet20_shift(&ModelConfig::tiny(3, 8, 8, 10));
        let deployed =
            DeployedNetwork::build_with_array(&net, &identity_groups(&net), &train, small_array());
        let images: Vec<Tensor> = (0..test.len()).map(|i| test.image(i).clone()).collect();
        let serial = deployed.run_batch(&images);
        assert_eq!(layer_cuts(&deployed, &images, 3).logits, serial, "layer cuts diverged");
        assert_eq!(
            row_bands(&deployed, &images, &mut BandSet::new(3)).logits,
            serial,
            "row bands diverged on residuals"
        );
    }

    #[test]
    fn row_band_makespan_shrinks_with_shards() {
        let (deployed, images) = lenet_fixture();
        let makespan = |shards| row_bands(&deployed, &images, &mut BandSet::new(shards)).makespan;
        let m1 = makespan(1);
        let m4 = makespan(4);
        assert!(
            m4 < m1,
            "four arrays must beat one on simulated cycles: {m4} vs {m1}"
        );
    }

    #[test]
    fn layer_mode_clamps_and_reports_ranges() {
        let (deployed, _) = lenet_fixture();
        let ranges = partition_min_max(&deployed.layer_costs(), 100);
        assert_eq!(ranges.len(), deployed.num_layers());
        assert_eq!(ranges.last().unwrap().end, deployed.num_layers());
    }

    #[test]
    fn sharded_scratch_reuse_is_stable_and_warm() {
        let (deployed, images) = lenet_fixture();
        let sched = deployed.scheduler();
        let mut bands = BandSet::new(3);
        let mut acts = ActivationScratch::new();
        let first = deployed.run_batch_banded(&sched, &images, &mut acts, &mut bands);
        // Warm-up round two, then assert the pools stop growing.
        deployed.run_batch_banded(&sched, &images, &mut acts, &mut bands);
        let warm_bufs = acts.buffer_allocations();
        let warm_shells = acts.shell_allocations();
        for round in 0..3 {
            let logits = deployed.run_batch_banded(&sched, &images, &mut acts, &mut bands);
            assert_eq!(logits, first, "scratch reuse diverged on round {round}");
        }
        assert_eq!(
            acts.buffer_allocations(),
            warm_bufs,
            "steady-state sharded run allocated activation buffers"
        );
        assert_eq!(
            acts.shell_allocations(),
            warm_shells,
            "steady-state sharded run allocated batch shells"
        );
    }

    #[test]
    #[should_panic(expected = "need at least one shard")]
    fn zero_shards_rejected() {
        BandSet::new(0);
    }

    /// Regression: a set wider than 64 lanes used to overflow the
    /// plan-cache lane bitmask (`1 << lane`) on the healthy path — a panic
    /// in debug builds, an aliased cache key in release. Any width must
    /// run, with or without a fault injector, and stay bit-identical.
    #[test]
    fn sets_wider_than_64_lanes_run_bit_identically() {
        #[derive(Debug)]
        struct AlwaysRun;
        impl FaultInjector for AlwaysRun {
            fn band_action(&self, _lane: usize, _run: u64) -> BandAction {
                BandAction::Run
            }
        }
        let (deployed, images) = lenet_fixture();
        let serial = deployed.run_batch(&images);
        let mut bands = BandSet::new(65);
        assert_eq!(row_bands(&deployed, &images, &mut bands).logits, serial);
        bands.set_fault_injector(Some(Arc::new(AlwaysRun)));
        bands.reshape(70);
        assert_eq!(row_bands(&deployed, &images, &mut bands).logits, serial);
    }

    /// Heterogeneous fleets must stay bit-identical to the unsharded run
    /// and to every homogeneous plan — merged stats included, which are
    /// fleet-invariant by construction.
    #[test]
    fn hetero_fleet_matches_unsharded_with_invariant_merged_stats() {
        let (deployed, images) = lenet_fixture();
        let serial = deployed.run_batch(&images);
        let reference_merged = row_bands(&deployed, &images, &mut BandSet::new(1)).merged;
        let fleets = [
            vec![ArrayGeometry::new(4, 8), ArrayGeometry::new(2, 4)],
            vec![ArrayGeometry::new(4, 8), ArrayGeometry::new(2, 8), ArrayGeometry::new(2, 4)],
            vec![ArrayGeometry::new(2, 2)],
        ];
        for fleet in fleets {
            let mut bands = BandSet::with_fleet(fleet.clone());
            assert_eq!(bands.fleet(), Some(&fleet[..]));
            let run = row_bands(&deployed, &images, &mut bands);
            assert_eq!(run.logits, serial, "fleet {fleet:?} diverged");
            assert_eq!(
                run.merged, reference_merged,
                "merged stats must be fleet-invariant for {fleet:?}"
            );
        }
    }

    /// Regression test for per-geometry cycle attribution: shard totals
    /// must price each shard's bands under *its own* geometry (the old
    /// accounting priced every shard with the base cycle model), and the
    /// weighted planner must use the mix to beat the weak array alone.
    #[test]
    fn fleet_shard_totals_attribute_cycles_per_geometry() {
        let (deployed, images) = lenet_fixture();
        let weak = ArrayGeometry::new(2, 4);

        // Everything on one weak array: the baseline a mixed fleet must beat.
        let weak_makespan =
            row_bands(&deployed, &images, &mut BandSet::with_fleet(vec![weak])).makespan;

        let mut mixed = BandSet::with_fleet(vec![ArrayGeometry::new(4, 8), weak]);
        let stats = row_bands(&deployed, &images, &mut mixed);
        assert_eq!(stats.per_shard.len(), 2);
        assert!(
            stats.per_shard.iter().all(|s| s.cycles > 0),
            "both geometries must be priced"
        );
        // The makespan is the concurrent fold of per-geometry totals...
        assert_eq!(
            stats.makespan,
            stats.per_shard.iter().map(|s| s.cycles).max().unwrap()
        );
        // ...and the weighted plan beats running everything on the weak
        // array (the homogeneous-cost planner had no way to know).
        assert!(
            stats.makespan < weak_makespan,
            "mixed fleet {} must beat the weak array alone {}",
            stats.makespan,
            weak_makespan
        );
        // Direct attribution check: one weak shard runs the very same
        // bands as one base shard (the full matrix), so the old
        // shared-cycle-cost accounting would price them identically — the
        // weak geometry must cost strictly more.
        let base_makespan = row_bands(&deployed, &images, &mut BandSet::new(1)).makespan;
        assert!(
            weak_makespan > base_makespan,
            "a 2x4 array must be priced above the 4x8 base on identical bands: \
             {weak_makespan} vs {base_makespan}"
        );
    }
}
