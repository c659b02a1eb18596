//! Shared slot-execution engine for SCAT and FCAT.
//!
//! One `Engine` instance owns the simulated world state of a run: the
//! still-active tags, the reader's collision-record store, and the report
//! being built. SCAT and FCAT differ only in *when* they advertise, *how*
//! they acknowledge resolved records, and how they adapt the report
//! probability — all of which stay in the protocol modules.
//!
//! # Hot-path layout
//!
//! The engine runs one slot per call over populations of tens of thousands
//! of tags, so the slot loop is organized around two ideas:
//!
//! * **Dense tag handles.** Every tag is interned into a `u32` index at
//!   construction (via the record store, which shares the table). The
//!   active set, the position map, and the per-tag cached hash state are
//!   then plain vectors — no SipHash probe anywhere in the loop.
//! * **No steady-state allocation.** The transmitter list, the resolution
//!   buffer, and (at signal level) the waveform all live in scratch
//!   buffers owned by the engine and reused across slots.

use crate::backend::{BackendModel, CollisionContext, CollisionOutcome, RecoveryBackend};
use crate::config::{Fidelity, Membership};
use crate::lambda::LambdaController;
use crate::records::{
    CollisionRecordStore, FailedResolution, RecordStats, ResolutionAttemptLog, Resolved,
};
use crate::resolution::{RecoveryPolicy, ResolutionModel};
use rand::rngs::StdRng;
use rand::Rng;
use rfid_obs::{EstimatorEvent, EventSink, LambdaEvent, RecordEvent, RecordEventKind, SlotEvent};
use rfid_signal::anc;
use rfid_signal::complex::Complex;
use rfid_sim::sampling::{pick_distinct_indices_into, sample_binomial};
use rfid_sim::{derive_seed, ErrorModel, InventoryReport, SimConfig, SimError, TraceEvent};
use rfid_types::hash::{
    effective_probability, probability_threshold, scan_transmitters, TagHashState,
};
use rfid_types::{SlotClass, TagId};

/// Sentinel in the dense position map for "not active".
const NOT_ACTIVE: u32 = u32::MAX;

/// Stream tag for the signal-backed resolution noise-seed, derived from
/// the run seed. `u64::MAX` is the rounds population stream and
/// `index*2(+1)` the per-run streams, so `u64::MAX - 2` cannot collide
/// with either. The derived value is the *master* of the store's
/// per-record `(seed, record, hop)` counter-stream family; shared with the
/// message-level device reader so both layers realize the same noise.
pub(crate) const RESOLUTION_RNG_STREAM: u64 = u64::MAX - 2;

/// Stream tag for the collision-recovery backend's per-slot draws
/// (compressed sensing's success probability). Reserved alongside
/// [`RESOLUTION_RNG_STREAM`]: `u64::MAX` is the rounds population stream,
/// `index*2(+1)` the per-run streams, and `u64::MAX - 2` the resolution
/// noise master, so `u64::MAX - 3` cannot collide with any of them. The
/// derived value masters the backend's `(seed, slot)` counter-stream
/// family — backend draws can never perturb the protocol RNG trajectory.
pub(crate) const BACKEND_RNG_STREAM: u64 = u64::MAX - 3;

/// A re-query slot scheduled by [`RecoveryPolicy::Requery`] after a failed
/// signal-backed resolution.
#[derive(Debug, Clone, Copy)]
struct PendingRequery {
    /// Dense index of the unresolved tag.
    idx: u32,
    /// Slot index of the record whose resolution failed (for obs events).
    record_slot: u64,
    /// 1-based attempt counter.
    attempt: u32,
    /// Earliest slot index at which the re-query may run.
    due_slot: u64,
}

/// What one slot produced, as seen by the protocol layer. The protocol
/// loops keep one instance alive and pass it back in; [`Engine::run_slot`]
/// clears it on entry.
#[derive(Debug, Default)]
pub(crate) struct SlotOutput {
    /// Coarse class the reader observed (corrupted singletons classify as
    /// collisions, captured collisions as singletons).
    pub class: Option<SlotClass>,
    /// IDs newly learned by resolving collision records this slot.
    pub resolved: Vec<Resolved>,
}

impl SlotOutput {
    fn clear(&mut self) {
        self.class = None;
        self.resolved.clear();
    }
}

/// The engine is generic over its [`EventSink`]: every emission sits
/// behind `if S::ENABLED`, a compile-time constant, so running with
/// [`rfid_obs::NoopSink`] compiles the whole observability path away. The
/// sink only ever receives copies of state — it cannot touch the RNG or
/// the world, which is what keeps traced and untraced runs identical.
pub(crate) struct Engine<'a, S: EventSink> {
    /// Still-active tags, as dense indices into the store's tag table.
    active: Vec<u32>,
    /// Cached ID-only hash rounds, parallel to `active` (same order, same
    /// swap-removes): the Hash-membership scan is a linear sweep of this
    /// array doing one splitmix round per tag — no gather, no hashing.
    active_states: Vec<TagHashState>,
    /// Dense index → position in `active` ([`NOT_ACTIVE`] when removed).
    position: Vec<u32>,
    pub records: CollisionRecordStore,
    membership: Membership,
    fidelity: &'a Fidelity,
    /// Failure handling for signal-backed resolutions.
    recovery: RecoveryPolicy,
    /// Collision-recovery backend: what a collision slot turns into
    /// (ANC record, immediate multi-decode, or nothing). Consulted only
    /// under [`Fidelity::SlotLevel`], like the resolution model.
    backend: BackendModel,
    /// Master seed of the backend's per-slot draw streams, derived from
    /// the run seed on [`BACKEND_RNG_STREAM`].
    backend_seed: u64,
    /// Re-query slots awaiting execution ([`RecoveryPolicy::Requery`]).
    requeries: Vec<PendingRequery>,
    errors: ErrorModel,
    slot_us: f64,
    max_slots: u64,
    hash_bits: u32,
    trace: bool,
    total_tags: usize,
    pub slot_index: u64,
    pub report: InventoryReport,
    sink: S,
    /// This slot's transmitters (dense indices), reused across slots.
    tx_scratch: Vec<u32>,
    /// Sampled-membership draw buffer for distinct active-set positions.
    pos_scratch: Vec<usize>,
    /// Cascade output buffer for the record store.
    resolved_scratch: Vec<(u32, Resolved)>,
    /// Signal-level: this slot's transmitter IDs (waveform synthesis order).
    id_scratch: Vec<TagId>,
    /// Signal-level: this slot's superposed reception.
    wave_scratch: Vec<Complex>,
    /// Signal-level: per-component modulation workspace.
    mix_scratch: anc::MixScratch,
    /// Drain buffer for the store's resolution-attempt log.
    attempt_scratch: Vec<ResolutionAttemptLog>,
    /// Drain buffer for the store's resolution-failure log.
    failure_scratch: Vec<FailedResolution>,
    /// Adaptive-λ control loop, when the run's `LambdaPolicy` asks for
    /// one. Fed from the same attempt log the observability layer reads.
    lambda_ctl: Option<LambdaController>,
}

impl<'a, S: EventSink> Engine<'a, S> {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: &str,
        tags: &[TagId],
        lambda: u32,
        membership: Membership,
        fidelity: &'a Fidelity,
        resolution: &ResolutionModel,
        recovery: RecoveryPolicy,
        backend: BackendModel,
        config: &SimConfig,
        sink: S,
    ) -> Self {
        let mut records = match fidelity {
            // The resolution model only has meaning at slot level; at
            // signal level the records carry waveforms recorded off the
            // simulated air and physics already decides every resolution.
            Fidelity::SlotLevel => match resolution {
                ResolutionModel::Ideal => CollisionRecordStore::slot_level(lambda),
                ResolutionModel::SignalBacked(cfg) => CollisionRecordStore::signal_backed(
                    lambda,
                    cfg.clone(),
                    recovery,
                    derive_seed(config.seed(), RESOLUTION_RNG_STREAM),
                ),
            },
            Fidelity::SignalLevel(sig) => CollisionRecordStore::signal_level(sig.msk.clone()),
        };
        records.set_attempt_logging(S::ENABLED);
        records.reserve_tags(tags.len());
        let mut active = Vec::with_capacity(tags.len());
        let mut active_states = Vec::with_capacity(tags.len());
        let mut position = Vec::with_capacity(tags.len());
        for (i, &tag) in tags.iter().enumerate() {
            let idx = records.intern(tag);
            if idx as usize == position.len() {
                position.push(NOT_ACTIVE);
            }
            // A duplicated input tag keeps its *last* occurrence's
            // position, matching the map-building this replaced.
            position[idx as usize] = u32::try_from(i).expect("population exceeds u32");
            active.push(idx);
            active_states.push(TagHashState::new(tag));
        }
        let mut report = InventoryReport::new(name);
        report.reserve_identified(tags.len());
        Engine {
            active,
            active_states,
            position,
            records,
            membership,
            fidelity,
            recovery,
            backend,
            backend_seed: derive_seed(config.seed(), BACKEND_RNG_STREAM),
            requeries: Vec::new(),
            errors: config.errors().clone(),
            slot_us: config.timing().basic_slot_us(),
            max_slots: config.max_slots(),
            hash_bits: config.hash_bits(),
            trace: config.trace_enabled(),
            total_tags: tags.len(),
            slot_index: 0,
            report,
            sink,
            tx_scratch: Vec::new(),
            pos_scratch: Vec::new(),
            resolved_scratch: Vec::new(),
            id_scratch: Vec::new(),
            wave_scratch: Vec::new(),
            mix_scratch: anc::MixScratch::default(),
            attempt_scratch: Vec::new(),
            failure_scratch: Vec::new(),
            lambda_ctl: None,
        }
    }

    /// Attaches an adaptive-λ controller (built by the protocol from the
    /// run's [`rfid_sim::LambdaPolicy`]). The store's attempt log is the
    /// controller's food, so logging turns on even when the sink is a
    /// no-op; [`Self::harvest_resolutions`] drains it either way.
    pub fn set_lambda_controller(&mut self, ctl: Option<LambdaController>) {
        self.records
            .set_attempt_logging(S::ENABLED || ctl.is_some());
        self.lambda_ctl = ctl;
        if let Some(ctl) = &self.lambda_ctl {
            // Seed the trajectory (and the store's gate, in case the
            // policy's bounds clamped the configured λ) with the starting
            // selection, so consumers always see the full λ history.
            let (lambda, omega) = (ctl.lambda(), ctl.omega());
            self.records.set_lambda(lambda);
            self.report
                .record_lambda_point(rfid_sim::LambdaTrajectoryPoint {
                    slot: self.slot_index,
                    lambda,
                    omega,
                });
            if S::ENABLED {
                self.sink.lambda(&LambdaEvent {
                    slot: self.slot_index,
                    lambda,
                    omega,
                });
            }
        }
    }

    /// Protocol decision point for the adaptive-λ loop (FCAT calls this at
    /// frame boundaries, SCAT per round): asks the controller for a
    /// decision and, when λ changes, re-gates the record store, emits a
    /// [`LambdaEvent`], and appends to the report's λ trajectory. Returns
    /// the new `(λ, ω*)` so the caller can re-derive its report
    /// probability.
    pub fn maybe_adjust_lambda(&mut self) -> Option<(u32, f64)> {
        let (lambda, omega) = self.lambda_ctl.as_mut()?.decide()?;
        self.records.set_lambda(lambda);
        let slot = self.slot_index;
        self.report
            .record_lambda_point(rfid_sim::LambdaTrajectoryPoint {
                slot,
                lambda,
                omega,
            });
        if S::ENABLED {
            self.sink.lambda(&LambdaEvent {
                slot,
                lambda,
                omega,
            });
        }
        Some((lambda, omega))
    }

    /// Forwards a population-estimate revision to the sink. Callers should
    /// guard both the call and the event construction with `if S::ENABLED`.
    pub fn emit_estimator(&mut self, event: EstimatorEvent) {
        if S::ENABLED {
            self.sink.estimator(&event);
        }
    }

    pub fn remaining(&self) -> usize {
        self.active.len()
    }

    fn remove_active(&mut self, idx: u32) {
        let pos = self.position[idx as usize];
        if pos != NOT_ACTIVE {
            self.position[idx as usize] = NOT_ACTIVE;
            self.active.swap_remove(pos as usize);
            self.active_states.swap_remove(pos as usize);
            if let Some(&moved) = self.active.get(pos as usize) {
                self.position[moved as usize] = pos;
            }
        }
    }

    /// Fills `out` with this slot's transmitters under the configured
    /// membership mode.
    fn fill_transmitters(
        &self,
        p: f64,
        rng: &mut StdRng,
        out: &mut Vec<u32>,
        positions: &mut Vec<usize>,
    ) {
        out.clear();
        match self.membership {
            Membership::Sampled => {
                // Quantize exactly as the hash test would (the inclusive
                // `H ≤ ⌊p·2^l⌋` rule realizes one quantum above the floor)
                // so the two membership modes stay distribution-identical.
                let k = sample_binomial(
                    self.active.len(),
                    effective_probability(p, self.hash_bits),
                    rng,
                );
                pick_distinct_indices_into(self.active.len(), k, rng, positions);
                out.extend(positions.iter().map(|&i| self.active[i]));
            }
            Membership::Hash => {
                if p <= 0.0 {
                    return;
                }
                let threshold = probability_threshold(p, self.hash_bits);
                scan_transmitters(
                    &self.active_states,
                    self.slot_index,
                    threshold,
                    self.hash_bits,
                    |pos| out.push(self.active[pos]),
                );
            }
        }
    }

    /// Runs one slot at probability `p`, leaving the outcome in `output`
    /// (cleared on entry). Charges one basic slot of air time; the caller
    /// layers advertisement / extended-ack overhead on top via
    /// [`InventoryReport::record_overhead`].
    ///
    /// # Errors
    ///
    /// [`SimError::ExceededMaxSlots`] when the safety cap is hit.
    pub fn run_slot(
        &mut self,
        p: f64,
        rng: &mut StdRng,
        output: &mut SlotOutput,
    ) -> Result<(), SimError> {
        output.clear();
        if self.slot_index >= self.max_slots {
            return Err(SimError::ExceededMaxSlots {
                max_slots: self.max_slots,
                identified: self.report.identified,
                total: self.total_tags,
            });
        }
        let mut transmitters = std::mem::take(&mut self.tx_scratch);
        let mut positions = std::mem::take(&mut self.pos_scratch);
        self.fill_transmitters(p, rng, &mut transmitters, &mut positions);
        self.pos_scratch = positions;
        self.slot_index += 1;
        let transmitter_count = transmitters.len() as u32;
        let identified_before = self.report.identified;
        let resolved_before = self.report.resolved_from_collisions;
        let stats_before = self.records.stats();

        // Copy out the `&'a Fidelity` reference so the match does not hold
        // a borrow of `self` (this is also what lets the signal path avoid
        // the per-slot config clone it used to make).
        let fidelity = self.fidelity;
        match fidelity {
            Fidelity::SlotLevel => self.run_slot_abstract(&transmitters, rng, output),
            Fidelity::SignalLevel(sig) => self.run_slot_signal(sig, &transmitters, rng, output),
        }
        self.tx_scratch = transmitters;
        if self.trace {
            self.report.record_trace_event(TraceEvent {
                slot: self.slot_index - 1,
                class: output.class.unwrap_or(SlotClass::Empty),
                transmitters: transmitter_count,
                learned: (self.report.identified - identified_before) as u32,
            });
        }
        let slot = self.slot_index - 1;
        self.emit_store_deltas(slot, stats_before);
        if S::ENABLED {
            let learned = (self.report.identified - identified_before) as u32;
            let learned_resolved = (self.report.resolved_from_collisions - resolved_before) as u32;
            self.sink.slot(&SlotEvent {
                slot,
                class: output.class.unwrap_or(SlotClass::Empty),
                transmitters: transmitter_count,
                p,
                learned_direct: learned - learned_resolved,
                learned_resolved,
                records_outstanding: self.records.outstanding() as u64,
            });
        }
        self.harvest_resolutions(slot);
        Ok(())
    }

    /// Surfaces exhaustions and failed resolution attempts that happened
    /// deep inside the cascade, from the store's counter deltas.
    fn emit_store_deltas(&mut self, slot: u64, before: RecordStats) {
        if S::ENABLED {
            let stats = self.records.stats();
            for _ in before.exhausted..stats.exhausted {
                self.sink.record(&RecordEvent {
                    slot,
                    record_slot: slot,
                    kind: RecordEventKind::Exhausted,
                });
            }
            for _ in before.failed_attempts..stats.failed_attempts {
                self.sink.record(&RecordEvent {
                    slot,
                    record_slot: slot,
                    kind: RecordEventKind::Failed,
                });
            }
        }
    }

    /// Drains the store's per-attempt and failure logs accumulated during
    /// `slot`: attempts become [`RecordEventKind::Attempted`] events, and
    /// failures become pending re-query slots when the recovery policy
    /// asks for them.
    fn harvest_resolutions(&mut self, slot: u64) {
        // The attempt log feeds two consumers: the sink (when enabled) and
        // the adaptive-λ controller (when attached). Drain it whenever
        // either is present.
        if S::ENABLED || self.lambda_ctl.is_some() {
            let mut attempts = std::mem::take(&mut self.attempt_scratch);
            debug_assert!(attempts.is_empty());
            self.records.swap_attempt_log(&mut attempts);
            for a in &attempts {
                if S::ENABLED {
                    self.sink.record(&RecordEvent {
                        slot,
                        record_slot: a.record_slot,
                        kind: RecordEventKind::Attempted {
                            hop: a.hop,
                            residual_snr_db: a.residual_snr_db,
                            success: a.success,
                        },
                    });
                }
                if let Some(ctl) = self.lambda_ctl.as_mut() {
                    ctl.observe(a.residual_snr_db);
                }
            }
            attempts.clear();
            self.attempt_scratch = attempts;
        }
        if let RecoveryPolicy::Requery { backoff_slots, .. } = self.recovery {
            let mut failures = std::mem::take(&mut self.failure_scratch);
            debug_assert!(failures.is_empty());
            self.records.swap_failed_log(&mut failures);
            for f in &failures {
                let due_slot = self.slot_index + u64::from(backoff_slots.max(1));
                self.requeries.push(PendingRequery {
                    idx: f.unknown,
                    record_slot: f.record_slot,
                    attempt: 1,
                    due_slot,
                });
                if S::ENABLED {
                    self.sink.record(&RecordEvent {
                        slot,
                        record_slot: f.record_slot,
                        kind: RecordEventKind::RequeryScheduled {
                            attempt: 1,
                            due_slot,
                        },
                    });
                }
            }
            failures.clear();
            self.failure_scratch = failures;
        }
    }

    /// Executes every due re-query slot: the reader addresses one
    /// unresolved tag (by the failed record's slot index), the tag
    /// retransmits alone, and the reader attempts a singleton decode.
    /// Success identifies the tag (and cascades); failure backs off
    /// linearly and retries up to the policy's bound, after which the tag
    /// simply stays in open contention — completeness never depends on a
    /// re-query succeeding.
    ///
    /// Returns the number of re-query slots executed (each charged one
    /// basic slot of air time; the caller layers command overhead on top).
    /// Resolved tags accumulate in `output` for ack accounting.
    ///
    /// # Errors
    ///
    /// [`SimError::ExceededMaxSlots`] when the safety cap is hit.
    pub fn drain_requeries(
        &mut self,
        rng: &mut StdRng,
        output: &mut SlotOutput,
    ) -> Result<u32, SimError> {
        output.clear();
        if self.requeries.is_empty() {
            return Ok(0);
        }
        let RecoveryPolicy::Requery {
            max_retries,
            backoff_slots,
        } = self.recovery
        else {
            return Ok(0);
        };
        let mut executed = 0u32;
        while let Some(pos) = self
            .requeries
            .iter()
            .position(|r| r.due_slot <= self.slot_index)
        {
            let pending = self.requeries.swap_remove(pos);
            if self.records.is_known_dense(pending.idx) {
                // Identified through open contention in the meantime; the
                // reader cancels the re-query for free.
                continue;
            }
            if self.slot_index >= self.max_slots {
                return Err(SimError::ExceededMaxSlots {
                    max_slots: self.max_slots,
                    identified: self.report.identified,
                    total: self.total_tags,
                });
            }
            self.slot_index += 1;
            executed += 1;
            let slot = self.slot_index - 1;
            let identified_before = self.report.identified;
            let resolved_before = self.report.resolved_from_collisions;
            let stats_before = self.records.stats();
            let success = self.records.requery_singleton(pending.idx);
            let class = if success {
                self.report.record_slot(SlotClass::Singleton, self.slot_us);
                self.process_singleton(pending.idx, rng, output);
                SlotClass::Singleton
            } else {
                // The addressed retransmission came back undecodable; the
                // reader observes garbage, i.e. a collision-class slot.
                self.report.record_slot(SlotClass::Collision, self.slot_us);
                if pending.attempt < max_retries {
                    let attempt = pending.attempt + 1;
                    let due_slot =
                        self.slot_index + u64::from(backoff_slots.max(1)) * u64::from(attempt);
                    self.requeries.push(PendingRequery {
                        attempt,
                        due_slot,
                        ..pending
                    });
                    if S::ENABLED {
                        self.sink.record(&RecordEvent {
                            slot,
                            record_slot: pending.record_slot,
                            kind: RecordEventKind::RequeryScheduled { attempt, due_slot },
                        });
                    }
                }
                SlotClass::Collision
            };
            self.report.requery_slots += 1;
            if S::ENABLED {
                self.sink.record(&RecordEvent {
                    slot,
                    record_slot: pending.record_slot,
                    kind: RecordEventKind::Requeried {
                        attempt: pending.attempt,
                        success,
                    },
                });
            }
            if self.trace {
                self.report.record_trace_event(TraceEvent {
                    slot,
                    class,
                    transmitters: 1,
                    learned: (self.report.identified - identified_before) as u32,
                });
            }
            self.emit_store_deltas(slot, stats_before);
            if S::ENABLED {
                let learned = (self.report.identified - identified_before) as u32;
                let learned_resolved =
                    (self.report.resolved_from_collisions - resolved_before) as u32;
                self.sink.slot(&SlotEvent {
                    slot,
                    class,
                    transmitters: 1,
                    p: 1.0,
                    learned_direct: learned - learned_resolved,
                    learned_resolved,
                    records_outstanding: self.records.outstanding() as u64,
                });
            }
            // A successful re-query's cascade can fail *other* records;
            // harvest so those failures get their own re-query slots.
            self.harvest_resolutions(slot);
        }
        Ok(executed)
    }

    /// Emits a [`RecordEventKind::Created`] for the record about to be
    /// deposited this slot.
    fn emit_record_created(&mut self, participants: usize, usable: bool) {
        if S::ENABLED {
            let slot = self.slot_index - 1;
            let usable = self.records.usable_at_insert(participants, usable);
            self.sink.record(&RecordEvent {
                slot,
                record_slot: slot,
                kind: RecordEventKind::Created {
                    participants: participants as u32,
                    usable,
                },
            });
        }
    }

    /// Deposits this slot's collision record and processes any cascade of
    /// resolutions through the reused scratch buffer.
    fn deposit_record(
        &mut self,
        transmitters: &[u32],
        usable: bool,
        signal: Option<Vec<Complex>>,
        rng: &mut StdRng,
        output: &mut SlotOutput,
    ) {
        let mut resolved = std::mem::take(&mut self.resolved_scratch);
        debug_assert!(resolved.is_empty());
        self.records.add_record_dense(
            self.slot_index - 1,
            transmitters,
            usable,
            signal,
            &mut resolved,
        );
        self.process_resolved(&resolved, rng, output);
        resolved.clear();
        self.resolved_scratch = resolved;
    }

    /// Slot-level classification: counts decide; λ decides resolvability.
    fn run_slot_abstract(
        &mut self,
        transmitters: &[u32],
        rng: &mut StdRng,
        output: &mut SlotOutput,
    ) {
        match transmitters.len() {
            0 => {
                self.report.record_slot(SlotClass::Empty, self.slot_us);
                output.class = Some(SlotClass::Empty);
            }
            1 => {
                if self.errors.sample_report_corrupted(rng) {
                    // The reader records an unusable mixed signal.
                    self.report.record_slot(SlotClass::Collision, self.slot_us);
                    output.class = Some(SlotClass::Collision);
                    self.handle_collision(transmitters, false, rng, output);
                } else {
                    self.report.record_slot(SlotClass::Singleton, self.slot_us);
                    output.class = Some(SlotClass::Singleton);
                    self.process_singleton(transmitters[0], rng, output);
                }
            }
            _ => {
                if self.errors.sample_capture(rng) {
                    // Capture effect: the dominant component decodes as a
                    // singleton; the other transmissions go unrecorded.
                    let winner = transmitters[rng.gen_range(0..transmitters.len())];
                    self.report.record_slot(SlotClass::Singleton, self.slot_us);
                    output.class = Some(SlotClass::Singleton);
                    self.process_singleton(winner, rng, output);
                    return;
                }
                self.report.record_slot(SlotClass::Collision, self.slot_us);
                output.class = Some(SlotClass::Collision);
                let spoiled = self.errors.sample_unresolvable(rng)
                    || self.errors.sample_report_corrupted(rng);
                self.handle_collision(transmitters, !spoiled, rng, output);
            }
        }
    }

    /// Routes a collision-class slot through the configured recovery
    /// backend, *after* the error-model draws (so the protocol RNG
    /// trajectory is independent of the backend). ANC always answers
    /// [`CollisionOutcome::Record`] and takes exactly the pre-trait
    /// deposit path; MPR/CS either decode the whole slot now or lose it —
    /// they never deposit records.
    fn handle_collision(
        &mut self,
        transmitters: &[u32],
        usable: bool,
        rng: &mut StdRng,
        output: &mut SlotOutput,
    ) {
        let ctx = CollisionContext {
            participants: transmitters.len() as u32,
            spoiled: !usable,
            slot: self.slot_index - 1,
            seed: self.backend_seed,
        };
        match self.backend.decide(&ctx) {
            CollisionOutcome::Record => {
                self.emit_record_created(transmitters.len(), usable);
                self.deposit_record(transmitters, usable, None, rng, output);
            }
            CollisionOutcome::DecodeAll => self.decode_all(transmitters, rng, output),
            CollisionOutcome::Lost => {}
        }
    }

    /// Decodes every reply of a collision slot in place (MPR separation or
    /// a successful sparse recovery): each tag is counted as resolved from
    /// a collision, acknowledged, and appended to the slot output so the
    /// protocols charge the same per-ID ack overhead as for ANC-resolved
    /// records.
    fn decode_all(&mut self, transmitters: &[u32], rng: &mut StdRng, output: &mut SlotOutput) {
        let slot = self.slot_index - 1;
        if S::ENABLED {
            self.sink.record(&RecordEvent {
                slot,
                record_slot: slot,
                kind: RecordEventKind::Recovered {
                    backend: match self.backend {
                        BackendModel::Anc => rfid_obs::RecoveryBackendTag::Anc,
                        BackendModel::Mpr(_) => rfid_obs::RecoveryBackendTag::Mpr,
                        BackendModel::CompressedSensing(_) => rfid_obs::RecoveryBackendTag::Cs,
                    },
                    decoded: transmitters.len() as u32,
                },
            });
        }
        let mut resolved = std::mem::take(&mut self.resolved_scratch);
        for &idx in transmitters {
            debug_assert!(resolved.is_empty());
            let tag = self.records.tag_of(idx);
            self.report.record_resolved_from_collision(tag);
            // Mark known (no-op for an already-identified tag whose ack
            // was lost); any cascade through outstanding ANC records is
            // processed uniformly, though non-ANC backends never deposit
            // records for one to exist.
            self.records.learn_dense(idx, &mut resolved);
            if !self.errors.sample_ack_lost(rng) {
                self.remove_active(idx);
            }
            output.resolved.push(Resolved { tag, slot });
            self.process_resolved(&resolved, rng, output);
            resolved.clear();
        }
        self.resolved_scratch = resolved;
    }

    /// Signal-level classification: synthesize the superposed waveform,
    /// energy-detect, demodulate, CRC-check. Capture effects and noise
    /// misclassifications happen when physics says so.
    fn run_slot_signal(
        &mut self,
        sig: &crate::config::SignalLevelConfig,
        transmitters: &[u32],
        rng: &mut StdRng,
        output: &mut SlotOutput,
    ) {
        let mut ids = std::mem::take(&mut self.id_scratch);
        ids.clear();
        ids.extend(transmitters.iter().map(|&idx| self.records.tag_of(idx)));
        let mut wave = std::mem::take(&mut self.wave_scratch);
        let mut mix = std::mem::take(&mut self.mix_scratch);
        anc::transmit_mixed_into(&ids, &sig.msk, &sig.channel, rng, &mut mix, &mut wave);
        self.mix_scratch = mix;
        // Energy detection: the noise floor per complex sample is 2σ²; a
        // +6 dB margin separates "silence" from any real component (whose
        // minimum power is attenuation_lo² ≥ 0.25 by default).
        let noise_floor = 2.0 * sig.channel.noise_std().powi(2);
        let power = rfid_signal::complex::mean_power(&wave);
        if power <= 4.0 * noise_floor + f64::EPSILON {
            self.report.record_slot(SlotClass::Empty, self.slot_us);
            output.class = Some(SlotClass::Empty);
            debug_assert!(transmitters.is_empty() || sig.channel.noise_std() > 0.0);
        } else {
            match anc::decode_singleton(&wave, &sig.msk) {
                Some(id) if ids.contains(&id) => {
                    // Clean singleton, or a collision captured by its
                    // dominant component — either way the reader reads one
                    // valid ID and the other transmitters (if any) go
                    // unrecorded.
                    let idx = transmitters[ids.iter().position(|&t| t == id).unwrap()];
                    self.report.record_slot(SlotClass::Singleton, self.slot_us);
                    output.class = Some(SlotClass::Singleton);
                    self.process_singleton(idx, rng, output);
                }
                Some(_) | None => {
                    // Undecodable mixture (or a CRC-colliding ghost ID,
                    // which the 2^-16 CRC makes vanishingly rare; the
                    // reader must not ack an ID nobody sent, so ghosts
                    // classify as collisions). The record owns its
                    // waveform; copying into a buffer reclaimed from a
                    // consumed record keeps the steady state allocation-
                    // free where a plain clone allocated every slot.
                    self.report.record_slot(SlotClass::Collision, self.slot_us);
                    output.class = Some(SlotClass::Collision);
                    self.emit_record_created(transmitters.len(), true);
                    let mut copy = self.records.pooled_wave_buffer();
                    copy.clear();
                    copy.extend_from_slice(&wave);
                    self.deposit_record(transmitters, true, Some(copy), rng, output);
                }
            }
        }
        self.id_scratch = ids;
        self.wave_scratch = wave;
    }

    /// Handles a decoded singleton: learn, cascade, acknowledge.
    fn process_singleton(&mut self, idx: u32, rng: &mut StdRng, output: &mut SlotOutput) {
        self.report.record_identified(self.records.tag_of(idx));
        let mut resolved = std::mem::take(&mut self.resolved_scratch);
        debug_assert!(resolved.is_empty());
        self.records.learn_dense(idx, &mut resolved);
        if !self.errors.sample_ack_lost(rng) {
            self.remove_active(idx);
        }
        self.process_resolved(&resolved, rng, output);
        resolved.clear();
        self.resolved_scratch = resolved;
    }

    /// Handles IDs recovered from collision records: count them, append to
    /// the slot output (for ack-payload accounting), acknowledge.
    fn process_resolved(
        &mut self,
        resolved: &[(u32, Resolved)],
        rng: &mut StdRng,
        output: &mut SlotOutput,
    ) {
        for (position, &(idx, r)) in resolved.iter().enumerate() {
            if S::ENABLED {
                let slot = self.slot_index - 1;
                self.sink.record(&RecordEvent {
                    slot,
                    record_slot: r.slot,
                    kind: RecordEventKind::Resolved {
                        tag: r.tag,
                        cascade_depth: position as u32 + 1,
                        latency_slots: slot.saturating_sub(r.slot),
                    },
                });
            }
            self.report.record_resolved_from_collision(r.tag);
            if !self.errors.sample_ack_lost(rng) {
                self.remove_active(idx);
            }
            output.resolved.push(r);
        }
    }

    /// Finishes the run: charges the termination detection cost (the
    /// reader observes `empty_streak` consecutive empty slots, then issues
    /// one `p = 1` probe slot that also comes back empty, §IV-A) and
    /// returns the report.
    pub fn finish(mut self, empty_streak: u32) -> InventoryReport {
        debug_assert!(self.active.is_empty());
        for _ in 0..=empty_streak {
            self.report.record_slot(SlotClass::Empty, self.slot_us);
            if self.trace {
                self.report.record_trace_event(TraceEvent {
                    slot: self.slot_index,
                    class: SlotClass::Empty,
                    transmitters: 0,
                    learned: 0,
                });
            }
            if S::ENABLED {
                // The termination tail is charged, not simulated; it ends
                // with the p = 1 probe, so that is the advertised
                // probability attributed here. Emitting these keeps a
                // replayed trace's slot-class totals equal to the report's.
                self.sink.slot(&SlotEvent {
                    slot: self.slot_index,
                    class: SlotClass::Empty,
                    transmitters: 0,
                    p: 1.0,
                    learned_direct: 0,
                    learned_resolved: 0,
                    records_outstanding: self.records.outstanding() as u64,
                });
            }
            self.slot_index += 1;
        }
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SignalLevelConfig;
    use rfid_obs::NoopSink;
    use rfid_sim::seeded_rng;
    use rfid_types::population;

    fn engine<'a>(tags: &[TagId], fidelity: &'a Fidelity) -> Engine<'a, NoopSink> {
        Engine::new(
            "test",
            tags,
            2,
            Membership::Sampled,
            fidelity,
            &ResolutionModel::Ideal,
            RecoveryPolicy::DropRecord,
            BackendModel::default(),
            &SimConfig::default(),
            NoopSink,
        )
    }

    #[test]
    fn p_zero_slot_is_empty() {
        let tags = population::uniform(&mut seeded_rng(1), 10);
        let fidelity = Fidelity::SlotLevel;
        let mut e = engine(&tags, &fidelity);
        let mut out = SlotOutput::default();
        e.run_slot(0.0, &mut seeded_rng(2), &mut out).unwrap();
        assert_eq!(out.class, Some(SlotClass::Empty));
        assert_eq!(e.remaining(), 10);
    }

    #[test]
    fn p_one_single_tag_is_singleton() {
        let tags = population::uniform(&mut seeded_rng(1), 1);
        let fidelity = Fidelity::SlotLevel;
        let mut e = engine(&tags, &fidelity);
        let mut out = SlotOutput::default();
        e.run_slot(1.0, &mut seeded_rng(2), &mut out).unwrap();
        assert_eq!(out.class, Some(SlotClass::Singleton));
        assert_eq!(e.remaining(), 0);
        assert_eq!(e.report.identified, 1);
    }

    #[test]
    fn p_one_two_tags_collide_then_resolve_via_probe() {
        let tags = population::uniform(&mut seeded_rng(1), 2);
        let fidelity = Fidelity::SlotLevel;
        let mut e = engine(&tags, &fidelity);
        let mut rng = seeded_rng(2);
        let mut out = SlotOutput::default();
        e.run_slot(1.0, &mut rng, &mut out).unwrap();
        assert_eq!(out.class, Some(SlotClass::Collision));
        assert_eq!(e.remaining(), 2);
        // Run at p = 0.5 until one tag hits a singleton; the 2-collision
        // record then resolves the other immediately.
        for _ in 0..200 {
            e.run_slot(0.5, &mut rng, &mut out).unwrap();
            if e.remaining() == 0 {
                assert_eq!(out.resolved.len(), 1);
                break;
            }
        }
        assert_eq!(e.report.identified, 2);
        assert_eq!(e.report.resolved_from_collisions, 1);
    }

    #[test]
    fn hash_membership_equivalent_rate() {
        let tags = population::uniform(&mut seeded_rng(3), 2_000);
        let fidelity = Fidelity::SlotLevel;
        let mut e = Engine::new(
            "t",
            &tags,
            2,
            Membership::Hash,
            &fidelity,
            &ResolutionModel::Ideal,
            RecoveryPolicy::DropRecord,
            BackendModel::default(),
            &SimConfig::default(),
            NoopSink,
        );
        let mut rng = seeded_rng(4);
        // Expected transmitters per slot at p = 1/2000 is 1.
        let mut singletons = 0u32;
        let mut out = SlotOutput::default();
        for _ in 0..600 {
            e.run_slot(1.0 / 2_000.0, &mut rng, &mut out).unwrap();
            if out.class == Some(SlotClass::Singleton) {
                singletons += 1;
            }
        }
        // Poisson(≈1): P(singleton) ≈ 0.368 → ~220 of 600, allow wide band.
        assert!((150..=300).contains(&singletons), "singletons {singletons}");
    }

    #[test]
    fn signal_level_empty_detection_with_noise() {
        let tags: Vec<TagId> = Vec::new();
        let fidelity = Fidelity::SignalLevel(SignalLevelConfig::default());
        let mut e = engine(&tags, &fidelity);
        let mut out = SlotOutput::default();
        e.run_slot(1.0, &mut seeded_rng(5), &mut out).unwrap();
        assert_eq!(out.class, Some(SlotClass::Empty));
    }

    #[test]
    fn signal_level_singleton_reads() {
        let tags = population::uniform(&mut seeded_rng(6), 1);
        let fidelity = Fidelity::SignalLevel(SignalLevelConfig::default());
        let mut e = engine(&tags, &fidelity);
        let mut out = SlotOutput::default();
        e.run_slot(1.0, &mut seeded_rng(7), &mut out).unwrap();
        assert_eq!(out.class, Some(SlotClass::Singleton));
        assert_eq!(e.report.identified, 1);
    }

    #[test]
    fn finish_charges_termination_slots() {
        let tags: Vec<TagId> = Vec::new();
        let fidelity = Fidelity::SlotLevel;
        let e = engine(&tags, &fidelity);
        let report = e.finish(5);
        assert_eq!(report.slots.empty, 6); // streak + probe
    }

    #[test]
    fn max_slots_enforced() {
        let tags = population::uniform(&mut seeded_rng(8), 4);
        let fidelity = Fidelity::SlotLevel;
        let config = SimConfig::default().with_max_slots(3);
        let mut e = Engine::new(
            "t",
            &tags,
            2,
            Membership::Sampled,
            &fidelity,
            &ResolutionModel::Ideal,
            RecoveryPolicy::DropRecord,
            BackendModel::default(),
            &config,
            NoopSink,
        );
        let mut rng = seeded_rng(9);
        let mut out = SlotOutput::default();
        for _ in 0..3 {
            e.run_slot(0.0, &mut rng, &mut out).unwrap();
        }
        assert!(matches!(
            e.run_slot(0.0, &mut rng, &mut out),
            Err(SimError::ExceededMaxSlots { .. })
        ));
    }

    #[test]
    fn configured_hash_bits_flow_into_membership() {
        // l = 1 quantizes probabilities to multiples of 1/2: p = 0.49
        // floors to threshold 0 → ~1/2 of tags transmit each slot (the
        // inclusive rule realizes (⌊0.49·2⌋+1)/2 = 1/2).
        let tags = population::uniform(&mut seeded_rng(10), 400);
        let fidelity = Fidelity::SlotLevel;
        let config = SimConfig::default().with_hash_bits(1).with_max_slots(10);
        let mut e = Engine::new(
            "t",
            &tags,
            2,
            Membership::Hash,
            &fidelity,
            &ResolutionModel::Ideal,
            RecoveryPolicy::DropRecord,
            BackendModel::default(),
            &config,
            NoopSink,
        );
        let mut out = SlotOutput::default();
        let mut tx = Vec::new();
        let mut pos = Vec::new();
        e.fill_transmitters(0.49, &mut seeded_rng(11), &mut tx, &mut pos);
        assert!(
            (120..=280).contains(&tx.len()),
            "l = 1 should gate ~half the tags, got {}",
            tx.len()
        );
        // And the slot still executes under the non-default width.
        e.run_slot(0.49, &mut seeded_rng(12), &mut out).unwrap();
        assert_eq!(out.class, Some(SlotClass::Collision));
    }
}
