//! Control-stack device models: measurement result registers, the DAQ
//! acquisition chain, the AWG bank, and the qubit→channel map.
//!
//! These mirror the boards of Fig. 9: the QCP sends codewords to AWGs to
//! trigger waveform generation and receives measurement results from DAQs,
//! which write the shared measurement result register file.
//!
//! Both analog devices are **event-timeline** models. The AWG bank keeps
//! per-channel occupancy and a queue of in-flight playbacks so timing
//! violations (a trigger arriving while the channel's previous waveform is
//! still playing, or while the target qubit is still busy) are caught *at
//! the device*. The DAQ runs a bounded number of demod
//! servers per readout line, so acquisition contention on a multiplexed
//! readout line delays delivery instead of being assumed away.

use quape_isa::{OpTimings, QuantumOp, Qubit};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Inserts `item` into `queue`, kept sorted by `key`, behind every entry
/// whose key is no greater (FIFO among ties). The device and timing
/// queues receive entries mostly in key order, so an entry that sorts
/// last is pushed without a search or an insert.
pub(crate) fn insert_sorted<T, K: Ord>(queue: &mut VecDeque<T>, item: T, key: impl Fn(&T) -> K) {
    let k = key(&item);
    if queue.back().is_none_or(|last| key(last) <= k) {
        queue.push_back(item);
    } else {
        let pos = queue.partition_point(|e| key(e) <= k);
        queue.insert(pos, item);
    }
}

/// Default number of concurrent demodulation servers per readout channel
/// (see [`crate::QuapeConfig::daq_demod_slots`]).
pub(crate) const DEFAULT_DEMOD_SLOTS: usize = 4;

/// One entry of the measurement result register file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MrrEntry {
    /// True once the DAQ has delivered a result not yet superseded by a
    /// newer measurement.
    pub valid: bool,
    /// The classical outcome bit.
    pub value: bool,
}

/// The measurement result register file, written by the DAQ and readable
/// by every processor (processors only read it, so sharing is safe —
/// §5.2.4). Registers live in a flat, qubit-indexed table: reads are a
/// bounds-checked load, which matters because both the FMR retry path and
/// the lowered loop's skip check consult the file on their hottest cycles.
#[derive(Debug, Clone, Default)]
pub struct MeasurementFile {
    entries: Vec<MrrEntry>,
}

impl MeasurementFile {
    /// Creates an empty file (all registers invalid).
    pub fn new() -> Self {
        Self::default()
    }

    /// Invalidates every register in place, keeping the table allocation
    /// (the arena-reuse twin of `MeasurementFile::new`).
    pub fn reset(&mut self) {
        self.entries.fill(MrrEntry::default());
    }

    /// Reads the register of `qubit`.
    pub fn read(&self, qubit: Qubit) -> MrrEntry {
        self.entries
            .get(qubit.index() as usize)
            .copied()
            .unwrap_or_default()
    }

    /// True if a valid result is available for `qubit`.
    pub fn is_valid(&self, qubit: Qubit) -> bool {
        self.read(qubit).valid
    }

    fn slot(&mut self, qubit: Qubit) -> &mut MrrEntry {
        let i = qubit.index() as usize;
        if i >= self.entries.len() {
            self.entries.resize(i + 1, MrrEntry::default());
        }
        &mut self.entries[i]
    }

    /// Invalidates the register (a new measurement has been issued).
    pub fn invalidate(&mut self, qubit: Qubit) {
        *self.slot(qubit) = MrrEntry::default();
    }

    /// DAQ write path: stores a delivered result and marks it valid.
    pub fn deliver(&mut self, qubit: Qubit, value: bool) {
        *self.slot(qubit) = MrrEntry { valid: true, value };
    }
}

/// A measurement result travelling through the acquisition chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PendingResult {
    /// Qubit being read out.
    pub qubit: Qubit,
    /// The sampled outcome, known to the simulator but not yet to the QCP.
    pub value: bool,
    /// Absolute time at which the result reaches the result register.
    pub deliver_at_ns: u64,
}

/// The DAQ model: demodulation + integration + thresholding latency with a
/// non-deterministic jitter component (the Stage I/II uncertainty of §2.4),
/// served by a **bounded pool of demod servers per readout line**. When
/// every server of a line is still integrating a previous readout, a new
/// result waits for the earliest server to free up — its delivery into the
/// result register is pushed back by the contention, and the delay is
/// accounted in [`Daq::contended_results`] / [`Daq::contention_delay_ns`].
///
/// The servers live in one flat table, a row of end times per readout
/// line, built once with the shot arena and zeroed in place by
/// [`Daq::reset`]. Rows start one server wide and widen only as far as a
/// line ever has readouts in flight at once, so a huge slot count costs
/// no memory it does not use. A readout costs one pass over its line's
/// row: the
/// server model is the same for a simulated shot, which also queues the
/// result for delivery ([`Daq::schedule_readout`]), and for a replayed
/// one, which only needs the delivery time.
#[derive(Debug, Clone)]
pub struct Daq {
    pending: VecDeque<PendingResult>,
    demod_slots: usize,
    /// When each demod server finishes its current job, `width` per line,
    /// line after line; an entry no later than a readout's ready time is
    /// a free server.
    ends: Vec<u64>,
    /// Servers per row: `demod_slots`, or fewer until a line has had that
    /// many readouts in flight at once. Kept across [`Daq::reset`].
    width: usize,
    /// The latest ready time routed since the last reset, which the
    /// server model requires never to decrease.
    last_ready_ns: u64,
    delivered: usize,
    contended_results: u64,
    contention_delay_ns: u64,
}

impl Default for Daq {
    fn default() -> Self {
        Self::new(DEFAULT_DEMOD_SLOTS, 1)
    }
}

impl Daq {
    /// Creates an idle DAQ with `demod_slots` concurrent demodulation
    /// servers (at least 1) on each of `readout_lines` readout lines.
    pub fn new(demod_slots: usize, readout_lines: u16) -> Self {
        Daq {
            pending: VecDeque::new(),
            demod_slots: demod_slots.max(1),
            ends: vec![0; usize::from(readout_lines.max(1))],
            width: 1,
            last_ready_ns: 0,
            delivered: 0,
            contended_results: 0,
            contention_delay_ns: 0,
        }
    }

    /// Returns the DAQ to its just-constructed state, keeping the queue
    /// and server-table allocations (the arena-reuse twin of
    /// [`Daq::new`]).
    pub fn reset(&mut self) {
        self.pending.clear();
        self.ends.fill(0);
        self.last_ready_ns = 0;
        self.delivered = 0;
        self.contended_results = 0;
        self.contention_delay_ns = 0;
    }

    /// Enqueues a result for delivery at an explicit time, bypassing the
    /// demod-server model (raw acquisition-chain injection).
    pub fn schedule(&mut self, result: PendingResult) {
        insert_sorted(&mut self.pending, result, |p| p.deliver_at_ns);
    }

    /// Routes a readout through the demod pipeline of readout line `line`
    /// and queues its result for delivery. The readout pulse ends at
    /// `ready_ns`, and demodulation + integration + thresholding take
    /// `demod_ns` on a server of the line. A server whose job ended by
    /// `ready_ns` is free; with all of them busy, demodulation starts
    /// when the earliest frees up, and the wait is counted as contention.
    /// Returns the delivery time.
    ///
    /// Readouts must arrive in non-decreasing `ready_ns` order between
    /// resets, as they do when issued by the control stack, whose issue
    /// times never decrease: a server once free is then free for every
    /// later readout, which is what lets the table keep only one end time
    /// per server. Debug builds assert the order.
    #[inline]
    pub fn schedule_readout(
        &mut self,
        line: u16,
        qubit: Qubit,
        value: bool,
        ready_ns: u64,
        demod_ns: u64,
    ) -> u64 {
        let deliver_at_ns = self.demodulate(line, ready_ns, demod_ns);
        self.schedule(PendingResult {
            qubit,
            value,
            deliver_at_ns,
        });
        deliver_at_ns
    }

    /// The demod-server decision of [`Daq::schedule_readout`], which
    /// queues nothing: returns the delivery time. It has the same
    /// non-decreasing `ready_ns` precondition, under which which free
    /// server a readout takes does not matter.
    #[inline]
    pub(crate) fn demodulate(&mut self, line: u16, ready_ns: u64, demod_ns: u64) -> u64 {
        debug_assert!(
            ready_ns >= self.last_ready_ns,
            "readout ready at {ready_ns} ns routed after one ready at {} ns",
            self.last_ready_ns
        );
        self.last_ready_ns = ready_ns;
        let line = usize::from(line);
        if (line + 1) * self.width > self.ends.len() {
            self.ends.resize((line + 1) * self.width, 0);
        }
        // The first free server, else the one that finishes first.
        let row = &self.ends[line * self.width..][..self.width];
        let mut slot = 0;
        for (i, &end) in row.iter().enumerate() {
            if end <= ready_ns {
                slot = i;
                break;
            }
            if end < row[slot] {
                slot = i;
            }
        }
        let earliest = row[slot];
        let start_ns = if earliest <= ready_ns {
            ready_ns
        } else if self.width < self.demod_slots {
            slot = self.widen();
            ready_ns
        } else {
            self.contended_results += 1;
            self.contention_delay_ns += earliest - ready_ns;
            earliest
        };
        let deliver_at_ns = start_ns + demod_ns;
        self.ends[line * self.width + slot] = deliver_at_ns;
        deliver_at_ns
    }

    /// Doubles the servers per row (up to `demod_slots`), keeping every
    /// line's end times; returns the index of the first new, free server.
    #[cold]
    fn widen(&mut self) -> usize {
        let old = self.width;
        let width = (old * 2).min(self.demod_slots);
        let mut ends = vec![0; self.ends.len() / old * width];
        for (new, row) in ends
            .chunks_exact_mut(width)
            .zip(self.ends.chunks_exact(old))
        {
            new[..old].copy_from_slice(row);
        }
        self.ends = ends;
        self.width = width;
        old
    }

    /// Delivers every result due at `now_ns` into the register file,
    /// returning how many were delivered (the run loops' progress hint).
    pub fn tick(&mut self, now_ns: u64, mrr: &mut MeasurementFile) -> usize {
        let mut n = 0;
        while let Some(front) = self.pending.front() {
            if front.deliver_at_ns > now_ns {
                break;
            }
            let r = self.pending.pop_front().expect("checked front");
            mrr.deliver(r.qubit, r.value);
            self.delivered += 1;
            n += 1;
        }
        n
    }

    /// Number of results still in flight.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Delivery time of the earliest in-flight result, if any — the DAQ's
    /// contribution to the lowered run loop's time-skip horizon.
    pub fn next_delivery_ns(&self) -> Option<u64> {
        self.pending.front().map(|p| p.deliver_at_ns)
    }

    /// Total results delivered so far.
    pub fn delivered(&self) -> usize {
        self.delivered
    }

    /// Results whose demodulation was delayed by server contention.
    pub fn contended_results(&self) -> u64 {
        self.contended_results
    }

    /// Total delivery delay caused by demod contention, in nanoseconds.
    pub fn contention_delay_ns(&self) -> u64 {
        self.contention_delay_ns
    }
}

/// The analog channels assigned to one qubit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct QubitChannels {
    /// Microwave (XY drive) channel.
    pub microwave: u16,
    /// Flux (Z / two-qubit) channel.
    pub flux: u16,
    /// Readout channel.
    pub readout: u16,
}

/// Static map from qubits to analog channels (hard-coded connection
/// information, as in the paper's experimental setup, which wires 38
/// analog channels to a 10-qubit device).
///
/// Two layouts ship:
///
/// * [`ChannelMap::linear`] — one microwave, one flux, and one dedicated
///   readout channel per qubit (`3·n` channels);
/// * [`ChannelMap::multiplexed`] — dedicated microwave/flux channels but
///   frequency-multiplexed readout: `r` shared readout lines serve all
///   qubits (qubits congruent modulo `r` share a line), giving `2·n + r`
///   channels — e.g. the paper's 8 readout channels for 10 qubits.
///
/// Both constructors clamp the qubit count to [`quape_isa::MAX_QUBITS`],
/// the widest setup the ISA addresses, so every channel number of a
/// mapped qubit fits the `u16` channel space. They are the only way to
/// build a map, so no map escapes the clamp.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelMap {
    num_qubits: u16,
    readout_lines: u16,
}

impl ChannelMap {
    /// Dedicated-readout layout: qubit q drives microwave channel `2q`,
    /// flux channel `2q+1`, and its own readout channel
    /// `2·num_qubits + q`.
    pub fn linear(num_qubits: u16) -> Self {
        Self::multiplexed(num_qubits, u16::MAX)
    }

    /// Multiplexed-readout layout: microwave/flux as in
    /// [`ChannelMap::linear`], but only `readout_lines` readout channels;
    /// qubit q shares line `2·num_qubits + (q mod readout_lines)` with
    /// every qubit congruent to it. `readout_lines` is clamped to
    /// `1..=num_qubits`.
    pub fn multiplexed(num_qubits: u16, readout_lines: u16) -> Self {
        let widest = u16::try_from(quape_isa::MAX_QUBITS).unwrap_or(u16::MAX);
        let num_qubits = num_qubits.min(widest);
        let readout_lines = readout_lines.clamp(1, num_qubits.max(1));
        ChannelMap {
            num_qubits,
            readout_lines,
        }
    }

    /// Channels of one qubit. A qubit beyond the map gets the readout
    /// line its index is congruent to, and drive channels saturated at
    /// `u16::MAX` rather than wrapped.
    pub fn channels(&self, q: Qubit) -> QubitChannels {
        let drive = q.index().saturating_mul(2);
        QubitChannels {
            microwave: drive,
            flux: drive.saturating_add(1),
            readout: 2 * self.num_qubits + self.readout_line(q),
        }
    }

    /// The readout line (`0..readout_lines`) that reads out `q`: its
    /// readout channel is `2·num_qubits` past it.
    pub(crate) fn readout_line(&self, q: Qubit) -> u16 {
        q.index() % self.readout_lines
    }

    /// Number of shared readout lines.
    pub fn readout_lines(&self) -> u16 {
        self.readout_lines
    }

    /// Total number of analog channels in the setup.
    pub fn channel_count(&self) -> u16 {
        2 * self.num_qubits + self.readout_lines
    }
}

/// One waveform playback recorded by the AWG bank: the trigger (codeword)
/// plus the extent the waveform occupies its channel. This is the
/// event-timeline record [`crate::render_timeline`] streams from.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlaybackEvent {
    /// Analog channel the waveform plays on.
    pub channel: u16,
    /// Qubit the channel drives for this playback.
    pub qubit: Qubit,
    /// Trigger (start) time.
    pub start_ns: u64,
    /// Time the waveform finishes playing.
    pub end_ns: u64,
    /// Waveform-table index encoding the pulse shape.
    pub waveform: u16,
    /// The operation that produced the trigger.
    pub op: QuantumOp,
}

/// What kind of occupancy conflict the AWG bank detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AwgViolationKind {
    /// The trigger arrived while the channel's previous waveform was still
    /// playing: the AWG cannot start the new waveform on time (a late
    /// trigger at the device). On a multiplexed readout line this also
    /// catches contention between *different* qubits sharing the line.
    ChannelOverlap,
    /// The target qubit was still executing a previous operation (possibly
    /// on another of its channels) — the device-side twin of the QPU
    /// shadow occupancy model's [`quape_qpu::TimingViolation`].
    QubitOverlap,
}

/// A timing violation detected at the AWG bank.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AwgViolation {
    /// Conflict kind.
    pub kind: AwgViolationKind,
    /// Channel the trigger addressed.
    pub channel: u16,
    /// Qubit the trigger drives.
    pub qubit: Qubit,
    /// Trigger time.
    pub time_ns: u64,
    /// When the conflicting resource would have been free.
    pub busy_until_ns: u64,
}

/// Derives a stable waveform-table index for an operation (the shared
/// table lives in `quape_isa` so the lowering pass bakes identical
/// codewords into micro-ops).
fn waveform_id(op: &QuantumOp) -> u16 {
    quape_isa::waveform_index(op)
}

/// The AWG bank as an event-timeline playback device.
///
/// Each emitted codeword becomes a [`PlaybackEvent`] with the waveform's
/// duration (from the [`OpTimings`] in force) resolved at emit time. The
/// bank tracks per-channel and per-qubit occupancy so overlap/late-trigger
/// conflicts are flagged **at the device** ([`AwgViolation`]), and keeps
/// the in-flight playbacks in an end-time-ordered queue for the
/// concurrency peak. Only an emission reads that queue, and each emission
/// first retires every playback that ended by its own time, so a run loop
/// need not tick the bank at all; [`AwgBank::tick`] retires everything
/// that ended by its argument, however late it is called.
#[derive(Debug, Clone)]
pub struct AwgBank {
    timings: OpTimings,
    /// Per-channel occupancy: when the channel's last waveform ends.
    channel_busy_until: Vec<u64>,
    /// Device-side per-qubit occupancy, mirroring the QPU shadow model.
    qubit_busy_until: Vec<u64>,
    /// End times of in-flight playbacks, ascending (FIFO among ties).
    active_ends: VecDeque<u64>,
    timeline: Vec<PlaybackEvent>,
    violations: Vec<AwgViolation>,
    retired: usize,
    max_concurrent: usize,
    record_timeline: bool,
    triggers: u64,
    /// Time of the latest emission: its instant's retirement is done.
    last_emission_ns: u64,
}

impl AwgBank {
    /// Creates an idle bank playing waveforms of the given durations.
    pub fn new(timings: OpTimings) -> Self {
        AwgBank {
            timings,
            channel_busy_until: Vec::new(),
            qubit_busy_until: Vec::new(),
            active_ends: VecDeque::new(),
            timeline: Vec::new(),
            violations: Vec::new(),
            retired: 0,
            max_concurrent: 0,
            record_timeline: true,
            triggers: 0,
            last_emission_ns: 0,
        }
    }

    /// Enables or disables materialising the playback timeline
    /// (lean/summary-only mode for batch paths). Occupancy tracking,
    /// violation detection, the in-flight queue and the
    /// [`triggers`](AwgBank::triggers) counter are unaffected, so
    /// execution is bit-identical either way — only
    /// [`timeline`](AwgBank::timeline) stays empty.
    pub fn set_record_timeline(&mut self, record: bool) {
        self.record_timeline = record;
    }

    /// Waveform playbacks triggered so far (counted even when the
    /// timeline itself is not recorded).
    pub fn triggers(&self) -> u64 {
        self.triggers
    }

    /// Returns the bank to its just-constructed state (same timings,
    /// same `record_timeline` setting), keeping the occupancy-table and
    /// queue allocations (the arena-reuse twin of [`AwgBank::new`]).
    pub fn reset(&mut self) {
        self.channel_busy_until.fill(0);
        self.qubit_busy_until.fill(0);
        self.active_ends.clear();
        self.timeline.clear();
        self.violations.clear();
        self.retired = 0;
        self.max_concurrent = 0;
        self.triggers = 0;
        self.last_emission_ns = 0;
    }

    fn busy_slot(v: &mut Vec<u64>, i: usize) -> &mut u64 {
        if i >= v.len() {
            v.resize(i + 1, 0);
        }
        &mut v[i]
    }

    /// Records one playback on `(channel, qubit)` and runs both occupancy
    /// checks.
    fn play(&mut self, channel: u16, qubit: Qubit, time_ns: u64, waveform: u16, op: &QuantumOp) {
        let duration = self.timings.duration_of(op);
        self.play_with(channel, qubit, time_ns, waveform, duration, op);
    }

    /// [`AwgBank::play`] with the waveform duration pre-resolved — the
    /// lowered fast path passes the duration baked into the micro-op
    /// instead of re-deriving it from the operation per trigger.
    pub(crate) fn play_with(
        &mut self,
        channel: u16,
        qubit: Qubit,
        time_ns: u64,
        waveform: u16,
        duration: u64,
        op: &QuantumOp,
    ) {
        let end_ns = time_ns + duration;

        // Channel occupancy: the line itself must be free. A conflicting
        // trigger still plays immediately (the AWG cannot delay it), so
        // the recorded extent stays `time_ns..end_ns` and the line is
        // busy until the latest recorded end — keeping the violation
        // report, the playback timeline, and the skip horizon in
        // agreement about when the line actually frees up.
        let ch = Self::busy_slot(&mut self.channel_busy_until, channel as usize);
        if time_ns < *ch {
            self.violations.push(AwgViolation {
                kind: AwgViolationKind::ChannelOverlap,
                channel,
                qubit,
                time_ns,
                busy_until_ns: *ch,
            });
        }
        *ch = (*ch).max(end_ns);

        // Qubit occupancy: the device's shadow of the QPU model — same
        // push-back update rule as `BehavioralQpu::apply`, so the two
        // stay in lock step (this is deliberately *not* the channel
        // rule above: the shadow must reproduce the QPU bit for bit).
        let qb = Self::busy_slot(&mut self.qubit_busy_until, qubit.index() as usize);
        if time_ns < *qb {
            self.violations.push(AwgViolation {
                kind: AwgViolationKind::QubitOverlap,
                channel,
                qubit,
                time_ns,
                busy_until_ns: *qb,
            });
        }
        *qb = time_ns.max(*qb) + duration;

        self.triggers += 1;
        if self.record_timeline {
            self.timeline.push(PlaybackEvent {
                channel,
                qubit,
                start_ns: time_ns,
                end_ns,
                waveform,
                op: *op,
            });
        }
        insert_sorted(&mut self.active_ends, end_ns, |&e| e);
        self.max_concurrent = self.max_concurrent.max(self.active_ends.len());
    }

    /// Retires, ahead of an emission at `time_ns`, every playback that
    /// ended by then: once per instant, as a cycle-stepped run's tick at
    /// the start of that cycle does. Playbacks emitted at one instant stay
    /// concurrent with each other, zero-length ones included.
    fn retire_before(&mut self, time_ns: u64) {
        if time_ns > self.last_emission_ns {
            self.tick(time_ns);
            self.last_emission_ns = time_ns;
        }
    }

    /// Emits the codeword(s) for one operation: microwave channel for
    /// single-qubit gates, flux channels of both qubits for two-qubit
    /// gates, readout channel for measurements.
    pub fn emit(&mut self, map: &ChannelMap, time_ns: u64, op: &QuantumOp) {
        self.retire_before(time_ns);
        let wf = waveform_id(op);
        match *op {
            QuantumOp::Gate1(_, q) => {
                self.play(map.channels(q).microwave, q, time_ns, wf, op);
            }
            QuantumOp::Gate2(_, a, b) => {
                self.play(map.channels(a).flux, a, time_ns, wf, op);
                self.play(map.channels(b).flux, b, time_ns, wf, op);
            }
            QuantumOp::Measure(q) => {
                self.play(map.channels(q).readout, q, time_ns, wf, op);
            }
        }
    }

    /// [`AwgBank::emit`] with the waveform codeword and duration
    /// pre-resolved (lowered fast path). Channel routing is identical:
    /// microwave for single-qubit gates, both flux channels for
    /// two-qubit gates, readout for measurements.
    pub(crate) fn emit_pre(
        &mut self,
        map: &ChannelMap,
        time_ns: u64,
        op: &QuantumOp,
        waveform: u16,
        dur_ns: u64,
    ) {
        self.retire_before(time_ns);
        match *op {
            QuantumOp::Gate1(_, q) => {
                self.play_with(map.channels(q).microwave, q, time_ns, waveform, dur_ns, op);
            }
            QuantumOp::Gate2(_, a, b) => {
                self.play_with(map.channels(a).flux, a, time_ns, waveform, dur_ns, op);
                self.play_with(map.channels(b).flux, b, time_ns, waveform, dur_ns, op);
            }
            QuantumOp::Measure(q) => {
                self.play_with(map.channels(q).readout, q, time_ns, waveform, dur_ns, op);
            }
        }
    }

    /// Retires every playback that has finished by `now_ns`; returns how
    /// many retired this tick.
    pub fn tick(&mut self, now_ns: u64) -> usize {
        let mut n = 0;
        while let Some(&end) = self.active_ends.front() {
            if end > now_ns {
                break;
            }
            self.active_ends.pop_front();
            n += 1;
        }
        self.retired += n;
        n
    }

    /// Number of waveforms currently playing.
    pub fn playing(&self) -> usize {
        self.active_ends.len()
    }

    /// Playbacks retired so far.
    pub fn retired(&self) -> usize {
        self.retired
    }

    /// Highest number of simultaneously playing waveforms observed.
    pub fn max_concurrent(&self) -> usize {
        self.max_concurrent
    }

    /// When `channel`'s last triggered waveform ends (0 if never used).
    pub fn channel_busy_until(&self, channel: u16) -> u64 {
        self.channel_busy_until
            .get(channel as usize)
            .copied()
            .unwrap_or(0)
    }

    /// The device's view of when `qubit` becomes free (0 if never driven).
    pub fn qubit_busy_until(&self, qubit: Qubit) -> u64 {
        self.qubit_busy_until
            .get(qubit.index() as usize)
            .copied()
            .unwrap_or(0)
    }

    /// The recorded playback timeline, in emission order.
    pub fn timeline(&self) -> &[PlaybackEvent] {
        &self.timeline
    }

    /// Violations detected so far.
    pub fn violations(&self) -> &[AwgViolation] {
        &self.violations
    }

    /// Playbacks recorded on one channel.
    pub fn on_channel(&self, channel: u16) -> impl Iterator<Item = &PlaybackEvent> {
        self.timeline.iter().filter(move |e| e.channel == channel)
    }

    /// Hands the timeline and violations over by value at end of shot,
    /// leaving the bank's buffers empty.
    pub fn take_results(&mut self) -> (Vec<PlaybackEvent>, Vec<AwgViolation>) {
        (
            std::mem::take(&mut self.timeline),
            std::mem::take(&mut self.violations),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quape_isa::{Gate1, Gate2};

    fn q(i: u16) -> Qubit {
        Qubit::new(i)
    }

    fn timings() -> OpTimings {
        OpTimings {
            single_qubit_ns: 20,
            two_qubit_ns: 40,
            readout_pulse_ns: 300,
        }
    }

    #[test]
    fn mrr_lifecycle() {
        let mut mrr = MeasurementFile::new();
        assert!(!mrr.is_valid(q(3)));
        mrr.deliver(q(3), true);
        assert!(mrr.is_valid(q(3)));
        assert!(mrr.read(q(3)).value);
        mrr.invalidate(q(3));
        assert!(!mrr.is_valid(q(3)));
    }

    #[test]
    fn daq_delivers_in_time_order() {
        let mut daq = Daq::default();
        let mut mrr = MeasurementFile::new();
        daq.schedule(PendingResult {
            qubit: q(0),
            value: true,
            deliver_at_ns: 500,
        });
        daq.schedule(PendingResult {
            qubit: q(1),
            value: false,
            deliver_at_ns: 300,
        });
        daq.tick(299, &mut mrr);
        assert_eq!(daq.in_flight(), 2);
        daq.tick(300, &mut mrr);
        assert!(mrr.is_valid(q(1)));
        assert!(!mrr.is_valid(q(0)));
        daq.tick(1000, &mut mrr);
        assert!(mrr.is_valid(q(0)));
        assert_eq!(daq.delivered(), 2);
        assert_eq!(daq.in_flight(), 0);
    }

    #[test]
    fn daq_equal_delivery_times_stay_fifo() {
        let mut daq = Daq::default();
        // Three results due at the same instant, interleaved with others:
        // delivery into the MRR must preserve their scheduling order (the
        // last write wins per qubit, so order is observable).
        for (qubit, value, at) in [
            (q(0), false, 400),
            (q(7), true, 200),
            (q(0), true, 400),
            (q(9), true, 600),
            (q(0), false, 400),
        ] {
            daq.schedule(PendingResult {
                qubit,
                value,
                deliver_at_ns: at,
            });
        }
        assert_eq!(daq.next_delivery_ns(), Some(200));
        let mut mrr = MeasurementFile::new();
        daq.tick(400, &mut mrr);
        // FIFO among the 400 ns ties: false, true, false — last is false.
        assert!(!mrr.read(q(0)).value);
        assert_eq!(daq.next_delivery_ns(), Some(600));
        daq.tick(600, &mut mrr);
        assert_eq!(daq.next_delivery_ns(), None);
    }

    #[test]
    fn daq_unsaturated_line_delivers_at_nominal_time() {
        let mut daq = Daq::new(2, 1);
        // Two overlapping readouts fit in the two servers: no delay.
        assert_eq!(daq.schedule_readout(0, q(0), false, 300, 100), 400);
        assert_eq!(daq.schedule_readout(0, q(1), true, 320, 100), 420);
        assert_eq!(daq.contended_results(), 0);
        assert_eq!(daq.contention_delay_ns(), 0);
    }

    #[test]
    fn daq_demod_contention_delays_delivery() {
        let mut daq = Daq::new(1, 2);
        // Same readout line, second result ready while the single server
        // still integrates the first: it waits until 400, delivers at 500.
        assert_eq!(daq.schedule_readout(1, q(0), false, 300, 100), 400);
        assert_eq!(daq.schedule_readout(1, q(1), true, 320, 100), 500);
        assert_eq!(daq.contended_results(), 1);
        assert_eq!(daq.contention_delay_ns(), 80);
        // A different line has its own servers: no contention.
        assert_eq!(daq.schedule_readout(0, q(2), true, 320, 100), 420);
        // After the first two finish, the line is free again.
        assert_eq!(daq.schedule_readout(1, q(0), false, 600, 100), 700);
        assert_eq!(daq.contended_results(), 1);
    }

    /// One line with two servers, saturated: each readout takes a free
    /// server if one has finished by its ready time, else waits for the
    /// earliest to finish. Deliveries worked by hand (demod 100 ns).
    #[test]
    fn daq_saturated_two_slot_line_matches_hand_computed_deliveries() {
        let mut daq = Daq::new(2, 1);
        let mut mrr = MeasurementFile::new();
        let deliveries: Vec<u64> = [300, 310, 320, 330, 500, 506]
            .into_iter()
            .map(|ready| daq.schedule_readout(0, q(0), true, ready, 100))
            .collect();
        // 300, 310: two free servers (ends 400, 410). 320: both busy,
        // starts at 400 (waits 80). 330: starts at 410 (waits 80). 500:
        // the server whose job ends at 500 is free again. 506: the other
        // one ends at 510 (waits 4).
        assert_eq!(deliveries, [400, 410, 500, 510, 600, 610]);
        assert_eq!(daq.contended_results(), 3);
        assert_eq!(daq.contention_delay_ns(), 80 + 80 + 4);
        assert_eq!(daq.next_delivery_ns(), Some(400));
        assert_eq!(daq.tick(509, &mut mrr), 3);
        assert_eq!(daq.tick(610, &mut mrr), 3);
        assert_eq!(daq.delivered(), 6);
        daq.reset();
        assert_eq!(daq.schedule_readout(0, q(0), true, 320, 100), 420);
        assert_eq!(daq.contended_results(), 0);
    }

    /// The table keeps one end time per server, which is exact only for
    /// readouts in ready-time order; debug builds refuse any other.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "routed after one ready at 320 ns")]
    fn daq_refuses_a_readout_ready_before_the_last_one() {
        let mut daq = Daq::new(2, 2);
        daq.schedule_readout(0, q(0), true, 320, 100);
        daq.schedule_readout(1, q(1), true, 300, 100);
    }

    /// Rows start one server wide and widen as readouts pile up; the
    /// configured count still bounds them.
    #[test]
    fn daq_rows_widen_up_to_the_configured_slots() {
        let slots = 17;
        let mut daq = Daq::new(slots, 3);
        assert_eq!(daq.width, 1);
        daq.demodulate(0, 50, 10);
        for _ in 0..slots {
            assert_eq!(daq.demodulate(2, 100, 100), 200);
        }
        assert_eq!(daq.contended_results(), 0);
        assert_eq!(daq.demodulate(2, 100, 100), 300);
        assert_eq!(daq.contended_results(), 1);
        assert_eq!(daq.contention_delay_ns(), 100);
        assert_eq!(daq.width, slots);
        assert_eq!(
            daq.ends[0], 60,
            "line 0 kept its server across the widening"
        );
        assert_eq!(Daq::new(usize::MAX, 128).ends.len(), 128);
    }

    #[test]
    fn channel_map_is_injective() {
        let map = ChannelMap::linear(10);
        let mut seen = std::collections::HashSet::new();
        for i in 0..10 {
            let ch = map.channels(q(i));
            assert!(seen.insert(ch.microwave));
            assert!(seen.insert(ch.flux));
            assert!(seen.insert(ch.readout));
        }
        assert_eq!(seen.len() as u16, map.channel_count());
    }

    #[test]
    fn linear_channel_count_is_three_per_qubit() {
        assert_eq!(ChannelMap::linear(10).channel_count(), 30);
        assert_eq!(ChannelMap::linear(2).channel_count(), 6);
    }

    #[test]
    fn multiplexed_channel_count_shares_readout_lines() {
        // The paper's setup: 10 qubits over 8 readout channels.
        let map = ChannelMap::multiplexed(10, 8);
        assert_eq!(map.readout_lines(), 8);
        assert_eq!(map.channel_count(), 28);
        // Qubits congruent mod 8 share a line; drive channels stay private.
        let a = map.channels(q(0));
        let b = map.channels(q(8));
        assert_eq!(a.readout, b.readout);
        assert_ne!(a.microwave, b.microwave);
        assert_ne!(a.flux, b.flux);
        assert_ne!(map.channels(q(1)).readout, a.readout);
        // Clamped: at least one line, at most one per qubit.
        assert_eq!(ChannelMap::multiplexed(4, 0).readout_lines(), 1);
        assert_eq!(ChannelMap::multiplexed(4, 9).readout_lines(), 4);
    }

    #[test]
    fn channel_maps_clamp_to_the_addressable_width_instead_of_overflowing() {
        let widest = quape_isa::MAX_QUBITS as u16;
        for map in [
            ChannelMap::linear(u16::MAX),
            ChannelMap::multiplexed(u16::MAX, u16::MAX),
            ChannelMap::linear(widest),
        ] {
            assert_eq!(map.channel_count(), 3 * widest);
            let mut seen = std::collections::HashSet::new();
            for i in 0..widest {
                let ch = map.channels(q(i));
                assert!(seen.insert(ch.microwave));
                assert!(seen.insert(ch.flux));
                assert!(seen.insert(ch.readout));
            }
            assert_eq!(seen.len(), usize::from(map.channel_count()));
            assert!(seen.iter().all(|&c| c < map.channel_count()));
            // A qubit beyond the map saturates instead of wrapping.
            let far = map.channels(q(u16::MAX));
            assert_eq!((far.microwave, far.flux), (u16::MAX, u16::MAX));
            assert!(far.readout < map.channel_count());
        }
        let muxed = ChannelMap::multiplexed(u16::MAX, 8);
        assert_eq!(muxed.readout_lines(), 8);
        assert_eq!(muxed.channel_count(), 2 * widest + 8);
        // Past the map, a qubit shares the line it is congruent to.
        assert_eq!(
            muxed.channels(q(widest + 3)).readout,
            muxed.channels(q(3)).readout
        );
    }

    #[test]
    fn awg_routes_ops_to_channels() {
        let map = ChannelMap::linear(4);
        let mut awg = AwgBank::new(timings());
        awg.emit(&map, 0, &QuantumOp::Gate1(Gate1::H, q(0)));
        awg.emit(&map, 20, &QuantumOp::Gate2(Gate2::Cz, q(0), q(1)));
        awg.emit(&map, 60, &QuantumOp::Measure(q(1)));
        assert_eq!(awg.timeline().len(), 4); // 1 + 2 + 1
        assert_eq!(awg.on_channel(map.channels(q(0)).microwave).count(), 1);
        assert_eq!(awg.on_channel(map.channels(q(0)).flux).count(), 1);
        assert_eq!(awg.on_channel(map.channels(q(1)).flux).count(), 1);
        assert_eq!(awg.on_channel(map.channels(q(1)).readout).count(), 1);
        assert!(awg.violations().is_empty());
    }

    #[test]
    fn awg_records_durations_at_emit_time() {
        let map = ChannelMap::linear(2);
        let mut awg = AwgBank::new(timings());
        awg.emit(&map, 100, &QuantumOp::Measure(q(1)));
        let e = &awg.timeline()[0];
        assert_eq!(e.start_ns, 100);
        assert_eq!(e.end_ns, 400);
        assert_eq!(awg.channel_busy_until(map.channels(q(1)).readout), 400);
        assert_eq!(awg.qubit_busy_until(q(1)), 400);
    }

    #[test]
    fn awg_flags_channel_and_qubit_overlap() {
        let map = ChannelMap::linear(2);
        let mut awg = AwgBank::new(timings());
        awg.emit(&map, 0, &QuantumOp::Gate1(Gate1::X, q(0)));
        // Same microwave channel retriggered 10 ns in: both the channel
        // and the qubit are still busy.
        awg.emit(&map, 10, &QuantumOp::Gate1(Gate1::Y, q(0)));
        let kinds: Vec<AwgViolationKind> = awg.violations().iter().map(|v| v.kind).collect();
        assert_eq!(
            kinds,
            vec![
                AwgViolationKind::ChannelOverlap,
                AwgViolationKind::QubitOverlap
            ]
        );
        assert_eq!(awg.violations()[0].busy_until_ns, 20);
    }

    #[test]
    fn awg_qubit_overlap_without_channel_overlap() {
        // X on q0's microwave line, then CNOT on q0's *flux* line while
        // the qubit is still busy: the flux channel itself is free, so
        // only the qubit-occupancy check fires — exactly what the QPU
        // shadow model reports.
        let map = ChannelMap::linear(2);
        let mut awg = AwgBank::new(timings());
        awg.emit(&map, 0, &QuantumOp::Gate1(Gate1::X, q(0)));
        awg.emit(&map, 10, &QuantumOp::Gate2(Gate2::Cnot, q(0), q(1)));
        let kinds: Vec<AwgViolationKind> = awg.violations().iter().map(|v| v.kind).collect();
        assert_eq!(kinds, vec![AwgViolationKind::QubitOverlap]);
        assert_eq!(awg.violations()[0].qubit, q(0));
    }

    #[test]
    fn awg_multiplexed_readout_contention_is_channel_overlap() {
        // Two different qubits sharing one readout line, measured 100 ns
        // apart: no qubit overlaps, but the shared line is still playing
        // the first readout tone — a conflict only the device can see.
        let map = ChannelMap::multiplexed(4, 1);
        let mut awg = AwgBank::new(timings());
        awg.emit(&map, 0, &QuantumOp::Measure(q(0)));
        awg.emit(&map, 100, &QuantumOp::Measure(q(1)));
        let kinds: Vec<AwgViolationKind> = awg.violations().iter().map(|v| v.kind).collect();
        assert_eq!(kinds, vec![AwgViolationKind::ChannelOverlap]);
        assert_eq!(awg.violations()[0].qubit, q(1));
        assert_eq!(awg.violations()[0].busy_until_ns, 300);
    }

    #[test]
    fn awg_overlap_does_not_push_back_channel_occupancy() {
        // A conflicting trigger still plays on schedule, so the line is
        // busy until the latest recorded end (400 ns), not a pushed-back
        // 600 ns: the violation list and the playback timeline must agree
        // on when the line frees up.
        let map = ChannelMap::multiplexed(4, 1);
        let mut awg = AwgBank::new(timings());
        awg.emit(&map, 0, &QuantumOp::Measure(q(0)));
        awg.emit(&map, 100, &QuantumOp::Measure(q(1))); // overlap: plays 100..400
        assert_eq!(awg.violations().len(), 1);
        let line = map.channels(q(0)).readout;
        assert_eq!(awg.channel_busy_until(line), 400);
        assert_eq!(awg.timeline()[1].end_ns, 400);
        // A third readout after the recorded end is clean.
        awg.emit(&map, 450, &QuantumOp::Measure(q(2)));
        assert_eq!(awg.violations().len(), 1);
    }

    #[test]
    fn awg_tick_retires_finished_playbacks() {
        let map = ChannelMap::linear(2);
        let mut awg = AwgBank::new(timings());
        awg.emit(&map, 0, &QuantumOp::Gate1(Gate1::X, q(0))); // ends 20
        awg.emit(&map, 0, &QuantumOp::Measure(q(1))); // ends 300
        assert_eq!(awg.playing(), 2);
        assert_eq!(awg.max_concurrent(), 2);
        assert_eq!(awg.tick(19), 0);
        assert_eq!(awg.tick(20), 1);
        assert_eq!(awg.playing(), 1);
        assert_eq!(awg.tick(299), 0);
        assert_eq!(awg.tick(1000), 1);
        assert_eq!(awg.playing(), 0);
        assert_eq!(awg.retired(), 2);
    }

    #[test]
    fn a_late_awg_tick_retires_everything_due() {
        let map = ChannelMap::linear(4);
        let mut awg = AwgBank::new(timings());
        for (t, qubit) in [(0, 0), (5, 1), (10, 2)] {
            awg.emit(&map, t, &QuantumOp::Gate1(Gate1::X, q(qubit)));
        }
        assert_eq!(awg.tick(1000), 3);
        awg.emit(&map, 1000, &QuantumOp::Gate1(Gate1::X, q(3)));
        assert_eq!(awg.playing(), 1);
        assert_eq!(awg.max_concurrent(), 3);
    }

    #[test]
    fn sorted_insert_appends_in_order_and_keeps_ties_fifo() {
        let mut queue = VecDeque::new();
        for (key, tag) in [(5, 'a'), (5, 'b'), (9, 'c'), (3, 'd'), (5, 'e'), (9, 'f')] {
            insert_sorted(&mut queue, (key, tag), |&(k, _)| k);
        }
        let tags: String = queue.iter().map(|&(_, t)| t).collect();
        assert_eq!(tags, "dabecf");
    }

    #[test]
    fn an_emission_retires_what_ended_before_its_instant_only() {
        // Zero-length pulses: ones emitted at the same instant overlap
        // (a cycle's tick retires before that cycle's emissions, never
        // between them), and a later emission retires them first.
        let instant = OpTimings {
            single_qubit_ns: 0,
            ..timings()
        };
        let map = ChannelMap::linear(4);
        let mut awg = AwgBank::new(instant);
        for qubit in 0..3 {
            awg.emit(&map, 10, &QuantumOp::Gate1(Gate1::X, q(qubit)));
        }
        assert_eq!((awg.playing(), awg.max_concurrent()), (3, 3));
        awg.emit(&map, 20, &QuantumOp::Measure(q(3)));
        assert_eq!((awg.playing(), awg.retired()), (1, 3));
        // Ticking as well, as the cycle-stepped loop does, changes nothing.
        assert_eq!(awg.tick(20), 0);
        awg.emit(&map, 20, &QuantumOp::Gate1(Gate1::X, q(0)));
        assert_eq!((awg.playing(), awg.max_concurrent()), (2, 3));
    }

    #[test]
    fn rotation_waveforms_distinct_per_angle() {
        use quape_isa::Angle;
        let a = waveform_id(&QuantumOp::Gate1(Gate1::Rx(Angle::new(1)), q(0)));
        let b = waveform_id(&QuantumOp::Gate1(Gate1::Rx(Angle::new(2)), q(0)));
        assert_ne!(a, b);
    }
}
