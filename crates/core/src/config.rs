//! Machine configuration and the presets used throughout the evaluation.

use quape_isa::{DependencyMode, OpTimings};
use serde::{Deserialize, Serialize};

/// Full configuration of a QuAPE machine.
///
/// Defaults model the paper's FPGA prototype: 100 MHz core fabric
/// (10 ns cycles), a DAQ chain tuned so the end-to-end feedback latency is
/// ≈ 450 ns (§7), 3-cycle fast context switch, and a dual-bank private
/// instruction cache per processor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuapeConfig {
    /// Clock period in nanoseconds (10 ns = 100 MHz).
    pub clock_ns: u64,
    /// Number of processing units (1 = the QuMA_v2-like baseline).
    pub num_processors: usize,
    /// Instructions fetched per cycle (1 = scalar baseline, 8 = the
    /// paper's superscalar prototype).
    pub fetch_width: usize,
    /// Quantum pipelines per processor (instructions of one timing group
    /// dispatched per cycle). The paper couples this to the fetch width.
    pub quantum_pipes: usize,
    /// Pre-decode buffer capacity in instructions.
    pub predecode_buffer: usize,
    /// Nominal quantum-operation durations. The readout pulse defaults to
    /// 300 ns so the measured feedback latency lands at the paper's
    /// ≈ 450 ns.
    pub timings: OpTimings,
    /// DAQ demodulation/integration/threshold latency, base component.
    pub daq_base_ns: u64,
    /// DAQ latency jitter: the non-deterministic Stage II component is
    /// drawn uniformly from `0..=daq_jitter_ns`.
    pub daq_jitter_ns: u64,
    /// Concurrent demodulation servers per readout channel. A readout
    /// whose channel already has this many results in the demod pipeline
    /// waits for a server to free up, delaying its delivery (acquisition
    /// contention is modeled, not assumed infinite).
    pub daq_demod_slots: usize,
    /// Readout multiplexing: `None` (default) gives every qubit its own
    /// readout channel ([`crate::ChannelMap::linear`]); `Some(r)` shares
    /// `r` readout lines across the qubits
    /// ([`crate::ChannelMap::multiplexed`]), as in the paper's 8 readout
    /// channels for 10 qubits.
    pub readout_lines: Option<u16>,
    /// Scheduler response time per scheduling action, in cycles.
    pub scheduler_response_cycles: u64,
    /// Overrides the block-dependency mode the scheduler honours.
    /// `None` (the default) derives the mode from the program's block
    /// table, exactly as before this knob existed; forcing
    /// [`DependencyMode::Priority`] on a direct-dependency program (or
    /// vice versa) is a scheduling-policy ablation.
    pub dependency_mode: Option<DependencyMode>,
    /// Private instruction-cache banks per processor (the paper's
    /// prototype is dual-bank, §5.2.3: one executing, one prefetched).
    /// More banks give the scheduler more prefetch room.
    pub icache_banks: usize,
    /// Instruction words copied into a private cache bank per cycle.
    pub fill_words_per_cycle: usize,
    /// Cycles to switch a processor onto an already-prefetched cache bank.
    pub switch_cycles: u64,
    /// Cycles for the MRCE fast context switch (measured as 3 in §7).
    pub context_switch_cycles: u64,
    /// Capacity of the MRCE context store.
    pub context_capacity: usize,
    /// Enables prefetching of upcoming blocks into free cache banks.
    pub prefetch: bool,
    /// Enables the MRCE fast context switch; when disabled, MRCE stalls
    /// the pipeline like a plain FMR + branch (the ablation baseline).
    pub fast_context_switch: bool,
    /// Zero-cost scheduler used to compute the *ideal speedup* curve of
    /// Fig. 11b (all scheduling and allocation take no cycles).
    pub ideal_scheduler: bool,
    /// Seed for the machine's PRNG (DAQ jitter).
    pub seed: u64,
    /// Explicit qubit count for channel-map sizing. `None` (the default)
    /// sizes the setup by scanning the program for its highest qubit
    /// index; setting it avoids the scan and lets a setup expose more
    /// channels than the program touches (e.g. a fixed 10-qubit fridge
    /// running a 2-qubit job).
    pub num_qubits: Option<u16>,
}

impl QuapeConfig {
    /// The uniprocessor, scalar baseline — the configuration the paper
    /// equates with QuMA_v2 in the multiprocessor tests. Lowered from
    /// the builtin `baseline` [`MachineDescription`], the declarative
    /// source of truth for machine shapes.
    ///
    /// [`MachineDescription`]: crate::machdesc::MachineDescription
    pub fn uniprocessor() -> Self {
        crate::machdesc::MachineDescription::baseline().config_unvalidated()
    }

    /// Multiprocessor with `n` processing units (Fig. 11 sweeps 1/2/4/6).
    pub fn multiprocessor(n: usize) -> Self {
        crate::machdesc::MachineDescription::multiprocessor(n).config_unvalidated()
    }

    /// Scalar single-processor baseline for the superscalar comparison
    /// (Fig. 13).
    pub fn scalar_baseline() -> Self {
        Self::uniprocessor()
    }

    /// `w`-way superscalar single processor (the prototype implements
    /// w = 8).
    pub fn superscalar(w: usize) -> Self {
        crate::machdesc::MachineDescription::superscalar(w).config_unvalidated()
    }

    /// Derives the ideal-scheduler twin of this configuration (used for
    /// the theoretical-speedup series of Fig. 11b).
    pub fn ideal(mut self) -> Self {
        self.ideal_scheduler = true;
        self
    }

    /// Replaces the PRNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Fixes the setup's qubit count instead of scanning the program.
    pub fn with_num_qubits(mut self, num_qubits: u16) -> Self {
        self.num_qubits = Some(num_qubits);
        self
    }

    /// Multiplexes the readout over `lines` shared readout channels.
    pub fn with_readout_lines(mut self, lines: u16) -> Self {
        self.readout_lines = Some(lines);
        self
    }

    /// Sets the number of demod servers per readout channel.
    pub fn with_demod_slots(mut self, slots: usize) -> Self {
        self.daq_demod_slots = slots;
        self
    }

    /// Sets the number of private instruction-cache banks per processor.
    pub fn with_icache_banks(mut self, banks: usize) -> Self {
        self.icache_banks = banks;
        self
    }

    /// Forces the scheduler's block-dependency mode instead of deriving
    /// it from the program's block table.
    pub fn with_dependency_mode(mut self, mode: DependencyMode) -> Self {
        self.dependency_mode = Some(mode);
        self
    }

    /// Stable content digest of everything that shapes compilation and
    /// execution — every field except `seed`, which is a per-request
    /// runtime parameter (the shot engine and the job service derive all
    /// randomness from an explicit base seed, never from the compiled
    /// job's config).
    ///
    /// Used (combined with the program digest) to key compiled-job
    /// caches; stable across processes and runs.
    pub fn content_digest(&self) -> u64 {
        let mut h = quape_isa::Fnv64::new();
        h.write_u64(self.clock_ns)
            .write_u64(self.num_processors as u64)
            .write_u64(self.fetch_width as u64)
            .write_u64(self.quantum_pipes as u64)
            .write_u64(self.predecode_buffer as u64)
            .write_u64(self.timings.single_qubit_ns)
            .write_u64(self.timings.two_qubit_ns)
            .write_u64(self.timings.readout_pulse_ns)
            .write_u64(self.daq_base_ns)
            .write_u64(self.daq_jitter_ns)
            .write_u64(self.daq_demod_slots as u64)
            .write_u64(match self.readout_lines {
                None => u64::MAX,
                Some(l) => u64::from(l),
            })
            .write_u64(self.scheduler_response_cycles)
            .write_u64(match self.dependency_mode {
                None => u64::MAX,
                Some(DependencyMode::Direct) => 0,
                Some(DependencyMode::Priority) => 1,
            })
            .write_u64(self.icache_banks as u64)
            .write_u64(self.fill_words_per_cycle as u64)
            .write_u64(self.switch_cycles)
            .write_u64(self.context_switch_cycles)
            .write_u64(self.context_capacity as u64)
            .write_u32(u32::from(self.prefetch))
            .write_u32(u32::from(self.fast_context_switch))
            .write_u32(u32::from(self.ideal_scheduler))
            .write_u64(match self.num_qubits {
                None => u64::MAX,
                Some(n) => u64::from(n),
            });
        h.finish()
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.clock_ns == 0 {
            return Err("clock_ns must be positive".into());
        }
        if self.num_processors == 0 {
            return Err("need at least one processor".into());
        }
        if self.fetch_width == 0 || self.quantum_pipes == 0 {
            return Err("fetch width and quantum pipes must be positive".into());
        }
        if self.predecode_buffer < self.fetch_width {
            return Err("pre-decode buffer must hold at least one fetch group".into());
        }
        if self.fill_words_per_cycle == 0 {
            return Err("cache fill bandwidth must be positive".into());
        }
        if self.icache_banks < 2 {
            return Err("need at least two icache banks (execute + prefetch)".into());
        }
        if self.num_qubits == Some(0) {
            return Err("num_qubits override must be positive".into());
        }
        if let Some(n) = self
            .num_qubits
            .filter(|&n| usize::from(n) > quape_isa::MAX_QUBITS)
        {
            return Err(format!(
                "num_qubits override {n} exceeds the {} qubits the ISA addresses",
                quape_isa::MAX_QUBITS
            ));
        }
        if self.daq_demod_slots == 0 {
            return Err("need at least one DAQ demod server per channel".into());
        }
        if self.readout_lines == Some(0) {
            return Err("readout multiplexing needs at least one line".into());
        }
        Ok(())
    }
}

impl Default for QuapeConfig {
    fn default() -> Self {
        Self::uniprocessor()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        QuapeConfig::uniprocessor().validate().unwrap();
        QuapeConfig::multiprocessor(6).validate().unwrap();
        QuapeConfig::superscalar(8).validate().unwrap();
        QuapeConfig::superscalar(8).ideal().validate().unwrap();
    }

    #[test]
    fn superscalar_widths() {
        let c = QuapeConfig::superscalar(8);
        assert_eq!(c.fetch_width, 8);
        assert_eq!(c.quantum_pipes, 8);
        assert!(c.predecode_buffer >= 8);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut c = QuapeConfig::uniprocessor();
        c.clock_ns = 0;
        assert!(c.validate().is_err());
        let mut c = QuapeConfig::uniprocessor();
        c.num_processors = 0;
        assert!(c.validate().is_err());
        let mut c = QuapeConfig::superscalar(8);
        c.predecode_buffer = 4;
        assert!(c.validate().is_err());
        let mut c = QuapeConfig::uniprocessor();
        c.daq_demod_slots = 0;
        assert!(c.validate().is_err());
        let c = QuapeConfig::uniprocessor().with_readout_lines(0);
        assert!(c.validate().is_err());
    }

    #[test]
    fn content_digest_ignores_seed_only() {
        let base = QuapeConfig::superscalar(8);
        assert_eq!(base.content_digest(), base.clone().content_digest());
        assert_eq!(
            base.content_digest(),
            base.clone().with_seed(99).content_digest(),
            "seed is a runtime parameter, not cache-key material"
        );
        let mut slower = base.clone();
        slower.clock_ns = 20;
        assert_ne!(base.content_digest(), slower.content_digest());
        assert_ne!(
            base.content_digest(),
            base.clone().with_num_qubits(10).content_digest()
        );
        assert_ne!(
            base.content_digest(),
            base.clone().with_readout_lines(2).content_digest()
        );
    }

    #[test]
    fn ideal_flag_set() {
        assert!(QuapeConfig::multiprocessor(4).ideal().ideal_scheduler);
        assert!(!QuapeConfig::multiprocessor(4).ideal_scheduler);
    }
}
