//! Declarative machine descriptions: one serializable surface naming
//! every microarchitectural knob of a QuAPE machine.
//!
//! [`QuapeConfig`] is the engine's working representation — flat,
//! validated, digested for compile caches. A [`MachineDescription`] is
//! the *document* form of the same machine: grouped by subsystem
//! (processor complex, scheduler, instruction cache, readout channels,
//! DAQ, operation timings), serializable to JSON, and convertible both
//! ways:
//!
//! * [`MachineDescription::to_config`] lowers a description into a
//!   validated [`QuapeConfig`];
//! * [`MachineDescription::from_config`] lifts any config back into a
//!   description.
//!
//! The round trip is lossless with respect to everything that shapes
//! execution: `from_config(&c).to_config()` yields a config whose
//! [`QuapeConfig::content_digest`] equals `c.content_digest()` (the
//! digest excludes `seed`, a per-request runtime parameter that
//! descriptions deliberately do not carry).
//!
//! The paper's evaluation configurations are available as named
//! built-ins ([`MachineDescription::builtin`]); the [`QuapeConfig`]
//! presets are thin wrappers over them, so the description layer is the
//! single source of truth for machine shapes.

use crate::QuapeConfig;
use quape_isa::{DependencyMode, OpTimings};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Geometry of the processor complex: how many processing units, how
/// wide each one fetches and dispatches, and the MRCE context-switch
/// machinery (§5.2, §5.3 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProcessorDesc {
    /// Number of processing units (1 = the QuMA_v2-like baseline).
    pub count: usize,
    /// Instructions fetched per cycle (1 = scalar, 8 = the paper's
    /// superscalar prototype).
    pub fetch_width: usize,
    /// Quantum pipelines per processor.
    pub quantum_pipes: usize,
    /// Pre-decode buffer capacity in instructions.
    pub predecode_buffer: usize,
    /// Capacity of the MRCE context store.
    pub context_capacity: usize,
    /// Cycles for the MRCE fast context switch (measured as 3 in §7).
    pub context_switch_cycles: u64,
    /// Enables the MRCE fast context switch; when disabled, MRCE stalls
    /// like a plain FMR + branch (the ablation baseline).
    pub fast_context_switch: bool,
}

/// The hardware block scheduler's geometry (§5.2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchedulerDesc {
    /// Scheduler response time per scheduling action, in cycles.
    pub response_cycles: u64,
    /// Forces the block-dependency mode; `None` derives it from the
    /// program's block table (the default hardware behavior).
    pub dependency_mode: Option<DependencyMode>,
    /// Zero-cost scheduling for the ideal-speedup series of Fig. 11b.
    pub ideal: bool,
}

/// Per-processor private instruction cache (§5.2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ICacheDesc {
    /// Cache banks per processor (the prototype is dual-bank: one
    /// executing, one prefetched; minimum 2).
    pub banks: usize,
    /// Instruction words copied into a bank per cycle.
    pub fill_words_per_cycle: usize,
    /// Cycles to switch onto an already-prefetched bank.
    pub switch_cycles: u64,
    /// Enables prefetching of upcoming blocks into free banks.
    pub prefetch: bool,
}

/// Readout channel layout: how qubits map onto readout lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChannelLayout {
    /// Every qubit has a private readout channel
    /// ([`crate::ChannelMap::linear`]). `qubits: None` sizes the setup
    /// by scanning the program for its highest qubit index.
    Linear {
        /// Explicit qubit count, or `None` to size from the program.
        qubits: Option<u16>,
    },
    /// `readout_lines` shared lines serve all qubits
    /// ([`crate::ChannelMap::multiplexed`]), as in the paper's 8 readout
    /// channels for 10 qubits.
    Multiplexed {
        /// Explicit qubit count, or `None` to size from the program.
        qubits: Option<u16>,
        /// Number of shared readout lines (≥ 1, and at most the qubit
        /// count when that is explicit).
        readout_lines: u16,
    },
}

/// The DAQ demodulation chain (§6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DaqDesc {
    /// Demodulation/integration/threshold latency, base component (ns).
    pub base_ns: u64,
    /// Non-deterministic Stage II latency, drawn from `0..=jitter_ns`.
    pub jitter_ns: u64,
    /// Concurrent demodulation servers per readout channel (≥ 1).
    pub demod_slots: usize,
}

/// A complete, declarative description of one QuAPE machine — every
/// microarchitectural knob, grouped by subsystem. See the module docs
/// for the relationship with [`QuapeConfig`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MachineDescription {
    /// Clock period in nanoseconds (10 ns = 100 MHz).
    pub clock_ns: u64,
    /// Processor complex geometry.
    pub processors: ProcessorDesc,
    /// Block scheduler geometry.
    pub scheduler: SchedulerDesc,
    /// Private instruction cache geometry.
    pub icache: ICacheDesc,
    /// Readout channel layout.
    pub channels: ChannelLayout,
    /// DAQ demodulation chain.
    pub daq: DaqDesc,
    /// Nominal quantum-operation durations.
    pub timings: OpTimings,
}

/// Why a [`MachineDescription`] is not a valid machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DescriptionError {
    /// A multiplexed layout declared zero readout lines.
    ZeroReadoutLines,
    /// A multiplexed layout declared more readout lines than qubits.
    ReadoutLinesExceedQubits {
        /// Declared readout lines.
        lines: u16,
        /// Declared qubit count.
        qubits: u16,
    },
    /// The DAQ declared zero demodulation servers per channel.
    ZeroDemodSlots,
    /// [`MachineDescription::builtin`] was asked for a name it does not
    /// know.
    UnknownBuiltin(String),
    /// The lowered [`QuapeConfig`] failed its own validation.
    Config(String),
    /// The description could not be parsed from JSON.
    Json(String),
}

impl fmt::Display for DescriptionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DescriptionError::ZeroReadoutLines => {
                write!(f, "multiplexed readout needs at least one line")
            }
            DescriptionError::ReadoutLinesExceedQubits { lines, qubits } => write!(
                f,
                "multiplexed readout declares {lines} lines for {qubits} qubits; \
                 lines must not exceed qubits"
            ),
            DescriptionError::ZeroDemodSlots => {
                write!(f, "DAQ needs at least one demod server per channel")
            }
            DescriptionError::UnknownBuiltin(name) => write!(
                f,
                "unknown builtin machine '{name}' (known: {})",
                BUILTIN_NAMES.join(", ")
            ),
            DescriptionError::Config(msg) => write!(f, "invalid machine config: {msg}"),
            DescriptionError::Json(msg) => write!(f, "malformed machine description: {msg}"),
        }
    }
}

impl std::error::Error for DescriptionError {}

/// Builtin description names accepted by [`MachineDescription::builtin`]
/// (the parameterized families also accept `superscalar-<w>` and
/// `multiprocessor-<n>`).
pub const BUILTIN_NAMES: &[&str] = &["baseline", "uniprocessor", "scalar-baseline", "superscalar"];

impl MachineDescription {
    /// The uniprocessor, scalar baseline — the description behind
    /// [`QuapeConfig::uniprocessor`].
    pub fn baseline() -> Self {
        MachineDescription {
            clock_ns: 10,
            processors: ProcessorDesc {
                count: 1,
                fetch_width: 1,
                quantum_pipes: 1,
                predecode_buffer: 8,
                context_capacity: 4,
                context_switch_cycles: 3,
                fast_context_switch: true,
            },
            scheduler: SchedulerDesc {
                response_cycles: 4,
                dependency_mode: None,
                ideal: false,
            },
            icache: ICacheDesc {
                banks: 2,
                fill_words_per_cycle: 4,
                switch_cycles: 2,
                prefetch: true,
            },
            channels: ChannelLayout::Linear { qubits: None },
            daq: DaqDesc {
                base_ns: 100,
                jitter_ns: 30,
                demod_slots: crate::devices::DEFAULT_DEMOD_SLOTS,
            },
            timings: OpTimings {
                single_qubit_ns: 20,
                two_qubit_ns: 40,
                readout_pulse_ns: 300,
            },
        }
    }

    /// `w`-way superscalar single processor (the prototype implements
    /// w = 8) — the description behind [`QuapeConfig::superscalar`].
    pub fn superscalar(w: usize) -> Self {
        let mut d = Self::baseline();
        d.processors.fetch_width = w;
        d.processors.quantum_pipes = w;
        d.processors.predecode_buffer = 4 * w;
        d
    }

    /// Multiprocessor with `n` processing units — the description behind
    /// [`QuapeConfig::multiprocessor`].
    pub fn multiprocessor(n: usize) -> Self {
        let mut d = Self::baseline();
        d.processors.count = n;
        d
    }

    /// Looks up a built-in description by name: the names in
    /// [`BUILTIN_NAMES`] plus the parameterized families
    /// `superscalar-<w>` and `multiprocessor-<n>`.
    ///
    /// # Errors
    ///
    /// [`DescriptionError::UnknownBuiltin`] when the name matches no
    /// builtin (including malformed parameters like `superscalar-zero`).
    pub fn builtin(name: &str) -> Result<Self, DescriptionError> {
        let unknown = || DescriptionError::UnknownBuiltin(name.to_string());
        match name {
            "baseline" | "uniprocessor" | "scalar-baseline" => Ok(Self::baseline()),
            "superscalar" => Ok(Self::superscalar(8)),
            _ => {
                if let Some(w) = name.strip_prefix("superscalar-") {
                    let w: usize = w.parse().map_err(|_| unknown())?;
                    if w == 0 {
                        return Err(unknown());
                    }
                    Ok(Self::superscalar(w))
                } else if let Some(n) = name.strip_prefix("multiprocessor-") {
                    let n: usize = n.parse().map_err(|_| unknown())?;
                    if n == 0 {
                        return Err(unknown());
                    }
                    Ok(Self::multiprocessor(n))
                } else {
                    Err(unknown())
                }
            }
        }
    }

    /// Lifts a [`QuapeConfig`] into its description (always succeeds;
    /// the config's `seed` is dropped — it is a runtime parameter).
    pub fn from_config(cfg: &QuapeConfig) -> Self {
        MachineDescription {
            clock_ns: cfg.clock_ns,
            processors: ProcessorDesc {
                count: cfg.num_processors,
                fetch_width: cfg.fetch_width,
                quantum_pipes: cfg.quantum_pipes,
                predecode_buffer: cfg.predecode_buffer,
                context_capacity: cfg.context_capacity,
                context_switch_cycles: cfg.context_switch_cycles,
                fast_context_switch: cfg.fast_context_switch,
            },
            scheduler: SchedulerDesc {
                response_cycles: cfg.scheduler_response_cycles,
                dependency_mode: cfg.dependency_mode,
                ideal: cfg.ideal_scheduler,
            },
            icache: ICacheDesc {
                banks: cfg.icache_banks,
                fill_words_per_cycle: cfg.fill_words_per_cycle,
                switch_cycles: cfg.switch_cycles,
                prefetch: cfg.prefetch,
            },
            channels: match cfg.readout_lines {
                None => ChannelLayout::Linear {
                    qubits: cfg.num_qubits,
                },
                Some(lines) => ChannelLayout::Multiplexed {
                    qubits: cfg.num_qubits,
                    readout_lines: lines,
                },
            },
            daq: DaqDesc {
                base_ns: cfg.daq_base_ns,
                jitter_ns: cfg.daq_jitter_ns,
                demod_slots: cfg.daq_demod_slots,
            },
            timings: cfg.timings,
        }
    }

    /// The raw field-by-field lowering, without validation. Used by the
    /// [`QuapeConfig`] presets, which historically returned unvalidated
    /// configs for out-of-range parameters (validation happens at
    /// machine construction).
    pub(crate) fn config_unvalidated(&self) -> QuapeConfig {
        let (num_qubits, readout_lines) = match self.channels {
            ChannelLayout::Linear { qubits } => (qubits, None),
            ChannelLayout::Multiplexed {
                qubits,
                readout_lines,
            } => (qubits, Some(readout_lines)),
        };
        QuapeConfig {
            clock_ns: self.clock_ns,
            num_processors: self.processors.count,
            fetch_width: self.processors.fetch_width,
            quantum_pipes: self.processors.quantum_pipes,
            predecode_buffer: self.processors.predecode_buffer,
            timings: self.timings,
            daq_base_ns: self.daq.base_ns,
            daq_jitter_ns: self.daq.jitter_ns,
            daq_demod_slots: self.daq.demod_slots,
            readout_lines,
            scheduler_response_cycles: self.scheduler.response_cycles,
            dependency_mode: self.scheduler.dependency_mode,
            icache_banks: self.icache.banks,
            fill_words_per_cycle: self.icache.fill_words_per_cycle,
            switch_cycles: self.icache.switch_cycles,
            context_switch_cycles: self.processors.context_switch_cycles,
            context_capacity: self.processors.context_capacity,
            prefetch: self.icache.prefetch,
            fast_context_switch: self.processors.fast_context_switch,
            ideal_scheduler: self.scheduler.ideal,
            seed: 0,
            num_qubits,
        }
    }

    /// Checks description-level constraints (the ones expressible before
    /// lowering: channel layout and DAQ sanity).
    ///
    /// # Errors
    ///
    /// The first violated constraint, as a typed [`DescriptionError`].
    pub fn validate(&self) -> Result<(), DescriptionError> {
        if let ChannelLayout::Multiplexed {
            qubits,
            readout_lines,
        } = self.channels
        {
            if readout_lines == 0 {
                return Err(DescriptionError::ZeroReadoutLines);
            }
            if let Some(qubits) = qubits {
                if readout_lines > qubits {
                    return Err(DescriptionError::ReadoutLinesExceedQubits {
                        lines: readout_lines,
                        qubits,
                    });
                }
            }
        }
        if self.daq.demod_slots == 0 {
            return Err(DescriptionError::ZeroDemodSlots);
        }
        Ok(())
    }

    /// Lowers the description into a validated [`QuapeConfig`].
    ///
    /// # Errors
    ///
    /// Description-level violations come back as their typed
    /// [`DescriptionError`] variants; anything the flat config's own
    /// [`QuapeConfig::validate`] rejects comes back as
    /// [`DescriptionError::Config`].
    pub fn to_config(&self) -> Result<QuapeConfig, DescriptionError> {
        self.validate()?;
        let cfg = self.config_unvalidated();
        cfg.validate().map_err(DescriptionError::Config)?;
        Ok(cfg)
    }

    /// Serializes the description as pretty-printed JSON (the format of
    /// the committed `machines/*.json` files).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("machine descriptions always serialize")
    }

    /// Parses a description from JSON and validates it.
    ///
    /// # Errors
    ///
    /// [`DescriptionError::Json`] on parse failure, otherwise the same
    /// errors as [`MachineDescription::validate`].
    pub fn from_json(text: &str) -> Result<Self, DescriptionError> {
        let d: MachineDescription =
            serde_json::from_str(text).map_err(|e| DescriptionError::Json(e.to_string()))?;
        d.validate()?;
        Ok(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_lower_to_the_presets() {
        assert_eq!(
            MachineDescription::baseline().to_config().unwrap(),
            QuapeConfig::uniprocessor()
        );
        assert_eq!(
            MachineDescription::superscalar(8).to_config().unwrap(),
            QuapeConfig::superscalar(8)
        );
        assert_eq!(
            MachineDescription::multiprocessor(4).to_config().unwrap(),
            QuapeConfig::multiprocessor(4)
        );
    }

    #[test]
    fn builtin_lookup() {
        assert_eq!(
            MachineDescription::builtin("baseline").unwrap(),
            MachineDescription::baseline()
        );
        assert_eq!(
            MachineDescription::builtin("superscalar").unwrap(),
            MachineDescription::superscalar(8)
        );
        assert_eq!(
            MachineDescription::builtin("superscalar-4").unwrap(),
            MachineDescription::superscalar(4)
        );
        assert_eq!(
            MachineDescription::builtin("multiprocessor-6").unwrap(),
            MachineDescription::multiprocessor(6)
        );
        for bad in [
            "qupe",
            "superscalar-zero",
            "superscalar-0",
            "multiprocessor-",
        ] {
            assert!(matches!(
                MachineDescription::builtin(bad),
                Err(DescriptionError::UnknownBuiltin(_))
            ));
        }
    }

    #[test]
    fn config_round_trip_preserves_digest() {
        let configs = [
            QuapeConfig::uniprocessor(),
            QuapeConfig::multiprocessor(6),
            QuapeConfig::superscalar(8).ideal(),
            QuapeConfig::multiprocessor(4)
                .with_num_qubits(10)
                .with_readout_lines(8)
                .with_demod_slots(2)
                .with_icache_banks(3)
                .with_dependency_mode(quape_isa::DependencyMode::Priority)
                .with_seed(99),
        ];
        for cfg in configs {
            let desc = MachineDescription::from_config(&cfg);
            let back = desc.to_config().unwrap();
            assert_eq!(
                back.content_digest(),
                cfg.content_digest(),
                "round trip must preserve the compile-cache digest"
            );
            assert_eq!(MachineDescription::from_config(&back), desc);
        }
    }

    #[test]
    fn json_round_trip() {
        let desc = MachineDescription::from_config(
            &QuapeConfig::multiprocessor(4)
                .with_num_qubits(10)
                .with_readout_lines(8),
        );
        let text = desc.to_json();
        assert_eq!(MachineDescription::from_json(&text).unwrap(), desc);
    }

    #[test]
    fn validation_errors_are_typed_and_distinct() {
        let mut d = MachineDescription::baseline();
        d.channels = ChannelLayout::Multiplexed {
            qubits: None,
            readout_lines: 0,
        };
        assert_eq!(d.validate(), Err(DescriptionError::ZeroReadoutLines));

        let mut d = MachineDescription::baseline();
        d.channels = ChannelLayout::Multiplexed {
            qubits: Some(4),
            readout_lines: 9,
        };
        assert_eq!(
            d.validate(),
            Err(DescriptionError::ReadoutLinesExceedQubits {
                lines: 9,
                qubits: 4
            })
        );

        let mut d = MachineDescription::baseline();
        d.daq.demod_slots = 0;
        assert_eq!(d.validate(), Err(DescriptionError::ZeroDemodSlots));

        let mut d = MachineDescription::baseline();
        d.icache.banks = 1;
        assert!(matches!(
            d.to_config(),
            Err(DescriptionError::Config(msg)) if msg.contains("icache")
        ));
    }
}
