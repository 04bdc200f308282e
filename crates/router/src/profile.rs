//! Per-shard capability descriptors and the job-side requirements they
//! are matched against.
//!
//! HiMA-style fleets are heterogeneous: control units differ in qubit
//! capacity, readout multiplexing geometry and demodulation resources.
//! A [`ShardProfile`] is the router-visible
//! summary of one shard's hardware, derived from the shard's
//! [`QuapeConfig`] (the same struct a job compiles against); a
//! [`JobRequirements`] is the matching summary of one request, derived
//! without assembling it. [`ShardProfile::can_run`] is the capability
//! filter [`Router::submit`](crate::Router::submit) applies before any
//! placement policy sees the candidate list.

use quape_core::{ChannelLayout, MachineDescription, QuapeConfig};
use quape_isa::scan_qubit_count;
use quape_server::{JobRequest, JobSource};

/// What one shard's hardware can run: the capability descriptor the
/// router's placement filter checks before any policy applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardProfile {
    /// Largest qubit count the shard's channel map can address.
    pub max_qubits: u16,
    /// Readout multiplexing: `None` = a dedicated line per qubit (any
    /// job fits); `Some(r)` = `r` shared readout lines, so a job that
    /// *requires* more lines than that (or, unmultiplexed, more qubits
    /// than lines) does not fit.
    pub readout_lines: Option<u16>,
    /// DAQ demodulation servers available per channel.
    pub demod_slots: usize,
}

impl ShardProfile {
    /// A profile that accepts every job — the default for shards whose
    /// deployment declares no constraints.
    pub fn unconstrained() -> Self {
        ShardProfile {
            max_qubits: u16::MAX,
            readout_lines: None,
            demod_slots: usize::MAX,
        }
    }

    /// Derives the profile from the shard's own machine configuration —
    /// the deployment-time [`QuapeConfig`] describing its fridge:
    /// [`num_qubits`](QuapeConfig::num_qubits) caps addressable qubits
    /// (`None` = unconstrained), [`readout_lines`](QuapeConfig::readout_lines)
    /// and [`daq_demod_slots`](QuapeConfig::daq_demod_slots) carry over
    /// verbatim.
    pub fn from_config(cfg: &QuapeConfig) -> Self {
        ShardProfile {
            max_qubits: cfg.num_qubits.unwrap_or(u16::MAX),
            readout_lines: cfg.readout_lines,
            demod_slots: cfg.daq_demod_slots,
        }
    }

    /// Derives the profile from a declarative [`MachineDescription`] —
    /// the same mapping as [`from_config`](ShardProfile::from_config),
    /// read off the description's channel layout and DAQ geometry
    /// without lowering it.
    pub fn from_machine(machine: &MachineDescription) -> Self {
        let (qubits, readout_lines) = match machine.channels {
            ChannelLayout::Linear { qubits } => (qubits, None),
            ChannelLayout::Multiplexed {
                qubits,
                readout_lines,
            } => (qubits, Some(readout_lines)),
        };
        ShardProfile {
            max_qubits: qubits.unwrap_or(u16::MAX),
            readout_lines,
            demod_slots: machine.daq.demod_slots,
        }
    }

    /// The capability filter: true when this shard can execute a job
    /// with the given requirements. Qubits must fit the channel map, the
    /// job's demod depth must not exceed the shard's, and the readout geometries must be
    /// compatible (see [`JobRequirements::readout_lines`]).
    pub fn can_run(&self, req: &JobRequirements) -> bool {
        if req.qubits > self.max_qubits {
            return false;
        }
        if req.demod_slots > self.demod_slots {
            return false;
        }
        match (req.readout_lines, self.readout_lines) {
            // Shard gives every qubit its own line: any geometry fits.
            (_, None) => true,
            // Job asks for r multiplexed lines: the shard must have them.
            (Some(r), Some(have)) => r <= have,
            // Job assumes a dedicated line per qubit: the shard's shared
            // lines must cover every qubit.
            (None, Some(have)) => req.qubits <= have,
        }
    }

    /// Packed-span feasibility: true when this shard can execute a
    /// *combined* multiprogrammed job whose members' relocated regions
    /// sum to `packed_span` qubits. The machine sees one program
    /// spanning the whole packed region — so the member's requirements
    /// are widened to that footprint before the ordinary
    /// [`can_run`](ShardProfile::can_run) filter applies. A span that
    /// fits each member solo can still fail here; that is the point.
    pub fn can_pack(&self, packed_span: u16, member: &JobRequirements) -> bool {
        self.can_run(&JobRequirements {
            qubits: packed_span,
            ..*member
        })
    }

    /// The largest packed qubit span this shard can host — what a
    /// router wires into each shard's
    /// [`PackerConfig::max_pack_qubits`](quape_server::PackerConfig::max_pack_qubits)
    /// so a shard never forms a pack its own fridge cannot load.
    pub fn pack_span_limit(&self) -> u16 {
        match self.readout_lines {
            // Dedicated-line members: every packed qubit needs a line.
            Some(lines) => self.max_qubits.min(lines),
            None => self.max_qubits,
        }
    }
}

impl Default for ShardProfile {
    fn default() -> Self {
        ShardProfile::unconstrained()
    }
}

/// What one job needs from a shard, derived from its [`JobRequest`]
/// without assembling the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobRequirements {
    /// Qubits the job addresses: the request's explicit
    /// [`num_qubits`](QuapeConfig::num_qubits) when set, else the
    /// program's own span ([`Program::num_qubits`](quape_isa::Program::num_qubits)
    /// for pre-built programs, a lexical
    /// [`scan_qubit_count`] for wire text).
    pub qubits: u16,
    /// Readout lines the job's config asks to multiplex onto (`None` =
    /// a dedicated line per qubit).
    pub readout_lines: Option<u16>,
    /// Demod servers the job's config assumes per channel.
    pub demod_slots: usize,
}

impl JobRequirements {
    /// Derives the requirements of a request. Text sources are scanned
    /// lexically (never assembled — capability filtering must stay far
    /// cheaper than a compile-cache hit): [`scan_qubit_count`] is one
    /// allocation-free pass over the text. A token past
    /// [`MAX_QUBITS`](quape_isa::MAX_QUBITS) (`q128`, or `q70000`, which
    /// saturates) makes the requirement wider than any machine compiles,
    /// and the router refuses such a job before anything parses it.
    pub fn of(req: &JobRequest) -> Self {
        let span = match &req.source {
            JobSource::Text(text) => scan_qubit_count(text),
            JobSource::Program(p) => p.num_qubits(),
        };
        JobRequirements {
            qubits: req.cfg.num_qubits.unwrap_or(span).max(span),
            readout_lines: req.cfg.readout_lines,
            demod_slots: req.cfg.daq_demod_slots,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(qubits: u16) -> JobRequirements {
        JobRequirements {
            qubits,
            readout_lines: None,
            demod_slots: 1,
        }
    }

    #[test]
    fn unconstrained_accepts_everything() {
        let p = ShardProfile::unconstrained();
        assert!(p.can_run(&req(u16::MAX)));
        assert!(p.can_run(&JobRequirements {
            qubits: 3,
            readout_lines: Some(100),
            demod_slots: usize::MAX,
        }));
    }

    #[test]
    fn qubit_cap_filters() {
        let p = ShardProfile {
            max_qubits: 8,
            ..ShardProfile::unconstrained()
        };
        assert!(p.can_run(&req(8)));
        assert!(!p.can_run(&req(9)));
    }

    #[test]
    fn readout_geometry_matches() {
        let shared4 = ShardProfile {
            readout_lines: Some(4),
            ..ShardProfile::unconstrained()
        };
        // Multiplexed job: needs its line count.
        assert!(shared4.can_run(&JobRequirements {
            readout_lines: Some(4),
            ..req(10)
        }));
        assert!(!shared4.can_run(&JobRequirements {
            readout_lines: Some(5),
            ..req(10)
        }));
        // Dedicated-line job: every qubit needs a line.
        assert!(shared4.can_run(&req(4)));
        assert!(!shared4.can_run(&req(5)));
    }

    #[test]
    fn packed_span_widens_the_feasibility_check() {
        let p = ShardProfile {
            max_qubits: 10,
            ..ShardProfile::unconstrained()
        };
        let member = req(4);
        // Each member fits solo, and so does a 2-pack…
        assert!(p.can_run(&member));
        assert!(p.can_pack(8, &member));
        // …but a 3-pack's combined span does not.
        assert!(!p.can_pack(12, &member));
    }

    #[test]
    fn pack_span_limit_respects_readout_lines() {
        let p = ShardProfile {
            max_qubits: 32,
            readout_lines: Some(6),
            ..ShardProfile::unconstrained()
        };
        // Dedicated-line members need a line per packed qubit.
        assert_eq!(p.pack_span_limit(), 6);
        assert_eq!(
            ShardProfile {
                max_qubits: 32,
                ..ShardProfile::unconstrained()
            }
            .pack_span_limit(),
            32
        );
    }

    #[test]
    fn from_config_carries_the_fields() {
        let cfg = QuapeConfig::superscalar(4)
            .with_num_qubits(6)
            .with_readout_lines(3)
            .with_demod_slots(2);
        let p = ShardProfile::from_config(&cfg);
        assert_eq!(p.max_qubits, 6);
        assert_eq!(p.readout_lines, Some(3));
        assert_eq!(p.demod_slots, 2);
    }
}
