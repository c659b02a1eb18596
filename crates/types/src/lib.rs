//! Core domain types shared by every crate in the ANC-RFID workspace.
//!
//! This crate defines the vocabulary of the system reproduced from
//! *"Using Analog Network Coding to Improve the RFID Reading Throughput"*
//! (Zhang, Li, Chen, Li — ICDCS 2010):
//!
//! * [`TagId`] — a 96-bit GEN2-style tag identifier whose low 16 bits are a
//!   CRC-16/CCITT checksum over the 80-bit payload (§III-A of the paper:
//!   "each ID carries a CRC code").
//! * [`crc`] — the CRC-16 implementation used both inside [`TagId`] and by
//!   the signal-layer demodulator to decide whether a decoded bit stream is a
//!   valid single-tag ID.
//! * [`hash`] — the deterministic slot-membership hash `H(ID|i)` from §IV-A.
//!   Both the tags and the reader evaluate it, which is what lets the reader
//!   reconstruct *which* known tags participated in an old collision slot.
//!   The module also holds `CounterRng`, the SplitMix64 counter stream that
//!   signal-backed resolution draws its Gaussian noise from.
//! * [`timing`] — the Philips I-Code air-interface timing used in §VI
//!   (53 kbit/s, 96-bit IDs, 20-bit acknowledgements, 302 µs guard times).
//! * [`slot`] — the slot-outcome taxonomy (empty / singleton / k-collision).
//! * [`population`] — tag-population generators for experiments.
//!
//! # Example
//!
//! ```
//! use rfid_types::{TagId, hash::transmits};
//!
//! let id = TagId::from_payload(0xA5A5_5A5A_DEAD_BEEF_00);
//! assert!(id.crc_is_valid());
//! // Deterministic membership test used by SCAT/FCAT: does this tag
//! // transmit in slot 7 when the advertised probability is 0.5?
//! let l = 16;
//! let threshold = (0.5 * f64::from(1u32 << l)) as u64;
//! let _ = transmits(id, 7, threshold, l);
//! ```

// Two items may call `unsafe`: the runtime-checked dispatches to the
// AVX-512 copies of the Hash-membership scan (`hash::scan_below_on`) and
// of the AWGN sampler's candidate block (`hash::polar_candidates_on`).
#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

pub mod crc;
pub mod epc;
pub mod hash;
pub mod population;
pub mod slot;
pub mod timing;

mod id;

pub use id::{ParseTagIdError, TagId, PAYLOAD_BITS, TAG_ID_BITS};
pub use slot::{SlotClass, SlotOutcome};
pub use timing::TimingConfig;
